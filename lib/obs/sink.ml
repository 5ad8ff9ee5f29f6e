type snapshot = {
  histograms : (string * Histogram.summary) list;
  counters : Counters.totals;
  trace_tail : Trace.event list;
}

let capture ?(trace_tail = 64) () =
  {
    histograms =
      List.map
        (fun kind ->
          (Probe.kind_name kind, Histogram.summary (Probe.histogram kind)))
        Probe.kinds;
    counters = Counters.totals Probe.counters;
    trace_tail = Trace.tail trace_tail;
  }

let summary_exn s name = List.assoc name s.histograms
