(** Reading the global probes.

    {!capture} is the one read path: it sums the striped histograms and
    counters and copies the trace tail, so the snapshot is a plain
    immutable value safe to format from any thread.  Device event counts
    are not in it: they are per device, in {!Nvram.Stats}. *)

type snapshot = {
  histograms : (string * Histogram.summary) list;
      (** One entry per {!Probe.kind}, keyed by {!Probe.kind_name}. *)
  counters : Counters.totals;
  trace_tail : Trace.event list;  (** Oldest first. *)
}

val capture : ?trace_tail:int -> unit -> snapshot
(** [capture ()] reads the global probes.  [trace_tail] bounds the copied
    trace events (default 64). *)

val summary_exn : snapshot -> string -> Histogram.summary
(** [summary_exn s name] looks up a histogram summary by probe name.
    @raise Not_found if [name] is not a probe. *)
