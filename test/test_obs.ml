(* Observability layer: histograms, counters, trace ring, sink capture,
   and the default-off contract. *)

module Histogram = Obs.Histogram
module Counters = Obs.Counters
module Trace = Obs.Trace
module Config = Obs.Config
module Pmem = Nvram.Pmem
module Stats = Nvram.Stats

let off = Nvram.Offset.of_int

(* ------------------------------------------------------------------ *)
(* Config                                                               *)

let test_default_off () =
  Alcotest.(check bool) "disabled by default" false (Config.enabled ())

let test_with_enabled_restores () =
  Alcotest.(check bool) "starts off" false (Config.enabled ());
  Config.with_enabled true (fun () ->
      Alcotest.(check bool) "on inside" true (Config.enabled ()));
  Alcotest.(check bool) "off after" false (Config.enabled ());
  (try
     Config.with_enabled true (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false (Config.enabled ())

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

(* Bucket i covers [2^i, 2^(i+1)); its representative is 1.5 * 2^i. *)
let rep i = 1.5 *. Float.pow 2. (float_of_int i)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for _ = 1 to 99 do
    Histogram.record h 1000 (* bucket 9: [512, 1024) *)
  done;
  Histogram.record h 1_000_000 (* bucket 19 *);
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let s = Histogram.summary h in
  Alcotest.(check (float 0.01)) "p50 in the common bucket" (rep 9)
    s.Histogram.p50;
  Alcotest.(check (float 0.01)) "p95 in the common bucket" (rep 9)
    s.Histogram.p95;
  Alcotest.(check (float 0.01)) "p100 reaches the outlier" (rep 19)
    (Histogram.percentile h 1.0)

let test_histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 100;
  Histogram.record b 200;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 3 (Histogram.count m);
  Alcotest.(check int) "inputs untouched" 1 (Histogram.count a);
  Histogram.reset a;
  Alcotest.(check int) "reset empties" 0 (Histogram.count a);
  let s = Histogram.summary a in
  Alcotest.(check (float 0.)) "empty summary is zero" 0. s.Histogram.p99

let test_histogram_multi_domain () =
  let h = Histogram.create () in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Histogram.record h 4096
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost samples across stripes" 4000
    (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr_ops c;
  Counters.incr_ops c;
  Counters.record_write c ~payload:10 ~amplified:64;
  Counters.record_write c ~payload:100 ~amplified:128;
  Counters.incr_crashes_survived c;
  Counters.incr_recovery_passes c;
  Counters.incr_conns_accepted c;
  Counters.incr_requests_served c;
  Counters.incr_dedup_hits c;
  let t = Counters.totals c in
  Alcotest.(check int) "ops" 2 t.Counters.ops;
  Alcotest.(check int) "crashes survived" 1 t.Counters.crashes_survived;
  Alcotest.(check int) "recovery passes" 1 t.Counters.recovery_passes;
  Alcotest.(check int) "payload bytes" 110 t.Counters.payload_bytes;
  Alcotest.(check int) "amplified bytes" 192 t.Counters.amplified_bytes;
  Alcotest.(check int) "connections" 1 t.Counters.conns_accepted;
  Alcotest.(check int) "requests" 1 t.Counters.requests_served;
  Alcotest.(check int) "dedup hits" 1 t.Counters.dedup_hits;
  Alcotest.(check (float 0.001)) "write amplification" (192. /. 110.)
    (Counters.write_amplification t);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.totals c).Counters.ops

(* Device events are counted once, in the device's own [Stats].  The
   partition rule: a flush call lands in [flushes] on an eager device and
   in [flushes_elided] on a coalesced one, never both; a drain event
   counts only when it wrote something back; and drained lines land in
   [lines_flushed] like eagerly flushed ones. *)
let test_counters_elision_partition () =
  let run flush_mode =
    let pmem = Pmem.create ~flush_mode ~size:4096 () in
    Pmem.write_int pmem (off 0) 1;
    Pmem.flush pmem ~off:(off 0) ~len:8;
    Pmem.flush pmem ~off:(off 0) ~len:0;
    Pmem.persist_barrier pmem;
    Pmem.persist_barrier pmem;
    Pmem.stats pmem
  in
  let counts s =
    Stats.[ flushes s; flushes_elided s; drains s; lines_flushed s ]
  in
  Alcotest.(check (list int))
    "eager: flushes, elided, drains, lines" [ 2; 0; 0; 1 ]
    (counts (run Pmem.Eager));
  Alcotest.(check (list int))
    "coalesced: flushes, elided, drains, lines" [ 0; 2; 1; 1 ]
    (counts (run Pmem.Coalesced))

(* A fixed op sequence must produce exactly the pre-coalescing counter
   values on an eager device — in particular zero elided flushes and zero
   drains, and [persist_barrier] must contribute nothing at all — and the
   same values whether observability is on or off: the counts are the
   device's, not the recorder's. *)
let pin_sequence flush_mode ~obs =
  Config.with_enabled obs (fun () ->
      let pmem = Pmem.create ~flush_mode ~size:4096 () in
      let data = Bytes.make 100 'x' in
      Pmem.write_bytes pmem ~off:(off 0) data;
      Pmem.flush pmem ~off:(off 0) ~len:100;
      Pmem.write_int64 pmem (off 256) 42L;
      Pmem.flush pmem ~off:(off 256) ~len:8;
      Pmem.flush pmem ~off:(off 256) ~len:8;
      Pmem.persist_barrier pmem;
      ignore (Pmem.read_bytes pmem ~off:(off 0) ~len:100);
      Pmem.drain_all pmem;
      Pmem.stats pmem)

let check_pinned flush_mode check =
  List.iter
    (fun obs ->
      Obs.Probe.reset ();
      check (Printf.sprintf "obs %b: " obs) (pin_sequence flush_mode ~obs);
      Obs.Probe.reset ())
    [ false; true ]

let test_eager_counters_pinned () =
  check_pinned Pmem.Eager (fun on s ->
      Alcotest.(check int) (on ^ "writes") 2 (Stats.writes s);
      Alcotest.(check int) (on ^ "reads") 1 (Stats.reads s);
      Alcotest.(check int) (on ^ "flushes") 3 (Stats.flushes s);
      (* 2 lines from the first flush, 1 from the second; the repeated
         flush finds its line already clean and writes nothing back. *)
      Alcotest.(check int) (on ^ "lines flushed") 3 (Stats.lines_flushed s);
      Alcotest.(check int)
        (on ^ "no elided flushes on an eager device")
        0 (Stats.flushes_elided s);
      Alcotest.(check int) (on ^ "no drains on an eager device") 0
        (Stats.drains s))

(* The same sequence coalesced: every flush call elides, the repeated
   flush of one line coalesces, and the write-backs happen at the explicit
   barrier — a single drain event. *)
let test_coalesced_counters_partition () =
  check_pinned Pmem.Coalesced (fun on s ->
      Alcotest.(check int) (on ^ "writes") 2 (Stats.writes s);
      Alcotest.(check int) (on ^ "no eager flush calls") 0 (Stats.flushes s);
      Alcotest.(check int) (on ^ "every flush call elided") 3
        (Stats.flushes_elided s);
      (* barrier drains lines 0-1 and 4; the read finds nothing pending
         and the final drain_all finds nothing either, so exactly one
         drain. *)
      Alcotest.(check int) (on ^ "one drain event") 1 (Stats.drains s);
      Alcotest.(check int)
        (on ^ "all marked lines written back once")
        3 (Stats.lines_flushed s))

(* ------------------------------------------------------------------ *)
(* Trace ring                                                           *)

let test_trace_disabled_is_noop () =
  Trace.clear ();
  Trace.record (Trace.Era_armed { era = 1 });
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Trace.events ()))

let test_trace_order_and_tail () =
  Trace.clear ();
  Config.with_enabled true (fun () ->
      for era = 1 to 10 do
        Trace.record (Trace.Era_armed { era })
      done);
  let eras =
    List.map
      (fun e ->
        match e.Trace.kind with Trace.Era_armed { era } -> era | _ -> -1)
      (Trace.events ())
  in
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    eras;
  Alcotest.(check int) "tail bounds" 3 (List.length (Trace.tail 3));
  Trace.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Trace.events ()))

let test_trace_wraparound () =
  Trace.clear ();
  let extra = 10 in
  Config.with_enabled true (fun () ->
      for era = 1 to Trace.capacity + extra do
        Trace.record (Trace.Era_armed { era })
      done);
  let events = Trace.events () in
  Alcotest.(check int) "ring holds capacity" Trace.capacity
    (List.length events);
  (match (List.hd events).Trace.kind with
  | Trace.Era_armed { era } ->
      Alcotest.(check int) "oldest surviving event" (extra + 1) era
  | _ -> Alcotest.fail "unexpected kind");
  Trace.clear ()

let test_chrome_json_shape () =
  let ev ts kind = { Trace.ts_ns = ts; domain = 0; kind } in
  let json =
    Trace.chrome_json_of_events
      [
        ev 1000 (Trace.Op_begin { func_id = 7 });
        ev 2000 (Trace.Crash_fired { era = 1; at_op = 42 });
        ev 3000 (Trace.Op_end { func_id = 7 });
      ]
  in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i =
      i + n <= h && (String.sub json i n = needle || go (i + 1))
    in
    go 0
  in
  let trimmed = String.trim json in
  Alcotest.(check bool) "array brackets" true
    (trimmed.[0] = '[' && trimmed.[String.length trimmed - 1] = ']');
  Alcotest.(check bool) "begin phase" true (contains "\"ph\":\"B\"");
  Alcotest.(check bool) "end phase" true (contains "\"ph\":\"E\"");
  Alcotest.(check bool) "instant phase" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "crash args" true (contains "\"at_op\":42")

(* ------------------------------------------------------------------ *)
(* End to end: device ops feed the global probes; sink snapshots them.  *)

let test_sink_capture_from_device () =
  Obs.Probe.reset ();
  Trace.clear ();
  Config.with_enabled true (fun () ->
      let pmem = Pmem.create ~size:4096 () in
      let data = Bytes.make 100 'x' in
      Pmem.write_bytes pmem ~off:(off 0) data;
      Pmem.flush pmem ~off:(off 0) ~len:100;
      ignore (Pmem.read_bytes pmem ~off:(off 0) ~len:100));
  let snap = Obs.Sink.capture () in
  let summary name = Obs.Sink.summary_exn snap name in
  Alcotest.(check int) "one write sampled" 1
    (summary "pmem_write").Histogram.count;
  Alcotest.(check int) "one flush sampled" 1
    (summary "pmem_flush").Histogram.count;
  Alcotest.(check int) "one read sampled" 1
    (summary "pmem_read").Histogram.count;
  let t = snap.Obs.Sink.counters in
  Alcotest.(check int) "payload bytes" 100 t.Counters.payload_bytes;
  (* 100 bytes from offset 0 dirty two 64-byte lines. *)
  Alcotest.(check int) "amplified bytes" 128 t.Counters.amplified_bytes;
  Obs.Probe.reset ()

let test_disabled_records_nothing () =
  Obs.Probe.reset ();
  let pmem = Pmem.create ~size:4096 () in
  Pmem.write_int64 pmem (off 0) 42L;
  Pmem.flush pmem ~off:(off 0) ~len:8;
  let snap = Obs.Sink.capture () in
  Alcotest.(check int) "no samples while disabled" 0
    (Obs.Sink.summary_exn snap "pmem_write").Histogram.count;
  Alcotest.(check int) "no counters while disabled" 0
    snap.Obs.Sink.counters.Counters.payload_bytes;
  Alcotest.(check int) "the device still counts" 1
    (Stats.writes (Pmem.stats pmem))

let () =
  Alcotest.run "obs"
    [
      ( "config",
        [
          Alcotest.test_case "default off" `Quick test_default_off;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge and reset" `Quick
            test_histogram_merge_reset;
          Alcotest.test_case "multi-domain recording" `Quick
            test_histogram_multi_domain;
        ] );
      ( "counters",
        [
          Alcotest.test_case "totals" `Quick test_counters;
          Alcotest.test_case "elision partition" `Quick
            test_counters_elision_partition;
          Alcotest.test_case "eager counters pinned" `Quick
            test_eager_counters_pinned;
          Alcotest.test_case "coalesced partition end to end" `Quick
            test_coalesced_counters_partition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "order and tail" `Quick test_trace_order_and_tail;
          Alcotest.test_case "wraparound" `Quick test_trace_wraparound;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        ] );
      ( "sink",
        [
          Alcotest.test_case "capture from device ops" `Quick
            test_sink_capture_from_device;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
    ]
