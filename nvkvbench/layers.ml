(* Per-layer metrics for the traced run.  Each layer is timed from outside,
   through its library's public functions, on a file-backed image shaped
   like the server's (same device size, worker count, stack kind, bucket
   count and dedup table), and the driver's own spans from the traced
   rounds are summarised next to them.  The reconciliation row
   [wire.residual_us] is the part of the traced run's median latency that
   neither a Ping round trip nor the in-process request cost explains. *)

module Pmem = Nvram.Pmem
module Backend = Nvram.Backend
module Stats = Nvram.Stats
module Offset = Nvram.Offset
module Heap = Nvheap.Heap
module System = Runtime.System
module Service = Runtime.Service
module Registry = Runtime.Registry
module Exec = Runtime.Exec
module Value = Runtime.Value
module Rmap = Recoverable.Rmap
module Rqueue = Recoverable.Rqueue
module Map_op = Recoverable.Map_op
module Queue_op = Recoverable.Queue_op
module Dedup = Recoverable.Dedup
module Wire = Net.Wire
module W = Wireload

(* Function identifiers and the dispatch shape of bin/nvkv_server.ml:
   dedup lookup, one nested per-opcode call, dedup record. *)
let dispatch_id = 20
let put_attempt_id = 21
let put_id = 22
let remove_attempt_id = 23
let remove_id = 24
let find_id = 25
let enq_attempt_id = 26
let enq_id = 27
let deq_attempt_id = 28
let deq_id = 29
let trivial_id = 30
let nested_id = 31
let buckets = 64
let nclients = 16

type image = {
  path : string;
  backend : Backend.t;
  pmem : Pmem.t;
  sys : System.t;
  map : Rmap.t;
  queue : Rqueue.t;
  dedup : Dedup.t;
  bases : Offset.t list;
  mutable seq : int;  (** dedup sequence of client 0 *)
}

let registry map queue dedup =
  let registry = Registry.create () in
  let mh () = Option.get !map and qh () = Option.get !queue in
  Map_op.register_put registry ~id:put_id ~attempt_id:put_attempt_id mh;
  Map_op.register_remove registry ~id:remove_id ~attempt_id:remove_attempt_id mh;
  Map_op.register_find registry ~id:find_id mh;
  Queue_op.register_enqueue registry ~id:enq_id ~attempt_id:enq_attempt_id qh;
  Queue_op.register_dequeue registry ~id:deq_id ~attempt_id:deq_attempt_id qh;
  let dispatch ctx args =
    match Value.to_ints args with
    | [ client; seq; opcode; a; b ] -> (
        let dedup = Option.get !dedup in
        match Dedup.lookup dedup ~client ~seq with
        | Dedup.Hit answer -> answer
        | Dedup.Stale -> invalid_arg "stale"
        | Dedup.New ->
            let answer =
              match opcode with
              | 1 -> Exec.call ctx ~func_id:put_id ~args:(Value.of_int2 a b)
              | 2 -> Exec.call ctx ~func_id:find_id ~args:(Value.of_int a)
              | 3 -> Exec.call ctx ~func_id:remove_id ~args:(Value.of_int a)
              | 4 -> Exec.call ctx ~func_id:enq_id ~args:(Value.of_int a)
              | _ -> Exec.call ctx ~func_id:deq_id ~args:Bytes.empty
            in
            Dedup.record dedup ~client ~seq ~answer;
            answer)
    | _ -> invalid_arg "dispatch arguments"
  in
  let complete body ctx args = Registry.Complete (body ctx args) in
  Registry.register registry ~id:dispatch_id ~name:"bench.dispatch" ~body:dispatch
    ~recover:(complete dispatch);
  let trivial _ _ = 0L in
  Registry.register registry ~id:trivial_id ~name:"bench.trivial" ~body:trivial
    ~recover:(complete trivial);
  let nested ctx _ = Exec.call ctx ~func_id:trivial_id ~args:Bytes.empty in
  Registry.register registry ~id:nested_id ~name:"bench.nested" ~body:nested
    ~recover:(complete nested);
  registry

let create_image (p : W.params) ~name =
  let path = Filename.concat p.W.run_dir name in
  (try Sys.remove path with Sys_error _ -> ());
  let backend = Backend.file ~path ~size:p.W.size () in
  let pmem = Pmem.create ~auto_flush:false ~backend ~size:p.W.size () in
  let map = ref None and queue = ref None and dedup = ref None in
  let registry = registry map queue dedup in
  let config =
    {
      System.workers = p.W.workers;
      stack_kind = System.Bounded_stack 8192;
      task_capacity = 64;
      task_max_args = 64;
    }
  in
  let sys = System.create pmem ~registry ~config in
  let heap = System.heap sys in
  let nprocs = p.W.workers in
  let map_base = Heap.alloc heap (Rmap.region_size ~buckets ~nprocs) in
  let queue_base = Heap.alloc heap (Rqueue.region_size ~nprocs) in
  let dedup_base = Heap.alloc heap (Dedup.region_size ~nclients) in
  let m = Rmap.create pmem ~heap ~base:map_base ~buckets ~nprocs in
  let q = Rqueue.create pmem ~heap ~base:queue_base ~nprocs in
  let d = Dedup.create pmem ~base:dedup_base ~nclients in
  map := Some m;
  queue := Some q;
  dedup := Some d;
  {
    path;
    backend;
    pmem;
    sys;
    map = m;
    queue = q;
    dedup = d;
    bases = [ map_base; queue_base; dedup_base ];
    seq = 0;
  }

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Median over [batches] batches of the mean cost of [f i], in ns.
   [before] runs untimed ahead of each batch. *)
let per_op_ns ?(batches = 5) ?(before = ignore) ~n f =
  let next = ref 0 in
  Sample.median
    (List.init batches (fun _ ->
         before ();
         let t0 = Proc.now_ns () in
         for _ = 1 to n do
           f !next;
           incr next
         done;
         float_of_int (Proc.now_ns () - t0) /. float_of_int n))

let once_ms f =
  let t0 = Proc.now_ns () in
  let r = f () in
  (float_of_int (Proc.now_ns () - t0) /. 1e6, r)

(* ------------------------------------------------------------------ *)
(* Requests in process                                                 *)
(* ------------------------------------------------------------------ *)

let ops = [ "put"; "get"; "del"; "enqueue"; "dequeue" ]

let mix = function
  | W.Kv_mixed ->
      [ ("put", 0.30); ("get", 0.30); ("del", 0.10); ("enqueue", 0.15); ("dequeue", 0.15) ]
  | W.Kv_read -> [ ("get", 1.0) ]

let dispatch img ~op ~key i =
  img.seq <- img.seq + 1;
  let opcode, a, b =
    match op with
    | "put" -> (1, key, i)
    | "get" -> (2, key, 0)
    | "del" -> (3, key, 0)
    | "enqueue" -> (4, i, 0)
    | _ -> (5, 0, 0)
  in
  ignore
    (Exec.call (System.ctx img.sys 0) ~func_id:dispatch_id
       ~args:(Value.of_ints [ 0; img.seq; opcode; a; b ]))

(* Mean device operations of one request of [op] (exact counts from
   [Pmem.stats] deltas) and its mean in-process time, over [n] requests on
   keys drawn uniformly from [0, keys).  A Del is preceded by an untimed
   Put of its key, so it removes a live key as most kv_mixed Dels do. *)
let request_cost img ~op ~keys ~n =
  let st = Pmem.stats img.pmem in
  let rng = Random.State.make [| n; keys |] in
  let ns = ref 0 and reads = ref 0 and writes = ref 0 in
  let flushes = ref 0 and lines = ref 0 in
  for i = 1 to n do
    let key = Random.State.int rng keys in
    if op = "del" then dispatch img ~op:"put" ~key i;
    let r0 = Stats.reads st and w0 = Stats.writes st in
    let f0 = Stats.flushes st and l0 = Stats.lines_flushed st in
    let t0 = Proc.now_ns () in
    dispatch img ~op ~key i;
    ns := !ns + (Proc.now_ns () - t0);
    reads := !reads + (Stats.reads st - r0);
    writes := !writes + (Stats.writes st - w0);
    flushes := !flushes + (Stats.flushes st - f0);
    lines := !lines + (Stats.lines_flushed st - l0)
  done;
  let mean x = float_of_int !x /. float_of_int n in
  (mean ns, mean reads, mean writes, mean flushes, mean lines)

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let service_handoff_us sys ~n =
  let service = Service.start sys in
  let mu = Mutex.create () and cv = Condition.create () in
  let done_at = ref 0 in
  let samples =
    List.init n (fun _ ->
        Mutex.lock mu;
        done_at := 0;
        Mutex.unlock mu;
        let t0 = Proc.now_ns () in
        Service.submit service ~func_id:trivial_id ~args:Bytes.empty ~k:(fun _ ->
            let t = Proc.now_ns () in
            Mutex.lock mu;
            done_at := t;
            Condition.signal cv;
            Mutex.unlock mu);
        Mutex.lock mu;
        while !done_at = 0 do
          Condition.wait cv mu
        done;
        let t = !done_at in
        Mutex.unlock mu;
        float_of_int (t - t0) /. 1e3)
  in
  Service.stop service;
  Sample.median samples

let per_layer (p : W.params) (acc : W.acc) =
  let small = create_image p ~name:"layers-small.img" in
  let large = create_image p ~name:"layers-large.img" in
  let ctx = System.ctx small.sys 0 in
  (* device *)
  let line = Bytes.make 64 'x' in
  let line_path = Filename.concat p.W.run_dir "layers-lines.img" in
  (try Sys.remove line_path with Sys_error _ -> ());
  let lines = Backend.file ~path:line_path ~size:(64 * 1024) () in
  let backend_persist_ns =
    per_op_ns ~n:20_000 (fun i ->
        Backend.persist lines ~off:(64 * (i land 1023)) ~src:line ~src_off:0 ~len:64)
  in
  Backend.close lines;
  Sys.remove line_path;
  let scratch = Heap.alloc (System.heap small.sys) 4096 in
  let write_flush_ns =
    per_op_ns ~n:20_000 (fun i ->
        let off = Offset.add scratch (8 * (i land 511)) in
        Pmem.write_int small.pmem off i;
        Pmem.flush small.pmem ~off ~len:8)
  in
  let sink = ref 0 in
  let read_int_ns =
    per_op_ns ~n:200_000 (fun i ->
        sink := !sink + Pmem.read_int small.pmem (Offset.add scratch (8 * (i land 511))))
  in
  let heap = System.heap small.sys in
  let alloc_free_ns = per_op_ns ~n:20_000 (fun _ -> Heap.free heap (Heap.alloc heap 32)) in
  (* call protocol *)
  let call_ns =
    per_op_ns ~n:20_000 (fun _ -> ignore (Exec.call ctx ~func_id:trivial_id ~args:Bytes.empty))
  in
  let nested_ns =
    per_op_ns ~n:20_000 (fun _ -> ignore (Exec.call ctx ~func_id:nested_id ~args:Bytes.empty))
  in
  (* recoverable structures: the small image holds the kv_mixed key set *)
  let small_keys = 2 * p.W.range_keys in
  for k = 0 to small_keys - 1 do
    Rmap.put small.map ~key:k ~value:k
  done;
  let rmap_put_ns = per_op_ns ~n:5_000 (fun i -> Rmap.put small.map ~key:(i mod small_keys) ~value:i) in
  let rmap_find_small_ns =
    per_op_ns ~n:50_000 (fun i -> ignore (Rmap.find small.map ~key:(i mod small_keys)))
  in
  (* each batch removes every key once, after putting them all back *)
  let rmap_remove_ns =
    per_op_ns ~batches:15 ~n:small_keys
      ~before:(fun () ->
        for k = 0 to small_keys - 1 do
          Rmap.put small.map ~key:k ~value:k
        done)
      (fun i ->
        if not (Rmap.remove small.map ~pid:0 ~key:(i mod small_keys)) then
          failwith "rmap.remove_ns: key not live")
  in
  let enqueue_ns = per_op_ns ~n:5_000 (fun i -> Rqueue.enqueue small.queue i) in
  let dequeue_ns = per_op_ns ~n:5_000 (fun _ -> ignore (Rqueue.dequeue small.queue ~pid:0)) in
  let dseq = ref 0 in
  let dedup_record_ns =
    per_op_ns ~n:20_000 (fun _ ->
        incr dseq;
        Dedup.record small.dedup ~client:1 ~seq:!dseq ~answer:0L)
  in
  let dedup_lookup_ns =
    per_op_ns ~n:50_000 (fun _ -> ignore (Dedup.lookup small.dedup ~client:1 ~seq:(!dseq + 1)))
  in
  (* the large image holds the kv_read preload *)
  for k = 0 to p.W.preload_keys - 1 do
    Rmap.put large.map ~key:k ~value:(W.preload_value ~seed:p.W.seed k)
  done;
  for i = 1 to p.W.queue_items do
    Rqueue.enqueue large.queue i
  done;
  let rmap_find_large_ns =
    per_op_ns ~n:20_000 (fun i -> ignore (Rmap.find large.map ~key:(i mod p.W.preload_keys)))
  in
  (* whole requests in process, on the image the workload's reads hit *)
  let costs =
    List.map
      (fun op ->
        let img, keys =
          match (op, p.W.workload) with
          | "get", W.Kv_read -> (large, p.W.preload_keys)
          | _ -> (small, small_keys)
        in
        (op, request_cost img ~op ~keys ~n:2_000))
      ops
  in
  let handoff_us = service_handoff_us small.sys ~n:2_000 in
  (* recovery of the large image, reopened from its file *)
  Backend.close large.backend;
  let recovery =
    List.init 5 (fun _ ->
        let load_ms, backend = once_ms (fun () -> Backend.file ~path:large.path ~size:p.W.size ()) in
        let pmem = Pmem.create ~auto_flush:false ~backend ~size:p.W.size () in
        let map = ref None and queue = ref None and dedup = ref None in
        let registry = registry map queue dedup in
        let attach_ms, sys = once_ms (fun () -> System.attach pmem ~registry) in
        let heap = System.heap sys in
        let base i = List.nth large.bases i in
        let m = Rmap.attach pmem ~heap ~base:(base 0) ~buckets ~nprocs:p.W.workers in
        let q = Rqueue.attach pmem ~heap ~base:(base 1) ~nprocs:p.W.workers in
        map := Some m;
        queue := Some q;
        dedup := Some (Dedup.attach pmem ~base:(base 2) ~nclients);
        let map_live_ms, map_live = once_ms (fun () -> Rmap.live_nodes m) in
        let queue_live_ms, queue_live = once_ms (fun () -> Rqueue.live_nodes q) in
        let recover_ms, _ =
          once_ms (fun () ->
              System.recover ~reclaim:(fun () -> large.bases @ map_live @ queue_live) sys)
        in
        Backend.close backend;
        (load_ms, attach_ms, recover_ms, map_live_ms, queue_live_ms))
  in
  let med f = Sample.median (List.map f recovery) in
  (* wire codec *)
  let frame = Wire.encode_request { Wire.client = 1; seq = 7; op = Wire.Put (3, 4) } in
  let encode_ns =
    per_op_ns ~n:100_000 (fun i ->
        ignore (Wire.encode_request { Wire.client = 1; seq = i; op = Wire.Put (i, i) }))
  in
  let decode_ns =
    per_op_ns ~n:100_000 (fun _ -> ignore (Wire.decode_request frame ~len:(Bytes.length frame)))
  in
  Backend.close small.backend;
  List.iter (fun img -> Sys.remove img.path) [ small; large ];
  (* driver spans *)
  let probe_us name = float_of_int (Sample.percentile (Sample.sorted (Hashtbl.find acc.W.probe name)) 0.5) /. 1e3 in
  (* an opcode's wait: its traced spans when the workload issues it, else
     the single-connection probe on the final server *)
  let wait_us op =
    let spans = Sample.create () in
    List.iter (fun (s : W.span) -> if s.W.op = op then Sample.add spans s.W.ns) acc.W.spans;
    if Sample.count spans >= 10 then float_of_int (Sample.percentile (Sample.sorted spans) 0.5) /. 1e3
    else probe_us op
  in
  let lat = W.latencies acc.W.windows in
  let traced = Sample.sorted acc.W.lat_traced and plain = Sample.sorted acc.W.lat_plain in
  let p50 a = float_of_int (Sample.percentile a 0.5) /. 1e3 in
  let traced_p50 = p50 traced in
  let ping_us = probe_us "ping" in
  let mixed f = List.fold_left (fun s (op, share) -> s +. (share *. f (List.assoc op costs))) 0. (mix p.W.workload) in
  let inproc_us =
    mixed (fun (ns, _, _, _, _) -> ns /. 1e3) +. handoff_us -. (call_ns /. 1e3)
  in
  let count name value = (name, value, "count") in
  let per_op_rows =
    List.concat_map
      (fun (op, (ns, reads, writes, flushes, lines)) ->
        [
          ("inproc.dispatch_us." ^ op, ns /. 1e3, "us");
          count ("pmem.lines_persisted_per_req." ^ op) lines;
          count ("pmem.flushes_per_req." ^ op) flushes;
          count ("pmem.reads_per_req." ^ op) reads;
          count ("pmem.writes_per_req." ^ op) writes;
          ("client.wait_us." ^ op, wait_us op, "us");
        ])
      costs
  in
  [
    ("backend.persist_ns", backend_persist_ns, "ns");
    ("backend.load_ms", med (fun (x, _, _, _, _) -> x), "ms");
    count "pmem.lines_persisted_per_req" (mixed (fun (_, _, _, _, l) -> l));
    count "pmem.flushes_per_req" (mixed (fun (_, _, _, f, _) -> f));
    count "pmem.reads_per_req" (mixed (fun (_, r, _, _, _) -> r));
    count "pmem.writes_per_req" (mixed (fun (_, _, w, _, _) -> w));
    ("pmem.write_flush_ns", write_flush_ns, "ns");
    ("pmem.read_int_ns", read_int_ns, "ns");
    ("heap.alloc_free_ns", alloc_free_ns, "ns");
    ("exec.call_ns", call_ns, "ns");
    ("exec.call_nested_ns", nested_ns, "ns");
    ("rmap.put_ns", rmap_put_ns, "ns");
    ("rmap.remove_ns", rmap_remove_ns, "ns");
    ("rqueue.enqueue_ns", enqueue_ns, "ns");
    ("rqueue.dequeue_ns", dequeue_ns, "ns");
    ("rmap.find_small_ns", rmap_find_small_ns, "ns");
    ("rmap.find_large_ns", rmap_find_large_ns, "ns");
    ("dedup.lookup_ns", dedup_lookup_ns, "ns");
    ("dedup.record_ns", dedup_record_ns, "ns");
    ("rmap.live_nodes_ms", med (fun (_, _, _, x, _) -> x), "ms");
    ("rqueue.live_nodes_ms", med (fun (_, _, _, _, x) -> x), "ms");
    ("service.handoff_us", handoff_us, "us");
    ("system.attach_ms", med (fun (_, x, _, _, _) -> x), "ms");
    ("system.recover_ms", med (fun (_, _, x, _, _) -> x), "ms");
    ("wire.encode_ns", encode_ns, "ns");
    ("wire.decode_ns", decode_ns, "ns");
    ("net.ping_rtt_us", ping_us, "us");
  ]
  @ per_op_rows
  @ [
      ("latency_p99_us", float_of_int (Sample.percentile lat 0.99) /. 1e3, "us");
      count "latency_p99_beyond" (float_of_int (Sample.beyond lat 0.99));
      count "latency_samples" (float_of_int (Array.length lat));
      ("server.ready_recovery_ms", Sample.median acc.W.ready_ms, "ms");
      ("trace.latency_p50_us", traced_p50, "us");
      ("trace.overhead_pct", 100. *. (traced_p50 -. p50 plain) /. p50 plain, "%");
      ("inproc.request_us", inproc_us, "us");
      ("wire.residual_us", traced_p50 -. ping_us -. inproc_us, "us");
    ]
