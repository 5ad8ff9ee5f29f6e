(* The two workloads, driven over the wire against real nvkv_server
   processes from this one process, with every answer checked against a
   model.

   A run is [rounds] rounds.  Each round sets up a server on a fresh image
   (preload included: that span is one [setup] sample), runs its timed
   phase, and then runs [cycles] kill cycles: restart the server with a
   SIGKILL armed at a seeded persistence point, send a Put that dies
   mid-request at that point, respawn, and time the retry of the same
   request identity until it is answered (one [recovery] sample).
   Timed phases are closed loops over [conns] connections. *)

module Wire = Net.Wire
module H = Net.Harness
module Client = Net.Client

let fail = Load.fail

type workload = Kv_mixed | Kv_read

let workloads = [ ("kv_mixed", Kv_mixed); ("kv_read", Kv_read) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type params = {
  workload : workload;
  seed : int;
  seconds : float;  (** total timed-phase time of the run *)
  conns : int;
  workers : int;  (** server [--workers] *)
  size : int;  (** image bytes *)
  range_keys : int;  (** kv_mixed: keys owned by each connection *)
  preload_keys : int;  (** kv_read *)
  queue_items : int;  (** kv_read *)
  rounds : int;
  cycles : int;  (** kill cycles per round *)
  run_dir : string;
  trace : bool;
  sabotage : bool;  (** corrupt one expected value: the run must fail *)
}

let defaults workload =
  {
    workload;
    seed = 1;
    seconds = 10.;
    conns = 2;
    workers = 2;
    size = 1 lsl 24;
    range_keys = 100;
    preload_keys = 20_000;
    queue_items = 256;
    rounds = (match workload with Kv_mixed -> 10 | Kv_read -> 3);
    cycles = (match workload with Kv_mixed -> 3 | Kv_read -> 5);
    run_dir = ".nvkvbench_run";
    trace = false;
    sabotage = false;
  }

(* Seeded kill points are drawn from [1, max_kill_point]: every Put on a
   fresh key issues 42 persistence operations, so each one dies mid-request. *)
let max_kill_point = 40

(* Connection [i] owns dedup slot [i]; the kill cycles and the traced
   probe use their own slots so their sequence numbers never interleave
   with the timed connections'. *)
let cycle_client = 8
let probe_client = 9

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)
(* ------------------------------------------------------------------ *)

let live = Hashtbl.create 4

let spawn ?kill_at p ~image =
  let sock = Filename.concat p.run_dir "s.sock" in
  match
    H.start_server ~size:p.size ~workers:p.workers ?kill_at ~kill_from:`Ready
      ~image ~sock ()
  with
  | Ok s ->
      Hashtbl.replace live s.H.pid ();
      s
  | Error e -> fail "server did not start: %s" e

let reap pid = Hashtbl.remove live pid

let stop (s : H.server) =
  let status = H.stop_server s.H.pid in
  reap s.H.pid;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "server %d did not stop cleanly" s.H.pid

(* Kill and reap every server still running: the driver's exit path. *)
let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live

(* ------------------------------------------------------------------ *)
(* Accumulated measurements                                            *)
(* ------------------------------------------------------------------ *)

type span = { op : string; ns : int }

type window = {
  ops_per_s : float;  (** per second of the time the host did not steal *)
  wall_ops_per_s : float;  (** per second of wall-clock time *)
  cpu_us_per_op : float;
  steal : float;  (** share of the machine's CPU time the host stole *)
  lat : int array;  (** the window's request latencies, ns *)
}

(* Spans of one kind: each span's length in seconds, their sum, and the
   CPU time the host stole from all CPUs during them. *)
type spans = { mutable s : float list; mutable total_s : float; mutable stolen_s : float }

type acc = {
  lat_traced : Sample.t;  (** timed requests of traced rounds *)
  lat_plain : Sample.t;  (** timed requests of untraced rounds *)
  mutable spans : span list;  (** traced rounds, newest first *)
  mutable windows : window list;  (** every whole window, newest first *)
  mutable rss_mb : float list;
  setup : spans;
  recovery : spans;
  mutable host_steps : (float * float) list;
      (** [Hostref.slice]s between windows: wall-clock and CPU ns a step *)
  mutable ready_ms : float list;
  mutable attempted : int;
  probe : (string, Sample.t) Hashtbl.t;
}

let new_acc () =
  {
    lat_traced = Sample.create ();
    lat_plain = Sample.create ();
    spans = [];
    windows = [];
    rss_mb = [];
    setup = { s = []; total_s = 0.; stolen_s = 0. };
    recovery = { s = []; total_s = 0.; stolen_s = 0. };
    ready_ms = [];
    host_steps = [];
    attempted = 0;
    probe = Hashtbl.create 8;
  }

let op_name = function
  | Wire.Ping -> "ping"
  | Wire.Put _ -> "put"
  | Wire.Get _ -> "get"
  | Wire.Del _ -> "del"
  | Wire.Enqueue _ -> "enqueue"
  | Wire.Dequeue -> "dequeue"
  | Wire.Last_seq -> "last_seq"

let show_result r = Format.asprintf "%a" Wire.pp_result r

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* The sabotage switch: the first checked Get expects a value off by one.
   A checker that still passes the run could never have failed it. *)
let sabotage = ref false

let expect_get ~what ~key ~expected result =
  let expected =
    if !sabotage then begin
      sabotage := false;
      Some (match expected with Some v -> v + 1 | None -> 0)
    end
    else expected
  in
  let ok =
    match (expected, result) with
    | Some v, Wire.Value v' -> v = v'
    | None, Wire.Nothing -> true
    | _ -> false
  in
  if not ok then
    fail "%s: get %d answered %s, expected %s" what key (show_result result)
      (match expected with Some v -> string_of_int v | None -> "nothing")

let expect what want result =
  if result <> want then
    fail "%s: answered %s, expected %s" what (show_result result)
      (show_result want)

(* The value preloaded under [key]: a pure function of seed and key. *)
let preload_value ~seed key = Hashtbl.hash (seed, key, "nvkv")

(* ------------------------------------------------------------------ *)
(* One round's server and connections                                  *)
(* ------------------------------------------------------------------ *)

type state = {
  p : params;
  acc : acc;
  image : string;
  mutable server : H.server;
  mutable conns : Load.conn list;
  ctl : Client.t;
      (** blocking calls outside the timed phases, on slot [cycle_client];
          it reconnects on its next call after a restart *)
  mutable cycle_no : int;
  rng : Random.State.t;
  host : Hostref.t;
}

(* (Re)connect the timed connections, continuing their sequence numbers;
   the old descriptors must already be closed. *)
let connect_all st =
  let old = st.conns in
  st.conns <-
    List.init st.p.conns (fun i ->
        let seq = match List.nth_opt old i with Some c -> c.Load.seq | None -> 0 in
        Load.connect ~seq ~index:i ~client:i st.server.H.sockaddr)

(* Timed phases are cut into [window_s] windows.  Throughput and server
   CPU are medians over windows, which resist a burst of outside load that
   lands in one window.  A window in which the hypervisor took more than
   [max_steal] of the machine's CPU time (the steal column of /proc/stat)
   is set aside: its requests are checked but left out of the figures, and
   the phase runs on until it has [duration_s] of clean windows, for at
   most [max_stretch] times as long.  With fewer than [min_clean_windows]
   clean windows in the run, the figures come from the [min_clean_windows]
   windows the hypervisor took least from (see [used_windows]).

   A request waits whenever the host has taken the CPU that the next step
   of its path (driver, server loop, worker) must run on, so stolen time
   holds up the closed loop almost one for one: a window's throughput is
   counted per second of the time the host did not steal, which is the
   window's length less the CPU time stolen from all CPUs in it.

   Other tenants also slow this host down without any steal showing, by
   a fifth and more over minutes.  So each window ends by letting the
   outstanding requests finish and running [slice_steps] steps of
   [Hostref] while the server is idle; the driver scales the run's figures
   by the pace those slices show in CPU time, which leaves out stolen time
   as the throughput above does. *)
(* Time [f] as one span of [spans]. *)
let span spans f =
  let t0 = Proc.now_ns () and steal0 = Proc.steal_ticks () in
  let r = f () in
  let s = float_of_int (Proc.now_ns () - t0) /. 1e9 in
  spans.s <- s :: spans.s;
  spans.total_s <- spans.total_s +. s;
  spans.stolen_s <- spans.stolen_s +. ((Proc.steal_ticks () -. steal0) /. Proc.ticks_per_s);
  r

let window_s = 0.5
let max_steal = 0.05
let max_stretch = 1.5
let min_clean_windows = 10
let min_unstolen = 0.25
let slice_steps = 500

(* The windows the figures come from: the clean ones, or, in a run with
   fewer than [min_clean_windows] of them, the [min_clean_windows] windows
   the host stole least from. *)
let used_windows acc =
  let clean = List.filter (fun w -> w.steal <= max_steal) acc.windows in
  if List.length clean >= min_clean_windows then clean
  else
    List.filteri
      (fun i _ -> i < min_clean_windows)
      (List.stable_sort (fun a b -> compare a.steal b.steal) acc.windows)

(* Every request latency of [windows], sorted. *)
let latencies windows =
  let a = Array.concat (List.map (fun w -> w.lat) windows) in
  Array.sort compare a;
  a

(* The median span, less the share of the spans' time the host stole from
   one CPU.  Unlike the closed loop of a timed phase (see [timed_phase]),
   a span is mostly one thread's path: a server starting, loading and
   recovering its image while the driver waits.  On kv_mixed runs with 5%
   and 17% steal, taking out the stolen CPU time of all CPUs brought
   recovery spans 10-15% below those of quiet runs; taking out one CPU's
   share brought them within 3%. *)
let unstolen_median spans =
  let share = spans.stolen_s /. (float_of_int (Proc.nproc ()) *. spans.total_s) in
  Sample.median spans.s *. Float.max min_unstolen (1. -. share)

let timed_phase st ~traced ~duration_s ~next ~check =
  let pid = st.server.H.pid in
  let t0 = Proc.now_ns () in
  let clean_ns = ref 0 and first = ref true in
  let window = Sample.create () in
  let capacity_per_ns = Proc.ticks_per_s *. float_of_int (Proc.nproc ()) /. 1e9 in
  let window_ns = int_of_float (window_s *. 1e9) in
  let duration_ns = int_of_float (duration_s *. 1e9) in
  let give_up = t0 + int_of_float (max_stretch *. duration_s *. 1e9) in
  let into = if traced then st.acc.lat_traced else st.acc.lat_plain in
  while !clean_ns < duration_ns && Proc.now_ns () < give_up do
    let w0 = Proc.now_ns () in
    let cpu0 = Proc.cpu_s pid and steal0 = Proc.steal_ticks () in
    Load.closed_loop st.conns
      ~go:(fun t -> t - w0 < window_ns && !clean_ns + (t - w0) < duration_ns && t < give_up)
      ~next
      ~answer:(fun c op result ns ->
        check c op result;
        st.acc.attempted <- st.acc.attempted + 1;
        Sample.add window ns;
        Sample.add into ns;
        if traced then st.acc.spans <- { op = op_name op; ns } :: st.acc.spans);
    let dt = Proc.now_ns () - w0 and ops = Sample.count window in
    let cpu = Proc.cpu_s pid -. cpu0 and steal = Proc.steal_ticks () -. steal0 in
    st.acc.host_steps <- Hostref.slice st.host ~steps:slice_steps :: st.acc.host_steps;
    (* a phase shorter than one window counts its only window as whole *)
    let whole = dt >= window_ns || !first in
    first := false;
    let share = steal /. (capacity_per_ns *. float_of_int dt) in
    if ops > 0 && whole then begin
      let wall_s = float_of_int dt /. 1e9 in
      let unstolen_s =
        wall_s *. Float.max min_unstolen (1. -. (steal /. Proc.ticks_per_s /. wall_s))
      in
      st.acc.windows <-
        {
          ops_per_s = float_of_int ops /. unstolen_s;
          wall_ops_per_s = float_of_int ops /. wall_s;
          cpu_us_per_op = cpu *. 1e6 /. float_of_int ops;
          steal = share;
          lat = Sample.to_array window;
        }
        :: st.acc.windows
    end;
    if share <= max_steal then clean_ns := !clean_ns + dt;
    Sample.clear window
  done;
  st.acc.rss_mb <- Proc.peak_rss_mb pid :: st.acc.rss_mb

(* One blocking request on [st.ctl]. *)
let call st op =
  st.acc.attempted <- st.acc.attempted + 1;
  match Client.call st.ctl op with
  | r -> r
  | exception (Unix.Unix_error _ | End_of_file) ->
      fail "server closed during %s" (Wire.op_to_string op)

(* Sequential requests on [st.ctl], every answer checked. *)
let sequential st ops ~check = List.iter (fun op -> check op (call st op)) ops

(* Preload [preload_keys] keys over all connections (closed loop). *)
let preload st =
  let next_key = Array.init st.p.conns (fun i -> i) in
  Load.closed_loop st.conns ~go:(fun _ -> true)
    ~next:(fun c ->
      let k = next_key.(c.Load.index) in
      if k >= st.p.preload_keys then None
      else begin
        next_key.(c.Load.index) <- k + st.p.conns;
        Some (Wire.Put (k, preload_value ~seed:st.p.seed k))
      end)
    ~answer:(fun _ op result _ ->
      st.acc.attempted <- st.acc.attempted + 1;
      expect ("preload " ^ Wire.op_to_string op) Wire.Done result)

let queue_values st = List.init st.p.queue_items (fun i -> (st.p.seed * 1_000_000) + i)

let setup p acc ~host ~round =
  let image = Filename.concat p.run_dir (Printf.sprintf "r%d.img" round) in
  (try Sys.remove image with Sys_error _ -> ());
  span acc.setup @@ fun () ->
  let server = spawn p ~image in
  let st =
    {
      p;
      acc;
      image;
      server;
      conns = [];
      ctl = Client.connect ~addr:server.H.sockaddr ~client:cycle_client;
      cycle_no = 0;
      rng = Random.State.make [| p.seed; round; 77 |];
      host;
    }
  in
  connect_all st;
  (match p.workload with
  | Kv_mixed -> ()
  | Kv_read ->
      preload st;
      sequential st
        (List.map (fun v -> Wire.Enqueue v) (queue_values st))
        ~check:(fun op r -> expect (Wire.op_to_string op) Wire.Done r));
  st

(* ------------------------------------------------------------------ *)
(* Kill cycles                                                         *)
(* ------------------------------------------------------------------ *)

(* Restart under a seeded kill point, lose the server mid-Put, respawn and
   time the retried request until it is answered.  The retry must be
   answered once: a repeat of the same identity is answered from the dedup
   record, the slot records that sequence number, and the value is
   there. *)
let kill_cycle st =
  let p = st.p in
  let k = 1 + Random.State.int st.rng max_kill_point in
  let key = 10_000_000 + st.cycle_no and value = Random.State.bits st.rng in
  st.cycle_no <- st.cycle_no + 1;
  List.iter Load.close st.conns;
  Client.close st.ctl;
  stop st.server;
  let armed = spawn p ~image:st.image ~kill_at:k in
  let put = Wire.Put (key, value) in
  (match Client.call st.ctl put with
  | r ->
      fail "kill point %d not reached: the armed server answered %s" k
        (show_result r)
  | exception (End_of_file | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) -> ());
  let seq = Client.seq st.ctl in
  let _, status = Unix.waitpid [] armed.H.pid in
  reap armed.H.pid;
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> fail "armed server (kill point %d) did not die by SIGKILL" k);
  (* the retry and the repeat reuse [seq]; [call] takes the next one *)
  let retry what op =
    st.acc.attempted <- st.acc.attempted + 1;
    match Client.call_seq st.ctl ~seq op with
    | r -> r
    | exception (Unix.Unix_error _ | End_of_file) ->
        fail "restarted server closed during the %s" what
  in
  let retried =
    span st.acc.recovery (fun () ->
        st.server <- spawn p ~image:st.image;
        retry "retried put" put)
  in
  expect "retried put" Wire.Done retried;
  st.acc.ready_ms <- st.server.H.recovery_ms :: st.acc.ready_ms;
  expect "repeated put (dedup)" Wire.Done (retry "repeated put" put);
  expect "last_seq" (Wire.Value seq) (retry "last_seq" Wire.Last_seq);
  expect_get ~what:"killed put" ~key ~expected:(Some value)
    (call st (Wire.Get key));
  connect_all st

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* kv_mixed: each connection owns [range_keys] keys and checks them
   against its own sequential model; the queue is checked by
   conservation at the end of the round. *)
let kv_mixed st ~traced ~duration_s =
  let p = st.p in
  let models = Array.init p.conns (fun _ -> Array.make p.range_keys None) in
  let rngs =
    Array.init p.conns (fun i -> Random.State.make [| p.seed; i; Random.State.bits st.rng |])
  in
  let enq_counter = Array.make p.conns 0 in
  (* values enqueued and not yet dequeued; dequeues may only return these *)
  let queued = Hashtbl.create 1024 in
  let acked_enq = ref 0 and acked_deq = ref 0 in
  let base i = i * p.range_keys in
  let next c =
    let i = c.Load.index in
    let rng = rngs.(i) in
    let key = base i + Random.State.int rng p.range_keys in
    Some
      (match Random.State.int rng 100 with
      | r when r < 30 -> Wire.Put (key, Random.State.bits rng)
      | r when r < 60 -> Wire.Get key
      | r when r < 70 -> Wire.Del key
      | r when r < 85 ->
          enq_counter.(i) <- enq_counter.(i) + 1;
          let v = (((p.seed * 8) + i) * 1_000_000_000) + enq_counter.(i) in
          Hashtbl.replace queued v ();
          Wire.Enqueue v
      | _ -> Wire.Dequeue)
  in
  let check c op result =
    let model = models.(c.Load.index) in
    let slot k = k - base c.Load.index in
    match op with
    | Wire.Put (k, v) ->
        expect "put" Wire.Done result;
        model.(slot k) <- Some v
    | Wire.Get k ->
        expect_get ~what:"kv_mixed" ~key:k ~expected:model.(slot k) result
    | Wire.Del k ->
        expect (Printf.sprintf "del %d" k)
          (if model.(slot k) = None then Wire.Nothing else Wire.Done)
          result;
        model.(slot k) <- None
    | Wire.Enqueue _ ->
        expect "enqueue" Wire.Done result;
        incr acked_enq
    | Wire.Dequeue -> (
        match result with
        | Wire.Nothing -> ()
        | Wire.Value v when Hashtbl.mem queued v ->
            Hashtbl.remove queued v;
            incr acked_deq
        | r -> fail "dequeue answered %s, not a queued value" (show_result r))
    | Wire.Ping | Wire.Last_seq -> assert false
  in
  timed_phase st ~traced ~duration_s ~next ~check;
  for _ = 1 to p.cycles do
    kill_cycle st
  done;
  (* every key of every range reads back as its model says *)
  Array.iteri
    (fun i model ->
      sequential st
        (List.init p.range_keys (fun s -> Wire.Get (base i + s)))
        ~check:(fun op r ->
          match op with
          | Wire.Get k -> expect_get ~what:"kv_mixed final" ~key:k ~expected:model.(k - base i) r
          | _ -> assert false))
    models;
  (* conservation: acked enqueues - acked dequeues = drained, and the
     drained values are exactly the ones still queued *)
  let drained = ref 0 in
  let rec drain () =
    match call st Wire.Dequeue with
    | Wire.Nothing -> ()
    | Wire.Value v when Hashtbl.mem queued v ->
        Hashtbl.remove queued v;
        incr drained;
        drain ()
    | r -> fail "drain: dequeue answered %s, not a queued value" (show_result r)
  in
  drain ();
  if !drained <> !acked_enq - !acked_deq || Hashtbl.length queued <> 0 then
    fail "queue conservation: %d enqueues - %d dequeues acked, %d drained, %d lost"
      !acked_enq !acked_deq !drained (Hashtbl.length queued)

(* kv_read: Gets of uniformly random preloaded keys.  The kill cycles
   then restart the preloaded image: after every restart the queue must
   hold its items in FIFO order, and after the round's last restart every
   preloaded key is read back.  No request writes a preloaded key after
   the preload, so a key lost by an earlier restart stays lost. *)
let kv_read st ~traced ~duration_s =
  let p = st.p in
  let rngs =
    Array.init p.conns (fun i -> Random.State.make [| p.seed; i; Random.State.bits st.rng |])
  in
  let check_get what op r =
    match op with
    | Wire.Get k ->
        expect_get ~what ~key:k ~expected:(Some (preload_value ~seed:p.seed k)) r
    | _ -> assert false
  in
  timed_phase st ~traced ~duration_s
    ~next:(fun c -> Some (Wire.Get (Random.State.int rngs.(c.Load.index) p.preload_keys)))
    ~check:(fun _ -> check_get "kv_read");
  (* the queue: drain it in FIFO order, then put the items back *)
  let check_queue () =
    let items = queue_values st in
    sequential st
      (List.map (fun _ -> Wire.Dequeue) items @ [ Wire.Dequeue ])
      ~check:(let rest = ref items in
              fun _ r ->
                match (!rest, r) with
                | v :: tl, Wire.Value v' when v = v' -> rest := tl
                | [], Wire.Nothing -> ()
                | _ -> fail "kv_read: queue answered %s out of order" (show_result r));
    sequential st (List.map (fun v -> Wire.Enqueue v) items)
      ~check:(fun _ r -> expect "re-enqueue" Wire.Done r)
  in
  for _ = 1 to p.cycles do
    kill_cycle st;
    check_queue ()
  done;
  let next_key = Array.init p.conns (fun i -> i) in
  Load.closed_loop st.conns ~go:(fun _ -> true)
    ~next:(fun c ->
      let k = next_key.(c.Load.index) in
      if k >= p.preload_keys then None
      else begin
        next_key.(c.Load.index) <- k + p.conns;
        Some (Wire.Get k)
      end)
    ~answer:(fun _ op r _ ->
      st.acc.attempted <- st.acc.attempted + 1;
      check_get "kv_read read-back" op r)

(* Single-connection waits per opcode on the final server, after every
   check has passed (traced runs only). *)
let probe st ~per_op =
  let c = Client.connect ~addr:st.server.H.sockaddr ~client:probe_client in
  let time name op =
    let s =
      match Hashtbl.find_opt st.acc.probe name with
      | Some s -> s
      | None ->
          let s = Sample.create () in
          Hashtbl.replace st.acc.probe name s;
          s
    in
    let t0 = Proc.now_ns () in
    let r = Client.call c op in
    Sample.add s (Proc.now_ns () - t0);
    st.acc.attempted <- st.acc.attempted + 1;
    match r with
    | Wire.Refused code -> fail "probe %s refused: %s" name (Wire.err_name code)
    | _ -> ()
  in
  for i = 1 to per_op do
    let key = 20_000_000 + i in
    time "ping" Wire.Ping;
    time "put" (Wire.Put (key, i));
    time "get" (Wire.Get key);
    time "del" (Wire.Del key);
    time "enqueue" (Wire.Enqueue i);
    time "dequeue" Wire.Dequeue
  done;
  Client.close c

(* Run the workload, accumulating into [acc]; raises [Load.Failed] on the
   first failed check. *)
let run p acc =
  sabotage := p.sabotage;
  (try Unix.mkdir p.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let duration_s = p.seconds /. float_of_int p.rounds in
  let body =
    match p.workload with Kv_mixed -> kv_mixed | Kv_read -> kv_read
  in
  let host = Hostref.create () in
  Fun.protect ~finally:(fun () -> Hostref.close host) @@ fun () ->
  for round = 0 to p.rounds - 1 do
    let st = setup p acc ~host ~round in
    (* a traced run alternates untraced and traced rounds, so the tracing
       overhead is measured within the run *)
    body st ~traced:(p.trace && round mod 2 = 1) ~duration_s;
    if p.trace && round = p.rounds - 1 then probe st ~per_op:300;
    List.iter Load.close st.conns;
    Client.close st.ctl;
    stop st.server;
    Sys.remove st.image
  done
