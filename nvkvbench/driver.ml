(* Benchmark driver for nvkv_server.  Run from the repository root (run.sh
   builds it first):

     driver.exe --workload kv_mixed|kv_read --seed N --seconds S
                --trace 0|1 [--connections N]

   Prints one config line and, last, one JSON result line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when a
   correctness check fails, 2 on bad arguments. *)

module W = Nvkvbench.Wireload
module Sample = Nvkvbench.Sample
module Proc = Nvkvbench.Proc
module Layers = Nvkvbench.Layers
module Hostref = Nvkvbench.Hostref

let usage () =
  prerr_endline
    "usage: driver.exe --workload kv_mixed|kv_read --seed N \
     --seconds S --trace 0|1 [--connections N]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and conns = ref 2 and sabotage = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w W.workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--connections" :: n :: rest ->
        (conns := match int_of_string_opt n with Some n when n > 0 -> n | _ -> usage ());
        go rest
    | "--sabotage" :: rest ->
        sabotage := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
      {
        (W.defaults w) with
        W.seed;
        seconds;
        trace;
        conns = !conns;
        sabotage = !sabotage;
      }
  | _ -> usage ()

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let json_string s = Printf.sprintf "%S" s

let print_config (p : W.params) =
  let fields =
    [
      ("workload", json_string (W.workload_name p.W.workload));
      ("seed", string_of_int p.W.seed);
      ("seconds", json_float p.W.seconds);
      ("trace", string_of_bool p.W.trace);
      ("nproc", string_of_int (Proc.nproc ()));
      ("connections", string_of_int p.W.conns);
      ("server_workers", string_of_int p.W.workers);
      ("image_bytes", string_of_int p.W.size);
      ("keys_per_connection", string_of_int p.W.range_keys);
      ("preload_keys", string_of_int p.W.preload_keys);
      ("queue_items", string_of_int p.W.queue_items);
      ("rounds", string_of_int p.W.rounds);
      ("kill_cycles_per_round", string_of_int p.W.cycles);
      ("commit", json_string (Proc.commit ()));
      ("source_digest", json_string (Proc.source_digest ()));
    ]
  in
  Printf.printf "{\"config\": {%s}}\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_float value) unit)
          metrics))

let us ns = float_of_int ns /. 1e3

(* The host's pace over the run: the median [Hostref] step cost in CPU
   time over the nominal one (above 1 = slower).  The pace in wall-clock
   time is printed beside it: it also counts stolen time. *)
let pace (acc : W.acc) =
  let median f = Sample.median (List.map f acc.W.host_steps) /. Hostref.nominal_ns in
  (median snd, median fst)

(* Sample counts behind the figures, the share of CPU time the host stole
   during the run, its pace, and the headline figures as measured. *)
let print_samples (acc : W.acc) ~wall_s ~steal_ticks =
  let windows = W.used_windows acc in
  let clean = List.filter (fun w -> w.W.steal <= W.max_steal) acc.W.windows in
  let slow, slow_wall = pace acc in
  let median f = Sample.median (List.map f windows) in
  Printf.printf
    "{\"samples\": {\"latency\": %d, \"windows\": %d, \"windows_clean\": %d, \
     \"windows_total\": %d, \"window_steal_pct\": %.2f, \"recovery\": %d, \
     \"setup\": %d, \"host_steal_pct\": %.2f, \"host_slow\": %.4f, \
     \"host_slow_wall\": %.4f, \"measured\": {\"ops_per_s\": %.1f, \
     \"ops_per_s_wall\": %.1f, \"latency_p50_us\": %.1f, \
     \"server_cpu_us_per_op\": %.1f, \"recovery_ms_p50\": %.2f, \"setup_s\": %.4f}}}\n%!"
    (Array.length (W.latencies windows))
    (List.length windows) (List.length clean) (List.length acc.W.windows)
    (100. *. median (fun w -> w.W.steal))
    (List.length acc.W.recovery.W.s) (List.length acc.W.setup.W.s)
    (100. *. steal_ticks /. Proc.ticks_per_s
    /. (wall_s *. float_of_int (Proc.nproc ())))
    slow slow_wall
    (median (fun w -> w.W.ops_per_s))
    (median (fun w -> w.W.wall_ops_per_s))
    (us (Sample.percentile (W.latencies windows) 0.5))
    (median (fun w -> w.W.cpu_us_per_op))
    (1e3 *. Sample.median acc.W.recovery.W.s)
    (Sample.median acc.W.setup.W.s)

(* Time figures at the nominal host pace (see [Wireload.timed_phase]). *)
let end_to_end (acc : W.acc) =
  let windows = W.used_windows acc and slow, _ = pace acc in
  let lat = W.latencies windows in
  let median f = Sample.median (List.map f windows) in
  [
    ("ops_per_s", median (fun w -> w.W.ops_per_s) *. slow, "1/s");
    ("latency_p50_us", us (Sample.percentile lat 0.5) /. slow, "us");
    ("latency_p90_us", us (Sample.percentile lat 0.9) /. slow, "us");
    ("server_cpu_us_per_op", median (fun w -> w.W.cpu_us_per_op) /. slow, "us");
    ("server_rss_mb", Sample.median acc.W.rss_mb, "MB");
    ("recovery_ms_p50", 1e3 *. W.unstolen_median acc.W.recovery /. slow, "ms");
    ("setup_s", W.unstolen_median acc.W.setup /. slow, "s");
  ]

let () =
  let p = parse Sys.argv in
  let nproc = Proc.nproc () in
  if p.W.conns > min nproc W.cycle_client then begin
    Printf.eprintf "driver: %d connections refused (nproc %d, at most %d)\n%!"
      p.W.conns nproc W.cycle_client;
    exit 2
  end;
  if not (Sys.file_exists "bin/nvkv_server.ml") then begin
    prerr_endline "driver: run from the repository root";
    exit 2
  end;
  at_exit W.kill_all;
  (* a driver stopped from outside still takes its servers down *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  print_config p;
  let acc = W.new_acc () in
  let t0 = Proc.now_ns () and steal0 = Proc.steal_ticks () in
  match
    W.run p acc;
    print_samples acc
      ~wall_s:(float_of_int (Proc.now_ns () - t0) /. 1e9)
      ~steal_ticks:(Proc.steal_ticks () -. steal0);
    if p.W.trace then Layers.per_layer p acc else end_to_end acc
  with
  | metrics ->
      print_result ~correct:true ~attempted:acc.W.attempted ~failed:0 metrics
  | exception exn ->
      let what =
        match exn with
        | Nvkvbench.Load.Failed what -> what
        | exn -> Printexc.to_string exn
      in
      Printf.eprintf "driver: run failed: %s\n%!" what;
      print_result ~correct:false ~attempted:(max 1 acc.W.attempted) ~failed:1 [];
      exit 1
