(* The benchmark's own tests: exact percentiles, the driver's refusals, and
   the sabotage self-check — every workload's checker, fed one wrong
   expected value, must fail its run against a real server, and must pass
   it otherwise.  Workloads are shrunk to a fraction of a second here. *)

module W = Nvkvbench.Wireload
module Sample = Nvkvbench.Sample

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let percentiles () =
  let s = Sample.create () in
  for i = 100 downto 1 do
    Sample.add s i
  done;
  let a = Sample.sorted s in
  check "p50 of 1..100 is 50" (Sample.percentile a 0.5 = 50);
  check "p90 of 1..100 is 90" (Sample.percentile a 0.9 = 90);
  check "p99 of 1..100 is 99, one sample beyond"
    (Sample.percentile a 0.99 = 99 && Sample.beyond a 0.99 = 1);
  check "p50 of one sample" (Sample.percentile [| 7 |] 0.5 = 7);
  check "median of floats" (Sample.median [ 3.; 1.; 2.; 10. ] = 2.5)

let small workload ~sabotage =
  {
    (W.defaults workload) with
    W.seconds = 0.3;
    rounds = 1;
    cycles = 1;
    range_keys = 20;
    preload_keys = 300;
    queue_items = 8;
    sabotage;
  }

let run p =
  match W.run p (W.new_acc ()) with
  | () -> `Passed
  | exception Nvkvbench.Load.Failed what -> `Failed what

let sabotage () =
  List.iter
    (fun (name, workload) ->
      (match run (small workload ~sabotage:false) with
      | `Passed -> check (name ^ ": clean run passes") true
      | `Failed what -> check (name ^ ": clean run passes (" ^ what ^ ")") false);
      match run (small workload ~sabotage:true) with
      | `Passed -> check (name ^ ": sabotaged run fails") false
      | `Failed what -> check (name ^ ": sabotaged run fails (" ^ what ^ ")") true)
    W.workloads;
  W.kill_all ()

(* The driver's exit code and standard error with [n] connections.  The
   test runs outside a checkout, so a driver that accepts [n] goes on to
   refuse the working directory: only the message tells the two apart. *)
let driver_with_connections n =
  let err = Filename.temp_file "nvkvbench" ".err" in
  let code =
    Sys.command
      (Printf.sprintf
         "./driver.exe --workload kv_read --seed 1 --seconds 1 --trace 0 \
          --connections %d >/dev/null 2>%s"
         n (Filename.quote err))
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let refuses_connections () =
  let nproc = Nvkvbench.Proc.nproc () in
  let code, msg = driver_with_connections (nproc + 1) in
  check
    (Printf.sprintf "driver refuses %d connections (exit 2, says so)" (nproc + 1))
    (code = 2 && contains msg "connections refused");
  let _, msg = driver_with_connections nproc in
  check (Printf.sprintf "driver accepts %d connections" nproc)
    ((not (contains msg "connections refused")) && contains msg "repository root")

let () =
  percentiles ();
  sabotage ();
  refuses_connections ();
  if !failures > 0 then exit 1
