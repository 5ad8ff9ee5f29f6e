(* A fixed reference workload that tracks how fast this host runs at the
   moment.  It uses only the standard library and Unix, never code under
   test, so a change to lib/ or bin/ cannot move it.

   One reference step does, in one thread, the kinds of work a server
   request spends its CPU on: [syscalls] round trips of 64 bytes through a
   pipe, a chain of [touches] dependent reads over a 16 MiB buffer, and a
   few small allocations.  On the quiet 2-vCPU VM the benchmark was built
   on, a step takes about [nominal_ns]; when other tenants load the host
   it takes longer, and so does every request the benchmark times. *)

type t = { r : Unix.file_descr; w : Unix.file_descr; mem : Bytes.t; buf : Bytes.t }

let syscalls = 16
let touches = 128
let mem_bytes = 1 lsl 24

(* The step cost the benchmark's figures are scaled to. *)
let nominal_ns = 20_000.

let create () =
  let r, w = Unix.pipe () in
  { r; w; mem = Bytes.make mem_bytes '\001'; buf = Bytes.make 64 'x' }

let close t =
  Unix.close t.r;
  Unix.close t.w

let step t =
  for _ = 1 to syscalls do
    ignore (Unix.write t.w t.buf 0 64);
    ignore (Unix.read t.r t.buf 0 64)
  done;
  (* each read's address depends on the value the previous one returned *)
  let off = ref 0 in
  for j = 1 to touches do
    off := ((!off + Char.code (Bytes.get t.mem !off) + j) * 262_147) land (mem_bytes - 1)
  done;
  ignore (Sys.opaque_identity (!off + List.length (List.init 8 (fun k -> Bytes.make 16 (Char.chr k)))))

let cpu_ns () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9

(* Mean cost of [steps] consecutive steps, in ns of wall-clock time and in
   ns of this process's CPU time (which, like the server's, leaves out
   time the hypervisor stole).  The caller must be the process's only
   running thread. *)
let slice t ~steps =
  let t0 = Proc.now_ns () and c0 = cpu_ns () in
  for _ = 1 to steps do
    step t
  done;
  let n = float_of_int steps in
  (float_of_int (Proc.now_ns () - t0) /. n, (cpu_ns () -. c0) /. n)
