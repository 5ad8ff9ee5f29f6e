(* What the benchmark reads about processes and the source tree from
   outside: /proc accounting for the server, the clock, and the identity of
   the code under test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Linux reports /proc/<pid>/stat times in USER_HZ ticks, fixed at 100. *)
let ticks_per_s = 100.

(* utime + stime of [pid], in seconds.  Fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  let rest =
    String.split_on_char ' '
      (String.trim (String.sub s (close + 1) (String.length s - close - 1)))
  in
  let field i = float_of_string (List.nth rest i) in
  (field 11 +. field 12) /. ticks_per_s

(* Peak resident set ([VmHWM]) of [pid], in MiB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.sub line 6 (String.length line - 6)))
  in
  float_of_int (Option.get kb) /. 1024.

(* Ticks the host took from this machine's CPUs (the [steal] column of
   /proc/stat), summed over CPUs: wall-clock figures of a run whose steal
   share is high were measured on a contended host. *)
let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: rest -> (
      match List.filter (( <> ) "") rest with
      | _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
          float_of_string steal
      | _ -> 0.)
  | _ -> 0.

let nproc () = Domain.recommended_domain_count ()

(* The commit when run from a git work tree, else "none"; the digest of
   lib/ and bin/ sources identifies the code either way. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref_ = String.sub head 5 (String.length head - 5) in
      String.trim (read_file (Filename.concat ".git" ref_))
    else head
  with Sys_error _ | Not_found | Invalid_argument _ -> "none"

let source_digest () =
  let rec walk dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then walk path
           else if
             Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ path ]
           else [])
  in
  let files = List.sort compare (walk "lib" @ walk "bin") in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file f)) files)))
