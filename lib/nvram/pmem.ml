type policy = Lose_all | Lose_none | Lose_random of int
type flush_mode = Eager | Coalesced

(* Per-domain pending-line log for the coalesced mode: the order in which
   this domain's flush calls first marked each line pending.  A drain
   persists a whole log in that (flush) order, so the persisted set at any
   moment is a prefix of the flush sequence — the property that makes every
   coalesced persistence state one the eager mode can also reach.  The log
   mutex is always taken before any stripe and never while one is held (a
   coalesced flush takes its log's mutex, then its stripes; a drain takes
   [log_mu], then stripes one at a time), so the two lock families cannot
   deadlock. *)
type pending_log = {
  log_mu : Mutex.t;
  mutable log_lines : int array;
  mutable log_len : int;
}

let log_buckets = 16 (* power of two, like Obs.Counters *)

(* Media-fault state (see [arm_faults]).  Owned by the device, not by
   [Crash]: [Crash.reset] models a machine restart, and restarting a
   machine does not repair its media — fault plans must survive every era
   of a run.  All mutable state is guarded by [fault_mu]; the [armed] flag
   is read racily on hot paths, which is sound because arming
   happens-before the workers start (same argument as [Crash.step]'s
   fast path). *)
type faults = {
  fault_mu : Mutex.t;
  mutable fplan : Crash.fault_plan;
  mutable armed : bool;
  mutable tear_rng : Random.State.t;
  mutable bitflip_rng : Random.State.t;
  mutable crash_events : int;  (* tear plans count crash events *)
  mutable restarts : int;  (* bitflip plans count restarts *)
  mutable targets : (int * int) array;
      (* bitflip target regions (offset, length); [||] = whole device *)
}

type t = {
  line_size : int;
  size : int;
  lines : int;
  policy : policy;
  auto_flush : bool;
  flush_mode : flush_mode;
  backend : Backend.t;
  volatile : bytes;  (* visible content: persistent image + unflushed writes *)
  dirty : bool array;  (* per cache line *)
  pending : bool array;
      (* per cache line, coalesced mode only: flushed but not yet drained.
         Invariant: pending implies dirty (guarded by the line's stripe). *)
  logs : pending_log array;  (* indexed by domain id land (log_buckets-1) *)
  mutable drain_breakage : int;
      (* test hook ([unsafe_break_drain]): number of upcoming line drains to
         silently forget — clear the tags without persisting — so tests can
         demonstrate that the model checker's equivalence check fires on a
         broken drain.  0 in real use. *)
  crash_ctl : Crash.t;
  stats : Stats.t;
  faults : faults;
  crash_rng : Random.State.t;
  yield_probability : float;
  yield_state : int Atomic.t;  (* lock-free LCG for scheduling jitter *)
  stripes : Mutex.t array;
      (* Striped device lock: stripe [stripe_of t l] guards cache line [l]
         — its bytes in [volatile], its [dirty] and [pending] bits and its
         persistence.  Operations on disjoint lines proceed in parallel; an
         operation touching several lines holds all covering stripes for
         its whole duration (see [lock_lines]), which preserves the
         linearizability of the old single-mutex device. *)
}

let default_stripes = 256

let create ?(line_size = 64) ?(policy = Lose_all) ?(auto_flush = false)
    ?(flush_mode = Eager) ?(yield_probability = 0.)
    ?(stripes = default_stripes) ?backend ~size () =
  Layout.check_line_size line_size;
  if size <= 0 then invalid_arg "Pmem.create: size must be positive";
  if stripes < 1 then invalid_arg "Pmem.create: stripes must be >= 1";
  let backend =
    match backend with Some b -> b | None -> Backend.memory ~size
  in
  if Backend.size backend <> size then
    invalid_arg "Pmem.create: backend size mismatch";
  let volatile = Bytes.make size '\000' in
  Backend.blit_to backend ~off:0 ~dst:volatile ~dst_off:0 ~len:size;
  let lines = (size + line_size - 1) / line_size in
  let crash_rng =
    match policy with
    | Lose_random seed -> Random.State.make [| seed |]
    | Lose_all | Lose_none -> Random.State.make [| 0 |]
  in
  (* Power of two, and never more stripes than lines. *)
  let nstripes =
    let target = max 1 (min stripes lines) in
    let n = ref 1 in
    while !n * 2 <= target do
      n := !n * 2
    done;
    !n
  in
  {
    line_size;
    size;
    lines;
    policy;
    auto_flush;
    flush_mode;
    backend;
    volatile;
    dirty = Array.make lines false;
    pending = Array.make lines false;
    logs =
      Array.init log_buckets (fun _ ->
          { log_mu = Mutex.create (); log_lines = [||]; log_len = 0 });
    drain_breakage = 0;
    crash_ctl = Crash.create ();
    stats = Stats.create ();
    faults =
      {
        fault_mu = Mutex.create ();
        fplan = Crash.no_faults;
        armed = false;
        tear_rng = Random.State.make [| 0 |];
        bitflip_rng = Random.State.make [| 0 |];
        crash_events = 0;
        restarts = 0;
        targets = [||];
      };
    crash_rng;
    yield_probability;
    yield_state = Atomic.make 0x9E3779B9;
    stripes = Array.init nstripes (fun _ -> Mutex.create ());
  }

let size t = t.size
let line_size t = t.line_size
let auto_flush t = t.auto_flush
let flush_mode t = t.flush_mode
let crash_ctl t = t.crash_ctl
let stats t = t.stats
let backend t = t.backend
let stripe_count t = Array.length t.stripes

let check_range t off len =
  let off = Offset.to_int off in
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) outside device of size %d" off
         (off + len) t.size)

(* Scheduling jitter: on a single-CPU host, OS timeslices are thousands of
   simulated operations long, so concurrent workers would never interleave
   within the short windows concurrency bugs live in.  Descheduling the
   calling OS thread with some probability after each tracked operation
   restores fine-grained interleaving; a short [Unix.sleepf] deschedules
   across worker domains, which [Thread.yield] (domain-local) does not.
   Deliberately racy LCG: determinism is not wanted here. *)
let maybe_yield t =
  if t.yield_probability > 0. then begin
    let s = Atomic.get t.yield_state in
    let s' = (s * 0x5851F42D4C957F2D) + 0x14057B7EF767814F in
    Atomic.set t.yield_state s';
    let u = float_of_int ((s' lsr 11) land 0xFFFFFF) /. 16777216.0 in
    if u < t.yield_probability then Unix.sleepf 1e-6
  end

(* Fibonacci-hash the line index onto a stripe.  The naive [line mod
   stripes] map aliases badly in practice: worker-private regions are
   usually a round number of lines apart (a power-of-two stride), so every
   worker's hot line 0 lands on the *same* stripe and the "striped" lock
   degenerates to a single shared mutex.  Mixing the bits first spreads
   any stride pattern across all stripes. *)
let[@inline] stripe_of t line =
  (line * 0x2545F4914F6CDD1D) lsr 40 land (Array.length t.stripes - 1)

(* {2 Stripe locking}

   Every operation holds the stripes of the lines it touches for its whole
   duration.  [lock_lines] and [unlock_lines] are the only code that locks
   or unlocks a stripe: stripes are acquired in ascending index order, so
   the locking is deadlock-free, and released in reverse.  Both are
   closure-free and allocate nothing, so the hot single-word paths stay off
   the minor heap (minor collections stop every domain in OCaml 5).  A
   range with at least as many lines as there are stripes takes them all. *)

(* The lowest stripe above [after] that covers a line of [first..last], or
   the stripe count when there is none. *)
let next_stripe t ~first ~last after =
  let next = ref (Array.length t.stripes) in
  for line = first to last do
    let s = stripe_of t line in
    if s > after && s < !next then next := s
  done;
  !next

(* The highest stripe below [before] that covers a line of [first..last],
   or -1 when there is none. *)
let prev_stripe t ~first ~last before =
  let prev = ref (-1) in
  for line = first to last do
    let s = stripe_of t line in
    if s < before && s > !prev then prev := s
  done;
  !prev

let lock_range t ~first ~last =
  let n = Array.length t.stripes in
  if last - first + 1 >= n then
    for s = 0 to n - 1 do
      Mutex.lock t.stripes.(s)
    done
  else begin
    let s = ref (next_stripe t ~first ~last (-1)) in
    while !s < n do
      Mutex.lock t.stripes.(!s);
      s := next_stripe t ~first ~last !s
    done
  end

let unlock_range t ~first ~last =
  let n = Array.length t.stripes in
  if last - first + 1 >= n then
    for s = n - 1 downto 0 do
      Mutex.unlock t.stripes.(s)
    done
  else begin
    let s = ref (prev_stripe t ~first ~last n) in
    while !s >= 0 do
      Mutex.unlock t.stripes.(!s);
      s := prev_stripe t ~first ~last !s
    done
  end

(* The one-line case, by far the commonest, is inlined into each caller. *)
let[@inline] lock_lines t ~first ~last =
  if first = last then Mutex.lock t.stripes.(stripe_of t first)
  else lock_range t ~first ~last

let[@inline] unlock_lines t ~first ~last =
  if first = last then Mutex.unlock t.stripes.(stripe_of t first)
  else unlock_range t ~first ~last

(* The two ways out of a locked section: [leave_lines] after the body
   completed (with the scheduling jitter), [abort_lines] when it raised —
   crash signals fire mid-operation by design, and the stripes must not
   outlive the aborted operation. *)
let[@inline] leave_lines t ~first ~last =
  unlock_lines t ~first ~last;
  maybe_yield t

let abort_lines t ~first ~last e =
  unlock_lines t ~first ~last;
  raise e

(* Whole-device operations (crash, peeks, line census) serialise against
   everything by holding every stripe.  They are cold, so a closure is
   fine here. *)
let with_all_lines t f =
  let last = t.lines - 1 in
  lock_lines t ~first:0 ~last;
  match f () with
  | result ->
      leave_lines t ~first:0 ~last;
      result
  | exception e -> abort_lines t ~first:0 ~last e

(* {2 Observability gate}

   One atomic load per operation.  [obs_start] takes a timestamp only when
   recording is on and returns 0 otherwise (a real timestamp is at least
   1: the clock counts from program start); the operation records its
   latency at the end, so an operation that raises records nothing — a
   crash signal aborts it, and there is no completed latency to report.
   The latency window surrounds the lock acquisition and the locked body,
   so contention shows up in the histograms.  Device event counts are not
   recorded here: they live in the device's always-on [Stats]. *)

let[@inline] obs_start () =
  if Obs.Config.enabled () then begin
    let now = Obs.Config.now_ns () in
    if now > 0 then now else 1
  end
  else 0

let[@inline] observe probe t0_ns =
  if t0_ns <> 0 then Obs.Probe.record_latency probe ~t0_ns

(* A write's latency plus its write amplification: payload bytes requested
   vs cache-line bytes dirtied. *)
let[@inline] observe_write t ~base ~len t0_ns =
  if t0_ns <> 0 then begin
    Obs.Probe.record_latency Obs.Probe.Pmem_write ~t0_ns;
    let lines =
      if len = 0 then 0
      else ((base + len - 1) / t.line_size) - (base / t.line_size) + 1
    in
    Obs.Counters.record_write Obs.Probe.counters ~payload:len
      ~amplified:(lines * t.line_size)
  end

(* {2 Line state} *)

(* Persist one cache line: atomic with respect to crashes.  Clears both
   tags — a persisted line is neither dirty nor pending. *)
let persist_line t index =
  let start = index * t.line_size in
  let len = min t.line_size (t.size - start) in
  Backend.persist t.backend ~off:start ~src:t.volatile ~src_off:start ~len;
  t.dirty.(index) <- false;
  t.pending.(index) <- false

(* A write-back a flush, a drain or an auto-flush write paid for. *)
let write_back t index =
  persist_line t index;
  Stats.incr_lines_flushed t.stats 1

(* The tail of every store to line [index]: the dirty bit, then the
   auto-flush write-back.  Caller holds the line's stripe. *)
let[@inline] mark_written t index =
  t.dirty.(index) <- true;
  if t.auto_flush then write_back t index

(* {2 Media faults: torn lines and bit rot} *)

let arm_faults ?(targets = [||]) t fplan =
  let f = t.faults in
  Mutex.protect f.fault_mu (fun () ->
      Array.iter
        (fun (off, len) ->
          if off < 0 || len <= 0 || off + len > t.size then
            invalid_arg "Pmem.arm_faults: target region outside device")
        targets;
      f.fplan <- fplan;
      f.tear_rng <- Random.State.make [| fplan.Crash.fault_seed; 1 |];
      f.bitflip_rng <- Random.State.make [| fplan.Crash.fault_seed; 2 |];
      f.crash_events <- 0;
      f.restarts <- 0;
      f.targets <- targets;
      f.armed <- Crash.has_faults fplan)

let fault_plan t = Mutex.protect t.faults.fault_mu (fun () -> t.faults.fplan)

let plan_fires ~counter ~rng = function
  | Crash.Never -> false
  | Crash.At_op n -> counter >= n
  | Crash.Random { probability; _ } ->
      Random.State.float rng 1.0 < probability

let note_fault_injected () =
  if Obs.Config.enabled () then
    Obs.Counters.incr_faults_injected Obs.Probe.counters

(* Tear the persist of line [index] that the crash just interrupted.  The
   in-flight bytes are [seg_len] bytes at device offset [seg_start], with
   their {e new} content at [src.(src_off ..)]: a seeded prefix of the new
   content reaches the persistent image, a seeded handful of the following
   bytes are shredded with garbage, and the rest keep their old persisted
   value — the three states a byte of an interrupted write-back can land
   in.  The caller holds the stripe of [index]; the torn image is copied
   back into the volatile cache and the line marked clean so the crash's
   lose/survive pass cannot overwrite the tear with intact content. *)
let tear_line_locked t ~index ~seg_start ~seg_len ~src ~src_off ~rng =
  let keep = Random.State.int rng (seg_len + 1) in
  if keep > 0 then
    Backend.persist t.backend ~off:seg_start ~src ~src_off ~len:keep;
  let shred = Random.State.int rng (min 8 (seg_len - keep) + 1) in
  if shred > 0 then begin
    let garbage = Bytes.init shred (fun _ -> Char.chr (Random.State.int rng 256)) in
    Backend.persist t.backend ~off:(seg_start + keep) ~src:garbage ~src_off:0
      ~len:shred
  end;
  (* Volatile must agree with the torn image: the machine is dead, and the
     reboot path re-reads the backend anyway, but a racing op between the
     tear and [crash t] must not observe pre-tear bytes as clean. *)
  let line_start = index * t.line_size in
  let line_len = min t.line_size (t.size - line_start) in
  Backend.blit_to t.backend ~off:line_start ~dst:t.volatile
    ~dst_off:line_start ~len:line_len;
  t.dirty.(index) <- false;
  t.pending.(index) <- false;
  Stats.incr_torn_lines t.stats;
  note_fault_injected ()

(* Crash-scheduler step at a persistence point covering line [index], with
   tearing: when this step is the one that {e fires} the crash (not a
   later step observing an already-crashed device) it counts one crash
   event, and the armed tear plan decides whether the interrupted persist
   of [index] is torn.  Without a fault plan it is a plain [Crash.step].
   Caller holds the stripe of [index]. *)
let step_fault t ~index ~seg_start ~seg_len ~src ~src_off =
  let f = t.faults in
  if not f.armed then Crash.step t.crash_ctl
  else begin
    let was_crashed = Crash.crashed t.crash_ctl in
    match Crash.step t.crash_ctl with
    | () -> ()
    | exception Crash.Crash_now when not was_crashed ->
        let tear =
          Mutex.protect f.fault_mu (fun () ->
              f.crash_events <- f.crash_events + 1;
              if
                seg_len > 0
                && plan_fires ~counter:f.crash_events ~rng:f.tear_rng
                     f.fplan.Crash.tear
              then Some f.tear_rng
              else None)
        in
        (match tear with
        | Some rng ->
            tear_line_locked t ~index ~seg_start ~seg_len ~src ~src_off ~rng
        | None -> ());
        raise Crash.Crash_now
  end

(* Flip one persisted bit, write-through to the visible content, under the
   stripe of its line. *)
let flip_bit t ~off ~bit =
  let index = off / t.line_size in
  lock_lines t ~first:index ~last:index;
  match
    Backend.flip_bit t.backend ~off ~bit;
    Bytes.set t.volatile off
      (Char.chr (Char.code (Bytes.get t.volatile off) lxor (1 lsl bit)))
  with
  | () ->
      leave_lines t ~first:index ~last:index;
      Stats.incr_bits_flipped t.stats 1
  | exception e -> abort_lines t ~first:index ~last:index e

(* Bit rot between eras: flip seeded persisted bits inside the configured
   target regions.  Runs on [restart], i.e. with the machine quiescent —
   every worker died with [Crash_now]; the stripe lock still makes each
   flip atomic against stragglers. *)
let apply_bitflips t =
  let f = t.faults in
  let flips =
    Mutex.protect f.fault_mu (fun () ->
        f.restarts <- f.restarts + 1;
        if
          not
            (plan_fires ~counter:f.restarts ~rng:f.bitflip_rng
               f.fplan.Crash.bitflip)
        then [||]
        else begin
          let rng = f.bitflip_rng in
          let n = 1 + Random.State.int rng 3 in
          Array.init n (fun _ ->
              let off =
                if Array.length f.targets = 0 then
                  Random.State.int rng t.size
                else begin
                  let region, len =
                    f.targets.(Random.State.int rng (Array.length f.targets))
                  in
                  region + Random.State.int rng len
                end
              in
              (off, Random.State.int rng 8))
        end)
  in
  Array.iter
    (fun (off, bit) ->
      flip_bit t ~off ~bit;
      note_fault_injected ())
    flips

let inject_bitflip t ~off ~bit =
  check_range t off 1;
  flip_bit t ~off:(Offset.to_int off) ~bit

(* {2 Coalesced-mode pending logs and drains} *)

let my_log t = t.logs.((Domain.self () :> int) land (log_buckets - 1))

(* Record a newly-pending line in [log], whose mutex the caller holds; the
   amortised growth keeps the steady-state append allocation-free. *)
let log_push log index =
  let cap = Array.length log.log_lines in
  if log.log_len = cap then begin
    let bigger = Array.make (max 64 (2 * cap)) 0 in
    Array.blit log.log_lines 0 bigger 0 log.log_len;
    log.log_lines <- bigger
  end;
  log.log_lines.(log.log_len) <- index;
  log.log_len <- log.log_len + 1

(* Drain one pending log: persist its still-pending lines in first-flush
   order and empty it.  Entries whose line is no longer pending (persisted
   meanwhile by an auto-flush write, another drain, or a crash) are
   skipped.  A drain contains no [Crash.step]: it is atomic with respect to
   the crash plan of the draining domain, so it only moves the device
   {e toward} the fully-persisted state — it can remove reachable
   post-crash states (lines that would have been lost survive) but never
   create one the eager mode could not reach.  Returns the number of lines
   drained.  Caller must hold no stripe lock. *)
let drain_log t log =
  Mutex.lock log.log_mu;
  let drained = ref 0 in
  match
    for k = 0 to log.log_len - 1 do
      let index = log.log_lines.(k) in
      lock_lines t ~first:index ~last:index;
      match
        if t.pending.(index) then begin
          if t.drain_breakage > 0 then begin
            (* Broken write-back (test hook): drop the tags without
               persisting.  The runtime now believes the line is
               persistent while the image still holds the old bytes. *)
            t.drain_breakage <- t.drain_breakage - 1;
            t.pending.(index) <- false;
            t.dirty.(index) <- false
          end
          else write_back t index;
          incr drained
        end
      with
      | () -> unlock_lines t ~first:index ~last:index
      | exception e -> abort_lines t ~first:index ~last:index e
    done;
    log.log_len <- 0
  with
  | () ->
      Mutex.unlock log.log_mu;
      !drained
  | exception e ->
      Mutex.unlock log.log_mu;
      raise e

(* One drain event = one moment the device wrote pending lines back; only
   events that persisted something count, so an empty barrier is free. *)
let note_drain t ~lines = if lines > 0 then Stats.incr_drains t.stats

let drain_own t = note_drain t ~lines:(drain_log t (my_log t))

let drain_every_log t =
  let lines = ref 0 in
  for b = 0 to log_buckets - 1 do
    lines := !lines + drain_log t t.logs.(b)
  done;
  note_drain t ~lines:!lines

let rec any_pending t ~first ~last =
  first <= last && (t.pending.(first) || any_pending t ~first:(first + 1) ~last)

(* Dependent read: in coalesced mode, reading a pending line is a persist
   barrier (FliT's flush-on-shared-read rule) — the reader may act on the
   value, so the value must be persistent before it is returned.  The
   pre-lock tag check is deliberately racy: missing a concurrent mark only
   delays the drain to the next barrier, and a stale positive drains early;
   both are sound because drains only persist.  Drain own log first (the
   common case — a domain reading its own recent writes), then everyone's
   if the line is still pending under another domain's log. *)
let read_drain t ~first ~last =
  if any_pending t ~first ~last then begin
    drain_own t;
    if any_pending t ~first ~last then drain_every_log t
  end

(* {2 Data access}

   Each public operation is one body.  The order of its steps is fixed,
   and crash-point numbering depends on it: stats, [Crash.step], mutation,
   dirty bit, auto-flush.  Persistence mutators call [Crash.sched_point]
   before taking any stripe, so a model-checker fiber suspended there
   holds no device mutex; its footprint names the covered lines so
   partial-order reduction can tell whether neighbouring operations
   commute.  Zero-length reads, writes and flushes consult the crash
   scheduler exactly once, via [Crash.check]: a crashed device refuses
   them like any other operation, but they never count as a crash
   {e point}, so crash-point sweeps see the same op numbering whether or
   not a protocol issues degenerate empty calls (see pmem.mli, stats.mli). *)

(* [Crash.check] under the stripes, releasing them if it raises; kept out
   of line so that [enter_read], which has no handler, can be inlined. *)
let check_locked t ~first ~last =
  match Crash.check t.crash_ctl with
  | () -> ()
  | exception e -> abort_lines t ~first ~last e

(* Entry of every non-empty read.  Reads are not scheduling points, but the
   model checker's reduction needs their footprint to detect read/write
   races between coarser transitions (crash.mli, "Scheduler hook"); in
   coalesced mode a read of a pending line drains it first. *)
let[@inline] enter_read t ~first ~last =
  Crash.note_read t.crash_ctl ~first_line:first ~last_line:last;
  if t.flush_mode = Coalesced then read_drain t ~first ~last;
  lock_lines t ~first ~last;
  check_locked t ~first ~last;
  Stats.incr_reads t.stats

(* Entry of every non-empty store. *)
let[@inline] enter_write t ~first ~last =
  Crash.sched_point t.crash_ctl ~kind:Crash.Write ~first_line:first
    ~last_line:last ~persists:t.auto_flush;
  lock_lines t ~first ~last;
  Stats.incr_writes t.stats

(* Store [len] bytes of [src] at device offset [base], line by line,
   consulting the crash scheduler once per line: a multi-line store is not
   atomic, and with a tear plan armed the line it was writing when the
   crash fired may tear.  Caller holds the covering stripes. *)
let store_lines t ~base ~src ~len ~first ~last =
  for index = first to last do
    let line_start = index * t.line_size in
    let seg_start = max base line_start in
    let seg_end = min (base + len) (min (line_start + t.line_size) t.size) in
    step_fault t ~index ~seg_start ~seg_len:(seg_end - seg_start) ~src
      ~src_off:(seg_start - base);
    Bytes.blit src (seg_start - base) t.volatile seg_start
      (seg_end - seg_start);
    mark_written t index
  done

(* An 8-byte word that straddles two lines is stored like any byte range. *)
let store_split_word t ~base ~first ~last v =
  let src = Bytes.create 8 in
  Bytes.set_int64_le src 0 v;
  store_lines t ~base ~src ~len:8 ~first ~last

let read_bytes t ~off ~len =
  check_range t off len;
  let t0_ns = obs_start () in
  let result =
    if len = 0 then begin
      Crash.check t.crash_ctl;
      Stats.incr_reads t.stats;
      Bytes.empty
    end
    else begin
      let base = Offset.to_int off in
      let first = base / t.line_size in
      let last = (base + len - 1) / t.line_size in
      enter_read t ~first ~last;
      let result = Bytes.sub t.volatile base len in
      leave_lines t ~first ~last;
      result
    end
  in
  observe Obs.Probe.Pmem_read t0_ns;
  result

let write_bytes t ~off src =
  let len = Bytes.length src in
  check_range t off len;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  (if len = 0 then begin
     Crash.check t.crash_ctl;
     Stats.incr_writes t.stats
   end
   else begin
     let first = base / t.line_size in
     let last = (base + len - 1) / t.line_size in
     enter_write t ~first ~last;
     match store_lines t ~base ~src ~len ~first ~last with
     | () -> leave_lines t ~first ~last
     | exception e -> abort_lines t ~first ~last e
   end);
  observe_write t ~base ~len t0_ns

(* The single-byte and single-line word stores below model aligned
   hardware stores: one crash point, never torn, and no staging buffer —
   the value goes straight into [volatile]. *)

let read_byte t off =
  check_range t off 1;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let index = base / t.line_size in
  enter_read t ~first:index ~last:index;
  let result = Char.code (Bytes.get t.volatile base) in
  leave_lines t ~first:index ~last:index;
  observe Obs.Probe.Pmem_read t0_ns;
  result

let write_byte t off b =
  if b < 0 || b > 255 then invalid_arg "Pmem.write_byte: not a byte";
  check_range t off 1;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let index = base / t.line_size in
  enter_write t ~first:index ~last:index;
  (match
     Crash.step t.crash_ctl;
     Bytes.set t.volatile base (Char.chr b);
     mark_written t index
   with
  | () -> leave_lines t ~first:index ~last:index
  | exception e -> abort_lines t ~first:index ~last:index e);
  observe_write t ~base ~len:1 t0_ns

let[@inline] read_int64 t off =
  check_range t off 8;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let first = base / t.line_size and last = (base + 7) / t.line_size in
  enter_read t ~first ~last;
  let result = Bytes.get_int64_le t.volatile base in
  leave_lines t ~first ~last;
  observe Obs.Probe.Pmem_read t0_ns;
  result

let write_int64 t off v =
  check_range t off 8;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let first = base / t.line_size and last = (base + 7) / t.line_size in
  enter_write t ~first ~last;
  (match
     if first = last then begin
       Crash.step t.crash_ctl;
       Bytes.set_int64_le t.volatile base v;
       mark_written t first
     end
     else store_split_word t ~base ~first ~last v
   with
  | () -> leave_lines t ~first ~last
  | exception e -> abort_lines t ~first ~last e);
  observe_write t ~base ~len:8 t0_ns

(* The native-[int] accessors must not pass an [int64] across a function
   boundary, where it would be boxed: one minor-heap allocation per device
   word.  [read_int] gets [read_int64] inlined ([@inline] above);
   [write_int64] has an exception handler, which the compiler does not
   inline, so [write_int] converts inside a body of its own. *)

let read_int t off = Int64.to_int (read_int64 t off)

let write_int t off v =
  check_range t off 8;
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let first = base / t.line_size and last = (base + 7) / t.line_size in
  enter_write t ~first ~last;
  (match
     if first = last then begin
       Crash.step t.crash_ctl;
       Bytes.set_int64_le t.volatile base (Int64.of_int v);
       mark_written t first
     end
     else store_split_word t ~base ~first ~last (Int64.of_int v)
   with
  | () -> leave_lines t ~first ~last
  | exception e -> abort_lines t ~first ~last e);
  observe_write t ~base ~len:8 t0_ns

let cas_int64 t off ~expected ~desired =
  check_range t off 8;
  if not (Layout.same_line ~line_size:t.line_size off ~len:8) then
    invalid_arg "Pmem.cas_int64: word crosses a cache line";
  let t0_ns = obs_start () in
  let base = Offset.to_int off in
  let index = base / t.line_size in
  Crash.sched_point t.crash_ctl ~kind:Crash.Cas ~first_line:index
    ~last_line:index ~persists:t.auto_flush;
  (* The CAS reads the word before deciding: a dependent read like any
     other, so a pending line is drained first. *)
  if t.flush_mode = Coalesced then read_drain t ~first:index ~last:index;
  lock_lines t ~first:index ~last:index;
  match
    Crash.step t.crash_ctl;
    Stats.incr_reads t.stats;
    Int64.equal (Bytes.get_int64_le t.volatile base) expected
    && begin
         (* No extra crash point between the read and the write: this
            models a hardware CAS instruction. *)
         Stats.incr_writes t.stats;
         Bytes.set_int64_le t.volatile base desired;
         mark_written t index;
         true
       end
  with
  | swapped ->
      leave_lines t ~first:index ~last:index;
      observe Obs.Probe.Pmem_cas t0_ns;
      swapped
  | exception e -> abort_lines t ~first:index ~last:index e

(* {2 Persistence} *)

(* Every flush call counts once, under [flushes] on an eager device and
   under [flushes_elided] on a coalesced one (see stats.mli). *)
let count_flush t =
  match t.flush_mode with
  | Eager -> Stats.incr_flushes t.stats
  | Coalesced -> Stats.incr_flushes_elided t.stats

(* One covered line of an eager flush: a crash point, then the write-back
   of a dirty line.  The in-flight content a crash may tear is the whole
   dirty line; a clean line has nothing in flight. *)
let flush_line t index =
  let line_start = index * t.line_size in
  let seg_len =
    if t.dirty.(index) then min t.line_size (t.size - line_start) else 0
  in
  step_fault t ~index ~seg_start:line_start ~seg_len ~src:t.volatile
    ~src_off:line_start;
  if t.dirty.(index) then write_back t index

(* One covered line of a coalesced flush: the same crash point as the
   eager flush — crash-point numbering is identical in both modes, so an
   [At_op] placement lands at the same operation whether or not coalescing
   is on — but a dirty line is only marked pending and logged, in
   first-flush order.  Nothing is written back, so nothing can tear. *)
let mark_line t log index =
  Crash.step t.crash_ctl;
  if t.dirty.(index) && not t.pending.(index) then begin
    t.pending.(index) <- true;
    log_push log index
  end

(* A coalesced flush takes its pending log's mutex before the stripes —
   log before stripe, the order drains use — so the lines it marks are
   logged in the same locked section. *)
let flush t ~off ~len =
  if len < 0 then invalid_arg "Pmem.flush: negative length";
  check_range t off len;
  let t0_ns = obs_start () in
  (if len = 0 then begin
     Crash.check t.crash_ctl;
     count_flush t
   end
   else begin
     let first = Offset.to_int off / t.line_size in
     let last = (Offset.to_int off + len - 1) / t.line_size in
     Crash.sched_point t.crash_ctl ~kind:Crash.Flush ~first_line:first
       ~last_line:last ~persists:true;
     let coalesced = t.flush_mode = Coalesced in
     let log = my_log t in
     if coalesced then Mutex.lock log.log_mu;
     lock_lines t ~first ~last;
     match
       count_flush t;
       for index = first to last do
         if coalesced then mark_line t log index else flush_line t index
       done
     with
     | () ->
         unlock_lines t ~first ~last;
         if coalesced then Mutex.unlock log.log_mu;
         maybe_yield t
     | exception e ->
         unlock_lines t ~first ~last;
         if coalesced then Mutex.unlock log.log_mu;
         raise e
   end);
  observe Obs.Probe.Pmem_flush t0_ns

let flush_byte t off = flush t ~off ~len:1

(* Persist barriers.  In eager mode both are complete no-ops — not even a
   [Crash.check] — so sprinkling them through [Exec]/[Driver] leaves the
   eager crash-point numbering and counter totals byte-identical to the
   pre-coalescer behaviour. *)

let persist_barrier t =
  match t.flush_mode with
  | Eager -> ()
  | Coalesced ->
      Crash.check t.crash_ctl;
      drain_own t

let drain_all t =
  match t.flush_mode with
  | Eager -> ()
  | Coalesced ->
      Crash.check t.crash_ctl;
      drain_every_log t

(* {2 Crash simulation} *)

let crash t =
  (* Reset the pending logs first, without stripes held (lock order: log
     before stripe).  An entry appended by a racing flush after this reset
     is neutralised below — clearing every pending bit under the stripes
     makes any late entry stale, and drains skip stale entries. *)
  Array.iter
    (fun log ->
      Mutex.lock log.log_mu;
      log.log_len <- 0;
      Mutex.unlock log.log_mu)
    t.logs;
  with_all_lines t (fun () ->
      Stats.incr_crashes t.stats;
      Crash.trigger t.crash_ctl;
      Array.iteri
        (fun index dirty ->
          if dirty then begin
            let survives =
              match t.policy with
              | Lose_all -> false
              | Lose_none -> true
              | Lose_random _ -> Random.State.bool t.crash_rng
            in
            if survives then begin
              persist_line t index;
              Stats.incr_lines_survived t.stats 1
            end
            else begin
              t.dirty.(index) <- false;
              t.pending.(index) <- false;
              Stats.incr_lines_lost t.stats 1
            end
          end)
        t.dirty;
      (* Reboot visibility: the cache is empty, the persistent image is all
         there is. *)
      Backend.blit_to t.backend ~off:0 ~dst:t.volatile ~dst_off:0 ~len:t.size)

let restart t =
  Crash.reset t.crash_ctl;
  if t.faults.armed then apply_bitflips t

let crash_and_restart t =
  crash t;
  restart t

(* {2 Introspection} *)

let peek_volatile t ~off ~len =
  check_range t off len;
  if len = 0 then Bytes.empty
  else
    with_all_lines t (fun () -> Bytes.sub t.volatile (Offset.to_int off) len)

let peek_persistent t ~off ~len =
  check_range t off len;
  if len = 0 then Bytes.empty
  else
    with_all_lines t (fun () ->
        Backend.read t.backend ~off:(Offset.to_int off) ~len)

let count_set tags =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 tags

let dirty_line_count t = with_all_lines t (fun () -> count_set t.dirty)
let pending_line_count t = with_all_lines t (fun () -> count_set t.pending)

(* One line's tag, read under its stripe. *)
let line_tag t tags off =
  check_range t off 1;
  let index = Layout.line_index ~line_size:t.line_size off in
  lock_lines t ~first:index ~last:index;
  let tag = tags.(index) in
  leave_lines t ~first:index ~last:index;
  tag

let is_dirty t off = line_tag t t.dirty off
let is_pending t off = line_tag t t.pending off
let unsafe_break_drain ?(skip = 1) t = t.drain_breakage <- skip
