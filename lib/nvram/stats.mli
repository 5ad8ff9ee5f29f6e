(** Operation counters for a simulated persistent-memory device.

    These are the only count of device events: each read, write, flush
    call, drain and persisted line is counted once, here, per device and
    always — observability ([Obs]) records latencies but no device counts.
    The counters are updated atomically so that worker domains can share one
    device.  They are used by the benchmark harness to report how many
    flushes a protocol issues (the dominant cost on real NVRAM) and by tests
    to assert that protocols issue exactly the flushes the paper requires. *)

type t

val create : unit -> t

val reads : t -> int
(** Number of read operations served. *)

val writes : t -> int
(** Number of write operations served.  Every [write_*] call counts,
    including a zero-length [write_bytes]: the counters measure API calls
    (what a protocol {e issues}), not bytes moved, so [Experiment] verdicts
    that compare protocol variants see the same accounting rule on every
    code path.  Zero-length calls also share one crash-scheduler rule:
    each takes exactly one [Crash.check] (raising if a crash already
    fired) and is never a crash point — [Crash.ops] does not advance. *)

val flushes : t -> int
(** Number of [flush] calls served {e eagerly}.  Like {!writes}, every call
    counts — a zero-length [flush] persists no line but is still one flush
    call.  In coalesced mode (see {!Pmem.flush_mode}) a flush call is
    counted under {!flushes_elided} instead, never here: the two counters
    partition the flush calls, so eager-mode accounting is unchanged by the
    existence of the coalescer. *)

val flushes_elided : t -> int
(** Number of [flush] calls elided by the coalescer: the call only marked
    its dirty lines pending instead of persisting them.  Always [0] on an
    eager device. *)

val drains : t -> int
(** Number of drain events — persist barriers, dependent reads of a pending
    line, or era boundaries — that persisted at least one pending line.
    Always [0] on an eager device.  [flushes + drains] is the number of
    moments the device actually wrote lines back, which is the fair
    flush-cost comparison between the two modes. *)

val lines_flushed : t -> int
(** Number of cache lines persisted by explicit flushes (or by auto-flush
    writes). *)

val crashes : t -> int
(** Number of simulated crash events applied to the device. *)

val lines_lost : t -> int
(** Number of dirty cache lines discarded across all crash events. *)

val lines_survived : t -> int
(** Number of dirty cache lines that happened to be written back before a
    crash (see {!Pmem.policy}). *)

val torn_lines : t -> int
(** Number of cache lines torn by an injected media fault: the crash that
    interrupted their persist wrote back a deterministic prefix/shredded
    pattern instead of all-or-nothing (see {!Pmem.arm_faults}). *)

val bits_flipped : t -> int
(** Number of persisted bits flipped by injected bit-rot faults between
    eras (see {!Pmem.arm_faults}). *)

val incr_reads : t -> unit
val incr_writes : t -> unit
val incr_flushes : t -> unit
val incr_flushes_elided : t -> unit
val incr_drains : t -> unit
val incr_lines_flushed : t -> int -> unit
val incr_crashes : t -> unit
val incr_lines_lost : t -> int -> unit
val incr_lines_survived : t -> int -> unit
val incr_torn_lines : t -> unit
val incr_bits_flipped : t -> int -> unit

val reset : t -> unit
(** [reset t] zeroes every counter. *)

val pp : Format.formatter -> t -> unit
(** Prints a one-line human-readable summary. *)
