(** Observability counter sets.

    These are the process-wide counters of events above the device:
    operations executed, crashes survived and recovery passes, media
    faults injected, detected, repaired and quarantined, the server's
    connections, answered requests and dedup hits, and the write
    amplification a protocol pays — payload bytes the caller asked to
    write vs the cache-line bytes the device actually touched.

    Device events — reads, writes, flush calls (eager and elided), drains
    and lines persisted — are not here.  They are counted once, per
    device and always on, by {!Nvram.Stats}: tests and experiments compare
    devices, and a count that exists only while observability is on
    cannot pin protocol costs.

    Recording is striped by domain id like {!Histogram}; {!totals} sums
    the stripes.  The counters are branch-free: each call site decides
    whether to record (most gate on {!Config.enabled}; the server's
    per-connection and per-request counts are always on). *)

type t

type totals = {
  ops : int;  (** completed [Exec.call] invocations *)
  crashes_survived : int;  (** device crashes followed by a reboot *)
  recovery_passes : int;  (** [Exec.recover] completions *)
  payload_bytes : int;  (** bytes the callers asked to write *)
  amplified_bytes : int;  (** cache-line bytes those writes dirtied *)
  faults_injected : int;
      (** media faults the device injected: torn lines + bitflip events *)
  faults_detected : int;
      (** checksum/shape mismatches recovery or the scrubber noticed *)
  faults_repaired : int;
      (** detected faults repaired in place (truncated torn frame, rebuilt
          free list, re-derived arena header, …) *)
  faults_quarantined : int;
      (** detected faults isolated instead of repaired (arena taken out of
          allocation service) *)
  conns_accepted : int;  (** client connections the server accepted *)
  requests_served : int;
      (** wire requests answered (fresh executions and dedup hits alike) *)
  dedup_hits : int;
      (** retried requests answered from the persistent dedup table without
          re-executing *)
}

val create : unit -> t

val incr_ops : t -> unit
val incr_crashes_survived : t -> unit
val incr_recovery_passes : t -> unit
val incr_faults_injected : t -> unit
val incr_faults_detected : t -> unit
val incr_faults_repaired : t -> unit
val incr_faults_quarantined : t -> unit
val incr_conns_accepted : t -> unit
val incr_requests_served : t -> unit
val incr_dedup_hits : t -> unit

val record_write : t -> payload:int -> amplified:int -> unit
(** One write call's amplification: [payload] bytes requested, [amplified]
    bytes of cache lines covered (always [>= payload] for non-empty
    writes). *)

val totals : t -> totals
val reset : t -> unit

val write_amplification : totals -> float
(** [amplified_bytes / payload_bytes]; [0.] when nothing was written. *)
