let stripes = 16 (* power of two *)

type stripe = {
  ops : int Atomic.t;
  crashes_survived : int Atomic.t;
  recovery_passes : int Atomic.t;
  payload_bytes : int Atomic.t;
  amplified_bytes : int Atomic.t;
  faults_injected : int Atomic.t;
  faults_detected : int Atomic.t;
  faults_repaired : int Atomic.t;
  faults_quarantined : int Atomic.t;
  conns_accepted : int Atomic.t;
  requests_served : int Atomic.t;
  dedup_hits : int Atomic.t;
}

type t = stripe array

type totals = {
  ops : int;
  crashes_survived : int;
  recovery_passes : int;
  payload_bytes : int;
  amplified_bytes : int;
  faults_injected : int;
  faults_detected : int;
  faults_repaired : int;
  faults_quarantined : int;
  conns_accepted : int;
  requests_served : int;
  dedup_hits : int;
}

let create () : t =
  Array.init stripes (fun _ : stripe ->
      {
        ops = Atomic.make 0;
        crashes_survived = Atomic.make 0;
        recovery_passes = Atomic.make 0;
        payload_bytes = Atomic.make 0;
        amplified_bytes = Atomic.make 0;
        faults_injected = Atomic.make 0;
        faults_detected = Atomic.make 0;
        faults_repaired = Atomic.make 0;
        faults_quarantined = Atomic.make 0;
        conns_accepted = Atomic.make 0;
        requests_served = Atomic.make 0;
        dedup_hits = Atomic.make 0;
      })

let mine (t : t) = t.((Domain.self () :> int) land (stripes - 1))
let add counter n = ignore (Atomic.fetch_and_add counter n)
let incr_ops t = add (mine t).ops 1
let incr_crashes_survived t = add (mine t).crashes_survived 1
let incr_recovery_passes t = add (mine t).recovery_passes 1
let incr_faults_injected t = add (mine t).faults_injected 1
let incr_faults_detected t = add (mine t).faults_detected 1
let incr_faults_repaired t = add (mine t).faults_repaired 1
let incr_faults_quarantined t = add (mine t).faults_quarantined 1
let incr_conns_accepted t = add (mine t).conns_accepted 1
let incr_requests_served t = add (mine t).requests_served 1
let incr_dedup_hits t = add (mine t).dedup_hits 1

let record_write t ~payload ~amplified =
  let s = mine t in
  add s.payload_bytes payload;
  add s.amplified_bytes amplified

let totals (t : t) =
  Array.fold_left
    (fun (acc : totals) (s : stripe) ->
      {
        ops = acc.ops + Atomic.get s.ops;
        crashes_survived = acc.crashes_survived + Atomic.get s.crashes_survived;
        recovery_passes = acc.recovery_passes + Atomic.get s.recovery_passes;
        payload_bytes = acc.payload_bytes + Atomic.get s.payload_bytes;
        amplified_bytes = acc.amplified_bytes + Atomic.get s.amplified_bytes;
        faults_injected = acc.faults_injected + Atomic.get s.faults_injected;
        faults_detected = acc.faults_detected + Atomic.get s.faults_detected;
        faults_repaired = acc.faults_repaired + Atomic.get s.faults_repaired;
        faults_quarantined =
          acc.faults_quarantined + Atomic.get s.faults_quarantined;
        conns_accepted = acc.conns_accepted + Atomic.get s.conns_accepted;
        requests_served = acc.requests_served + Atomic.get s.requests_served;
        dedup_hits = acc.dedup_hits + Atomic.get s.dedup_hits;
      })
    {
      ops = 0;
      crashes_survived = 0;
      recovery_passes = 0;
      payload_bytes = 0;
      amplified_bytes = 0;
      faults_injected = 0;
      faults_detected = 0;
      faults_repaired = 0;
      faults_quarantined = 0;
      conns_accepted = 0;
      requests_served = 0;
      dedup_hits = 0;
    }
    t

let reset (t : t) =
  Array.iter
    (fun (s : stripe) ->
      Atomic.set s.ops 0;
      Atomic.set s.crashes_survived 0;
      Atomic.set s.recovery_passes 0;
      Atomic.set s.payload_bytes 0;
      Atomic.set s.amplified_bytes 0;
      Atomic.set s.faults_injected 0;
      Atomic.set s.faults_detected 0;
      Atomic.set s.faults_repaired 0;
      Atomic.set s.faults_quarantined 0;
      Atomic.set s.conns_accepted 0;
      Atomic.set s.requests_served 0;
      Atomic.set s.dedup_hits 0)
    t

let write_amplification totals =
  if totals.payload_bytes = 0 then 0.
  else Float.of_int totals.amplified_bytes /. Float.of_int totals.payload_bytes
