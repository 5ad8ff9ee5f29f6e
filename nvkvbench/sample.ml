(* Exact order statistics over every recorded sample.  No bucketing: a
   percentile is one of the recorded values, chosen by nearest rank, and
   is always reported together with the number of samples it was drawn
   from. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 4096 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let clear t = t.len <- 0

let append t other =
  for i = 0 to other.len - 1 do
    add t other.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample such that at least [p] of all samples
   are at or below it. *)
let rank n p =
  if n = 0 then invalid_arg "Sample.rank: no samples";
  max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let percentile sorted p = sorted.(rank (Array.length sorted) p)

(* Samples strictly after the percentile's rank: the tail the percentile
   rests on. *)
let beyond sorted p = Array.length sorted - rank (Array.length sorted) p - 1

let median = function
  | [] -> invalid_arg "Sample.median: no values"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
