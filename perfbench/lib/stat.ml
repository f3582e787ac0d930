(** Order statistics for the benchmark's timings.

    Percentiles are nearest-rank over the sorted samples, and each one
    carries its sample count and how many samples lie beyond it, so a
    report can say whether a tail percentile rests on at least ten
    samples past it. *)

type pct = {
  value : float;
  n : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples strictly after the percentile's rank *)
}

(** Nearest-rank [p]-th percentile ([0 < p <= 100]) of a non-empty
    sample list. *)
let percentile (p : float) (xs : float list) : pct =
  if xs = [] then invalid_arg "Stat.percentile: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stat.percentile: p outside (0, 100]";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  { value = a.(rank - 1); n; beyond = n - rank }

let median xs = (percentile 50. xs).value

(** A tail percentile is reportable when at least ten samples lie
    beyond it. *)
let tail_ok (q : pct) = q.beyond >= 10
