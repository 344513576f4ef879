(* Order statistics for the benchmark's reports. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples =
  match sorted samples with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it.  The epsilon keeps float rounding in [p * n] (99.9 is not
   exact) from pushing an integral rank one place up. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile ~p samples =
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p outside (0, 100]";
  match sorted samples with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a -> a.(rank ~p (Array.length a) - 1)

let beyond ~p n = n - rank ~p n

let min_beyond = 10

let supported ~p n = n > 0 && beyond ~p n >= min_beyond
