(** Order statistics used by every timing the benchmark reports.

    A latency is reported as a median plus a tail percentile, with the
    sample count, and the tail percentile only when at least {!min_beyond}
    samples lie beyond it, so a tail figure never rests on a handful of
    observations. *)

val median : float list -> float
(** Middle sample; the mean of the two middle samples for an even count.
    Raises [Invalid_argument] on an empty list. *)

val percentile : p:float -> float list -> float
(** Nearest-rank percentile: the sample at rank [ceil (p/100 * n)] of the
    sorted samples (rank 1 for tiny [p]).  [p] must lie in (0, 100]. *)

val beyond : p:float -> int -> int
(** Samples strictly above the nearest-rank [p] percentile's rank, out of [n]. *)

val min_beyond : int
(** [10]: the fewest samples beyond a percentile for it to be reported. *)

val supported : p:float -> int -> bool
(** Whether [n] samples leave at least {!min_beyond} beyond percentile [p]. *)
