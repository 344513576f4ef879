(** Retry loops over fallible steps, and the step-label conventions the
    refinement checker counts.

    A retry iteration is marked by a pure no-op step labelled
    ["retry(<what>)"]: it exists only on paths where a transient error
    already fired, so it costs nothing in the fault-free state space, and
    the checker's [retries_observed] stat counts the committed steps whose
    label starts with {!retry_prefix}. *)

val retry_prefix : string
(** ["retry"]: steps so labelled are counted as retries. *)

val cache_hit_prefix : string
(** ["rpc_cache_hit"]: steps so labelled are an RPC server answering a
    duplicate request from its reply cache (counted as cache hits). *)

val marker : string -> ('w, unit) Prog.t
(** [marker label] is a pure no-op step labelled [label] (footprint
    {!Footprint.pure}): how retry loops and reply caches announce
    themselves. *)

val retry :
  ?bound:int ->
  string ->
  (unit -> ('w, Tslang.Value.t) Prog.t) ->
  ('w, Tslang.Value.t option) Prog.t
(** [retry ?bound what op] runs [op ()] until it returns a value that is
    not {!Fault.is_eio}, and returns [Some] of it; each retry is preceded
    by the marker step ["retry(<what>)"].  With [~bound:n] it gives up after [n] retries and
    returns [None]; without a bound it never gives up (each iteration
    exists only under one more injected fault, so exhaustive exploration
    under a finite fault budget still terminates). *)
