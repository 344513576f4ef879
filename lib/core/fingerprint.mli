(** State keys for the exhaustive checker's fingerprint pruning.

    A key is a canonical rendering of everything that determines the
    {e future} of a naive-exploration node: the implementation world, the
    live linearization candidate set, the phase bookkeeping (crash budget
    used, fused fault mask, fault-site counter), and each live thread's
    continuation identity — an opaque class string (the checker passes a
    content digest of the thread's serialized continuation).  Two nodes
    with equal keys have identical subtrees, so the second one reached
    (along a different interleaving or fault schedule) can be pruned.
    {!Refinement.check}'s [~fingerprint] mode does exactly that, keeping
    the full key strings in a per-instance seen-set so that equality is
    exact string equality (no hash-collision unsoundness); the soundness
    argument lives in DESIGN.md §S21.

    {b Process-local only.}  The continuation classes the checker feeds in
    ({!thr.f_class}) are MD5 digests of [Marshal]-serialized closures
    ([Marshal.Closures]): deterministic for structurally identical
    continuations {e within one process} — that determinism is pinned by
    the regression test in [test/test_wal.ml] — but the serialization
    embeds code pointers, so the digests are NOT comparable across
    processes or across builds of the binary.  Never persist keys
    containing class digests and reuse them in another process; every key
    must be recomputed per process. *)

type pend = {
  f_ptid : int;  (** thread id owning the pending operation *)
  f_op : string;
  f_args : string list;
  f_result : string option;  (** linearized-but-unreturned result, if any *)
}

type cand = { f_state : string; f_pend : pend list }
(** One linearization candidate: rendered spec state + pending set. *)

type thr = {
  f_tid : int;
  f_class : string;
      (** opaque continuation identity; {!Refinement} passes the MD5 of the
          thread's serialized (call, program, remaining ops) — equal classes
          mean structurally identical continuations.  Closure serialization
          makes this identity process-local: see the module header *)
}

type state = {
  f_world : string;  (** implementation world, rendered *)
  f_cands : cand list;
  f_crashes : int;  (** crash budget already consumed *)
  f_fused : int;  (** fault budget already consumed *)
  f_fsite : int;  (** canonical fault-site counter on this path *)
  f_threads : thr list;  (** live threads, in tid order *)
}

val key : state -> string
(** Deterministic rendering of the state.  A function of the candidate
    {e set}: candidate and pending-entry order do not affect it. *)
