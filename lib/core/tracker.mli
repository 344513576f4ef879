(** The spec-side linearization tracker of the refinement checker.

    A candidate set holds every way the atomic specification could explain
    the execution so far: one spec state per candidate, plus, for each
    pending operation, whether it has linearized and with what result.
    The checker grows the set as threads invoke operations, filters it as
    they respond, and maps it through the spec's crash transition.  The
    execution refines the spec as long as the set never empties (the
    conclusion of Perennial's Theorems 1–2).

    The set carries its invariants instead of recomputing them:
    - its candidates are sorted and duplicate-free;
    - every candidate has the same pending operations, stored once per set;
    - it is closed under linearizing any pending operation, except the
      operations invoked since the last closure.
    Closure is lazy — it runs at {!respond} and {!saturate} — and
    incremental: it starts from the newly invoked operations only. *)

module V := Tslang.Value
module Spec := Tslang.Spec

type 's t
(** A candidate set. *)

exception Vacuous
(** Closure reached spec-level undefined behaviour: every obligation of the
    path is vacuous (paper §8.3). *)

exception Unexplained
(** No candidate explains a response, or the spec crash transition has no
    outcome. *)

type counts = {
  dedup_hits : int;
      (** candidates derived during closure or by the crash transition that
          were already in the set *)
  max_size : int;  (** the largest set this call built, partial closures included *)
  produced : int option;  (** size of the set it returned; [None] if it raised *)
}
(** What one logical tracker call contributes to the checker's statistics. *)

type 's tracker
(** One tracker per engine instance; never shared between domains. *)

val create : 's Spec.t -> live:bool ref -> count:(counts -> unit) -> 's tracker
(** While [!live] is false (work-item replay), calls report no counts and
    touch no coverage sites.  Otherwise every [saturate], [respond] and
    [crash] hands its {!counts} to [count] once — also when it raises, and
    also when [respond] is answered from the memo. *)

val initial : 's tracker -> 's t
(** The spec's initial state, with nothing pending. *)

val add_pending : 's tracker -> int -> Spec.call -> 's t -> 's t
(** Thread [tid] invokes [call].  Registers the outcome arms the spec offers
    in the first candidate's state as coverage sites. *)

val saturate : 's tracker -> 's t -> 's t
(** Close under linearizing every pending operation.  Raises {!Vacuous}. *)

val respond : 's tracker -> int -> V.t -> 's t -> 's t
(** Thread [tid] returned [v]: close, keep the candidates where [tid]
    linearized with result [v], and drop [tid].  Raises {!Vacuous} or
    {!Unexplained}.  Answers are memoized on the physical identity of the
    input set, [tid] and [v] (a small fixed-size cache per tracker), so
    sibling interleavings that share their parent's set derive each
    response once. *)

val crash : 's tracker -> 's t -> 's t
(** Close, then apply the spec crash transition, dropping the operations
    in flight.  Raises {!Vacuous} or {!Unexplained}. *)

val memo_hits : 's tracker -> int
(** Responses answered from the memo so far.  Depends on how the work was
    partitioned, so it is never part of the checker's deterministic stats. *)

val candidates : 's t -> ('s * (int * Spec.call * V.t option) list) list
(** The candidates in set order, each with its pending operations sorted
    by thread id: [(tid, call, result)], [result = None] while not
    linearized. *)
