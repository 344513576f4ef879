(** Pluggable exploration strategies for the refinement checker.

    The exhaustive checker ({!Refinement.check}) enumerates every thread
    interleaving and crash point.  Most interleavings differ only in the
    order of {e commuting} steps — steps whose footprints
    ({!Sched.Footprint}) are disjoint — and checking one representative per
    commutation class is enough.  This module provides the machinery of
    dynamic partial-order reduction (DPOR, Flanagan–Godefroid style) that
    {!Refinement.check} uses to prune such redundant schedules:

    - {b Naive}: the original exhaustive enumeration, unchanged;
    - {b Dpor_sleep}: backtracking-based DPOR over thread steps with sleep
      sets stacked on top (already-explored siblings are filtered out of
      re-exploration), plus crash-point pruning (a crash branch is skipped
      when it would reach the exact same recovery state and linearization
      obligations as an already-explored crash at the nearest "dirty"
      ancestor).

    Dependence is crash-aware.  Two steps by different threads are
    dependent (never reordered) when either has fault branches to explore,
    their footprints conflict (an [Unknown] footprint conflicts with
    everything), or both are {e crash-relevant}: each writes durable state
    or may complete its operation.  Persisted writes and responses are the
    only events a crash can observe (durable linearizability), so:

    - crash-relevant steps are pairwise dependent, hence performed in the
      same order by every interleaving of an equivalence class;
    - a crash state — the crashed world plus the saturated linearization
      candidates — is a function of the crash-relevant steps done so far:
      every other step writes only volatile state, which the crash
      discards, and emits no tracker event; so the clean-crash skip still
      reaches every crash state;
    - a response swapped with a footprint-disjoint non-responding step
      leaves the tracker's invoke/respond sequence unchanged.

    Race detection scans blocked threads' next steps as well as enabled
    ones, as Flanagan–Godefroid DPOR specifies.  Dependence must hold for
    a step as it will run, and whether a blocked step will complete its
    operation or have fault branches is known only in the world that
    enables it, so the checker describes it conservatively: responding,
    and visible while fault budget remains.  Soundness is
    cross-validated empirically by the differential harness in
    [test/test_explore.ml]: naive and reduced exploration must agree on
    the verdict for every bundled system and seeded-bug variant, and on
    the set of reachable post-phase outcomes for the holding ones. *)

type strategy = Naive | Dpor_sleep

val all_strategies : strategy list

val strategy_name : strategy -> string
(** ["naive"], ["dpor+sleep"] — the [--strategy] spellings. *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name}; [None] for any other string. *)

val pp_strategy : strategy Fmt.t

(** {2 DPOR machinery}

    Used by {!Refinement.check}; exposed for the differential harness and
    the property tests over the dependence relation. *)

type 'w step_info = {
  si_tid : int;
  si_label : string;
  si_fp : Sched.Footprint.t;  (** footprint in the node's world *)
  si_visible : bool;
      (** globally dependent: a fault branch will be explored here
          (faulted steps are never reordered) *)
  si_responds : bool;
      (** some outcome completes the thread's operation; computed only
          under partial-order reduction ([false] otherwise) *)
  si_branches : ('w * ('w, Tslang.Value.t) Sched.Prog.t) list;
      (** the step's outcomes, pre-applied: next world and continuation *)
  si_faults : (Sched.Fault.kind * ('w * ('w, Tslang.Value.t) Sched.Prog.t)) list;
      (** fault outcomes to explore at this step (empty once the path's
          fault budget is spent), pre-applied like [si_branches] *)
  si_fault_site : bool;
      (** the step declares fault points, whether or not budget remains —
          drives the path's canonical fault-site numbering *)
}

val crash_relevant : 'w step_info -> bool
(** Can a crash observe where this step happened?  True iff it may
    complete its operation ([si_responds]) or writes durable state
    ([Unknown] counts). *)

val dependent : 'w step_info -> 'w step_info -> bool
(** Steps that may not be reordered: either is globally dependent, both
    are crash-relevant, or their footprints conflict. *)

type 'w node = {
  n_enabled : 'w step_info list;  (** runnable threads at this node *)
  mutable n_backtrack : int list;  (** tids scheduled for exploration *)
  mutable n_done : int list;  (** tids already explored (or slept) here *)
}

type 'w frame = { f_node : 'w node; f_step : 'w step_info }
(** One executed step on the current DFS path: the node it left and the
    step taken. *)

val node : sleep:int list -> 'w step_info list -> 'w node
(** Fresh node over the given enabled steps.  The initial backtrack choice
    prefers a non-visible, non-sleeping thread; if every enabled thread is
    asleep the backtrack set starts empty and the node is pruned. *)

val add_backtrack : 'w node -> int -> unit
val enabled_at : 'w node -> int -> bool

val detect_races : blocked:'w step_info list -> 'w frame list -> 'w node -> unit
(** For each enabled step of the node, and each step in [blocked] (the
    next steps of the node's blocked threads, with their footprints at the
    node's world and conservative [si_responds]/[si_visible]), find the
    most recent dependent, may-be-co-enabled step by another thread on the
    path (newest frame first) and add backtrack points at that frame's
    node. *)

val next_candidate : 'w node -> 'w step_info option
(** Next backtrack candidate not yet done, in enabled order. *)

(** Pruning provenance: {e why} was the state space this small?  When
    enabled, every skip the reduction performs records the rule that
    justified it, the site (step label or crash-site id) it pruned, and
    the witness site it was judged against; {!Prov.pp_report} ranks the
    (rule, site) pairs by skip count — the [perennial_check --explain]
    output.  Disabled by default (a single branch on the hot path). *)
module Prov : sig
  type rule =
    | Commutation  (** enabled step never explored: no race required it *)
    | Sleep  (** step skipped by its sleep set *)
    | Clean_crash  (** crash branch skipped at a clean (non-dirty) node *)

  val rule_name : rule -> string
  val enabled : unit -> bool
  val set_enabled : bool -> unit
  val reset : unit -> unit

  val record : rule -> site:string -> ?witness:string -> unit -> unit
  (** Count one skip of [site] under [rule]; [witness] is the explored
      step it commuted with (or that put it to sleep). No-op when
      disabled. *)

  val entries : unit -> (rule * string * string option * int) list
  (** Ranked by count, descending. *)

  val total : unit -> int
  val pp_report : Format.formatter -> unit -> unit
end

(** Obs counters for the reduction itself (on the default registry). *)
module Mx : sig
  val commutations : Obs.Metrics.counter
      (** enabled steps never explored because no race required them *)

  val sleep_skips : Obs.Metrics.counter
  val crash_skips : Obs.Metrics.counter
end

val strategy_us : strategy -> Obs.Metrics.gauge
(** Accumulated wall time of checks run under the given strategy
    ([perennial_explore_strategy_us{strategy=...}]). *)
