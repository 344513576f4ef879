(** Specification transition systems.

    A [('s) t] packages everything the refinement checker needs about a
    specification: the initial state, the per-operation transitions (looked up
    by operation name with universal-value arguments), and the crash
    transition (paper §3.1).  Operation return values are universal
    {!Value.t}s so that a single checker works for every system. *)

type 's t = {
  name : string;  (** system name, for reports *)
  init : 's;
  compare_state : 's -> 's -> int;
  pp_state : 's Fmt.t;
  step : string -> Value.t list -> ('s, Value.t) Transition.t;
      (** [step op args] is the atomic transition of operation [op]; raises
          [Invalid_argument] for unknown operation names (a harness bug, not
          a verification failure). *)
  crash : ('s, unit) Transition.t;
      (** What a crash (followed by recovery) may do to the abstract state.
          [ret ()] means crash-durable: no data is lost. *)
}

(** A pending or completed call, as the checker tracks them. *)
type call = { op : string; args : Value.t list }

val call : string -> Value.t list -> call
val pp_call : call Fmt.t
val equal_call : call -> call -> bool

val op_outcomes : 's t -> 's -> call -> ('s * Value.t) list
(** Defined outcomes of one operation from one state. *)

val op_has_undefined : 's t -> 's -> call -> bool
(** Whether the operation triggers specification-level undefined behaviour
    from this state (e.g. out-of-bounds address); refinement obligations are
    vacuous for such calls. *)

val op_run : 's t -> call -> 's -> ('s * Value.t) list option
(** [op_run spec call s] is [None] if [op_has_undefined spec s call], and
    [Some (op_outcomes spec s call)] otherwise, from one run of the
    transition.  [op_run spec call] resolves the operation once, so a
    partial application can be applied to many states. *)

val crash_outcomes : 's t -> 's -> 's list
(** Defined outcomes of the crash transition. *)
