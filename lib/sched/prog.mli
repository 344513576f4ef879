(** Resumable concurrent programs over an explicit world.

    A [('w, 'a) t] is a program whose every primitive step is an explicit
    atomic action on a world of type ['w].  Programs are *data*: a scheduler
    (or the refinement checker) picks which thread steps next, applies the
    action, and resumes the continuation.  This is the execution format every
    implementation in the repository compiles to — the primitive storage
    language of the Table 3 examples and the Goose interpreter both target
    it.

    Atomic actions are nondeterministic ([Steps] lists every possible
    outcome, e.g. a disk read that may fail over) and may be *blocked*
    (empty list: a lock that is currently held) or *undefined* (a detected
    race, paper §6.1).  The intermediate type ['b] carried between an action
    and its continuation is existential — schedulers apply the action and
    feed each outcome to [k] without inspecting it.

    Actions MUST be pure functions of the world: schedulers probe an action
    (to detect blocking) without committing its outcome, and the exhaustive
    checker applies the same action along many branches.  Worlds are
    immutable values; effects happen only by returning an updated world. *)

type ('w, 'b) step_result =
  | Steps of ('w * 'b) list
      (** possible outcomes; [[]] means blocked at this instant *)
  | Ub of string  (** undefined behaviour, with a reason for diagnostics *)

type mark = Enter of { sm_name : string; sm_cat : string } | Exit
(** Span markers: zero-cost causal annotations a program can carry between
    steps.  Marks are {e not} steps — schedulers consume every pending mark
    for free before looking at the next [Atomic], so wrapping a program in
    {!span} never changes the explored state space, only the trace. *)

type ('w, 'a) t =
  | Done of 'a
  | Mark of mark * ('w, 'a) t
      (** a span annotation followed by the rest of the program *)
  | Atomic : {
      label : string;  (** for traces, e.g. ["disk_write d1[0]"] *)
      fp : 'w -> Footprint.t;
          (** read/write footprint of the step in the given world, for
              partial-order reduction; defaults to {!Footprint.Unknown},
              which is always sound *)
      action : 'w -> ('w, 'b) step_result;
      faults : 'w -> (Fault.kind * 'w * 'b) list;
          (** fault points: the partial failures this step can absorb in the
              given world, each with the faulted post-world and return value
              (e.g. a transient read error leaving the world unchanged and
              returning {!Fault.eio}).  Defaults to none.  An oracle — the
              runner's [?fault_schedule] or the checker's fault-budget
              enumeration — decides whether a declared fault fires instead
              of a normal [action] outcome; left alone, faults never fire. *)
      k : 'b -> ('w, 'a) t;
    }
      -> ('w, 'a) t

val return : 'a -> ('w, 'a) t
val bind : ('w, 'a) t -> ('a -> ('w, 'b) t) -> ('w, 'b) t
val map : ('a -> 'b) -> ('w, 'a) t -> ('w, 'b) t

val atomic :
  ?fp:('w -> Footprint.t) ->
  ?faults:('w -> (Fault.kind * 'w * 'b) list) ->
  string ->
  ('w -> ('w, 'b) step_result) ->
  ('w, 'b) t
(** One atomic step. *)

val det : ?fp:('w -> Footprint.t) -> string -> ('w -> 'w * 'b) -> ('w, 'b) t
(** Deterministic atomic step. *)

val read : ?fp:('w -> Footprint.t) -> string -> ('w -> 'b) -> ('w, 'b) t
(** Deterministic read-only step. *)

val write : ?fp:('w -> Footprint.t) -> string -> ('w -> 'w) -> ('w, unit) t
(** Deterministic world update returning unit. *)

val blocked_until : ?fp:('w -> Footprint.t) -> string -> ('w -> ('w * 'b) option) -> ('w, 'b) t
(** Step that blocks (is unschedulable) while the function returns [None] —
    the shape of lock acquisition. *)

val ub : string -> ('w, 'a) t
(** Immediately-undefined program. *)

val seq : ('w, unit) t list -> ('w, unit) t

module Syntax : sig
  val ( let* ) : ('w, 'a) t -> ('a -> ('w, 'b) t) -> ('w, 'b) t
  val ( let+ ) : ('w, 'a) t -> ('a -> 'b) -> ('w, 'b) t
end

val lift : get:('w -> 'v) -> set:('w -> 'v -> 'w) -> ('v, 'a) t -> ('w, 'a) t
(** [lift ~get ~set p] runs a program over a component world ['v] inside a
    larger world ['w] through a lens — every step's action, footprint, and
    declared faults are mapped through [get]/[set].  This is how a host
    world embeds a whole subsystem (e.g. a shard's {!Journal.Kvs} world
    inside a distributed-service world) without rewriting its programs.
    Labels, marks, and fault kinds pass through unchanged, so traces,
    coverage sites, and DPOR dependence are those of the inner program. *)

val span : ?cat:string -> string -> ('w, 'a) t -> ('w, 'a) t
(** [span ~cat name p] wraps [p] in [Enter]/[Exit] marks so an
    interpreter that understands marks (the runner) emits a causal span
    covering [p]'s steps.  Transparent to the checker: contributes no
    steps, labels, footprints, or faults. *)

val strip_marks : ('w, 'a) t -> ('w, 'a) t
(** Drop any leading marks, exposing [Done] or [Atomic].  Interpreters
    that do not consume marks must call this before matching. *)

val marks_of : ('w, 'a) t -> mark list
(** The leading marks of a program, outermost first. *)

(** {2 One step of a program}

    [next] is the one place an interpreter looks inside an [Atomic]: the
    runner, the exhaustive checker and the random walker all step
    programs through it. *)

module Step : sig
  type ('w, 'a) prog := ('w, 'a) t

  type ('w, 'a) t
  (** An enabled step: its action has been applied, once, to the world it
      was probed in. *)

  val label : ('w, 'a) t -> string

  val outcomes : ('w, 'a) t -> ('w * ('w, 'a) prog) list
  (** every normal outcome, non-empty, each applied to the continuation:
      the post-world and the rest of the program *)

  val faults : ('w, 'a) t -> (Fault.kind * ('w * ('w, 'a) prog)) list
  (** the declared fault points in the probed world, applied likewise;
      the step's fault function runs only when this is called *)

  val footprint : ('w, 'a) t -> Footprint.t
  (** the footprint in the probed world; computed only when asked *)
end

type ('w, 'a) next =
  | Finished of 'a
  | Blocked of string  (** the label of the blocked step *)
  | Undefined of { label : string; reason : string }
  | Enabled of ('w, 'a) Step.t

val next : 'w -> ('w, 'a) t -> ('w, 'a) next
(** [next w p] looks at [p]'s next step in world [w], skipping leading
    marks; the step's action runs exactly once. *)
