(** Concrete execution of concurrent programs under one schedule.

    Where the refinement checker explores *all* schedules, the runner picks
    one — round-robin, seeded-random, or an explicit thread sequence — and
    runs it to completion.  Used by the examples, the stress tests, and for
    replaying counterexample traces from the checker. *)

type policy =
  | Round_robin
  | Random of int  (** seed *)
  | Fixed of int list
      (** explicit schedule: thread index per step; falls back to
          round-robin when exhausted or when the named thread is blocked *)

type 'w outcome = {
  world : 'w;
  results : Tslang.Value.t array;  (** per-thread final values *)
  trace : (int * string) list;  (** (thread, step label) in execution order *)
  steps : int;
  injected : (int * Fault.kind) list;
      (** faults actually fired, as (site index, kind) in execution order *)
}

exception Undefined_behaviour of string
exception Deadlock of string

val run :
  ?policy:policy ->
  ?max_steps:int ->
  ?fault_schedule:Fault.schedule ->
  'w ->
  ('w, Tslang.Value.t) Prog.t list ->
  'w outcome
(** Run threads to completion.  Nondeterministic actions take their first
    outcome under [Round_robin]/[Fixed] and a seeded choice under [Random].
    [fault_schedule] is the injection oracle: committed steps that declare
    fault points are numbered 0, 1, … in execution order, and an injection
    [{at; kind}] makes the [at]-th such step take its declared fault of
    that [kind] (injections naming an undeclared kind are skipped).
    Raises {!Undefined_behaviour} if any thread steps into UB, {!Deadlock}
    if unfinished threads are all blocked, and [Failure] past [max_steps]
    (default 1_000_000). *)

val run1 : 'w -> ('w, Tslang.Value.t) Prog.t -> 'w * Tslang.Value.t
(** Run a single program to completion (round-robin trivially). *)
