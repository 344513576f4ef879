module V = Tslang.Value
module Spec = Tslang.Spec

type ('w, 's) config = {
  spec : 's Spec.t;
  init_world : 'w;
  crash_world : 'w -> 'w;
  pp_world : 'w Fmt.t;
  threads : (Spec.call * ('w, V.t) Sched.Prog.t) list list;
  recovery : ('w, V.t) Sched.Prog.t;
  post : (Spec.call * ('w, V.t) Sched.Prog.t) list;
  max_crashes : int;
  fault_budget : int;
  max_seconds : float option;
  step_budget : int;
  fail_on_deadlock : bool;
}

let config ~spec ~init_world ~crash_world ~pp_world ~threads ~recovery ?(post = [])
    ?(max_crashes = 1) ?(fault_budget = 0) ?max_seconds ?(step_budget = 5_000_000)
    ?(fail_on_deadlock = true) () =
  {
    spec; init_world; crash_world; pp_world; threads; recovery; post; max_crashes;
    fault_budget; max_seconds; step_budget; fail_on_deadlock;
  }

type stats = {
  executions : int;
  steps : int;
  crashes_injected : int;
  vacuous : int;
  max_candidates : int;
  dedup_hits : int;
  frontier_hwm : int;
  commutations_pruned : int;
  sleep_skips : int;
  crash_skips : int;
  faults_injected : int;
  fault_schedules : int;
  retries_observed : int;
  cache_hits : int;
  fingerprint_hits : int;
  fingerprint_misses : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "executions=%d steps=%d crashes=%d vacuous=%d max_candidates=%d dedup=%d frontier=%d"
    s.executions s.steps s.crashes_injected s.vacuous s.max_candidates s.dedup_hits
    s.frontier_hwm;
  if s.commutations_pruned > 0 || s.sleep_skips > 0 || s.crash_skips > 0 then
    Fmt.pf ppf " pruned=%d sleep_skips=%d crash_skips=%d" s.commutations_pruned
      s.sleep_skips s.crash_skips;
  if s.faults_injected > 0 || s.fault_schedules > 0 || s.retries_observed > 0 then
    Fmt.pf ppf " faults=%d fault_schedules=%d retries=%d" s.faults_injected
      s.fault_schedules s.retries_observed;
  if s.cache_hits > 0 then Fmt.pf ppf " cache_hits=%d" s.cache_hits;
  if s.fingerprint_hits > 0 || s.fingerprint_misses > 0 then
    Fmt.pf ppf " fp_hits=%d fp_misses=%d" s.fingerprint_hits s.fingerprint_misses

(* ------------------------------------------------------------------ *)
(* Structured counterexample events                                     *)
(* ------------------------------------------------------------------ *)

type event_phase = Main | Recovery | Post

type event =
  | Invoke of { tid : int; call : Spec.call }
  | Step of { tid : int; label : string }
  | Fault of { tid : int; label : string; kind : Sched.Fault.kind }
  | Return of { tid : int; call : Spec.call; value : V.t; phase : event_phase }
  | Crash of { during_recovery : bool }
  | Solo_step of { phase : event_phase; label : string }

let phase_name = function Main -> "main" | Recovery -> "recovery" | Post -> "post"

let event_tid = function
  | Invoke { tid; _ } | Step { tid; _ } | Fault { tid; _ } | Return { tid; _ } -> Some tid
  | Crash _ | Solo_step _ -> None

let event_phase = function
  | Invoke _ | Step _ | Fault _ -> Main
  | Return { phase; _ } | Solo_step { phase; _ } -> phase
  | Crash { during_recovery } -> if during_recovery then Recovery else Main

let event_label = function
  | Invoke { call; _ } -> "invoke " ^ call.Spec.op
  | Step { label; _ } | Solo_step { label; _ } -> label
  (* a fault replaces the step's normal outcome: the lane shows the kind *)
  | Fault { kind; _ } -> "FAULT " ^ Sched.Fault.kind_name kind
  | Return { call; _ } -> "return " ^ call.Spec.op
  | Crash _ -> "CRASH"

let event_text = function
  | Invoke { tid; call } -> Fmt.str "t%d: invoke %a" tid Spec.pp_call call
  | Step { tid; label } -> Fmt.str "t%d: %s" tid label
  | Fault { tid; label; kind } -> Fmt.str "t%d: %s FAULT %s" tid label (Sched.Fault.kind_name kind)
  | Return { tid; call; value; phase } ->
    Fmt.str "%st%d: %a returns %a"
      (match phase with Post -> "post " | Main | Recovery -> "")
      tid Spec.pp_call call V.pp value
  | Crash { during_recovery } -> if during_recovery then "CRASH (during recovery)" else "CRASH"
  | Solo_step { phase; label } -> phase_name phase ^ ": " ^ label

type failure = { reason : string; events : event list }

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>refinement violated: %s@,trace:@,  @[<v>%a@]@]" f.reason
    (Fmt.list ~sep:Fmt.cut (Fmt.using event_text Fmt.string))
    f.events

(* Per-thread lanes: one column per thread id (in order of appearance),
   plus a rightmost lane for global events (crash, recovery, post steps). *)
let pp_failure_lanes ppf f =
  let tids =
    List.fold_left
      (fun acc e ->
        match event_tid e with
        | Some t when not (List.mem t acc) -> acc @ [ t ]
        | _ -> acc)
      [] f.events
  in
  let width = 26 in
  let n_lanes = List.length tids + 1 in
  let lane_of e =
    match event_tid e with
    | Some t ->
      let rec idx i = function
        | [] -> n_lanes - 1
        | t' :: _ when t' = t -> i
        | _ :: rest -> idx (i + 1) rest
      in
      idx 0 tids
    | None -> n_lanes - 1
  in
  let clip s = if String.length s > width - 2 then String.sub s 0 (width - 2) else s in
  Fmt.pf ppf "@[<v>refinement violated: %s@," f.reason;
  let header =
    List.map (fun t -> Printf.sprintf "t%d" t) tids @ [ "(crash/recovery/post)" ]
  in
  List.iteri
    (fun i h -> Fmt.pf ppf "%s%-*s" (if i = 0 then "  " else "| ") (width - 2) (clip h))
    header;
  Fmt.pf ppf "@,";
  List.iter
    (fun e ->
      let lane = lane_of e in
      for i = 0 to n_lanes - 1 do
        let cell = if i = lane then clip (event_label e) else "" in
        Fmt.pf ppf "%s%-*s" (if i = 0 then "  " else "| ") (width - 2) cell
      done;
      Fmt.pf ppf "@,")
    f.events;
  Fmt.pf ppf "@]"

(* Counterexample as a Chrome trace: one lane per thread, each event a
   1ms-wide box at its position in the interleaving; crashes are instants.
   Global (crash/recovery/post) events land on tid 1000. *)
let failure_chrome f =
  let events =
    List.mapi
      (fun i e ->
        {
          Obs.Trace.name = event_label e;
          cat = phase_name (event_phase e);
          ph =
            (match e with
            | Crash _ | Fault _ -> Obs.Trace.Instant
            | Invoke _ | Step _ | Return _ | Solo_step _ -> Obs.Trace.Complete 900.);
          ts = float_of_int (i * 1000);
          pid = 1;
          tid = Option.value (event_tid e) ~default:1000;
          args = [ ("text", Obs.Trace.S (event_text e)) ];
        })
      f.events
  in
  Obs.Trace.chrome_json events

type result =
  | Refinement_holds of stats
  | Refinement_violated of failure * stats
  | Budget_exhausted of stats

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

(* Registry handles are resolved once here; the hot exploration loop and
   the tracker only touch their instance's own [counters] array (the
   candidate-set-size histogram included, tallied per bucket), and the
   totals are added to the registry in one [snapshot] call per check —
   with no sink installed the per-step cost of observability is zero.
   Trace spans (phases) and instants (crash injections) are emitted live,
   gated on [Obs.Trace.enabled]. *)
module Mx = struct
  open Obs.Metrics

  let checks = counter "perennial_refinement_checks_total"
  let violations = counter "perennial_refinement_violations_total"

  let cand_sizes =
    histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]
      "perennial_refinement_candidate_set_size"

  let domains_g = gauge "perennial_refinement_domains"
  let work_items = counter "perennial_refinement_work_items_total"

  let steals = counter "perennial_refinement_steals_total"
  (** work items executed by a non-primary domain — timing-dependent, never
      part of deterministic {!stats} *)

  let memo_hits = counter "perennial_refinement_tracker_memo_hits_total"
  (** responses the tracker answered from its memo, added once per engine
      instance — they depend on the work partition, so like [steals] they
      are never part of deterministic {!stats} *)

  let check_seconds = histogram "perennial_refinement_check_seconds"
  let explore_us = gauge ~labels:[ ("phase", "explore") ] "perennial_refinement_phase_us"
end

(* The per-check counters, defined once.  Each row names the registry
   metric the counter feeds and how engine instances combine: [Sum] counts
   add, [Max] high-water marks take the max, [Time] accumulates a phase's
   wall time in nanoseconds, and [Tally] counts add like [Sum] but reach
   the registry through [snapshot]'s own code (the candidate-set-size
   histogram: one row per bucket plus one for the sum).  A [counters]
   value is one int per row, owned by one engine instance (the whole-run
   engine, the splitting phase, one parallel work item or walk) and never
   shared between domains — merged with [merge_into] and snapshotted into
   [stats] once per check.

   [fault_schedules] increments only on globally-fresh schedule keys (the
   shared seen-table in [run_instance]), so the sum over instances is the
   cardinality of the union — independent of how the work was
   partitioned. *)
module C = struct
  open Obs.Metrics

  type row = Sum of counter | Max of gauge | Time of gauge | Tally

  let rows = ref []

  let def row =
    rows := row :: !rows;
    List.length !rows - 1

  let executions = def (Sum (counter "perennial_refinement_executions_total"))
  let steps = def (Sum (counter "perennial_refinement_steps_total"))
  let crashes_injected = def (Sum (counter "perennial_refinement_crash_injections_total"))
  let vacuous = def (Sum (counter "perennial_refinement_vacuous_prunes_total"))
  let max_candidates = def (Max (gauge "perennial_refinement_max_candidates"))
  (* candidates the tracker derived, by closure or the crash transition,
     that were already in the set (see {!Tracker.counts}) *)
  let dedup_hits = def (Sum (counter "perennial_refinement_dedup_hits_total"))
  let frontier_hwm = def (Max (gauge "perennial_refinement_frontier_depth_hwm"))
  let commutations_pruned = def (Sum Explore.Mx.commutations)
  let sleep_skips = def (Sum Explore.Mx.sleep_skips)
  let crash_skips = def (Sum Explore.Mx.crash_skips)
  let faults_injected = def (Sum (counter "perennial_refinement_faults_injected_total"))
  let fault_schedules = def (Sum (counter "perennial_refinement_fault_schedules_total"))
  let retries_observed = def (Sum (counter "perennial_refinement_retries_observed_total"))
  let cache_hits = def (Sum (counter "perennial_refinement_cache_hits_total"))
  let fingerprint_hits = def (Sum (counter "perennial_refinement_fingerprint_hits_total"))
  let fingerprint_misses = def (Sum (counter "perennial_refinement_fingerprint_misses_total"))

  let recovery_ns =
    def (Time (gauge ~labels:[ ("phase", "recovery") ] "perennial_refinement_phase_us"))

  let post_ns = def (Time (gauge ~labels:[ ("phase", "post") ] "perennial_refinement_phase_us"))

  (* one observation per tracker call that produced a set *)
  let cand_size_buckets = Array.init (bucket_count Mx.cand_sizes) (fun _ -> def Tally)
  let cand_size_sum = def Tally
  let table = Array.of_list (List.rev !rows)
end

type counters = int array

let fresh_counters () : counters = Array.make (Array.length C.table) 0
let bump (ctr : counters) i = ctr.(i) <- ctr.(i) + 1

let merge_into (dst : counters) (src : counters) =
  Array.iteri
    (fun i row ->
      dst.(i) <-
        (match row with
        | C.Max _ -> max dst.(i) src.(i)
        | C.Sum _ | C.Time _ | C.Tally -> dst.(i) + src.(i)))
    C.table

let snapshot (ctr : counters) =
  Array.iteri
    (fun i row ->
      match row with
      | C.Sum m -> Obs.Metrics.inc ~by:ctr.(i) m
      | C.Max g -> Obs.Metrics.record_max g (float_of_int ctr.(i))
      | C.Time g -> Obs.Metrics.add g (float_of_int ctr.(i) /. 1000.)
      | C.Tally -> ())
    C.table;
  Obs.Metrics.add_counts Mx.cand_sizes
    (Array.map (fun i -> ctr.(i)) C.cand_size_buckets)
    ~sum:(float_of_int ctr.(C.cand_size_sum));
  {
    executions = ctr.(C.executions);
    steps = ctr.(C.steps);
    crashes_injected = ctr.(C.crashes_injected);
    vacuous = ctr.(C.vacuous);
    max_candidates = ctr.(C.max_candidates);
    dedup_hits = ctr.(C.dedup_hits);
    frontier_hwm = ctr.(C.frontier_hwm);
    commutations_pruned = ctr.(C.commutations_pruned);
    sleep_skips = ctr.(C.sleep_skips);
    crash_skips = ctr.(C.crash_skips);
    faults_injected = ctr.(C.faults_injected);
    fault_schedules = ctr.(C.fault_schedules);
    retries_observed = ctr.(C.retries_observed);
    cache_hits = ctr.(C.cache_hits);
    fingerprint_hits = ctr.(C.fingerprint_hits);
    fingerprint_misses = ctr.(C.fingerprint_misses);
  }

(* Time one top-level phase run, accumulating its wall time into counter
   [cell] of [ctr] and emitting a span when a trace sink is installed. *)
let timed_phase name (ctr : counters) cell f =
  let t0 = Obs.Trace.now_us () in
  let finally () =
    ctr.(cell) <- ctr.(cell) + int_of_float ((Obs.Trace.now_us () -. t0) *. 1000.)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"refinement" name (fun () -> Fun.protect ~finally f)
  else Fun.protect ~finally f

(* Run a whole check under a span, timing it into the metrics. *)
let timed_check name f =
  let t0 = Obs.Trace.now_us () in
  let finish r =
    let dt = Obs.Trace.now_us () -. t0 in
    Obs.Metrics.observe Mx.check_seconds (dt /. 1e6);
    Obs.Metrics.add Mx.explore_us dt;
    (match r with
    | Refinement_violated _ -> Obs.Metrics.inc Mx.violations
    | Refinement_holds _ | Budget_exhausted _ -> ());
    r
  in
  if Obs.Trace.enabled () then
    finish (Obs.Trace.with_span ~cat:"refinement" name f)
  else finish (f ())

exception Violation of failure
exception Budget

(* A running thread: its current operation, its program position, and the
   operations it has yet to invoke. *)
type 'w live = {
  tid : int;
  call : Spec.call;
  prog : ('w, V.t) Sched.Prog.t;
  rest : (Spec.call * ('w, V.t) Sched.Prog.t) list;
}

(* ------------------------------------------------------------------ *)
(* The exploration core                                                 *)
(* ------------------------------------------------------------------ *)

module E = Explore

(* Outcome of a single engine instance; Violation/Budget never escape an
   instance, so parallel work items and walks can report independently and
   the driver picks the deterministic winner. *)
type inst_outcome = I_ok | I_viol of failure | I_budget

(* Replay selection stops branch enumeration at the chosen index, so
   branches past it (whose [action w] phase 1 never evaluated before the
   point this work item was emitted) are not re-executed. *)
exception Break

(* [trace] is newest-first, as accumulated during exploration. *)
let fail trace fmt =
  Fmt.kstr (fun reason -> raise (Violation { reason; events = List.rev trace })) fmt

(* What an engine instance drives over the core.

   [Dfs] is the exhaustive checker, in one of three modes:
   - whole run ([cutoff = max_int], no [emit], empty [replay]): the
     sequential checker;
   - splitting phase ([emit = Some f]): explores (and fully accounts) the
     region above [cutoff]; on reaching a node at depth >= [cutoff] it
     emits the path of branch indices leading there as a work item and
     backs off — the node itself is untouched;
   - work item ([replay = path]): replays the recorded branch choices from
     the root without counting anything (phase 1 owns those stats), then
     explores the subtree below the cutoff node live.
   Branch indices number, per node, the alternatives of each enabled
   thread step in thread order: each normal outcome, then each fault
   branch.  Crash branches are never indexed — they hang off a node and
   are wholly explored by whichever instance visits that node live.  The
   decomposition [phase-1 work + each item at its emission point] is
   exactly the sequential DFS, so merged stats and the first
   counterexample are independent of the domain count.

   [Walks] runs walks [first..last] of a [schedules]-walk random check in
   order, stopping at the first failure; walk [i] draws every choice from
   its own RNG seeded by [(seed, i)]. *)
type driver =
  | Dfs of {
      strategy : E.strategy;
      cutoff : int;
      emit : (int list -> unit) option;
      replay : int list;
      fp : bool;
    }
  | Walks of { seed : int; crash_prob : float; first : int; last : int; schedules : int }

(* One engine instance: the exploration core — settle, the enabled steps
   of a node, taking one alternative of a step, crash → recovery (with
   nested crashes) → post — and the driver that walks it.  Each choice
   point is resolved by the driver's chooser: the DFS explores every
   alternative, a walk draws one. *)
let run_instance (type w s) (cfg : (w, s) config) ~driver ~fault_budget ~deadline ~step_base
    ~sched_seen ~sched_lock ~(ctr : counters) : inst_outcome =
  let spec = cfg.spec in
  (* [counting] gates the tracker's counts and coverage: during work-item
     replay it recomputes candidate sets without re-counting what the
     splitting phase already counted. *)
  let counting = ref true in
  let tk =
    Tracker.create spec ~live:counting ~count:(fun (c : Tracker.counts) ->
        ctr.(C.dedup_hits) <- ctr.(C.dedup_hits) + c.dedup_hits;
        if c.max_size > ctr.(C.max_candidates) then ctr.(C.max_candidates) <- c.max_size;
        match c.produced with
        | None -> ()
        | Some n ->
          bump ctr C.cand_size_buckets.(Obs.Metrics.bucket_of Mx.cand_sizes (float_of_int n));
          ctr.(C.cand_size_sum) <- ctr.(C.cand_size_sum) + n)
  in
  let respond tid v trace cands =
    try Tracker.respond tk tid v cands
    with Tracker.Unexplained ->
      fail trace "no linearization explains thread %d returning %a" tid V.pp v
  in
  let crash_cands trace cands =
    try Tracker.crash tk cands
    with Tracker.Unexplained -> fail trace "spec crash transition unsatisfiable"
  in
  let next_tid = ref 0 in
  let fresh_tid () =
    let t = !next_tid in
    incr next_tid;
    t
  in
  (* Thread ids must be a function of the path, not of how many sibling
     paths the DFS visited first: each exploration subtree restores the
     tid counter on exit, so the rendered counterexample for a given path
     is identical whichever strategy (or sibling order) found it. *)
  let scoped_tids f =
    let saved = !next_tid in
    Fun.protect ~finally:(fun () -> next_tid := saved) f
  in

  (* Choice points.  The DFS resolves each one exhaustively: every
     alternative in turn, a crash before the step it preempts.  A walk
     draws one alternative from its RNG — an index over the alternatives
     (even a single one, so every walk consumes its RNG the same way), or
     a coin of bias [crash_prob] for a crash. *)
  let rng = ref (Random.State.make [||]) in
  let draw n = Random.State.int !rng n in
  let coin crash_prob = Random.State.float !rng 1.0 < crash_prob in
  let each xs f =
    match driver with
    | Dfs _ -> List.iter f xs
    | Walks _ -> f (List.nth xs (draw (List.length xs)))
  in
  let crash_or ~crash k =
    match driver with
    | Dfs _ ->
      crash ();
      k ()
    | Walks { crash_prob; _ } -> if coin crash_prob then crash () else k ()
  in

  (* Coverage sites (DESIGN.md S20).  A crash site is named by the newest
     trace event at the injection point ([<phase>:<label>], or ["init"]
     before any event) — a function of the path, never of exploration
     order.  A fault site is [<step label>:<fault kind>].  Sites register
     where the checker *could* branch and record a hit where it *does*;
     a pruned crash branch registers without hitting, so reduced
     strategies report exactly which crash points they relied on pruning
     for. *)
  let crash_site = function
    | [] -> "init"
    | e :: _ -> phase_name (event_phase e) ^ ":" ^ event_label e
  in
  let cov_crash_skip trace =
    if Obs.Coverage.enabled () then
      Obs.Coverage.register Obs.Coverage.Crash (crash_site trace);
    if E.Prov.enabled () then E.Prov.record E.Prov.Clean_crash ~site:(crash_site trace) ()
  in
  let fault_site label kind = label ^ ":" ^ Sched.Fault.kind_name kind in
  let cov_fault_sites label faults =
    if Obs.Coverage.enabled () then
      List.iter
        (fun (kind, _) -> Obs.Coverage.register Obs.Coverage.Fault (fault_site label kind))
        faults
  in
  let cov_fault_hit label kind =
    if Obs.Coverage.enabled () then
      Obs.Coverage.hit Obs.Coverage.Fault (fault_site label kind)
  in

  (* Process all finished threads' responses eagerly, invoking each thread's
     next operation as the previous one completes.  Span marks are stripped
     here: the checker explores each step along many branches, so per-branch
     span events would be meaningless — marks only matter to the runner. *)
  let rec settle lives cands trace =
    let lives =
      List.map (fun l -> { l with prog = Sched.Prog.strip_marks l.prog }) lives
    in
    let rec find acc = function
      | [] -> None
      | ({ prog = Sched.Prog.Done v; _ } as l) :: rest -> Some (List.rev_append acc rest, l, v)
      | l :: rest -> find (l :: acc) rest
    in
    match find [] lives with
    | None -> (lives, cands, trace)
    | Some (others, l, v) ->
      let trace = Return { tid = l.tid; call = l.call; value = v; phase = Main } :: trace in
      let cands = respond l.tid v trace cands in
      (match l.rest with
      | [] -> settle others cands trace
      | (call', prog') :: rest' ->
        let tid = fresh_tid () in
        let live' = { tid; call = call'; prog = prog'; rest = rest' } in
        let trace = Invoke { tid; call = call' } :: trace in
        settle (live' :: others) (Tracker.add_pending tk tid call' cands) trace)
  in
  let initial () =
    let lives, cands =
      List.fold_left
        (fun (lives, cands) ops ->
          match ops with
          | [] -> (lives, cands)
          | (call, prog) :: rest ->
            let tid = fresh_tid () in
            ({ tid; call; prog; rest } :: lives, Tracker.add_pending tk tid call cands))
        ([], Tracker.initial tk)
        cfg.threads
    in
    (List.rev lives, cands)
  in

  (* The step budget is shared between the splitting phase and each work
     item ([step_base] carries phase 1's spend into the items), so a
     parallel run's per-item budget matches what the item's subtree would
     have had left sequentially at its emission point. *)
  let bump_steps () =
    bump ctr C.steps;
    let n = ctr.(C.steps) in
    if step_base + n > cfg.step_budget then raise Budget;
    if Obs.Progress.enabled () && n land 4095 = 0 then
      Obs.Progress.tick ~executions:ctr.(C.executions) ~steps:(step_base + n)
        ~frontier:ctr.(C.frontier_hwm) ~fault_schedule:ctr.(C.fault_schedules)
        ?deadline_us:deadline ();
    (* The wall clock is polled once per 1024 steps: cheap enough to leave
       on, coarse enough that a check never overshoots by much. *)
    match deadline with
    | Some t when n land 1023 = 0 && Obs.Trace.now_us () > t -> raise Budget
    | Some _ | None -> ()
  in

  (* Fault bookkeeping.  [fpath] is the fault schedule of the current
     path, newest injection first, as (site, kind): fault-eligible steps
     are numbered 0, 1, … per path in commit order, mirroring the runner's
     oracle.  Distinct non-empty schedules across completed executions
     feed the [fault_schedules] stat; the seen-table is shared across the
     check's instances (mutex-guarded), so the count is the cardinality of
     the union however the work was partitioned. *)
  let fpath = ref [] in
  let in_fault_branch ~live site kind f =
    if live then begin
      bump ctr C.faults_injected;
      Obs.Trace.instant ~cat:"fault" "fault_injection"
    end;
    fpath := (site, kind) :: !fpath;
    Fun.protect ~finally:(fun () -> fpath := List.tl !fpath) f
  in
  let record_execution () =
    bump ctr C.executions;
    match !fpath with
    | [] -> ()
    | path ->
      let key =
        String.concat ";"
          (List.rev_map
             (fun (site, kind) ->
               Printf.sprintf "%d:%s" site (Sched.Fault.kind_name kind))
             path)
      in
      Mutex.lock sched_lock;
      if not (Hashtbl.mem sched_seen key) then begin
        Hashtbl.add sched_seen key ();
        bump ctr C.fault_schedules
      end;
      Mutex.unlock sched_lock
  in
  (* Retry loops and reply caches announce themselves by their step labels
     (see {!Sched.Retry}); counting committed steps so labelled gives the
     [retries_observed] and [cache_hits] stats. *)
  let note_label label =
    if String.starts_with ~prefix:Sched.Retry.retry_prefix label then
      bump ctr C.retries_observed
    else if String.starts_with ~prefix:Sched.Retry.cache_hit_prefix label then
      bump ctr C.cache_hits
  in

  (* A path that reaches spec-level undefined behaviour is vacuously
     correct: the spec constrains nothing for such clients (§8.3). *)
  let vacuous_ok f = try f () with Tracker.Vacuous -> bump ctr C.vacuous in
  let deadlock trace lives =
    if cfg.fail_on_deadlock then
      fail trace "deadlock: threads %s all blocked"
        (String.concat "," (List.map (fun l -> string_of_int l.tid) lives))
  in

  (* One step [nx] of a program running alone — recovery or a post probe:
     [k] continues from each outcome the chooser resolves.  Running alone,
     blocking is a violation. *)
  let solo who phase trace nx k =
    bump_steps ();
    match nx with
    | Sched.Prog.Enabled s ->
      let ev = Solo_step { phase; label = Sched.Prog.Step.label s } in
      each (Sched.Prog.Step.outcomes s) (fun (w', prog') -> k w' prog' (ev :: trace))
    | Sched.Prog.Blocked label -> fail trace "%s blocked at %s" who label
    | Sched.Prog.Undefined { label; reason } ->
      fail trace "%s hit undefined behaviour at %s: %s" who label reason
    | Sched.Prog.Finished _ -> assert false (* the caller finishes *)
  in

  (* Run the post-phase probe operations one after another, then count one
     finished execution.  A walk's counterexample keeps only the failing
     probe's steps: there each probe starts again from the trace the post
     phase began with, as walks have always rendered it. *)
  let post w cands base =
    let rec probes w cands trace = function
      | [] -> record_execution ()
      | (call, prog) :: rest ->
        scoped_tids @@ fun () ->
        let tid = fresh_tid () in
        let cands = Tracker.add_pending tk tid call cands in
        let rec go w prog trace =
          match Sched.Prog.next w prog with
          | Sched.Prog.Finished v ->
            let trace = Return { tid; call; value = v; phase = Post } :: trace in
            let next = match driver with Dfs _ -> trace | Walks _ -> base in
            vacuous_ok (fun () -> probes w (respond tid v trace cands) next rest)
          | nx -> solo "post op" Post trace nx go
        in
        go w prog trace
    in
    probes w cands base cfg.post
  in
  let timed_post w cands trace = timed_phase "post" ctr C.post_ns (fun () -> post w cands trace) in

  let inject_crash trace =
    bump ctr C.crashes_injected;
    Obs.Trace.instant ~cat:"crash" "crash_injection";
    if Obs.Coverage.enabled () then Obs.Coverage.hit Obs.Coverage.Crash (crash_site trace)
  in
  (* Recovery runs single-threaded after a crash and may itself crash at any
     point while the crash budget lasts, restarting from the top
     (idempotence, §5.5).  When it completes, the spec takes one atomic
     crash transition — operations still in flight are dropped, those that
     linearized keep their effect — and the post probes run. *)
  let rec recover w cands crashes trace =
    scoped_tids @@ fun () ->
    let rec go w prog trace =
      let step () =
        match Sched.Prog.next w prog with
        | Sched.Prog.Finished _ -> post w (crash_cands trace cands) trace
        | nx -> solo "recovery" Recovery trace nx go
      in
      if crashes >= cfg.max_crashes then step ()
      else
        crash_or step ~crash:(fun () ->
            inject_crash trace;
            recover (cfg.crash_world w) cands (crashes + 1)
              (Crash { during_recovery = true } :: trace))
    in
    go w cfg.recovery trace
  in
  (* A crash in the main phase.  Recovery starts with this crash counted
     against the budget — except on a walk, whose recovery has always had
     the full budget to itself; keeping that keeps every (seed, schedule)
     naming the same walk. *)
  let crash_main w cands crashes trace =
    inject_crash trace;
    vacuous_ok (fun () ->
        let cands = Tracker.saturate tk cands in
        let crashes = match driver with Dfs _ -> crashes + 1 | Walks _ -> crashes in
        timed_phase "recovery" ctr C.recovery_ns (fun () ->
            recover (cfg.crash_world w) cands crashes (Crash { during_recovery = false } :: trace)))
  in

  (* A live thread's next step as the drivers see it, or [None] while it
     is blocked.  Its declared faults are always evaluated by the DFS —
     they number the fault sites that fingerprints and fault schedules key
     on — but by a walk only while the path's fault budget lasts.  The
     footprint and the response scan feed DPOR only. *)
  let probe ~live ~por w trace fused l =
    match Sched.Prog.next w l.prog with
    | Sched.Prog.Finished _ -> assert false (* settled above *)
    | Sched.Prog.Blocked _ -> None
    | Sched.Prog.Undefined { label; reason } ->
      fail trace "thread %d hit undefined behaviour at %s: %s" l.tid label reason
    | Sched.Prog.Enabled s ->
      let label = Sched.Prog.Step.label s and outcomes = Sched.Prog.Step.outcomes s in
      let declared =
        match driver with
        | Walks _ when fused >= fault_budget -> []
        | Dfs _ | Walks _ -> Sched.Prog.Step.faults s
      in
      if live then cov_fault_sites label declared;
      let faults = if fused < fault_budget then declared else [] in
      let fp = if por then Sched.Prog.Step.footprint s else Sched.Footprint.Unknown in
      Some
        { E.si_tid = l.tid; si_label = label; si_fp = fp;
          (* a step whose fault branches will be explored is globally
             dependent: faulted and normal outcomes may diverge
             arbitrarily, so it is never reordered.  A step that may
             complete its operation is crash-relevant, ordered only
             against other crash-relevant steps and conflicting
             footprints (see {!Explore.dependent}). *)
          si_visible = faults <> [];
          si_responds =
            por
            && List.exists
                 (fun (_, p) ->
                   match Sched.Prog.strip_marks p with Sched.Prog.Done _ -> true | _ -> false)
                 outcomes;
          si_branches = outcomes;
          si_faults = faults;
          si_fault_site = declared <> [] }
  in
  (* A blocked thread's next step, for DPOR race detection only: its label
     and its footprint in [w], read off the [Atomic] that
     {!Sched.Prog.next} reported blocked (settle stripped its marks).  It
     has no outcomes to take here, and whether it will complete its
     operation or declare faults is known only in the world that enables
     it — so it counts as responding, and as faulted while the path's
     fault budget lasts: dependence must hold for the step as it will run. *)
  let blocked_step w fused l =
    match l.prog with
    | Sched.Prog.Atomic { label; fp; _ } ->
      { E.si_tid = l.tid; si_label = label; si_fp = fp w; si_visible = fused < fault_budget;
        si_responds = true; si_branches = []; si_faults = []; si_fault_site = false }
    | Sched.Prog.Done _ | Sched.Prog.Mark _ -> assert false (* settled above *)
  in
  (* Take one alternative of thread step [si] — a normal outcome, or the
     fault [kind]; [k] continues in the resulting world, threads, trace and
     fault count.  Every driver orders a step's alternatives the same way:
     each normal outcome, then each fault the budget allows — after the
     normal outcomes, so the first counterexample found is
     path-deterministic. *)
  let take ~live lives trace fused fsite si kind (w', prog') k =
    let lives =
      List.map (fun l -> if l.tid = si.E.si_tid then { l with prog = prog' } else l) lives
    in
    match kind with
    | None -> k w' lives (Step { tid = si.si_tid; label = si.si_label } :: trace) fused
    | Some kind ->
      if live then cov_fault_hit si.si_label kind;
      in_fault_branch ~live fsite kind (fun () ->
          k w' lives (Fault { tid = si.si_tid; label = si.si_label; kind } :: trace) (fused + 1))
  in

  (* ---- Exhaustive DFS.  One node routine serves every strategy: under
     [Naive] every node is conservative — all enabled steps, no sleep set,
     no race detection, every crash branch — and only naive prunes by
     fingerprint.  [depth] is the schedule depth (a high-water mark stat);
     [fsite] numbers the fault-eligible steps committed on the path;
     [rpath] is the reversed branch-index path (kept only when emitting
     work items).

     Partial-order reduction is Flanagan–Godefroid DPOR over thread steps
     with sleep sets, plus crash-point pruning.  Soundness rests on
     these rules (cross-validated against [Naive] by the verdict and
     outcome-set differentials in test/test_explore.ml):
     - a crash branch is skipped only at "clean" nodes — the step into the
       node wrote no durable state ([dirty] from its footprint) and settling
       observed no response/invocation (trace unchanged) — so crashing here
       reaches exactly the recovery state and candidate set already explored
       at the nearest dirty ancestor;
     - dependence is crash-aware ({!Explore.dependent}): a step with fault
       branches to explore is globally dependent; otherwise two steps are
       dependent when their footprints conflict ([Unknown] conflicts with
       everything) or both are crash-relevant — each writes durable state
       or may complete its operation.  Crash-relevant steps keep their
       relative order in every interleaving of a class, and a crash state
       (crashed world, saturated candidates) is a function of exactly those
       steps: every other step writes only volatile state, which
       [crash_world] discards, and emits no tracker event.  So every crash
       state naive reaches is reached at a dirty node of some explored
       path, and a response swapped with a footprint-disjoint
       non-responding step leaves the tracker's invoke/respond sequence
       unchanged;
     - race detection covers blocked threads' next steps as well as
       enabled ones (their footprints in the node's world), so a dependent
       step inside a lock holder's critical section cannot hide the race
       between the holder's acquire and a waiter's.  A blocked step counts
       as responding, and as faulted while fault budget remains
       ([blocked_step]): what it does is known only once it is enabled;
     - unannotated steps ([Unknown] footprint) degrade to naive
       exploration around them.
     Parallel mode adds a fourth, also conservative, rule: every node above
     the split cutoff explores ALL enabled steps (full backtrack set, no
     sleep) — so no deep race ever needs to add a backtrack point to a
     shallow node owned by another instance (the add would be a no-op
     anyway).  The shallow region loses some reduction; the subtrees keep
     full DPOR.  Within parallel mode the exploration is a fixed function
     of the constant [split_depth], hence identical for every domain
     count. *)
  let dfs ~strategy ~cutoff ~emit ~replay ~fp =
    let replay = ref replay in
    let emitting = emit <> None in
    let por = strategy <> E.Naive in
    let fp_seen : (string, unit) Hashtbl.t = Hashtbl.create (if fp then 4096 else 1) in
    let vstr v = Fmt.str "%a" V.pp v in
    (* A thread's continuation identity: MD5 over the structural
       serialization of (current call, program position, remaining ops),
       with [Closures] so the program's continuation closures — code pointer
       plus captured environment — serialize too.  Equal keys mean
       structurally identical continuations, hence identical future
       behaviour; distinct keys for behaviourally equal threads only cost
       pruning, never soundness.  Code pointers are stable within a process
       (and across its domains), and a key never outlives the check that
       rendered it. *)
    let thread_key l =
      Digest.to_hex
        (Digest.string (Marshal.to_string (l.call, l.prog, l.rest) [ Marshal.Closures ]))
    in
    (* Fingerprint pruning (DESIGN.md S21): at a settled node, key
       everything the subtree is a function of; if this instance has
       explored an equal key before, the whole subtree (crash branch
       included) is redundant.  Naive strategy only — under DPOR the
       backtrack sets of the pruned path's nodes would be lost. *)
    let fp_prune w lives cands crashes fused fsite =
      fp
      &&
        let st =
          {
            Fingerprint.f_world = Fmt.str "%a" cfg.pp_world w;
            f_cands =
              List.map
                (fun (st, pend) ->
                  {
                    Fingerprint.f_state = Fmt.str "%a" spec.Spec.pp_state st;
                    f_pend =
                      List.map
                        (fun (ptid, pcall, result) ->
                          {
                            Fingerprint.f_ptid = ptid;
                            f_op = pcall.Spec.op;
                            f_args = List.map vstr pcall.Spec.args;
                            f_result = Option.map vstr result;
                          })
                        pend;
                  })
                (Tracker.candidates cands);
            f_crashes = crashes;
            f_fused = fused;
            f_fsite = fsite;
            f_threads =
              List.map
                (fun l -> { Fingerprint.f_tid = l.tid; f_class = thread_key l })
                (List.sort (fun a b -> Int.compare a.tid b.tid) lives);
          }
        in
        let key = Fingerprint.key st in
        if Hashtbl.mem fp_seen key then begin
          bump ctr C.fingerprint_hits;
          true
        end
        else begin
          Hashtbl.add fp_seen key ();
          bump ctr C.fingerprint_misses;
          false
        end
    in
    let rec go w lives cands crashes trace depth fused fsite rpath ~dirty ~stack ~sleep =
      scoped_tids @@ fun () ->
      (* the next replayed branch index, if any; [None]: explore live *)
      let sel =
        match !replay with
        | [] -> None
        | i :: rest ->
          replay := rest;
          Some i
      in
      let live = sel = None in
      match emit with
      | Some e when live && depth >= cutoff -> e (List.rev rpath)
      | _ ->
        counting := live;
        if live && depth > ctr.(C.frontier_hwm) then ctr.(C.frontier_hwm) <- depth;
        (match settle lives cands trace with
        | exception Tracker.Vacuous -> if live then bump ctr C.vacuous
        | lives, cands, trace' ->
          counting := true;
          let dirty = dirty || trace' != trace in
          let trace = trace' in
          if live && fp_prune w lives cands crashes fused fsite then ()
          else begin
            (* crash branch: a crash may strike at any point, including
               after all operations completed (durability of acknowledged
               writes).  Never replayed: the instance that visits this node
               live owns it. *)
            if live && crashes < cfg.max_crashes then begin
              if dirty then crash_main w cands crashes trace
              else begin
                bump ctr C.crash_skips;
                cov_crash_skip trace
              end
            end;
            if lives = [] then (if live then timed_post w cands trace)
            else begin
              (* Every alternative of [si] by branch index — or, replaying,
                 only the selected one. *)
              let brc = ref 0 in
              let explore si ~stack ~sleep =
                if live then begin
                  bump_steps ();
                  note_label si.E.si_label
                end;
                let fsite' = if si.si_fault_site then fsite + 1 else fsite in
                let branch kind o =
                  let idx = !brc in
                  incr brc;
                  let child rpath =
                    take ~live lives trace fused fsite si kind o (fun w lives trace fused' ->
                        (* a fault child is always crash-dirty: a torn write
                           persists a durable prefix *)
                        go w lives cands crashes trace (depth + 1) fused' fsite' rpath
                          ~dirty:(fused' > fused || Sched.Footprint.writes_durable si.si_fp)
                          ~stack ~sleep)
                  in
                  match sel with
                  | None -> child (if emitting then idx :: rpath else rpath)
                  | Some s when s = idx ->
                    child rpath;
                    raise Break
                  | Some _ -> ()
                in
                List.iter (branch None) si.si_branches;
                List.iter (fun (kind, o) -> branch (Some kind) o) si.si_faults
              in
              if not por then begin
                (* naive: each thread is probed only after the subtrees of
                   the threads before it are explored *)
                let rec threads ran = function
                  | [] -> if live && not ran then deadlock trace lives
                  | l :: rest ->
                    (match probe ~live ~por w trace fused l with
                    | None -> threads ran rest
                    | Some si ->
                      explore si ~stack ~sleep:[];
                      threads true rest)
                in
                try threads false lives with Break -> ()
              end
              else
                match List.filter_map (probe ~live ~por w trace fused) lives with
                | [] -> if live then deadlock trace lives
                | infos ->
                  (* conservative node: a shallow node in parallel mode
                     (splitting live, or mirrored during item replay with
                     the node on the stack, so deep race detection sees the
                     same frames — its backtrack adds are no-ops here) *)
                  let conservative = emitting || not live in
                  let node = E.node ~sleep:(if conservative then [] else sleep) infos in
                  if conservative then
                    node.E.n_backtrack <- List.map (fun si -> si.E.si_tid) infos
                  else begin
                    (* blocked threads' next steps race too; the list is
                       built only when some thread is blocked *)
                    let blocked =
                      if List.compare_lengths infos lives = 0 then []
                      else
                        List.filter_map
                          (fun l ->
                            if E.enabled_at node l.tid then None
                            else Some (blocked_step w fused l))
                          lives
                    in
                    E.detect_races ~blocked stack node
                  end;
                  let explored = ref 0 and slept = ref 0 in
                  let first_explored = ref None in
                  let z = ref sleep in
                  let rec drive () =
                    match E.next_candidate node with
                    | None -> ()
                    | Some si ->
                      node.E.n_done <- si.E.si_tid :: node.E.n_done;
                      if (not conservative) && List.mem si.E.si_tid !z then begin
                        incr slept;
                        bump ctr C.sleep_skips;
                        if E.Prov.enabled () then
                          E.Prov.record E.Prov.Sleep ~site:si.E.si_label
                            ?witness:!first_explored ()
                      end
                      else begin
                        incr explored;
                        if !first_explored = None then first_explored := Some si.E.si_label;
                        let child_sleep =
                          if conservative then []
                          else
                            List.filter
                              (fun tid ->
                                match
                                  List.find_opt (fun q -> q.E.si_tid = tid) node.E.n_enabled
                                with
                                | Some q -> not (E.dependent q si)
                                | None -> false (* blocked or finished: wake it *))
                              !z
                        in
                        explore si
                          ~stack:({ E.f_node = node; f_step = si } :: stack)
                          ~sleep:child_sleep;
                        if not conservative then z := si.E.si_tid :: !z
                      end;
                      drive ()
                  in
                  (try drive () with Break -> ());
                  let pruned = List.length infos - !explored - !slept in
                  if pruned > 0 && not conservative then begin
                    ctr.(C.commutations_pruned) <- ctr.(C.commutations_pruned) + pruned;
                    if E.Prov.enabled () then
                      List.iter
                        (fun si ->
                          if not (List.mem si.E.si_tid node.E.n_done) then
                            E.Prov.record E.Prov.Commutation ~site:si.E.si_label
                              ?witness:!first_explored ())
                        infos
                  end
            end
          end)
    in
    counting := !replay = [];
    let lives, cands = initial () in
    (* [dirty = true] at the root: the crash before any step is always
       explored. *)
    go cfg.init_world lives cands 0 [] 0 0 0 [] ~dirty:true ~stack:[] ~sleep:[]
  in

  (* ---- Random walks.  Each node draws: a crash coin (while the crash
     budget lasts), then a thread among the enabled ones, then one of its
     alternatives — a normal outcome or, while the path's fault budget
     lasts, a declared fault.  A walk whose threads are all blocked crashes
     if it still may, and is a deadlock otherwise. *)
  let walks ~seed ~crash_prob ~first ~last ~schedules =
    let rec node w lives cands crashes trace depth fused fsite =
      if depth > ctr.(C.frontier_hwm) then ctr.(C.frontier_hwm) <- depth;
      let lives, cands, trace = settle lives cands trace in
      if crashes < cfg.max_crashes && coin crash_prob then crash_main w cands crashes trace
      else if lives = [] then timed_post w cands trace
      else
        match List.filter_map (probe ~live:true ~por:false w trace fused) lives with
        | [] ->
          if crashes < cfg.max_crashes then crash_main w cands crashes trace
          else deadlock trace lives
        | enabled ->
          bump_steps ();
          let si = List.nth enabled (draw (List.length enabled)) in
          note_label si.E.si_label;
          let n = List.length si.si_branches in
          let i = draw (n + List.length si.si_faults) in
          let kind, o =
            if i < n then (None, List.nth si.si_branches i)
            else
              let kind, o = List.nth si.si_faults (i - n) in
              (Some kind, o)
          in
          let fsite' = if si.si_fault_site then fsite + 1 else fsite in
          take ~live:true lives trace fused fsite si kind o (fun w lives trace fused ->
              node w lives cands crashes trace (depth + 1) fused fsite')
    in
    for i = first to last do
      rng := Random.State.make [| seed; i |];
      next_tid := 0;
      try
        let lives, cands = initial () in
        node cfg.init_world lives cands 0 [] 0 0 0
      with
      | Tracker.Vacuous -> bump ctr C.vacuous
      | Violation f ->
        raise
          (Violation
             { f with reason = Fmt.str "[seed=%d schedule=%d/%d] %s" seed i schedules f.reason })
    done
  in
  let outcome =
    match
      match driver with
      | Dfs { strategy; cutoff; emit; replay; fp } -> dfs ~strategy ~cutoff ~emit ~replay ~fp
      | Walks { seed; crash_prob; first; last; schedules } ->
        walks ~seed ~crash_prob ~first ~last ~schedules
    with
    | () -> I_ok
    | exception Violation f -> I_viol f
    | exception Budget -> I_budget
  in
  Obs.Metrics.inc ~by:(Tracker.memo_hits tk) Mx.memo_hits;
  outcome

(* ------------------------------------------------------------------ *)
(* Drivers                                                              *)
(* ------------------------------------------------------------------ *)

let result_of stats = function
  | I_ok -> Refinement_holds stats
  | I_viol f -> Refinement_violated (f, stats)
  | I_budget -> Budget_exhausted stats

let deadline_of max_seconds = Option.map (fun s -> Obs.Trace.now_us () +. (s *. 1e6)) max_seconds

(* Run jobs [0 .. n_items - 1] on up to [domains] domains, each with its
   own counters, merged into [into].  Every job runs to completion even
   after another fails — early cancellation would make the merged stats
   depend on timing — and the outcome reported is the lowest-index job that
   did not hold, never the first to finish. *)
let pool ~domains ~into n_items job =
  let ctrs = Array.init n_items (fun _ -> fresh_counters ()) in
  let results = Array.make n_items I_ok in
  let next = Atomic.make 0 in
  let rec worker primary () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n_items then begin
      if not primary then Obs.Metrics.inc Mx.steals;
      results.(i) <- job i ctrs.(i);
      worker primary ()
    end
  in
  let doms =
    List.init (min domains (max 1 n_items) - 1) (fun _ -> Domain.spawn (worker false))
  in
  worker true ();
  List.iter Domain.join doms;
  Array.iter (merge_into into) ctrs;
  Array.find_opt (function I_ok -> false | I_viol _ | I_budget -> true) results

(* Depth of the sequential splitting phase of a parallel check: every
   subtree rooted at this depth is one work item. *)
let split_depth = 2

let check (type w s) ?(strategy = Explore.Naive) ?faults ?max_seconds ?domains
    ?(fingerprint = false) (cfg : (w, s) config) : result =
  if fingerprint && strategy <> Explore.Naive then
    invalid_arg
      "Refinement.check: ~fingerprint requires the Naive strategy (global state \
       caching breaks DPOR backtrack-set computation; see DESIGN.md S21)";
  (match domains with
  | Some n when n < 1 -> invalid_arg "Refinement.check: domains must be >= 1"
  | _ -> ());
  Obs.Metrics.inc Mx.checks;
  let fault_budget =
    match faults with Some n -> max 0 n | None -> cfg.fault_budget
  in
  let deadline =
    deadline_of (match max_seconds with Some _ -> max_seconds | None -> cfg.max_seconds)
  in
  let sched_seen = Hashtbl.create 16 and sched_lock = Mutex.create () in
  let run ?(cutoff = max_int) ?emit ?(replay = []) ~step_base ctr =
    run_instance cfg ~driver:(Dfs { strategy; cutoff; emit; replay; fp = fingerprint }) ~fault_budget
      ~deadline ~step_base ~sched_seen ~sched_lock ~ctr
  in
  let t0 = Obs.Trace.now_us () in
  let r =
    timed_check "refinement.check" (fun () ->
        let ctr = fresh_counters () in
        match domains with
        | None ->
          let o = run ~step_base:0 ctr in
          result_of (snapshot ctr) o
        | Some n ->
          Obs.Metrics.set Mx.domains_g (float_of_int n);
          (* Phase 1: sequential split.  Everything above [split_depth] is
             explored (and counted) here; each subtree root at the cutoff
             becomes a work item, in DFS order. *)
          let items = ref [] in
          (match
             run ~cutoff:split_depth ~emit:(fun path -> items := path :: !items) ~step_base:0 ctr
           with
          | I_budget ->
            (* The split phase itself blew the budget; items would only
               re-spend it. *)
            Budget_exhausted (snapshot ctr)
          | o1 ->
            let items = Array.of_list (List.rev !items) in
            Obs.Metrics.inc ~by:(Array.length items) Mx.work_items;
            let step_base = ctr.(C.steps) in
            let first =
              pool ~domains:n ~into:ctr (Array.length items) (fun i c ->
                  run ~replay:items.(i) ~step_base c)
            in
            (* First counterexample wins, in sequential DFS order: every
               emitted item precedes the splitting phase's own outcome
               (emission stops at its raise). *)
            result_of (snapshot ctr) (Option.value first ~default:o1)))
  in
  Obs.Metrics.add (Explore.strategy_us strategy) (Obs.Trace.now_us () -. t0);
  r

let check_exn ?strategy ?faults ?max_seconds ?domains ?fingerprint cfg =
  let t0 = Obs.Trace.now_us () in
  match check ?strategy ?faults ?max_seconds ?domains ?fingerprint cfg with
  | Refinement_holds stats -> stats
  | Refinement_violated (f, stats) ->
    failwith (Fmt.str "@[<v>Refinement_violated: %a@,stats: %a@]" pp_failure f pp_stats stats)
  | Budget_exhausted stats ->
    let elapsed_s = (Obs.Trace.now_us () -. t0) /. 1e6 in
    let max_s =
      match (match max_seconds with Some _ as s -> s | None -> cfg.max_seconds) with
      | Some s -> Fmt.str "%g" s
      | None -> "none"
    in
    failwith
      (Fmt.str
         "Budget_exhausted: step or wall-clock budget exceeded before the state space was covered after %.2fs (max_seconds=%s, step_budget=%d) (stats: %a)"
         elapsed_s max_s cfg.step_budget pp_stats stats)

(* Random walks through the schedule/outcome/crash/fault space, over the
   same core as the exhaustive checker.  Every walk draws from its own RNG,
   seeded by [(seed, index)]: a failure tagged [seed=S schedule=I/N]
   replays from those numbers alone (see {!check_random_replay}).  That
   per-walk isolation is also what makes [?domains] sound: walks share no
   RNG, tid counter, or tracker state, so they can run on any domain in any
   order and still produce the walk the seed names. *)
let check_random_walks ~schedules ~first ~last ~seed ~crash_prob ?domains cfg =
  Obs.Metrics.inc Mx.checks;
  (match domains with
  | Some n when n < 1 -> invalid_arg "Refinement.check_random: domains must be >= 1"
  | _ -> ());
  let deadline = deadline_of cfg.max_seconds in
  let sched_seen = Hashtbl.create 16 and sched_lock = Mutex.create () in
  let run first last ctr =
    run_instance cfg ~driver:(Walks { seed; crash_prob; first; last; schedules })
      ~fault_budget:cfg.fault_budget ~deadline ~step_base:0 ~sched_seen ~sched_lock ~ctr
  in
  timed_check "refinement.check_random" (fun () ->
      let ctr = fresh_counters () in
      match domains with
      | None ->
        (* Sequential: shared counters, cumulative step budget, stop at the
           first failing walk. *)
        let o = run first last ctr in
        result_of (snapshot ctr) o
      | Some n ->
        (* Parallel walks: each walk gets its own counters and step budget
           and always runs, so merged stats and the reported failure — the
           lowest-index failing walk — are identical for every domain
           count. *)
        Obs.Metrics.set Mx.domains_g (float_of_int n);
        let first_bad =
          pool ~domains:n ~into:ctr (last - first + 1) (fun j c -> run (first + j) (first + j) c)
        in
        result_of (snapshot ctr) (Option.value first_bad ~default:I_ok))

let check_random ?(schedules = 200) ?(seed = 17) ?(crash_prob = 0.05) ?domains cfg =
  check_random_walks ~schedules ~first:1 ~last:schedules ~seed ~crash_prob ?domains cfg

let check_random_replay ?(schedules = 200) ?(seed = 17) ?(crash_prob = 0.05) ~schedule cfg =
  if schedule < 1 || schedule > schedules then
    invalid_arg "Refinement.check_random_replay: schedule out of range";
  check_random_walks ~schedules ~first:schedule ~last:schedule ~seed ~crash_prob cfg
