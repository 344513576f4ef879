(* The soundness argument for the partial-order-reduced strategy is
   differential: for every bundled system and every seeded-bug variant,
   {!Explore.Dpor_sleep} must reach exactly the verdict of
   {!Explore.Naive} — while never exploring more executions.  On top of
   that:

   - an outcome-set differential: on holding instances the reduced
     strategy must reach exactly naive's set of post-phase outcomes
     (the world the post phase starts from plus every probe's result),
     since a reduction that loses behaviours can still keep the verdict;
   - qcheck properties over the dependence relation: swapping adjacent
     steps that the footprints classify as independent never changes the
     final state or either step's observation, and the seeded dependent
     pairs (same-address write/write, two durable writes, two responses,
     [Unknown] vs anything) are never classified independent;
   - golden counterexample snapshots: the [pp_failure_lanes] rendering of
     the seeded journal/kvs bugs and the refuted strict-KVS spec is
     byte-for-byte identical under every strategy (test/golden/);
   - the reduction is real: on the kvs put||get instance DPOR+sleep must
     explore at least 3x fewer executions than naive, with nonzero
     [commutations_pruned], [crash_skips] and [sleep_skips];
   - [strategy_of_string] accepts exactly the names [strategy_name]
     prints. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module Fp = Sched.Footprint
module Sd = Disk.Single_disk
module Rd = Systems.Replicated_disk
module Cb = Systems.Cached_block
module Sc = Systems.Shadow_copy
module W = Systems.Wal
module Gc = Systems.Group_commit
module L = Systems.Layered
module J = Journal.Txn_log
module K = Journal.Kvs

let b = Disk.Block.of_string
let bv s = Disk.Block.to_value (b s)
let vx = V.str "x"
let vy = V.str "y"
let ly2 = J.layout ~n_data:2 ~max_slots:2
let p = K.params ~n_keys:2 ()

let verdict = function
  | R.Refinement_holds _ -> "holds"
  | R.Refinement_violated _ -> "violated"
  | R.Budget_exhausted _ -> "budget"

let stats_of = function
  | R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st -> st

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

(* Run one instance under every strategy: same verdict as naive, never
   more executions than naive. *)
let differential name (run : E.strategy -> R.result) =
  let naive = run E.Naive in
  List.iter
    (fun s ->
      let r = run s in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s verdict" name (E.strategy_name s))
        (verdict naive) (verdict r);
      if (stats_of r).R.executions > (stats_of naive).R.executions then
        Alcotest.failf "%s: %s explored %d executions > naive's %d" name
          (E.strategy_name s) (stats_of r).R.executions (stats_of naive).R.executions)
    E.all_strategies

(* --- honest systems: every strategy must accept --- *)

let test_diff_systems () =
  differential "rd: 2 writers + crash + disk failure" (fun strategy ->
      R.check ~strategy
        (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
           [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "b") ] ]));
  differential "cached-block: put || get + crash" (fun strategy ->
      R.check ~strategy
        (Cb.checker_config ~max_crashes:1 [ [ Cb.put_call vx ]; [ Cb.get_call ] ]));
  differential "shadow-copy: write || read + crash" (fun strategy ->
      R.check ~strategy
        (Sc.checker_config ~max_crashes:1 [ [ Sc.write_call vx vy ]; [ Sc.read_call ] ]));
  differential "wal: write + 2 crashes" (fun strategy ->
      R.check ~strategy (W.checker_config ~max_crashes:2 [ [ W.write_call vx vy ] ]));
  differential "group-commit: write; flush + crash" (fun strategy ->
      R.check ~strategy
        (Gc.checker_config ~max_crashes:1 [ [ Gc.write_call vx vy; Gc.flush_call ] ]))

let test_diff_layered () =
  differential "layered: WAL over rd + crash + disk failure" (fun strategy ->
      R.check ~strategy
        (L.checker_config ~may_fail:true ~max_crashes:1 [ [ L.write_call vx vy ] ]))

let test_diff_journal_kvs () =
  differential "journal: commit || read + crash" (fun strategy ->
      R.check ~strategy
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly2 0 ] ]));
  differential "kvs: put || get + crash" (fun strategy ->
      R.check ~strategy
        (K.checker_config p ~max_crashes:1
           [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]));
  differential "kvs: txn + crash during recovery" (fun strategy ->
      R.check ~strategy
        (K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]));
  differential "kvs: async put; flush || get + crash" (fun strategy ->
      R.check ~strategy
        (K.checker_config p ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A"); K.flush_call p ]; [ K.get_call p 0 ] ]))

(* --- seeded bugs: every strategy must reject --- *)

let rd_buggy ~recovery ?(may_fail = true) ?(max_crashes = 1) ~size threads strategy =
  R.check ~strategy
    (R.config ~spec:(Rd.spec size)
       ~init_world:(Rd.init_world ~may_fail size)
       ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world ~threads ~recovery
       ~post:(Rd.probe size) ~max_crashes ())

let test_diff_bugs_rd () =
  differential "bug rd: nop recovery"
    (rd_buggy ~recovery:Rd.Buggy.recover_nop ~size:1 [ [ Rd.write_call 0 vx ] ]);
  differential "bug rd: zeroing recovery"
    (rd_buggy ~recovery:(Rd.Buggy.recover_zero 1) ~may_fail:false ~size:1
       [ [ Rd.write_call 0 vx ] ]);
  differential "bug rd: unlocked writers"
    (rd_buggy ~recovery:(Rd.recover_prog 1) ~max_crashes:0 ~size:1
       [ [ Rd.Buggy.write_call_unlocked 0 (V.str "a") ];
         [ Rd.Buggy.write_call_unlocked 0 (V.str "b") ] ])

let test_diff_bugs_wal_shadow () =
  differential "bug wal: commit before log" (fun strategy ->
      R.check ~strategy
        (R.config ~spec:W.spec ~init_world:(W.init_world ())
           ~crash_world:W.crash_world ~pp_world:W.pp_world
           ~threads:[ [ W.Buggy.write_call_commit_first vx vy ] ]
           ~recovery:W.recover_prog ~post:[ W.read_call ] ~max_crashes:1 ()));
  differential "bug wal: recovery clears flag first" (fun strategy ->
      R.check ~strategy
        (R.config ~spec:W.spec ~init_world:(W.init_world ())
           ~crash_world:W.crash_world ~pp_world:W.pp_world
           ~threads:[ [ W.write_call vx vy ] ]
           ~recovery:W.Buggy.recover_clear_first ~post:[ W.read_call ] ~max_crashes:2 ()));
  differential "bug shadow: in-place write" (fun strategy ->
      R.check ~strategy
        (Sc.checker_config ~max_crashes:1 [ [ Sc.Buggy.write_call_in_place vx vy ] ]))

let test_diff_bugs_journal_kvs () =
  differential "bug journal: record before log" (fun strategy ->
      R.check ~strategy
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A") ];
               J.Buggy.commit_call_record_first ly2 [ (0, b "C"); (1, b "D") ] ] ]));
  differential "bug journal: unlogged multi-write" (fun strategy ->
      R.check ~strategy
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.Buggy.commit_call_no_log ly2 [ (0, b "A"); (1, b "B") ] ] ]));
  differential "bug kvs: nop recovery" (fun strategy ->
      R.check ~strategy
        (R.config ~spec:(K.spec p) ~init_world:(K.init_world p)
           ~crash_world:K.crash_world ~pp_world:K.pp_world
           ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
           ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ()));
  differential "bug kvs: async put vs strict crash spec" (fun strategy ->
      R.check ~strategy
        (K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A") ] ]))

(* ------------------------------------------------------------------ *)
(* Outcome-set differential                                            *)
(* ------------------------------------------------------------------ *)

(* Same verdict is a weak check: a reduced strategy that loses behaviours
   still passes a holding instance.  So, test-only, wrap the post probes
   to record each completed post phase's outcome — the rendered world at
   the start of the phase plus every probe's result — and require the
   reduced strategy to reach exactly naive's set of outcomes.  Each
   record is a [Footprint.pure] step: its action runs exactly once, at the
   point of the explored path that takes it. *)
let with_outcomes (cfg : ('w, 's) R.config) =
  let n = List.length cfg.R.post in
  if n = 0 then invalid_arg "with_outcomes: the instance has no post probes";
  let seen = Hashtbl.create 64 in
  (* slot 0: the world; slot i: probe i's result *)
  let cur = Array.make (n + 1) "" in
  let record i render =
    Sched.Prog.atomic ~fp:(Fp.const Fp.pure) "outcome" (fun w ->
        cur.(i) <- render w;
        if i = n then Hashtbl.replace seen (Array.to_list cur) ();
        Sched.Prog.Steps [ (w, ()) ])
  in
  let open Sched.Prog.Syntax in
  let post =
    List.mapi
      (fun i (call, prog) ->
        let prog =
          let* () =
            if i = 0 then record 0 (Fmt.str "%a" cfg.R.pp_world) else Sched.Prog.return ()
          in
          let* v = prog in
          let+ () = record (i + 1) (fun _ -> Fmt.str "%a" V.pp v) in
          v
        in
        (call, prog))
      cfg.R.post
  in
  let outcomes () = List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) seen []) in
  ({ cfg with R.post }, outcomes)

let outcome_differential name (cfg : unit -> ('w, 's) R.config) =
  let run strategy =
    let cfg, outcomes = with_outcomes (cfg ()) in
    let r = R.check ~strategy cfg in
    (r, outcomes ())
  in
  let naive_r, naive = run E.Naive in
  Alcotest.(check string) (name ^ ": naive verdict") "holds" (verdict naive_r);
  List.iter
    (fun s ->
      let r, got = run s in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s verdict" name (E.strategy_name s))
        "holds" (verdict r);
      if got <> naive then begin
        let missing = List.filter (fun o -> not (List.mem o got)) naive in
        Alcotest.failf "%s: %s reaches %d outcomes, naive %d; first missing: %s" name
          (E.strategy_name s) (List.length got) (List.length naive)
          (match missing with
          | o :: _ -> String.concat " | " o
          | [] -> "(none: extra outcomes)")
      end)
    [ E.Dpor_sleep ]

let test_outcomes_net () =
  let module SK = Dist.Shard_kv in
  let p1 = SK.params ~n_keys:1 ~n_clients:1 () in
  outcome_differential "net: exactly-once inc + crash" (fun () ->
      SK.checker_config p1 ~max_crashes:1 ~fault_budget:1
        [ [ SK.ninc_call p1 ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p1 0 ] ]);
  let p2 = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  outcome_differential "net: 2-client contention + crash" (fun () ->
      SK.checker_config p2 ~max_crashes:1 ~fault_budget:0
        [ [ SK.ninc_call p2 ~client:0 ~seq:0 0; SK.bye_call ];
          [ SK.ninc_call p2 ~client:1 ~seq:0 0; SK.bye_call ];
          [ SK.srv_call p2 0 ] ]);
  let pl = SK.params ~n_keys:1 ~n_clients:2 () in
  outcome_differential "net: lease 2 holders + expiry + crash" (fun () ->
      SK.checker_config pl ~max_crashes:1 ~fault_budget:0
        [ [ SK.linc_call pl ~client:0 0 ]; [ SK.linc_call pl ~client:1 0 ]; [ SK.expire_call ] ]);
  let ph = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  outcome_differential "net: hosted shard-kv + crash" (fun () ->
      SK.Hosted.checker_config ph ~max_crashes:1 ~fault_budget:1
        [ [ SK.Hosted.nput_call ph ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
          [ SK.Hosted.srv_call ph 0 ] ])

(* A blocked step must count as possibly responding, and as faulted
   while fault budget remains: both are known only once it is enabled.
   Two hand-built instances over one world.  In each, [send] fills a
   volatile channel and completes once the message is acknowledged, and
   [recv] blocks on the empty channel, then takes and acknowledges the
   message in one step that completes its operation.

   - Responding: [tick] sets a durable flag that the spec requires before
     any [recv] returns.  The seeded bug is a [recv] that does not wait
     for the flag; its only symptom is a crash after [recv] returned and
     before [tick] ran.
   - Faulted: [recv] declares a fault whose post-world also clears the
     volatile cell [x] (a fault branch may touch more than the step's
     footprint); [set x] writes [x] and reads it back.

   With [tick] (or [set x]) explored first, the race that puts [send],
   and so the receive, before it is visible only while [recv] is
   blocked. *)
module Handoff = struct
  module T = Tslang.Transition
  module Spec = Tslang.Spec

  type world = { chan : int option; acked : bool; ticked : bool; x : int; faulted : bool }

  let init = { chan = None; acked = false; ticked = false; x = 0; faulted = false }
  let chan = Fp.cell "chan"
  let acked = Fp.cell "acked"
  let flag = Fp.disk ~region:"flag" 0
  let x = Fp.cell "x"

  let pp_world ppf w =
    Fmt.pf ppf "chan=%a acked=%b ticked=%b x=%d faulted=%b"
      Fmt.(option ~none:(any "-") int)
      w.chan w.acked w.ticked w.x w.faulted

  let send =
    let open Sched.Prog.Syntax in
    let* () =
      Sched.Prog.write ~fp:(Fp.const (Fp.writes [ chan ])) "send" (fun w ->
          { w with chan = Some 1 })
    in
    Sched.Prog.blocked_until ~fp:(Fp.const (Fp.reads [ acked ])) "sent" (fun w ->
        if w.acked then Some (w, V.unit) else None)

  let take w = { w with chan = None; acked = true }

  (* --- responding --- *)

  let tick_spec : (int option * bool) Spec.t =
    let open T.Syntax in
    {
      Spec.name = "handoff";
      init = (None, false);
      compare_state = compare;
      pp_state = Fmt.(pair ~sep:comma (option ~none:(any "empty") int) bool);
      step =
        (fun op args ->
          match (op, args) with
          | "send", [] ->
            let+ () = T.modify (fun (_, t) -> (Some 1, t)) in
            V.unit
          | "recv", [] ->
            let* m, t = T.reads in
            let* () = T.guard (t && m <> None) in
            let+ () = T.puts (None, t) in
            V.int (Option.get m)
          | "tick", [] ->
            let+ () = T.modify (fun (m, _) -> (m, true)) in
            V.unit
          | "ticked", [] -> T.gets (fun (_, t) -> V.bool t)
          | _ -> invalid_arg "handoff spec");
      crash = T.modify (fun (_, t) -> (None, t));
    }

  (* [~wait:false] is the seeded bug *)
  let recv_after_tick ~wait =
    let reads = if wait then [ chan; flag ] else [ chan ] in
    Sched.Prog.blocked_until ~fp:(Fp.const (Fp.rw ~reads ~writes:[ chan; acked ] ())) "recv"
      (fun w ->
        match w.chan with
        | Some v when w.ticked || not wait -> Some (take w, V.int v)
        | _ -> None)

  let tick =
    Sched.Prog.det ~fp:(Fp.const (Fp.writes [ flag ])) "tick" (fun w ->
        ({ w with ticked = true }, V.unit))

  let ticked =
    Sched.Prog.read ~fp:(Fp.const (Fp.reads [ flag ])) "ticked" (fun w -> V.bool w.ticked)

  let tick_config ~wait =
    R.config ~spec:tick_spec ~init_world:init
      ~crash_world:(fun w -> { w with chan = None; acked = false })
      ~pp_world
      ~threads:
        [ [ (Spec.call "recv" [], recv_after_tick ~wait) ];
          [ (Spec.call "tick" [], tick) ];
          [ (Spec.call "send" [], send) ] ]
      ~recovery:(Sched.Prog.return V.unit)
      ~post:[ (Spec.call "ticked" [], ticked) ]
      ~max_crashes:1 ()

  (* --- faulted --- *)

  (* every result is allowed: only the outcome sets matter *)
  let any_spec : unit Spec.t =
    {
      Spec.name = "handoff-any";
      init = ();
      compare_state = compare;
      pp_state = Fmt.any "()";
      step =
        (fun op _ ->
          match op with
          | "send" -> T.ret V.unit
          | "recv" -> T.choose [ V.int 1; Sched.Fault.err_value ]
          | "set_x" | "x" -> T.choose [ V.int 0; V.int 1 ]
          | _ -> invalid_arg "handoff-any spec");
      crash = T.ret ();
    }

  let recv_faulty =
    Sched.Prog.atomic ~fp:(Fp.const (Fp.rw ~reads:[ chan ] ~writes:[ chan; acked ] ()))
      ~faults:(fun w ->
        match w.chan with
        | Some _ ->
          [ (Sched.Fault.Msg_drop, { (take w) with x = 0; faulted = true }, Sched.Fault.err_value) ]
        | None -> [])
      "recv"
      (fun w ->
        match w.chan with
        | Some v -> Sched.Prog.Steps [ (take w, V.int v) ]
        | None -> Sched.Prog.Steps [])

  let read_x = Sched.Prog.read ~fp:(Fp.const (Fp.reads [ x ])) "x" (fun w -> V.int w.x)

  let set_x =
    let open Sched.Prog.Syntax in
    let* () =
      Sched.Prog.write ~fp:(Fp.const (Fp.writes [ x ])) "set_x" (fun w -> { w with x = 1 })
    in
    read_x

  let fault_config () =
    R.config ~spec:any_spec ~init_world:init ~crash_world:Fun.id ~pp_world
      ~threads:
        [ [ (Spec.call "recv" [], recv_faulty) ];
          [ (Spec.call "set_x" [], set_x) ];
          [ (Spec.call "send" [], send) ] ]
      ~recovery:(Sched.Prog.return V.unit)
      ~post:[ (Spec.call "x" [], read_x) ]
      ~max_crashes:0 ~fault_budget:1 ()
end

let test_blocked_response () =
  outcome_differential "handoff: recv || tick || send + crash" (fun () ->
      Handoff.tick_config ~wait:true);
  differential "bug handoff: recv does not wait for tick" (fun strategy ->
      R.check ~strategy (Handoff.tick_config ~wait:false));
  outcome_differential "handoff: faulted recv || set x || send" Handoff.fault_config

let test_outcomes_storage () =
  let module Wl = Perennial_wal.Wal in
  let module Fs = Perennial_fs.Fs in
  outcome_differential "kvs: put || get + crash" (fun () ->
      K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]);
  outcome_differential "kvs: put || put + crash" (fun () ->
      K.checker_config p ~max_crashes:1
        [ [ K.put_call p 0 (bv "A") ]; [ K.put_call p 0 (bv "B") ] ]);
  outcome_differential "kvs: put || put + 2 crashes" (fun () ->
      K.checker_config p ~max_crashes:2
        [ [ K.put_call p 0 (bv "A") ]; [ K.put_call p 0 (bv "B") ] ]);
  outcome_differential "kvs: txn + 2 crashes" (fun () ->
      K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]);
  let wp = Wl.params ~n_data:1 ~cap:2 () in
  outcome_differential "wal: mwrite || logger + crash" (fun () ->
      Wl.checker_config wp ~max_crashes:1
        [ [ Wl.mwrite_call wp [ (0, b "A") ] ]; [ Wl.logger_call wp ] ]);
  let fp = Fs.params (Perennial_fs.Layout.v ~n_inodes:4 ~n_blocks:5 ()) in
  let post = Fs.probe fp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ] in
  outcome_differential "fs: ft create + crash, faults 1" (fun () ->
      Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ] ~post ~max_crashes:1
        ~fault_budget:1 [ [ Fs.create_ft_call fp "a" "g" ] ]);
  outcome_differential "fs: ft create; ft append + crash, faults 1" (fun () ->
      Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ] ~post ~max_crashes:1
        ~fault_budget:1
        [ [ Fs.create_ft_call fp "a" "g"; Fs.append_ft_call fp "a" "f" "y" ] ]);
  outcome_differential "fs: create || append + crash" (fun () ->
      Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~post ~max_crashes:1
        [ [ Fs.create_call fp "a" "g" ]; [ Fs.append_call fp "a" "f" "z" ] ]);
  outcome_differential "rd: ft write || ft read + crash, faults 2" (fun () ->
      Rd.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
        [ [ Rd.write_ft_call 0 vx ]; [ Rd.read_ft_call 0 ] ]);
  outcome_differential "rd: write || write + crash" (fun () ->
      Rd.checker_config ~size:1 ~max_crashes:1
        [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "b") ] ])

(* ------------------------------------------------------------------ *)
(* The reduction is real                                               *)
(* ------------------------------------------------------------------ *)

let test_kvs_reduction () =
  let run strategy =
    R.check ~strategy
      (K.checker_config p ~max_crashes:1
         [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ])
  in
  let st name r =
    match r with
    | R.Refinement_holds st -> st
    | _ -> Alcotest.failf "kvs put||get should hold under %s" name
  in
  let naive = st "naive" (run E.Naive) in
  let red = st "dpor+sleep" (run E.Dpor_sleep) in
  if red.R.executions * 3 > naive.R.executions then
    Alcotest.failf
      "dpor+sleep explored %d executions, naive %d: less than the required 3x reduction"
      red.R.executions naive.R.executions;
  Alcotest.(check bool) "dpor+sleep pruned commutations" true (red.R.commutations_pruned > 0);
  Alcotest.(check bool) "dpor+sleep skipped clean crash points" true (red.R.crash_skips > 0);
  Alcotest.(check bool) "dpor+sleep skipped sleeping steps" true (red.R.sleep_skips > 0)

let test_strategy_spellings () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (E.strategy_name s ^ " round-trips") true
        (E.strategy_of_string (E.strategy_name s) = Some s))
    E.all_strategies;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is rejected") true (E.strategy_of_string name = None))
    [ "dpor"; "sleep"; "dpor_sleep" ]

(* ------------------------------------------------------------------ *)
(* qcheck: the dependence relation                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny concrete step language over a 4-block disk: enough to state the
   commutation property the whole reduction rests on. *)
type op = Wr of int * int | Rd_ of int

let op_fp = function
  | Wr (a, _) -> Fp.writes [ Fp.disk a ]
  | Rd_ a -> Fp.reads [ Fp.disk a ]

let apply w = function
  | Wr (a, v) -> (Sd.set w a (b (string_of_int v)), "()")
  | Rd_ a -> (w, Disk.Block.to_string (Sd.get w a))

let print_op = function
  | Wr (a, v) -> Printf.sprintf "disk[%d]:=%d" a v
  | Rd_ a -> Printf.sprintf "read disk[%d]" a

let gen_op =
  QCheck.Gen.(
    let addr = int_range 0 3 in
    oneof [ map2 (fun a v -> Wr (a, v)) addr (int_range 0 9); map (fun a -> Rd_ a) addr ])

let arb_case =
  QCheck.make
    ~print:(fun (o1, o2, init) ->
      Printf.sprintf "%s; %s from [%s]" (print_op o1) (print_op o2)
        (String.concat ";" (List.map string_of_int init)))
    QCheck.Gen.(triple gen_op gen_op (list_size (return 4) (int_range 0 9)))

let init_disk init =
  List.fold_left
    (fun (w, a) v -> (Sd.set w a (b (string_of_int v)), a + 1))
    (Sd.init 4, 0) init
  |> fst

(* Steps whose footprints are classified independent commute: running them
   in either order from any state yields the same final state and the same
   per-step observations.  This is exactly what lets DPOR explore one of
   the two orders. *)
let prop_independent_steps_commute =
  QCheck.Test.make ~name:"independent steps commute (state + observations)" ~count:500
    arb_case (fun (o1, o2, init) ->
      Fp.conflicts (op_fp o1) (op_fp o2)
      ||
      let w0 = init_disk init in
      let w1, r1 = apply w0 o1 in
      let w12, r2 = apply w1 o2 in
      let w2, r2' = apply w0 o2 in
      let w21, r1' = apply w2 o1 in
      Sd.equal w12 w21 && String.equal r1 r1' && String.equal r2 r2')

(* The converse guard: any pair sharing an address where at least one side
   writes must be classified dependent — including write/write. *)
let prop_same_address_write_dependent =
  QCheck.Test.make ~name:"same-address pair with a write is dependent" ~count:500 arb_case
    (fun (o1, o2, _) ->
      let addr = function Wr (a, _) -> a | Rd_ a -> a in
      let is_wr = function Wr _ -> true | Rd_ _ -> false in
      addr o1 <> addr o2
      || (not (is_wr o1 || is_wr o2))
      || Fp.conflicts (op_fp o1) (op_fp o2))

(* Dummy step_infos over a unit world, to exercise Explore.dependent
   itself (not just Footprint.conflicts). *)
let info ?(visible = false) ?(responds = false) tid fp =
  { E.si_tid = tid; si_label = "step"; si_fp = fp; si_visible = visible;
    si_responds = responds; si_branches = []; si_faults = []; si_fault_site = false }

let prop_visible_always_dependent =
  QCheck.Test.make ~name:"visible steps are dependent on everything" ~count:200 arb_case
    (fun (o1, o2, _) ->
      E.dependent (info ~visible:true 0 (op_fp o1)) (info 1 (op_fp o2))
      && E.dependent (info 0 (op_fp o1)) (info ~visible:true 1 (op_fp o2)))

let test_dependence_seeded_pairs () =
  let w0 = Fp.writes [ Fp.disk 0 ] in
  let r0 = Fp.reads [ Fp.disk 0 ] in
  let w1 = Fp.writes [ Fp.disk 1 ] in
  let c = Fp.writes [ Fp.cell "buffer" ] in
  Alcotest.(check bool) "write/write same address conflicts" true (Fp.conflicts w0 w0);
  Alcotest.(check bool) "write/read same address conflicts" true (Fp.conflicts w0 r0);
  Alcotest.(check bool) "write/write distinct addresses commute" false (Fp.conflicts w0 w1);
  Alcotest.(check bool) "read/read same address commutes" false (Fp.conflicts r0 r0);
  Alcotest.(check bool) "unknown conflicts with a read" true (Fp.conflicts Fp.unknown r0);
  Alcotest.(check bool) "unknown conflicts with pure" true (Fp.conflicts Fp.unknown Fp.pure);
  (* crash-relevant: a durable write or a response *)
  Alcotest.(check bool) "durable write is crash-relevant" true (E.crash_relevant (info 0 w0));
  Alcotest.(check bool) "volatile write is not crash-relevant" false
    (E.crash_relevant (info 0 c));
  Alcotest.(check bool) "read is not crash-relevant" false (E.crash_relevant (info 0 r0));
  Alcotest.(check bool) "unknown is crash-relevant" true (E.crash_relevant (info 0 Fp.unknown));
  Alcotest.(check bool) "response is crash-relevant" true
    (E.crash_relevant (info ~responds:true 0 r0));
  (* lock discipline: an acquire is never co-enabled with the release of
     the same lock — load-bearing for catching lock-order deadlocks *)
  let l = Fp.lock 0 in
  Alcotest.(check bool) "acquire vs release same lock never co-enabled" false
    (Fp.may_be_coenabled (Fp.acquire l) (Fp.release l));
  Alcotest.(check bool) "acquire vs release distinct locks may be co-enabled" true
    (Fp.may_be_coenabled (Fp.acquire l) (Fp.release (Fp.lock 1)));
  (* Explore.dependent is conflicts + visibility + crash relevance *)
  let c' = Fp.writes [ Fp.cell "cache" ] in
  Alcotest.(check bool) "disjoint volatile steps independent" false
    (E.dependent (info 0 c) (info 1 c'));
  Alcotest.(check bool) "durable writes to distinct addresses dependent" true
    (E.dependent (info 0 w0) (info 1 w1));
  Alcotest.(check bool) "durable write and disjoint volatile step independent" false
    (E.dependent (info 0 w0) (info 1 c));
  Alcotest.(check bool) "response and response dependent" true
    (E.dependent (info ~responds:true 0 c) (info ~responds:true 1 c'));
  Alcotest.(check bool) "response and disjoint non-responding step independent" false
    (E.dependent (info ~responds:true 0 c) (info 1 c'))

(* ------------------------------------------------------------------ *)
(* Golden counterexamples                                              *)
(* ------------------------------------------------------------------ *)

let read_golden file =
  (* cwd is test/ under `dune runtest` but the project root under
     `dune exec test/test_main.exe` *)
  let candidates =
    [ Filename.concat "golden" file; Filename.concat "test/golden" file ]
  in
  let file =
    match List.find_opt Sys.file_exists candidates with
    | Some f -> f
    | None -> Alcotest.failf "golden file %s not found" file
  in
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The lanes of every golden counterexample are pinned; with [~full] so
   are its flat listing ([name.failure.txt]) and its Chrome export
   ([name.chrome.json]). *)
let golden ?(full = false) name (run : E.strategy -> R.result) =
  List.iter
    (fun s ->
      match run s with
      | R.Refinement_violated (f, _) ->
        let pin what ext got =
          Alcotest.(check string)
            (Printf.sprintf "%s %s under %s" name what (E.strategy_name s))
            (read_golden (name ^ ext)) got
        in
        pin "lanes" ".lanes.txt" (Fmt.str "%a" R.pp_failure_lanes f);
        if full then begin
          pin "flat text" ".failure.txt" (Fmt.str "%a" R.pp_failure f);
          pin "chrome export" ".chrome.json" (Obs.Json.to_string (R.failure_chrome f))
        end
      | r -> Alcotest.failf "%s: expected violation under %s, got %s" name
               (E.strategy_name s) (verdict r))
    E.all_strategies

let test_golden_journal () =
  golden "journal_record_first" (fun strategy ->
      R.check ~strategy
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A") ];
               J.Buggy.commit_call_record_first ly2 [ (0, b "C"); (1, b "D") ] ] ]));
  golden "journal_no_log" (fun strategy ->
      R.check ~strategy
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.Buggy.commit_call_no_log ly2 [ (0, b "A"); (1, b "B") ] ] ]));
  golden ~full:true "journal_recover_clear_first" (fun strategy ->
      R.check ~strategy
        (R.config ~spec:(J.spec ly2) ~init_world:(J.init_world ly2)
           ~crash_world:J.crash_world ~pp_world:J.pp_world
           ~threads:[ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ] ]
           ~recovery:(J.Buggy.recover_clear_first ly2) ~post:(J.probe ly2)
           ~max_crashes:2 ()))

let test_golden_kvs () =
  golden "kvs_recover_nop" (fun strategy ->
      R.check ~strategy
        (R.config ~spec:(K.spec p) ~init_world:(K.init_world p)
           ~crash_world:K.crash_world ~pp_world:K.pp_world
           ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
           ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ()));
  golden "kvs_strict_spec" (fun strategy ->
      R.check ~strategy
        (K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A") ] ]))

let suite =
  [
    Alcotest.test_case "differential: pattern systems" `Quick test_diff_systems;
    Alcotest.test_case "differential: layered" `Quick test_diff_layered;
    Alcotest.test_case "differential: journal + kvs" `Quick test_diff_journal_kvs;
    Alcotest.test_case "differential: rd seeded bugs" `Quick test_diff_bugs_rd;
    Alcotest.test_case "differential: wal/shadow seeded bugs" `Quick
      test_diff_bugs_wal_shadow;
    Alcotest.test_case "differential: journal/kvs seeded bugs" `Quick
      test_diff_bugs_journal_kvs;
    Alcotest.test_case "outcome sets: net" `Quick test_outcomes_net;
    Alcotest.test_case "blocked steps may respond or fault" `Quick test_blocked_response;
    Alcotest.test_case "outcome sets: storage stack" `Quick test_outcomes_storage;
    Alcotest.test_case "kvs reduction: >=3x fewer executions" `Quick test_kvs_reduction;
    Alcotest.test_case "strategy spellings: exactly the printed names" `Quick
      test_strategy_spellings;
    Alcotest.test_case "dependence: seeded pairs" `Quick test_dependence_seeded_pairs;
    QCheck_alcotest.to_alcotest prop_independent_steps_commute;
    QCheck_alcotest.to_alcotest prop_same_address_write_dependent;
    QCheck_alcotest.to_alcotest prop_visible_always_dependent;
    Alcotest.test_case "golden: journal counterexamples" `Quick test_golden_journal;
    Alcotest.test_case "golden: kvs counterexamples" `Quick test_golden_kvs;
  ]
