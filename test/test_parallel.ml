(* Parallel state-space exploration: the determinism harness.

   The multicore checker's contract (Refinement.check ~domains) is that the
   domain count buys wall time and nothing else: verdict, counterexample and
   every stats field must be a fixed function of the instance (the split
   depth is a constant).  This suite pins that down differentially:

   - every bundled system and seeded bug, under naive and dpor+sleep, run at
     domains 1/2/4/8: identical verdicts, identical stats records, identical
     [pp_failure_lanes] renderings;
   - naive parallel runs of *holding* instances match the plain sequential
     checker's stats exactly (the two-phase partition replays the very same
     DFS);
   - the golden counterexamples of test/golden/ stay byte-identical when
     found by a parallel run;
   - qcheck properties for the fingerprint key: injectivity smoke, and
     key stability across structurally-equal states (nothing physical
     leaks into the key);
   - fingerprint pruning never changes a verdict, prunes for real on the
     kvs instances, and stays domain-count deterministic;
   - the obs layer survives a 4-domain hammer with exact totals
     (metrics registry, coverage table);
   - check_random with domains: same failing walk, same reason prefix, same
     merged stats at any domain count, and the [seed/schedule] pair replays
     the failure on its own. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module Fpr = Perennial_core.Fingerprint
module Rd = Systems.Replicated_disk
module Cb = Systems.Cached_block
module Sc = Systems.Shadow_copy
module W = Systems.Wal
module Gc = Systems.Group_commit
module L = Systems.Layered
module J = Journal.Txn_log
module K = Journal.Kvs
module FL = Perennial_fs.Layout
module Fs = Perennial_fs.Fs

let b = Disk.Block.of_string
let bv s = Disk.Block.to_value (b s)
let vx = V.str "x"
let vy = V.str "y"
let ly2 = J.layout ~n_data:2 ~max_slots:2
let p = K.params ~n_keys:2 ()
let fsp = Fs.params (FL.v ~n_inodes:4 ~n_blocks:5 ())

let verdict = function
  | R.Refinement_holds _ -> "holds"
  | R.Refinement_violated _ -> "violated"
  | R.Budget_exhausted _ -> "budget"

let stats_of = function
  | R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st -> st

let lanes_of = function
  | R.Refinement_violated (f, _) -> Some (Fmt.str "%a" R.pp_failure_lanes f)
  | R.Refinement_holds _ | R.Budget_exhausted _ -> None

let check_stats name expected got =
  if expected <> got then
    Alcotest.failf "%s: stats diverged:@,  expected %a@,  got      %a" name R.pp_stats
      expected R.pp_stats got

(* ------------------------------------------------------------------ *)
(* The domains matrix                                                  *)
(* ------------------------------------------------------------------ *)

let domain_counts = [ 1; 2; 4; 8 ]

(* Checked strategies: naive plus the strongest reduction.  (Cross-strategy
   agreement is test_explore's job; here each strategy is compared with
   itself across domain counts.) *)
let strategies = [ E.Naive; E.Dpor_sleep ]

(* Run one instance at every domain count under each strategy: identical
   verdicts, stats, and counterexample lanes.  Under naive, the parallel
   run must also reproduce the plain sequential stats when the instance
   holds (on violations the sequential checker stops early by design). *)
let domain_deterministic name (run : strategy:E.strategy -> domains:int option -> R.result)
    =
  List.iter
    (fun strategy ->
      let sname = E.strategy_name strategy in
      let base = run ~strategy ~domains:(Some 1) in
      List.iter
        (fun n ->
          let r = run ~strategy ~domains:(Some n) in
          Alcotest.(check string)
            (Printf.sprintf "%s [%s]: verdict at domains=%d" name sname n)
            (verdict base) (verdict r);
          check_stats
            (Printf.sprintf "%s [%s]: domains=%d vs domains=1" name sname n)
            (stats_of base) (stats_of r);
          Alcotest.(check (option string))
            (Printf.sprintf "%s [%s]: lanes at domains=%d" name sname n)
            (lanes_of base) (lanes_of r))
        (List.filter (fun n -> n <> 1) domain_counts);
      let seq = run ~strategy ~domains:None in
      Alcotest.(check string)
        (Printf.sprintf "%s [%s]: parallel vs sequential verdict" name sname)
        (verdict seq) (verdict base);
      match seq with
      | R.Refinement_holds st when strategy = E.Naive ->
        check_stats (Printf.sprintf "%s: naive parallel vs sequential" name) st
          (stats_of base)
      | _ -> ())
    strategies

(* --- honest systems: every domain count must accept --- *)

let test_domains_systems () =
  domain_deterministic "rd: 2 writers + crash + disk failure"
    (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
           [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "b") ] ]));
  domain_deterministic "cached-block: put || get + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Cb.checker_config ~max_crashes:1 [ [ Cb.put_call vx ]; [ Cb.get_call ] ]));
  domain_deterministic "shadow-copy: write || read + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Sc.checker_config ~max_crashes:1 [ [ Sc.write_call vx vy ]; [ Sc.read_call ] ]));
  domain_deterministic "wal: write + 2 crashes" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (W.checker_config ~max_crashes:2 [ [ W.write_call vx vy ] ]));
  domain_deterministic "group-commit: write; flush + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Gc.checker_config ~max_crashes:1 [ [ Gc.write_call vx vy; Gc.flush_call ] ]));
  domain_deterministic "layered: WAL over rd" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (L.checker_config ~may_fail:true ~max_crashes:1 [ [ L.write_call vx vy ] ]))

let test_domains_journal_kvs () =
  domain_deterministic "journal: commit || read + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly2 0 ] ]));
  domain_deterministic "kvs: put || get + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (K.checker_config p ~max_crashes:1
           [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]));
  domain_deterministic "kvs: txn + crash during recovery" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (K.checker_config p ~max_crashes:2
           [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]));
  domain_deterministic "kvs: async put; flush || get + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (K.checker_config p ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A"); K.flush_call p ]; [ K.get_call p 0 ] ]))

let test_domains_fs () =
  domain_deterministic "fs: create || append + crash" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Fs.checker_config fsp ~dirs:[ "a" ]
           ~files:[ ("a", "f", "xy") ]
           ~post:(Fs.probe fsp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
           ~max_crashes:1
           [ [ Fs.create_call fsp "a" "g" ]; [ Fs.append_call fsp "a" "f" "z" ] ]))

(* --- seeded bugs: every domain count must reject, identically --- *)

let rd_buggy ~recovery ?(may_fail = true) ?(max_crashes = 1) ~size threads ~strategy
    ~domains =
  R.check ~strategy ?domains
    (R.config ~spec:(Rd.spec size)
       ~init_world:(Rd.init_world ~may_fail size)
       ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world ~threads ~recovery
       ~post:(Rd.probe size) ~max_crashes ())

let test_domains_bugs_rd () =
  domain_deterministic "bug rd: nop recovery"
    (rd_buggy ~recovery:Rd.Buggy.recover_nop ~size:1 [ [ Rd.write_call 0 vx ] ]);
  domain_deterministic "bug rd: zeroing recovery"
    (rd_buggy ~recovery:(Rd.Buggy.recover_zero 1) ~may_fail:false ~size:1
       [ [ Rd.write_call 0 vx ] ]);
  domain_deterministic "bug rd: unlocked writers"
    (rd_buggy ~recovery:(Rd.recover_prog 1) ~max_crashes:0 ~size:1
       [ [ Rd.Buggy.write_call_unlocked 0 (V.str "a") ];
         [ Rd.Buggy.write_call_unlocked 0 (V.str "b") ] ])

let test_domains_bugs_wal_shadow () =
  domain_deterministic "bug wal: commit before log" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (R.config ~spec:W.spec ~init_world:(W.init_world ())
           ~crash_world:W.crash_world ~pp_world:W.pp_world
           ~threads:[ [ W.Buggy.write_call_commit_first vx vy ] ]
           ~recovery:W.recover_prog ~post:[ W.read_call ] ~max_crashes:1 ()));
  domain_deterministic "bug wal: recovery clears flag first" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (R.config ~spec:W.spec ~init_world:(W.init_world ())
           ~crash_world:W.crash_world ~pp_world:W.pp_world
           ~threads:[ [ W.write_call vx vy ] ]
           ~recovery:W.Buggy.recover_clear_first ~post:[ W.read_call ] ~max_crashes:2 ()));
  domain_deterministic "bug shadow: in-place write" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (Sc.checker_config ~max_crashes:1 [ [ Sc.Buggy.write_call_in_place vx vy ] ]))

let test_domains_bugs_journal_kvs () =
  domain_deterministic "bug journal: record before log" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A") ];
               J.Buggy.commit_call_record_first ly2 [ (0, b "C"); (1, b "D") ] ] ]));
  domain_deterministic "bug journal: unlogged multi-write" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.Buggy.commit_call_no_log ly2 [ (0, b "A"); (1, b "B") ] ] ]));
  domain_deterministic "bug kvs: nop recovery" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (R.config ~spec:(K.spec p) ~init_world:(K.init_world p)
           ~crash_world:K.crash_world ~pp_world:K.pp_world
           ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
           ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ()));
  domain_deterministic "bug kvs: async put vs strict crash spec" (fun ~strategy ~domains ->
      R.check ~strategy ?domains
        (K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A") ] ]))

(* --- faults: the shared schedule seen-table must stay partition-proof --- *)

let test_domains_faults () =
  domain_deterministic "faults: journal commit under 1 fault" (fun ~strategy ~domains ->
      R.check ~strategy ?domains ~faults:1
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly2 0 ] ]))

(* --- golden counterexamples stay byte-identical under parallel runs --- *)

let test_domains_golden () =
  let golden name (run : E.strategy -> R.result) =
    List.iter
      (fun s ->
        match run s with
        | R.Refinement_violated (f, _) ->
          Alcotest.(check string)
            (Printf.sprintf "%s lanes under %s (parallel)" name (E.strategy_name s))
            (Test_explore.read_golden (name ^ ".lanes.txt"))
            (Fmt.str "%a" R.pp_failure_lanes f)
        | r ->
          Alcotest.failf "%s: expected violation under %s, got %s" name
            (E.strategy_name s) (verdict r))
      E.all_strategies
  in
  golden "journal_record_first" (fun strategy ->
      R.check ~strategy ~domains:2
        (J.checker_config ly2 ~max_crashes:1
           [ [ J.commit_call ly2 [ (0, b "A") ];
               J.Buggy.commit_call_record_first ly2 [ (0, b "C"); (1, b "D") ] ] ]));
  golden "kvs_recover_nop" (fun strategy ->
      R.check ~strategy ~domains:4
        (R.config ~spec:(K.spec p) ~init_world:(K.init_world p)
           ~crash_world:K.crash_world ~pp_world:K.pp_world
           ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
           ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ()));
  golden "kvs_strict_spec" (fun strategy ->
      R.check ~strategy ~domains:3
        (K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A") ] ]))

(* --- argument validation --- *)

let test_bad_arguments () =
  let cfg = K.checker_config p ~max_crashes:1 [ [ K.get_call p 0 ] ] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "domains=0" (fun () -> R.check ~domains:0 cfg);
  expect_invalid "fingerprint under dpor+sleep" (fun () ->
      R.check ~strategy:E.Dpor_sleep ~fingerprint:true cfg);
  expect_invalid "check_random domains=0" (fun () -> R.check_random ~domains:0 cfg)

(* ------------------------------------------------------------------ *)
(* qcheck: the fingerprint key                                        *)
(* ------------------------------------------------------------------ *)

(* Random fingerprint states: a handful of threads with classes drawn from
   a small set, pends over those threads, and short rendered worlds. *)
let gen_state =
  QCheck.Gen.(
    let* n_threads = int_range 1 4 in
    let tids = List.init n_threads (fun i -> i) in
    let* classes =
      list_size (return n_threads) (oneofl [ "put+get"; "txn"; "get" ])
    in
    let* world = oneofl [ "d=[k0:A k1:B]"; "d=[k0:_ k1:B]"; "d=[]"; "log=[k1]" ] in
    let* n_cands = int_range 1 2 in
    let* cands =
      list_size (return n_cands)
        (let* st = oneofl [ "s0"; "s1:k0=A" ] in
         let* pend_tids = list_size (int_range 0 n_threads) (oneofl tids) in
         let f_pend =
           List.map
             (fun t ->
               { Fpr.f_ptid = t; f_op = "op"; f_args = [ "k1" ]; f_result = None })
             (List.sort_uniq compare pend_tids)
         in
         return { Fpr.f_state = st; f_pend })
    in
    let* crashes = int_range 0 1 in
    let f_threads =
      List.map2
        (fun tid cls -> { Fpr.f_tid = tid; f_class = cls })
        tids classes
    in
    return
      {
        Fpr.f_world = world;
        f_cands = cands;
        f_crashes = crashes;
        f_fused = 0;
        f_fsite = 0;
        f_threads;
      })

let arb_state =
  QCheck.make ~print:Fpr.key gen_state

let prop_world_injective =
  QCheck.Test.make ~name:"distinct worlds never collide (no key aliasing)" ~count:300
    (QCheck.pair arb_state arb_state)
    (fun (s1, s2) ->
      String.equal s1.Fpr.f_world s2.Fpr.f_world
      || not (String.equal (Fpr.key s1) (Fpr.key { s1 with Fpr.f_world = s2.Fpr.f_world })))

let prop_digest_stable =
  QCheck.Test.make ~name:"digest is structural (no physical identity)" ~count:300
    arb_state (fun st ->
      (* rebuild a structurally-equal copy through fresh allocations *)
      let copy =
        {
          Fpr.f_world = String.sub (st.Fpr.f_world ^ "!") 0 (String.length st.Fpr.f_world);
          f_cands =
            List.map
              (fun c ->
                {
                  Fpr.f_state = String.concat "" [ c.Fpr.f_state ];
                  f_pend = List.map (fun pd -> { pd with Fpr.f_op = "op" }) c.Fpr.f_pend;
                })
              st.Fpr.f_cands;
          f_crashes = st.Fpr.f_crashes;
          f_fused = st.Fpr.f_fused;
          f_fsite = st.Fpr.f_fsite;
          f_threads = List.map (fun t -> { t with Fpr.f_tid = t.Fpr.f_tid }) st.Fpr.f_threads;
        }
      in
      String.equal (Fpr.key st) (Fpr.key copy))

(* ------------------------------------------------------------------ *)
(* Fingerprint pruning on the real checker                             *)
(* ------------------------------------------------------------------ *)

(* Fingerprinting must never change a verdict, and must actually prune. *)
let test_fingerprint_differential () =
  let fp_diff name ?(expect_pruning = true) cfg =
    let plain = R.check cfg in
    let fp = R.check ~fingerprint:true cfg in
    Alcotest.(check string)
      (Printf.sprintf "%s: fingerprint verdict" name)
      (verdict plain) (verdict fp);
    let st = stats_of fp in
    Alcotest.(check bool)
      (Printf.sprintf "%s: fingerprint misses recorded" name)
      true (st.R.fingerprint_misses > 0);
    if expect_pruning then begin
      Alcotest.(check bool)
        (Printf.sprintf "%s: fingerprint pruned for real" name)
        true (st.R.fingerprint_hits > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: pruning shrank the execution count" name)
        true (st.R.executions < (stats_of plain).R.executions)
    end;
    (* parallel fingerprint runs stay domain-count deterministic *)
    let p2 = R.check ~fingerprint:true ~domains:2 cfg in
    let p4 = R.check ~fingerprint:true ~domains:4 cfg in
    Alcotest.(check string)
      (Printf.sprintf "%s: parallel fingerprint verdict" name)
      (verdict plain) (verdict p2);
    check_stats (Printf.sprintf "%s: fingerprint domains=2 vs 4" name) (stats_of p2)
      (stats_of p4)
  in
  fp_diff "kvs put||get"
    (K.checker_config p ~max_crashes:1
       [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]);
  fp_diff "kvs async put"
    (K.checker_config p ~max_crashes:1
       [ [ K.put_async_call p 0 (bv "A"); K.flush_call p ]; [ K.get_call p 0 ] ]);
  fp_diff "journal commit || read"
    (J.checker_config ly2 ~max_crashes:1
       [ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly2 0 ] ]);
  (* seeded bugs are still caught with pruning on *)
  fp_diff "bug kvs nop recovery" ~expect_pruning:false
    (R.config ~spec:(K.spec p) ~init_world:(K.init_world p) ~crash_world:K.crash_world
       ~pp_world:K.pp_world
       ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
       ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ());
  fp_diff "bug journal record first" ~expect_pruning:false
    (J.checker_config ly2 ~max_crashes:1
       [ [ J.commit_call ly2 [ (0, b "A") ];
           J.Buggy.commit_call_record_first ly2 [ (0, b "C"); (1, b "D") ] ] ])

(* ------------------------------------------------------------------ *)
(* Obs layer under domains: exact totals                               *)
(* ------------------------------------------------------------------ *)

let test_metrics_hammer () =
  let reg = Obs.Metrics.create () in
  let n_dom = 4 and per = 20_000 in
  let doms =
    List.init n_dom (fun d ->
        Domain.spawn (fun () ->
            (* resolve through the registry inside the domain: exercises
               concurrent resolve as well as concurrent increments *)
            let c = Obs.Metrics.counter ~registry:reg "hammer_total" in
            let g = Obs.Metrics.gauge ~registry:reg "hammer_hwm" in
            let h =
              Obs.Metrics.histogram ~registry:reg ~buckets:[ 10.; 100. ] "hammer_obs"
            in
            for i = 1 to per do
              Obs.Metrics.inc c;
              Obs.Metrics.record_max g (float_of_int ((d * per) + i));
              Obs.Metrics.observe h (float_of_int (i mod 150))
            done))
  in
  List.iter Domain.join doms;
  let c = Obs.Metrics.counter ~registry:reg "hammer_total" in
  let g = Obs.Metrics.gauge ~registry:reg "hammer_hwm" in
  let h = Obs.Metrics.histogram ~registry:reg ~buckets:[ 10.; 100. ] "hammer_obs" in
  Alcotest.(check int) "counter total exact" (n_dom * per) (Obs.Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge max exact"
    (float_of_int (n_dom * per))
    (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "histogram count exact" (n_dom * per) (Obs.Metrics.hist_count h);
  let expect_sum = ref 0. in
  for i = 1 to per do
    expect_sum := !expect_sum +. float_of_int (i mod 150)
  done;
  Alcotest.(check (float 0.))
    "histogram sum exact (integer-valued observations)"
    (!expect_sum *. float_of_int n_dom)
    (Obs.Metrics.hist_sum h)

let test_coverage_hammer () =
  let was = Obs.Coverage.enabled () in
  Obs.Coverage.set_enabled true;
  Obs.Coverage.reset ();
  let n_dom = 4 and per = 10_000 in
  let doms =
    List.init n_dom (fun d ->
        Domain.spawn (fun () ->
            let site = Printf.sprintf "hammer:site%d" (d mod 2) in
            for _ = 1 to per do
              Obs.Coverage.register Obs.Coverage.Arm site;
              Obs.Coverage.hit Obs.Coverage.Arm site
            done;
            Obs.Coverage.register Obs.Coverage.Arm "hammer:never"))
  in
  List.iter Domain.join doms;
  let hits site =
    match
      List.find_opt
        (fun (k, s, _) -> k = Obs.Coverage.Arm && String.equal s site)
        (Obs.Coverage.sites ())
    with
    | Some (_, _, n) -> n
    | None -> Alcotest.failf "site %s not registered" site
  in
  (* two domains hammered each site: totals must be exact *)
  Alcotest.(check int) "site0 hits exact" (2 * per) (hits "hammer:site0");
  Alcotest.(check int) "site1 hits exact" (2 * per) (hits "hammer:site1");
  Alcotest.(check int) "never-hit site registered with 0" 0 (hits "hammer:never");
  Obs.Coverage.reset ();
  Obs.Coverage.set_enabled was

(* ------------------------------------------------------------------ *)
(* check_random under domains                                          *)
(* ------------------------------------------------------------------ *)

let random_bug_cfg =
  (* zeroing recovery + crash coins flipped during recovery too: the same
     seeded bug the random-check suite replays (known to fail at seed 123) *)
  R.config ~spec:(Rd.spec 1)
    ~init_world:(Rd.init_world ~may_fail:false 1)
    ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
    ~threads:[ [ Rd.write_call 0 (V.str "x") ] ]
    ~recovery:(Rd.Buggy.recover_zero 1) ~post:(Rd.probe 1) ~max_crashes:2 ()

let random_honest_cfg =
  K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]

let test_random_domains () =
  let schedules = 500 and seed = 123 and crash_prob = 0.2 in
  let run domains = R.check_random ~schedules ~seed ~crash_prob ?domains random_bug_cfg in
  let seq = run None in
  let reason_of name = function
    | R.Refinement_violated (f, _) -> f.R.reason
    | r -> Alcotest.failf "%s: expected random violation, got %s" name (verdict r)
  in
  let seq_reason = reason_of "sequential" seq in
  (* the sequential first failure is the lowest-index failing walk, which is
     exactly what every parallel run must report *)
  let d1 = run (Some 1) in
  List.iter
    (fun n ->
      let r = run (Some n) in
      Alcotest.(check string)
        (Printf.sprintf "random reason at domains=%d" n)
        seq_reason
        (reason_of (Printf.sprintf "domains=%d" n) r);
      check_stats (Printf.sprintf "random stats domains=%d vs 1" n) (stats_of d1)
        (stats_of r))
    [ 2; 4 ];
  (* the reason prefix alone replays the failure *)
  let schedule =
    Scanf.sscanf seq_reason "[seed=%d schedule=%d/%d]" (fun _ i _ -> i)
  in
  match R.check_random_replay ~schedules ~seed ~crash_prob ~schedule random_bug_cfg with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check string) "replayed reason" seq_reason f.R.reason
  | r -> Alcotest.failf "replay: expected violation, got %s" (verdict r)

let test_random_domains_honest () =
  let run domains =
    R.check_random ~schedules:40 ~seed:11 ~crash_prob:0.2 ?domains random_honest_cfg
  in
  let seq = run None in
  Alcotest.(check string) "honest random holds" "holds" (verdict seq);
  (* with no failing walk the sequential and parallel runs do the same
     work, so even the stats line up across all modes *)
  List.iter
    (fun n -> check_stats (Printf.sprintf "honest random domains=%d" n) (stats_of seq)
        (stats_of (run (Some n))))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "domains: pattern systems" `Quick test_domains_systems;
    Alcotest.test_case "domains: journal + kvs" `Quick test_domains_journal_kvs;
    Alcotest.test_case "domains: fs" `Quick test_domains_fs;
    Alcotest.test_case "domains: rd seeded bugs" `Quick test_domains_bugs_rd;
    Alcotest.test_case "domains: wal/shadow seeded bugs" `Quick
      test_domains_bugs_wal_shadow;
    Alcotest.test_case "domains: journal/kvs seeded bugs" `Quick
      test_domains_bugs_journal_kvs;
    Alcotest.test_case "domains: fault schedules" `Quick test_domains_faults;
    Alcotest.test_case "domains: golden counterexamples" `Quick test_domains_golden;
    Alcotest.test_case "domains: argument validation" `Quick test_bad_arguments;
    QCheck_alcotest.to_alcotest prop_world_injective;
    QCheck_alcotest.to_alcotest prop_digest_stable;
    Alcotest.test_case "fingerprint: differential vs plain" `Quick
      test_fingerprint_differential;
    Alcotest.test_case "obs: metrics 4-domain hammer" `Quick test_metrics_hammer;
    Alcotest.test_case "obs: coverage 4-domain hammer" `Quick test_coverage_hammer;
    Alcotest.test_case "random: domains determinism + replay" `Quick test_random_domains;
    Alcotest.test_case "random: domains honest stats" `Quick test_random_domains_honest;
  ]
