(* The fault-injection layer end to end:
   - [Fault.enumerate]: determinism, duplicate-freedom (qcheck), budget
     semantics;
   - the runner's injection oracle ([?fault_schedule]);
   - exhaustive fault×crash refinement for the retry/degradation paths of
     the replicated disk, the journal and the KV store (fault budget 2);
   - the three seeded fault-handling bugs, each caught with the injected
     fault visible in the counterexample;
   - one golden fault counterexample, byte-for-byte identical under all
     three exploration strategies;
   - the random walker injecting declared faults while a walk's budget
     lasts, and counting retries;
   - the [?max_seconds] wall-clock budget, for [check] and
     [check_random]. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module F = Sched.Fault
module RD = Systems.Replicated_disk
module J = Journal.Txn_log
module K = Journal.Kvs
module Block = Disk.Block

let b = Block.of_string
let bv s = Block.to_value (b s)

let expect_holds name = function
  | R.Refinement_holds stats -> stats
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" name R.pp_failure f
  | R.Budget_exhausted stats ->
    Alcotest.failf "%s: budget exhausted (%a)" name R.pp_stats stats

let expect_violated name = function
  | R.Refinement_violated (f, _) -> f
  | R.Refinement_holds stats -> Alcotest.failf "%s: bug not caught (%a)" name R.pp_stats stats
  | R.Budget_exhausted stats ->
    Alcotest.failf "%s: budget exhausted (%a)" name R.pp_stats stats

(* ------------------------------------------------------------------ *)
(* Schedule enumeration                                                 *)
(* ------------------------------------------------------------------ *)

let test_enumerate_budget () =
  (* budget 0: only the empty schedule, whatever the sites *)
  Alcotest.(check int) "budget 0" 1
    (List.length (F.enumerate ~budget:0 [ (0, [ F.Read_error ]); (1, [ F.Write_error ]) ]));
  (* one site, one kind: empty + the injection *)
  Alcotest.(check int) "one site" 2
    (List.length (F.enumerate ~budget:1 [ (0, [ F.Read_error ]) ]));
  (* two sites x two kinds, budget 1: empty + 4 singletons *)
  let sites = [ (0, [ F.Read_error; F.Write_error ]); (1, [ F.Read_error; F.Write_error ]) ] in
  Alcotest.(check int) "budget 1" 5 (List.length (F.enumerate ~budget:1 sites));
  (* budget 2 adds the 4 cross-site pairs *)
  Alcotest.(check int) "budget 2" 9 (List.length (F.enumerate ~budget:2 sites));
  (* the empty schedule comes first *)
  Alcotest.(check bool) "empty first" true (List.hd (F.enumerate ~budget:2 sites) = [])

let site_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (pair (int_bound 5)
         (list_size (int_bound 3)
            (oneofl [ F.Read_error; F.Write_error; F.Torn_write 1; F.Disk_offline ]))))

let prop_enumerate_deterministic =
  QCheck.Test.make ~count:200 ~name:"fault enumeration deterministic"
    (QCheck.make site_gen) (fun sites ->
      let a = F.enumerate ~budget:2 sites in
      let b = F.enumerate ~budget:2 sites in
      List.equal (fun x y -> F.compare_schedule x y = 0) a b)

let prop_enumerate_duplicate_free =
  QCheck.Test.make ~count:200 ~name:"fault enumeration duplicate-free"
    (QCheck.make site_gen) (fun sites ->
      let a = F.enumerate ~budget:2 sites in
      List.length (List.sort_uniq F.compare_schedule a) = List.length a)

(* ------------------------------------------------------------------ *)
(* The runner's injection oracle                                        *)
(* ------------------------------------------------------------------ *)

let test_runner_oracle () =
  let w = RD.init_world 1 in
  (* no schedule: the fallible read behaves like the plain one *)
  let o = Sched.Runner.run w [ RD.read_ft_prog 0 ] in
  Alcotest.(check bool) "clean run reads zero" true (o.Sched.Runner.results.(0) = bv "0");
  Alcotest.(check bool) "no faults fired" true (o.Sched.Runner.injected = []);
  (* inject Read_error at the first fault site: the op retries and succeeds *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Read_error } ] w
      [ RD.read_ft_prog 0 ]
  in
  Alcotest.(check bool) "retried read still succeeds" true (o.Sched.Runner.results.(0) = bv "0");
  Alcotest.(check bool) "one fault fired" true
    (o.Sched.Runner.injected = [ (0, F.Read_error) ]);
  (* injections naming an undeclared kind are skipped *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Torn_write 7 } ] w
      [ RD.read_ft_prog 0 ]
  in
  Alcotest.(check bool) "undeclared kind skipped" true (o.Sched.Runner.injected = [])

(* ------------------------------------------------------------------ *)
(* Retry/degradation paths hold under exhaustive fault x crash          *)
(* ------------------------------------------------------------------ *)

let test_rd_ft_holds () =
  let stats =
    expect_holds "rd ft read || write, faults 2, 1 crash"
      (R.check
         (RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
            [ [ RD.write_ft_call 0 (bv "x") ]; [ RD.read_ft_call 0 ] ]))
  in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "distinct schedules counted" true (stats.R.fault_schedules > 1);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0)

let ly2 = J.layout ~n_data:2 ~max_slots:2

let test_journal_ft_holds () =
  let stats =
    expect_holds "journal commit_ft || read_ft, faults 2, 1 crash"
      (R.check
         (J.checker_config ly2 ~max_crashes:1 ~fault_budget:2
            [ [ J.commit_ft_call ly2 [ (0, b "A"); (1, b "B") ] ]; [ J.read_ft_call ly2 0 ] ]))
  in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0)

let p = K.params ~n_keys:2 ()

let test_kvs_ft_holds () =
  let stats =
    expect_holds "kvs put_ft + get_ft, faults 2, 1 crash"
      (R.check
         (K.checker_config p ~max_crashes:1 ~fault_budget:2
            [ [ K.put_ft_call p 0 (bv "A"); K.get_ft_call p 0 ] ]))
  in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0)

(* The fault branches compose with DPOR: every strategy agrees with naive
   on the verdict for the fault-tolerant instances. *)
let test_ft_strategies_agree () =
  List.iter
    (fun strategy ->
      ignore
        (expect_holds
           (Printf.sprintf "rd ft under %s" (E.strategy_name strategy))
           (R.check ~strategy
              (RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
                 [ [ RD.write_ft_call 0 (bv "x") ]; [ RD.read_ft_call 0 ] ]))))
    E.all_strategies

(* ------------------------------------------------------------------ *)
(* Seeded fault-handling bugs                                           *)
(* ------------------------------------------------------------------ *)

let assert_fault_in_lanes name f =
  let lanes = Fmt.str "%a" R.pp_failure_lanes f in
  Alcotest.(check bool)
    (name ^ ": injected fault visible in lanes")
    true
    (Astring_contains.contains lanes "FAULT")

(* Bug #1: a transient read error answered from the zero-filled buffer
   instead of retrying — one Read_error against non-zero data refutes it. *)
let test_rd_no_retry_caught () =
  let f =
    expect_violated "rd retry-without-re-read"
      (R.check
         (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
            [ [ RD.write_call 0 (bv "x"); RD.Buggy.read_ft_call_no_retry 0 ] ]))
  in
  assert_fault_in_lanes "rd retry-without-re-read" f

(* Bug #2: a torn log write treated as committed — the record points at
   half-written slots, and a crash makes recovery replay the garbage. *)
let test_journal_torn_commit_caught () =
  let f =
    expect_violated "journal torn commit record"
      (R.check
         (J.checker_config ly2 ~max_crashes:1 ~fault_budget:1
            [ [ J.Buggy.commit_ft_call_ignore_torn ly2 [ (0, b "A"); (1, b "B") ] ] ]))
  in
  assert_fault_in_lanes "journal torn commit record" f

(* Bug #3: a write error swallowed mid-apply — the put reports success with
   the key never written and recovery already disarmed. *)
let test_kvs_swallow_apply_caught () =
  let f =
    expect_violated "kvs error swallowed after partial apply"
      (R.check
         (K.checker_config p ~max_crashes:0 ~fault_budget:1
            [ [ K.Buggy.put_ft_call_swallow_apply p 0 (bv "A"); K.get_call p 0 ] ]))
  in
  assert_fault_in_lanes "kvs error swallowed after partial apply" f

(* All three bugs are strategy-independent. *)
let test_bugs_all_strategies () =
  List.iter
    (fun strategy ->
      let name s = Printf.sprintf "%s under %s" s (E.strategy_name strategy) in
      ignore
        (expect_violated (name "rd no-retry")
           (R.check ~strategy
              (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
                 [ [ RD.write_call 0 (bv "x"); RD.Buggy.read_ft_call_no_retry 0 ] ])));
      ignore
        (expect_violated (name "journal torn commit")
           (R.check ~strategy
              (J.checker_config ly2 ~max_crashes:1 ~fault_budget:1
                 [ [ J.Buggy.commit_ft_call_ignore_torn ly2 [ (0, b "A"); (1, b "B") ] ] ])));
      ignore
        (expect_violated (name "kvs swallowed apply error")
           (R.check ~strategy
              (K.checker_config p ~max_crashes:0 ~fault_budget:1
                 [ [ K.Buggy.put_ft_call_swallow_apply p 0 (bv "A"); K.get_call p 0 ] ]))))
    E.all_strategies

(* The random walker sees disk faults too: while a walk's fault budget
   lasts, a step's declared faults are alternatives of its outcome pick.
   Seed 17 catches the retry-without-re-read bug within 20 walks, and the
   retry steps of the honest ops show up in the walk stats. *)
let test_rd_no_retry_caught_by_walks () =
  let f =
    expect_violated "rd retry-without-re-read, random walks"
      (R.check_random ~seed:17 ~schedules:20
         (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
            [ [ RD.write_call 0 (bv "x"); RD.Buggy.read_ft_call_no_retry 0 ] ]))
  in
  assert_fault_in_lanes "rd retry-without-re-read, random walks" f;
  let stats =
    expect_holds "rd ft write || ft read, random walks"
      (R.check_random ~seed:17 ~schedules:200
         (RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
            [ [ RD.write_ft_call 0 (bv "x") ]; [ RD.read_ft_call 0 ] ]))
  in
  Alcotest.(check bool) "walks inject faults" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "walks observe retries" true (stats.R.retries_observed > 0)

(* ------------------------------------------------------------------ *)
(* Golden fault counterexample (both strategies)                        *)
(* ------------------------------------------------------------------ *)

let test_golden_fault_counterexample () =
  List.iter
    (fun strategy ->
      let f =
        expect_violated
          (Printf.sprintf "rd no-retry under %s" (E.strategy_name strategy))
          (R.check ~strategy
             (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
                [ [ RD.write_call 0 (bv "x"); RD.Buggy.read_ft_call_no_retry 0 ] ]))
      in
      let pin what ext got =
        Alcotest.(check string)
          (Printf.sprintf "rd_fault_no_retry %s under %s" what (E.strategy_name strategy))
          (Test_explore.read_golden ("rd_fault_no_retry" ^ ext))
          got
      in
      pin "lanes" ".lanes.txt" (Fmt.str "%a" R.pp_failure_lanes f);
      pin "flat text" ".failure.txt" (Fmt.str "%a" R.pp_failure f);
      pin "chrome export" ".chrome.json" (Obs.Json.to_string (R.failure_chrome f)))
    E.all_strategies

(* ------------------------------------------------------------------ *)
(* Wall-clock budget                                                    *)
(* ------------------------------------------------------------------ *)

let test_max_seconds () =
  (* a zero budget exhausts on the first poll of a non-trivial instance *)
  (match
     R.check ~max_seconds:0.
       (RD.checker_config ~size:2 ~max_crashes:1
          [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ])
   with
  | R.Budget_exhausted _ -> ()
  | R.Refinement_holds _ | R.Refinement_violated _ ->
    Alcotest.fail "expected Budget_exhausted under max_seconds:0.");
  (* check_exn surfaces it with the Budget_exhausted: prefix *)
  (try
     ignore
       (R.check_exn ~max_seconds:0.
          (RD.checker_config ~size:2 ~max_crashes:1
             [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ]));
     Alcotest.fail "expected Failure"
   with Failure msg ->
     Alcotest.(check bool) "prefixed" true (Astring_contains.contains msg "Budget_exhausted:"));
  (* a generous budget changes nothing *)
  ignore
    (expect_holds "holds under generous max_seconds"
       (R.check ~max_seconds:300.
          (RD.checker_config ~size:1 ~max_crashes:0 [ [ RD.read_call 0 ] ])))

(* The random checker polls the same wall-clock budget, from the config. *)
let test_max_seconds_random () =
  match
    R.check_random ~schedules:200
      {
        (RD.checker_config ~size:2 ~max_crashes:1
           [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ])
        with
        R.max_seconds = Some 0.;
      }
  with
  | R.Budget_exhausted _ -> ()
  | R.Refinement_holds _ | R.Refinement_violated _ ->
    Alcotest.fail "expected check_random Budget_exhausted under max_seconds = 0."

let suite =
  [
    Alcotest.test_case "enumerate: budget semantics" `Quick test_enumerate_budget;
    QCheck_alcotest.to_alcotest prop_enumerate_deterministic;
    QCheck_alcotest.to_alcotest prop_enumerate_duplicate_free;
    Alcotest.test_case "runner: injection oracle" `Quick test_runner_oracle;
    Alcotest.test_case "rd: ft ops hold (faults 2, crash)" `Quick test_rd_ft_holds;
    Alcotest.test_case "journal: ft commit holds (faults 2, crash)" `Quick
      test_journal_ft_holds;
    Alcotest.test_case "kvs: ft ops hold (faults 2, crash)" `Quick test_kvs_ft_holds;
    Alcotest.test_case "ft: all strategies agree" `Quick test_ft_strategies_agree;
    Alcotest.test_case "bug: rd retry-without-re-read caught" `Quick test_rd_no_retry_caught;
    Alcotest.test_case "bug: torn commit record caught" `Quick test_journal_torn_commit_caught;
    Alcotest.test_case "bug: swallowed apply error caught" `Quick test_kvs_swallow_apply_caught;
    Alcotest.test_case "bugs: caught under every strategy" `Quick test_bugs_all_strategies;
    Alcotest.test_case "bug: rd retry-without-re-read caught by walks" `Quick
      test_rd_no_retry_caught_by_walks;
    Alcotest.test_case "golden: fault counterexample" `Quick test_golden_fault_counterexample;
    Alcotest.test_case "max_seconds: wall-clock budget" `Quick test_max_seconds;
    Alcotest.test_case "max_seconds: random checker" `Quick test_max_seconds_random;
  ]
