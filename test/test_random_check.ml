(* Tests for the randomized refinement checker: it must agree with the
   exhaustive checker on small instances (pass the honest systems, catch the
   seeded bugs) and scale to instances the exhaustive checker cannot touch. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module Rd = Systems.Replicated_disk
module M = Mailboat.Core

let expect_holds name result =
  match result with
  | R.Refinement_holds stats ->
    Alcotest.(check bool) (name ^ ": walked some executions") true (stats.R.executions > 0)
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" name R.pp_failure f
  | R.Budget_exhausted stats -> Alcotest.failf "%s: budget (%a)" name R.pp_stats stats

let expect_violation name result =
  match result with
  | R.Refinement_violated _ -> ()
  | R.Refinement_holds stats -> Alcotest.failf "%s: missed (%a)" name R.pp_stats stats
  | R.Budget_exhausted stats -> Alcotest.failf "%s: budget (%a)" name R.pp_stats stats

let test_random_rd_holds () =
  expect_holds "rd random"
    (R.check_random ~schedules:300 ~crash_prob:0.1
       (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
          [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "b") ] ]))

let test_random_catches_zero_recovery () =
  expect_violation "rd zero recovery random"
    (R.check_random ~schedules:500 ~crash_prob:0.2
       (R.config ~spec:(Rd.spec 1)
          ~init_world:(Rd.init_world ~may_fail:false 1)
          ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
          ~threads:[ [ Rd.write_call 0 (V.str "x") ] ]
          ~recovery:(Rd.Buggy.recover_zero 1) ~post:(Rd.probe 1) ~max_crashes:1 ()))

let test_random_catches_unlocked_writes () =
  expect_violation "rd unlocked writes random"
    (R.check_random ~schedules:800 ~crash_prob:0.0
       (R.config ~spec:(Rd.spec 1)
          ~init_world:(Rd.init_world ~may_fail:true 1)
          ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
          ~threads:
            [ [ Rd.Buggy.write_call_unlocked 0 (V.str "a") ];
              [ Rd.Buggy.write_call_unlocked 0 (V.str "b") ] ]
          ~recovery:(Rd.recover_prog 1) ~post:(Rd.probe 1) ~max_crashes:0 ()))

let test_random_scales_beyond_exhaustive () =
  (* 4 delivers (2 sequential + 2 concurrent) + a pickup session across 2
     users with crash injection: beyond the exhaustive checker's reach,
     fine for 200 random walks.  At most two delivers are in flight at a
     time, matching the 2-name spool universe of the model. *)
  expect_holds "mailboat large instance"
    (R.check_random ~schedules:200 ~crash_prob:0.05
       (M.checker_config ~users:2 ~max_crashes:1
          [ [ M.deliver_call 0 "ab"; M.deliver_call 0 "cd" ];
            [ M.deliver_call 1 "ef"; M.pickup_call 0; M.unlock_call 0 ];
            [ M.pickup_call 1; M.unlock_call 1 ] ]))

let test_random_catches_unspooled_large () =
  expect_violation "mailboat unspooled random"
    (R.check_random ~schedules:600 ~crash_prob:0.1
       (M.checker_config ~users:1 ~max_crashes:1
          [ [ M.Buggy.deliver_call_unspooled 0 "abcd" ];
            [ M.pickup_call 0; M.unlock_call 0 ] ]))

let test_random_deterministic_given_seed () =
  let run () =
    R.check_random ~schedules:50 ~seed:42
      (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
         [ [ Rd.write_call 0 (V.str "a") ] ])
  in
  match run (), run () with
  | R.Refinement_holds s1, R.Refinement_holds s2 ->
    Alcotest.(check int) "same steps" s1.R.steps s2.R.steps
  | _ -> Alcotest.fail "expected both runs to hold"

let test_random_failure_names_seed_and_schedule () =
  (* Regression: a randomized counterexample must say which seed and which
     schedule index produced it, so the walk can be replayed exactly. *)
  match
    R.check_random ~schedules:500 ~seed:123 ~crash_prob:0.2
      (R.config ~spec:(Rd.spec 1)
         ~init_world:(Rd.init_world ~may_fail:false 1)
         ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
         ~threads:[ [ Rd.write_call 0 (V.str "x") ] ]
         ~recovery:(Rd.Buggy.recover_zero 1) ~post:(Rd.probe 1) ~max_crashes:1 ())
  with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check bool) "reason names the seed" true
      (Astring_contains.contains f.R.reason "seed=123");
    Alcotest.(check bool) "reason names the schedule index" true
      (Astring_contains.contains f.R.reason "schedule=");
    Alcotest.(check bool) "reason names the schedule budget" true
      (Astring_contains.contains f.R.reason "/500]")
  | R.Refinement_holds stats -> Alcotest.failf "missed (%a)" R.pp_stats stats
  | R.Budget_exhausted stats -> Alcotest.failf "budget (%a)" R.pp_stats stats

let test_random_replay_round_trip () =
  (* A failure tagged [seed=S schedule=I/N] must replay from those numbers
     alone: check_random_replay on walk I reproduces the identical failure —
     reason, trace and all — without re-running walks 1..I-1.  The buggy
     config crashes during recovery (crash_prob 0.2, max_crashes 2), so this
     also covers the recovery-phase RNG draws. *)
  let cfg () =
    R.config ~spec:(Rd.spec 1)
      ~init_world:(Rd.init_world ~may_fail:false 1)
      ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
      ~threads:[ [ Rd.write_call 0 (V.str "x") ] ]
      ~recovery:(Rd.Buggy.recover_zero 1) ~post:(Rd.probe 1) ~max_crashes:2 ()
  in
  match R.check_random ~schedules:500 ~seed:123 ~crash_prob:0.2 (cfg ()) with
  | R.Refinement_violated (f, _) ->
    let schedule =
      (* parse the I out of "[seed=123 schedule=I/500] ..." *)
      Scanf.sscanf f.R.reason "[seed=%d schedule=%d/%d]" (fun _ i _ -> i)
    in
    (match
       R.check_random_replay ~schedules:500 ~seed:123 ~crash_prob:0.2 ~schedule (cfg ())
     with
    | R.Refinement_violated (f', _) ->
      Alcotest.(check string) "same reason" f.R.reason f'.R.reason;
      Alcotest.(check (list string))
        "same trace"
        (List.map R.event_text f.R.events)
        (List.map R.event_text f'.R.events)
    | R.Refinement_holds stats ->
      Alcotest.failf "replay missed the failure (%a)" R.pp_stats stats
    | R.Budget_exhausted stats -> Alcotest.failf "replay budget (%a)" R.pp_stats stats)
  | R.Refinement_holds stats -> Alcotest.failf "missed (%a)" R.pp_stats stats
  | R.Budget_exhausted stats -> Alcotest.failf "budget (%a)" R.pp_stats stats

let test_random_wal_with_deep_crashes () =
  expect_holds "wal deep crashes"
    (R.check_random ~schedules:300 ~crash_prob:0.15
       (Systems.Wal.checker_config ~max_crashes:3
          [ [ Systems.Wal.write_call (V.str "a") (V.str "b");
              Systems.Wal.write_call (V.str "c") (V.str "d") ] ]))

let suite =
  [
    Alcotest.test_case "random: rd holds" `Quick test_random_rd_holds;
    Alcotest.test_case "random: catches zeroing recovery" `Quick test_random_catches_zero_recovery;
    Alcotest.test_case "random: catches unlocked writes" `Quick test_random_catches_unlocked_writes;
    Alcotest.test_case "random: scales beyond exhaustive" `Quick test_random_scales_beyond_exhaustive;
    Alcotest.test_case "random: catches unspooled deliver" `Quick test_random_catches_unspooled_large;
    Alcotest.test_case "random: deterministic given seed" `Quick test_random_deterministic_given_seed;
    Alcotest.test_case "random: failure names seed+schedule" `Quick
      test_random_failure_names_seed_and_schedule;
    Alcotest.test_case "random: replay round-trip" `Quick test_random_replay_round_trip;
    Alcotest.test_case "random: wal with 3 crashes" `Quick test_random_wal_with_deep_crashes;
  ]
