(* The checker workloads: fixed refinement instances with known verdicts,
   timed end to end through the public Refinement entry points. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore

type expect = Holds | Caught

type instance = {
  name : string;
  expect : expect;
  walks : int;  (** 0 for an exhaustive check *)
  run : traced:bool -> R.result;
}

let instrument ~traced cfg = if traced then Probe.config cfg else cfg

let exhaustive ?(strategy = E.Naive) ?faults ?(fingerprint = false) name expect cfg =
  { name; expect; walks = 0; run = (fun ~traced -> R.check ~strategy ?faults ~fingerprint (instrument ~traced cfg)) }

let random ~walks ~seed name cfg =
  { name; expect = Holds; walks; run = (fun ~traced -> R.check_random ~schedules:walks ~seed (instrument ~traced cfg)) }

(* The nine instances of the net selection of perennial_check, with the
   same per-instance network-event budgets (1, or 0 for the lease ones). *)
let net_dpor ~seed:_ =
  let module SK = Dist.Shard_kv in
  let check ?(faults = 1) name expect cfg = exhaustive ~strategy:E.Dpor_sleep ~faults name expect cfg in
  let p1 = SK.params ~n_keys:1 ~n_clients:1 () in
  let p2 = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
  let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  let px = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 () in
  let pl = SK.params ~n_keys:1 ~n_clients:2 () in
  let ph = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  [
    check "exactly-once inc + crash" Holds
      (SK.checker_config p1 ~max_crashes:1 ~fault_budget:1
         [ [ SK.ninc_call p1 ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p1 0 ] ]);
    check "2-client contention" Holds
      (SK.checker_config p2 ~max_crashes:0 ~fault_budget:1
         [
           [ SK.ninc_call p2 ~client:0 ~seq:0 0; SK.bye_call ];
           [ SK.ninc_call p2 ~client:1 ~seq:0 0; SK.bye_call ];
           [ SK.srv_call p2 0 ];
         ]);
    check "retry storm" Holds
      (SK.checker_config pr ~max_crashes:0 ~fault_budget:1
         [
           [ SK.nput_call pr ~client:0 ~seq:0 0 (V.str "A"); SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B"); SK.bye_call ];
           [ SK.srv_call pr 0 ];
         ]);
    check "cross-shard put/get" Holds
      (SK.checker_config px ~max_crashes:0 ~fault_budget:1
         [
           [ SK.nput_call px ~client:0 ~seq:0 0 (V.str "A"); SK.nget_call px ~client:0 ~seq:1 1; SK.bye_call ];
           [ SK.srv_call px 0 ];
           [ SK.srv_call px 1 ];
         ]);
    check ~faults:0 "lease: 2 holders + expiry + crash" Holds
      (SK.checker_config pl ~max_crashes:1 ~fault_budget:0
         [ [ SK.linc_call pl ~client:0 0 ]; [ SK.linc_call pl ~client:1 0 ]; [ SK.expire_call ] ]);
    check "hosted shard-kv + crash" Holds
      (SK.Hosted.checker_config ph ~max_crashes:1 ~fault_budget:1
         [ [ SK.Hosted.nput_call ph ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ]; [ SK.Hosted.srv_call ph 0 ] ]);
    check "seeded: no reply cache" Caught
      (SK.checker_config p0 ~max_crashes:0 ~fault_budget:1
         [ [ SK.Buggy.srv_call_no_cache p0 0 ]; [ SK.ninc_call p0 ~client:0 ~seq:0 0; SK.bye_call ] ]);
    check "seeded: raw retry without seq" Caught
      (SK.checker_config pr ~max_crashes:0 ~fault_budget:1
         [
           [ SK.srv_call pr 0 ];
           [ SK.Buggy.nput_call_raw_retry pr ~client:0 ~seq:0 0 (V.str "A"); SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B"); SK.bye_call ];
         ]);
    check ~faults:0 "seeded: lease without epoch fence" Caught
      (SK.checker_config pl ~max_crashes:0 ~fault_budget:0
         [
           [ SK.Buggy.linc_call_no_fence pl ~client:0 0 ];
           [ SK.Buggy.linc_call_no_fence pl ~client:1 0 ];
           [ SK.expire_call ];
         ]);
  ]

let random_walks = 2_000

let mailboat_naive ~seed =
  let module M = Mailboat.Core in
  [
    exhaustive "deliver || deliver" Holds
      (M.checker_config ~users:1 ~max_crashes:0 [ [ M.deliver_call 0 "ab" ]; [ M.deliver_call 0 "cd" ] ]);
    random ~walks:random_walks ~seed "deliver || deliver || pickup, random walks"
      (M.checker_config ~users:2 ~max_crashes:1
         [ [ M.deliver_call 0 "ab" ]; [ M.deliver_call 1 "cd" ]; [ M.pickup_call 0; M.unlock_call 0 ] ]);
  ]

let fs_crash_faults ~seed:_ =
  let module Fs = Perennial_fs.Fs in
  let p = Fs.params (Perennial_fs.Layout.v ~n_inodes:5 ~n_blocks:6 ()) in
  [
    exhaustive ~faults:2 ~fingerprint:true "create_ft || append_ft || create_ft" Holds
      (Fs.checker_config p ~dirs:[ "a" ]
         ~files:[ ("a", "f", "xy") ]
         ~post:(Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g"); ("a", "h") ])
         ~max_crashes:2
         [ [ Fs.create_ft_call p "a" "g" ]; [ Fs.append_ft_call p "a" "f" "y" ]; [ Fs.create_ft_call p "a" "h" ] ]);
  ]

let stats_of = function R.Refinement_holds s | R.Refinement_violated (_, s) | R.Budget_exhausted s -> s

let verdict_ok i r =
  match (i.expect, r) with
  | Holds, R.Refinement_holds _ | Caught, R.Refinement_violated _ -> true
  | _, (R.Refinement_holds _ | R.Refinement_violated _ | R.Budget_exhausted _) -> false
