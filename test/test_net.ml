(* The network adversary and the exactly-once RPC stack end to end:
   - the [Net] channel-state model (canonical queues, crash clearing);
   - the [Net.kind] embedding into [Fault.kind] and the runner's
     injection oracle replaying network schedules;
   - [Net.enumerate]: determinism, duplicate-freedom, budget monotonicity
     and dimension independence (qcheck);
   - exhaustive network x crash refinement for the exactly-once contract:
     retries, reply-cache hits, contention, cross-shard routing, the
     epoch-fenced lease RMW, and the journal-hosted shards;
   - verdict/stats/lane agreement across both strategies and domain
     counts 1/2/4;
   - the three seeded network bugs, each caught with committed golden
     lanes.

   Instance sizes are tuned: configs with three or more threads use
   [retries:0] clients (a timeout degrades to the spec's err arm instead
   of branching into a retry storm), which keeps every check exhaustive
   in seconds while the 1-client flagship keeps [retries:1] and exercises
   the full retry/timeout/backoff surface. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module F = Sched.Fault
module P = Sched.Prog
module Net = Sched.Net
module C = Obs.Coverage
module SK = Dist.Shard_kv

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
(* Channel state model                                                  *)
(* ------------------------------------------------------------------ *)

let test_state_model () =
  Alcotest.(check bool) "empty is empty" true (Net.is_empty Net.empty);
  let s = Net.send "a" (V.int 1) Net.empty in
  let s = Net.send "a" (V.int 2) s in
  let s = Net.send "b" (V.int 3) s in
  Alcotest.(check int) "two queued on a" 2 (Net.length "a" s);
  Alcotest.(check int) "one queued on b" 1 (Net.length "b" s);
  Alcotest.(check bool) "peek is FIFO head" true (Net.peek "a" s = Some (V.int 1));
  Alcotest.(check (list string)) "channels sorted" [ "a"; "b" ] (Net.channels s);
  (match Net.recv "a" s with
  | Some (m, s') ->
    Alcotest.(check bool) "recv head" true (m = V.int 1);
    Alcotest.(check int) "tail remains" 1 (Net.length "a" s')
  | None -> Alcotest.fail "recv on non-empty channel");
  (match Net.recv_at "a" 1 s with
  | Some (m, s') ->
    Alcotest.(check bool) "recv_at skips head" true (m = V.int 2);
    Alcotest.(check bool) "head still queued" true (Net.peek "a" s' = Some (V.int 1))
  | None -> Alcotest.fail "recv_at 1 on a 2-deep channel");
  Alcotest.(check bool) "recv on absent channel" true (Net.recv "zzz" s = None);
  (* canonical form: a drained channel disappears, so structural equality
     is semantic equality *)
  let s1 = Net.send "c" (V.int 9) Net.empty in
  (match Net.recv "c" s1 with
  | Some (_, s2) -> Alcotest.(check bool) "drained = empty" true (Net.equal s2 Net.empty)
  | None -> Alcotest.fail "recv c");
  (* crash: every in-flight message is lost *)
  Alcotest.(check bool) "clear = empty" true (Net.equal (Net.clear s) Net.empty)

let test_kind_embedding () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("roundtrip " ^ Net.kind_name k)
        true
        (Net.of_fault (Net.to_fault k) = Some k))
    [ Net.Drop; Net.Dup; Net.Reorder 1; Net.Reorder 3; Net.Delay ];
  Alcotest.(check bool) "storage faults are not network kinds" true
    (Net.of_fault F.Read_error = None);
  Alcotest.(check bool) "schedule embedding preserves sites" true
    (Net.to_fault_schedule [ { Net.at = 2; kind = Net.Dup }; { Net.at = 0; kind = Net.Drop } ]
    = [ { F.at = 2; kind = F.Msg_dup }; { F.at = 0; kind = F.Msg_drop } ])

(* ------------------------------------------------------------------ *)
(* Schedule enumeration                                                 *)
(* ------------------------------------------------------------------ *)

let test_enumerate_budget () =
  (* budget 0: only the empty schedule *)
  Alcotest.(check int) "budget 0" 1
    (List.length (Net.enumerate ~budget:0 [ (0, [ Net.Drop ]); (1, [ Net.Dup ]) ]));
  (* one site, one kind: empty + the injection *)
  Alcotest.(check int) "one site" 2 (List.length (Net.enumerate ~budget:1 [ (0, [ Net.Drop ]) ]));
  (* two sites x two kinds, budget 1: empty + 4 singletons *)
  let sites = [ (0, [ Net.Drop; Net.Dup ]); (1, [ Net.Drop; Net.Dup ]) ] in
  Alcotest.(check int) "budget 1" 5 (List.length (Net.enumerate ~budget:1 sites));
  (* budget 2 adds the 4 cross-site pairs *)
  Alcotest.(check int) "budget 2" 9 (List.length (Net.enumerate ~budget:2 sites));
  Alcotest.(check bool) "empty first" true (List.hd (Net.enumerate ~budget:2 sites) = [])

let net_site_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (pair (int_bound 5)
         (list_size (int_bound 3) (oneofl [ Net.Drop; Net.Dup; Net.Reorder 1; Net.Delay ]))))

let prop_enumerate_deterministic =
  QCheck.Test.make ~count:200 ~name:"net enumeration deterministic"
    (QCheck.make net_site_gen) (fun sites ->
      let a = Net.enumerate ~budget:2 sites in
      let b = Net.enumerate ~budget:2 sites in
      List.equal (fun x y -> Net.compare_schedule x y = 0) a b)

let prop_enumerate_duplicate_free =
  QCheck.Test.make ~count:200 ~name:"net enumeration duplicate-free"
    (QCheck.make net_site_gen) (fun sites ->
      let a = Net.enumerate ~budget:2 sites in
      List.length (List.sort_uniq Net.compare_schedule a) = List.length a)

let prop_enumerate_budget_monotone =
  QCheck.Test.make ~count:200 ~name:"net enumeration budget-monotone"
    (QCheck.make net_site_gen) (fun sites ->
      let small = Net.enumerate ~budget:1 sites in
      let large = Net.enumerate ~budget:2 sites in
      List.for_all
        (fun s -> List.exists (fun t -> Net.compare_schedule s t = 0) large)
        small)

(* Each adversary dimension contributes independently: the singleton
   schedules at budget 1 are exactly the distinct (site, kind) pairs of
   the canonicalized input (sites de-duplicated by index, kinds per
   site), no kind masking or merging with another. *)
let prop_enumerate_dimensions_independent =
  QCheck.Test.make ~count:200 ~name:"net enumeration dimensions independent"
    (QCheck.make net_site_gen) (fun sites ->
      let singletons =
        List.filter (fun s -> List.length s = 1) (Net.enumerate ~budget:1 sites)
      in
      let canonical =
        List.sort_uniq
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.map (fun (at, ks) -> (at, List.sort_uniq Net.compare_kind ks)) sites)
      in
      let pairs =
        List.concat_map (fun (at, kinds) -> List.map (fun k -> (at, k)) kinds) canonical
      in
      List.length singletons = List.length pairs
      && List.for_all
           (fun (at, kind) ->
             List.exists (fun s -> s = [ { Net.at; kind } ]) singletons)
           pairs)

(* ------------------------------------------------------------------ *)
(* The runner's injection oracle replays network schedules              *)
(* ------------------------------------------------------------------ *)

(* The channel state itself is the whole world: the lens is the identity. *)
let nget (s : Net.state) = s
let nset (_ : Net.state) s = s

let send_then_try ch =
  let open P.Syntax in
  let* () = Net.send_step ~get:nget ~set:nset ch (V.int 1) in
  let* r = Net.try_recv_step ~get:nget ~set:nset ch in
  P.return (match r with Some m -> m | None -> V.str "timeout")

let test_runner_oracle () =
  (* clean run: the message arrives *)
  let o = Sched.Runner.run Net.empty [ send_then_try "ch" ] in
  Alcotest.(check bool) "clean delivery" true (o.Sched.Runner.results.(0) = V.int 1);
  Alcotest.(check bool) "no events fired" true (o.Sched.Runner.injected = []);
  (* Drop at the send: the receive times out, nothing in flight *)
  let o =
    Sched.Runner.run ~fault_schedule:(Net.to_fault_schedule [ { Net.at = 0; kind = Net.Drop } ])
      Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "dropped: timeout" true (o.Sched.Runner.results.(0) = V.str "timeout");
  Alcotest.(check bool) "dropped: channel empty" true (Net.is_empty o.Sched.Runner.world);
  Alcotest.(check bool) "drop fired" true (o.Sched.Runner.injected = [ (0, F.Msg_drop) ]);
  (* Dup at the send: the receive consumes one copy, one stays in flight *)
  let o =
    Sched.Runner.run ~fault_schedule:(Net.to_fault_schedule [ { Net.at = 0; kind = Net.Dup } ])
      Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "dup: delivered" true (o.Sched.Runner.results.(0) = V.int 1);
  Alcotest.(check int) "dup: one copy left" 1 (Net.length "ch" o.Sched.Runner.world);
  (* Delay at the receive: timeout fires even though the message IS queued *)
  let o =
    Sched.Runner.run ~fault_schedule:(Net.to_fault_schedule [ { Net.at = 1; kind = Net.Delay } ])
      Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "delay: timeout" true (o.Sched.Runner.results.(0) = V.str "timeout");
  Alcotest.(check int) "delay: message still queued" 1 (Net.length "ch" o.Sched.Runner.world);
  (* Reorder at a 2-deep receive: the second message overtakes the head *)
  let two_then_recv =
    let open P.Syntax in
    let* () = Net.send_step ~get:nget ~set:nset "ch" (V.int 1) in
    let* () = Net.send_step ~get:nget ~set:nset "ch" (V.int 2) in
    Net.recv_step ~get:nget ~set:nset "ch"
  in
  let o = Sched.Runner.run Net.empty [ two_then_recv ] in
  Alcotest.(check bool) "in order by default" true (o.Sched.Runner.results.(0) = V.int 1);
  let o =
    Sched.Runner.run
      ~fault_schedule:(Net.to_fault_schedule [ { Net.at = 2; kind = Net.Reorder 1 } ])
      Net.empty [ two_then_recv ]
  in
  Alcotest.(check bool) "reordered delivery" true (o.Sched.Runner.results.(0) = V.int 2);
  Alcotest.(check bool) "reorder fired" true
    (o.Sched.Runner.injected = [ (2, F.Msg_reorder 1) ])

(* A dropped request against the full client/server stack: the retry makes
   the call succeed, deterministically replayable. *)
let test_drop_retry_oracle () =
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  let client =
    let open P.Syntax in
    let* _ = snd (SK.nput_call p ~client:0 ~seq:0 0 (V.str "A")) in
    snd SK.bye_call
  in
  let o =
    Sched.Runner.run ~fault_schedule:(Net.to_fault_schedule [ { Net.at = 0; kind = Net.Drop } ])
      (SK.init_world p)
      [ client; snd (SK.srv_call p 0) ]
  in
  Alcotest.(check bool) "request drop fired" true
    (List.mem (0, F.Msg_drop) o.Sched.Runner.injected);
  Alcotest.(check bool) "client retried" true
    (List.exists (fun (_, l) -> l = "retry_rpc(put#1)") o.Sched.Runner.trace);
  Alcotest.(check bool) "the retried put landed" true
    (List.nth o.Sched.Runner.world.SK.vals 0 = V.str "A")

(* ------------------------------------------------------------------ *)
(* The exactly-once contract holds exhaustively                         *)
(* ------------------------------------------------------------------ *)

(* Flagship: one client, one server, non-idempotent inc, full
   retry/timeout/backoff surface, network budget 1 composed with one
   crash.  Duplicates (adversary Dup or the client's own premature-timeout
   retry) are answered from the reply cache without re-executing. *)
let inc1_config () =
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  SK.checker_config p ~max_crashes:1 ~fault_budget:1
    [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ]

let test_exactly_once_holds () =
  let stats = expect_holds "exactly-once inc, net 1, 1 crash" (R.check (inc1_config ())) in
  Alcotest.(check bool) "network events injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "distinct network schedules" true (stats.R.fault_schedules > 1);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0);
  Alcotest.(check bool) "reply-cache hits observed" true (stats.R.cache_hits > 0)

(* Verdict agrees across both strategies; stats are byte-identical
   across domain counts 1/2/4 at every fixed strategy. *)
let test_strategies_domains_agree () =
  List.iter
    (fun strategy ->
      ignore
        (expect_holds
           (Printf.sprintf "exactly-once inc under %s" (E.strategy_name strategy))
           (R.check ~strategy (inc1_config ())));
      let stats_str d =
        Fmt.str "%a" R.pp_stats
          (expect_holds
             (Printf.sprintf "exactly-once inc under %s, %d domains" (E.strategy_name strategy) d)
             (R.check ~strategy ~domains:d (inc1_config ())))
      in
      let s1 = stats_str 1 in
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "stats identical under %s at %d domains" (E.strategy_name strategy) d)
            s1 (stats_str d))
        [ 2; 4 ])
    E.all_strategies

(* Two clients racing non-idempotent incs through one server: the reply
   cache is per client, so neither client's duplicate absorbs the other's
   execution. *)
let test_contention_holds () =
  let p = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  let stats =
    expect_holds "2-client contention, net 1"
      (R.check ~strategy:E.Dpor_sleep
         (SK.checker_config p ~max_crashes:0 ~fault_budget:1
            [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ];
              [ SK.ninc_call p ~client:1 ~seq:0 0; SK.bye_call ];
              [ SK.srv_call p 0 ] ]))
  in
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Sequential puts to one key with a retrying first call: a correct
   client's retry carries its sequence number, so a late duplicate is
   classified Stale (or answered from the cache) and the newer write is
   never overwritten — the correct twin of seeded bug 2. *)
let test_retry_storm_holds () =
  let p1 = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
  let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  let stats =
    expect_holds "put;put with retries, net 1"
      (R.check ~strategy:E.Dpor_sleep
         (SK.checker_config p1 ~max_crashes:0 ~fault_budget:1
            [ [ SK.nput_call p1 ~client:0 ~seq:0 0 (V.str "A");
                SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
                SK.bye_call ];
              [ SK.srv_call p1 0 ] ]))
  in
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0);
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Two shards, two server threads: requests route by key, replies come
   back tagged, and the idle shard still shuts down cleanly. *)
let test_cross_shard_holds () =
  let p = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 () in
  let stats =
    expect_holds "cross-shard put/get, net 1"
      (R.check ~strategy:E.Dpor_sleep
         (SK.checker_config p ~max_crashes:0 ~fault_budget:1
            [ [ SK.nput_call p ~client:0 ~seq:0 0 (V.str "A");
                SK.nget_call p ~client:0 ~seq:1 1;
                SK.bye_call ];
              [ SK.srv_call p 0 ]; [ SK.srv_call p 1 ] ]))
  in
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Two holders racing a fenced read-modify-write with an expiry the
   scheduler can place anywhere, under crashes: the epoch fence taken at
   acquire keeps every zombie write out. *)
let test_lease_fencing_holds () =
  let p = SK.params ~n_keys:1 ~n_clients:2 () in
  let threads =
    [ [ SK.linc_call p ~client:0 0 ]; [ SK.linc_call p ~client:1 0 ]; [ SK.expire_call ] ]
  in
  List.iter
    (fun strategy ->
      let stats =
        expect_holds
          (Printf.sprintf "fenced lease RMW under %s" (E.strategy_name strategy))
          (R.check ~strategy (SK.checker_config p ~max_crashes:1 ~fault_budget:0 threads))
      in
      Alcotest.(check bool) "acquire retries observed" true (stats.R.retries_observed > 0))
    [ E.Naive; E.Dpor_sleep ]

(* The journal-hosted shards: data key and reply-cache slot commit in one
   transaction, so exactly-once survives crashes of the storage stack. *)
let test_hosted_holds () =
  let p1 = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  let stats =
    expect_holds "hosted shard, net 1, 1 crash"
      (R.check ~strategy:E.Dpor_sleep
         (SK.Hosted.checker_config p1 ~max_crashes:1 ~fault_budget:1
            [ [ SK.Hosted.nput_call p1 ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
              [ SK.Hosted.srv_call p1 0 ] ]))
  in
  Alcotest.(check bool) "hosted cache hits observed" true (stats.R.cache_hits > 0);
  let p2 = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  ignore
    (expect_holds "hosted 2 shards, net 1, 1 crash"
       (R.check ~strategy:E.Dpor_sleep
          (SK.Hosted.checker_config p2 ~max_crashes:1 ~fault_budget:1
             [ [ SK.Hosted.nput_call p2 ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
               [ SK.Hosted.srv_call p2 0 ]; [ SK.Hosted.srv_call p2 1 ] ])))

(* Every (channel, event-kind) pair the adversary can hit is a coverage
   site, and the flagship check exercises all four dimensions. *)
let with_coverage f =
  C.set_enabled true;
  C.reset ();
  Fun.protect
    ~finally:(fun () ->
      C.reset ();
      C.set_enabled false)
    f

let test_net_coverage_sites () =
  with_coverage (fun () ->
      ignore (expect_holds "exactly-once inc for coverage" (R.check (inc1_config ())));
      let sites = C.sites () in
      List.iter
        (fun site ->
          match List.find_opt (fun (k, id, _) -> k = C.Fault && id = site) sites with
          | Some (_, _, hits) ->
            Alcotest.(check bool) (site ^ " exercised") true (hits > 0)
          | None -> Alcotest.failf "site %s not registered" site)
        [ "net_send(s0):msg_drop";
          "net_send(s0):msg_dup";
          "net_try_recv(c0):msg_delay";
          "net_recv(s0):msg_reorder(1)" ])

(* ------------------------------------------------------------------ *)
(* Seeded network bugs                                                  *)
(* ------------------------------------------------------------------ *)

let assert_in_lanes name needle f =
  let lanes = Fmt.str "%a" R.pp_failure_lanes f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s visible in lanes" name needle)
    true
    (Astring_contains.contains lanes needle)

(* Bug #1 — reply-cache miss on duplicate: the server executes every
   message it receives, so a [Dup]ed non-idempotent inc executes twice. *)
let bug1_config () =
  let p = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  SK.checker_config p ~max_crashes:0 ~fault_budget:1
    [ [ SK.Buggy.srv_call_no_cache p 0 ];
      [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ] ]

let test_bug_no_cache_caught () =
  let f = expect_violated "no-cache double execution" (R.check (bug1_config ())) in
  assert_in_lanes "no-cache double execution" "FAULT" f

(* The random walker sees the network adversary too: while a walk's fault
   budget lasts, each step's declared network events are alternatives of
   its outcome pick, so seeded walks find the duplicate that the cacheless
   server re-executes — within 20 walks at seed 17. *)
let test_bug_no_cache_caught_by_walks () =
  let f =
    expect_violated "no-cache double execution, random walks"
      (R.check_random ~seed:17 ~schedules:20 (bug1_config ()))
  in
  assert_in_lanes "no-cache double execution, random walks" "FAULT" f

(* Bug #2 — retry without a sequence number: the raw retry cannot be
   recognized as a duplicate, so its write (and its unmatchable reply)
   interferes with the client's later operations and the stale write
   wins. *)
let bug2_config () =
  let p1 = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
  let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  SK.checker_config p1 ~max_crashes:0 ~fault_budget:1
    [ [ SK.srv_call p1 0 ];
      [ SK.Buggy.nput_call_raw_retry p1 ~client:0 ~seq:0 0 (V.str "A");
        SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
        SK.bye_call ] ]

let test_bug_raw_retry_caught () =
  let f = expect_violated "raw retry stale write" (R.check (bug2_config ())) in
  assert_in_lanes "raw retry stale write" "FAULT" f;
  assert_in_lanes "raw retry stale write" "retry_rpc" f

(* Bug #3 — missing epoch fence: an expired holder's write lands after a
   newer holder's, losing the newer update.  Needs no network events at
   all — pure interleaving with the expiry step. *)
let bug3_config () =
  let p = SK.params ~n_keys:1 ~n_clients:2 () in
  SK.checker_config p ~max_crashes:0 ~fault_budget:0
    [ [ SK.Buggy.linc_call_no_fence p ~client:0 0 ];
      [ SK.Buggy.linc_call_no_fence p ~client:1 0 ];
      [ SK.expire_call ] ]

let test_bug_no_fence_caught () =
  let f = expect_violated "zombie write without fence" (R.check (bug3_config ())) in
  assert_in_lanes "zombie write without fence" "lease_write" f;
  assert_in_lanes "zombie write without fence" "lease_expire" f

(* ------------------------------------------------------------------ *)
(* Golden counterexamples                                               *)
(* ------------------------------------------------------------------ *)

let read_golden name =
  let candidates =
    [ Filename.concat "golden" (name ^ ".lanes.txt");
      Filename.concat "test/golden" (name ^ ".lanes.txt") ]
  in
  let file =
    match List.find_opt Sys.file_exists candidates with
    | Some f -> f
    | None -> Alcotest.failf "golden file %s.lanes.txt not found" name
  in
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [cfg] under [strategy], sequentially and at domain counts 1/2/4,
   and check every reported counterexample is byte-identical to the
   golden.  Also checks the violating run's stats are identical across
   domain counts (the work partition never depends on the domain count),
   and that a reduced strategy never explores more executions than naive. *)
let check_golden name golden strategy cfg =
  let lanes_and_stats tag r =
    match r with
    | R.Refinement_violated (f, stats) -> (Fmt.str "%a" R.pp_failure_lanes f, stats)
    | R.Refinement_holds stats -> Alcotest.failf "%s: bug not caught (%a)" tag R.pp_stats stats
    | R.Budget_exhausted stats ->
      Alcotest.failf "%s: budget exhausted (%a)" tag R.pp_stats stats
  in
  let tag d =
    Printf.sprintf "%s under %s%s" name (E.strategy_name strategy)
      (match d with None -> "" | Some d -> Printf.sprintf ", %d domains" d)
  in
  let lanes0, stats0 = lanes_and_stats (tag None) (R.check ~strategy (cfg ())) in
  Alcotest.(check string) (tag None ^ " lanes") golden lanes0;
  if strategy <> E.Naive then begin
    let _, naive = lanes_and_stats (tag None) (R.check ~strategy:E.Naive (cfg ())) in
    if stats0.R.executions > naive.R.executions then
      Alcotest.failf "%s: %d executions > naive's %d" (tag None) stats0.R.executions
        naive.R.executions
  end;
  let stats_ref = ref None in
  List.iter
    (fun d ->
      let lanes, stats = lanes_and_stats (tag (Some d)) (R.check ~strategy ~domains:d (cfg ())) in
      Alcotest.(check string) (tag (Some d) ^ " lanes") golden lanes;
      let stats = Fmt.str "%a" R.pp_stats stats in
      match !stats_ref with
      | None -> stats_ref := Some stats
      | Some s0 -> Alcotest.(check string) (tag (Some d) ^ " stats") s0 stats)
    [ 1; 2; 4 ]

let test_golden_bug_no_cache () =
  let golden = read_golden "net_bug1_dup_no_cache" in
  List.iter (fun s -> check_golden "net bug1" golden s bug1_config) E.all_strategies

(* DPOR+sleep reports a different — equally valid — representative of
   bug 2's violation class: the client's [retry_rpc] backoff step is
   pure, so it commutes with the server's reply [net_send(c0)]; DPOR+sleep
   places it first, naive's DFS after.  Both goldens are committed; each
   strategy is byte-stable across domain counts. *)
let test_golden_bug_raw_retry () =
  let naive_golden = read_golden "net_bug2_raw_retry.naive" in
  let dpor_golden = read_golden "net_bug2_raw_retry" in
  check_golden "net bug2" naive_golden E.Naive bug2_config;
  check_golden "net bug2" dpor_golden E.Dpor_sleep bug2_config

let test_golden_bug_no_fence () =
  let golden = read_golden "net_bug3_no_fence" in
  List.iter (fun s -> check_golden "net bug3" golden s bug3_config) E.all_strategies

let suite =
  [
    Alcotest.test_case "net: channel state model" `Quick test_state_model;
    Alcotest.test_case "net: fault-kind embedding" `Quick test_kind_embedding;
    Alcotest.test_case "net: enumerate budget semantics" `Quick test_enumerate_budget;
    QCheck_alcotest.to_alcotest prop_enumerate_deterministic;
    QCheck_alcotest.to_alcotest prop_enumerate_duplicate_free;
    QCheck_alcotest.to_alcotest prop_enumerate_budget_monotone;
    QCheck_alcotest.to_alcotest prop_enumerate_dimensions_independent;
    Alcotest.test_case "net: runner injection oracle" `Quick test_runner_oracle;
    Alcotest.test_case "rpc: dropped request retried (oracle)" `Quick test_drop_retry_oracle;
    Alcotest.test_case "rpc: exactly-once inc holds (net 1, crash)" `Quick
      test_exactly_once_holds;
    Alcotest.test_case "rpc: strategies and domains agree" `Quick test_strategies_domains_agree;
    Alcotest.test_case "rpc: 2-client contention holds" `Quick test_contention_holds;
    Alcotest.test_case "rpc: retry storm put;put holds" `Quick test_retry_storm_holds;
    Alcotest.test_case "shard: cross-shard ops hold" `Quick test_cross_shard_holds;
    Alcotest.test_case "lease: fenced RMW holds (expiry, crash)" `Quick test_lease_fencing_holds;
    Alcotest.test_case "hosted: journal-backed shards hold" `Quick test_hosted_holds;
    Alcotest.test_case "net: coverage sites per channel x kind" `Quick test_net_coverage_sites;
    Alcotest.test_case "bug: duplicate double-executes without cache" `Quick
      test_bug_no_cache_caught;
    Alcotest.test_case "bug: duplicate double-executes, random walks" `Quick
      test_bug_no_cache_caught_by_walks;
    Alcotest.test_case "bug: raw retry lets stale write win" `Quick test_bug_raw_retry_caught;
    Alcotest.test_case "bug: zombie write without fence" `Quick test_bug_no_fence_caught;
    Alcotest.test_case "golden: dup without cache" `Quick test_golden_bug_no_cache;
    Alcotest.test_case "golden: raw retry" `Quick test_golden_bug_raw_retry;
    Alcotest.test_case "golden: missing fence" `Quick test_golden_bug_no_fence;
  ]
