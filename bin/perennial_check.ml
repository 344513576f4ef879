(* perennial_check: run every verification artifact in the repository and
   print a report — the outline proofs (Theorem 2's premises) and the
   exhaustive refinement checks (its conclusion) for each system.

   Usage: perennial_check [outlines|refinement|kvs|wal|fs|faults|net|strategies|all]
                          [--strategy naive|dpor+sleep]
                          [--faults N] [--max-seconds S]
                          [--domains N] [--fingerprint]
                          [--trace FILE] [--metrics]
                          [--coverage] [--coverage-out FILE]
                          [--explain] [--progress]

   --trace FILE  write a Chrome trace_event JSON of the run (load it in
                 chrome://tracing or ui.perfetto.dev): span events for the
                 exploration/recovery/post phases, instant events for every
                 injected crash or fault.
   --metrics     print the metrics registry (counters, gauges, histograms
                 accumulated by the checkers) after the report.
   --coverage    enable the site registry: every crash point, fault point,
                 and spec arm the checks could exercise is registered, hits
                 are counted, and a coverage report (with the vacuity list
                 of never-exercised sites) is printed after the run.
   --coverage-out FILE  also write the perennial-coverage/v1 JSON report.
   --explain     record pruning provenance and print the ranked report of
                 which (rule, site) pairs the reduction skipped and why —
                 meaningful with --strategy dpor+sleep.
   --progress    print a live one-line progress status (execs/sec, frontier
                 depth, fault-schedule index, budget ETA) to stderr.
   --strategy    exploration strategy for the exhaustive checks (default
                 naive); the strategies selection cross-checks dpor+sleep
                 against naive and fails on any verdict mismatch or
                 pruning regression (DPOR exploring MORE than naive).
   --faults N    per-execution fault budget for the faults selection
                 (default 2): the checker enumerates every schedule of at
                 most N injected I/O faults alongside crash points.  The
                 net selection reuses it as the network-event budget,
                 capped at 1 (network schedules branch at every
                 send/recv, so larger budgets explode).
   --max-seconds S  wall-clock budget per exhaustive check; exceeding it
                 reports budget exhaustion instead of hanging.
   --domains N   run every exhaustive check on N domains (OCaml 5
                 multicore).  Verdicts, counterexamples and stats are
                 identical to the sequential run; only wall time changes.
   --fingerprint state fingerprinting: prune subtrees whose state key was
                 already explored in the same check (naive strategy only —
                 the checker rejects it under dpor+sleep). *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline
module E = Perennial_core.Explore

let ok = ref 0
let failed = ref 0

(* --max-seconds: wall-clock budget applied to every exhaustive check *)
let max_secs : float option ref = ref None

(* --domains: run every exhaustive check on N domains (same verdicts and
   stats as sequential; see Refinement.check) *)
let domains : int option ref = ref None

(* --fingerprint: state-key pruning (naive strategy) *)
let fingerprint = ref false

let rcheck ?faults ~strategy cfg =
  (* fingerprinting is naive-only; the strategies cross-check runs both
     strategies, so apply it just to the naive runs there *)
  let fp = !fingerprint && strategy = E.Naive in
  R.check ~strategy ?faults ?max_seconds:!max_secs ?domains:!domains ~fingerprint:fp cfg

let report name result =
  match result with
  | Ok detail ->
    incr ok;
    Printf.printf "  [OK]   %-50s %s\n%!" name detail
  | Error detail ->
    incr failed;
    Printf.printf "  [FAIL] %-50s %s\n%!" name detail

let outline_result = function
  | O.Accepted r -> Ok (Fmt.str "%a" O.pp_report r)
  | O.Rejected why -> Error why

let refinement_result = function
  | R.Refinement_holds stats -> Ok (Fmt.str "%a" R.pp_stats stats)
  | R.Refinement_violated (f, _) -> Error f.R.reason
  | R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)

let run_outlines () =
  print_endline "Proof outlines (premises of Theorem 2, per system):";
  List.iter
    (fun (name, r) -> report ("replicated-disk " ^ name) (outline_result r))
    (Systems.Rd_proof.check 2);
  List.iter
    (fun (name, r) -> report ("write-ahead-log " ^ name) (outline_result r))
    (Systems.Wal_proof.check ());
  List.iter
    (fun (name, r) -> report ("shadow-copy " ^ name) (outline_result r))
    (Systems.Shadow_proof.check ());
  List.iter
    (fun (name, r) -> report ("cached-block " ^ name) (outline_result r))
    (Systems.Cached_proof.check ())

let run_refinement ~strategy () =
  Printf.printf "Exhaustive concurrent-recovery-refinement checks [strategy=%s]:\n" (E.strategy_name strategy);
  let vx = V.str "x" and vy = V.str "y" in
  report "replicated-disk: 2 writers + crash + disk failure"
    (refinement_result
       (rcheck ~strategy
          (Systems.Replicated_disk.checker_config ~may_fail:true ~max_crashes:1 ~size:1
             [ [ Systems.Replicated_disk.write_call 0 vx ];
               [ Systems.Replicated_disk.write_call 0 vy ] ])));
  report "cached-block: put + get + crash (versioned memory)"
    (refinement_result
       (rcheck ~strategy
          (Systems.Cached_block.checker_config ~max_crashes:1
             [ [ Systems.Cached_block.put_call (V.str "x") ];
               [ Systems.Cached_block.get_call ] ])));
  report "shadow-copy: writer + reader + crash"
    (refinement_result
       (rcheck ~strategy
          (Systems.Shadow_copy.checker_config ~max_crashes:1
             [ [ Systems.Shadow_copy.write_call vx vy ]; [ Systems.Shadow_copy.read_call ] ])));
  report "write-ahead-log: writer + crash during recovery"
    (refinement_result
       (rcheck ~strategy (Systems.Wal.checker_config ~max_crashes:2 [ [ Systems.Wal.write_call vx vy ] ])));
  report "group-commit: write+flush + crash (lossy spec)"
    (refinement_result
       (rcheck ~strategy
          (Systems.Group_commit.checker_config ~max_crashes:1
             [ [ Systems.Group_commit.write_call vx vy; Systems.Group_commit.flush_call ] ])));
  report "mailboat: deliver + crash + recovery"
    (refinement_result
       (rcheck ~strategy
          (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
             [ [ Mailboat.Core.deliver_call 0 "ab" ] ])));
  report "mailboat: fsync deliver under deferred durability"
    (refinement_result
       (rcheck ~strategy
          (Mailboat.Core.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
             [ [ Mailboat.Core.deliver_fsync_call 0 "ab" ] ])));
  report "layered: WAL over replicated disk + crash + disk failure"
    (refinement_result
       (rcheck ~strategy
          (Systems.Layered.checker_config ~may_fail:true ~max_crashes:1
             [ [ Systems.Layered.write_call (V.str "x") (V.str "y") ] ])));
  report "mailboat: randomized check, larger instance"
    (refinement_result
       (R.check_random ~schedules:100 ~crash_prob:0.05
          (Mailboat.Core.checker_config ~users:2 ~max_crashes:1
             [ [ Mailboat.Core.deliver_call 0 "ab"; Mailboat.Core.deliver_call 0 "cd" ];
               [ Mailboat.Core.deliver_call 1 "ef" ];
               [ Mailboat.Core.pickup_call 1; Mailboat.Core.unlock_call 1 ] ])))

let run_kvs ~strategy () =
  Printf.printf "Journaled key-value store (2 keys, exhaustive) [strategy=%s]:\n" (E.strategy_name strategy);
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  let b = Disk.Block.of_string in
  let p = K.params ~n_keys:2 () in
  report "kvs: put || get + crash"
    (refinement_result
       (rcheck ~strategy
          (K.checker_config p ~max_crashes:1
             [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ])));
  report "kvs: txn + crash during recovery"
    (refinement_result
       (rcheck ~strategy
          (K.checker_config p ~max_crashes:2
             [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ])));
  report "kvs: async put; flush || get + crash"
    (refinement_result
       (rcheck ~strategy
          (K.checker_config p ~max_crashes:1
             [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ]; [ K.get_call p 0 ] ])))

(* The circular write-ahead log under the journal: the Circ ring against
   its atomic append/trim spec, the Wal logger/installer/flush protocol
   against the atomic multiwrite spec (crashes, crash-during-recovery,
   faults), the three seeded WAL bugs, and the journal driven through the
   [`Wal] backend. *)
let run_wal ~strategy ~faults () =
  Printf.printf "Circular write-ahead log [strategy=%s faults=%d]:\n"
    (E.strategy_name strategy) faults;
  let module C = Perennial_wal.Circ in
  let module W = Perennial_wal.Wal in
  let module J = Journal.Txn_log in
  let b = Disk.Block.of_string in
  let bug_result name = function
    | R.Refinement_violated (f, stats) ->
      Ok (Fmt.str "caught: %s (%a)" f.R.reason R.pp_stats stats)
    | R.Refinement_holds stats ->
      Error (Fmt.str "seeded bug %s NOT caught (%a)" name R.pp_stats stats)
    | R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)
  in
  let cly = C.layout ~base:0 ~cap:2 in
  report "circ: append || snapshot + crash"
    (refinement_result
       (rcheck ~strategy
          (C.checker_config cly ~max_crashes:1
             [ [ C.append_call cly [ (1, b "x") ] ]; [ C.snapshot_call cly ] ])));
  let wp = W.params ~n_data:1 ~cap:2 () in
  report "wal: mwrite || logger + crash"
    (refinement_result
       (rcheck ~strategy
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ] ]; [ W.logger_call wp ] ])));
  report "wal: mwrite; flush || installer + crash"
    (refinement_result
       (rcheck ~strategy
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ];
               [ W.installer_call wp ] ])));
  let wp2 = W.params ~n_data:2 ~cap:2 () in
  report "wal: multiwrite flush + crash during recovery"
    (refinement_result
       (rcheck ~strategy
          (W.checker_config wp2 ~max_crashes:2
             [ [ W.mwrite_call wp2 [ (0, b "A"); (1, b "B") ]; W.flush_call wp2 1 ] ])));
  report "wal: mwrite; flush + crash + faults"
    (refinement_result
       (rcheck ~strategy ~faults
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ] ])));
  report "seeded: wal logger installs header before records"
    (bug_result "wal logger header-first"
       (rcheck ~strategy
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ];
                 W.flush_call wp 1;
                 W.installer_call wp;
                 W.mwrite_call wp [ (0, b "B") ];
                 W.Buggy.logger_call_header_first wp ] ])));
  report "seeded: wal installer trims before applying home"
    (bug_result "wal installer trim-first"
       (rcheck ~strategy
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ];
                 W.flush_call wp 1;
                 W.Buggy.installer_call_trim_first wp ] ])));
  report "seeded: wal absorption collapses across the flush barrier"
    (bug_result "wal flush absorbs logged"
       (rcheck ~strategy
          (W.checker_config wp ~max_crashes:1
             [ [ W.mwrite_call wp [ (0, b "A") ];
                 W.logger_call wp;
                 W.mwrite_call wp [ (0, b "B") ];
                 W.Buggy.flush_call_absorb_logged wp 2 ] ])));
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  report "journal[wal backend]: commit || read + crash"
    (refinement_result
       (rcheck ~strategy
          (J.checker_config ~backend:`Wal ly ~max_crashes:1
             [ [ J.commit_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ];
               [ J.read_call ly 0 ] ])));
  report "journal[wal backend]: ft commit + crash + faults"
    (refinement_result
       (rcheck ~strategy ~faults
          (J.checker_config ~backend:`Wal ly ~max_crashes:1
             [ [ J.commit_ft_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ] ])))

(* The inode file system on the journal stack, checked against the atomic
   Gfs.Fs spec, plus Mailboat's spool re-hosted on it — and the seeded
   crash-safety bugs, each of which must produce a counterexample. *)
let run_fs ~strategy ~faults () =
  Printf.printf "Inode file system on the journal [strategy=%s faults=%d]:\n"
    (E.strategy_name strategy) faults;
  let module L = Perennial_fs.Layout in
  let module Fs = Perennial_fs.Fs in
  let module Sp = Perennial_fs.Spool in
  let bug_result name = function
    | R.Refinement_violated (f, stats) ->
      Ok (Fmt.str "caught: %s (%a)" f.R.reason R.pp_stats stats)
    | R.Refinement_holds stats ->
      Error (Fmt.str "seeded bug %s NOT caught (%a)" name R.pp_stats stats)
    | R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)
  in
  let p = Fs.params (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  report "fs: create || append + crash"
    (refinement_result
       (rcheck ~strategy
          (Fs.checker_config p ~dirs:[ "a" ]
             ~files:[ ("a", "f", "xy") ]
             ~max_crashes:1
             [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ])));
  let p2 = Fs.params (L.v ~n_inodes:5 ~n_blocks:6 ()) in
  report "fs: rename (replacing) || read + crash"
    (refinement_result
       (rcheck ~strategy
          (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
             ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
             ~max_crashes:1
             [ [ Fs.rename_call p2 ~src:("a", "s") ~dst:("b", "t") ];
               [ Fs.read_call p2 "b" "t" ] ])));
  let p3 = Fs.params (L.v ~n_inodes:3 ~n_blocks:4 ()) in
  report "fs: append + crash during recovery"
    (refinement_result
       (rcheck ~strategy
          (Fs.checker_config p3 ~dirs:[ "a" ]
             ~files:[ ("a", "f", "x") ]
             ~max_crashes:2
             [ [ Fs.append_call p3 "a" "f" "y" ] ])));
  let pd = Fs.params ~durability:`Deferred (L.v ~n_inodes:3 ~n_blocks:4 ()) in
  report "fs: deferred append/fsync + crash"
    (refinement_result
       (rcheck ~strategy
          (Fs.checker_config pd ~dirs:[ "a" ]
             ~files:[ ("a", "f", "") ]
             ~max_crashes:1
             [ [ Fs.append_call pd "a" "f" "zz"; Fs.fsync_call pd "a" "f" ] ])));
  report "fs: ft create/append + crash + faults"
    (refinement_result
       (rcheck ~strategy ~faults
          (Fs.checker_config p ~dirs:[ "a" ]
             ~files:[ ("a", "f", "x") ]
             ~post:(Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
             ~max_crashes:1
             [ [ Fs.create_ft_call p "a" "g"; Fs.append_ft_call p "a" "f" "y" ] ])));
  let pw = Fs.params ~backend:`Wal (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  report "fs[wal backend]: create || append + crash"
    (refinement_result
       (rcheck ~strategy
          (Fs.checker_config pw ~dirs:[ "a" ]
             ~files:[ ("a", "f", "xy") ]
             ~max_crashes:1
             [ [ Fs.create_call pw "a" "g" ]; [ Fs.append_call pw "a" "f" "z" ] ])));
  let sp = Sp.params ~users:1 () in
  report "spool-on-fs: deliver + crash + recovery"
    (refinement_result
       (rcheck ~strategy (Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_call sp 0 "ab" ] ])));
  let pb = Fs.params (L.v ~n_inodes:4 ~n_blocks:4 ()) in
  let write_probes =
    [ Fs.readdir_call pb "a"; Fs.create_call pb "a" "g"; Fs.append_call pb "a" "g" "zz";
      Fs.read_call pb "a" "f"; Fs.read_call pb "a" "g" ]
  in
  report "seeded: fs allocator double-free across crash"
    (bug_result "fs allocator double-free"
       (rcheck ~strategy
          (Fs.checker_config pb ~dirs:[ "a" ]
             ~files:[ ("a", "f", "xy") ]
             ~post:write_probes ~max_crashes:1
             [ [ Fs.Buggy.unlink_call_free_first pb "a" "f" ] ])));
  report "seeded: fs rename as two transactions"
    (bug_result "fs two-txn rename"
       (rcheck ~strategy
          (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
             ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
             ~max_crashes:1
             [ [ Fs.Buggy.rename_call_two_txns p2 ~src:("a", "s") ~dst:("b", "t") ] ])));
  let spd = Sp.params ~durability:`Deferred ~users:1 () in
  report "seeded: spool missing fsync before directory commit"
    (bug_result "spool missing fsync"
       (rcheck ~strategy
          (Sp.checker_config spd ~users:1 ~max_crashes:1
             [ [ Sp.deliver_nofsync_call spd 0 "ab" ] ])))

(* The fault-injection selection: the retry/degradation paths must HOLD
   under an exhaustive fault x crash x interleaving check, and the three
   seeded fault-handling bugs must each produce a counterexample.  This is
   the CI fault-matrix gate (`perennial_check faults --faults 2`). *)
let run_faults ~strategy ~faults () =
  Printf.printf "Fault-injection checks [strategy=%s faults=%d]:\n"
    (E.strategy_name strategy) faults;
  let module RD = Systems.Replicated_disk in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  let b = Disk.Block.of_string in
  let p = K.params ~n_keys:2 () in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let check cfg = rcheck ~faults ~strategy cfg in
  let bug_result name = function
    | R.Refinement_violated (f, stats) ->
      Ok (Fmt.str "caught: %s (%a)" f.R.reason R.pp_stats stats)
    | R.Refinement_holds stats ->
      Error (Fmt.str "seeded bug %s NOT caught (%a)" name R.pp_stats stats)
    | R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)
  in
  report "replicated-disk: ft write || ft read + crash + faults"
    (refinement_result
       (check
          (RD.checker_config ~size:1 ~max_crashes:1
             [ [ RD.write_ft_call 0 (V.str "x") ]; [ RD.read_ft_call 0 ] ])));
  report "journal: ft commit || ft read + crash + faults"
    (refinement_result
       (check
          (J.checker_config ly ~max_crashes:1
             [ [ J.commit_ft_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_ft_call ly 0 ] ])));
  report "kvs: ft put; ft get + crash + faults"
    (refinement_result
       (check
          (K.checker_config p ~max_crashes:1
             [ [ K.put_ft_call p 0 (V.str "A"); K.get_ft_call p 0 ] ])));
  report "seeded: rd retry-without-re-read"
    (bug_result "rd retry-without-re-read"
       (check
          (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0
             [ [ RD.write_call 0 (V.str "x"); RD.Buggy.read_ft_call_no_retry 0 ] ])));
  report "seeded: journal torn commit record"
    (bug_result "journal torn commit record"
       (check
          (J.checker_config ly ~max_crashes:1
             [ [ J.Buggy.commit_ft_call_ignore_torn ly [ (0, b "A"); (1, b "B") ] ] ])));
  report "seeded: kvs error swallowed after partial apply"
    (bug_result "kvs swallowed apply error"
       (check
          (K.checker_config p ~max_crashes:0
             [ [ K.Buggy.put_ft_call_swallow_apply p 0 (V.str "A"); K.get_call p 0 ] ])))

(* The network-adversary selection: the exactly-once RPC stack — reply
   cache, retry/timeout/backoff, epoch-fenced leases over the sharded KV —
   must HOLD under the exhaustive network x crash x interleaving check,
   and the three seeded network bugs (no reply cache, raw retry without a
   sequence number, lease write without an epoch fence) must each produce
   a counterexample.  This is the CI net-matrix gate
   (`perennial_check net`). *)
let run_net ~strategy ~faults () =
  let module SK = Dist.Shard_kv in
  (* Network schedules branch at every send/recv/try_recv, so they blow up
     much faster than disk-fault schedules: cap the per-execution budget at
     one adversarial event.  One event is exactly what the seeded bugs need
     and keeps every instance exhaustively checkable in seconds. *)
  let nf = min faults 1 in
  Printf.printf "Network-adversary checks [strategy=%s net-events=%d]:\n"
    (E.strategy_name strategy) nf;
  let check cfg = rcheck ~faults:nf ~strategy cfg in
  (* lease instances branch on premature timeouts alone; keep their
     adversary budget at zero so expiry placement stays the only dimension *)
  let check0 cfg = rcheck ~faults:0 ~strategy cfg in
  let bug_result name = function
    | R.Refinement_violated (f, stats) ->
      Ok (Fmt.str "caught: %s (%a)" f.R.reason R.pp_stats stats)
    | R.Refinement_holds stats ->
      Error (Fmt.str "seeded bug %s NOT caught (%a)" name R.pp_stats stats)
    | R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)
  in
  let p1 = SK.params ~n_keys:1 ~n_clients:1 () in
  report "shard-kv: exactly-once inc + crash + net adversary"
    (refinement_result
       (check
          (SK.checker_config p1 ~max_crashes:1 ~fault_budget:nf
             [ [ SK.ninc_call p1 ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p1 0 ] ])));
  (let p = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
   report "shard-kv: 2-client contention + net adversary"
     (refinement_result
        (check
           (SK.checker_config p ~max_crashes:0 ~fault_budget:nf
              [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ];
                [ SK.ninc_call p ~client:1 ~seq:0 0; SK.bye_call ];
                [ SK.srv_call p 0 ] ]))));
  (let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
   let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
   report "shard-kv: retry storm (timeout/backoff) + net adversary"
     (refinement_result
        (check
           (SK.checker_config pr ~max_crashes:0 ~fault_budget:nf
              [ [ SK.nput_call pr ~client:0 ~seq:0 0 (V.str "A");
                  SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
                  SK.bye_call ];
                [ SK.srv_call pr 0 ] ]))));
  (let p = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 () in
   report "shard-kv: cross-shard put/get + net adversary"
     (refinement_result
        (check
           (SK.checker_config p ~max_crashes:0 ~fault_budget:nf
              [ [ SK.nput_call p ~client:0 ~seq:0 0 (V.str "A");
                  SK.nget_call p ~client:0 ~seq:1 1;
                  SK.bye_call ];
                [ SK.srv_call p 0 ]; [ SK.srv_call p 1 ] ]))));
  (let p = SK.params ~n_keys:1 ~n_clients:2 () in
   report "lease: 2 holders + expiry + crash (epoch fencing)"
     (refinement_result
        (check0
           (SK.checker_config p ~max_crashes:1 ~fault_budget:0
              [ [ SK.linc_call p ~client:0 0 ];
                [ SK.linc_call p ~client:1 0 ];
                [ SK.expire_call ] ]))));
  (let p = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
   report "hosted shard-kv (journal-backed) + crash + net adversary"
     (refinement_result
        (check
           (SK.Hosted.checker_config p ~max_crashes:1 ~fault_budget:nf
              [ [ SK.Hosted.nput_call p ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
                [ SK.Hosted.srv_call p 0 ] ]))));
  (let p = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
   report "seeded: server without reply cache (duplicate re-executes)"
     (bug_result "no reply cache"
        (check
           (SK.checker_config p ~max_crashes:0 ~fault_budget:1
              [ [ SK.Buggy.srv_call_no_cache p 0 ];
                [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ] ]))));
  (let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
   let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
   report "seeded: raw retry without seq number (stale write wins)"
     (bug_result "raw retry"
        (check
           (SK.checker_config pr ~max_crashes:0 ~fault_budget:1
              [ [ SK.srv_call pr 0 ];
                [ SK.Buggy.nput_call_raw_retry pr ~client:0 ~seq:0 0 (V.str "A");
                  SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
                  SK.bye_call ] ]))));
  (let p = SK.params ~n_keys:1 ~n_clients:2 () in
   report "seeded: lease write without epoch fence (zombie write)"
     (bug_result "no epoch fence"
        (check0
           (SK.checker_config p ~max_crashes:0 ~fault_budget:0
              [ [ SK.Buggy.linc_call_no_fence p ~client:0 0 ];
                [ SK.Buggy.linc_call_no_fence p ~client:1 0 ];
                [ SK.expire_call ] ]))))

(* Cross-strategy guard: dpor+sleep must reach naive's verdict on the
   bundled instances, must never explore more executions than naive, and
   must reach exactly naive's number of distinct fault schedules — a
   deterministic count that drops when a reduction loses behaviour.  This
   is the CI pruning-regression gate. *)
let run_strategies () =
  print_endline "Exploration-strategy cross-check (verdicts + pruning guard):";
  let vx = V.str "x" and vy = V.str "y" in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  let module Fs = Perennial_fs.Fs in
  let module RD = Systems.Replicated_disk in
  let b = Disk.Block.of_string in
  let p = K.params ~n_keys:2 () in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let fp = Fs.params (Perennial_fs.Layout.v ~n_inodes:4 ~n_blocks:5 ()) in
  let instances : (string * (E.strategy -> R.result)) list =
    [
      ( "replicated-disk: 2 writers + crash + disk failure",
        fun strategy ->
          rcheck ~strategy
            (Systems.Replicated_disk.checker_config ~may_fail:true ~max_crashes:1
               ~size:1
               [ [ Systems.Replicated_disk.write_call 0 vx ];
                 [ Systems.Replicated_disk.write_call 0 vy ] ]) );
      ( "journal: commit || read + crash",
        fun strategy ->
          rcheck ~strategy
            (J.checker_config ly
               [ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]) );
      ( "kvs: put || get + crash",
        fun strategy ->
          rcheck ~strategy
            (K.checker_config p ~max_crashes:1
               [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ]) );
      ( "kvs: txn + crash during recovery",
        fun strategy ->
          rcheck ~strategy
            (K.checker_config p ~max_crashes:2
               [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]) );
      ( "kvs: async put; flush || get + crash",
        fun strategy ->
          rcheck ~strategy
            (K.checker_config p ~max_crashes:1
               [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ];
                 [ K.get_call p 0 ] ]) );
      ( "kvs: put || put + crash",
        fun strategy ->
          rcheck ~strategy
            (K.checker_config p ~max_crashes:1
               [ [ K.put_call p 0 (V.str "A") ]; [ K.put_call p 0 (V.str "B") ] ]) );
      ( "fs: create || append + crash",
        fun strategy ->
          rcheck ~strategy
            (Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~max_crashes:1
               [ [ Fs.create_call fp "a" "g" ]; [ Fs.append_call fp "a" "f" "z" ] ]) );
      ( "replicated-disk: ft write || ft read + crash, faults 2",
        fun strategy ->
          rcheck ~strategy
            (RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
               [ [ RD.write_ft_call 0 vx ]; [ RD.read_ft_call 0 ] ]) );
    ]
  in
  let verdict = function
    | R.Refinement_holds _ -> "holds"
    | R.Refinement_violated _ -> "violated"
    | R.Budget_exhausted _ -> "budget"
  in
  let stats_of = function
    | R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st -> st
  in
  List.iter
    (fun (name, run) ->
      let res = List.map (fun s -> (s, run s)) E.all_strategies in
      let naive = List.assoc E.Naive res in
      let problems =
        List.filter_map
          (fun (s, r) ->
            if verdict r <> verdict naive then
              Some
                (Fmt.str "%s verdict %s, naive %s" (E.strategy_name s) (verdict r)
                   (verdict naive))
            else if (stats_of r).R.executions > (stats_of naive).R.executions then
              Some
                (Fmt.str "%s explored %d executions > naive's %d" (E.strategy_name s)
                   (stats_of r).R.executions (stats_of naive).R.executions)
            else if (stats_of r).R.fault_schedules <> (stats_of naive).R.fault_schedules then
              Some
                (Fmt.str "%s reached %d fault schedules, naive %d" (E.strategy_name s)
                   (stats_of r).R.fault_schedules (stats_of naive).R.fault_schedules)
            else None)
          res
      in
      let detail =
        String.concat " "
          (List.map
             (fun (s, r) ->
               Fmt.str "%s=%s/%d" (E.strategy_name s) (verdict r)
                 (stats_of r).R.executions)
             res)
      in
      match problems with
      | [] -> report name (Ok detail)
      | ps -> report name (Error (String.concat "; " ps)))
    instances

let () =
  let trace_file = ref None in
  let metrics = ref false in
  let coverage = ref false in
  let coverage_out = ref None in
  let explain = ref false in
  let progress = ref false in
  let strategy = ref E.Naive in
  let faults = ref 2 in
  let what = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse rest
    | "--trace" :: [] ->
      prerr_endline "perennial_check: --trace needs a file argument";
      exit 2
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--coverage" :: rest ->
      coverage := true;
      parse rest
    | "--coverage-out" :: file :: rest ->
      coverage := true;
      coverage_out := Some file;
      parse rest
    | "--coverage-out" :: [] ->
      prerr_endline "perennial_check: --coverage-out needs a file argument";
      exit 2
    | "--explain" :: rest ->
      explain := true;
      parse rest
    | "--progress" :: rest ->
      progress := true;
      parse rest
    | "--faults" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 ->
        faults := n;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --faults needs a non-negative integer, got %s\n" n;
        exit 2)
    | "--faults" :: [] ->
      prerr_endline "perennial_check: --faults needs an argument";
      exit 2
    | "--max-seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s > 0. ->
        max_secs := Some s;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --max-seconds needs a positive number, got %s\n" s;
        exit 2)
    | "--max-seconds" :: [] ->
      prerr_endline "perennial_check: --max-seconds needs an argument";
      exit 2
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 ->
        domains := Some n;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --domains needs a positive integer, got %s\n" n;
        exit 2)
    | "--domains" :: [] ->
      prerr_endline "perennial_check: --domains needs an argument";
      exit 2
    | "--fingerprint" :: rest ->
      fingerprint := true;
      parse rest
    | "--strategy" :: s :: rest ->
      (match E.strategy_of_string s with
      | Some st ->
        strategy := st;
        parse rest
      | None ->
        Printf.eprintf "perennial_check: unknown strategy %s (want naive|dpor+sleep)\n" s;
        exit 2)
    | "--strategy" :: [] ->
      prerr_endline "perennial_check: --strategy needs an argument";
      exit 2
    | w :: rest ->
      what := w;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fingerprint && !strategy <> E.Naive then begin
    prerr_endline
      "perennial_check: --fingerprint requires --strategy naive (state caching is \
       unsound under DPOR)";
    exit 2
  end;
  let what = !what in
  (match what with
  | "outlines" | "refinement" | "kvs" | "wal" | "fs" | "faults" | "net" | "strategies" | "all"
    -> ()
  | w ->
    Printf.eprintf
      "perennial_check: unknown selection %s (want outlines|refinement|kvs|wal|fs|faults|net|strategies|all)\n"
      w;
    exit 2);
  Option.iter Obs.Trace.open_chrome !trace_file;
  if !coverage then begin
    Obs.Coverage.set_enabled true;
    Obs.Coverage.reset ()
  end;
  if !explain then begin
    E.Prov.set_enabled true;
    E.Prov.reset ()
  end;
  if !progress then Obs.Progress.enable ();
  let strategy = !strategy in
  if what = "outlines" || what = "all" then run_outlines ();
  if what = "refinement" || what = "all" then run_refinement ~strategy ();
  if what = "kvs" || what = "all" then run_kvs ~strategy ();
  if what = "wal" || what = "all" then run_wal ~strategy ~faults:!faults ();
  if what = "fs" || what = "all" then run_fs ~strategy ~faults:!faults ();
  if what = "faults" || what = "all" then run_faults ~strategy ~faults:!faults ();
  if what = "net" || what = "all" then run_net ~strategy ~faults:!faults ();
  if what = "strategies" || what = "all" then run_strategies ();
  if !progress then Obs.Progress.finish ();
  Obs.Trace.close ();
  if !coverage then begin
    Fmt.pr "@.@[<v>%a@]@." Obs.Coverage.pp_report ();
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (Obs.Coverage.report_json ()));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "Wrote coverage report to %s@." file)
      !coverage_out
  end;
  if !explain then Fmt.pr "@.@[<v>%a@]@." E.Prov.pp_report ();
  if !metrics then Fmt.pr "@.Metrics:@.%a" (Obs.Metrics.pp ?registry:None) ();
  Printf.printf "\n%d checks passed, %d failed\n" !ok !failed;
  if !failed > 0 then exit 1
