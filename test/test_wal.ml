(* The circular WAL under the journal (lib/wal):
   - positive refinement of Circ (atomic append/trim ring) and Wal
     (atomic multiwrite with logger/installer threads, absorption, flush)
     against their specs — interleavings x crash points (incl. crash
     during recovery) x fault schedules, under both strategies and
     domain counts 1/2/4;
   - the differential backend harness: Txn_log's [`Wal] backend must
     agree verdict-for-verdict with the [`Direct] backend on the existing
     journal/kvs/fs checks, and state-for-state on sequential runs;
   - qcheck properties for ring arithmetic (wraparound, free-space
     accounting) and log absorption (last-writer-wins per address, order
     of last occurrence preserved);
   - the three seeded WAL bugs, each caught with a golden
     [pp_failure_lanes] counterexample byte-identical across both
     strategies and domain counts 1/2/4;
   - the Fingerprint regression: continuation digests (Marshal on
     closures) are stable across two identical [check ~fingerprint] runs
     in the same process. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module Runner = Sched.Runner
module Block = Disk.Block
module C = Perennial_wal.Circ
module W = Perennial_wal.Wal
module J = Journal.Txn_log
module K = Journal.Kvs
module L = Perennial_fs.Layout
module Fs = Perennial_fs.Fs

let b = Block.of_string
let bv s = Block.to_value (b s)

let verdict = function
  | R.Refinement_holds _ -> "holds"
  | R.Refinement_violated _ -> "violated"
  | R.Budget_exhausted _ -> "budget"

let stats_of = function
  | R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st -> st

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

(* Same differential harness as test_explore: same verdict as naive,
   never more executions. *)
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

(* ------------------------------------------------------------------ *)
(* Circ: the ring on its own                                            *)
(* ------------------------------------------------------------------ *)

let cly = C.layout ~base:0 ~cap:2

let test_circ_positive () =
  differential "circ: append || snapshot + crash" (fun strategy ->
      R.check ~strategy
        (C.checker_config cly ~max_crashes:1
           [ [ C.append_call cly [ (1, b "x") ] ]; [ C.snapshot_call cly ] ]));
  differential "circ: append; trim; append wraps + crash" (fun strategy ->
      R.check ~strategy
        (C.checker_config cly ~max_crashes:1
           [ [ C.append_call cly [ (1, b "x"); (2, b "y") ];
               C.trim_call cly 2;
               C.append_call cly [ (3, b "z") ] ] ]))

let test_circ_bug_header_first () =
  ignore
    (expect_violated "circ: header before records"
       (R.check
          (C.checker_config cly ~max_crashes:1
             [ [ C.Buggy.append_call_header_first cly [ (1, b "x") ] ] ])))

(* ------------------------------------------------------------------ *)
(* Wal: positive checks                                                 *)
(* ------------------------------------------------------------------ *)

let wp = W.params ~n_data:2 ~cap:2 ()
let wp1 = W.params ~n_data:1 ~cap:2 ()

let test_wal_positive () =
  differential "wal: mwrite || logger + crash" (fun strategy ->
      R.check ~strategy
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ] ]; [ W.logger_call wp1 ] ]));
  differential "wal: mwrite; flush || installer + crash" (fun strategy ->
      R.check ~strategy
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ]; W.flush_call wp1 1 ];
             [ W.installer_call wp1 ] ]));
  differential "wal: mwrite || read + crash" (fun strategy ->
      R.check ~strategy
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ] ]; [ W.read_call wp1 0 ] ]))

let test_wal_crash_during_recovery () =
  differential "wal: multiwrite flush + crash during recovery" (fun strategy ->
      R.check ~strategy
        (W.checker_config wp ~max_crashes:2
           [ [ W.mwrite_call wp [ (0, b "A"); (1, b "B") ]; W.flush_call wp 1 ] ]))

let test_wal_group_commit_absorption () =
  (* two mwrites to the same address collapse into one logged record;
     with absorption off the same workload must still refine *)
  List.iter
    (fun absorb ->
      let p = W.params ~absorb ~n_data:1 ~cap:2 () in
      differential
        (Printf.sprintf "wal: group commit (absorb=%b) + crash" absorb)
        (fun strategy ->
          R.check ~strategy
            (W.checker_config p ~max_crashes:1
               [ [ W.mwrite_call p [ (0, b "A") ];
                   W.mwrite_call p [ (0, b "B") ];
                   W.flush_call p 2 ] ])))
    [ true; false ]

let test_wal_faults () =
  (* transient write errors and torn record batches in the logger and
     installer paths are absorbed by unbounded retry *)
  differential "wal: mwrite; flush + fault budget 1 + crash" (fun strategy ->
      R.check ~strategy ~faults:1
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ]; W.flush_call wp1 1 ] ]));
  ignore
    (expect_holds "wal: installer under faults"
       (R.check ~faults:1
          (W.checker_config wp1 ~max_crashes:0
             [ [ W.mwrite_call wp1 [ (0, b "A") ];
                 W.flush_call wp1 1;
                 W.installer_call wp1 ] ])))

(* Parallel exploration must not leak into the verdict or the stats:
   byte-identical at every domain count. *)
let test_wal_domains () =
  let run domains =
    let r =
      R.check ~strategy:E.Dpor_sleep ~domains
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ]; W.flush_call wp1 1 ];
             [ W.logger_call wp1 ] ])
    in
    Fmt.str "%s %a" (verdict r) R.pp_stats (stats_of r)
  in
  let ref_out = run 1 in
  List.iter
    (fun n ->
      Alcotest.(check string) (Printf.sprintf "wal output at domains=%d" n) ref_out (run n))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Seeded bugs: golden counterexamples                                  *)
(* ------------------------------------------------------------------ *)

let golden_file name =
  let candidates =
    [ Filename.concat "golden" (name ^ ".lanes.txt");
      Filename.concat "test/golden" (name ^ ".lanes.txt") ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> Some f
  | None -> None

let read_golden name =
  match golden_file name with
  | Some file ->
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  | None -> Alcotest.failf "golden file %s.lanes.txt not found" name

let write_golden name s =
  let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
  let oc = open_out_bin (Filename.concat dir (name ^ ".lanes.txt")) in
  output_string oc s;
  close_out oc

(* The rendered counterexample must be byte-identical under every
   strategy AND every domain count (1/2/4).  GOLDEN_UPDATE=1 regenerates
   from the naive single-domain run. *)
let golden_matrix name (run : E.strategy -> domains:int -> R.result) =
  let render r =
    match r with
    | R.Refinement_violated (f, _) -> Fmt.str "%a" R.pp_failure_lanes f
    | r -> Alcotest.failf "%s: expected violation, got %s" name (verdict r)
  in
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None then
    write_golden name (render (run E.Naive ~domains:1));
  let want = read_golden name in
  List.iter
    (fun s ->
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s lanes under %s domains=%d" name (E.strategy_name s) domains)
            want
            (render (run s ~domains)))
        [ 1; 2; 4 ])
    E.all_strategies

let test_golden_logger_header_first () =
  golden_matrix "wal_logger_header_first" (fun strategy ~domains ->
      R.check ~strategy ~domains
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ];
               W.flush_call wp1 1;
               W.installer_call wp1;
               W.mwrite_call wp1 [ (0, b "B") ];
               W.Buggy.logger_call_header_first wp1 ] ]))

let test_golden_installer_trim_first () =
  golden_matrix "wal_installer_trim_first" (fun strategy ~domains ->
      R.check ~strategy ~domains
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ];
               W.flush_call wp1 1;
               W.Buggy.installer_call_trim_first wp1 ] ]))

let test_golden_flush_absorb_logged () =
  golden_matrix "wal_flush_absorb_logged" (fun strategy ~domains ->
      R.check ~strategy ~domains
        (W.checker_config wp1 ~max_crashes:1
           [ [ W.mwrite_call wp1 [ (0, b "A") ];
               W.logger_call wp1;
               W.mwrite_call wp1 [ (0, b "B") ];
               W.Buggy.flush_call_absorb_logged wp1 2 ] ]))

(* ------------------------------------------------------------------ *)
(* Differential backend harness: Txn_log `Direct vs `Wal                *)
(* ------------------------------------------------------------------ *)

(* Verdict-for-verdict: each workload, under each strategy, must reach
   the same verdict through both backends. *)
let backend_differential name (run : J.backend -> E.strategy -> R.result) =
  List.iter
    (fun strategy ->
      let direct = run `Direct strategy in
      let wal = run `Wal strategy in
      Alcotest.(check string)
        (Printf.sprintf "%s: backends agree under %s" name (E.strategy_name strategy))
        (verdict direct) (verdict wal))
    E.all_strategies

let jly = J.layout ~n_data:2 ~max_slots:2

let test_backend_journal () =
  backend_differential "journal: commit || read + crash" (fun backend strategy ->
      R.check ~strategy
        (J.checker_config ~backend jly ~max_crashes:1
           [ [ J.commit_call ~backend jly [ (0, b "A"); (1, b "B") ] ];
             [ J.read_call jly 0 ] ]));
  backend_differential "journal: commit + crash during recovery" (fun backend strategy ->
      R.check ~strategy
        (J.checker_config ~backend jly ~max_crashes:2
           [ [ J.commit_call ~backend jly [ (0, b "A"); (1, b "B") ] ] ]));
  backend_differential "journal: commit_ft + fault + crash" (fun backend strategy ->
      R.check ~strategy ~faults:1
        (J.checker_config ~backend jly ~max_crashes:1
           [ [ J.commit_ft_call ~backend jly [ (0, b "A"); (1, b "B") ] ] ]))

let test_backend_kvs () =
  let mk backend = K.params ~backend ~n_keys:2 () in
  backend_differential "kvs: put || get + crash" (fun backend strategy ->
      let p = mk backend in
      R.check ~strategy
        (K.checker_config p ~max_crashes:1
           [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]));
  backend_differential "kvs: txn + crash during recovery" (fun backend strategy ->
      let p = mk backend in
      R.check ~strategy
        (K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]));
  backend_differential "kvs: async put; flush || get + crash" (fun backend strategy ->
      let p = mk backend in
      R.check ~strategy
        (K.checker_config p ~max_crashes:1
           [ [ K.put_async_call p 0 (bv "A"); K.flush_call p ]; [ K.get_call p 0 ] ]))

let test_backend_fs () =
  let mk backend = Fs.params ~backend (L.v ~n_inodes:3 ~n_blocks:6 ()) in
  backend_differential "fs: create || append + crash" (fun backend strategy ->
      let p = mk backend in
      R.check ~strategy
        (Fs.checker_config p ~dirs:[ "a" ]
           ~files:[ ("a", "f", "x") ]
           ~max_crashes:1
           [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]))

(* State-for-state: a sequential run of the same ops through both
   backends must leave observably identical systems. *)
let test_backend_state_journal () =
  let ops backend =
    [ J.commit_txn_prog ~backend jly [ (0, b "A"); (1, b "B") ];
      J.commit_txn_prog ~backend jly [ (1, b "C") ] ]
  in
  let final backend =
    let w =
      List.fold_left
        (fun w prog -> fst (Runner.run1 w prog))
        (J.init_world jly) (ops backend)
    in
    List.init jly.J.n_data (fun a -> snd (Runner.run1 w (J.read_prog jly a)))
  in
  Alcotest.(check (list string))
    "journal backends agree state-for-state"
    (List.map V.to_string (final `Direct))
    (List.map V.to_string (final `Wal))

let test_backend_state_kvs () =
  let final backend =
    let p = K.params ~backend ~n_keys:2 () in
    let ops =
      [ K.put_prog p 0 (bv "A");
        K.put_async_prog p 1 (bv "B");
        K.flush_prog p;
        K.txn_prog p [ (0, b "C"); (1, b "D") ] ]
    in
    let w = List.fold_left (fun w prog -> fst (Runner.run1 w prog)) (K.init_world p) ops in
    List.init 2 (fun k -> snd (Runner.run1 w (K.get_sync_prog p k)))
  in
  Alcotest.(check (list string))
    "kvs backends agree state-for-state"
    (List.map V.to_string (final `Direct))
    (List.map V.to_string (final `Wal))

let test_backend_state_fs () =
  let final backend =
    let p = Fs.params ~backend (L.v ~n_inodes:4 ~n_blocks:8 ()) in
    let w0 = Fs.init_world p ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ] in
    let ops = [ Fs.create_prog p "a" "g"; Fs.append_prog p "a" "f" "yz" ] in
    let w = List.fold_left (fun w prog -> fst (Runner.run1 w prog)) w0 ops in
    [ snd (Runner.run1 w (Fs.read_prog p "a" "f"));
      snd (Runner.run1 w (Fs.readdir_prog p "a")) ]
  in
  Alcotest.(check (list string))
    "fs backends agree state-for-state"
    (List.map V.to_string (final `Direct))
    (List.map V.to_string (final `Wal))

(* ------------------------------------------------------------------ *)
(* qcheck: ring arithmetic                                              *)
(* ------------------------------------------------------------------ *)

let prop_slot_wraparound =
  QCheck.Test.make ~count:300 ~name:"circ slots wrap at cap"
    (QCheck.make QCheck.Gen.(pair (int_range 1 8) (int_bound 100)))
    (fun (cap, pos) ->
      let ly = C.layout ~base:0 ~cap in
      C.slot_addr ly (pos + cap) = C.slot_addr ly pos
      && C.slot_val ly (pos + cap) = C.slot_val ly pos
      && C.slot_addr ly pos >= 1
      && C.slot_val ly pos < C.region_size ly)

let prop_slot_window_distinct =
  QCheck.Test.make ~count:300 ~name:"circ live window occupies distinct slots"
    (QCheck.make QCheck.Gen.(triple (int_range 1 8) (int_bound 50) (int_bound 8)))
    (fun (cap, start, len) ->
      let len = min len cap in
      let ly = C.layout ~base:0 ~cap in
      let addrs = List.init len (fun i -> C.slot_addr ly (start + i)) in
      List.length (List.sort_uniq compare addrs) = len)

(* Free-space accounting, via the spec itself: drive the abstract ring
   with random append/trim ops and check the window never exceeds the
   capacity and always matches the record count. *)
let prop_ring_accounting =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_bound 12) (pair bool (int_range 0 6))))
  in
  QCheck.Test.make ~count:300 ~name:"circ spec: free-space accounting invariant"
    (QCheck.make gen)
    (fun (cap, ops) ->
      let ly = C.layout ~base:0 ~cap in
      let spec = C.spec ly in
      let step st (is_append, n) =
        let call =
          if is_append then
            Tslang.Spec.call "c_append"
              [ C.value_of_records (List.init n (fun i -> (i, b "r"))) ]
          else Tslang.Spec.call "c_trim" [ V.int (st.C.s_start + n) ]
        in
        if Tslang.Spec.op_has_undefined spec st call then st
        else
          match Tslang.Spec.op_outcomes spec st call with
          | [ (st', _) ] -> st'
          | _ -> st
      in
      let ok st =
        let live = st.C.s_end - st.C.s_start in
        live >= 0 && live <= cap
        && List.length st.C.s_recs = live
        && C.free_space ly ~start:st.C.s_start ~end_:st.C.s_end = cap - live
      in
      let final =
        List.fold_left
          (fun st op ->
            let st' = step st op in
            if not (ok st') then QCheck.Test.fail_reportf "invariant broken";
            st')
          spec.Tslang.Spec.init ops
      in
      ok final)

(* ------------------------------------------------------------------ *)
(* qcheck: log absorption                                               *)
(* ------------------------------------------------------------------ *)

let records_gen =
  QCheck.Gen.(
    list_size (int_bound 15)
      (pair (int_bound 4) (map Block.of_string (string_size ~gen:(char_range 'a' 'd') (return 1)))))

(* Reference implementation: keep the last binding per address, ordered
   by last occurrence. *)
let absorb_reference records =
  let tbl = Hashtbl.create 7 in
  List.iteri (fun i (a, v) -> Hashtbl.replace tbl a (i, v)) records;
  Hashtbl.fold (fun a (i, v) acc -> (i, (a, v)) :: acc) tbl []
  |> List.sort compare |> List.map snd

let prop_absorb_last_writer_wins =
  QCheck.Test.make ~count:500 ~name:"absorption: last writer wins, order of last occurrence"
    (QCheck.make records_gen)
    (fun records -> W.absorb records = absorb_reference records)

let prop_absorb_distinct_addrs =
  QCheck.Test.make ~count:500 ~name:"absorption: one record per address"
    (QCheck.make records_gen)
    (fun records ->
      let addrs = List.map fst (W.absorb records) in
      List.length (List.sort_uniq compare addrs) = List.length addrs)

let prop_absorb_off_is_concat =
  QCheck.Test.make ~count:500 ~name:"absorption off: batch is plain concat"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 4) records_gen))
    (fun txns ->
      let p = W.params ~absorb:false ~n_data:8 ~cap:64 () in
      W.batch_records p txns = List.concat txns)

(* ------------------------------------------------------------------ *)
(* Fingerprint digest stability (regression)                            *)
(* ------------------------------------------------------------------ *)

(* Continuation classes are MD5 digests of Marshal-ed closures.  Within
   one process two structurally identical checks must produce identical
   digests — pinned here by comparing the full stats (hits/misses would
   drift if any rebuilt continuation digested differently).  The
   constraint that digests must NOT be persisted across processes is
   documented in fingerprint.mli. *)
let test_fingerprint_digest_stability () =
  let mk () =
    W.checker_config wp1 ~max_crashes:1
      [ [ W.mwrite_call wp1 [ (0, b "A") ]; W.flush_call wp1 1 ]; [ W.logger_call wp1 ] ]
  in
  let render () =
    let r = R.check ~strategy:E.Naive ~fingerprint:true (mk ()) in
    Fmt.str "%s %a" (verdict r) R.pp_stats (stats_of r)
  in
  let first = render () in
  let second = render () in
  Alcotest.(check string) "fingerprint stats stable across identical runs" first second;
  let st = stats_of (R.check ~strategy:E.Naive ~fingerprint:true (mk ())) in
  if st.R.fingerprint_misses = 0 then
    Alcotest.fail "fingerprint run digested nothing (misses = 0)"

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "circ positive (all strategies)" `Quick test_circ_positive;
    Alcotest.test_case "circ bug: header before records" `Quick test_circ_bug_header_first;
    Alcotest.test_case "wal positive (all strategies)" `Quick test_wal_positive;
    Alcotest.test_case "wal crash during recovery" `Quick test_wal_crash_during_recovery;
    Alcotest.test_case "wal group commit + absorption knob" `Quick
      test_wal_group_commit_absorption;
    Alcotest.test_case "wal under fault injection" `Quick test_wal_faults;
    Alcotest.test_case "wal domain-count invariance" `Quick test_wal_domains;
    Alcotest.test_case "golden: logger header-first" `Quick test_golden_logger_header_first;
    Alcotest.test_case "golden: installer trim-first" `Quick test_golden_installer_trim_first;
    Alcotest.test_case "golden: flush absorbs across barrier" `Quick
      test_golden_flush_absorb_logged;
    Alcotest.test_case "backend differential: journal" `Quick test_backend_journal;
    Alcotest.test_case "backend differential: kvs" `Quick test_backend_kvs;
    Alcotest.test_case "backend differential: fs" `Quick test_backend_fs;
    Alcotest.test_case "backend state: journal" `Quick test_backend_state_journal;
    Alcotest.test_case "backend state: kvs" `Quick test_backend_state_kvs;
    Alcotest.test_case "backend state: fs" `Quick test_backend_state_fs;
    QCheck_alcotest.to_alcotest prop_slot_wraparound;
    QCheck_alcotest.to_alcotest prop_slot_window_distinct;
    QCheck_alcotest.to_alcotest prop_ring_accounting;
    QCheck_alcotest.to_alcotest prop_absorb_last_writer_wins;
    QCheck_alcotest.to_alcotest prop_absorb_distinct_addrs;
    QCheck_alcotest.to_alcotest prop_absorb_off_is_concat;
    Alcotest.test_case "fingerprint digest stability" `Quick
      test_fingerprint_digest_stability ]
