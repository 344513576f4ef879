(* The benchmark harness: one section per table and figure of the paper's
   evaluation (§9), per the experiment index in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table2  -- one experiment
     (sections: table1 table2 table3 table4 fig11 patterns bugs scaling
      durability kvs strategies faults fs wal net parallel micro)

   Flags:
     --quick        skip the slow sections (fig11, micro)
     --json [FILE]  also write per-section machine-readable results —
                    {name, iters, ns_per_op, metrics} records, where
                    [metrics] is the delta of the Obs.Metrics counters the
                    section caused — to FILE (default BENCH_results.json)

   Absolute numbers are produced by this repository's own substrate (pure
   OCaml, a discrete-event multicore simulator); the claims being reproduced
   are the *relative* ones — who wins, by what factor, and where the curves
   bend.  Each section prints the paper's numbers next to ours. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* Machine-readable results, written when --json is given.  Sections are
   recorded by the driver (wall time + metric deltas); the micro section
   additionally pushes one record per Bechamel test. *)
module Bench_out = struct
  let records : Obs.Json.t list ref = ref []

  (* [latency] is (p50, p95, p99) in microseconds; sections driven by the
     mcsim simulator carry it, pure-CPU sections omit it. *)
  let add ?latency name ~iters ~ns_per_op ~metrics =
    let base =
      [ ("name", Obs.Json.Str name);
        ("iters", Obs.Json.Int iters);
        ("ns_per_op", Obs.Json.Float ns_per_op);
        ("metrics", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) metrics)) ]
    in
    let base =
      match latency with
      | None -> base
      | Some (p50, p95, p99) ->
        base
        @ [ ( "latency_us",
              Obs.Json.Obj
                [ ("p50", Obs.Json.Float p50);
                  ("p95", Obs.Json.Float p95);
                  ("p99", Obs.Json.Float p99) ] ) ]
    in
    records := Obs.Json.Obj base :: !records

  let write path =
    let doc =
      Obs.Json.Obj
        [ ("schema", Obs.Json.Str "perennial-bench/v2");
          ("sections", Obs.Json.Arr (List.rev !records)) ]
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "@.Wrote %d result records to %s@." (List.length !records) path
end

(* Pass/fail accumulator so the harness can self-report shape checks. *)
module Shape = struct
  let passed = ref []
  let failed = ref []

  let check name ok = if ok then passed := name :: !passed else failed := name :: !failed

  let report () =
    Fmt.pr "@.Shape checks: %d passed%s@." (List.length !passed)
      (match !failed with
      | [] -> ""
      | f -> Fmt.str ", %d FAILED (%s)" (List.length f) (String.concat ", " f));
    if !failed <> [] then exit 1
end

(* ------------------------------------------------------------------ *)
(* Lines-of-code accounting (Tables 2, 3, 4)                            *)
(* ------------------------------------------------------------------ *)

module Loc = struct
  let count_file path =
    try
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
    with Sys_error _ -> 0

  let count_dir ?(ext = [ ".ml"; ".mli" ]) dir =
    match Sys.readdir dir with
    | files ->
      Array.to_list files
      |> List.filter (fun f -> List.exists (Filename.check_suffix f) ext)
      |> List.map (fun f -> count_file (Filename.concat dir f))
      |> List.fold_left ( + ) 0
    | exception Sys_error _ -> 0

  let count_files paths = List.fold_left (fun a p -> a + count_file p) 0 paths
end

(* ------------------------------------------------------------------ *)
(* Table 1: the techniques, with their executable enforcement points    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Perennial's techniques and where this repo enforces them";
  let rows =
    [
      ("crash invariant (5.1)",
       "Outline.Open_inv / check_recovery",
       "invariant closed after one atomic step; recovery starts from it");
      ("versioned memory (5.2)",
       "Assertion.durable + recovery entry",
       "volatile capabilities (pts, leases, receipts) dropped at crash");
      ("recovery leases (5.3)",
       "Outline.Write_durable / Synthesize",
       "writes need master+lease; only recovery mints fresh leases");
      ("refinement (4)",
       "Outline.Simulate / Refinement.check",
       "pending-op token consumed against the spec transition");
      ("crash refinement (5.5)",
       "Outline.Crash_step / finish_recovery",
       "Crashing->Done via one atomic spec crash transition");
      ("recovery helping (5.4)",
       "Spec_tok durability + Simulate in recovery",
       "pending-op tokens survive crashes; recovery completes them");
    ]
  in
  List.iter
    (fun (tech, where_, what) -> Fmt.pr "  %-26s %-44s %s@." tech where_ what)
    rows;
  (* the camera laws and frame-preserving updates behind §5.3, checked live *)
  let module Str_eq = struct
    type t = string

    let equal = String.equal
    let compare = String.compare
    let pp = Fmt.string
  end in
  let module Ls = Ra.Lease.Make (Str_eq) in
  let module F = Ra.Fpu.Make (Ls) in
  let sample =
    [ Ls.unit; Ls.master 0 "a"; Ls.lease 0 "a"; Ls.lease 0 "b";
      Ls.op (Ls.master 0 "a") (Ls.lease 0 "a") ]
  in
  let module L = Ra.Laws.Make (Ls) in
  let laws_ok = L.check_sample sample = None in
  let write_fpu =
    F.ok1 ~frames:sample
      (Ls.op (Ls.master 0 "a") (Ls.lease 0 "a"))
      (Ls.op (Ls.master 0 "b") (Ls.lease 0 "b"))
  in
  let bare_master_fpu = F.ok1 ~frames:sample (Ls.master 0 "a") (Ls.master 0 "b") in
  Fmt.pr
    "@.  lease-camera laws over sample: %s; write fpu: %s; master-only fpu: %s (must be rejected)@."
    (if laws_ok then "hold" else "VIOLATED")
    (if write_fpu then "frame-preserving" else "REJECTED")
    (if bare_master_fpu then "ACCEPTED (BUG)" else "rejected");
  Shape.check "table1" (laws_ok && write_fpu && not bare_master_fpu)

(* ------------------------------------------------------------------ *)
(* Table 2: framework lines of code                                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: lines of code for Perennial and Goose (ours vs paper)";
  let ts = Loc.count_dir "lib/tslang" in
  let core =
    Loc.count_dir "lib/core" + Loc.count_dir "lib/seplogic" + Loc.count_dir "lib/ra"
    + Loc.count_dir "lib/sched"
  in
  let goose_translator =
    Loc.count_files
      [ "lib/goose/token.ml"; "lib/goose/lexer.ml"; "lib/goose/parser.ml";
        "lib/goose/typecheck.ml"; "lib/goose/translate.ml"; "lib/goose/ast.ml" ]
  in
  let goose_lib = Loc.count_dir ~ext:[ ".go" ] "examples/goose" in
  let go_semantics =
    Loc.count_files [ "lib/goose/interp.ml"; "lib/goose/gvalue.ml" ] + Loc.count_dir "lib/gfs"
  in
  Fmt.pr "  %-34s %8s %8s@." "Component" "ours" "paper";
  Fmt.pr "  %-34s %8d %8d@." "Transition system language" ts 1710;
  Fmt.pr "  %-34s %8d %8d@." "Core framework" core 7220;
  Fmt.pr "  %-34s %8d %8d@." "Perennial total" (ts + core) 8930;
  Fmt.pr "  %-34s %8d %8d@." "Goose translator" goose_translator 1790;
  Fmt.pr "  %-34s %8d %8d@." "Goose library (Go sources)" goose_lib 220;
  Fmt.pr "  %-34s %8d %8d@." "Go semantics" go_semantics 2020

(* ------------------------------------------------------------------ *)
(* Table 3: crash-safety patterns — LoC and verification statistics     *)
(* ------------------------------------------------------------------ *)

let run_refinement name cfg =
  match R.check cfg with
  | R.Refinement_holds stats ->
    Fmt.pr "    %-40s VERIFIED  %a@." name R.pp_stats stats;
    true
  | R.Refinement_violated (f, _) ->
    Fmt.pr "    %-40s VIOLATED  %s@." name f.R.reason;
    false
  | R.Budget_exhausted stats ->
    Fmt.pr "    %-40s BUDGET    %a@." name R.pp_stats stats;
    false

let table3 () =
  section "Table 3: crash-safety patterns — lines of code and verification";
  let rows =
    [
      ("Two-disk semantics", [ "lib/disk/two_disk.ml" ], 1350);
      ("Replicated disk", [ "lib/systems/replicated_disk.ml"; "lib/systems/rd_proof.ml" ], 1180);
      ( "Single-disk semantics",
        [ "lib/disk/single_disk.ml"; "lib/disk/locks.ml"; "lib/disk/block.ml" ],
        1310 );
      ("Shadow copy", [ "lib/systems/shadow_copy.ml" ], 390);
      ("Write-ahead logging", [ "lib/systems/wal.ml"; "lib/systems/wal_proof.ml" ], 930);
      ("Group commit", [ "lib/systems/group_commit.ml" ], 1410);
    ]
  in
  Fmt.pr "  %-34s %8s %8s@." "Example" "ours" "paper";
  List.iter
    (fun (name, files, paper) -> Fmt.pr "  %-34s %8d %8d@." name (Loc.count_files files) paper)
    rows;
  Fmt.pr "@.  Exhaustive verification of each pattern (interleavings x crash points):@.";
  let vx = V.str "x" and vy = V.str "y" in
  let checks =
    [
      (fun () -> run_refinement "replicated disk (2 writers, failover)"
        (Systems.Replicated_disk.checker_config ~may_fail:true ~max_crashes:1 ~size:1
           [ [ Systems.Replicated_disk.write_call 0 vx ];
             [ Systems.Replicated_disk.write_call 0 vy ] ]));
      (fun () -> run_refinement "shadow copy (writer + reader)"
        (Systems.Shadow_copy.checker_config ~max_crashes:1
           [ [ Systems.Shadow_copy.write_call vx vy ]; [ Systems.Shadow_copy.read_call ] ]));
      (fun () -> run_refinement "write-ahead log (crash in recovery)"
        (Systems.Wal.checker_config ~max_crashes:2 [ [ Systems.Wal.write_call vx vy ] ]));
      (fun () -> run_refinement "group commit (lossy crash spec)"
        (Systems.Group_commit.checker_config ~max_crashes:1
           [ [ Systems.Group_commit.write_call vx vy; Systems.Group_commit.flush_call ] ]));
    ]
  in
  let ok = List.map (fun f -> f ()) checks in
  Fmt.pr "@.  Proof outlines (Theorem 2 premises):@.";
  List.iter
    (fun (name, r) -> Fmt.pr "    replicated-disk %-22s %a@." name O.pp_result r)
    (Systems.Rd_proof.check 1);
  List.iter
    (fun (name, r) -> Fmt.pr "    write-ahead-log %-22s %a@." name O.pp_result r)
    (Systems.Wal_proof.check ());
  List.iter
    (fun (name, r) -> Fmt.pr "    shadow-copy     %-22s %a@." name O.pp_result r)
    (Systems.Shadow_proof.check ());
  Shape.check "table3" (List.for_all Fun.id ok)

(* ------------------------------------------------------------------ *)
(* Table 4: Mailboat vs CMAIL effort                                    *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: Mailboat vs CMAIL effort (ours vs paper)";
  let impl_go =
    let src = Mailboat.Goose_src.source in
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "//"))
         (String.split_on_char '\n' src))
  in
  let proof = Loc.count_files [ "lib/mailboat/core.ml"; "lib/mailboat/core_ids.ml" ] in
  let framework =
    Loc.count_dir "lib/tslang" + Loc.count_dir "lib/core" + Loc.count_dir "lib/seplogic"
    + Loc.count_dir "lib/ra" + Loc.count_dir "lib/sched"
  in
  Fmt.pr "  %-34s %14s %14s@." "Component" "Mailboat(ours)" "CMAIL(paper)";
  Fmt.pr "  %-34s %14d %14s@." "Implementation (Go source)" impl_go "215 (Coq)";
  Fmt.pr "  %-34s %14d %14d@." "Spec + verification harness" proof 4050;
  Fmt.pr "  %-34s %14d %14d@." "Framework" framework 9600;
  Fmt.pr "  (paper's Mailboat: 159 impl / 3,360 proof / 8,900 framework — the point@.";
  Fmt.pr "   being reproduced: one abstraction relation, no intermediate layers,@.";
  Fmt.pr "   implementation smaller than CMAIL's despite adding crash safety)@.";
  Shape.check "table4" (impl_go < 215)

(* ------------------------------------------------------------------ *)
(* Figure 11: throughput scaling                                        *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  section "Figure 11: mail-server throughput vs cores (simulated multicore)";
  Fmt.pr "  (workload: 50/50 SMTP deliver + POP3 pickup, 100 users, closed loop;@.";
  Fmt.pr "   substrate: discrete-event simulator — see DESIGN.md substitutions)@.@.";
  let series = Mcsim.Mail_model.figure11 ~requests:30_000 () in
  Fmt.pr "  %-9s" "cores:";
  List.iter (fun c -> Fmt.pr "%8d" c) (List.init 12 (fun i -> i + 1));
  Fmt.pr "@.";
  List.iter
    (fun s ->
      Fmt.pr "  %-9s" (Mailboat.Server.kind_name s.Mcsim.Mail_model.kind);
      List.iter
        (fun (p : Mcsim.Mail_model.point) -> Fmt.pr "%7.0fk" (p.throughput_rps /. 1000.))
        s.Mcsim.Mail_model.points;
      Fmt.pr "@.")
    series;
  Fmt.pr "@.  Request latency at 12 cores (us, nearest-rank percentiles):@.";
  Fmt.pr "    %-9s%10s%10s%10s@." "" "p50" "p95" "p99";
  List.iter
    (fun s ->
      let pt =
        List.find
          (fun (p : Mcsim.Mail_model.point) -> p.cores = 12)
          s.Mcsim.Mail_model.points
      in
      Fmt.pr "    %-9s%10.1f%10.1f%10.1f@."
        (Mailboat.Server.kind_name s.Mcsim.Mail_model.kind)
        pt.lat_p50_us pt.lat_p95_us pt.lat_p99_us;
      Bench_out.add
        ("fig11: latency@12c ["
        ^ Mailboat.Server.kind_name s.Mcsim.Mail_model.kind
        ^ "]")
        ~iters:30_000 ~ns_per_op:(pt.lat_p50_us *. 1e3) ~metrics:[]
        ~latency:(pt.lat_p50_us, pt.lat_p95_us, pt.lat_p99_us))
    series;
  let find k = List.find (fun (s : Mcsim.Mail_model.series) -> s.kind = k) series in
  let mb = find Mailboat.Server.Mailboat_server
  and gm = find Mailboat.Server.Gomail
  and cm = find Mailboat.Server.Cmail in
  let at s c = Mcsim.Mail_model.throughput_at s c in
  let r1 = at mb 1 /. at gm 1 and r2 = at gm 1 /. at cm 1 in
  let scale = at mb 12 /. at mb 1 in
  Fmt.pr "@.  shape checks (paper's §9.3 claims):@.";
  Fmt.pr "    Mailboat/GoMail at 1 core : %.2fx  (paper: 1.81x)@." r1;
  Fmt.pr "    GoMail/CMAIL at 1 core    : %.2fx  (paper: 1.34x)@." r2;
  Fmt.pr "    Mailboat 12-core speedup  : %.1fx  (sublinear, GC+kernel bound)@." scale;
  let ordered =
    List.for_all (fun c -> at mb c > at gm c && at gm c > at cm c) (List.init 12 (fun i -> i + 1))
  in
  Fmt.pr "    ordering Mailboat > GoMail > CMAIL at every core count: %b@." ordered;
  Shape.check "fig11"
    (r1 > 1.5 && r1 < 2.2 && r2 > 1.15 && r2 < 1.6 && scale > 3. && scale < 11. && ordered)

(* ------------------------------------------------------------------ *)
(* §9.1/Figure 6: pattern walkthrough incl. helping                     *)
(* ------------------------------------------------------------------ *)

let patterns () =
  section "Patterns (E6): crash in the middle of rd_write, helping in recovery";
  let ok1 =
    run_refinement "rd_write crash at every step (Fig. 6)"
      (Systems.Replicated_disk.checker_config ~may_fail:false ~max_crashes:1 ~size:1
         [ [ Systems.Replicated_disk.write_call 0 (V.str "v") ] ])
  in
  let ok2 =
    run_refinement "mailboat deliver + crash + recovery"
      (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
         [ [ Mailboat.Core.deliver_call 0 "ab" ] ])
  in
  Fmt.pr "@.  helping is *required*: WAL recovery without the Simulate ghost step:@.";
  let broken =
    {
      O.r_body =
        [
          O.Synthesize "data0"; O.Synthesize "data1"; O.Synthesize "flag";
          O.Synthesize "log0"; O.Synthesize "log1";
          O.Read_durable { loc = "flag"; bind = "f" };
          O.Read_durable { loc = "log0"; bind = "r0" };
          O.Read_durable { loc = "log1"; bind = "r1" };
          O.Choice
            [
              [ O.Atomic [ O.Write_durable { loc = "data0"; value = Seplogic.Sval.var "r0" } ];
                O.Atomic [ O.Write_durable { loc = "data1"; value = Seplogic.Sval.var "r1" } ];
                O.Atomic [ O.Write_durable { loc = "flag"; value = Seplogic.Sval.str "e" } ] ];
              [];
            ];
          O.Crash_step;
        ];
    }
  in
  let helping_needed =
    match O.check_recovery Systems.Wal_proof.system broken with
    | O.Rejected why ->
      Fmt.pr "    rejected as it must be: %s@." (String.sub why 0 (min 100 (String.length why)));
      true
    | O.Accepted _ ->
      Fmt.pr "    UNEXPECTEDLY ACCEPTED@.";
      false
  in
  Shape.check "patterns" (ok1 && ok2 && helping_needed)

(* ------------------------------------------------------------------ *)
(* §9.5: the bug suite — every seeded bug must be caught                *)
(* ------------------------------------------------------------------ *)

let bugs () =
  section "Bug suite (E7, §9.5): seeded bugs must be rejected";
  let vx = V.str "x" and vy = V.str "y" in
  let expect_violation name cfg =
    match R.check cfg with
    | R.Refinement_violated (f, _) ->
      Fmt.pr "    %-44s CAUGHT: %s@." name
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      true
    | R.Refinement_holds _ ->
      Fmt.pr "    %-44s MISSED@." name;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    %-44s BUDGET@." name;
      false
  in
  let module Rd = Systems.Replicated_disk in
  let buggy_rd ~recovery ?(may_fail = true) ?(max_crashes = 1) threads =
    R.config ~spec:(Rd.spec 1) ~init_world:(Rd.init_world ~may_fail 1)
      ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world ~threads ~recovery
      ~post:(Rd.probe 1) ~max_crashes ()
  in
  let checks =
    [
      (fun () -> expect_violation "rd: no recovery"
        (buggy_rd ~recovery:Rd.Buggy.recover_nop [ [ Rd.write_call 0 vx ] ]));
      (fun () -> expect_violation "rd: recovery zeroes both disks (§1)"
        (buggy_rd ~recovery:(Rd.Buggy.recover_zero 1) ~may_fail:false
           [ [ Rd.write_call 0 vx ] ]));
      (fun () -> expect_violation "rd: unlocked writes"
        (buggy_rd ~recovery:(Rd.recover_prog 1) ~max_crashes:0
           [ [ Rd.Buggy.write_call_unlocked 0 vx ]; [ Rd.Buggy.write_call_unlocked 0 vy ] ]));
      (fun () -> expect_violation "shadow: in-place write"
        (Systems.Shadow_copy.checker_config ~max_crashes:1
           [ [ Systems.Shadow_copy.Buggy.write_call_in_place vx vy ] ]));
      (fun () -> expect_violation "wal: apply without log"
        (Systems.Wal.checker_config ~max_crashes:1
           [ [ Systems.Wal.Buggy.write_call_no_log vx vy ] ]));
      (fun () -> expect_violation "wal: recovery clears flag first"
        (R.config ~spec:Systems.Wal.spec ~init_world:(Systems.Wal.init_world ())
           ~crash_world:Systems.Wal.crash_world ~pp_world:Systems.Wal.pp_world
           ~threads:[ [ Systems.Wal.write_call vx vy ] ]
           ~recovery:Systems.Wal.Buggy.recover_clear_first
           ~post:[ Systems.Wal.read_call ] ~max_crashes:2 ()));
      (fun () -> expect_violation "gc: strict (lossless) crash spec"
        (Systems.Group_commit.checker_config ~spec:Systems.Group_commit.strict_spec
           ~max_crashes:1 [ [ Systems.Group_commit.write_call vx vy ] ]));
      (fun () -> expect_violation "mailboat: unspooled deliver"
        (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
           [ [ Mailboat.Core.Buggy.deliver_call_unspooled 0 "abcd" ] ]));
      (fun () -> expect_violation "mailboat: recovery deletes mailboxes"
        (R.config ~spec:(Mailboat.Core.spec ~users:1)
           ~init_world:(Mailboat.Core.init_world ~users:1 ())
           ~crash_world:Mailboat.Core.crash_world ~pp_world:Mailboat.Core.pp_world
           ~threads:[ [ Mailboat.Core.deliver_call 0 "ab" ] ]
           ~recovery:(Mailboat.Core.Buggy.recover_wrong_dir ~users:1)
           ~post:[ Mailboat.Core.pickup_call 0; Mailboat.Core.unlock_call 0 ]
           ~max_crashes:1 ()));
    ]
  in
  let results = List.map (fun f -> f ()) checks in
  (* the §9.5 infinite-pickup bug, caught by execution rather than proof *)
  let loop_caught =
    let w = Mailboat.Core.init_world ~users:1 () in
    let fs, fd = Option.get (Gfs.Fs.create w.Mailboat.Core.fs "user0" "m0") in
    let fs = Option.get (Gfs.Fs.append fs fd "abcdef") in
    let w = { w with Mailboat.Core.fs } in
    match Sched.Runner.run ~max_steps:5_000 w [ Mailboat.Core.Buggy.pickup_infinite_loop 0 ] with
    | exception Failure _ ->
      Fmt.pr "    %-44s CAUGHT: step budget (diverges)@."
        "mailboat: >1-chunk pickup loop (§9.5)";
      true
    | _ ->
      Fmt.pr "    %-44s MISSED@." "mailboat: >1-chunk pickup loop";
      false
  in
  Shape.check "bugs" (List.for_all Fun.id results && loop_caught)

(* ------------------------------------------------------------------ *)
(* Checker scaling: state-space growth across instance sizes            *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Checker scaling: exhaustive state space vs instance size";
  Fmt.pr "  %-44s %12s %12s %10s@." "instance" "executions" "steps" "time";
  let timed name cfg =
    let t0 = Unix.gettimeofday () in
    match R.check cfg with
    | R.Refinement_holds stats ->
      Fmt.pr "  %-44s %12d %12d %8.0fms@." name stats.R.executions stats.R.steps
        ((Unix.gettimeofday () -. t0) *. 1000.);
      true
    | R.Refinement_violated (f, _) ->
      Fmt.pr "  %-44s VIOLATED: %s@." name f.R.reason;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "  %-44s budget exhausted@." name;
      false
  in
  let module Rd = Systems.Replicated_disk in
  let vx = V.str "x" and vy = V.str "y" in
  let ok =
    List.map
      (fun f -> f ())
      [
        (fun () ->
          timed "rd: 1 writer, no crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 1 writer, 1 crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 1 writer, 1 crash, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 2 writers, 1 crash, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 0 vy ] ]));
        (fun () ->
          timed "rd: 2 writers, 2 crashes, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:2 ~size:1
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 0 vy ] ]));
        (fun () ->
          timed "rd: 2 writers x 2 addresses, 1 crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:2
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 1 vy ] ]));
        (fun () ->
          timed "mailboat: deliver || pickup, 1 crash"
            (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
               [ [ Mailboat.Core.deliver_call 0 "ab" ];
                 [ Mailboat.Core.pickup_call 0; Mailboat.Core.unlock_call 0 ] ]));
      ]
  in
  Fmt.pr "@.  beyond this, the randomized checker takes over (test/test_random_check.ml)@.";
  Shape.check "scaling" (List.for_all Fun.id ok)

(* ------------------------------------------------------------------ *)
(* Extension: deferred durability (the paper's §1 future-work item)     *)
(* ------------------------------------------------------------------ *)

let durability () =
  section "Extension: deferred durability (buffered writes + fsync)";
  Fmt.pr "  The paper's file-system model makes every write durable; §1 calls@.";
  Fmt.pr "  deferred durability future work.  Our Fs supports it, and the@.";
  Fmt.pr "  checker shows exactly what it costs Mailboat:@.@.";
  let plain =
    match
      R.check
        (Mailboat.Core.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
           [ [ Mailboat.Core.deliver_call 0 "ab" ] ])
    with
    | R.Refinement_violated (f, _) ->
      Fmt.pr "    deliver without fsync, deferred durability : VIOLATED (%s)@."
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      true
    | R.Refinement_holds _ ->
      Fmt.pr "    deliver without fsync unexpectedly VERIFIED@.";
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    budget exhausted@.";
      false
  in
  let fsynced =
    run_refinement "deliver with fsync, deferred durability"
      (Mailboat.Core.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
         [ [ Mailboat.Core.deliver_fsync_call 0 "ab" ] ])
  in
  let still_sync =
    run_refinement "deliver with fsync, paper's sync model "
      (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
         [ [ Mailboat.Core.deliver_fsync_call 0 "ab" ] ])
  in
  Shape.check "durability" (plain && fsynced && still_sync)

(* ------------------------------------------------------------------ *)
(* Extension: multi-address journal + transactional KVS                 *)
(* ------------------------------------------------------------------ *)

let kvs () =
  section "Extension: multi-address journal + transactional KVS (GoJournal rung)";
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  Fmt.pr "  The fixed-pair WAL generalized: per-txn entry lists, a counted@.";
  Fmt.pr "  commit record, recovery replay, and a per-key-locked KV store@.";
  Fmt.pr "  with group commit on top.  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("journal + kvs + proof (lib/journal)",
       [ "lib/journal/txn_log.ml"; "lib/journal/kvs.ml"; "lib/journal/kvs_proof.ml" ]);
      ("tests (test/test_journal.ml)", [ "test/test_journal.ml" ]);
    ];
  let b = Disk.Block.of_string in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let p = K.params ~n_keys:2 () in
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points):@.";
  let held =
    [
      run_refinement "journal: commit || read, 1 crash"
        (J.checker_config ly ~max_crashes:1
           [ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]);
      run_refinement "kvs: put || get, 1 crash"
        (K.checker_config p ~max_crashes:1
           [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ]);
      run_refinement "kvs: txn, 2 crashes (during recovery too)"
        (K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]);
      run_refinement "kvs: async put; flush || get, 1 crash"
        (K.checker_config p ~max_crashes:1
           [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ]; [ K.get_call p 0 ] ]);
    ]
  in
  Fmt.pr "@.  Seeded bugs (must be rejected):@.";
  let expect_violation name cfg =
    match R.check cfg with
    | R.Refinement_violated (f, _) ->
      Fmt.pr "    %-44s CAUGHT: %s@." name
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      true
    | R.Refinement_holds _ ->
      Fmt.pr "    %-44s MISSED@." name;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    %-44s BUDGET@." name;
      false
  in
  let caught =
    [
      expect_violation "journal: commit record before log"
        (J.checker_config ly ~max_crashes:1
           [
             [
               J.commit_call ly [ (0, b "A") ];
               J.Buggy.commit_call_record_first ly [ (0, b "C"); (1, b "D") ];
             ];
           ]);
      expect_violation "kvs: txn without the journal"
        (K.checker_config p ~max_crashes:1
           [ [ K.Buggy.txn_no_log p [ (0, b "A"); (1, b "B") ] ] ]);
      expect_violation "kvs: get skips group-commit buffer"
        (K.checker_config p ~max_crashes:0
           [ [ K.put_async_call p 0 (V.str "A"); K.Buggy.get_call_skip_buffer p 0 ] ]);
      expect_violation "kvs: strict (lossless) crash spec"
        (K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
           [ [ K.put_async_call p 0 (V.str "A") ] ]);
    ]
  in
  Fmt.pr "@.  Proof outlines (Theorem 2 premises, 2-key instance):@.";
  let outlines = Journal.Kvs_proof.check () in
  List.iter
    (fun (name, r) -> Fmt.pr "    journal-kvs %-22s %a@." name O.pp_result r)
    outlines;
  let outline_ok =
    List.for_all (fun (_, r) -> match r with O.Accepted _ -> true | O.Rejected _ -> false) outlines
  in
  let buggy_outline_rejected =
    match Journal.Kvs_proof.check_buggy () with
    | O.Rejected why ->
      Fmt.pr "    record-first txn outline REJECTED: %s@."
        (String.sub why 0 (min 60 (String.length why)));
      true
    | O.Accepted _ ->
      Fmt.pr "    record-first txn outline UNEXPECTEDLY ACCEPTED@.";
      false
  in
  Fmt.pr "@.  Throughput vs cores (simulated; 70/25/5 get/put/txn, 16 keys):@.";
  let series = Mcsim.Kvs_model.sweep ~requests:20_000 () in
  Fmt.pr "    %-18s" "cores:";
  List.iter (fun c -> Fmt.pr "%8d" c) (List.init 12 (fun i -> i + 1));
  Fmt.pr "@.";
  List.iter
    (fun (s : Mcsim.Kvs_model.series) ->
      Fmt.pr "    %-18s" (Mcsim.Kvs_model.variant_name s.variant);
      List.iter
        (fun (pt : Mcsim.Kvs_model.point) -> Fmt.pr "%7.0fk" (pt.throughput_rps /. 1000.))
        s.points;
      Fmt.pr "@.")
    series;
  Fmt.pr "@.  Request latency at 12 cores (us, nearest-rank percentiles):@.";
  Fmt.pr "    %-18s%10s%10s%10s@." "" "p50" "p95" "p99";
  List.iter
    (fun (s : Mcsim.Kvs_model.series) ->
      let pt =
        List.find (fun (p : Mcsim.Kvs_model.point) -> p.cores = 12) s.points
      in
      Fmt.pr "    %-18s%10.1f%10.1f%10.1f@."
        (Mcsim.Kvs_model.variant_name s.variant)
        pt.lat_p50_us pt.lat_p95_us pt.lat_p99_us;
      Bench_out.add
        ("kvs: latency@12c [" ^ Mcsim.Kvs_model.variant_name s.variant ^ "]")
        ~iters:20_000 ~ns_per_op:(pt.lat_p50_us *. 1e3) ~metrics:[]
        ~latency:(pt.lat_p50_us, pt.lat_p95_us, pt.lat_p99_us))
    series;
  let find v = List.find (fun (s : Mcsim.Kvs_model.series) -> s.variant = v) series in
  let at s c = Mcsim.Kvs_model.throughput_at s c in
  let gl = find Mcsim.Kvs_model.Global_lock
  and pk = find Mcsim.Kvs_model.Per_key
  and gc = find Mcsim.Kvs_model.Group_commit in
  let ordered = at gc 12 > at pk 12 && at pk 12 > at gl 12 in
  let group_gain = at gc 12 /. at gl 12 in
  let global_flat = at gl 12 /. at gl 1 < 2.2 in
  let group_scales = at gc 12 /. at gc 1 > 2. in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    group-commit > per-key > global lock at 12 cores: %b@." ordered;
  Fmt.pr "    group-commit / global lock at 12 cores: %.2fx (> 1.4x)@." group_gain;
  Fmt.pr "    global lock flat (12-core speedup %.1fx < 2.2x): %b@."
    (at gl 12 /. at gl 1) global_flat;
  Fmt.pr "    group commit scales (12-core speedup %.1fx > 2x; Amdahl-capped@."
    (at gc 12 /. at gc 1);
  Fmt.pr "      by txn/flush quiesce + GC, like the paper's fig11): %b@." group_scales;
  Shape.check "kvs"
    (List.for_all Fun.id held && List.for_all Fun.id caught && outline_ok
    && buggy_outline_rejected && ordered && group_gain > 1.4 && global_flat && group_scales)

(* ------------------------------------------------------------------ *)
(* Exploration strategies: naive vs DPOR+sleep                           *)
(* ------------------------------------------------------------------ *)

let strategies () =
  section "Exploration strategies: naive vs DPOR+sleep sets";
  let module E = Perennial_core.Explore in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  Fmt.pr "  Partial-order reduction prunes interleavings of commuting steps@.";
  Fmt.pr "  (disjoint footprints) and crash points that reach already-explored@.";
  Fmt.pr "  recovery states; the verdict must never change (differential@.";
  Fmt.pr "  harness: test/test_explore.ml).@.@.";
  let b = Disk.Block.of_string in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let p = K.params ~n_keys:2 () in
  let vx = V.str "x" and vy = V.str "y" in
  let instances : (string * (E.strategy -> R.result)) list =
    [
      ( "rd: 2 writers + crash + disk failure",
        fun strategy ->
          R.check ~strategy
            (Systems.Replicated_disk.checker_config ~may_fail:true ~max_crashes:1
               ~size:1
               [ [ Systems.Replicated_disk.write_call 0 vx ];
                 [ Systems.Replicated_disk.write_call 0 vy ] ]) );
      ( "journal: commit || read + crash",
        fun strategy ->
          R.check ~strategy
            (J.checker_config ly ~max_crashes:1
               [ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]) );
      ( "kvs: put || get + crash",
        fun strategy ->
          R.check ~strategy
            (K.checker_config p ~max_crashes:1
               [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ]) );
      ( "kvs: txn + crash during recovery",
        fun strategy ->
          R.check ~strategy
            (K.checker_config p ~max_crashes:2
               [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]) );
      ( "kvs: async put; flush || get + crash",
        fun strategy ->
          R.check ~strategy
            (K.checker_config p ~max_crashes:1
               [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ];
                 [ K.get_call p 0 ] ]) );
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
  Fmt.pr "  %-40s %-11s %8s %10s %8s %7s %7s %8s@." "instance" "strategy" "execs"
    "steps" "pruned" "crashsk" "sleepsk" "time";
  let ok = ref true in
  let kvs_reduction = ref 0. in
  List.iter
    (fun (name, run) ->
      let rows =
        List.map
          (fun s ->
            let t0 = Unix.gettimeofday () in
            let r = run s in
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            (s, r, ms))
          E.all_strategies
      in
      let naive_st, naive_v =
        let _, r, _ = List.find (fun (s, _, _) -> s = E.Naive) rows in
        (stats_of r, verdict r)
      in
      List.iter
        (fun (s, r, ms) ->
          let st = stats_of r in
          Fmt.pr "  %-40s %-11s %8d %10d %8d %7d %7d %6.1fms@."
            (if s = E.Naive then name else "")
            (E.strategy_name s) st.R.executions st.R.steps st.R.commutations_pruned
            st.R.crash_skips st.R.sleep_skips ms;
          Bench_out.add
            (Printf.sprintf "strategies: %s [%s]" name (E.strategy_name s))
            ~iters:1 ~ns_per_op:(ms *. 1e6)
            ~metrics:
              [ ("perennial_refinement_executions_total", st.R.executions);
                ("perennial_refinement_steps_total", st.R.steps);
                ("perennial_explore_commutations_pruned_total", st.R.commutations_pruned);
                ("perennial_explore_crash_skips_total", st.R.crash_skips);
                ("perennial_explore_sleep_skips_total", st.R.sleep_skips) ];
          if verdict r <> naive_v then begin
            Fmt.pr "    VERDICT MISMATCH: %s says %s, naive says %s@."
              (E.strategy_name s) (verdict r) naive_v;
            ok := false
          end;
          if st.R.executions > naive_st.R.executions then begin
            Fmt.pr "    PRUNING REGRESSION: %s explored %d > naive's %d@."
              (E.strategy_name s) st.R.executions naive_st.R.executions;
            ok := false
          end;
          if name = "kvs: put || get + crash" && s = E.Dpor_sleep then
            kvs_reduction :=
              float_of_int naive_st.R.executions /. float_of_int (max 1 st.R.executions))
        rows)
    instances;
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    verdicts agree and dpor+sleep never explores more: %b@." !ok;
  Fmt.pr "    kvs put||get reduction under dpor+sleep: %.1fx (required: >= 3x)@."
    !kvs_reduction;
  Shape.check "strategies" (!ok && !kvs_reduction >= 3.)

(* ------------------------------------------------------------------ *)
(* Fault injection: transient errors, torn writes, retry/degradation    *)
(* ------------------------------------------------------------------ *)

let faults () =
  section "Fault injection: transient I/O errors, torn writes, retry/degradation";
  let module RD = Systems.Replicated_disk in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  Fmt.pr "  Fault-eligible steps branch into their declared I/O faults (read/@.";
  Fmt.pr "  write errors, torn multi-block writes, disk loss); the checker@.";
  Fmt.pr "  enumerates every fault schedule up to a budget alongside every@.";
  Fmt.pr "  crash point.  Retry and degradation paths must refine graceful-@.";
  Fmt.pr "  degradation spec arms: each op either takes effect atomically or@.";
  Fmt.pr "  returns EIO with the state untouched.@.";
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let b = Disk.Block.of_string in
  let vx = V.str "x" in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let p = K.params ~n_keys:2 () in
  let rd_cfg budget =
    RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:budget
      [ [ RD.write_ft_call 0 vx ]; [ RD.read_ft_call 0 ] ]
  in
  Fmt.pr "@.  State-space growth with the fault budget (rd write_ft || read_ft,@.";
  Fmt.pr "  1 crash):@.";
  Fmt.pr "    %-8s %12s %8s %10s %8s@." "budget" "executions" "faults" "schedules" "retries";
  let growth =
    List.map
      (fun budget ->
        match R.check (rd_cfg budget) with
        | R.Refinement_holds st ->
          Fmt.pr "    %-8d %12d %8d %10d %8d@." budget st.R.executions st.R.faults_injected
            st.R.fault_schedules st.R.retries_observed;
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      s0.R.faults_injected = 0 && s1.R.faults_injected > 0
      && s0.R.executions < s1.R.executions
      && s1.R.executions < s2.R.executions
      && s2.R.retries_observed > 0
    | _ -> false
  in
  Fmt.pr "@.  Exhaustive verification at fault budget 2 (faults x crashes x@.";
  Fmt.pr "  interleavings):@.";
  let held =
    List.map
      (fun check -> check ())
      [
        (fun () ->
          run_refinement "journal: commit_ft || read_ft, 1 crash"
            (J.checker_config ly ~max_crashes:1 ~fault_budget:2
               [ [ J.commit_ft_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_ft_call ly 0 ] ]));
        (fun () ->
          run_refinement "kvs: put_ft; get_ft, 1 crash"
            (K.checker_config p ~max_crashes:1 ~fault_budget:2
               [ [ K.put_ft_call p 0 (V.str "A"); K.get_ft_call p 0 ] ]));
      ]
  in
  Fmt.pr "@.  Seeded fault-handling bugs (must be caught, with the injected@.";
  Fmt.pr "  fault visible in the counterexample lanes):@.";
  let expect_fault_violation name cfg =
    match R.check cfg with
    | R.Refinement_violated (f, _) ->
      let lanes = Fmt.str "%a" R.pp_failure_lanes f in
      let has_fault = contains lanes "FAULT" in
      Fmt.pr "    %-44s CAUGHT%s: %s@." name
        (if has_fault then "" else " (no FAULT in lanes!)")
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      has_fault
    | R.Refinement_holds _ ->
      Fmt.pr "    %-44s MISSED@." name;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    %-44s BUDGET@." name;
      false
  in
  let caught =
    List.map
      (fun check -> check ())
      [
        (fun () ->
          expect_fault_violation "rd: retry without re-read"
            (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
               [ [ RD.write_call 0 vx; RD.Buggy.read_ft_call_no_retry 0 ] ]));
        (fun () ->
          expect_fault_violation "journal: torn log write treated as committed"
            (J.checker_config ly ~max_crashes:1 ~fault_budget:1
               [ [ J.Buggy.commit_ft_call_ignore_torn ly [ (0, b "A"); (1, b "B") ] ] ]));
        (fun () ->
          expect_fault_violation "kvs: write error swallowed mid-apply"
            (K.checker_config p ~max_crashes:0 ~fault_budget:1
               [ [ K.Buggy.put_ft_call_swallow_apply p 0 (V.str "A"); K.get_call p 0 ] ]));
      ]
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "    retry/degradation paths verified at budget 2: %b@."
    (List.for_all Fun.id held);
  Fmt.pr "    all seeded fault bugs caught with FAULT in lanes: %b@."
    (List.for_all Fun.id caught);
  Shape.check "faults" (growth_ok && List.for_all Fun.id held && List.for_all Fun.id caught)

(* ------------------------------------------------------------------ *)
(* Extension: inode file system on the journal + spool re-host          *)
(* ------------------------------------------------------------------ *)

let fs () =
  section "Extension: inode file system on the journal (FSCQ/DaisyNFS rung)";
  let module L = Perennial_fs.Layout in
  let module Fs = Perennial_fs.Fs in
  let module Sp = Perennial_fs.Spool in
  Fmt.pr "  Bitmap allocator, inode table and directories over Txn_log@.";
  Fmt.pr "  transactions, checked against the atomic Gfs.Fs spec; Mailboat's@.";
  Fmt.pr "  spool re-hosted on it with rename as the atomic publish.  Lines@.";
  Fmt.pr "  of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("file system + spool (lib/fs)",
       [ "lib/fs/layout.ml"; "lib/fs/bitmap.ml"; "lib/fs/inode.ml"; "lib/fs/dirent.ml";
         "lib/fs/fs.ml"; "lib/fs/spool.ml" ]);
      ("tests (test/test_fs.ml)", [ "test/test_fs.ml" ]);
    ];
  let p = Fs.params (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  let ft_cfg budget =
    Fs.checker_config p ~dirs:[ "a" ]
      ~files:[ ("a", "f", "x") ]
      ~post:(Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
      ~max_crashes:1 ~fault_budget:budget
      [ [ Fs.create_ft_call p "a" "g"; Fs.append_ft_call p "a" "f" "y" ] ]
  in
  Fmt.pr "@.  State-space growth with the fault budget (create_ft; append_ft,@.";
  Fmt.pr "  1 crash):@.";
  Fmt.pr "    %-8s %12s %8s %10s %8s@." "budget" "executions" "faults" "schedules" "retries";
  let growth =
    List.map
      (fun budget ->
        match R.check (ft_cfg budget) with
        | R.Refinement_holds st ->
          Fmt.pr "    %-8d %12d %8d %10d %8d@." budget st.R.executions st.R.faults_injected
            st.R.fault_schedules st.R.retries_observed;
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      s0.R.faults_injected = 0 && s1.R.faults_injected > 0
      && s0.R.executions < s1.R.executions
      && s1.R.executions < s2.R.executions
      && s2.R.retries_observed > 0
    | _ -> false
  in
  let p2 = Fs.params (L.v ~n_inodes:5 ~n_blocks:6 ()) in
  let sp = Sp.params ~users:1 () in
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points):@.";
  let held =
    [
      run_refinement "fs: create || append, 1 crash"
        (Fs.checker_config p ~dirs:[ "a" ]
           ~files:[ ("a", "f", "xy") ]
           ~max_crashes:1
           [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]);
      run_refinement "fs: rename || read, 1 crash"
        (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
           ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
           ~max_crashes:1
           [ [ Fs.rename_call p2 ~src:("a", "s") ~dst:("b", "t") ];
             [ Fs.read_call p2 "b" "t" ] ]);
      run_refinement "fs: append, 2 crashes (during recovery)"
        (Fs.checker_config p ~dirs:[ "a" ]
           ~files:[ ("a", "f", "x") ]
           ~max_crashes:2
           [ [ Fs.append_call p "a" "f" "y" ] ]);
      run_refinement "spool-on-fs: deliver, 1 crash"
        (Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_call sp 0 "ab" ] ]);
    ]
  in
  Fmt.pr "@.  Seeded crash-safety bugs (must be rejected):@.";
  let expect_violation name cfg =
    match R.check cfg with
    | R.Refinement_violated (f, _) ->
      Fmt.pr "    %-44s CAUGHT: %s@." name
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      true
    | R.Refinement_holds _ ->
      Fmt.pr "    %-44s MISSED@." name;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    %-44s BUDGET@." name;
      false
  in
  let pb = Fs.params (L.v ~n_inodes:4 ~n_blocks:4 ()) in
  let spd = Sp.params ~durability:`Deferred ~users:1 () in
  let caught =
    [
      expect_violation "fs: allocator double-free across crash"
        (Fs.checker_config pb ~dirs:[ "a" ]
           ~files:[ ("a", "f", "xy") ]
           ~post:
             [ Fs.readdir_call pb "a"; Fs.create_call pb "a" "g";
               Fs.append_call pb "a" "g" "zz"; Fs.read_call pb "a" "f";
               Fs.read_call pb "a" "g" ]
           ~max_crashes:1
           [ [ Fs.Buggy.unlink_call_free_first pb "a" "f" ] ]);
      expect_violation "fs: rename as two transactions"
        (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
           ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
           ~max_crashes:1
           [ [ Fs.Buggy.rename_call_two_txns p2 ~src:("a", "s") ~dst:("b", "t") ] ]);
      expect_violation "spool: missing fsync before dir commit"
        (Sp.checker_config spd ~users:1 ~max_crashes:1
           [ [ Sp.deliver_nofsync_call spd 0 "ab" ] ]);
    ]
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "    fs + spool refinement verified: %b@." (List.for_all Fun.id held);
  Fmt.pr "    all seeded fs bugs caught: %b@." (List.for_all Fun.id caught);
  Shape.check "fs" (growth_ok && List.for_all Fun.id held && List.for_all Fun.id caught)

(* ------------------------------------------------------------------ *)
(* Extension: circular WAL — group commit and log absorption            *)
(* ------------------------------------------------------------------ *)

let wal () =
  section "Extension: circular WAL under the journal (group commit + absorption)";
  let module W = Perennial_wal.Wal in
  let module P = Sched.Prog in
  Fmt.pr "  The journal's log region driven as a circular ring: a background@.";
  Fmt.pr "  logger drains buffered multiwrites with group commit (one header@.";
  Fmt.pr "  install covers the whole batch) and log absorption (writes to the@.";
  Fmt.pr "  same address collapse before logging).  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("circular log + wal (lib/wal)",
       [ "lib/wal/circ.ml"; "lib/wal/circ.mli"; "lib/wal/wal.ml"; "lib/wal/wal.mli" ]);
      ("tests (test/test_wal.ml)", [ "test/test_wal.ml" ]);
    ];
  let b = Disk.Block.of_string in
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points):@.";
  let wp = W.params ~n_data:1 ~cap:2 () in
  let held =
    [
      run_refinement "wal: mwrite || logger, 1 crash"
        (W.checker_config wp ~max_crashes:1
           [ [ W.mwrite_call wp [ (0, b "A") ] ]; [ W.logger_call wp ] ]);
      run_refinement "wal: mwrite; flush || installer, 1 crash"
        (W.checker_config wp ~max_crashes:1
           [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ];
             [ W.installer_call wp ] ]);
    ]
  in
  (* Group-commit batch-size sweep: buffer k multiwrites, then one logger
     tick.  The trace tells us how many header installs the drain needed
     (group commit: one per batch) and the refinement checker how many
     executions the same batched workload costs exhaustively. *)
  Fmt.pr "@.  Group-commit batch sweep (k txns buffered, then one logger tick;@.";
  Fmt.pr "  2 hot addresses, ring cap 16):@.";
  Fmt.pr "    %-8s %8s %12s %14s %12s %10s@." "batch" "header" "txns/header"
    "records(raw)" "(absorbed)" "execs";
  let p = W.params ~n_data:2 ~cap:16 () in
  let p_raw = W.params ~absorb:false ~n_data:2 ~cap:16 () in
  let hdr_label = Printf.sprintf "disk_write_f(%d)" p.W.n_data in
  let sweep_ok = ref true in
  let prev_ratio = ref 0. in
  List.iter
    (fun k ->
      let txns = List.init k (fun i -> [ (i mod 2, b (string_of_int i)) ]) in
      let prog =
        List.fold_left
          (fun acc t -> P.Syntax.( let* ) acc (fun _ -> W.mwrite_prog p t))
          (P.return V.unit) txns
      in
      let prog = P.Syntax.( let* ) prog (fun _ -> W.logger_tick_prog p) in
      let outcome = Sched.Runner.run (W.init_world p) [ prog ] in
      let headers =
        List.length (List.filter (fun (_, l) -> l = hdr_label) outcome.Sched.Runner.trace)
      in
      let raw = List.length (W.batch_records p_raw txns) in
      let absorbed = List.length (W.batch_records p txns) in
      let t0 = Unix.gettimeofday () in
      let execs =
        let calls = List.map (fun t -> W.mwrite_call p t) txns @ [ W.flush_call p k ] in
        match R.check (W.checker_config p ~max_crashes:1 [ calls ]) with
        | R.Refinement_holds st -> st.R.executions
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          sweep_ok := false;
          0
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let ratio = float_of_int k /. float_of_int (max 1 headers) in
      Fmt.pr "    %-8d %8d %12.1f %14d %12d %10d@." k headers ratio raw absorbed execs;
      Bench_out.add
        (Printf.sprintf "wal: group commit [batch=%d]" k)
        ~iters:1 ~ns_per_op:(ms *. 1e6)
        ~metrics:
          [ ("perennial_wal_batch_txns", k);
            ("perennial_wal_header_writes", headers);
            ("perennial_wal_logged_records_raw", raw);
            ("perennial_wal_logged_records_absorbed", absorbed);
            ("perennial_refinement_executions_total", execs) ];
      if headers <> 1 then sweep_ok := false;
      if ratio < !prev_ratio then sweep_ok := false;
      prev_ratio := ratio;
      (* with 2 hot addresses, any batch beyond 2 has duplicates to absorb *)
      if k > 2 && absorbed >= raw then sweep_ok := false;
      if absorbed > 2 then sweep_ok := false)
    [ 1; 2; 4; 8 ];
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    wal refinement verified: %b@." (List.for_all Fun.id held);
  Fmt.pr "    one header install per drained batch, absorption collapses@.";
  Fmt.pr "      duplicate addresses (records <= 2 hot addrs): %b@." !sweep_ok;
  Shape.check "wal" (List.for_all Fun.id held && !sweep_ok)

(* ------------------------------------------------------------------ *)
(* Extension: network adversary + exactly-once RPC (sharded KV)         *)
(* ------------------------------------------------------------------ *)

let net () =
  section "Extension: network adversary + exactly-once RPC (sharded KV)";
  let module SK = Dist.Shard_kv in
  let module E = Perennial_core.Explore in
  Fmt.pr "  Messages travel over modeled channels; the adversary enumerates@.";
  Fmt.pr "  loss, duplication, reordering and bounded delay as schedule@.";
  Fmt.pr "  dimensions, composed with crash points and interleavings.  The@.";
  Fmt.pr "  RPC layer (per-client seq numbers + reply cache) must make every@.";
  Fmt.pr "  op exactly-once; leases fence zombies by epoch.  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("network model (lib/sched/net)", [ "lib/sched/net.ml"; "lib/sched/net.mli" ]);
      ("rpc + lease + sharded kv (lib/dist)",
       [ "lib/dist/rpc.ml"; "lib/dist/lease.ml"; "lib/dist/shard_kv.ml" ]);
      ("tests (test/test_net.ml)", [ "test/test_net.ml" ]);
    ];
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (* Adversary-budget sweep on the exactly-once inc instance (1 client with
     retry/timeout/backoff, 1 server; crashes off so the network dimension
     is isolated).  Each budget step admits one more adversarial event per
     execution; the client's retries and the server's reply-cache hits are
     the mechanism that keeps the op exactly-once through all of them. *)
  Fmt.pr "@.  Adversary-budget sweep (exactly-once inc, client || server,@.";
  Fmt.pr "  dpor+sleep):@.";
  Fmt.pr "    %-8s %10s %12s %8s %10s %10s@." "budget" "schedules" "executions"
    "retries" "cache-hits" "hits/exec";
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  let sweep_cfg budget =
    SK.checker_config p ~max_crashes:0 ~fault_budget:budget
      [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ]
  in
  let growth =
    List.map
      (fun budget ->
        let t0 = Unix.gettimeofday () in
        let r = R.check ~strategy:E.Dpor_sleep (sweep_cfg budget) in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        match r with
        | R.Refinement_holds st ->
          let rate = float_of_int st.R.cache_hits /. float_of_int (max 1 st.R.executions) in
          Fmt.pr "    %-8d %10d %12d %8d %10d %10.2f@." budget st.R.fault_schedules
            st.R.executions st.R.retries_observed st.R.cache_hits rate;
          Bench_out.add
            (Printf.sprintf "net: adversary sweep [budget=%d]" budget)
            ~iters:1 ~ns_per_op:(ms *. 1e6)
            ~metrics:
              [ ("perennial_net_budget", budget);
                ("perennial_net_schedules", st.R.fault_schedules);
                ("perennial_refinement_executions_total", st.R.executions);
                ("perennial_net_retries_total", st.R.retries_observed);
                ("perennial_net_cache_hits_total", st.R.cache_hits) ];
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      s0.R.faults_injected = 0
      && s1.R.faults_injected > 0
      && s0.R.executions < s1.R.executions
      && s1.R.executions < s2.R.executions
      && s1.R.fault_schedules < s2.R.fault_schedules
      && s1.R.retries_observed > 0
      && s1.R.cache_hits > 0
    | _ -> false
  in
  Fmt.pr "@.  Exhaustive verification (network x crash x interleavings,@.";
  Fmt.pr "  dpor+sleep):@.";
  let run_net_refinement name cfg =
    match R.check ~strategy:E.Dpor_sleep cfg with
    | R.Refinement_holds stats ->
      Fmt.pr "    %-40s VERIFIED  %a@." name R.pp_stats stats;
      true
    | R.Refinement_violated (f, _) ->
      Fmt.pr "    %-40s VIOLATED  %s@." name f.R.reason;
      false
    | R.Budget_exhausted stats ->
      Fmt.pr "    %-40s BUDGET    %a@." name R.pp_stats stats;
      false
  in
  let held =
    List.map
      (fun check -> check ())
      [
        (fun () ->
          run_net_refinement "exactly-once inc, 1 crash, 1 net event"
            (SK.checker_config p ~max_crashes:1 ~fault_budget:1
               [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ]));
        (fun () ->
          let pl = SK.params ~n_keys:1 ~n_clients:2 () in
          run_net_refinement "lease: 2 holders + expiry, 1 crash"
            (SK.checker_config pl ~max_crashes:1 ~fault_budget:0
               [ [ SK.linc_call pl ~client:0 0 ];
                 [ SK.linc_call pl ~client:1 0 ];
                 [ SK.expire_call ] ]));
      ]
  in
  Fmt.pr "@.  Seeded network bugs (must be caught; the adversarial event@.";
  Fmt.pr "  shows up as a FAULT line in the counterexample lanes):@.";
  let expect_net_violation ?(want_fault = true) name cfg =
    match R.check ~strategy:E.Dpor_sleep cfg with
    | R.Refinement_violated (f, _) ->
      let lanes = Fmt.str "%a" R.pp_failure_lanes f in
      let ok = (not want_fault) || contains lanes "FAULT" in
      Fmt.pr "    %-44s CAUGHT%s: %s@." name
        (if ok then "" else " (no FAULT in lanes!)")
        (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
      ok
    | R.Refinement_holds _ ->
      Fmt.pr "    %-44s MISSED@." name;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "    %-44s BUDGET@." name;
      false
  in
  let caught =
    List.map
      (fun check -> check ())
      [
        (fun () ->
          let pb = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
          expect_net_violation "server without reply cache (duplicate)"
            (SK.checker_config pb ~max_crashes:0 ~fault_budget:1
               [ [ SK.Buggy.srv_call_no_cache pb 0 ];
                 [ SK.ninc_call pb ~client:0 ~seq:0 0; SK.bye_call ] ]));
        (fun () ->
          let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
          let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
          expect_net_violation "raw retry without seq number"
            (SK.checker_config pr ~max_crashes:0 ~fault_budget:1
               [ [ SK.srv_call pr 0 ];
                 [ SK.Buggy.nput_call_raw_retry pr ~client:0 ~seq:0 0 (V.str "A");
                   SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
                   SK.bye_call ] ]));
        (* the zombie needs no adversarial event — expiry placement alone
           exposes the missing fence, so no FAULT line is expected *)
        (fun () ->
          let pl = SK.params ~n_keys:1 ~n_clients:2 () in
          expect_net_violation ~want_fault:false "lease write without epoch fence"
            (SK.checker_config pl ~max_crashes:0 ~fault_budget:0
               [ [ SK.Buggy.linc_call_no_fence pl ~client:0 0 ];
                 [ SK.Buggy.linc_call_no_fence pl ~client:1 0 ];
                 [ SK.expire_call ] ]));
      ]
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    adversary budget grows the state space monotonically: %b@." growth_ok;
  Fmt.pr "    exactly-once + lease fencing verified under the adversary: %b@."
    (List.for_all Fun.id held);
  Fmt.pr "    all seeded network bugs caught: %b@." (List.for_all Fun.id caught);
  Shape.check "net" (growth_ok && List.for_all Fun.id held && List.for_all Fun.id caught)

(* ------------------------------------------------------------------ *)
(* Parallel exploration: domain sweep + fingerprint pruning             *)
(* ------------------------------------------------------------------ *)

let parallel () =
  section "Parallel exploration: multicore DFS, fingerprinting";
  let module E = Perennial_core.Explore in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  let module FL = Perennial_fs.Layout in
  let module Fs = Perennial_fs.Fs in
  let host_cores = Domain.recommended_domain_count () in
  Fmt.pr "  host cores (recommended domain count): %d@." host_cores;
  Fmt.pr "  The work partition is a fixed function of the split depth (2), never of@.";
  Fmt.pr "  the domain count: verdicts and execution counts must be identical@.";
  Fmt.pr "  across the sweep — wall time is the only thing allowed to move.@.@.";
  let b = Disk.Block.of_string in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  let p = K.params ~n_keys:2 () in
  let fsp = Fs.params (FL.v ~n_inodes:4 ~n_blocks:5 ()) in
  let vx = V.str "x" in
  let verdict = function
    | R.Refinement_holds _ -> "holds"
    | R.Refinement_violated _ -> "violated"
    | R.Budget_exhausted _ -> "budget"
  in
  let stats_of = function
    | R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st -> st
  in
  let instances : (string * (domains:int -> R.result)) list =
    [
      ( "kvs put||get [naive]",
        fun ~domains ->
          R.check ~domains
            (K.checker_config p ~max_crashes:1
               [ [ K.put_call p 0 vx ]; [ K.get_call p 1 ] ]) );
      ( "kvs txn + crash in recovery [dpor+sleep]",
        fun ~domains ->
          R.check ~strategy:E.Dpor_sleep ~domains
            (K.checker_config p ~max_crashes:2
               [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]) );
      ( "journal commit||read + 1 fault [dpor+sleep]",
        fun ~domains ->
          R.check ~strategy:E.Dpor_sleep ~domains ~faults:1
            (J.checker_config ly ~max_crashes:1
               [ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ];
                 [ J.read_call ly 0 ] ]) );
      ( "fs create||append [naive]",
        fun ~domains ->
          R.check ~domains
            (Fs.checker_config fsp ~dirs:[ "a" ]
               ~files:[ ("a", "f", "xy") ]
               ~post:(Fs.probe fsp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
               ~max_crashes:1
               [ [ Fs.create_call fsp "a" "g" ]; [ Fs.append_call fsp "a" "f" "z" ] ])
      );
    ]
  in
  let sweep = [ 1; 2; 4; 8 ] in
  Fmt.pr "  %-44s %8s %8s %10s %8s@." "instance" "domains" "execs" "steps" "time";
  let deterministic = ref true in
  List.iter
    (fun (name, run) ->
      let rows =
        List.map
          (fun n ->
            let t0 = Unix.gettimeofday () in
            let r = run ~domains:n in
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            (n, r, ms))
          sweep
      in
      let _, base, _ = List.hd rows in
      List.iter
        (fun (n, r, ms) ->
          let st = stats_of r in
          Fmt.pr "  %-44s %8d %8d %10d %6.1fms@."
            (if n = 1 then name else "")
            n st.R.executions st.R.steps ms;
          Bench_out.add
            (Printf.sprintf "parallel: %s [domains=%d]" name n)
            ~iters:1 ~ns_per_op:(ms *. 1e6)
            ~metrics:
              [ ("perennial_host_cores", host_cores);
                ("perennial_refinement_domains", n);
                ("perennial_refinement_executions_total", st.R.executions);
                ("perennial_refinement_steps_total", st.R.steps) ];
          if verdict r <> verdict base || stats_of base <> st then begin
            Fmt.pr "    DETERMINISM VIOLATION: domains=%d diverged from domains=1@." n;
            deterministic := false
          end)
        rows)
    instances;
  (* fingerprint pruning: same verdict, strictly fewer executions *)
  Fmt.pr "@.  fingerprint pruning (naive strategy, kvs put||get):@.";
  let fp_cfg =
    K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 vx ]; [ K.get_call p 1 ] ]
  in
  let plain = R.check fp_cfg in
  let fp = R.check ~fingerprint:true fp_cfg in
  let fp_st = stats_of fp in
  Fmt.pr "    plain: %d executions; fingerprinted: %d (%d hits, %d misses)@."
    (stats_of plain).R.executions fp_st.R.executions fp_st.R.fingerprint_hits
    fp_st.R.fingerprint_misses;
  Bench_out.add "parallel: kvs put||get [fingerprint]" ~iters:1 ~ns_per_op:0.
    ~metrics:
      [ ("perennial_refinement_executions_total", fp_st.R.executions);
        ("perennial_fingerprint_hits_total", fp_st.R.fingerprint_hits);
        ("perennial_fingerprint_misses_total", fp_st.R.fingerprint_misses) ];
  let fp_prunes =
    fp_st.R.fingerprint_hits > 0
    && fp_st.R.executions < (stats_of plain).R.executions
    && verdict fp = verdict plain
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    stats identical across the domain sweep: %b@." !deterministic;
  Fmt.pr "    fingerprinting prunes without changing the verdict: %b@." fp_prunes;
  Shape.check "parallel" (!deterministic && fp_prunes)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel; supports the cost-model calibration)";
  let open Bechamel in
  let open Toolkit in
  let tmpfs_test =
    let fs = Gfs.Tmpfs.init [ "d" ] in
    let counter = ref 0 in
    Test.make ~name:"tmpfs create+append+close"
      (Staged.stage (fun () ->
           incr counter;
           let name = "f" ^ string_of_int !counter in
           match Gfs.Tmpfs.create fs "d" name with
           | Some fd ->
             ignore (Gfs.Tmpfs.append fs fd "payload");
             ignore (Gfs.Tmpfs.close fs fd)
           | None -> ()))
  in
  let server = Mailboat.Server.create ~kind:Mailboat.Server.Mailboat_server ~users:100 () in
  let deliver_test =
    Test.make ~name:"mailboat deliver (1 KB)"
      (Staged.stage (fun () ->
           ignore (Mailboat.Server.deliver server ~user:3 Mailboat.Workload.message_body)))
  in
  let pickup_test =
    Test.make ~name:"mailboat pickup session"
      (Staged.stage (fun () ->
           let msgs = Mailboat.Server.pickup server ~user:4 in
           List.iter (fun (id, _) -> Mailboat.Server.delete server ~user:4 id) msgs;
           Mailboat.Server.unlock server ~user:4))
  in
  let rd_check_test =
    Test.make ~name:"refinement check: rd writer+crash"
      (Staged.stage (fun () ->
           ignore
             (R.check
                (Systems.Replicated_disk.checker_config ~may_fail:false ~max_crashes:1
                   ~size:1
                   [ [ Systems.Replicated_disk.write_call 0 (V.str "x") ] ]))))
  in
  let outline_test =
    Test.make ~name:"outline check: rd_write proof"
      (Staged.stage (fun () ->
           ignore (O.check_op (Systems.Rd_proof.system 1) (Systems.Rd_proof.write_outline 0))))
  in
  let goose_parse_test =
    Test.make ~name:"goose: parse+typecheck mailboat.go"
      (Staged.stage (fun () ->
           let f = Goose.Parser.parse_file Mailboat.Goose_src.source in
           Goose.Typecheck.check_file f))
  in
  let goose_run_test =
    let file = Goose.Parser.parse_file Mailboat.Goose_src.source in
    let it = Goose.Interp.make file in
    let w = Goose.Interp.init_world ~dirs:[ "spool"; "user0" ] () in
    let counter = ref 0 in
    Test.make ~name:"goose: interpret Deliver"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Sched.Runner.run ~policy:(Sched.Runner.Random !counter) w
                [ Goose.Interp.run_func_value it "Deliver"
                    [ Goose.Gvalue.VInt 0; Goose.Gvalue.VString "hello" ] ])))
  in
  let tests =
    [ tmpfs_test; deliver_test; pickup_test; rd_check_test; outline_test; goose_parse_test;
      goose_run_test ]
  in
  List.iter
    (fun test ->
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
      let raw = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Fmt.pr "  %-40s %12.1f ns/run@." name est;
            Bench_out.add ("micro: " ^ name) ~iters:1 ~ns_per_op:est ~metrics:[]
          | Some _ | None -> Fmt.pr "  %-40s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all =
  [ ("table1", table1); ("table2", table2); ("table3", table3); ("table4", table4);
    ("fig11", fig11); ("patterns", patterns); ("bugs", bugs); ("scaling", scaling);
    ("durability", durability); ("kvs", kvs); ("strategies", strategies);
    ("faults", faults); ("fs", fs); ("wal", wal); ("net", net); ("parallel", parallel);
    ("micro", micro) ]

let slow_sections = [ "fig11"; "micro" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let quick = List.mem "--quick" args in
  let json_flag = List.mem "--json" args in
  let json_file =
    match List.find_opt (fun a -> Filename.check_suffix a ".json") args with
    | Some f -> Some f
    | None -> if json_flag then Some "BENCH_results.json" else None
  in
  let args =
    List.filter
      (fun a -> a <> "--quick" && a <> "--json" && not (Filename.check_suffix a ".json"))
      args
  in
  let chosen =
    if args <> [] then args
    else if quick then
      List.filter (fun n -> not (List.mem n slow_sections)) (List.map fst all)
    else List.map fst all
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f ->
        if json_file = None then f ()
        else begin
          let before = Obs.Metrics.snapshot () in
          let t0 = Obs.Trace.now_us () in
          f ();
          let dt_ns = (Obs.Trace.now_us () -. t0) *. 1e3 in
          Bench_out.add name ~iters:1 ~ns_per_op:dt_ns
            ~metrics:(Obs.Metrics.counters_delta ~before ~after:(Obs.Metrics.snapshot ()))
        end
      | None -> Fmt.epr "unknown section %s@." name)
    chosen;
  Option.iter Bench_out.write json_file;
  Shape.report ()
