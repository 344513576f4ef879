(* Stats pin: the verdict, the full rendered stats and an MD5 of the
   failure lanes of a fixed set of fast instances, under every exploration
   strategy, sequentially and on two domains, plus seeded random walks at
   fault budget 0.  Any change to how the checker explores — order of
   discovery, counters, budget accounting, counterexample choice — moves a
   line of test/golden/stats_pin.txt.  GOLDEN_UPDATE=1 regenerates it. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore

let golden = "stats_pin.txt"

let golden_path () =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" golden; Filename.concat "test/golden" golden ]

let render_result r =
  let verdict, stats, lanes =
    match r with
    | R.Refinement_holds s -> ("holds", s, "-")
    | R.Refinement_violated (f, s) ->
      ("violated", s, Digest.to_hex (Digest.string (Fmt.str "%a" R.pp_failure_lanes f)))
    | R.Budget_exhausted s -> ("budget", s, "-")
  in
  Fmt.str "%s | %a | lanes=%s" verdict R.pp_stats stats lanes

(* Exhaustive instances: each row runs under both strategies, with and
   without [~domains:2]. *)
let exhaustive : (string * (E.strategy -> ?domains:int -> unit -> R.result)) list =
  let module RD = Systems.Replicated_disk in
  let module K = Journal.Kvs in
  let module W = Perennial_wal.Wal in
  let module Fs = Perennial_fs.Fs in
  let module SK = Dist.Shard_kv in
  let module M = Mailboat.Core in
  let b = Disk.Block.of_string in
  let kp = K.params ~n_keys:2 () in
  let wp = W.params ~n_data:1 ~cap:2 () in
  let fp = Fs.params (Perennial_fs.Layout.v ~n_inodes:4 ~n_blocks:5 ()) in
  let p1 = SK.params ~n_keys:1 ~n_clients:1 () in
  let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  let pl = SK.params ~n_keys:1 ~n_clients:2 () in
  let chk ?faults cfg strategy ?domains () = R.check ~strategy ?faults ?domains cfg in
  [
    ( "kvs put || get + crash",
      chk
        (K.checker_config kp ~max_crashes:1
           [ [ K.put_call kp 0 (V.str "A") ]; [ K.get_call kp 1 ] ]) );
    ( "kvs txn + 2 crashes, step budget 400",
      chk
        {
          (K.checker_config kp ~max_crashes:2 [ [ K.txn_call kp [ (0, b "A"); (1, b "B") ] ] ])
          with
          R.step_budget = 400;
        } );
    ( "wal mwrite || logger + crash",
      chk
        (W.checker_config wp ~max_crashes:1
           [ [ W.mwrite_call wp [ (0, b "A") ] ]; [ W.logger_call wp ] ]) );
    ( "wal seeded installer trim-first",
      chk
        (W.checker_config wp ~max_crashes:1
           [ [ W.mwrite_call wp [ (0, b "A") ];
               W.flush_call wp 1;
               W.Buggy.installer_call_trim_first wp ] ]) );
    ( "fs ft create; ft append + crash, faults 1",
      chk ~faults:1
        (Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ]
           ~post:(Fs.probe fp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
           ~max_crashes:1
           [ [ Fs.create_ft_call fp "a" "g"; Fs.append_ft_call fp "a" "f" "y" ] ]) );
    ( "rd ft write || ft read + crash, faults 2",
      chk
        (RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:2
           [ [ RD.write_ft_call 0 (V.str "x") ]; [ RD.read_ft_call 0 ] ]) );
    ( "rd seeded read_ft no retry, faults 1",
      chk
        (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
           [ [ RD.write_call 0 (V.str "x"); RD.Buggy.read_ft_call_no_retry 0 ] ]) );
    ( "net exactly-once inc, net 1",
      chk
        (SK.checker_config p1 ~max_crashes:0 ~fault_budget:1
           [ [ SK.ninc_call p1 ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p1 0 ] ]) );
    ( "net put + crash, net 1",
      chk
        (SK.checker_config p0 ~max_crashes:1 ~fault_budget:1
           [ [ SK.nput_call p0 ~client:0 ~seq:0 0 (V.str "A"); SK.bye_call ];
             [ SK.srv_call p0 0 ] ]) );
    ( "net seeded srv no cache, net 1",
      chk
        (SK.checker_config p0 ~max_crashes:0 ~fault_budget:1
           [ [ SK.Buggy.srv_call_no_cache p0 0 ];
             [ SK.ninc_call p0 ~client:0 ~seq:0 0; SK.bye_call ] ]) );
    ( "net seeded lease without fence",
      chk
        (SK.checker_config pl ~max_crashes:0 ~fault_budget:0
           [ [ SK.Buggy.linc_call_no_fence pl ~client:0 0 ];
             [ SK.Buggy.linc_call_no_fence pl ~client:1 0 ];
             [ SK.expire_call ] ]) );
    ( "mailboat deliver || deliver + crash, step budget 20000",
      chk
        {
          (M.checker_config ~users:1 ~max_crashes:1
             [ [ M.deliver_call 0 "a" ]; [ M.deliver_call 0 "b" ] ])
          with
          R.step_budget = 20_000;
        } );
  ]

(* Fingerprint pruning is naive-only: pinned separately. *)
let fingerprinted : (string * (?domains:int -> unit -> R.result)) list =
  let module Fs = Perennial_fs.Fs in
  let module M = Mailboat.Core in
  let fp = Fs.params (Perennial_fs.Layout.v ~n_inodes:4 ~n_blocks:5 ()) in
  [
    ( "fs ft create; ft append + crash, faults 1",
      fun ?domains () ->
        R.check ~fingerprint:true ~faults:1 ?domains
          (Fs.checker_config fp ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ]
             ~post:(Fs.probe fp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
             ~max_crashes:1
             [ [ Fs.create_ft_call fp "a" "g"; Fs.append_ft_call fp "a" "f" "y" ] ]) );
    ( "mailboat deliver || deliver",
      fun ?domains () ->
        R.check ~fingerprint:true ?domains
          (M.checker_config ~users:1 ~max_crashes:0
             [ [ M.deliver_call 0 "a" ]; [ M.deliver_call 0 "b" ] ]) );
  ]

(* Random walks at fault budget 0. *)
let walks : (string * (unit -> R.result)) list =
  let module K = Journal.Kvs in
  let module M = Mailboat.Core in
  let module RD = Systems.Replicated_disk in
  let kp = K.params ~n_keys:2 () in
  let mcfg =
    M.checker_config ~users:2 ~max_crashes:1
      [ [ M.deliver_call 0 "ab"; M.deliver_call 0 "cd" ];
        [ M.deliver_call 1 "ef" ];
        [ M.pickup_call 1; M.unlock_call 1 ] ]
  in
  [
    ("random mailboat 100 walks seed 17", fun () -> R.check_random ~schedules:100 mcfg);
    ( "random kvs put || get 200 walks seed 5, crash 0.2",
      fun () ->
        R.check_random ~schedules:200 ~seed:5 ~crash_prob:0.2
          (K.checker_config kp ~max_crashes:2
             [ [ K.put_call kp 0 (V.str "A") ]; [ K.get_call kp 0 ] ]) );
    ( "random rd unlocked writes 800 walks, domains 2",
      fun () ->
        R.check_random ~schedules:800 ~crash_prob:0.0 ~domains:2
          (R.config ~spec:(RD.spec 1)
             ~init_world:(RD.init_world ~may_fail:true 1)
             ~crash_world:RD.crash_world ~pp_world:RD.pp_world
             ~threads:
               [ [ RD.Buggy.write_call_unlocked 0 (V.str "a") ];
                 [ RD.Buggy.write_call_unlocked 0 (V.str "b") ] ]
             ~recovery:(RD.recover_prog 1) ~post:(RD.probe 1) ~max_crashes:0 ()) );
  ]

let lines () =
  List.concat_map
    (fun (name, run) ->
      List.concat_map
        (fun s ->
          List.map
            (fun (d, domains) ->
              Fmt.str "%s | %s | %s | %s" name (E.strategy_name s) d
                (render_result (run s ?domains ())))
            [ ("seq", None); ("d2", Some 2) ])
        E.all_strategies)
    exhaustive
  @ List.concat_map
      (fun (name, run) ->
        List.map
          (fun (d, domains) ->
            Fmt.str "%s | naive+fingerprint | %s | %s" name d (render_result (run ?domains ())))
          [ ("seq", None); ("d2", Some 2) ])
      fingerprinted
  @ List.map (fun (name, run) -> Fmt.str "%s | %s" name (render_result (run ()))) walks

let test_stats_pin () =
  let got = String.concat "\n" (lines ()) ^ "\n" in
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
    let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
    let oc = open_out_bin (Filename.concat dir golden) in
    output_string oc got;
    close_out oc
  end;
  let want =
    match golden_path () with
    | Some file -> In_channel.with_open_bin file In_channel.input_all
    | None -> Alcotest.failf "golden file %s not found" golden
  in
  let want_lines = String.split_on_char '\n' want and got_lines = String.split_on_char '\n' got in
  Alcotest.(check int) "stats pin: row count" (List.length want_lines) (List.length got_lines);
  List.iter2 (fun w g -> Alcotest.(check string) "stats pin row" w g) want_lines got_lines

let suite = [ Alcotest.test_case "verdicts, stats and lanes pinned" `Quick test_stats_pin ]
