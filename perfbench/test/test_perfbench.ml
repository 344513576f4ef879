(* Tests for the benchmark's own code: the order statistics its reports
   rest on, the host-speed calibration, and the fs-serve generator's
   capacity bound. *)

module St = Perfbench.Stats
module G = Perfbench.Serve_gen
module L = Perennial_fs.Layout

let floats = Alcotest.(float 0.)
let upto n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check floats "odd" 3. (St.median [ 5.; 1.; 3. ]);
  Alcotest.check floats "even" 2.5 (St.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check floats "single" 7. (St.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () -> ignore (St.median []))

let test_percentile () =
  let s = List.rev (upto 100) in
  Alcotest.check floats "p50 of 1..100" 50. (St.percentile ~p:50. s);
  Alcotest.check floats "p99 of 1..100" 99. (St.percentile ~p:99. s);
  Alcotest.check floats "p100 is the max" 100. (St.percentile ~p:100. s);
  Alcotest.check floats "tiny p is the min" 1. (St.percentile ~p:0.001 s);
  Alcotest.check floats "p50 of two" 1. (St.percentile ~p:50. [ 2.; 1. ]);
  Alcotest.check floats "p99.9 of 1..10000" 9990. (St.percentile ~p:99.9 (upto 10_000))

(* A percentile is reported only with at least ten samples beyond it. *)
let test_tail_rule () =
  Alcotest.(check int) "p99 of 1000 leaves 10" 10 (St.beyond ~p:99. 1000);
  Alcotest.(check bool) "p99 needs 1000 samples" true (St.supported ~p:99. 1000);
  Alcotest.(check bool) "999 do not support p99" false (St.supported ~p:99. 999);
  Alcotest.(check bool) "20 samples support p50" true (St.supported ~p:50. 20);
  Alcotest.(check bool) "19 samples do not support p50" false (St.supported ~p:50. 19);
  Alcotest.(check bool) "p99.9 needs 10000 samples" true (St.supported ~p:99.9 10_000);
  Alcotest.(check bool) "9999 do not support p99.9" false (St.supported ~p:99.9 9_999);
  Alcotest.(check bool) "no samples support nothing" false (St.supported ~p:50. 0)

(* On distinct samples, a percentile is supported exactly when at least ten
   samples lie above the value [percentile] returns. *)
let prop_tail_rule =
  QCheck.Test.make ~count:300 ~name:"supported iff ten samples lie above the percentile"
    QCheck.(pair (int_range 1 5_000) (oneofl [ 50.; 90.; 95.; 99.; 99.9 ]))
    (fun (n, p) ->
      let samples = List.init n float_of_int in
      let v = St.percentile ~p samples in
      St.supported ~p n = (List.length (List.filter (fun x -> x > v) samples) >= 10))

(* Every namespace the stream passes through fits the layout: inodes, data
   blocks, directory slots and file sizes. *)
let fits lay (m : G.model) =
  let per_dir = List.map (fun d -> G.PMap.cardinal (G.PMap.filter (fun (d', _) _ -> d' = d) m)) G.dir_names in
  1 + G.dirs + G.PMap.cardinal m <= lay.L.n_inodes
  && G.blocks_used m <= lay.L.n_blocks
  && List.length per_dir <= L.max_dir_entries lay
  && List.for_all (fun k -> k <= L.max_dir_entries lay) per_dir
  && G.PMap.for_all (fun _ n -> n <= L.max_file_bytes lay) m

let prop_capacity =
  QCheck.Test.make ~count:40 ~name:"fs-serve stream never exceeds the layout's capacity"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lay = G.layout () in
      let stream = G.generate ~seed ~ops:4_000 ~crash_every:125 in
      snd
        (List.fold_left
           (fun (m, ok) op ->
             let m = G.apply m op in
             (m, ok && fits lay m))
           (G.PMap.empty, true) stream))

let test_deterministic () =
  let a = G.generate ~seed:7 ~ops:500 ~crash_every:50 and b = G.generate ~seed:7 ~ops:500 ~crash_every:50 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "another seed, another stream" false (a = G.generate ~seed:8 ~ops:500 ~crash_every:50);
  Alcotest.(check int) "crash markers" 10 (List.length (List.filter (fun o -> o = G.Crash) a))

(* The stream served through the real file system answers as the spec does. *)
let test_served () =
  let s = Perfbench.Serve.setup ~seed:11 in
  let p = Perfbench.Serve.run_pass s.params s.init s.items in
  Alcotest.(check int) "operations" Perfbench.Serve.ops_per_pass (Array.length p.responses);
  Alcotest.(check int) "recoveries failed" 0 p.recover_failed;
  Alcotest.(check int) "oracle mismatches" 0 (Perfbench.Serve.mismatches s.spec s.items p.responses)

(* A pass is rescaled by the kernel samples taken while it ran, its window
   widened to at least a second around its middle. *)
let test_calibration () =
  let module C = Perfbench.Calib in
  let samples = [| (0.0, 1e-3); (10.0, 2e-3); (10.2, 4e-3); (10.4, 3e-3); (20.0, 1e-3) |] in
  Alcotest.check floats "window samples only" 3e-3 (C.kernel_s samples ~t0:9.9 ~t1:10.5);
  Alcotest.check floats "short pass widened to a second" 3e-3 (C.kernel_s samples ~t0:10.2 ~t1:10.21);
  Alcotest.check_raises "no samples" (Failure "Calib.kernel_s: no calibration sample near the pass") (fun () ->
      ignore (C.kernel_s samples ~t0:4. ~t1:5.));
  Alcotest.check (Alcotest.float 1e-12) "twice the nominal kernel halves the pass" 1.
    (C.rescale [| (10., 2. *. C.reference_s) |] ~t0:10. ~t1:10. ~cpu:2.);
  Alcotest.(check bool) "the kernel does its fixed work" true (C.kernel () = C.kernel ())

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          QCheck_alcotest.to_alcotest prop_tail_rule;
        ] );
      ("calibration", [ Alcotest.test_case "rescaled by the kernel in the window" `Quick test_calibration ]);
      ( "fs-serve",
        [
          QCheck_alcotest.to_alcotest prop_capacity;
          Alcotest.test_case "seeded stream" `Quick test_deterministic;
          Alcotest.test_case "served against the spec" `Quick test_served;
        ] );
    ]
