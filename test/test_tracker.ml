(* The spec-side linearization tracker (lib/core/tracker.ml) against a
   reference that re-saturates from scratch and dedups with lists — the
   tracker's original algorithm, kept here only as the oracle.  Random
   sequences of invoke, respond, saturate and crash run on both over a
   small nondeterministic spec; the candidate sets (in order), the raised
   exceptions and the per-call high-water marks must agree, and answering
   the same response twice must give the physically same set and the same
   counts. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module Tk = Perennial_core.Tracker

(* State: an int in 0..3.  [bump] has several outcomes, [wait] none but in
   state 3, [write_ft] an EIO arm, [poke] is undefined in state 2. *)
let spec : int Spec.t =
  {
    Spec.name = "toy";
    init = 0;
    compare_state = Int.compare;
    pp_state = Fmt.int;
    step =
      (fun op args ->
        match (op, args) with
        | "bump", [] ->
          T.bind T.reads (fun s ->
              T.bind (T.choose [ 1; 2 ]) (fun d ->
                  T.bind (T.puts ((s + d) mod 4)) (fun () -> T.ret (V.int s))))
        | "read", [] -> T.gets V.int
        | "wait", [] -> T.bind T.reads (fun s -> T.bind (T.guard (s = 3)) (fun () -> T.ret V.unit))
        | "write_ft", [ V.Int n ] ->
          T.bind (T.choose [ true; false ]) (fun ok ->
              if ok then T.bind (T.puts n) (fun () -> T.ret V.unit)
              else T.ret Sched.Fault.err_value)
        | "poke", [] -> T.bind T.reads (fun s -> T.bind (T.check (s <> 2)) (fun () -> T.ret V.unit))
        | _ -> invalid_arg ("toy: unknown op " ^ op));
    crash = T.bind (T.choose [ true; false ]) (fun keep -> if keep then T.ret () else T.puts 0);
  }

let calls =
  [| Spec.call "bump" []; Spec.call "read" []; Spec.call "wait" [];
     Spec.call "write_ft" [ V.int 1 ]; Spec.call "write_ft" [ V.int 3 ];
     Spec.call "poke" [] |]

(* ---- the reference: from-scratch saturation, list dedup ---- *)

exception Ref_vacuous
exception Ref_unexplained

type pending = { ptid : int; pcall : Spec.call; result : V.t option }
type cand = { st : int; pend : pending list }

let compare_pending a b =
  let c = Int.compare a.ptid b.ptid in
  if c <> 0 then c
  else
    let c = String.compare a.pcall.Spec.op b.pcall.Spec.op in
    if c <> 0 then c
    else
      let c = List.compare V.compare a.pcall.Spec.args b.pcall.Spec.args in
      if c <> 0 then c else Option.compare V.compare a.result b.result

let compare_cand c1 c2 =
  let c = Int.compare c1.st c2.st in
  if c <> 0 then c else List.compare compare_pending c1.pend c2.pend

(* [hwm] collects the high-water mark of one call, as the checker's
   [max_candidates] used to. *)
let dedup hwm cands =
  let sorted = List.sort_uniq compare_cand cands in
  hwm := max !hwm (List.length sorted);
  sorted

let ref_saturate hwm cands =
  let seen = ref (dedup hwm cands) in
  let rec grow frontier =
    let fresh = ref [] in
    List.iter
      (fun c ->
        List.iter
          (fun p ->
            match p.result with
            | Some _ -> ()
            | None ->
              if Spec.op_has_undefined spec c.st p.pcall then raise Ref_vacuous;
              List.iter
                (fun (st', v) ->
                  let pend =
                    List.map (fun q -> if q.ptid = p.ptid then { q with result = Some v } else q) c.pend
                  in
                  let c' = { st = st'; pend } in
                  if
                    not
                      (List.exists (fun x -> compare_cand x c' = 0) !seen
                      || List.exists (fun x -> compare_cand x c' = 0) !fresh)
                  then fresh := c' :: !fresh)
                (Spec.op_outcomes spec c.st p.pcall))
          c.pend)
      frontier;
    match !fresh with
    | [] -> ()
    | fs ->
      seen := dedup hwm (fs @ !seen);
      grow fs
  in
  grow !seen;
  !seen

let ref_add_pending tid call cands =
  List.map
    (fun c ->
      { c with pend = List.sort compare_pending ({ ptid = tid; pcall = call; result = None } :: c.pend) })
    cands

let ref_respond hwm tid v cands =
  let kept =
    List.filter_map
      (fun c ->
        match List.find_opt (fun p -> p.ptid = tid) c.pend with
        | Some { result = Some v'; _ } when V.equal v v' ->
          Some { c with pend = List.filter (fun p -> p.ptid <> tid) c.pend }
        | Some _ | None -> None)
      (ref_saturate hwm cands)
  in
  match dedup hwm kept with [] -> raise Ref_unexplained | cs -> cs

let ref_crash hwm cands =
  let crashed =
    List.concat_map
      (fun c -> List.map (fun st' -> { st = st'; pend = [] }) (Spec.crash_outcomes spec c.st))
      (ref_saturate hwm cands)
  in
  match dedup hwm crashed with [] -> raise Ref_unexplained | cs -> cs

let render set =
  List.map
    (fun (st, pend) ->
      { st; pend = List.map (fun (ptid, pcall, result) -> { ptid; pcall; result }) pend })
    (Tk.candidates set)

let pp_cand ppf c =
  Fmt.pf ppf "%d[%a]" c.st
    (Fmt.list ~sep:Fmt.comma (fun ppf p ->
         Fmt.pf ppf "t%d:%a=%a" p.ptid Spec.pp_call p.pcall
           (Fmt.option ~none:(Fmt.any "_") V.pp) p.result))
    c.pend

let cands_t = Alcotest.testable (Fmt.Dump.list pp_cand) ( = )

(* ---- the differential ---- *)

type action =
  | Invoke of int  (** index into [calls] *)
  | Respond of int * int  (** pending slot, answer choice *)
  | Saturate
  | Crash

let show_action = function
  | Invoke i -> Fmt.str "invoke %a" Spec.pp_call calls.(i)
  | Respond (s, k) -> Printf.sprintf "respond slot %d choice %d" s k
  | Saturate -> "saturate"
  | Crash -> "crash"

let gen_action =
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> Invoke i) (int_bound (Array.length calls - 1)));
        (5, map2 (fun s k -> Respond (s, k)) (int_bound 2) (int_bound 9));
        (1, return Saturate);
        (1, return Crash) ])

type outcome = Set | Vacuous | Unexplained

let pp_outcome ppf o =
  Fmt.string ppf (match o with Set -> "set" | Vacuous -> "Vacuous" | Unexplained -> "Unexplained")

let outcome_t = Alcotest.testable pp_outcome ( = )

(* The answer a respond action gives: most choices pick one of the results
   the thread could have linearized with, the rest an arbitrary value. *)
let answer cands tid k =
  let possible =
    match ref_saturate (ref 0) cands with
    | exception Ref_vacuous -> []
    | sat ->
      List.sort_uniq V.compare
        (List.filter_map
           (fun c ->
             match List.find_opt (fun p -> p.ptid = tid) c.pend with
             | Some { result = Some v; _ } -> Some v
             | _ -> None)
           sat)
  in
  if k < 7 && possible <> [] then List.nth possible (k mod List.length possible)
  else [| V.unit; V.int 0; V.int 2; Sched.Fault.err_value |].(k mod 4)

let run_actions actions =
  let counts = ref [] in
  let tk = Tk.create spec ~live:(ref true) ~count:(fun c -> counts := c :: !counts) in
  let last_count () = match !counts with c :: _ -> c | [] -> Alcotest.fail "no counts" in
  let set = ref (Tk.initial tk) and cands = ref [ { st = spec.Spec.init; pend = [] } ] in
  let pending = ref [] and next_tid = ref 0 in
  let reset () =
    set := Tk.initial tk;
    cands := [ { st = spec.Spec.init; pend = [] } ];
    pending := []
  in
  (* Run one call on both sides: same outcome, same set in the same order,
     and — for calls that report counts — the same high-water mark. *)
  let both ?(counted = true) what tk_f ref_f =
    let n_counts = List.length !counts in
    let hwm = ref 0 in
    let r_ref =
      match ref_f hwm with
      | c -> Ok c
      | exception Ref_vacuous -> Error Vacuous
      | exception Ref_unexplained -> Error Unexplained
    in
    let r_tk =
      match tk_f () with
      | s -> Ok s
      | exception Tk.Vacuous -> Error Vacuous
      | exception Tk.Unexplained -> Error Unexplained
    in
    let kind = function Ok _ -> Set | Error o -> o in
    Alcotest.check outcome_t (what ^ ": outcome") (kind r_ref) (kind r_tk);
    if counted then begin
      Alcotest.(check int) (what ^ ": one report") (n_counts + 1) (List.length !counts);
      let c = last_count () in
      Alcotest.(check int) (what ^ ": high-water mark") !hwm c.Tk.max_size;
      Alcotest.(check (option int)) (what ^ ": produced")
        (match r_tk with Ok s -> Some (List.length (Tk.candidates s)) | Error _ -> None)
        c.Tk.produced
    end
    else Alcotest.(check int) (what ^ ": no report") n_counts (List.length !counts);
    match (r_ref, r_tk) with
    | Ok c, Ok s ->
      Alcotest.check cands_t (what ^ ": candidates") c (render s);
      cands := c;
      set := s
    | _ -> reset ()
  in
  List.iter
    (fun a ->
      let what = show_action a in
      match a with
      | Invoke i ->
        if List.length !pending < 3 then begin
          let tid = !next_tid in
          incr next_tid;
          pending := !pending @ [ tid ];
          both ~counted:false what
            (fun () -> Tk.add_pending tk tid calls.(i) !set)
            (fun _ -> ref_add_pending tid calls.(i) !cands)
        end
      | Respond (slot, k) ->
        (match !pending with
        | [] -> ()
        | ps ->
          let tid = List.nth ps (slot mod List.length ps) in
          let v = answer !cands tid k in
          let input = !set in
          let hits0 = Tk.memo_hits tk in
          both what (fun () -> Tk.respond tk tid v input) (fun hwm -> ref_respond hwm tid v !cands);
          pending := List.filter (( <> ) tid) ps;
          (* the same response again: answered from the memo on success,
             recomputed and raised again on failure — with the same counts *)
          let first = List.hd !counts in
          (match Tk.respond tk tid v input with
          | again ->
            Alcotest.(check bool) (what ^ ": memo returns the same set") true (again == !set);
            Alcotest.(check int) (what ^ ": memo hit") (hits0 + 1) (Tk.memo_hits tk)
          | exception (Tk.Vacuous | Tk.Unexplained) ->
            Alcotest.(check int) (what ^ ": failures are not cached") hits0 (Tk.memo_hits tk));
          Alcotest.(check bool) (what ^ ": same counts replayed") true (List.hd !counts = first))
      | Saturate ->
        both what (fun () -> Tk.saturate tk !set) (fun hwm -> ref_saturate hwm !cands)
      | Crash ->
        both what (fun () -> Tk.crash tk !set) (fun hwm -> ref_crash hwm !cands);
        pending := [])
    actions;
  true

let prop_differential =
  QCheck.Test.make ~name:"tracker agrees with from-scratch saturation" ~count:1000
    QCheck.(
      make
        ~print:(fun l -> String.concat "; " (List.map show_action l))
        Gen.(list_size (int_bound 30) gen_action))
    run_actions

(* ---- unit tests ---- *)

let bump = Spec.call "bump" []
let read = Spec.call "read" []

let test_incremental_closure () =
  let tk = Tk.create spec ~live:(ref true) ~count:ignore in
  let s = Tk.add_pending tk 0 bump (Tk.initial tk) in
  let s = Tk.add_pending tk 1 read s in
  let sat = Tk.saturate tk s in
  (* 0 → {1,2} by bump, read before or after: the unlinearized set, bump
     alone (2), read alone (1), bump then read (2), read then bump (2) *)
  Alcotest.(check int) "closed size" 8 (List.length (Tk.candidates sat));
  Alcotest.(check bool) "closing a closed set is free" true (Tk.saturate tk sat == sat);
  let r = Tk.respond tk 1 (V.int 0) s in
  (* read saw 0: bump linearized after it, or not yet *)
  Alcotest.(check (list int)) "states after read=0" [ 0; 1; 2 ]
    (List.map fst (Tk.candidates r))

let test_memo_hits_siblings () =
  let tk = Tk.create spec ~live:(ref true) ~count:ignore in
  let s = Tk.add_pending tk 0 bump (Tk.initial tk) in
  let a = Tk.respond tk 0 (V.int 0) s in
  let b = Tk.respond tk 0 (V.int 0) s in
  Alcotest.(check bool) "same set" true (a == b);
  Alcotest.(check int) "one hit" 1 (Tk.memo_hits tk);
  let s' = Tk.add_pending tk 0 bump (Tk.initial tk) in
  let c = Tk.respond tk 0 (V.int 0) s' in
  Alcotest.(check bool) "keyed on physical identity" false (a == c);
  Alcotest.(check int) "still one hit" 1 (Tk.memo_hits tk)

let test_not_live_reports_nothing () =
  let live = ref false and reports = ref 0 in
  let tk = Tk.create spec ~live ~count:(fun _ -> incr reports) in
  let s = Tk.add_pending tk 0 bump (Tk.initial tk) in
  let s0 = Tk.respond tk 0 (V.int 0) s in
  ignore (Tk.crash tk s0);
  Alcotest.(check int) "replay counts nothing" 0 !reports;
  live := true;
  ignore (Tk.respond tk 0 (V.int 0) s);
  Alcotest.(check int) "a live memo hit replays its counts" 1 !reports

let test_vacuous_and_blocked () =
  let tk = Tk.create spec ~live:(ref true) ~count:ignore in
  (* write_ft 2 may move the state to 2, where poke is undefined *)
  let s = Tk.add_pending tk 0 (Spec.call "write_ft" [ V.int 2 ]) (Tk.initial tk) in
  let s = Tk.add_pending tk 1 (Spec.call "poke" []) s in
  Alcotest.check_raises "UB reachable" Tk.Vacuous (fun () -> ignore (Tk.saturate tk s));
  let w = Tk.add_pending tk 0 (Spec.call "wait" []) (Tk.initial tk) in
  Alcotest.check_raises "blocked op cannot respond" Tk.Unexplained (fun () ->
      ignore (Tk.respond tk 0 V.unit w))

let suite =
  [
    Alcotest.test_case "incremental closure" `Quick test_incremental_closure;
    Alcotest.test_case "memo answers sibling responses" `Quick test_memo_hits_siblings;
    Alcotest.test_case "replay reports no counts" `Quick test_not_live_reports_nothing;
    Alcotest.test_case "vacuous and blocked operations" `Quick test_vacuous_and_blocked;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
