module V = Tslang.Value

type policy =
  | Round_robin
  | Random of int
  | Fixed of int list

type 'w outcome = {
  world : 'w;
  results : V.t array;
  trace : (int * string) list;
  steps : int;
  injected : (int * Fault.kind) list;
}

(* Observability: scheduler-level counters on the default registry. *)
module Mx = struct
  open Obs.Metrics

  let runs = counter "perennial_sched_runs_total"
  let steps = counter "perennial_sched_steps_total"
  let switches = counter "perennial_sched_context_switches_total"
  let injected = counter "perennial_sched_faults_injected_total"
end

exception Undefined_behaviour of string
exception Deadlock of string

type 'w thread_state =
  | Running of ('w, V.t) Prog.t
  | Finished of V.t

let run ?(policy = Round_robin) ?(max_steps = 1_000_000) ?(fault_schedule = [])
    world threads =
  let n = List.length threads in
  let states = Array.of_list (List.map (fun p -> Running p) threads) in
  let world = ref world in
  let trace = ref [] in
  let steps = ref 0 in
  let switches = ref 0 in
  let last_ran = ref (-1) in
  (* Fault-injection oracle: [site] counts committed fault-eligible steps;
     an injection [{at; kind}] in [fault_schedule] fires at the [at]-th such
     step if the step declares [kind]. *)
  let site = ref 0 in
  let injected = ref [] in
  Obs.Metrics.inc Mx.runs;
  let rng = match policy with Random seed -> Some (Random.State.make [| seed |]) | Round_robin | Fixed _ -> None
  in
  let fixed = ref (match policy with Fixed l -> l | Round_robin | Random _ -> []) in
  let rr = ref 0 in
  (* Marks are free: consume every pending span annotation on thread [i]
     (emitting begin/end events and per-layer latency observations) before
     looking at its next real step. *)
  let span_cats = Array.make n [] in
  let rec consume_marks i =
    match states.(i) with
    | Running (Prog.Mark (m, p)) ->
      (match m with
      | Prog.Enter { sm_name; sm_cat } ->
        span_cats.(i) <- sm_cat :: span_cats.(i);
        if Obs.Trace.enabled () then Obs.Trace.span_begin ~cat:sm_cat ~tid:i sm_name
      | Prog.Exit ->
        let cat = match span_cats.(i) with [] -> "" | c :: rest -> span_cats.(i) <- rest; c in
        if Obs.Trace.enabled () then
          match Obs.Trace.span_end ~tid:i () with
          | None -> ()
          | Some dur ->
            Obs.Metrics.observe
              (Obs.Metrics.histogram
                 ~labels:[ ("layer", (if cat = "" then "unknown" else cat)) ]
                 "perennial_span_us")
              dur);
      states.(i) <- Running p;
      consume_marks i
    | Running _ | Finished _ -> ()
  in
  (* Each unfinished thread is probed once per scheduling step: its action
     runs in the current world, and the chosen thread commits from that
     same probe. *)
  let probe i =
    match states.(i) with
    | Finished _ -> None
    | Running p ->
      (match Prog.next !world p with
      | Prog.Enabled s -> Some (i, s)
      | Prog.Blocked _ -> None
      | Prog.Undefined { label; reason } ->
        raise (Undefined_behaviour (Printf.sprintf "thread %d at %s: %s" i label reason))
      | Prog.Finished _ -> assert false (* [unfinished] retired it *))
  in
  let unfinished () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      consume_marks i;
      (match states.(i) with
      | Running (Prog.Done v) -> states.(i) <- Finished v
      | Running _ | Finished _ -> ());
      match states.(i) with Running _ -> acc := i :: !acc | Finished _ -> ()
    done;
    !acc
  in
  let pick runnable =
    match rng with
    | Some st -> List.nth runnable (Random.State.int st (List.length runnable))
    | None ->
      (match !fixed with
      | i :: rest when List.mem i runnable ->
        fixed := rest;
        i
      | _ :: rest ->
        fixed := rest;
        (* fall through to round-robin on a blocked/finished choice *)
        (match List.find_opt (fun i -> i >= !rr) runnable with
        | Some i -> i
        | None -> List.hd runnable)
      | [] ->
        (match List.find_opt (fun i -> i >= !rr) runnable with
        | Some i -> i
        | None -> List.hd runnable))
  in
  let rec loop () =
    match unfinished () with
    | [] -> ()
    | pending ->
      (match List.filter_map probe pending with
      | [] ->
        raise
          (Deadlock
             (Printf.sprintf "threads %s blocked"
                (String.concat "," (List.map string_of_int pending))))
      | runnable ->
        let i = pick (List.map fst runnable) in
        let s = List.assoc i runnable in
        let commit (w', p') =
          world := w';
          states.(i) <- Running p'
        in
        (* The fault oracle numbers the committed steps that declare fault
           points; with no schedule nothing can fire, so the declared faults
           are never evaluated. *)
        let fault_fired =
          fault_schedule <> []
          &&
          match Prog.Step.faults s with
          | [] -> false
          | flts ->
            let here = !site in
            incr site;
            (match
               List.find_opt (fun (inj : Fault.injection) -> inj.at = here) fault_schedule
             with
            | None -> false
            | Some inj ->
              (match List.find_opt (fun (kd, _) -> Fault.equal_kind kd inj.kind) flts with
              | None -> false (* undeclared kind: the injection is skipped *)
              | Some (_, out) ->
                commit out;
                injected := (here, inj.kind) :: !injected;
                true))
        in
        if not fault_fired then begin
          let outs = Prog.Step.outcomes s in
          let idx =
            match rng with
            | Some st -> Random.State.int st (List.length outs)
            | None -> 0
          in
          commit (List.nth outs idx)
        end;
        trace := (i, Prog.Step.label s) :: !trace;
        incr steps;
        if !last_ran >= 0 && !last_ran <> i then incr switches;
        last_ran := i;
        if !steps > max_steps then failwith "Runner.run: step budget exceeded";
        rr := (i + 1) mod n;
        loop ())
  in
  loop ();
  Obs.Metrics.inc ~by:!steps Mx.steps;
  Obs.Metrics.inc ~by:!switches Mx.switches;
  Obs.Metrics.inc ~by:(List.length !injected) Mx.injected;
  let results =
    Array.map (function Finished v -> v | Running _ -> assert false) states
  in
  { world = !world; results; trace = List.rev !trace; steps = !steps;
    injected = List.rev !injected }

let run1 world prog =
  let out = run world [ prog ] in
  (out.world, out.results.(0))
