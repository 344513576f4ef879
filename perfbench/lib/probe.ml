(* Per-layer attribution from outside the library: wrap the callbacks a
   checker config or a runner program hands to the library, and time or
   count them.

   The wrappers charge whichever probe is current, a module-level value
   rather than one captured in their closures: the checker's fingerprints
   digest program continuations with Marshal, and a captured, ever-changing
   probe would make equal states digest differently. *)

module P = Sched.Prog
module R = Perennial_core.Refinement

type spans = { mutable incl_s : float; mutable entered : int }

type t = {
  mutable action_s : float;
  mutable action_calls : int;
  mutable compare_calls : int;
  mutable step_calls : int;
  mutable render_s : float;
  mutable crash_world_s : float;
  layers : (string, float ref) Hashtbl.t;  (** self time by span category *)
  commit : spans;
  recover : spans;
}

let now = Unix.gettimeofday

let create () =
  {
    action_s = 0.;
    action_calls = 0;
    compare_calls = 0;
    step_calls = 0;
    render_s = 0.;
    crash_world_s = 0.;
    layers = Hashtbl.create 8;
    commit = { incl_s = 0.; entered = 0 };
    recover = { incl_s = 0.; entered = 0 };
  }

let current = ref (create ())
let use t = current := t

let layer t cat =
  match Hashtbl.find_opt t.layers cat with
  | Some l -> l
  | None ->
    let l = ref 0. in
    Hashtbl.replace t.layers cat l;
    l

let layer_s t cat = match Hashtbl.find_opt t.layers cat with Some l -> !l | None -> 0.

type span_class = Commit | Recover | Other

let span_class name =
  if String.starts_with ~prefix:"txn_commit" name then Commit
  else if String.starts_with ~prefix:"txn_recover" name then Recover
  else Other

(* The program's own code, an action or a fault function: charged to the
   innermost span category and, inside a journal commit or recovery span,
   to that span too. *)
let charge frames f w =
  let t0 = now () in
  let r = f w in
  let dt = now () -. t0 in
  let t = !current in
  t.action_s <- t.action_s +. dt;
  t.action_calls <- t.action_calls + 1;
  let l = layer t (match frames with (cat, _) :: _ -> cat | [] -> "") in
  l := !l +. dt;
  let inside c = List.exists (fun (_, cls) -> cls = c) frames in
  if inside Commit then t.commit.incl_s <- t.commit.incl_s +. dt;
  if inside Recover then t.recover.incl_s <- t.recover.incl_s +. dt;
  r

let enter = function
  | Commit -> !current.commit.entered <- !current.commit.entered + 1
  | Recover -> !current.recover.entered <- !current.recover.entered + 1
  | Other -> ()

(* [frames] is the stack of enclosing spans, innermost first, as
   (category, class) pairs. *)
let rec prog : type w a. (string * span_class) list -> (w, a) P.t -> (w, a) P.t =
 fun frames p ->
  match p with
  | P.Done _ -> p
  | P.Mark ((P.Enter { sm_name; sm_cat } as m), rest) ->
    let cls = span_class sm_name in
    enter cls;
    P.Mark (m, prog ((sm_cat, cls) :: frames) rest)
  | P.Mark (P.Exit, rest) -> P.Mark (P.Exit, prog (match frames with [] -> [] | _ :: up -> up) rest)
  | P.Atomic { label; fp; action; faults; k } ->
    P.Atomic { label; fp; action = charge frames action; faults = charge frames faults; k = (fun b -> prog frames (k b)) }

let program p = prog [] p

let crash_world crash w =
  let t0 = now () in
  let w' = crash w in
  let t = !current in
  t.crash_world_s <- t.crash_world_s +. (now () -. t0);
  w'

let render pp ppf x =
  let t0 = now () in
  pp ppf x;
  let t = !current in
  t.render_s <- t.render_s +. (now () -. t0)

(* compare_state and step run for every candidate at every step: count them
   rather than time them, so the wrapper does not swamp what it measures. *)
let config (c : ('w, 's) R.config) : ('w, 's) R.config =
  let spec = c.spec in
  let spec =
    {
      spec with
      compare_state =
        (fun a b ->
          let t = !current in
          t.compare_calls <- t.compare_calls + 1;
          spec.compare_state a b);
      step =
        (fun op args ->
          let t = !current in
          t.step_calls <- t.step_calls + 1;
          spec.step op args);
      pp_state = render spec.pp_state;
    }
  in
  let call (c, p) = (c, program p) in
  {
    c with
    spec;
    pp_world = render c.pp_world;
    crash_world = crash_world c.crash_world;
    threads = List.map (List.map call) c.threads;
    recovery = program c.recovery;
    post = List.map call c.post;
  }
