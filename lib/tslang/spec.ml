type 's t = {
  name : string;
  init : 's;
  compare_state : 's -> 's -> int;
  pp_state : 's Fmt.t;
  step : string -> Value.t list -> ('s, Value.t) Transition.t;
  crash : ('s, unit) Transition.t;
}

type call = { op : string; args : Value.t list }

let call op args = { op; args }

let pp_call ppf { op; args } =
  Fmt.pf ppf "%s(%a)" op (Fmt.list ~sep:(Fmt.any ", ") Value.pp) args

let equal_call a b =
  String.equal a.op b.op
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args

let op_outcomes spec s { op; args } = Transition.outcomes (spec.step op args) s

let op_has_undefined spec s { op; args } =
  Transition.has_undefined (spec.step op args) s

let op_run spec { op; args } =
  let tr = spec.step op args in
  fun s ->
    let outs = Transition.run tr s in
    if List.exists (function Transition.Undefined_behaviour -> true | Transition.Ok _ -> false) outs
    then None
    else Some (List.filter_map (function Transition.Ok (s', v) -> Some (s', v) | Transition.Undefined_behaviour -> None) outs)

let crash_outcomes spec s =
  List.map fst (Transition.outcomes spec.crash s)
