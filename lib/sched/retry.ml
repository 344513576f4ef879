open Prog.Syntax

let retry_prefix = "retry"
let cache_hit_prefix = "rpc_cache_hit"

let marker label = Prog.read ~fp:(Footprint.const Footprint.pure) label (fun _ -> ())
let step what = marker (retry_prefix ^ "(" ^ what ^ ")")

let retry ?bound what op =
  let rec attempt n =
    let* r = op () in
    if not (Fault.is_eio r) then Prog.return (Some r)
    else if n = Some 0 then Prog.return None
    else
      let* () = step what in
      attempt (Option.map pred n)
  in
  attempt bound
