type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Opt of t option

let unit = Unit
let bool b = Bool b
let int n = Int n
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs
let some v = Opt (Some v)
let none = Opt None

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Opt None, Opt None -> true
  | Opt (Some x), Opt (Some y) -> equal x y
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Opt _), _ -> false

let rec compare a b =
  let tag = function
    | Unit -> 0 | Bool _ -> 1 | Int _ -> 2 | Str _ -> 3
    | Pair _ -> 4 | List _ -> 5 | Opt _ -> 6
  in
  match a, b with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
    let c = compare x1 y1 in
    if c <> 0 then c else compare x2 y2
  | List xs, List ys -> List.compare compare xs ys
  | Opt x, Opt y -> Option.compare compare x y
  | _, _ -> Int.compare (tag a) (tag b)

let hash v = Hashtbl.hash v

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) vs
  | Opt None -> Fmt.string ppf "None"
  | Opt (Some v) -> Fmt.pf ppf "Some %a" pp v

let to_string v = Fmt.str "%a" pp v

let get_int = function Int n -> n | v -> invalid_arg ("Value.get_int: " ^ to_string v)
let get_bool = function Bool b -> b | v -> invalid_arg ("Value.get_bool: " ^ to_string v)
let get_str = function Str s -> s | v -> invalid_arg ("Value.get_str: " ^ to_string v)
let get_list = function List vs -> vs | v -> invalid_arg ("Value.get_list: " ^ to_string v)
let get_pair = function Pair (a, b) -> (a, b) | v -> invalid_arg ("Value.get_pair: " ^ to_string v)
let get_opt = function Opt o -> o | v -> invalid_arg ("Value.get_opt: " ^ to_string v)
