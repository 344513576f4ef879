(* The fs-serve operation stream: a seeded mix over a bounded name universe. *)

type op =
  | Read of string * string
  | Readdir of string
  | Append of string * string * string
  | Create of string * string
  | Unlink of string * string
  | Rename of (string * string) * (string * string)
  | Crash

let dirs = 4
let names = 8
let max_file = 32
let dir_names = List.init dirs (Printf.sprintf "d%d")
let universe = List.concat_map (fun d -> List.init names (fun i -> (d, Printf.sprintf "f%d" i))) dir_names

let is_write = function
  | Append _ | Create _ | Unlink _ | Rename _ -> true
  | Read _ | Readdir _ | Crash -> false

(* Per-mille weights: 35% read, 10% readdir, 20% append, 15% create,
   10% unlink, 10% rename. *)
let mix = [ (350, `Read); (100, `Readdir); (200, `Append); (150, `Create); (100, `Unlink); (100, `Rename) ]

module PMap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

(* The generator's own model of the namespace: file lengths by path.  It
   mirrors the spec's answers, so the stream keeps hitting files that
   exist. *)
type model = int PMap.t

let apply (m : model) = function
  | Create (d, f) -> if PMap.mem (d, f) m then m else PMap.add (d, f) 0 m
  | Append (d, f, data) -> (
    match PMap.find_opt (d, f) m with
    | Some n when n + String.length data <= max_file -> PMap.add (d, f) (n + String.length data) m
    | Some _ | None -> m)
  | Unlink (d, f) -> PMap.remove (d, f) m
  | Rename (src, dst) -> (
    match PMap.find_opt src m with
    | None -> m
    | Some n -> if src = dst then m else PMap.add dst n (PMap.remove src m))
  | Read _ | Readdir _ | Crash -> m

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let generate ~seed ~ops ~crash_every =
  let rng = Random.State.make [| 0x5e12e; seed |] in
  let all = universe in
  let existing m = List.map fst (PMap.bindings m) in
  let absent m = List.filter (fun p -> not (PMap.mem p m)) all in
  (* mostly a live target, sometimes any path (a lookup miss) *)
  let target pool = if pool <> [] && Random.State.int rng 10 > 0 then pick rng pool else pick rng all in
  let data () = String.init (1 + Random.State.int rng 4) (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
  let next m =
    let r = Random.State.int rng 1000 in
    let rec choose acc = function
      | [ (_, k) ] -> k
      | (w, k) :: rest -> if r < acc + w then k else choose (acc + w) rest
      | [] -> assert false
    in
    match choose 0 mix with
    | `Read ->
      let d, f = target (existing m) in
      Read (d, f)
    | `Readdir -> Readdir (if Random.State.int rng 5 = 0 then "/" else pick rng dir_names)
    | `Append ->
      let d, f = target (existing m) in
      Append (d, f, data ())
    | `Create ->
      let d, f = target (absent m) in
      Create (d, f)
    | `Unlink ->
      let d, f = target (existing m) in
      Unlink (d, f)
    | `Rename -> Rename (target (existing m), pick rng all)
  in
  let rec go i m acc =
    if i = ops then List.rev acc
    else
      let op = next m in
      let acc = op :: acc in
      let acc = if (i + 1) mod crash_every = 0 then Crash :: acc else acc in
      go (i + 1) (apply m op) acc
  in
  go 0 PMap.empty []

let ceil_div a b = (a + b - 1) / b

(* Four bytes per block, four entries per directory block, eight direct
   pointers: a file holds [max_file] bytes and a directory all [names]. *)
let block_bytes = 4
let dir_entries = 4
let inode_ptrs = 8

let blocks_used (m : model) =
  let per_dir = Array.make dirs 0 in
  let file_blocks =
    PMap.fold
      (fun (d, _) n acc ->
        let i = int_of_string (String.sub d 1 (String.length d - 1)) in
        per_dir.(i) <- per_dir.(i) + 1;
        acc + ceil_div n block_bytes)
      m 0
  in
  ceil_div dirs dir_entries
  + Array.fold_left (fun acc k -> acc + ceil_div k dir_entries) 0 per_dir
  + file_blocks

let full_model = List.fold_left (fun m p -> PMap.add p max_file m) PMap.empty universe

let layout () =
  Perennial_fs.Layout.v ~block_bytes ~dir_entries ~inode_ptrs ~n_inodes:(1 + dirs + (dirs * names))
    ~n_blocks:(blocks_used full_model) ()
