module V = Tslang.Value
module Spec = Tslang.Spec

exception Vacuous
exception Unexplained

(* A pending operation, stored once per set. *)
type op = { tid : int; call : Spec.call }

(* One linearization candidate: a spec state and, aligned with the set's
   [ops], each operation's result — [None] while not linearized. *)
type 's cand = { st : 's; res : V.t option array }

(* Invariants: [ops] is sorted by tid; [cands] is sorted by [compare_cand]
   without duplicates and has [size] elements; the set is closed under
   linearizing any unlinearized operation except those in [fresh] (tids
   invoked since the last closure), which are unlinearized in every
   candidate. *)
type 's t = { ops : op array; fresh : int list; cands : 's cand list; size : int }

type counts = { dedup_hits : int; max_size : int; produced : int option }

(* The counts of one call in progress. *)
type acc = { mutable dups : int; mutable hwm : int }

type 's entry = { m_in : 's t; m_tid : int; m_v : V.t; m_out : 's t; m_counts : counts }

type 's tracker = {
  initial : 's t;
  add_pending : int -> Spec.call -> 's t -> 's t;
  saturate : 's t -> 's t;
  respond : int -> V.t -> 's t -> 's t;
  crash : 's t -> 's t;
  hits : int ref;
}

(* Responses memoized per tracker.  A fixed handful suffices: the entries
   that pay are the siblings of one DFS node, which share its set. *)
let memo_size = 16

(* Candidates of one set share their ops, so comparing two of them compares
   results position by position: the same order as comparing their
   (tid, call, result) lists sorted by tid.  The order decides the first
   candidate, whose state registers the coverage arms. *)
let compare_res a b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Option.compare V.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let array_insert a pos x =
  Array.init (Array.length a + 1) (fun j -> if j < pos then a.(j) else if j = pos then x else a.(j - 1))

let array_remove a pos = Array.init (Array.length a - 1) (fun j -> if j < pos then a.(j) else a.(j + 1))

let index_of ops tid =
  let rec go i = if i = Array.length ops then None else if ops.(i).tid = tid then Some i else go (i + 1) in
  go 0

let create (type s) (spec : s Spec.t) ~live ~count : s tracker =
  let compare_cand c1 c2 =
    let c = spec.Spec.compare_state c1.st c2.st in
    if c <> 0 then c else compare_res c1.res c2.res
  in
  let module Seen = Set.Make (struct
    type t = s cand

    let compare = compare_cand
  end) in
  let rec merge acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: a', y :: b' ->
      if compare_cand x y <= 0 then merge (x :: acc) a' b else merge (y :: acc) a b'
  in
  (* Incremental closure, breadth first.  Round 0 linearizes each fresh
     operation on the existing candidates; each later round linearizes
     every unlinearized operation on the candidates the round before
     derived.  A derived candidate has a fresh operation linearized, so it
     can only duplicate another derived one: membership is checked against
     those alone.  Every pair (candidate, operation) met here is new, so
     each is checked for undefined behaviour; the old pairs were checked
     when they were met.  The high-water mark is taken at each round's
     end, so a closure cut short by [Vacuous] reports the rounds it
     completed. *)
  let close acc set =
    if set.size > acc.hwm then acc.hwm <- set.size;
    match set.fresh with
    | [] -> set
    | fresh ->
      let ops = set.ops in
      let runs = Array.make (Array.length ops) None in
      let run i st =
        let r =
          match runs.(i) with
          | Some r -> r
          | None ->
            let r = Spec.op_run spec ops.(i).call in
            runs.(i) <- Some r;
            r
        in
        r st
      in
      let seen = ref Seen.empty and added = ref 0 in
      let derive next c i =
        match run i c.st with
        | None -> raise Vacuous
        | Some outs ->
          List.iter
            (fun (st, v) ->
              let res = Array.copy c.res in
              res.(i) <- Some v;
              let c' = { st; res } in
              let s' = Seen.add c' !seen in
              if s' == !seen then acc.dups <- acc.dups + 1
              else begin
                seen := s';
                incr added;
                next := c' :: !next
              end)
            outs
      in
      let round frontier eligible =
        let next = ref [] in
        List.iter
          (fun c -> Array.iteri (fun i _ -> if eligible c i then derive next c i) ops)
          frontier;
        let n = set.size + !added in
        if n > acc.hwm then acc.hwm <- n;
        List.rev !next
      in
      let is_fresh = Array.map (fun o -> List.mem o.tid fresh) ops in
      let rec grow = function
        | [] -> ()
        | frontier -> grow (round frontier (fun c i -> c.res.(i) = None))
      in
      grow (round set.cands (fun _ i -> is_fresh.(i)));
      {
        set with
        fresh = [];
        cands = merge [] set.cands (Seen.elements !seen);
        size = set.size + !added;
      }
  in
  (* Run [f] on a fresh accumulator and report its counts once, whether it
     returns a set or raises. *)
  let counted f =
    let acc = { dups = 0; hwm = 0 } in
    match f acc with
    | set ->
      if set.size > acc.hwm then acc.hwm <- set.size;
      let c = { dedup_hits = acc.dups; max_size = acc.hwm; produced = Some set.size } in
      if !live then count c;
      (set, c)
    | exception e ->
      if !live then count { dedup_hits = acc.dups; max_size = acc.hwm; produced = None };
      raise e
  in
  (* Spec-arm coverage: each invocation registers the outcome arms the spec
     offers in the invoking state ([<system>:<op>:ok|err], DESIGN.md S20);
     each response hits the arm it actually took.  An arm registered but
     never hit — an error arm under fault budget 0, say — is vacuous. *)
  let arm_site call cls = spec.Spec.name ^ ":" ^ call.Spec.op ^ ":" ^ cls in
  let arm_class v = if Sched.Fault.is_eio v then "err" else "ok" in
  let register_arms call set =
    if !live && Obs.Coverage.enabled () then
      match set.cands with
      | [] -> ()
      | c :: _ ->
        Option.iter
          (List.iter (fun (_, v) ->
               Obs.Coverage.register Obs.Coverage.Arm (arm_site call (arm_class v))))
          (Spec.op_run spec call c.st)
  in
  let hit_arm tid v set =
    if !live && Obs.Coverage.enabled () then
      match index_of set.ops tid with
      | Some i -> Obs.Coverage.hit Obs.Coverage.Arm (arm_site set.ops.(i).call (arm_class v))
      | None -> ()
  in
  let add_pending tid call set =
    register_arms call set;
    let rec pos i =
      if i = Array.length set.ops then i
      else if set.ops.(i).tid = tid then invalid_arg "Tracker.add_pending: thread already pending"
      else if set.ops.(i).tid > tid then i
      else pos (i + 1)
    in
    let p = pos 0 in
    {
      ops = array_insert set.ops p { tid; call };
      fresh = tid :: set.fresh;
      cands = List.map (fun c -> { c with res = array_insert c.res p None }) set.cands;
      size = set.size;
    }
  in
  let saturate set = fst (counted (fun acc -> close acc set)) in
  (* The respond filter keeps the set's order: the kept candidates agree on
     [tid]'s result, so dropping it maps them in order, one to one. *)
  let filter tid v set =
    match index_of set.ops tid with
    | None -> raise Unexplained
    | Some i ->
      let n = ref 0 in
      let cands =
        List.filter_map
          (fun c ->
            match c.res.(i) with
            | Some v' when V.equal v v' ->
              incr n;
              Some { c with res = array_remove c.res i }
            | Some _ | None -> None)
          set.cands
      in
      if !n = 0 then raise Unexplained;
      { ops = array_remove set.ops i; fresh = []; cands; size = !n }
  in
  let memo = Array.make memo_size None and memo_next = ref 0 and hits = ref 0 in
  let rec lookup set tid v i =
    if i = memo_size then None
    else
      match memo.(i) with
      | Some e when e.m_in == set && e.m_tid = tid && V.equal e.m_v v -> Some e
      | Some _ | None -> lookup set tid v (i + 1)
  in
  let respond tid v set =
    hit_arm tid v set;
    match lookup set tid v 0 with
    | Some e ->
      incr hits;
      if !live then count e.m_counts;
      e.m_out
    | None ->
      let out, c = counted (fun acc -> filter tid v (close acc set)) in
      memo.(!memo_next) <- Some { m_in = set; m_tid = tid; m_v = v; m_out = out; m_counts = c };
      memo_next := (!memo_next + 1) mod memo_size;
      out
  in
  let crash set =
    fst
      (counted (fun acc ->
           let crashed =
             List.concat_map
               (fun c -> List.map (fun st -> { st; res = [||] }) (Spec.crash_outcomes spec c.st))
               (close acc set).cands
           in
           let cands = List.sort_uniq compare_cand crashed in
           let n = List.length cands in
           acc.dups <- acc.dups + (List.length crashed - n);
           if n = 0 then raise Unexplained;
           { ops = [||]; fresh = []; cands; size = n }))
  in
  {
    initial = { ops = [||]; fresh = []; cands = [ { st = spec.Spec.init; res = [||] } ]; size = 1 };
    add_pending;
    saturate;
    respond;
    crash;
    hits;
  }

let initial tk = tk.initial
let add_pending tk = tk.add_pending
let saturate tk = tk.saturate
let respond tk = tk.respond
let crash tk = tk.crash
let memo_hits tk = !(tk.hits)

let candidates set =
  List.map
    (fun c -> (c.st, Array.to_list (Array.mapi (fun i o -> (o.tid, o.call, c.res.(i))) set.ops)))
    set.cands
