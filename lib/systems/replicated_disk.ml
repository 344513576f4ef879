(** The replicated disk (paper §1, §3, Figures 3-5): two physical disks that
    together behave as one logical disk, tolerating one disk failure, with a
    per-address lock for linearizability and a recovery procedure that copies
    disk 1 onto disk 2 to complete interrupted writes.

    [spec] is the paper's Figure 3 verbatim; [read_prog]/[write_prog]
    are Figure 4 and [recover_prog] Figure 5.  The [Buggy] submodule
    contains deliberately broken variants that the refinement checker must
    reject (experiment E7). *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Block = Disk.Block
module IMap = Map.Make (Int)

let d1 = Disk.Two_disk.D1
let d2 = Disk.Two_disk.D2

(* ------------------------------------------------------------------ *)
(* Specification (Figure 3)                                            *)
(* ------------------------------------------------------------------ *)

type state = Block.t IMap.t

let spec_init size : state =
  List.init size (fun a -> (a, Block.zero)) |> List.to_seq |> IMap.of_seq

let spec size : state Spec.t =
  let open T.Syntax in
  {
    Spec.name = "replicated-disk";
    init = spec_init size;
    compare_state = IMap.compare Block.compare;
    pp_state =
      (fun ppf st ->
        Fmt.pf ppf "{%a}"
          (Fmt.list ~sep:Fmt.comma (fun ppf (a, b) -> Fmt.pf ppf "%d:%a" a Block.pp b))
          (IMap.bindings st));
    step =
      (fun op args ->
        match op, args with
        | "rd_read", [ V.Int a ] ->
          let* mv = T.gets (IMap.find_opt a) in
          (match mv with
          | Some v -> T.ret (Block.to_value v)
          | None -> T.undefined)
        | "rd_write", [ V.Int a; v ] ->
          let* mv = T.gets (IMap.find_opt a) in
          (match mv with
          | Some _ ->
            let* () = T.modify (IMap.add a (Block.of_value v)) in
            T.ret V.unit
          | None -> T.undefined)
        (* Graceful-degradation arms for the fault-tolerant ops: the
           operation either takes effect atomically, or returns the
           distinguished {!Sched.Fault.err_value} with the logical disk
           untouched.  Nothing in between is allowed. *)
        | "rd_read_ft", [ V.Int a ] ->
          let* mv = T.gets (IMap.find_opt a) in
          (match mv with
          | Some v ->
            let* r = T.choose [ Block.to_value v; Sched.Fault.err_value ] in
            T.ret r
          | None -> T.undefined)
        | "rd_write_ft", [ V.Int a; v ] ->
          let* mv = T.gets (IMap.find_opt a) in
          (match mv with
          | Some _ ->
            let* ok = T.choose [ true; false ] in
            if ok then
              let* () = T.modify (IMap.add a (Block.of_value v)) in
              T.ret V.unit
            else T.ret Sched.Fault.err_value
          | None -> T.undefined)
        | _ -> invalid_arg "replicated-disk spec: unknown op");
    crash = T.ret () (* no data is lost on crash *);
  }

(* ------------------------------------------------------------------ *)
(* World: two disks + per-address locks                                *)
(* ------------------------------------------------------------------ *)

type world = { disks : Disk.Two_disk.t; locks : Disk.Locks.t }

let init_world ?(may_fail = false) size =
  { disks = Disk.Two_disk.init ~may_fail size; locks = Disk.Locks.empty }

(* Volatile locks clear on crash; disks persist. *)
let crash_world w = { disks = Disk.Two_disk.crash w.disks; locks = Disk.Locks.empty }

let pp_world ppf w =
  Fmt.pf ppf "%a %a" Disk.Two_disk.pp w.disks Disk.Locks.pp w.locks

let get_disks w = w.disks
let set_disks w disks = { w with disks }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

let lock a = Disk.Locks.acquire ~get:get_locks ~set:set_locks a
let unlock a = Disk.Locks.release ~get:get_locks ~set:set_locks a

let disk_read id a = Disk.Two_disk.read ~get:get_disks ~set:set_disks id a
let disk_write id a b = Disk.Two_disk.write ~get:get_disks ~set:set_disks id a b

(* ------------------------------------------------------------------ *)
(* Implementation (Figure 4)                                           *)
(* ------------------------------------------------------------------ *)

open P.Syntax

(* func rd_read(a): lock; v, ok := read(d1, a); if !ok { v = read(d2, a) };
   unlock; return v *)
let read_prog a : (world, V.t) P.t =
  let* () = lock a in
  let* r1 = disk_read d1 a in
  let* v =
    match V.get_opt r1 with
    | Some v -> P.return v
    | None ->
      (* disk 1 failed: fall back to disk 2, which cannot also have failed *)
      let* r2 = disk_read d2 a in
      (match V.get_opt r2 with
      | Some v -> P.return v
      | None -> P.ub "both disks failed")
  in
  let* () = unlock a in
  P.return v

(* func rd_write(a, v): lock; write(d1, a, v); write(d2, a, v); unlock *)
let write_prog a v : (world, V.t) P.t =
  let b = Block.of_value v in
  let* () = lock a in
  let* () = disk_write d1 a b in
  let* () = disk_write d2 a b in
  let* () = unlock a in
  P.return V.unit

(* func rd_recover(): for a := range disk { v, ok := read(d1, a);
   if ok { write(d2, a, v) } } (Figure 5) *)
let recover_prog size : (world, V.t) P.t =
  let rec loop a =
    if a >= size then P.return V.unit
    else
      let* r1 = disk_read d1 a in
      match V.get_opt r1 with
      | Some v ->
        let* () = disk_write d2 a (Block.of_value v) in
        loop (a + 1)
      | None -> loop (a + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Fault-tolerant operations: bounded retry, fail-over, degradation    *)
(* ------------------------------------------------------------------ *)

module Fault = Sched.Fault
module Fp = Sched.Footprint

let disk_read_f id a = Disk.Two_disk.read_f ~get:get_disks ~set:set_disks id a
let disk_write_f id a b = Disk.Two_disk.write_f ~get:get_disks ~set:set_disks id a b

(* Permanently decommission [id] IF the other disk is still alive (degraded
   mode: the survivor carries the logical disk from here on); returns
   whether it did.  Reads and writes the same durable status location the
   two-disk ops do. *)
let status_loc = Fp.Durable ("td-status", 0)

let try_degrade id other : (world, bool) P.t =
  P.det
    ~fp:(Fp.const (Fp.rw ~reads:[ status_loc ] ~writes:[ status_loc ] ()))
    (Fmt.str "degrade(%a)" Disk.Two_disk.pp_id id)
    (fun w ->
      let t = get_disks w in
      match Disk.Two_disk.disk t other with
      | Some _ -> (set_disks w (Disk.Two_disk.fail t id), true)
      | None -> (w, false))

(* func rd_read_ft(a): like rd_read, but over the fallible disk ops: a
   transient error on a disk is retried up to [retries] times, then the
   other disk is tried; when both sides are exhausted the distinguished
   EIO value is returned (reads never change durable state, so degradation
   is trivially clean). *)
let read_ft_prog ?(retries = 1) a : (world, V.t) P.t =
  let* () = lock a in
  let finish v =
    let* () = unlock a in
    P.return v
  in
  let rec attempt id alt =
    let* r =
      Sched.Retry.retry ~bound:retries (Fmt.str "read %a" Disk.Two_disk.pp_id id) (fun () ->
          disk_read_f id a)
    in
    match Option.bind r V.get_opt with
    | Some v -> finish v
    | None -> (
      (* retries exhausted, or permanent failure: fail over *)
      match alt with Some id2 -> attempt id2 None | None -> finish Fault.err_value)
  in
  attempt d1 (Some d2)

(* func rd_write_ft(a, v): write d1 then d2 through the fallible ops, each
   with bounded retry.  A disk that keeps erroring transiently while the
   other is alive is permanently decommissioned (degraded mode) and the
   write completes on the survivor; if the other disk is already dead the
   operation gives up with EIO — in that case nothing was persisted (a
   dead disk's write is a no-op and a transiently failed write persists
   nothing), so durable state is untouched, as the spec's error arm
   demands. *)
let write_ft_prog ?(retries = 1) a v : (world, V.t) P.t =
  let b = Block.of_value v in
  let* () = lock a in
  let finish r =
    let* () = unlock a in
    P.return r
  in
  let write_one id =
    let+ r =
      Sched.Retry.retry ~bound:retries (Fmt.str "write %a" Disk.Two_disk.pp_id id) (fun () ->
          disk_write_f id a b)
    in
    match Option.map V.get_opt r with
    | None -> `Gave_up
    | Some None -> `Dead
    | Some (Some _) -> `Persisted
  in
  let* r1 = write_one d1 in
  let* proceed =
    match r1 with
    | `Persisted | `Dead -> P.return true
    | `Gave_up -> try_degrade d1 d2
  in
  if not proceed then finish Fault.err_value
  else
    let* r2 = write_one d2 in
    match r2 with
    | `Persisted | `Dead -> finish V.unit
    | `Gave_up ->
      let* kicked = try_degrade d2 d1 in
      if kicked then finish V.unit else finish Fault.err_value

(* ------------------------------------------------------------------ *)
(* Calls and checker configuration                                     *)
(* ------------------------------------------------------------------ *)

let read_call a = (Spec.call "rd_read" [ V.int a ], read_prog a)
let write_call a v = (Spec.call "rd_write" [ V.int a; v ], write_prog a v)

let read_ft_call ?retries a = (Spec.call "rd_read_ft" [ V.int a ], read_ft_prog ?retries a)

let write_ft_call ?retries a v =
  (Spec.call "rd_write_ft" [ V.int a; v ], write_ft_prog ?retries a v)

(** Probe: read an address twice, so that a disk-1 failure between the two
    reads exposes any divergence between the disks. *)
let probe size =
  List.concat_map (fun a -> [ read_call a; read_call a ]) (List.init size Fun.id)

let checker_config ?(may_fail = true) ?(max_crashes = 1) ?(fault_budget = 0) ~size threads :
    (world, state) Perennial_core.Refinement.config =
  Perennial_core.Refinement.config ~spec:(spec size)
    ~init_world:(init_world ~may_fail size)
    ~crash_world ~pp_world ~threads ~recovery:(recover_prog size)
    ~post:(probe size) ~max_crashes ~fault_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs (experiment E7, §9.5)                                   *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** No recovery at all: a crash between the two disk writes leaves the
      disks diverged forever. *)
  let recover_nop : (world, V.t) P.t = P.return V.unit

  (** "Zero both disks to make them agree": reverts completed writes,
      violating durability. *)
  let recover_zero size : (world, V.t) P.t =
    let rec loop a =
      if a >= size then P.return V.unit
      else
        let* () = disk_write d1 a Block.zero in
        let* () = disk_write d2 a Block.zero in
        loop (a + 1)
    in
    loop 0

  (** Recovery that only repairs address 0, missing divergence elsewhere. *)
  let recover_partial _size : (world, V.t) P.t =
    let* r1 = disk_read d1 0 in
    match V.get_opt r1 with
    | Some v ->
      let* () = disk_write d2 0 (Block.of_value v) in
      P.return V.unit
    | None -> P.return V.unit

  (** Write without taking the per-address lock: two concurrent writers can
      install different orders on the two disks. *)
  let write_prog_unlocked a v : (world, V.t) P.t =
    let b = Block.of_value v in
    let* () = disk_write d1 a b in
    let* () = disk_write d2 a b in
    P.return V.unit

  let write_call_unlocked a v =
    (Spec.call "rd_write" [ V.int a; v ], write_prog_unlocked a v)

  (** Write that releases the lock between the two disk writes: the lock no
      longer covers the critical section. *)
  let write_prog_early_unlock a v : (world, V.t) P.t =
    let b = Block.of_value v in
    let* () = lock a in
    let* () = disk_write d1 a b in
    let* () = unlock a in
    let* () = disk_write d2 a b in
    P.return V.unit

  let write_call_early_unlock a v =
    (Spec.call "rd_write" [ V.int a; v ], write_prog_early_unlock a v)

  (** Fault-handling bug #1 — "retry without re-read": on a transient read
      error the code returns its (zero-filled) I/O buffer instead of
      re-issuing the read, fabricating a zero block.  The spec's error arm
      only permits the distinguished EIO value, so one injected
      [Read_error] against an address holding non-zero data produces a
      counterexample (fault budget 1, no crash needed). *)
  let read_ft_no_retry a : (world, V.t) P.t =
    let* () = lock a in
    let* r = disk_read_f d1 a in
    let* v =
      if Fault.is_eio r then P.return (Block.to_value Block.zero)
      else
        match V.get_opt r with
        | Some v -> P.return v
        | None ->
          let* r2 = disk_read_f d2 a in
          if Fault.is_eio r2 then P.return Fault.err_value
          else (
            match V.get_opt r2 with
            | Some v -> P.return v
            | None -> P.return Fault.err_value)
    in
    let* () = unlock a in
    P.return v

  let read_ft_call_no_retry a = (Spec.call "rd_read_ft" [ V.int a ], read_ft_no_retry a)
end
