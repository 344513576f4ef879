(** A leased, sharded KV service over an unreliable network, verified
    against an atomic map spec.

    Architecture (one world, many nodes — every node boundary is a
    {!Sched.Net} channel):

    - [n_clients] clients issue [put]/[get]/[inc] RPCs.  Key [k] lives on
      shard [k mod n_shards]; shard [s] serves requests from channel
      ["s<s>"], client [c] takes replies on channel ["c<c>"].
    - Each shard runs a single server loop: receive, classify against the
      per-client reply cache (exactly-once: duplicates are answered from
      the cache, stale duplicates dropped), execute, cache, reply.
    - A lock/lease service with epoch numbers guards read-modify-write
      ops: a holder fences every shard it touches with its epoch at
      acquire time (lease {e recovery}), shards remember the highest
      fencing epoch and reject writes from anything older — a zombie
      holder whose lease expired cannot corrupt state it no longer owns.

    The network adversary (loss, duplication, reordering, delay) rides the
    fault-schedule machinery, so checking composes network schedules with
    crash points and interleavings; clients whose retry budget the
    adversary exhausts degrade to {!Sched.Fault.err_value}, matching the
    spec's degradation arms.

    Harness conventions (not part of the protocol): each client thread
    ends with a [bye] step bumping a volatile done-counter, and the server
    loop shuts down once every client is done AND its channel is drained —
    termination signalling the checker can see through, with no idle
    polling.  The reply cache and store are durable (crash-safe
    exactly-once); channels and the lease holder are volatile; recovery
    runs over a reliable network (the adversary fires only in the main
    phase), mirroring the reliable-recovery fault assumption. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Fp = Sched.Footprint
module Net = Sched.Net
module Fault = Sched.Fault
open P.Syntax

type params = {
  n_keys : int;
  n_shards : int;
  n_clients : int;
  retries : int;  (** client resends after the first attempt *)
  init_val : V.t;  (** initial value of every key *)
}

let params ?(n_shards = 1) ?(retries = 1) ?(init_val = V.int 0) ~n_keys ~n_clients () =
  if n_keys <= 0 || n_shards <= 0 || n_shards > n_keys || n_clients <= 0 || retries < 0
  then invalid_arg "Shard_kv.params";
  { n_keys; n_shards; n_clients; retries; init_val }

let shard_of p k = k mod p.n_shards
let req_chan s = "s" ^ string_of_int s
let reply_chan c = "c" ^ string_of_int c

(* ------------------------------------------------------------------ *)
(* Specification: an atomic map                                        *)
(* ------------------------------------------------------------------ *)

type state = V.t list  (** one value per key *)

let sput k v st = List.mapi (fun i x -> if i = k then v else x) st

(** Every network-facing op has three arms: applied and acknowledged;
    applied with the acknowledgement lost (the client reports
    {!Sched.Fault.err_value} but the effect is durable — a client cannot
    tell a lost request from a lost reply, so "gave up" never promises
    "didn't happen"); never delivered.  Lease ops ([linc]) run directly
    against the shards, so they have no applied-unacked arm: a fenced or
    lease-less holder reports degraded with no effect. *)
let spec p : state Spec.t =
  let open T.Syntax in
  let in_bounds k = k >= 0 && k < p.n_keys in
  let err = Sched.Fault.err_value in
  let key args = match args with k :: _ -> V.get_int k | [] -> -1 in
  {
    Spec.name = "shard_kv";
    init = List.init p.n_keys (fun _ -> p.init_val);
    compare_state = List.compare V.compare;
    pp_state =
      (fun ppf st -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.semi V.pp) st);
    step =
      (fun op args ->
        match (op, args) with
        | "probe", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          T.ret (List.nth st k)
        | "nput", [ _; v ] ->
          let k = key args in
          let* () = T.check (in_bounds k) in
          let* arm = T.choose [ `Acked; `Applied_unacked; `Lost ] in
          (match arm with
          | `Acked ->
            let* () = T.modify (sput k v) in
            T.ret V.unit
          | `Applied_unacked ->
            let* () = T.modify (sput k v) in
            T.ret err
          | `Lost -> T.ret err)
        | "nget", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          let* r = T.choose [ List.nth st k; err ] in
          T.ret r
        | "ninc", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          let old = List.nth st k in
          let* arm = T.choose [ `Acked; `Applied_unacked; `Lost ] in
          (match arm with
          | `Acked ->
            let* () = T.modify (sput k (V.int (V.get_int old + 1))) in
            T.ret old
          | `Applied_unacked ->
            let* () = T.modify (sput k (V.int (V.get_int old + 1))) in
            T.ret err
          | `Lost -> T.ret err)
        | "linc", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          let old = List.nth st k in
          let* ok = T.choose [ true; false ] in
          if ok then
            let* () = T.modify (sput k (V.int (V.get_int old + 1))) in
            T.ret old
          else T.ret err
        | "srv", [] | "bye", [] | "lease_expire", [] -> T.ret V.unit
        | _ -> invalid_arg "shard_kv spec: unknown op");
    (* Store and reply cache are durable: a crash changes nothing the
       client-visible map can see. *)
    crash = T.ret ();
  }

(* ------------------------------------------------------------------ *)
(* World                                                               *)
(* ------------------------------------------------------------------ *)

type world = {
  net : Net.state;  (** volatile: in-flight messages die with a crash *)
  vals : V.t list;  (** durable: per-key value *)
  fences : int list;  (** durable: per-shard highest fencing epoch *)
  caches : Rpc.cache list;  (** durable: per-shard reply cache *)
  lease : Lease.t;  (** volatile holder, durable epoch *)
  done_clients : int;  (** volatile harness signal: clients finished *)
}

let init_world p =
  {
    net = Net.empty;
    vals = List.init p.n_keys (fun _ -> p.init_val);
    fences = List.init p.n_shards (fun _ -> 0);
    caches = List.init p.n_shards (fun _ -> Rpc.cache_empty);
    lease = Lease.init;
    done_clients = 0;
  }

let crash_world w =
  { w with net = Net.clear w.net; lease = Lease.crash w.lease; done_clients = 0 }

let pp_world ppf w =
  Fmt.pf ppf "net=%a vals=[%a] fences=[%a] caches=[%a] %a done=%d" Net.pp w.net
    (Fmt.list ~sep:Fmt.semi V.pp) w.vals
    (Fmt.list ~sep:Fmt.semi Fmt.int)
    w.fences
    (Fmt.list ~sep:Fmt.semi Rpc.pp_cache)
    w.caches Lease.pp w.lease w.done_clients

let get_net w = w.net
let set_net w net = { w with net }
let upd i f l = List.mapi (fun j x -> if j = i then f x else x) l

(* Footprint locations.  The lease epoch and the fences survive crashes,
   so their writes are durable (dependent with crash injection). *)
let key_loc k = Fp.disk ~region:"kv" k
let fence_loc s = Fp.disk ~region:"fence" s
let cache_loc s = Fp.disk ~region:"cache" s
let lease_loc = Fp.disk ~region:"lease" 0
let done_loc = Fp.cell "done"

(* ------------------------------------------------------------------ *)
(* Shard server                                                        *)
(* ------------------------------------------------------------------ *)

(** Local execution of a decoded request on shard [s]'s slice of the
    store.  Returns the reply payload. *)
let exec_req r w =
  match (r.Rpc.op, r.Rpc.args) with
  | "put", [ V.Int k; v ] -> ({ w with vals = sput k v w.vals }, V.unit)
  | "get", [ V.Int k ] -> (w, List.nth w.vals k)
  | "inc", [ V.Int k ] ->
    let old = List.nth w.vals k in
    ({ w with vals = sput k (V.int (V.get_int old + 1)) w.vals }, old)
  | _ -> (w, V.str "bad_op")

let exec_fp s r _w =
  let k = match r.Rpc.args with V.Int k :: _ -> k | _ -> 0 in
  Fp.rw
    ~reads:[ key_loc k; cache_loc s ]
    ~writes:[ key_loc k; cache_loc s ]
    ()

(** The server loop for shard [s].  [~no_cache:true] is seeded bug 1: the
    reply cache is never consulted or written, so a duplicated request
    re-executes — double execution the atomic spec cannot explain (visible
    on the non-idempotent [inc]).

    One request costs three scheduler steps (receive, classify+execute,
    reply) plus a pure ["rpc_cache_hit(s<s>)"] marker when a duplicate is
    answered from the cache — the label convention behind the checker's
    [cache_hits] stat.  Classification and execution share one atomic
    step: a real server orders them under a per-client latch; here a shard
    is served by a single loop, so the step is atomic by construction (and
    the hosted variant makes it a single journal transaction). *)
let serve ?(no_cache = false) p s : (world, V.t) P.t =
  let sn = string_of_int s in
  let rc = req_chan s in
  let until w = w.done_clients >= p.n_clients in
  let rec loop fuel : (world, V.t) P.t =
    if fuel <= 0 then P.return V.unit
    else
      let* m = Net.recv_until ~get:get_net ~set:set_net ~until ~until_reads:[ done_loc ] rc in
      match m with
      | None -> P.return V.unit
      | Some msg -> (
        match Rpc.decode_req msg with
        | None -> loop (fuel - 1)
        | Some r ->
          let* reply =
            P.atomic ~fp:(exec_fp s r)
              ("rpc_exec(s" ^ sn ^ ")")
              (fun w ->
                let verdict =
                  if no_cache then Rpc.Fresh
                  else Rpc.classify r.Rpc.client ~seq:r.Rpc.seq (List.nth w.caches s)
                in
                match verdict with
                | Rpc.Hit cached -> P.Steps [ (w, `Hit cached) ]
                | Rpc.Stale -> P.Steps [ (w, `Stale) ]
                | Rpc.Fresh ->
                  let w', reply = exec_req r w in
                  let w' =
                    if no_cache || r.Rpc.seq < 0 then w'
                    else
                      {
                        w' with
                        caches =
                          upd s (Rpc.cache_store r.Rpc.client ~seq:r.Rpc.seq ~reply) w'.caches;
                      }
                  in
                  P.Steps [ (w', `Reply reply) ])
          in
          (match reply with
          | `Stale -> loop (fuel - 1) (* an older duplicate: drop silently *)
          | `Hit cached ->
            let* () =
              Sched.Retry.marker (Sched.Retry.cache_hit_prefix ^ "(s" ^ sn ^ ")")
            in
            let* () =
              Net.send_step ~get:get_net ~set:set_net (reply_chan r.Rpc.client)
                (Rpc.encode_reply ~seq:r.Rpc.seq cached)
            in
            loop (fuel - 1)
          | `Reply reply ->
            let* () =
              Net.send_step ~get:get_net ~set:set_net (reply_chan r.Rpc.client)
                (Rpc.encode_reply ~seq:r.Rpc.seq reply)
            in
            loop (fuel - 1)))
  in
  (* Fuel bounds the constructed program tree; any execution delivers at
     most (sends + dup budget) messages, far below this. *)
  loop 64

(* ------------------------------------------------------------------ *)
(* Client calls                                                        *)
(* ------------------------------------------------------------------ *)

let rpc_call ?send_seq p ~client ~seq op k args =
  Rpc.call ~get:get_net ~set:set_net ~retries:p.retries ?send_seq
    ~req_chan:(req_chan (shard_of p k))
    ~reply_chan:(reply_chan client) ~client ~seq op args

let nput_call p ~client ~seq k v =
  (Spec.call "nput" [ V.int k; v ], rpc_call p ~client ~seq "put" k [ V.int k; v ])

let nget_call p ~client ~seq k =
  (Spec.call "nget" [ V.int k ], rpc_call p ~client ~seq "get" k [ V.int k ])

let ninc_call p ~client ~seq k =
  (Spec.call "ninc" [ V.int k ], rpc_call p ~client ~seq "inc" k [ V.int k ])

let srv_call p s = (Spec.call "srv" [], serve p s)

(** The harness-level end-of-client marker the server shutdown predicate
    reads — reliable (not a message), identity in the spec. *)
let bye_call =
  ( Spec.call "bye" [],
    P.det
      ~fp:(Fp.const (Fp.rw ~reads:[ done_loc ] ~writes:[ done_loc ] ()))
      "client_bye"
      (fun w -> ({ w with done_clients = w.done_clients + 1 }, V.unit)) )

(* ------------------------------------------------------------------ *)
(* Lease-guarded read-modify-write                                     *)
(* ------------------------------------------------------------------ *)

let lease_fp = Fp.const (Fp.rw ~reads:[ lease_loc ] ~writes:[ lease_loc ] ())

let try_acquire_step client =
  P.atomic ~fp:lease_fp
    ("lease_acquire(c" ^ string_of_int client ^ ")")
    (fun w ->
      match Lease.acquire client w.lease with
      | None -> P.Steps [ (w, None) ]
      | Some (e, lease) -> P.Steps [ ({ w with lease }, Some e) ])

let acquire_retry p client : (world, int option) P.t =
  let rec go n =
    let* r = try_acquire_step client in
    match r with
    | Some e -> P.return (Some e)
    | None ->
      if n >= p.retries then P.return None
      else
        let* () =
          Sched.Retry.marker
            (Printf.sprintf "%s_acquire(c%d#%d)" Sched.Retry.retry_prefix client (n + 1))
        in
        go (n + 1)
  in
  go 0

let fence_step s e =
  P.write
    ~fp:(Fp.const (Fp.rw ~reads:[ fence_loc s ] ~writes:[ fence_loc s ] ()))
    (Printf.sprintf "lease_fence(s%d)" s)
    (fun w -> { w with fences = upd s (max e) w.fences })

let release_step client e =
  P.write ~fp:lease_fp
    ("lease_release(c" ^ string_of_int client ^ ")")
    (fun w -> { w with lease = Lease.release client e w.lease })

let expire_call =
  ( Spec.call "lease_expire" [],
    P.det ~fp:lease_fp "lease_expire" (fun w ->
        ({ w with lease = Lease.expire w.lease }, V.unit)) )

(** Read-modify-write increment under the lease.  The holder fences its
    shard with its epoch right after acquiring (lease RECOVERY: any older
    holder's pending writes are fenced out before we read), then reads,
    then writes — the write step re-checks the fence, so a zombie whose
    lease expired and was re-fenced cannot apply a stale update.

    [~fence:false] is seeded bug 3: no fence at acquire, no check at
    write.  A zombie holder then applies a lost update (two [linc]s both
    return the same old value) — the atomic spec has no explanation. *)
let linc_prog ?(fence = true) p ~client k : (world, V.t) P.t =
  let s = shard_of p k in
  let* e = acquire_retry p client in
  match e with
  | None -> P.return Fault.err_value
  | Some e ->
    let* () = if fence then fence_step s e else P.return () in
    let* v =
      P.read
        ~fp:(Fp.const (Fp.reads [ key_loc k ]))
        (Printf.sprintf "lease_read(k%d)" k)
        (fun w -> List.nth w.vals k)
    in
    let* ok =
      P.atomic
        ~fp:
          (Fp.const
             (Fp.rw
                ~reads:[ key_loc k; fence_loc s ]
                ~writes:[ key_loc k; fence_loc s ]
                ()))
        (Printf.sprintf "lease_write(k%d)" k)
        (fun w ->
          if (not fence) || e >= List.nth w.fences s then
            P.Steps
              [
                ( {
                    w with
                    vals = sput k (V.int (V.get_int v + 1)) w.vals;
                    fences = (if fence then upd s (max e) w.fences else w.fences);
                  },
                  true );
              ]
          else P.Steps [ (w, false) ])
    in
    if ok then
      let* () = release_step client e in
      P.return v
    else P.return Fault.err_value

let linc_call p ~client k = (Spec.call "linc" [ V.int k ], linc_prog p ~client k)

(* ------------------------------------------------------------------ *)
(* Probes, recovery, checker configuration                             *)
(* ------------------------------------------------------------------ *)

(** Post-crash probes read the store directly (the network died with the
    crash; recovery runs over a reliable network). *)
let probe_call p k =
  ignore p;
  ( Spec.call "probe" [ V.int k ],
    P.read
      ~fp:(Fp.const (Fp.reads [ key_loc k ]))
      (Printf.sprintf "probe(k%d)" k)
      (fun w -> List.nth w.vals k) )

let probe p = List.init p.n_keys (fun k -> probe_call p k)

(** Nothing to replay: store, caches, and fences are durable; the lease
    holder and the channels died with the crash. *)
let recover = P.return V.unit

let checker_config p ?spec:sp ?(max_crashes = 1) ?(fault_budget = 0) threads :
    (world, state) Perennial_core.Refinement.config =
  let sp = match sp with Some s -> s | None -> spec p in
  Perennial_core.Refinement.config ~spec:sp ~init_world:(init_world p) ~crash_world
    ~pp_world ~threads ~recovery:recover ~post:(probe p) ~max_crashes ~fault_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                         *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** Bug 1 — reply-cache miss on duplicate request: the server executes
      every message it receives.  A [Dup]ed [inc] request executes twice;
      the spec linearizes the op once, so the probe sees an impossible
      count. *)
  let srv_call_no_cache p s = (Spec.call "srv" [], serve ~no_cache:true p s)

  (** Bug 2 — retry without a sequence number: the first attempt is
      labeled, every retry is raw ({!Rpc.no_seq}), so the server cannot
      recognize the retry as a duplicate and executes whatever arrives,
      whenever it arrives.  A delayed retry of an old [put], reordered
      behind a newer one, makes the stale write win after the client
      already observed the new one. *)
  let nput_call_raw_retry p ~client ~seq k v =
    ( Spec.call "nput" [ V.int k; v ],
      rpc_call
        ~send_seq:(fun ~attempt seq -> if attempt = 0 then seq else Rpc.no_seq)
        p ~client ~seq "put" k
        [ V.int k; v ] )

  (** Bug 3 — missing epoch fence: no fencing at acquire, no check at
      write.  A zombie holder (lease expired mid-RMW) applies its stale
      update over the new holder's — a lost update. *)
  let linc_call_no_fence p ~client k =
    (Spec.call "linc" [ V.int k ], linc_prog ~fence:false p ~client k)
end

(* ------------------------------------------------------------------ *)
(* Shards hosted on Journal.Kvs                                        *)
(* ------------------------------------------------------------------ *)

(** The production-shaped backend: every shard is its own
    {!Journal.Kvs} instance (its own journal, locks, and disk — a real
    shard node), embedded in the service world through {!Sched.Prog.lift}.
    Each shard's key space holds its slice of the data keys plus one
    reply-cache slot per client, so EXECUTE + CACHE is one journal
    transaction — the exactly-once state commits atomically with the data
    it guards, and survives crashes with it.  Values are block strings
    ({!Disk.Block}); use [init_val = V.str "0"] params. *)
module Hosted = struct
  module K = Journal.Kvs
  module Block = Disk.Block

  (** Data keys of shard [s]: global keys [k] with [k mod n_shards = s],
      locally indexed [k / n_shards]. *)
  let local_keys p s = (p.n_keys - s + p.n_shards - 1) / p.n_shards

  let local_of p k = k / p.n_shards
  let cache_slot p s c = local_keys p s + c
  let kparams p s = K.params ~n_keys:(local_keys p s + p.n_clients) ()

  type hworld = {
    net : Net.state;
    shards : K.world list;  (** one journal world per shard node *)
    done_clients : int;
  }

  let init_world p =
    {
      net = Net.empty;
      shards = List.init p.n_shards (fun s -> K.init_world (kparams p s));
      done_clients = 0;
    }

  let crash_world w =
    {
      net = Net.clear w.net;
      shards = List.map K.crash_world w.shards;
      done_clients = 0;
    }

  let pp_world ppf w =
    Fmt.pf ppf "net=%a shards=[%a] done=%d" Net.pp w.net
      (Fmt.list ~sep:Fmt.sp K.pp_world)
      w.shards w.done_clients

  let get_net w = w.net
  let set_net w net = { w with net }
  let get_shard s w = List.nth w.shards s
  let set_shard s w kv = { w with shards = upd s (fun _ -> kv) w.shards }

  (** Run a shard-local journal program inside the service world. *)
  let on_shard s prog = P.lift ~get:(get_shard s) ~set:(set_shard s) prog

  (* The reply-cache slot stores ["s:<seq>"] — distinguishable from the
     zero block, parsed back by [cached_seq]. *)
  let seq_block seq = Block.of_string ("s:" ^ string_of_int seq)

  let cached_seq v =
    match V.get_str v with
    | s when String.length s > 2 && String.sub s 0 2 = "s:" ->
      int_of_string_opt (String.sub s 2 (String.length s - 2))
    | _ -> None
    | exception Invalid_argument _ -> None

  (** The hosted server loop: classification reads the cache slot through
      the journal, execution commits data + cache slot in ONE transaction.
      Only [put] and [get] are served ([put] is idempotent per sequence
      number; [inc] needs the lease path, which the light store covers). *)
  let serve p s : (hworld, V.t) P.t =
    let sn = string_of_int s in
    let kp = kparams p s in
    let until w = w.done_clients >= p.n_clients in
    let reply_to r reply =
      Net.send_step ~get:get_net ~set:set_net (reply_chan r.Rpc.client)
        (Rpc.encode_reply ~seq:r.Rpc.seq reply)
    in
    let rec loop fuel : (hworld, V.t) P.t =
      if fuel <= 0 then P.return V.unit
      else
        let* m =
          Net.recv_until ~get:get_net ~set:set_net ~until ~until_reads:[ done_loc ]
            (req_chan s)
        in
        match m with
        | None -> P.return V.unit
        | Some msg -> (
          match Rpc.decode_req msg with
          | None -> loop (fuel - 1)
          | Some r -> (
            match (r.Rpc.op, r.Rpc.args) with
            | "get", [ V.Int k ] ->
              (* Gets are idempotent: no cache traffic. *)
              let* v = on_shard s (K.get_prog kp (local_of p k)) in
              let* () = reply_to r v in
              loop (fuel - 1)
            | "put", [ V.Int k; v ] when r.Rpc.seq >= 0 ->
              let* cached = on_shard s (K.get_prog kp (cache_slot p s r.Rpc.client)) in
              (match cached_seq cached with
              | Some s0 when r.Rpc.seq = s0 ->
                let* () =
                  Sched.Retry.marker (Sched.Retry.cache_hit_prefix ^ "(s" ^ sn ^ ")")
                in
                let* () = reply_to r V.unit in
                loop (fuel - 1)
              | Some s0 when r.Rpc.seq < s0 -> loop (fuel - 1)
              | _ ->
                (* Execute + cache in one journal transaction: the
                   exactly-once state commits atomically with the data. *)
                let* _ =
                  on_shard s
                    (K.txn_prog kp
                       [
                         (local_of p k, Block.of_value v);
                         (cache_slot p s r.Rpc.client, seq_block r.Rpc.seq);
                       ])
                in
                let* () = reply_to r V.unit in
                loop (fuel - 1))
            | _ -> loop (fuel - 1)))
    in
    loop 64

  let srv_call p s = (Spec.call "srv" [], serve p s)

  let rpc_call p ~client ~seq op k args : (hworld, V.t) P.t =
    Rpc.call ~get:get_net ~set:set_net ~retries:p.retries
      ~req_chan:(req_chan (shard_of p k))
      ~reply_chan:(reply_chan client) ~client ~seq op args

  let nput_call p ~client ~seq k v =
    (Spec.call "nput" [ V.int k; v ], rpc_call p ~client ~seq "put" k [ V.int k; v ])

  let nget_call p ~client ~seq k =
    (Spec.call "nget" [ V.int k ], rpc_call p ~client ~seq "get" k [ V.int k ])

  let bye_call =
    ( Spec.call "bye" [],
      P.det
        ~fp:(Fp.const (Fp.rw ~reads:[ done_loc ] ~writes:[ done_loc ] ()))
        "client_bye"
        (fun w -> ({ w with done_clients = w.done_clients + 1 }, V.unit)) )

  let probe_call p k =
    ( Spec.call "probe" [ V.int k ],
      on_shard (shard_of p k) (K.get_prog (kparams p (shard_of p k)) (local_of p k)) )

  let probe p = List.init p.n_keys (fun k -> probe_call p k)

  (** Recovery replays every shard's journal, sequentially, over a
      reliable network. *)
  let recover p : (hworld, V.t) P.t =
    let rec go s =
      if s >= p.n_shards then P.return V.unit
      else
        let* _ = on_shard s (K.recover (kparams p s)) in
        go (s + 1)
    in
    go 0

  let checker_config p ?spec:sp ?(max_crashes = 1) ?(fault_budget = 0) threads :
      (hworld, state) Perennial_core.Refinement.config =
    let sp = match sp with Some s -> s | None -> spec p in
    Perennial_core.Refinement.config ~spec:sp ~init_world:(init_world p) ~crash_world
      ~pp_world ~threads ~recovery:(recover p) ~post:(probe p) ~max_crashes
      ~fault_budget ()
end
