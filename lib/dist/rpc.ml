(** Exactly-once RPC plumbing: request ids, per-client sequence numbers, a
    reply cache for at-most-once execution, and a client-side call with
    retry/timeout/backoff expressed as scheduler steps.

    The contract is the classic one (Grove's eRPC, the lockservice proofs):
    every request carries [(client, seq)]; the server remembers, per
    client, the highest sequence number it executed and the reply it sent.
    A duplicate ([seq] = cached) is answered from the cache WITHOUT
    re-executing; a stale duplicate ([seq] < cached) is dropped; anything
    newer executes and overwrites the cache entry.  Acknowledged requests
    therefore execute exactly once; unacknowledged ones at most once — the
    client cannot tell a lost request from a lost reply, which is why the
    spec's degradation arms allow "applied but reported degraded"
    ({!Shard_kv.spec}). *)

module V = Tslang.Value
module P = Sched.Prog
module Fp = Sched.Footprint
module Net = Sched.Net
open P.Syntax

type req = { client : int; seq : int; op : string; args : V.t list }

let no_seq = -1
(** A request without a sequence number — what a broken client's retries
    degenerate to ({!Shard_kv.Buggy}).  Servers cannot deduplicate it. *)

let encode_req r =
  V.pair
    (V.pair (V.int r.client) (V.int r.seq))
    (V.pair (V.str r.op) (V.list r.args))

let decode_req = function
  | V.Pair (V.Pair (V.Int client, V.Int seq), V.Pair (V.Str op, V.List args)) ->
    Some { client; seq; op; args }
  | _ -> None

let encode_reply ~seq payload = V.pair (V.int seq) payload

let decode_reply = function
  | V.Pair (V.Int seq, payload) -> Some (seq, payload)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reply cache                                                         *)
(* ------------------------------------------------------------------ *)

type cache = (int * (int * V.t)) list
(** Per client: the highest executed sequence number and its reply.
    Sorted by client id — canonical, so world comparison is semantic. *)

let cache_empty : cache = []
let cache_lookup c (cache : cache) = List.assoc_opt c cache

let cache_store c ~seq ~reply (cache : cache) : cache =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    ((c, (seq, reply)) :: List.remove_assoc c cache)

let compare_cache : cache -> cache -> int =
  List.compare (fun (c1, (s1, r1)) (c2, (s2, r2)) ->
      let c = Int.compare c1 c2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else V.compare r1 r2)

let pp_cache ppf (cache : cache) =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.semi (fun ppf (c, (s, r)) -> Fmt.pf ppf "c%d:%d=%a" c s V.pp r))
    cache

type verdict = Hit of V.t | Stale | Fresh

(** At-most-once classification of an incoming request against the cache.
    Requests without a sequence number are always [Fresh] — they cannot be
    deduplicated, which is exactly the seeded bug 2 surface. *)
let classify c ~seq cache =
  if seq < 0 then Fresh
  else
    match cache_lookup c cache with
    | Some (s0, r0) when seq = s0 -> Hit r0
    | Some (s0, _) when seq < s0 -> Stale
    | _ -> Fresh

(* ------------------------------------------------------------------ *)
(* Client-side call                                                    *)
(* ------------------------------------------------------------------ *)

(** [call ~get ~set ~req_chan ~reply_chan ~client ~seq op args] sends the
    request and waits for the matching reply, retrying up to [retries]
    times.  Every timing decision is a scheduler step, so the checker
    explores the whole retry storm:

    - the non-blocking receive's [None] outcome IS the timeout (it can
      fire before the server even ran — a premature timeout — and the
      [Delay] adversary event makes it fire despite a queued reply);
    - each retry announces itself with a pure ["retry_rpc(op#n)"] step —
      the backoff delay rendered as a step the adversary can place
      anywhere, and the ["retry…"] label convention the checker counts;
    - when the retry budget is exhausted the call degrades to
      {!Sched.Fault.err_value}, matching the spec's degradation arms.

    Replies with a non-matching sequence number (stale, duplicate, or
    foreign) are drained and treated as a timeout.  [send_seq] rewrites
    the sequence number per attempt — the hook {!Shard_kv.Buggy} uses to
    model a client whose retries carry no sequence number. *)
let call ~get ~set ?(retries = 1) ?(send_seq = fun ~attempt:_ seq -> seq)
    ~req_chan ~reply_chan ~client ~seq op args : ('w, V.t) P.t =
  let payload attempt =
    encode_req { client; seq = send_seq ~attempt seq; op; args }
  in
  let backoff attempt =
    Sched.Retry.marker (Printf.sprintf "%s_rpc(%s#%d)" Sched.Retry.retry_prefix op attempt)
  in
  let rec attempt n : ('w, V.t) P.t =
    let* () = Net.send_step ~get ~set req_chan (payload n) in
    let* r = Net.try_recv_step ~get ~set reply_chan in
    match r with
    | Some m -> (
      match decode_reply m with
      | Some (s, payload) when s = seq || s = no_seq -> P.return payload
      | _ -> next n (* drained a stale/foreign reply: same as a timeout *))
    | None -> next n
  and next n =
    if n >= retries then P.return Sched.Fault.err_value
    else
      let* () = backoff (n + 1) in
      attempt (n + 1)
  in
  attempt 0
