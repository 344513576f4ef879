type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Domain-safety: counters are atomic ints, gauges are atomic (boxed)
   floats updated by CAS loops, histograms take a per-histogram mutex, and
   the registry table itself is guarded by a per-registry mutex.  Updating
   through a handle never touches the registry lock, so the hot path stays
   one atomic op (counters/gauges) or one uncontended lock (histograms) —
   and a 4-domain hammer loses no increments (test/test_parallel.ml). *)

type hist_state = {
  bounds : float array; (* sorted ascending; implicit +inf bucket at the end *)
  counts : int array; (* length = Array.length bounds + 1, per-bucket *)
  mutable h_sum : float;
  mutable h_count : int;
  h_lock : Mutex.t;
}

type metric =
  | M_counter of int Atomic.t
  | M_gauge of float Atomic.t
  | M_hist of hist_state

type registry = { tbl : (string * labels, metric) Hashtbl.t; lock : Mutex.t }

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = hist_state

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create () : registry = { tbl = Hashtbl.create 64; lock = Mutex.create () }
let default : registry = create ()

let reset (r : registry) =
  with_lock r.lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> Atomic.set c 0
          | M_gauge g -> Atomic.set g 0.
          | M_hist h ->
            with_lock h.h_lock (fun () ->
                Array.fill h.counts 0 (Array.length h.counts) 0;
                h.h_sum <- 0.;
                h.h_count <- 0))
        r.tbl)

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_hist _ -> "histogram"

let resolve (r : registry) name labels (fresh : unit -> metric) ~(want : string) =
  with_lock r.lock (fun () ->
      let key = (name, canon labels) in
      match Hashtbl.find_opt r.tbl key with
      | Some m ->
        if kind_name m <> want then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s, not a %s" name
               (kind_name m) want);
        m
      | None ->
        let m = fresh () in
        Hashtbl.add r.tbl key m;
        m)

let counter ?(registry = default) ?(labels = []) name : counter =
  match
    resolve registry name labels ~want:"counter" (fun () -> M_counter (Atomic.make 0))
  with
  | M_counter c -> c
  | _ -> assert false

let inc ?(by = 1) (c : counter) =
  if by < 0 then invalid_arg "Obs.Metrics.inc: counters are monotonic";
  ignore (Atomic.fetch_and_add c by)

let counter_value (c : counter) = Atomic.get c

let gauge ?(registry = default) ?(labels = []) name : gauge =
  match resolve registry name labels ~want:"gauge" (fun () -> M_gauge (Atomic.make 0.)) with
  | M_gauge g -> g
  | _ -> assert false

let set (g : gauge) v = Atomic.set g v

let rec add (g : gauge) v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then add g v

let rec record_max (g : gauge) v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then record_max g v

let gauge_value (g : gauge) = Atomic.get g

let default_buckets =
  [ 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2;
    5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. ]

let histogram ?(registry = default) ?(labels = []) ?(buckets = default_buckets) name :
    histogram =
  let fresh () =
    let bounds = Array.of_list (List.sort_uniq compare buckets) in
    M_hist
      { bounds; counts = Array.make (Array.length bounds + 1) 0; h_sum = 0.;
        h_count = 0; h_lock = Mutex.create () }
  in
  match resolve registry name labels ~want:"histogram" fresh with
  | M_hist h -> h
  | _ -> assert false

let bucket_count (h : histogram) = Array.length h.counts

let bucket_of (h : histogram) v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n then n else if v <= h.bounds.(i) then i else bucket (i + 1) in
  bucket 0

let observe (h : histogram) v =
  let i = bucket_of h v in
  with_lock h.h_lock (fun () ->
      h.counts.(i) <- h.counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let add_counts (h : histogram) counts ~sum =
  if Array.length counts <> Array.length h.counts then
    invalid_arg "Obs.Metrics.add_counts: one count per bucket";
  with_lock h.h_lock (fun () ->
      Array.iteri
        (fun i n ->
          h.counts.(i) <- h.counts.(i) + n;
          h.h_count <- h.h_count + n)
        counts;
      h.h_sum <- h.h_sum +. sum)

let hist_count (h : histogram) = with_lock h.h_lock (fun () -> h.h_count)
let hist_sum (h : histogram) = with_lock h.h_lock (fun () -> h.h_sum)

let hist_buckets (h : histogram) =
  with_lock h.h_lock (fun () ->
      let acc = ref 0 in
      let below =
        Array.to_list
          (Array.mapi
             (fun i b ->
               acc := !acc + h.counts.(i);
               (b, !acc))
             h.bounds)
      in
      below @ [ (infinity, h.h_count) ])

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { sum : float; count : int; buckets : (float * int) list }

type sample = { name : string; labels : labels; value : value }

let snapshot ?(registry = default) () =
  let entries =
    with_lock registry.lock (fun () ->
        Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry.tbl [])
  in
  let samples =
    List.map
      (fun ((name, labels), m) ->
        let value =
          match m with
          | M_counter c -> Counter (Atomic.get c)
          | M_gauge g -> Gauge (Atomic.get g)
          | M_hist h ->
            let buckets = hist_buckets h in
            with_lock h.h_lock (fun () ->
                Histogram { sum = h.h_sum; count = h.h_count; buckets })
        in
        { name; labels; value })
      entries
  in
  List.sort
    (fun a b ->
      let c = String.compare a.name b.name in
      if c <> 0 then c else compare a.labels b.labels)
    samples

let render_key s =
  match s.labels with
  | [] -> s.name
  | ls ->
    Printf.sprintf "%s{%s}" s.name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls))

let to_json ?(registry = default) () =
  Json.Obj
    (List.map
       (fun s ->
         let v =
           match s.value with
           | Counter c -> Json.Int c
           | Gauge g -> Json.Float g
           | Histogram { sum; count; buckets } ->
             Json.Obj
               [ ("sum", Json.Float sum);
                 ("count", Json.Int count);
                 ( "buckets",
                   Json.Arr
                     (List.map
                        (fun (b, c) ->
                          Json.Obj
                            [ ( "le",
                                if Float.is_finite b then Json.Float b
                                else Json.Str "+Inf" );
                              ("count", Json.Int c) ])
                        buckets) ) ]
         in
         (render_key s, v))
       (snapshot ~registry ()))

let counters_delta ~before ~after =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s -> match s.value with Counter c -> Hashtbl.replace tbl (render_key s) c | _ -> ())
    before;
  List.filter_map
    (fun s ->
      match s.value with
      | Counter c ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl (render_key s)) in
        if c - prev <> 0 then Some (render_key s, c - prev) else None
      | _ -> None)
    after

let pp_samples ppf samples =
  List.iter
    (fun s ->
      match s.value with
      | Counter c -> Fmt.pf ppf "%-56s %d@." (render_key s) c
      | Gauge g -> Fmt.pf ppf "%-56s %g@." (render_key s) g
      | Histogram { sum; count; _ } ->
        Fmt.pf ppf "%-56s count=%d sum=%g@." (render_key s) count sum)
    samples

let pp ?(registry = default) ppf () = pp_samples ppf (snapshot ~registry ())
