type pend = {
  f_ptid : int;
  f_op : string;
  f_args : string list;
  f_result : string option;
}

type cand = { f_state : string; f_pend : pend list }

type thr = { f_tid : int; f_class : string }

type state = {
  f_world : string;
  f_cands : cand list;
  f_crashes : int;
  f_fused : int;
  f_fsite : int;
  f_threads : thr list;
}

(* '\x1f' (unit separator) delimits records so no rendered payload can
   collide across fields.  Pending entries and candidate renderings are
   sorted: the key must be a function of the candidate {e set}, never of
   the order the tracker happens to list it in. *)
let key st =
  let buf = Buffer.create 256 in
  let sep () = Buffer.add_char buf '\x1f' in
  Buffer.add_string buf "W|";
  Buffer.add_string buf st.f_world;
  sep ();
  Buffer.add_string buf
    (Printf.sprintf "P|c=%d|f=%d|s=%d" st.f_crashes st.f_fused st.f_fsite);
  sep ();
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "T|%d|%s" t.f_tid t.f_class);
      sep ())
    st.f_threads;
  let cand_strs =
    List.map
      (fun c ->
        let pends =
          List.map
            (fun p ->
              Printf.sprintf "|%d:%s(%s)%s" p.f_ptid p.f_op
                (String.concat "," p.f_args)
                (match p.f_result with None -> "" | Some r -> "->" ^ r))
            c.f_pend
          |> List.sort String.compare
        in
        "C|" ^ c.f_state ^ String.concat "" pends)
      st.f_cands
    |> List.sort String.compare
  in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      sep ())
    cand_strs;
  Buffer.contents buf
