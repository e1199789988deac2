(* Query profiling: per-operator call counts, per-destination message
   accounting, and the remote peer's phase breakdown — the data
   behind the shell's :profile command and Xrpc_client.call_profiled.

   A profile is data: [profiled f] runs [f] inside one {!Trace.collect}
   and folds the returned span slice.

   - every span under the collection's root is a plan node: Eval opens
     one per top-level function application and Eval.bulk_execute one
     bulkrpc per set-at-a-time dispatch, next to the request-level spans
     (rpc, net.send, the in-process remote peer's peer.handle, ...).  Ids
     are assigned in pre-order over the slice's tree, so they are stable
     for a query;
   - the numeric span attributes named below carry the rest: operator
     call counts (Eval's index probes, Peer's plan-cache hits) summed
     into the innermost open span, and destination stats (messages,
     logical calls, serialized bytes both ways, and the remote peer's
     phase costs read from the response's serverProfile attribute).

   Timings are Trace's clock, so Cluster-bound profiles run on the
   virtual clock and replay deterministically. *)

type node = {
  id : int;
  name : string;
  detail : string;
  parent : int option;
  incl_ms : float; (* inclusive wall time *)
  ops : (string * int) list; (* operator -> calls, first-seen order *)
  children : node list;
}

type dest_stat = {
  mutable d_msgs : int; (* serialized request messages *)
  mutable d_calls : int; (* logical calls carried inside them *)
  mutable d_bytes_out : int;
  mutable d_bytes_in : int;
  mutable d_remote : (string * float) list; (* phase -> total ms *)
}

type t = {
  label : string;
  roots : node list;
  n_nodes : int;
  dropped : int;
  root_ops : (string * int) list; (* ops outside any node *)
  dests : (string * dest_stat) list; (* sorted by destination *)
  total_ms : float;
}

(* ------------------------------------------------------------------ *)
(* The attributes the fold reads                                      *)
(* ------------------------------------------------------------------ *)

(* Calls of operator [op]. *)
let op_attr op = "op:" ^ op

(* Traffic to [dest]: msgs, calls, bytes_out, bytes_in. *)
let dest_attr field dest = "dest:" ^ field ^ ":" ^ dest

(* The serving peer's cost of [phase], from serverProfile. *)
let remote_attr phase dest = "remote:" ^ phase ^ ":" ^ dest

(* "kind:field:name" — the name may itself contain ':' (URIs) *)
let split_attr k =
  match String.index_opt k ':' with
  | None -> None
  | Some i -> (
      match String.index_from_opt k (i + 1) ':' with
      | None -> None
      | Some j ->
          let sub a b = String.sub k a (b - a) in
          Some (sub 0 i, sub (i + 1) j, sub (j + 1) (String.length k)))

(* ------------------------------------------------------------------ *)
(* The fold                                                            *)
(* ------------------------------------------------------------------ *)

(* add [v] to [key]'s entry of an association list, first-seen order *)
let bump add l key v =
  if List.mem_assoc key l then
    List.map (fun (k, x) -> (k, if k = key then add x v else x)) l
  else l @ [ (key, v) ]

let of_spans ?(label = "") = function
  | [] -> invalid_arg "Profile.of_spans: no root span"
  | (root : Trace.span) :: rest ->
      let dests = ref [] in
      let dest d =
        match List.assoc_opt d !dests with
        | Some ds -> ds
        | None ->
            let ds =
              { d_msgs = 0; d_calls = 0; d_bytes_out = 0; d_bytes_in = 0;
                d_remote = [] }
            in
            dests := (d, ds) :: !dests;
            ds
      in
      (* a span's destination attributes accumulate in plan order;
         returns its operator call counts *)
      let visit_span (s : Trace.span) =
        let ops = ref [] in
        List.iter
          (fun (k, v) ->
            let v = !v in
            let n = int_of_float v in
            if String.starts_with ~prefix:"op:" k then
              ops := bump ( + ) !ops (String.sub k 3 (String.length k - 3)) n
            else
              match split_attr k with
              | Some ("dest", field, d) -> (
                  let ds = dest d in
                  match field with
                  | "msgs" -> ds.d_msgs <- ds.d_msgs + n
                  | "calls" -> ds.d_calls <- ds.d_calls + n
                  | "bytes_out" -> ds.d_bytes_out <- ds.d_bytes_out + n
                  | _ -> ds.d_bytes_in <- ds.d_bytes_in + n)
              | Some ("remote", phase, d) ->
                  let ds = dest d in
                  ds.d_remote <- bump ( +. ) ds.d_remote phase v
              | _ -> ())
          (List.rev s.Trace.attrs);
        !ops
      in
      let root_ops = visit_span root in
      (* plan nodes: the tree under the root, numbered in pre-order *)
      let tops, kids = Trace.tree_of rest in
      let next = ref 0 in
      let rec node parent (s : Trace.span) =
        incr next;
        let id = !next in
        let ops = visit_span s in
        { id; name = s.name; detail = s.detail; parent;
          incl_ms = Trace.duration_ms s; ops;
          children = List.map (node (Some id)) (kids s.span_id) }
      in
      let roots = List.map (node None) tops in
      {
        label;
        roots;
        n_nodes = !next;
        dropped =
          (match Trace.attr root Trace.dropped_attr with
          | Some d -> int_of_float d
          | None -> 0);
        root_ops;
        dests = List.sort (fun (a, _) (b, _) -> compare a b) !dests;
        total_ms = Trace.duration_ms root;
      }

(* Run [f] inside a fresh collection; returns the result together with
   the finished profile.  Nests: an enclosing profile sees these spans
   too. *)
let profiled ?(label = "") f =
  let r, spans = Trace.collect ~label:"profile" ~detail:label f in
  (r, of_spans ~label spans)

let label p = p.label
let total_ms p = p.total_ms
let node_count p = p.n_nodes
let dropped_count p = p.dropped
let dests p = p.dests
(* pre-order: stable plan-node ids *)
let nodes p =
  let rec flat n = n :: List.concat_map flat n.children in
  List.concat_map flat p.roots

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_ops buf indent ops =
  List.iter
    (fun (name, calls) ->
      Buffer.add_string buf (Printf.sprintf "%sops: %s x%d\n" indent name calls))
    ops

let render p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile%s: total %s  (%d plan nodes%s)\n"
       (if p.label = "" then "" else " " ^ p.label)
       (if Float.is_nan p.total_ms then "OPEN"
        else Printf.sprintf "%.3f ms" p.total_ms)
       p.n_nodes
       (if p.dropped > 0 then Printf.sprintf ", %d dropped" p.dropped else ""));
  let rec pr indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s#%d %s%s  %.3f ms\n" indent n.id n.name
         (if n.detail = "" then "" else " (" ^ n.detail ^ ")")
         n.incl_ms);
    render_ops buf (indent ^ "   ") n.ops;
    List.iter (pr (indent ^ "  ")) n.children
  in
  List.iter (pr "") p.roots;
  render_ops buf "" p.root_ops;
  let ds = dests p in
  if ds <> [] then begin
    Buffer.add_string buf "destinations:\n";
    List.iter
      (fun (dest, d) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s  %d msg%s, %d call%s, %d B out, %d B in\n"
             dest d.d_msgs
             (if d.d_msgs = 1 then "" else "s")
             d.d_calls
             (if d.d_calls = 1 then "" else "s")
             d.d_bytes_out d.d_bytes_in);
        if d.d_remote <> [] then
          Buffer.add_string buf
            (Printf.sprintf "    remote: %s\n"
               (String.concat "; "
                  (List.map
                     (fun (n, ms) -> Printf.sprintf "%s %.3f ms" n ms)
                     d.d_remote))))
      ds
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let ops_json ops =
  Json.Arr
    (List.map
       (fun (name, calls) ->
         Json.Obj [ ("op", Json.Str name); ("calls", Json.Int calls) ])
       ops)

let to_json p =
  let rec node n =
    Json.Obj
      ([ ("id", Json.Int n.id); ("name", Json.Str n.name) ]
      @ Json.nonempty "detail" n.detail
      @ [ ("ms", Json.Num n.incl_ms); ("ops", ops_json n.ops);
          ("children", Json.Arr (List.map node n.children)) ])
  in
  let dest (name, d) =
    ( name,
      Json.Obj
        ([ ("msgs", Json.Int d.d_msgs); ("calls", Json.Int d.d_calls);
           ("bytes_out", Json.Int d.d_bytes_out);
           ("bytes_in", Json.Int d.d_bytes_in) ]
        @
        if d.d_remote = [] then []
        else
          [ ("remote",
              Json.Obj (List.map (fun (n, ms) -> (n, Json.Num ms)) d.d_remote)) ]) )
  in
  let ds = dests p in
  Json.Obj
    (Json.nonempty "label" p.label
    @ [ ("total_ms", Json.Num p.total_ms);
        ("plan", Json.Arr (List.map node p.roots)) ]
    @ (if p.root_ops = [] then [] else [ ("ops", ops_json p.root_ops) ])
    @ (if ds = [] then [] else [ ("dests", Json.Obj (List.map dest ds)) ])
    @ if p.dropped > 0 then [ ("dropped", Json.Int p.dropped) ] else [])
