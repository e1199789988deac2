(* The one inbound path; the rules it enforces are in the interface. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xrpc_error = Xrpc_net.Xrpc_error
module Trace = Xrpc_obs.Trace
module Flight_recorder = Xrpc_obs.Flight_recorder
module Xq = Xrpc_xquery

let log_src = Logs.Src.create "xrpc.inbound" ~doc:"XRPC served requests"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Peer_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Peer_error s)) fmt

type t = {
  scope : string;
  lock : Mutex.t;
  mutable locked_by : int option;
      (** holder thread id, for reentrant self-calls *)
  idem_cache : string Lru.t;
}

let default_idem_capacity = 256

let create ~scope ~idem_capacity =
  {
    scope;
    lock = Mutex.create ();
    locked_by = None;
    idem_cache = Lru.create ~capacity:idem_capacity "peer.idem_cache";
  }

let idem_cache t = t.idem_cache

type reply = Reply of Message.t | Serialized of string
type prepared = { updating : bool; run : unit -> reply }
type engine = Message.t -> body:string -> pos:int -> len:int -> prepared

let read answer = { updating = false; run = (fun () -> Reply (answer ())) }

(* A request's updCall must say what the called function declares: only
   an updating request's reply is kept, so an update sent as a read could
   be applied again on replay, and a read sent as an update would have
   its results dropped. *)
let check_upd_call (r : Message.request) ~declared =
  if r.Message.updating && not declared then
    err "updCall=\"true\" on %s#%d, which is not an updating function"
      r.Message.method_ r.Message.arity
  else if declared && not r.Message.updating then
    err "updating function %s#%d called without updCall=\"true\""
      r.Message.method_ r.Message.arity

let with_lock t f =
  let self = Thread.id (Thread.self ()) in
  if t.locked_by = Some self then f ()
  else begin
    Mutex.lock t.lock;
    t.locked_by <- Some self;
    Fun.protect
      ~finally:(fun () ->
        t.locked_by <- None;
        Mutex.unlock t.lock)
      f
  end

(* ------------------------------------------------------------------ *)
(* The built-in getDocument call (data shipping, §5 Q7)                *)
(* ------------------------------------------------------------------ *)

let is_get_document (r : Message.request) =
  r.Message.module_uri = Qname.ns_xrpc && r.Message.method_ = "getDocument"

let response ?db_version ~peers (r : Message.request) results =
  Message.Response
    { resp_module = r.Message.module_uri; resp_method = r.Message.method_;
      results; db_version; peers }

let get_document ~self version (r : Message.request) =
  response ~peers:[ self ] r
    (List.map
       (function
         | [ path_seq ] ->
             let path = Xdm.string_value (Xdm.one_item ~what:"path" path_seq) in
             [ Xdm.Node (Store.root (Database.doc_exn version path)) ]
         | _ -> err "getDocument expects one parameter")
       r.Message.calls)

(* ------------------------------------------------------------------ *)
(* The reply: the engine's answer, or the Fault its failure maps to    *)
(* ------------------------------------------------------------------ *)

let answer t (engine : engine) msg ~body ~pos ~len =
  let sender reason = Reply (Message.Fault { fault_code = `Sender; reason }) in
  let reply =
    try
      match msg with
      | Ok (Message.Request r as m) ->
          (* every call carries [arity] parameters: the engines' plans
             (the bulk join, the Figure-3 query) are sized by it *)
          List.iter
            (fun params ->
              let n = List.length params in
              if n <> r.Message.arity then
                err "call has %d parameters, expected %d" n r.Message.arity)
            r.Message.calls;
          let p = engine m ~body ~pos ~len in
          check_upd_call r ~declared:p.updating;
          p.run ()
      | Ok m -> (engine m ~body ~pos ~len).run ()
      | Error e -> raise e
    with
    | Peer_error m | Xdm.Dynamic_error m | Xs.Type_error m | Xq.Eval.Error m
    | Xq.Runner.Module_error m | Xq.Update.Update_error m ->
        sender m
    | Xrpc_error.Error e ->
        (* a served function's own [execute at] dispatch failed: surface
           the typed transport error losslessly (round-trips through
           {!Xrpc_error.of_soap_fault} on the caller's side) *)
        let fault_code, reason = Xrpc_error.to_soap_fault e in
        Reply (Message.Fault { fault_code; reason })
    | Isolation.Expired key -> sender ("queryID expired: " ^ key)
    | Isolation.Snapshot_too_old timestamp ->
        sender ("snapshot too old: " ^ timestamp)
    | Message.Protocol_error m | Xml_parse.Parse_error m ->
        sender ("malformed message: " ^ m)
    | Xq.Parser.Syntax_error m | Xq.Lexer.Lex_error m ->
        sender ("module syntax error: " ^ m)
    | Xq.Check.Static_error errors ->
        sender
          ("static errors: "
          ^ String.concat "; " (List.map Xq.Check.error_to_string errors))
  in
  (match reply with
  | Reply (Message.Fault f) ->
      Trace.event ~detail:f.Message.reason "fault";
      Log.warn (fun m -> m "%s: fault: %s" t.scope f.Message.reason)
  | _ -> ());
  reply

(* serverProfile, folded from the request's span slice: the parse time
   (an attribute of the peer.handle root), then the root's phase spans in
   the order they ran.  Only the root's direct children count, so a
   nested in-process peer's own phases never add to this one's. *)
let phase_spans =
  [ ("peer.compile", "compile"); ("peer.exec", "exec");
    ("peer.commit", "commit"); ("wrapper.treebuild", "treebuild");
    ("wrapper.compile", "compile"); ("wrapper.exec", "exec") ]

let server_phases = function
  | [] -> []
  | (root : Trace.span) :: rest ->
      ("parse", Option.value ~default:0. (Trace.attr root "parse_ms"))
      :: List.filter_map
           (fun (s : Trace.span) ->
             match List.assoc_opt s.Trace.name phase_spans with
             | Some phase when s.Trace.parent = Some root.Trace.span_id ->
                 Some (phase, Trace.duration_ms s)
             | _ -> None)
           rest

let serve_into t engine ?(pos = 0) ?len (body : string) (out : Buffer.t) =
  let len = match len with Some l -> l | None -> String.length body - pos in
  let t0 = Unix.gettimeofday () in
  with_lock t @@ fun () ->
  let tparse0 = Trace.now_ms () in
  let parsed =
    try Ok (Message.of_string_server ~pos ~len body) with e -> Error e
  in
  let parse_ms = Trace.now_ms () -. tparse0 in
  let msg = Result.map (fun (m, _, _) -> m) parsed in
  let idem_key =
    match msg with
    | Ok (Message.Request { idem_key = Some k; _ }) -> Some k
    | _ -> None
  in
  (* only an updating request's reply is kept: a read has no effects, so
     its replay simply runs again *)
  let retained_key =
    match msg with
    | Ok (Message.Request { updating = true; _ }) -> idem_key
    | _ -> None
  in
  (* spans are collected only when someone will read them: plain
     traffic pays one test and its wire format is unchanged *)
  let remote, want_phases =
    match parsed with
    | Ok (_, remote, flag) -> (remote, flag || remote <> None || Trace.enabled ())
    | Error _ -> (None, Trace.enabled ())
  in
  let run () =
    try
      Trace.add "parse_ms" parse_ms;
      (* exactly-once: a replay never re-applies R_Fu updates *)
      match Option.bind retained_key (Lru.find t.idem_cache) with
      | Some cached ->
          Trace.event "idem-hit";
          Ok (Serialized cached)
      | None -> Ok (answer t engine msg ~body ~pos ~len)
    with e -> Error e
  in
  let served, spans =
    if want_phases then
      Trace.collect ~label:"peer.handle" ~detail:t.scope ?remote run
    else (Trace.with_span ~detail:t.scope "peer.handle" run, [])
  in
  (* the phases ride back on the response element, so the caller's
     profile splits remote time without another round trip *)
  let remember bytes =
    Option.iter (fun k -> Lru.add t.idem_cache k bytes) retained_key
  in
  let outcome =
    match served with
    | Error e -> Error e
    | Ok (Serialized bytes) ->
        (* a replay's bytes go back under their own key: a refresh *)
        Buffer.add_string out bytes;
        remember bytes;
        Ok None
    | Ok (Reply reply) -> (
        let start = Buffer.length out in
        match
          Message.to_buffer
            ?server_profile:(if want_phases then Some (server_phases spans) else None)
            out reply
        with
        | exception e -> Error e
        | () -> (
            match reply with
            | Message.Fault f -> Ok (Some f.Message.reason)
            | _ ->
                if retained_key <> None then
                  remember (Buffer.sub out start (Buffer.length out - start));
                Ok None))
  in
  (* the request's one exit and record; the SLO endpoint is the function
     or 2PC op served, the label adds the arity and call count *)
  let endpoint, label =
    match msg with
    | Ok (Message.Request r) ->
        let n = List.length r.Message.calls in
        ( r.Message.module_uri ^ ":" ^ r.Message.method_,
          Printf.sprintf "%s:%s#%d (%d call%s)" r.Message.module_uri
            r.Message.method_ r.Message.arity n
            (if n = 1 then "" else "s") )
    | Ok (Message.Tx_request (op, qid)) ->
        ( "tx:" ^ Message.tx_op_name op,
          Printf.sprintf "tx:%s %s" (Message.tx_op_name op)
            (Message.query_id_key qid) )
    | Ok _ -> ("malformed", "unexpected message kind")
    | Error e -> ("malformed", "unparseable request: " ^ Printexc.to_string e)
  in
  Flight_recorder.complete ~scope:t.scope
    {
      Flight_recorder.c_endpoint = endpoint;
      c_label = label;
      c_duration_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      c_error =
        (match outcome with
        | Ok fault -> fault
        | Error e -> Some (Printexc.to_string e));
      c_idem_key = idem_key;
      (* the ring keeps a slice only when tracing is on: holding every
         profiled request's spans would promote them all to the major
         heap *)
      c_spans = (if Trace.enabled () then spans else []);
    };
  match outcome with Ok _ -> () | Error e -> raise e

let serve t engine body =
  let out = Buffer.create 1024 in
  serve_into t engine body out;
  Buffer.contents out
