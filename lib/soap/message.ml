(** SOAP XRPC messages (§2.1, §2.2, §3.2 of the paper).

    A request names a module (URI + at-hint location), a function and its
    arity, and carries one or more [xrpc:call] bodies — more than one makes
    it a {e Bulk RPC} (§3.2).  The optional [queryID] child selects
    repeatable-read isolation (§2.2); responses piggyback the list of
    participating peers needed for 2PC registration (§2.3).  Faults use the
    SOAP Fault format.  The same channel also carries the
    WS-AtomicTransaction-style Prepare/Commit/Rollback control messages. *)

open Xrpc_xml

(** Repeatable-read isolation handle: originating host, UTC start timestamp
    and a {e relative} timeout in seconds (§2.2, "SOAP XRPC Extension:
    Isolation"). *)
type isolation_level = Repeatable | Snapshot

type query_id = {
  host : string;
  timestamp : string;
  timeout : int;
  level : isolation_level;
      (** [Snapshot] asks peers to pin the state as of [timestamp] (the
          distributed snapshot isolation sketched in §2.2); [Repeatable]
          pins at first contact *)
}

type request = {
  module_uri : string;  (** target namespace of the module *)
  location : string;  (** at-hint URL of the module source *)
  method_ : string;  (** function local name *)
  arity : int;
  updating : bool;  (** calls an XQUF updating function *)
  fragments : bool;
      (** footnote-4 extension: descendant node parameters are sent as
          [xrpc:nodeid] references into earlier parameters *)
  query_id : query_id option;
  idem_key : string option;
      (** idempotency key: peers cache an updating request's response
          under this key so a retried or duplicated request (at-least-once
          transports) returns the cached reply instead of re-executing
          updating functions; a read is simply run again *)
  calls : Xdm.sequence list list;
      (** one entry per call; each call is [arity] parameter sequences *)
}

type response = {
  resp_module : string;
  resp_method : string;
  results : Xdm.sequence list;  (** one result sequence per call *)
  peers : string list;  (** piggybacked participating peers (§2.3) *)
  db_version : int option;
      (** the serving peer's database version token ([dbVersion]
          attribute) — lets callers observe remote data movement without
          another round trip *)
}

type fault = { fault_code : [ `Sender | `Receiver ]; reason : string }

type tx_op =
  | Prepare
  | Commit
  | Rollback
  | Status
      (** in-doubt recovery: a participant that prepared but missed the
          decision asks the coordinator for the outcome (presumed abort:
          an unknown transaction means "aborted") *)

type t =
  | Request of request
  | Response of response
  | Fault of fault
  | Tx_request of tx_op * query_id
  | Tx_response of { ok : bool; info : string }

exception Protocol_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let clip = Marshal.clip

let query_id_key (q : query_id) = q.host ^ "@" ^ q.timestamp

(** [snapshot_time q] — the instant, in seconds, that a snapshot-level
    queryID pins.  Its [timestamp] must be a finite decimal: surrounding
    whitespace, an optional sign, digits with an optional fraction
    (xs:decimal's lexical form; no exponent, hex, [_] or [nan]).  Anything
    else is a {!Protocol_error}, never some other instant. *)
let snapshot_time (q : query_id) =
  let s = String.trim q.timestamp in
  let n = String.length s in
  let rec digits i =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i
  in
  let i = if n > 0 && (s.[0] = '+' || s.[0] = '-') then 1 else 0 in
  let j = digits i in
  let k = if j < n && s.[j] = '.' then digits (j + 1) else j in
  let has_digit = j > i || k > j + 1 in
  match float_of_string_opt s with
  | Some t when k = n && has_digit && Float.is_finite t -> t
  | _ ->
      err "snapshot queryID timestamp is not a decimal number of seconds: %S"
        (clip s)

let tx_op_name = function
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Status -> "status"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* An envelope is written straight into the output buffer, with no tree:
   fixed markup as literals, attribute values and text through
   Serialize's in-place escaping, parameters and results by
   {!Marshal.add_sequence}.  The bytes are those a tree of the envelope
   would serialize to. *)

let add_attr buf name value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  Serialize.add_escaped_attr buf value;
  Buffer.add_char buf '"'

(* Profiled responses carry the serving peer's per-phase wall costs back
   as one [serverProfile="name=ms;..."] attribute on xrpc:response
   (protocol/XRPC.xsd), so a client profile of a distributed query can
   break down remote time into parse/compile/exec/commit without a
   second round trip.  An attribute rather than a header element because XML
   serialization and parsing cost per *node*, and this rides every
   profiled response — measured, a Header/serverProfile element pair cost
   ~5 µs per response against ~0.5 µs for the attribute. *)
(* %.3f by hand: Printf's interpreted float formatting costs ~0.5 µs per
   call, and there are up to five phases on every profiled response *)
let fixed3 ms =
  let thousandths = int_of_float ((ms *. 1000.) +. 0.5) in
  let whole = thousandths / 1000 and frac = thousandths mod 1000 in
  string_of_int whole ^ "."
  ^ (if frac < 10 then "00" else if frac < 100 then "0" else "")
  ^ string_of_int frac

let add_profile_attr buf = function
  | None | Some [] -> ()
  | Some phases ->
      add_attr buf "serverProfile"
        (String.concat ";"
           (List.map (fun (name, ms) -> name ^ "=" ^ fixed3 ms) phases))

(* the root declares the bindings a node value is serialized inside *)
let envelope_open =
  "<env:Envelope"
  ^ String.concat ""
      (List.map (fun (p, uri) -> " xmlns:" ^ p ^ "=\"" ^ uri ^ "\"") Marshal.scope)
  ^ " xsi:schemaLocation=\"http://monetdb.cwi.nl/XQuery \
     http://monetdb.cwi.nl/XQuery/XRPC.xsd\">"

(* When tracing is active the envelope grows a SOAP Header carrying the
   (trace-id, parent-span) pair — see protocol/XRPC.xsd, xrpc:trace — so a
   serving peer can hang its spans under the caller's span tree. *)
let add_envelope_start buf trace =
  Buffer.add_string buf Serialize.xml_declaration;
  Buffer.add_string buf envelope_open;
  (match trace with
  | None -> ()
  | Some (trace_id, parent_span) ->
      Buffer.add_string buf "<env:Header><xrpc:trace";
      add_attr buf "traceId" trace_id;
      add_attr buf "parentSpan" parent_span;
      Buffer.add_string buf "/></env:Header>");
  Buffer.add_string buf "<env:Body>"

let envelope_close = "</env:Body></env:Envelope>"

let add_query_id buf (q : query_id) =
  Buffer.add_string buf "<xrpc:queryID";
  add_attr buf "host" q.host;
  add_attr buf "timestamp" q.timestamp;
  add_attr buf "timeout" (string_of_int q.timeout);
  (match q.level with
  | Repeatable -> ()
  | Snapshot -> add_attr buf "level" "snapshot");
  Buffer.add_string buf "/>"

let add_call buf ~fragments params =
  match params with
  | [] -> Buffer.add_string buf "<xrpc:call/>"
  | _ ->
      Buffer.add_string buf "<xrpc:call>";
      Marshal.add_params ~fragments buf params;
      Buffer.add_string buf "</xrpc:call>"

let add_request buf ~profile_flag (r : request) =
  Buffer.add_string buf "<xrpc:request";
  add_attr buf "module" r.module_uri;
  add_attr buf "method" r.method_;
  add_attr buf "arity" (string_of_int r.arity);
  add_attr buf "location" r.location;
  if r.updating then add_attr buf "updCall" "true";
  Option.iter (add_attr buf "idemKey") r.idem_key;
  (* profile="true" asks the serving peer to measure and return its
     phase costs; an attribute (like idemKey, not a header element) to
     keep the flag at one node of cost *)
  if profile_flag then add_attr buf "profile" "true";
  if r.fragments then add_attr buf "fragments" "true";
  match (r.query_id, r.calls) with
  | None, [] -> Buffer.add_string buf "/>"
  | qid, calls ->
      Buffer.add_char buf '>';
      Option.iter (add_query_id buf) qid;
      List.iter (add_call buf ~fragments:r.fragments) calls;
      Buffer.add_string buf "</xrpc:request>"

let add_response buf ~server_profile (r : response) =
  Buffer.add_string buf "<xrpc:response";
  add_attr buf "module" r.resp_module;
  add_attr buf "method" r.resp_method;
  Option.iter (fun v -> add_attr buf "dbVersion" (string_of_int v)) r.db_version;
  add_profile_attr buf server_profile;
  match (r.peers, r.results) with
  | [], [] -> Buffer.add_string buf "/>"
  | peers, results ->
      Buffer.add_char buf '>';
      if peers <> [] then (
        Buffer.add_string buf "<xrpc:participatingPeers>";
        List.iter
          (fun p ->
            Buffer.add_string buf "<xrpc:peer";
            add_attr buf "uri" p;
            Buffer.add_string buf "/>")
          peers;
        Buffer.add_string buf "</xrpc:participatingPeers>");
      List.iter (Marshal.add_sequence buf) results;
      Buffer.add_string buf "</xrpc:response>"

let add_fault buf f =
  Buffer.add_string buf "<env:Fault><env:Code><env:Value>";
  Buffer.add_string buf
    (match f.fault_code with `Sender -> "env:Sender" | `Receiver -> "env:Receiver");
  Buffer.add_string buf
    "</env:Value></env:Code><env:Reason><env:Text xml:lang=\"en\">";
  Serialize.add_escaped_text buf f.reason;
  Buffer.add_string buf "</env:Text></env:Reason></env:Fault>"

let add_body buf ~server_profile ~profile_flag = function
  | Request r -> add_request buf ~profile_flag r
  | Response r -> add_response buf ~server_profile r
  | Fault f -> add_fault buf f
  | Tx_request (op, q) ->
      Buffer.add_string buf "<xrpc:transaction";
      add_attr buf "operation" (tx_op_name op);
      Buffer.add_char buf '>';
      add_query_id buf q;
      Buffer.add_string buf "</xrpc:transaction>"
  | Tx_response r ->
      Buffer.add_string buf "<xrpc:transactionResult";
      add_attr buf "ok" (if r.ok then "true" else "false");
      add_attr buf "info" r.info;
      Buffer.add_string buf "/>"

(** Append a message's on-the-wire form (with XML declaration) to [buf] —
    the streaming-serialize hook: the event-loop server hands each
    connection's reused output buffer here, so an envelope goes straight
    into the socket's write queue without an intermediate per-response
    string.  When tracing is enabled and no explicit [?trace] pair is
    given, the ambient span context ([Xrpc_obs.Trace.propagation]) is
    stamped into the envelope header automatically; with tracing off the
    wire format is byte-identical to previous releases. *)
let to_buffer ?trace ?server_profile buf m =
  let trace =
    match trace with Some _ as t -> t | None -> Xrpc_obs.Trace.propagation ()
  in
  (* a request serialized inside a Trace collection asks the serving
     peer for its phase breakdown (the profile attribute) — this is what
     lets call_profiled see a remote process's costs *)
  let profile_flag =
    match m with Request _ -> Xrpc_obs.Trace.collecting () | _ -> false
  in
  add_envelope_start buf trace;
  add_body buf ~server_profile ~profile_flag m;
  Buffer.add_string buf envelope_close

(** Serialize a message to its on-the-wire form, as {!to_buffer}. *)
let to_string ?trace ?server_profile m =
  let buf = Buffer.create 512 in
  to_buffer ?trace ?server_profile buf m;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* An envelope is decoded straight off the one XML scanner's cursor into
   [Message] and [Xdm] values; only node-valued parameters and results
   (and call-by-fragment subtrees) are read as trees, to be shredded.
   Elements are matched by local name.  The whole document is scanned,
   so a message that is not well-formed XML is rejected wherever its
   fault is. *)

module C = Xml_parse

(* An xs:nonNegativeInteger attribute (XRPC.xsd): surrounding
   whitespace, an optional "+", then at most 9 ASCII digits. *)
let nat_attr what s =
  match Marshal.nat s with
  | Some n -> n
  | None -> err "%s is not a non-negative integer: %S" what (clip s)

(* An xs:boolean attribute, [false] when absent: "true", "false", "1" or
   "0" after whitespace trimming.  Anything else is malformed.  A foreign
   client may send the 1/0 forms: fragments="1" must not pass for false,
   or its call-by-fragment request would lose its node references. *)
let bool_attr c local =
  match Option.map String.trim (C.attr c local) with
  | None | Some ("false" | "0") -> false
  | Some ("true" | "1") -> true
  | Some v -> err "%s is not an xs:boolean: %S" local (clip v)

(* An enumerated attribute: [None] when absent, else one of [values]
   after whitespace trimming. *)
let enum_attr c local values =
  match Option.map String.trim (C.attr c local) with
  | None -> None
  | Some v when List.mem v values -> Some v
  | Some v ->
      err "%s is not one of %s: %S" local (String.concat "|" values) (clip v)

(* A queryID timeout in seconds: an xs:nonNegativeInteger that must also
   be positive.  The decoder checks incoming queryIDs with it, and
   {!Xrpc_xquery.Context.timeout} checks [declare option xrpc:timeout],
   so a query cannot send a timeout its peers would refuse. *)
let timeout_attr what s =
  match nat_attr what s with 0 -> err "%s must be positive" what | n -> n

(* the children of the element whose [Start] was read, through its
   [End]: [f] is called at each child element's [Start] and must read it
   through its [End]; character data, comments and PIs are dropped *)
let rec each_child c f =
  match C.next c with
  | C.End | C.Eof -> ()
  | C.Start ->
      f ();
      each_child c f
  | C.Text | C.Comment | C.Pi -> each_child c f

(* at the [Start] of a queryID, read through its [End] *)
let read_query_id c =
  (* XRPC.xsd: host, timestamp and timeout are use="required" *)
  let required a =
    match C.attr c a with
    | Some v -> v
    | None -> err "queryID without its required %s attribute" a
  in
  let q =
    {
      host = required "host";
      timestamp = required "timestamp";
      timeout = timeout_attr "queryID timeout" (required "timeout");
      level =
        (match enum_attr c "level" [ "repeatable"; "snapshot" ] with
        | Some "snapshot" -> Snapshot
        | _ -> Repeatable);
    }
  in
  (* a snapshot pins the instant its timestamp names; a repeatable
     read only keys on it *)
  if q.level = Snapshot then ignore (snapshot_time q);
  C.skip c;
  q

(* What a decode reports besides the message: the caller's trace context
   and profile flag (read by a serving peer) and the serving peer's
   phase costs (read by a profiling caller). *)
type extras = {
  server : bool;  (** a served request: read the Header and profile flag *)
  phases_wanted : bool;
  mutable trace : (string * string) option;
  mutable profile : bool;
  mutable phases : (string * float) list option;
}

let read_request c x =
  let get what =
    match C.attr c what with
    | Some v -> v
    | None -> err "request missing %s attribute" what
  in
  let module_uri = get "module" and method_ = get "method" in
  let arity = nat_attr "arity" (get "arity") in
  let location = Option.value ~default:"" (C.attr c "location") in
  let updating = bool_attr c "updCall" and fragments = bool_attr c "fragments" in
  let idem_key = C.attr c "idemKey" in
  if x.server then x.profile <- bool_attr c "profile";
  let query_id = ref None and calls = ref [] in
  each_child c (fun () ->
      match C.local c with
      | "queryID" when !query_id = None -> query_id := Some (read_query_id c)
      | "call" -> calls := Marshal.read_call c :: !calls
      | _ -> C.skip c);
  Request
    {
      module_uri;
      location;
      method_;
      arity;
      updating;
      fragments;
      query_id = !query_id;
      idem_key;
      calls = List.rev !calls;
    }

(* The serving peer's phase costs: "name=ms;..." *)
let parse_phase_list text =
  List.filter_map
    (fun pair ->
      match String.index_opt pair '=' with
      | Some i ->
          Option.map
            (fun v -> (String.sub pair 0 i, v))
            (float_of_string_opt
               (String.sub pair (i + 1) (String.length pair - i - 1)))
      | None -> None)
    (String.split_on_char ';' text)

let read_response c x =
  let resp_module = Option.value ~default:"" (C.attr c "module") in
  let resp_method = Option.value ~default:"" (C.attr c "method") in
  let db_version = Option.map (nat_attr "dbVersion") (C.attr c "dbVersion") in
  if x.phases_wanted then
    x.phases <- Option.map parse_phase_list (C.attr c "serverProfile");
  let peers = ref [] and results = ref [] in
  each_child c (fun () ->
      match C.local c with
      | "participatingPeers" ->
          each_child c (fun () ->
              if C.local c = "peer" then (
                (* XRPC.xsd: uri is use="required"; a peer without one
                   would be a 2PC participant lost *)
                match C.attr c "uri" with
                | Some uri ->
                    peers := uri :: !peers;
                    C.skip c
                | None -> err "xrpc:peer without its required uri attribute")
              else C.skip c)
      | "sequence" -> results := Marshal.read_sequence c :: !results
      | _ -> C.skip c);
  Response
    {
      resp_module;
      resp_method;
      results = List.rev !results;
      peers = List.rev !peers;
      db_version;
    }

let read_fault c =
  let code = ref None and reason = ref None in
  each_child c (fun () ->
      match C.local c with
      | "Code" when !code = None -> code := Some (C.text_content c)
      | "Reason" when !reason = None ->
          reason := Some (String.trim (C.text_content c))
      | _ -> C.skip c);
  (* env:Sender under any prefix is the sender's fault; any other value,
     or none, the receiver's *)
  let fault_code =
    match !code with
    | Some v when String.ends_with ~suffix:"Sender" (String.trim v) -> `Sender
    | _ -> `Receiver
  in
  Fault { fault_code; reason = Option.value ~default:"" !reason }

let read_transaction c =
  let op =
    match C.attr c "operation" with
    | Some "prepare" -> Prepare
    | Some "commit" -> Commit
    | Some "rollback" -> Rollback
    | Some "status" -> Status
    | _ -> err "unknown transaction operation"
  in
  let qid = ref None in
  (* the queryID is the first element child, whatever its name *)
  each_child c (fun () ->
      if !qid = None then qid := Some (read_query_id c) else C.skip c);
  match !qid with
  | Some q -> Tx_request (op, q)
  | None -> err "transaction without queryID"

let read_transaction_result c =
  (* XRPC.xsd: ok is use="required" *)
  if C.attr c "ok" = None then
    err "transactionResult without its required ok attribute";
  let ok = bool_attr c "ok" in
  let info = Option.value ~default:"" (C.attr c "info") in
  C.skip c;
  Tx_response { ok; info }

(* the Body's one element *)
let read_body c x =
  let msg = ref None in
  each_child c (fun () ->
      match !msg with
      | Some _ -> err "unrecognized SOAP body"
      | None ->
          msg :=
            Some
              (match C.local c with
              | "request" -> read_request c x
              | "response" -> read_response c x
              | "Fault" -> read_fault c
              | "transaction" -> read_transaction c
              | "transactionResult" -> read_transaction_result c
              | _ -> err "unrecognized SOAP body"));
  match !msg with Some m -> m | None -> err "unrecognized SOAP body"

(* The propagated (trace-id, parent-span) pair, if the first Header
   carries an xrpc:trace element. *)
let read_header c x =
  let seen = ref false in
  each_child c (fun () ->
      if (not !seen) && C.local c = "trace" then (
        seen := true;
        (match (C.attr c "traceId", C.attr c "parentSpan") with
        | Some t, Some p -> x.trace <- Some (t, p)
        | _ -> ()));
      C.skip c)

let decode x s ~pos ~len =
  let c = C.cursor s ~pos ~len in
  ignore (C.next c);
  if C.local c <> "Envelope" then (
    (* as malformed XML, if it is that too *)
    C.skip c;
    ignore (C.next c);
    err "not a SOAP envelope");
  let body = ref None and header = ref false in
  match
    each_child c (fun () ->
        match C.local c with
        | "Body" when !body = None -> body := Some (read_body c x)
        | "Header" when x.server && not !header ->
            header := true;
            read_header c x
        | _ -> C.skip c);
    ignore (C.next c)
  with
  | () -> (
      match !body with Some m -> m | None -> err "SOAP envelope without Body")
  | exception Marshal.Marshal_error m ->
      (* a payload the marshaler rejects is a malformed message too *)
      err "%s" m

let extras ~server ~phases_wanted =
  { server; phases_wanted; trace = None; profile = false; phases = None }

(** Parse an on-the-wire message. *)
let of_string s =
  decode
    (extras ~server:false ~phases_wanted:false)
    s ~pos:0 ~len:(String.length s)

(** Parse [dest]'s reply.  Inside a Trace collection the serving peer's
    serverProfile phases are summed into the current span, one
    {!Xrpc_obs.Profile.remote_attr} attribute per phase. *)
let of_reply ~dest s =
  if not (Xrpc_obs.Trace.collecting ()) then of_string s
  else
    let x = extras ~server:false ~phases_wanted:true in
    let m = decode x s ~pos:0 ~len:(String.length s) in
    List.iter
      (fun (phase, ms) ->
        Xrpc_obs.Trace.add (Xrpc_obs.Profile.remote_attr phase dest) ms)
      (Option.value ~default:[] x.phases);
    m

(** Server-side parse: the message, its propagated trace context, and
    whether the caller asked for the phase breakdown (xrpc:profile).
    [?pos]/[?len] parse the envelope out of a window of [s] — the
    streaming-parse hook: the event-loop server points this directly at
    the request body inside its connection buffer, copy-free. *)
let of_string_server ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let x = extras ~server:true ~phases_wanted:false in
  let m = decode x s ~pos ~len in
  (m, x.trace, x.profile)
