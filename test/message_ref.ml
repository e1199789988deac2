(* The SOAP XRPC codec as it stood before envelopes were written and read
   without a tree: the parent's Marshal (s2n/n2s over Tree values) and
   Message (to_tree + Serialize, Xml_parse.document + of_tree), kept
   verbatim as the oracle of test_codec and linked by nothing else.  Its
   message types are Message's own, so decoded values compare directly.

   Four decodings are known defects of this oracle, fixed in Message:
   a Fault Code value whose trimmed text is shorter than 6 bytes raises
   Invalid_argument, a non-decimal dbVersion (0x1F, -3) decodes as a
   number, an xrpc:peer without uri is dropped, and a non-decimal
   xrpc:nodeid/param/item (0x1) is taken as a number.  test_codec names
   each as an allowed difference. *)

open Xrpc_xml
module Message = Xrpc_soap.Message

module Marshal = struct

exception Marshal_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Marshal_error s)) fmt

let xrpc local = Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc local
let xsi local = Qname.make ~prefix:"xsi" ~uri:Qname.ns_xsi local

let wrap_item = function
    | Xdm.Atomic a ->
        Tree.elem (xrpc "atomic-value")
          ~attrs:
            [ Tree.attr (xsi "type") ("xs:" ^ Xs.type_name (Xs.type_of a)) ]
          [ Tree.Text (Xs.to_string a) ]
    | Xdm.Node n -> (
        match Store.kind n with
        | Store.Elem -> Tree.elem (xrpc "element") [ Store.to_tree n ]
        | Store.Doc ->
            Tree.elem (xrpc "document")
              (match Store.to_tree n with
              | Tree.Document cs -> cs
              | t -> [ t ])
        | Store.Txt -> Tree.elem (xrpc "text") [ Tree.Text (Store.string_value n) ]
        | Store.Comm ->
            Tree.elem (xrpc "comment") [ Tree.Text (Store.string_value n) ]
        | Store.Pi ->
            let target =
              match Store.name n with Some q -> Qname.to_string q | None -> ""
            in
            Tree.elem (xrpc "pi")
              ~attrs:[ Tree.attr (Qname.make "target") target ]
              [ Tree.Text (Store.string_value n) ]
        | Store.Attr ->
            let a = Store.attr_tree n in
            Tree.elem (xrpc "attribute") ~attrs:[ a ] [])

(** [s2n seq] — sequence-to-node: the SOAP representation of [seq]. *)
let s2n (seq : Xdm.sequence) : Tree.t =
  Tree.elem (xrpc "sequence") (List.map wrap_item seq)

(** Call-by-fragment marshaling — the protocol extension sketched in
    footnote 4 of the paper.  Within one call, a node parameter that is a
    descendant-or-self of an {e earlier, fully serialized} node parameter
    is sent as a reference [<xrpc:element xrpc:nodeid="Δpre"
    xrpc:param="p" xrpc:item="i"/>] instead of being re-serialized.  On
    the receiving side the reference resolves {e into the same fragment},
    so ancestor/descendant relationships between parameters — destroyed by
    plain call-by-value — are preserved, and the SOAP message shrinks. *)
let s2n_call ?(fragments = false) (params : Xdm.sequence list) : Tree.t list =
  if not fragments then List.map s2n params
  else begin
    (* nodes already serialized in full, with their (param, item) slot *)
    let serialized : (Store.node * int * int) list ref = ref [] in
    let covering (n : Store.node) =
      List.find_opt
        (fun ((anc : Store.node), _, _) ->
          anc.Store.store.Store.doc_id = n.Store.store.Store.doc_id
          && anc.Store.pre <= n.Store.pre
          && n.Store.pre
             <= anc.Store.pre + anc.Store.store.Store.size.(anc.Store.pre))
        !serialized
    in
    List.mapi
      (fun pi seq ->
        Tree.elem (xrpc "sequence")
          (List.mapi
             (fun ii item ->
               match item with
               | Xdm.Node n when Store.kind n = Store.Elem -> (
                   match covering n with
                   | Some (anc, api, aii) ->
                       Tree.elem (xrpc "element")
                         ~attrs:
                           [
                             Tree.attr (xrpc "nodeid")
                               (string_of_int (n.Store.pre - anc.Store.pre));
                             Tree.attr (xrpc "param") (string_of_int api);
                             Tree.attr (xrpc "item") (string_of_int aii);
                           ]
                         []
                   | None ->
                       serialized := (n, pi, ii) :: !serialized;
                       wrap_item item)
               | item -> wrap_item item)
             seq))
      params
  end

(** [n2s node_tree] — node-to-sequence: parse an [xrpc:sequence] element
    back into an XDM sequence, constructing each node value as a separate
    fragment (fresh store). *)
let n2s (t : Tree.t) : Xdm.sequence =
  let unwrap_child = function
    | Tree.Element { name; attrs; children } when name.Qname.uri = Qname.ns_xrpc
      -> (
        match name.Qname.local with
        | "atomic-value" ->
            let typ =
              match
                List.find_opt
                  (fun (a : Tree.attr) ->
                    a.name.Qname.local = "type"
                    && (a.name.Qname.uri = Qname.ns_xsi || a.name.Qname.uri = ""))
                  attrs
              with
              | None -> Xs.TUntypedAtomic
              | Some a -> (
                  let _, local = Qname.split a.value in
                  match Xs.type_of_name local with
                  | Some t -> t
                  | None -> Xs.TUntypedAtomic)
            in
            (* a lexical form its type rejects is a malformed message *)
            (match Xs.of_string typ (Tree.string_value (Tree.Document children)) with
            | v -> Xdm.Atomic v
            | exception Xs.Type_error m -> err "xrpc:atomic-value: %s" m)
        | "element" -> (
            match
              List.find_opt
                (function Tree.Element _ -> true | _ -> false)
                children
            with
            | Some e ->
                let store = Store.shred e in
                Xdm.Node (Store.root store)
            | None -> err "xrpc:element without element child")
        | "document" ->
            let store = Store.shred (Tree.Document children) in
            Xdm.Node (Store.root store)
        | "text" ->
            let store = Store.shred (Tree.Text (Tree.string_value (Tree.Document children))) in
            Xdm.Node (Store.root store)
        | "comment" ->
            let store = Store.shred (Tree.Comment (Tree.string_value (Tree.Document children))) in
            Xdm.Node (Store.root store)
        | "pi" ->
            let target =
              match
                List.find_opt
                  (fun (a : Tree.attr) -> a.name.Qname.local = "target")
                  attrs
              with
              | Some a -> a.value
              | None -> ""
            in
            let store =
              Store.shred
                (Tree.Pi { target; data = Tree.string_value (Tree.Document children) })
            in
            Xdm.Node (Store.root store)
        | "attribute" -> (
            match attrs with
            | a :: _ ->
                (* An attribute node needs an owner element in the store;
                   shred a carrier element and return its attribute. *)
                let store =
                  Store.shred (Tree.elem (xrpc "attr-carrier") ~attrs:[ a ] [])
                in
                let owner = Store.root store in
                (match Store.attributes owner with
                | at :: _ -> Xdm.Node at
                | [] -> err "attribute carrier lost its attribute")
            | [] -> err "xrpc:attribute without attribute")
        | other -> err "unexpected xrpc:%s in sequence" other)
    | Tree.Text s when String.trim s = "" ->
        err "whitespace"
    | _ -> err "unexpected content in xrpc:sequence"
  in
  match t with
  | Tree.Element { name; children; _ }
    when name.Qname.uri = Qname.ns_xrpc && name.Qname.local = "sequence" ->
      List.filter_map
        (fun c ->
          match c with
          | Tree.Text s when String.trim s = "" -> None
          | c -> Some (unwrap_child c))
        children
  | _ -> err "expected xrpc:sequence element"

let get_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

(* an [xrpc:nodeid] reference into an earlier parameter *)
let is_ref = function
  | Tree.Element { name; attrs; _ } ->
      name.Qname.uri = Qname.ns_xrpc
      && name.Qname.local = "element"
      && get_attr attrs "nodeid" <> None
  | _ -> false

(* the call-by-fragment decoder: references resolve into the fragments of
   their fully-serialized ancestors *)
let n2s_refs (seq_trees : Tree.t list) : Xdm.sequence list =
  let children_of = function
    | Tree.Element { name; children; _ }
      when name.Qname.uri = Qname.ns_xrpc && name.Qname.local = "sequence" ->
        List.filter
          (function Tree.Text s -> String.trim s <> "" | _ -> true)
          children
    | _ -> err "expected xrpc:sequence element"
  in
  let specs =
    List.map
      (fun t ->
        List.map
          (fun c ->
            match c with
            | Tree.Element { attrs; _ } when is_ref c ->
                let geti what =
                  match get_attr attrs what with
                  | Some v -> ( try int_of_string v with _ -> err "bad %s" what)
                  | None -> err "nodeid reference missing %s" what
                in
                `Ref (geti "param", geti "item", geti "nodeid")
            | c -> `Plain c)
          (children_of t))
      seq_trees
  in
  (* pass 1: plain items *)
  let table : (int * int, Xdm.item) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun pi items ->
      List.iteri
        (fun ii spec ->
          match spec with
          | `Plain c ->
              let seq = n2s (Tree.elem (xrpc "sequence") [ c ]) in
              (match seq with
              | [ item ] -> Hashtbl.replace table (pi, ii) item
              | _ -> err "single item expected")
          | `Ref _ -> ())
        items)
    specs;
  (* pass 2: resolve references into their ancestors' fragments *)
  List.mapi
    (fun pi items ->
      List.mapi
        (fun ii spec ->
          match spec with
          | `Plain _ -> Hashtbl.find table (pi, ii)
          | `Ref (rp, ri, delta) -> (
              match Hashtbl.find_opt table (rp, ri) with
              | Some (Xdm.Node ({ Store.store; pre } as base)) ->
                  (* the reference must name a node of the shipped
                     fragment: base itself or one of its descendants *)
                  if delta < 0 || delta > store.Store.size.(pre) then
                    err "nodeid offset %d out of range" delta
                  else Xdm.Node { base with Store.pre = pre + delta }
              | Some (Xdm.Atomic _) -> err "nodeid reference to atomic parameter"
              | None -> err "nodeid reference to unknown parameter (%d,%d)" rp ri))
        items)
    specs

(** [n2s_call seqs] — unmarshal all parameter sequences of one call,
    resolving any [xrpc:nodeid] references (footnote-4 extension) into the
    fragments of their fully-serialized ancestors.  Without references
    (every call not sent by fragment) this is exactly mapping {!n2s}. *)
let n2s_call (seq_trees : Tree.t list) : Xdm.sequence list =
  let has_refs = function
    | Tree.Element { children; _ } -> List.exists is_ref children
    | _ -> false
  in
  if List.exists has_refs seq_trees then n2s_refs seq_trees
  else List.map n2s seq_trees

end

(** Repeatable-read isolation handle: originating host, UTC start timestamp
    and a {e relative} timeout in seconds (§2.2, "SOAP XRPC Extension:
    Isolation"). *)
type isolation_level = Message.isolation_level = Repeatable | Snapshot

type query_id = Message.query_id = {
  host : string;
  timestamp : string;
  timeout : int;
  level : isolation_level;
      (** [Snapshot] asks peers to pin the state as of [timestamp] (the
          distributed snapshot isolation sketched in §2.2); [Repeatable]
          pins at first contact *)
}

type request = Message.request = {
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
      (** idempotency key: peers cache the response under this key so a
          retried or duplicated request (at-least-once transports) returns
          the cached reply instead of re-executing updating functions *)
  calls : Xdm.sequence list list;
      (** one entry per call; each call is [arity] parameter sequences *)
}

type response = Message.response = {
  resp_module : string;
  resp_method : string;
  results : Xdm.sequence list;  (** one result sequence per call *)
  peers : string list;  (** piggybacked participating peers (§2.3) *)
  db_version : int option;
      (** the serving peer's database version token ([dbVersion]
          attribute) — lets callers observe remote data movement without
          another round trip *)
}

type fault = Message.fault = { fault_code : [ `Sender | `Receiver ]; reason : string }

type tx_op = Message.tx_op =
  | Prepare
  | Commit
  | Rollback
  | Status
      (** in-doubt recovery: a participant that prepared but missed the
          decision asks the coordinator for the outcome (presumed abort:
          an unknown transaction means "aborted") *)

type t = Message.t =
  | Request of request
  | Response of response
  | Fault of fault
  | Tx_request of tx_op * query_id
  | Tx_response of { ok : bool; info : string }

exception Protocol_error = Message.Protocol_error

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* a received value, bounded for an error message *)
let clip s = if String.length s > 20 then String.sub s 0 20 ^ "..." else s

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
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let xrpc local = Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc local
let env local = Qname.make ~prefix:"env" ~uri:Qname.ns_env local

(* When tracing is active the envelope grows a SOAP Header carrying the
   (trace-id, parent-span) pair — see protocol/XRPC.xsd, xrpc:trace — so a
   serving peer can hang its spans under the caller's span tree. *)
let trace_header = function
  | None -> []
  | Some (trace_id, parent_span) ->
      [
        Tree.elem (xrpc "trace")
          ~attrs:
            [
              Tree.attr (Qname.make "traceId") trace_id;
              Tree.attr (Qname.make "parentSpan") parent_span;
            ]
          [];
      ]

(* Profiled responses carry the serving peer's per-phase wall costs back
   as one [serverProfile="name=ms;..."] attribute on xrpc:response
   (protocol/XRPC.xsd), so a client profile of a distributed query can
   break down remote time into parse/cache/compile/exec/commit without a
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

let profile_attr = function
  | None | Some [] -> []
  | Some phases ->
      [
        Tree.attr
          (Qname.make "serverProfile")
          (String.concat ";"
             (List.map (fun (name, ms) -> name ^ "=" ^ fixed3 ms) phases));
      ]

let envelope ?trace body_children =
  let header =
    match trace_header trace with
    | [] -> []
    | children -> [ Tree.elem (env "Header") children ]
  in
  Tree.elem (env "Envelope")
    ~attrs:
      [
        Tree.attr (Qname.make ~prefix:"xmlns" "xrpc") Qname.ns_xrpc;
        Tree.attr (Qname.make ~prefix:"xmlns" "env") Qname.ns_env;
        Tree.attr (Qname.make ~prefix:"xmlns" "xs") Qname.ns_xs;
        Tree.attr (Qname.make ~prefix:"xmlns" "xsi") Qname.ns_xsi;
        Tree.attr
          (Qname.make ~prefix:"xsi" ~uri:Qname.ns_xsi "schemaLocation")
          "http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd";
      ]
    (header @ [ Tree.elem (env "Body") body_children ])

let query_id_elem (q : query_id) =
  Tree.elem (xrpc "queryID")
    ~attrs:
      ([
         Tree.attr (Qname.make "host") q.host;
         Tree.attr (Qname.make "timestamp") q.timestamp;
         Tree.attr (Qname.make "timeout") (string_of_int q.timeout);
       ]
      @
      match q.level with
      | Repeatable -> []
      | Snapshot -> [ Tree.attr (Qname.make "level") "snapshot" ])
    []

let to_tree ?trace ?server_profile ?(profile_flag = false) = function
  | Request r ->
      let calls =
        List.map
          (fun params ->
            Tree.elem (xrpc "call")
              (Marshal.s2n_call ~fragments:r.fragments params))
          r.calls
      in
      let qid = match r.query_id with None -> [] | Some q -> [ query_id_elem q ] in
      envelope ?trace
        [
          Tree.elem (xrpc "request")
            ~attrs:
              ([
                 Tree.attr (Qname.make "module") r.module_uri;
                 Tree.attr (Qname.make "method") r.method_;
                 Tree.attr (Qname.make "arity") (string_of_int r.arity);
                 Tree.attr (Qname.make "location") r.location;
               ]
              @ (if r.updating then [ Tree.attr (Qname.make "updCall") "true" ] else [])
              @ (match r.idem_key with
                | Some k -> [ Tree.attr (Qname.make "idemKey") k ]
                | None -> [])
              (* profile="true" asks the serving peer to measure and
                 return its phase costs; an attribute (like idemKey, not
                 a header element) to keep the flag at one node of cost *)
              @ (if profile_flag then [ Tree.attr (Qname.make "profile") "true" ]
                 else [])
              @ if r.fragments then [ Tree.attr (Qname.make "fragments") "true" ] else [])
            (qid @ calls);
        ]
  | Response r ->
      let seqs = List.map Marshal.s2n r.results in
      let peers =
        match r.peers with
        | [] -> []
        | ps ->
            [
              Tree.elem (xrpc "participatingPeers")
                (List.map
                   (fun p ->
                     Tree.elem (xrpc "peer")
                       ~attrs:[ Tree.attr (Qname.make "uri") p ]
                       [])
                   ps);
            ]
      in
      envelope ?trace
        [
          Tree.elem (xrpc "response")
            ~attrs:
              ([
                 Tree.attr (Qname.make "module") r.resp_module;
                 Tree.attr (Qname.make "method") r.resp_method;
               ]
              @ (match r.db_version with
                | Some v ->
                    [ Tree.attr (Qname.make "dbVersion") (string_of_int v) ]
                | None -> [])
              @ profile_attr server_profile)
            (peers @ seqs);
        ]
  | Fault f ->
      let code = match f.fault_code with `Sender -> "env:Sender" | `Receiver -> "env:Receiver" in
      envelope ?trace
        [
          Tree.elem (env "Fault")
            [
              Tree.elem (env "Code") [ Tree.elem (env "Value") [ Tree.Text code ] ];
              Tree.elem (env "Reason")
                [
                  Tree.elem (env "Text")
                    ~attrs:[ Tree.attr (Qname.make ~prefix:"xml" ~uri:Qname.ns_xml "lang") "en" ]
                    [ Tree.Text f.reason ];
                ];
            ];
        ]
  | Tx_request (op, q) ->
      envelope ?trace
        [
          Tree.elem (xrpc "transaction")
            ~attrs:[ Tree.attr (Qname.make "operation") (tx_op_name op) ]
            [ query_id_elem q ];
        ]
  | Tx_response r ->
      envelope ?trace
        [
          Tree.elem (xrpc "transactionResult")
            ~attrs:
              [
                Tree.attr (Qname.make "ok") (if r.ok then "true" else "false");
                Tree.attr (Qname.make "info") r.info;
              ]
            [];
        ]

(** Serialize a message to its on-the-wire form (with XML declaration).
    When tracing is enabled and no explicit [?trace] pair is given, the
    ambient span context ([Xrpc_obs.Trace.propagation]) is stamped into the
    envelope header automatically; with tracing off the wire format is
    byte-identical to previous releases. *)
let to_string ?trace ?server_profile m =
  let trace =
    match trace with Some _ as t -> t | None -> Xrpc_obs.Trace.propagation ()
  in
  (* a request serialized inside a Trace collection asks the serving
     peer for its phase breakdown (the profile attribute) — this is what
     lets call_profiled see a remote process's costs *)
  let profile_flag =
    match m with Request _ -> Xrpc_obs.Trace.collecting () | _ -> false
  in
  Serialize.document_to_string
    (Tree.Document [ to_tree ?trace ?server_profile ~profile_flag m ])

(** Like {!to_string}, but appending the wire form to [buf] — the
    streaming-serialize hook: the event-loop server hands each
    connection's reused output buffer here, so an envelope goes straight
    from the tree into the socket's write queue without an intermediate
    per-response string. *)
let to_buffer ?trace ?server_profile buf m =
  let trace =
    match trace with Some _ as t -> t | None -> Xrpc_obs.Trace.propagation ()
  in
  let profile_flag =
    match m with Request _ -> Xrpc_obs.Trace.collecting () | _ -> false
  in
  Serialize.document_to_buffer buf
    (Tree.Document [ to_tree ?trace ?server_profile ~profile_flag m ])

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let find_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

let elem_children children =
  List.filter_map
    (function Tree.Element _ as e -> Some e | _ -> None)
    children

(* An xs:nonNegativeInteger attribute (XRPC.xsd): surrounding
   whitespace, an optional "+", then at most 9 ASCII digits.
   [int_of_string] alone would also take "-3", "0x1F" and "1_0". *)
let nat_attr what s =
  let t = String.trim s in
  let d =
    if t <> "" && t.[0] = '+' then String.sub t 1 (String.length t - 1) else t
  in
  if
    d <> "" && String.length d <= 9
    && String.for_all (function '0' .. '9' -> true | _ -> false) d
  then int_of_string d
  else err "%s is not a non-negative integer: %S" what (clip s)

(* An xs:boolean attribute, [false] when absent: "true", "false", "1" or
   "0" after whitespace trimming.  Anything else is malformed.  A foreign
   client may send the 1/0 forms: fragments="1" must not pass for false,
   or its call-by-fragment request would lose its node references. *)
let bool_attr attrs local =
  match Option.map String.trim (find_attr attrs local) with
  | None | Some ("false" | "0") -> false
  | Some ("true" | "1") -> true
  | Some v -> err "%s is not an xs:boolean: %S" local (clip v)

(* An enumerated attribute: [None] when absent, else one of [values]
   after whitespace trimming. *)
let enum_attr attrs local values =
  match Option.map String.trim (find_attr attrs local) with
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

let parse_query_id = function
  | Tree.Element { attrs; _ } ->
      (* XRPC.xsd: host, timestamp and timeout are use="required" *)
      let required a =
        match find_attr attrs a with
        | Some v -> v
        | None -> err "queryID without its required %s attribute" a
      in
      let q =
        {
          host = required "host";
          timestamp = required "timestamp";
          timeout = timeout_attr "queryID timeout" (required "timeout");
          level =
            (match enum_attr attrs "level" [ "repeatable"; "snapshot" ] with
            | Some "snapshot" -> Snapshot
            | _ -> Repeatable);
        }
      in
      (* a snapshot pins the instant its timestamp names; a repeatable
         read only keys on it *)
      if q.level = Snapshot then ignore (snapshot_time q);
      q
  | _ -> err "malformed queryID"

let decode_tree tree =
  let body =
    match tree with
    | Tree.Document [ Tree.Element { name; children; _ } ]
      when name.Qname.local = "Envelope" -> (
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Body"
              | _ -> false)
            (elem_children children)
        with
        | Some (Tree.Element { children; _ }) -> elem_children children
        | _ -> err "SOAP envelope without Body")
    | _ -> err "not a SOAP envelope"
  in
  match body with
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "request" ->
      let get what =
        match find_attr attrs what with
        | Some v -> v
        | None -> err "request missing %s attribute" what
      in
      let kids = elem_children children in
      let query_id =
        List.find_opt
          (function
            | Tree.Element { name; _ } -> name.Qname.local = "queryID"
            | _ -> false)
          kids
        |> Option.map parse_query_id
      in
      let calls =
        List.filter_map
          (function
            | Tree.Element { name; children; _ } when name.Qname.local = "call" ->
                Some (Marshal.n2s_call (elem_children children))
            | _ -> None)
          kids
      in
      Request
        {
          module_uri = get "module";
          location = Option.value ~default:"" (find_attr attrs "location");
          method_ = get "method";
          arity = nat_attr "arity" (get "arity");
          updating = bool_attr attrs "updCall";
          fragments = bool_attr attrs "fragments";
          query_id;
          idem_key = find_attr attrs "idemKey";
          calls;
        }
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "response" ->
      let kids = elem_children children in
      let peers =
        List.concat_map
          (function
            | Tree.Element { name; children; _ }
              when name.Qname.local = "participatingPeers" ->
                List.filter_map
                  (function
                    | Tree.Element { name; attrs; _ }
                      when name.Qname.local = "peer" ->
                        find_attr attrs "uri"
                    | _ -> None)
                  (elem_children children)
            | _ -> [])
          kids
      in
      let results =
        List.filter_map
          (function
            | Tree.Element { name; _ } as e when name.Qname.local = "sequence" ->
                Some (Marshal.n2s e)
            | _ -> None)
          kids
      in
      Response
        {
          resp_module = Option.value ~default:"" (find_attr attrs "module");
          resp_method = Option.value ~default:"" (find_attr attrs "method");
          results;
          peers;
          db_version =
            Option.bind (find_attr attrs "dbVersion") int_of_string_opt;
        }
  | [ Tree.Element { name; children; _ } ] when name.Qname.local = "Fault" ->
      let kids = elem_children children in
      let code =
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Code"
              | _ -> false)
            kids
        with
        | Some c when String.length (Tree.string_value c) > 0
                      && String.length (Tree.string_value c) >= 6
                      && String.sub (String.trim (Tree.string_value c))
                           (String.length (String.trim (Tree.string_value c)) - 6) 6
                         = "Sender" -> `Sender
        | _ -> `Receiver
      in
      let reason =
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Reason"
              | _ -> false)
            kids
        with
        | Some r -> String.trim (Tree.string_value r)
        | None -> ""
      in
      Fault { fault_code = code; reason }
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "transaction" ->
      let op =
        match find_attr attrs "operation" with
        | Some "prepare" -> Prepare
        | Some "commit" -> Commit
        | Some "rollback" -> Rollback
        | Some "status" -> Status
        | _ -> err "unknown transaction operation"
      in
      let qid =
        match elem_children children with
        | q :: _ -> parse_query_id q
        | [] -> err "transaction without queryID"
      in
      Tx_request (op, qid)
  | [ Tree.Element { name; attrs; _ } ] when name.Qname.local = "transactionResult" ->
      (* XRPC.xsd: ok is use="required" *)
      if find_attr attrs "ok" = None then
        err "transactionResult without its required ok attribute";
      Tx_response
        {
          ok = bool_attr attrs "ok";
          info = Option.value ~default:"" (find_attr attrs "info");
        }
  | _ -> err "unrecognized SOAP body"

(* a payload the marshaler rejects is a malformed message too *)
let of_tree tree =
  try decode_tree tree with Marshal.Marshal_error m -> err "%s" m

(* The attributes and children of the first element [local] among
   [children]. *)
let child local children =
  List.find_map
    (function
      | Tree.Element { name; attrs; children = kids }
        when name.Qname.local = local ->
          Some (attrs, kids)
      | _ -> None)
    children

(* The attributes of the envelope's first [section]/[elem] element. *)
let envelope_attrs tree section elem =
  match tree with
  | Tree.Document envelope ->
      Option.bind (child "Envelope" envelope) (fun (_, sections) ->
          Option.bind (child section sections) (fun (_, elems) ->
              Option.map fst (child elem elems)))
  | _ -> None

(* The propagated (trace-id, parent-span) pair, if the envelope carries an
   xrpc:trace header. *)
let trace_of_tree tree =
  match envelope_attrs tree "Header" "trace" with
  | Some attrs -> (
      match (find_attr attrs "traceId", find_attr attrs "parentSpan") with
      | Some t, Some p -> Some (t, p)
      | _ -> None)
  | None -> None

(* The serving peer's phase costs, if the response element carries a
   serverProfile attribute. *)
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

let server_profile_of_tree tree =
  Option.bind (envelope_attrs tree "Body" "response") (fun attrs ->
      Option.map parse_phase_list (find_attr attrs "serverProfile"))

(* Did the caller stamp profile="true" on the request element? *)
let profile_requested_of_tree tree =
  match envelope_attrs tree "Body" "request" with
  | Some attrs -> bool_attr attrs "profile"
  | None -> false

(** Parse an on-the-wire message. *)
let of_string s = of_tree (Xml_parse.document s)

(** Parse a message together with the serving peer's phase costs, if the
    response element carries a serverProfile attribute. *)
let of_string_profiled s =
  let tree = Xml_parse.document s in
  (of_tree tree, server_profile_of_tree tree)

(** Parse [dest]'s reply.  Inside a Trace collection the serving peer's
    serverProfile phases are summed into the current span, one
    {!Xrpc_obs.Profile.remote_attr} attribute per phase. *)
let of_reply ~dest s =
  if not (Xrpc_obs.Trace.collecting ()) then of_string s
  else
    let m, phases = of_string_profiled s in
    List.iter
      (fun (phase, ms) ->
        Xrpc_obs.Trace.add (Xrpc_obs.Profile.remote_attr phase dest) ms)
      (Option.value ~default:[] phases);
    m

(** Server-side parse: the message, its propagated trace context, and
    whether the caller asked for the phase breakdown (xrpc:profile).
    [?pos]/[?len] parse the envelope out of a window of [s] — the
    streaming-parse hook: the event-loop server points this directly at
    the request body inside its connection buffer, copy-free. *)
let of_string_server ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let tree = Xml_parse.document_sub s ~pos ~len in
  (of_tree tree, trace_of_tree tree, profile_requested_of_tree tree)

(** Parse a message together with its propagated trace context, if any. *)
let of_string_traced s =
  let tree = Xml_parse.document s in
  (of_tree tree, trace_of_tree tree)
