(** The XRPC wrapper of §4: XRPC service for an XRPC-incapable engine.

    The wrapper is a SOAP handler that (1) stores the incoming request
    message as a temporary document, (2) {e generates} an XQuery query in
    the style of the paper's Figure 3 — iterating over all [xrpc:call]
    elements, unmarshaling parameters with [n2s], calling the requested
    function, and marshaling results with [s2n] — and (3) runs that query
    on a plain XQuery processor (our tree-walking interpreter stands in
    for Saxon).  [n2s]/[s2n] are implemented in {e pure XQuery} (module
    [wrapper.xq] below), demonstrating the paper's claim that the
    marshaling functions need no engine support.

    The wrapper is an engine behind the one {!Inbound} path, like the
    native peer: the path decodes the envelope, locks, checks [updCall]
    against the function the wrapper resolved, keeps the idempotency
    cache, maps failures to Faults and records the request.
    Each request's work is three spans, Table 3's columns:
    [wrapper.treebuild], [wrapper.compile] and [wrapper.exec].  With
    [join_detect] the wrapper mimics Saxon's optimizer: a bulk request
    whose target function is a selection [doc(..)//elem[key = $param]] is
    answered with one index probe per call instead of [n] evaluations of
    the body (§4, "Saxon Experiments"). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module Trace = Xrpc_obs.Trace

let err fmt = Printf.ksprintf (fun s -> raise (Inbound.Peer_error s)) fmt

(** Pure-XQuery marshaling module served under the namespace
    ["xrpc-wrapper"].  [w:n2s] converts an [xrpc:sequence] element into a
    typed item sequence; [w:s2n] is the inverse.  [w:copy] deep-copies
    nodes so unmarshaled parameters are fresh fragments (call-by-value:
    navigation above them finds nothing — §2.2). *)
let wrapper_xq =
  {|module namespace w = "xrpc-wrapper";
declare namespace xrpc = "http://monetdb.cwi.nl/XQuery";
declare namespace xsi = "http://www.w3.org/2001/XMLSchema-instance";

declare function w:copy($n as node()) as node() {
  typeswitch ($n)
  case element() return
    element {local-name($n)} {
      (for $a in $n/@* return attribute {local-name($a)} {string($a)}),
      (for $c in $n/node() return w:copy($c))
    }
  case text() return text {string($n)}
  case comment() return comment {string($n)}
  default return text {string($n)}
};

declare function w:n2s($s as node()) as item()* {
  for $v in $s/*
  return
    if (local-name($v) = "atomic-value") then
      (if ($v/@xsi:type = "xs:integer") then xs:integer(string($v))
       else if ($v/@xsi:type = "xs:double") then xs:double(string($v))
       else if ($v/@xsi:type = "xs:decimal") then xs:decimal(string($v))
       else if ($v/@xsi:type = "xs:boolean") then xs:boolean(string($v))
       else string($v))
    else if (local-name($v) = "element") then (for $c in $v/* return w:copy($c))
    else if (local-name($v) = "document") then
      document { for $c in $v/node() return w:copy($c) }
    else if (local-name($v) = "text") then text {string($v)}
    else if (local-name($v) = "comment") then comment {string($v)}
    else string($v)
};

declare function w:s2n($items as item()*) as node() {
  <xrpc:sequence>{
    for $i in $items
    return
      typeswitch ($i)
      case element() return <xrpc:element>{w:copy($i)}</xrpc:element>
      case text() return <xrpc:text>{string($i)}</xrpc:text>
      case comment() return <xrpc:comment>{string($i)}</xrpc:comment>
      case document-node() return <xrpc:document>{for $c in $i/node() return w:copy($c)}</xrpc:document>
      case xs:integer return <xrpc:atomic-value xsi:type="xs:integer">{string($i)}</xrpc:atomic-value>
      case xs:double return <xrpc:atomic-value xsi:type="xs:double">{string($i)}</xrpc:atomic-value>
      case xs:decimal return <xrpc:atomic-value xsi:type="xs:decimal">{string($i)}</xrpc:atomic-value>
      case xs:boolean return <xrpc:atomic-value xsi:type="xs:boolean">{string($i)}</xrpc:atomic-value>
      default return <xrpc:atomic-value xsi:type="xs:string">{string($i)}</xrpc:atomic-value>
  }</xrpc:sequence>
};
|}

type t = {
  uri : string;
  db : Database.t;
  modules : (string, string) Hashtbl.t;
  locations : (string, string) Hashtbl.t;
  mutable join_detect : bool;
  mutable transport : Outbound.t option;
      (** for [fn:doc("xrpc://...")] data shipping only — the wrapper still
          cannot make outgoing XRPC {e calls} (§4) *)
  inbound : Inbound.t;
}

let create ?(join_detect = false) uri =
  let t =
    {
      uri;
      db = Database.create ();
      modules = Hashtbl.create 8;
      locations = Hashtbl.create 8;
      join_detect;
      transport = None;
      inbound =
        Inbound.create ~scope:uri ~idem_capacity:Inbound.default_idem_capacity;
    }
  in
  Hashtbl.replace t.modules "xrpc-wrapper" wrapper_xq;
  Hashtbl.replace t.locations "wrapper.xq" wrapper_xq;
  t

(** Fetch [fn:doc("xrpc://...")] documents over [transport]. *)
let set_transport w transport =
  w.transport <- Some (Outbound.create ~origin:w.uri transport)

let register_module w ~uri ?location source =
  Hashtbl.replace w.modules uri source;
  match location with
  | Some loc -> Hashtbl.replace w.locations loc source
  | None -> ()

let resolver w : Xrpc_xquery.Runner.module_resolver =
 fun ~uri ~location ->
  match Hashtbl.find_opt w.modules uri with
  | Some src -> src
  | None -> (
      match Hashtbl.find_opt w.locations location with
      | Some src -> src
      | None -> err "could not load module! (%s at %s)" uri location)

(* ------------------------------------------------------------------ *)
(* Figure-3 query generation                                           *)
(* ------------------------------------------------------------------ *)

let generate_query ~module_uri ~location ~method_ ~arity ~request_doc =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "import module namespace func = %S at %S;\n\
     import module namespace w = \"xrpc-wrapper\" at \"wrapper.xq\";\n\
     declare namespace env = \"http://www.w3.org/2003/05/soap-envelope\";\n\
     declare namespace xrpc = \"http://monetdb.cwi.nl/XQuery\";\n\
     <env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"\n\
    \  xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\"\n\
    \  xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"\n\
    \  xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">\n\
     <env:Body>\n\
     <xrpc:response xrpc:module=%S xrpc:method=%S>{\n\
    \  for $call in doc(%S)//xrpc:call\n"
    module_uri location module_uri method_ request_doc;
  for i = 1 to arity do
    Printf.bprintf buf "  let $param%d := w:n2s($call/xrpc:sequence[%d])\n" i i
  done;
  Printf.bprintf buf "  return w:s2n(func:%s(%s))\n" method_
    (String.concat ", "
       (List.init arity (fun i -> Printf.sprintf "$param%d" (i + 1))));
  Buffer.add_string buf "}</xrpc:response>\n</env:Body>\n</env:Envelope>";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* The request message, shredded as a document, is resolved per request
   under this one name. *)
let request_doc = "/tmp/request.xml"

(* [fn:doc] at the wrapper: the request message, a local document, or —
   data shipping, the one network interaction an XRPC-incapable engine
   can do (think Saxon resolving an http: URL) — a fetched one; each
   resolved once per request *)
let doc_resolver w ~request_store =
  let version = Database.snapshot w.db and docs = Hashtbl.create 4 in
  fun name ->
    if name = request_doc then request_store
    else
      match Hashtbl.find_opt docs name with
      | Some s -> s
      | None ->
          let s =
            if not (String.starts_with ~prefix:"xrpc://" name) then
              Database.doc_exn version name
            else
              match w.transport with
              | Some out -> Outbound.fetch_document out name
              | None -> err "fn:doc(%s): wrapper has no transport" name
          in
          Hashtbl.replace docs name s;
          s

(* Figure 3 over one bulk request: shred the message (treebuild), generate
   and compile the query (compile); the prepared request runs it
   (exec). *)
let run_figure3 w (r : Message.request) ~body ~pos ~len : Inbound.prepared =
  (* with no calls the body never runs: its parameter list stays empty,
     or a few bytes of arity could ask for a query of any size *)
  let arity = if r.Message.calls = [] then 0 else r.Message.arity in
  let module_uri = r.Message.module_uri and method_ = r.Message.method_ in
  let request_store =
    Trace.with_span "wrapper.treebuild" @@ fun () ->
    Store.shred ~uri:request_doc (Xml_parse.document_sub body ~pos ~len)
  in
  let ctx, body_expr =
    Trace.with_span "wrapper.compile" @@ fun () ->
    let prog =
      Xrpc_xquery.Parser.parse_prog
        (generate_query ~module_uri ~location:r.Message.location ~method_
           ~arity ~request_doc)
    in
    (* the wrapper peer cannot make outgoing XRPC calls (§4) *)
    let base =
      { (Xctx.empty ()) with
        Xctx.doc_resolver = doc_resolver w ~request_store; dispatcher = None }
    in
    ( Xrpc_xquery.Runner.load_prolog base ~resolver:(resolver w) prog,
      prog.Xast.body )
  in
  let f =
    match
      Xctx.find_function ctx (Qname.make ~uri:module_uri method_)
        r.Message.arity
    with
    | Some f -> f
    | None ->
        err "no function %s#%d in module %s" method_ r.Message.arity module_uri
  in
  {
    Inbound.updating = f.Xctx.decl.Xrpc_xquery.Ast.fn_updating;
    run =
      (fun () ->
        Trace.with_span "wrapper.exec" @@ fun () ->
        let joined =
          (* Saxon's optimizer view: try the equi-join plan over all
             calls of the bulk request *)
          if w.join_detect then Bulk_opt.join_execute ctx f r.Message.calls
          else None
        in
        match (joined, body_expr) with
        | Some results, _ ->
            Inbound.Reply (Inbound.response ~peers:[ w.uri ] r results)
        | None, Some b -> (
            match Xrpc_xquery.Eval.eval ctx b with
            | [ Xdm.Node n ] ->
                Inbound.Serialized
                  (Serialize.document_to_string
                     (Tree.Document [ Store.to_tree n ]))
            | _ -> err "generated query did not yield one envelope")
        | None, None -> err "generated query has no body");
  }

(* The wrapper's engine: a plain document fetch (data shipping) is the
   one request shape an XRPC-incapable engine's HTTP layer can serve
   without XQuery; every other request runs Figure 3. *)
let answer w msg ~body ~pos ~len =
  match msg with
  | Message.Request r when Inbound.is_get_document r ->
      Inbound.read (fun () ->
          Inbound.get_document ~self:w.uri (Database.snapshot w.db) r)
  | Message.Request r -> run_figure3 w r ~body ~pos ~len
  | _ -> err "expected a request"

(** Handle one raw SOAP XRPC request body, returning the response body. *)
let handle_raw w body = Inbound.serve w.inbound (answer w) body
