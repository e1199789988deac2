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

    Timing of each request is broken down into compile / treebuild / exec,
    matching Table 3's columns.  With [join_detect] the wrapper mimics
    Saxon's optimizer: a bulk request whose target function is a selection
    [doc(..)//elem[key = $param]] is answered with one hash join over all
    calls instead of [n] scans (§4, "Saxon Experiments"). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context

exception Wrapper_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Wrapper_error s)) fmt

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

type timings = {
  mutable compile_ms : float;
  mutable treebuild_ms : float;
  mutable exec_ms : float;
}

type t = {
  uri : string;
  db : Database.t;
  modules : (string, string) Hashtbl.t;
  locations : (string, string) Hashtbl.t;
  mutable join_detect : bool;
  mutable transport : Outbound.t option;
      (** for [fn:doc("xrpc://...")] data shipping only — the wrapper still
          cannot make outgoing XRPC {e calls} (§4) *)
  last : timings;  (** per-request breakdown, Table-3 style *)
  total : timings;
  mutable request_counter : int;
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
      last = { compile_ms = 0.; treebuild_ms = 0.; exec_ms = 0. };
      total = { compile_ms = 0.; treebuild_ms = 0.; exec_ms = 0. };
      request_counter = 0;
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

let now_ms () = Unix.gettimeofday () *. 1000.

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

let find_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

(** Handle one raw SOAP XRPC request body, returning the response body. *)
let handle_raw (w : t) (body : string) : string =
  try
    (* treebuild: parse + shred the request document *)
    let t0 = now_ms () in
    let tree = Xml_parse.document body in
    let request_store = Store.shred ~uri:"/tmp/request.xml" tree in
    let t1 = now_ms () in
    (* locate the xrpc:request element to read module/method/arity *)
    let rec find_request t =
      match t with
      | Tree.Element { name; attrs; children } ->
          if name.Qname.local = "request" && name.Qname.uri = Qname.ns_xrpc then
            Some attrs
          else List.find_map find_request children
      | Tree.Document cs -> List.find_map find_request cs
      | _ -> None
    in
    let attrs =
      match find_request tree with
      | Some a -> a
      | None -> err "no xrpc:request in message"
    in
    let get what =
      match find_attr attrs what with
      | Some v -> v
      | None -> err "request missing %s" what
    in
    let module_uri = get "module" and method_ = get "method" in
    let arity = int_of_string (get "arity") in
    let location = Option.value ~default:"" (find_attr attrs "location") in
    if module_uri = Qname.ns_xrpc && method_ = "getDocument" then
      (* plain document fetch (data shipping) — the one request shape an
         XRPC-incapable engine's HTTP layer can serve without XQuery *)
      let version = Database.snapshot w.db in
      let results =
        match Message.of_string body with
        | Message.Request r ->
            List.map
              (fun params ->
                match params with
                | [ path_seq ] ->
                    let path =
                      Xdm.string_value (Xdm.one_item ~what:"path" path_seq)
                    in
                    [ Xdm.Node (Store.root (Database.doc_exn version path)) ]
                | _ -> err "getDocument expects one parameter")
              r.Message.calls
        | _ -> err "malformed getDocument request"
      in
      Message.to_string
        (Message.Response
           {
             resp_module = module_uri;
             resp_method = method_;
             results;
             cached = false;
             db_version = None;
             peers = [ w.uri ];
           })
    else begin
    w.request_counter <- w.request_counter + 1;
    let request_doc = Printf.sprintf "/tmp/request%d.xml" w.request_counter in
    (* compile: generate + parse the query and the modules it imports *)
    let query =
      generate_query ~module_uri ~location ~method_ ~arity ~request_doc
    in
    let prog = Xrpc_xquery.Parser.parse_prog query in
    let base = Xctx.empty () in
    let version = Database.snapshot w.db in
    let doc_cache = Hashtbl.create 4 in
    let fetch_remote uri_str =
      (* data shipping into the wrapper: plain document fetch, the one
         network interaction an XRPC-incapable engine can do (think Saxon
         resolving an http: URL in fn:doc) *)
      match w.transport with
      | Some out -> Outbound.fetch_document out uri_str
      | None -> err "fn:doc(%s): wrapper has no transport" uri_str
    in
    let base =
      {
        base with
        Xctx.doc_resolver =
          (fun name ->
            if name = request_doc then request_store
            else
              match Hashtbl.find_opt doc_cache name with
              | Some s -> s
              | None ->
                  let s =
                    if String.length name >= 7 && String.sub name 0 7 = "xrpc://"
                    then fetch_remote name
                    else Database.doc_exn version name
                  in
                  Hashtbl.replace doc_cache name s;
                  s);
        (* the wrapper peer cannot make outgoing XRPC calls (§4) *)
        dispatcher = None;
      }
    in
    let ctx = Xrpc_xquery.Runner.load_prolog base ~resolver:(resolver w) prog in
    let t2 = now_ms () in
    (* exec *)
    let response_body =
      let joined =
        if not w.join_detect then None
        else
          (* Saxon's optimizer view: fetch the target function and try the
             equi-join plan over all calls of the bulk request *)
          let fname = Qname.make ~uri:module_uri method_ in
          match Xctx.find_function ctx fname arity with
          | None -> None
          | Some f -> (
              match Message.of_string body with
              | Message.Request r -> (
                  match Bulk_opt.hash_join_execute ctx f r.Message.calls with
                  | Some results ->
                      Some
                        (Message.to_string
                           (Message.Response
                              {
                                resp_module = module_uri;
                                resp_method = method_;
                                results;
                                cached = false;
                                db_version = None;
                                peers = [ w.uri ];
                              }))
                  | None -> None)
              | _ -> None)
      in
      match joined with
      | Some s -> s
      | None -> (
          match prog.Xast.body with
          | None -> assert false
          | Some b ->
              let result = Xrpc_xquery.Eval.eval ctx b in
              let envelope =
                match result with
                | [ Xdm.Node n ] -> Store.to_tree n
                | _ -> err "generated query did not yield one envelope"
              in
              Serialize.document_to_string (Tree.Document [ envelope ]))
    in
    let t3 = now_ms () in
    w.last.treebuild_ms <- t1 -. t0;
    w.last.compile_ms <- t2 -. t1;
    w.last.exec_ms <- t3 -. t2;
    w.total.treebuild_ms <- w.total.treebuild_ms +. (t1 -. t0);
    w.total.compile_ms <- w.total.compile_ms +. (t2 -. t1);
    w.total.exec_ms <- w.total.exec_ms +. (t3 -. t2);
    response_body
    end
  with
  | Wrapper_error m
  | Xdm.Dynamic_error m
  | Xrpc_xquery.Eval.Error m
  | Xrpc_xquery.Runner.Module_error m ->
      Message.to_string (Message.Fault { fault_code = `Sender; reason = m })
  | Xml_parse.Parse_error m ->
      Message.to_string
        (Message.Fault { fault_code = `Sender; reason = "malformed message: " ^ m })

let reset_timings w =
  w.total.compile_ms <- 0.;
  w.total.treebuild_ms <- 0.;
  w.total.exec_ms <- 0.
