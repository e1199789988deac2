(* Tests for the SOAP XRPC protocol layer: s2n/n2s marshaling, message
   construction/parsing, the queryID isolation extension, Bulk RPC bodies,
   faults, and call-by-value guarantees (§2.1–§2.2 of the paper). *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal
module Message = Xrpc_soap.Message

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* a one-result response carrying [seq_xml] as its xrpc:sequence *)
let response_envelope seq_xml =
  {|<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope" xmlns:xrpc="http://monetdb.cwi.nl/XQuery"><env:Body><xrpc:response module="m" method="f">|}
  ^ seq_xml ^ {|</xrpc:response></env:Body></env:Envelope>|}

let one_result wire =
  match Message.of_string wire with
  | Message.Response { results = [ seq ]; _ } -> seq
  | _ -> Alcotest.fail "not a one-result response"

(* s2n then n2s: a sequence through a response on the wire *)
let roundtrip seq =
  one_result
    (Message.to_string
       (Message.Response
          { Message.resp_module = "m"; resp_method = "f"; results = [ seq ];
            peers = []; db_version = None }))

(* [s] with its first [sub] replaced by [by] *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* ------------------------------------------------------------------ *)
(* s2n / n2s                                                           *)
(* ------------------------------------------------------------------ *)

let test_atomic_roundtrip () =
  let seq =
    [
      Xdm.Atomic (Xs.Integer 2);
      Xdm.Atomic (Xs.Double 3.1);
      Xdm.Atomic (Xs.String "Sean Connery");
      Xdm.Atomic (Xs.Boolean true);
      Xdm.Atomic (Xs.Untyped "u");
    ]
  in
  let back = roundtrip seq in
  check int_ "length" 5 (List.length back);
  check bool_ "types preserved" true
    (List.for_all2
       (fun a b ->
         match (a, b) with
         | Xdm.Atomic x, Xdm.Atomic y ->
             Xs.type_of x = Xs.type_of y && Xs.equal_values x y
         | _ -> false)
       seq back)

let test_paper_example_n2s () =
  (* the n2s example of §2.2: ("abc", 42) *)
  let xml =
    {|<xrpc:sequence xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
       xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
<xrpc:atomic-value xsi:type="xs:string">abc</xrpc:atomic-value>
<xrpc:atomic-value xsi:type="xs:integer">42</xrpc:atomic-value>
</xrpc:sequence>|}
  in
  let seq = one_result (response_envelope xml) in
  check bool_ "abc,42" true
    (seq = [ Xdm.Atomic (Xs.String "abc"); Xdm.Atomic (Xs.Integer 42) ])

let test_element_roundtrip () =
  let store = Store.shred (Xml_parse.document "<name g=\"x\">The Rock</name>") in
  let node = List.hd (Store.children (Store.root store)) in
  match roundtrip [ Xdm.Node node ] with
  | [ Xdm.Node n ] ->
      check bool_ "same tree" true
        (Tree.equal (Store.to_tree node) (Store.to_tree n));
      check bool_ "fresh identity" false (Store.equal_nodes node n)
  | _ -> Alcotest.fail "shape"

let test_call_by_value_severs_upward_axes () =
  (* §2.2: upward/sideways axes on unmarshaled node parameters are empty *)
  let store =
    Store.shred (Xml_parse.document "<films><film><name>X</name></film><film/></films>")
  in
  let films = List.hd (Store.children (Store.root store)) in
  let film1 = List.hd (Store.children films) in
  match roundtrip [ Xdm.Node film1 ] with
  | [ Xdm.Node n ] ->
      check bool_ "parent empty" true (Store.parent n = None);
      check int_ "no following" 0 (List.length (Store.following n));
      check int_ "no siblings" 0 (List.length (Store.following_siblings n))
  | _ -> Alcotest.fail "shape"

let test_marshal_destroys_descendant_relationship () =
  (* §2.2: two parameters in a descendant relationship arrive unrelated *)
  let store = Store.shred (Xml_parse.document "<a><b><c/></b></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  match roundtrip [ Xdm.Node a; Xdm.Node b ] with
  | [ Xdm.Node a'; Xdm.Node b' ] ->
      check bool_ "different stores" true
        (a'.Store.store.Store.doc_id <> b'.Store.store.Store.doc_id);
      check bool_ "no ancestry" true
        (not (List.exists (fun x -> Store.equal_nodes x a') (Store.ancestors b')))
  | _ -> Alcotest.fail "shape"

let test_mixed_node_kinds () =
  let store =
    Store.shred ~uri:"d.xml"
      (Xml_parse.document "<a x=\"v\"><!--c--><?pi data?>text</a>")
  in
  let a = List.hd (Store.children (Store.root store)) in
  let doc = Store.root store in
  let attr = List.hd (Store.attributes a) in
  let kids = Store.children a in
  let seq = Xdm.Node doc :: Xdm.Node attr :: List.map (fun n -> Xdm.Node n) kids in
  let back = roundtrip seq in
  check int_ "all items back" (List.length seq) (List.length back);
  let kinds =
    List.map (function Xdm.Node n -> Store.kind n | _ -> Alcotest.fail "atomic") back
  in
  check bool_ "kinds preserved" true
    (kinds = [ Store.Doc; Store.Attr; Store.Comm; Store.Pi; Store.Txt ])

let test_empty_sequence () =
  check int_ "empty" 0 (List.length (roundtrip []))

let test_untyped_without_annotation () =
  let xml =
    {|<xrpc:sequence xmlns:xrpc="http://monetdb.cwi.nl/XQuery">
<xrpc:atomic-value>plain</xrpc:atomic-value></xrpc:sequence>|}
  in
  match one_result (response_envelope xml) with
  | [ Xdm.Atomic (Xs.Untyped "plain") ] -> ()
  | _ -> Alcotest.fail "expected untypedAtomic"

(* ---- footnote-4 extension: call-by-fragment ---- *)

(* a one-call request with [params]: its wire form and [params] decoded *)
let fragment_request ?(fragments = true) params =
  Message.to_string
    (Message.Request
       { Message.module_uri = "m"; location = ""; method_ = "f";
         arity = List.length params; updating = false; fragments;
         query_id = None; idem_key = None; calls = [ params ] })

let decoded_call wire =
  match Message.of_string wire with
  | Message.Request { calls = [ params ]; _ } -> params
  | _ -> Alcotest.fail "not a one-call request"

let fragment_roundtrip params =
  let wire = fragment_request params in
  (wire, decoded_call wire)

let test_fragments_preserve_ancestry () =
  (* two parameters in a descendant relationship: plain call-by-value
     destroys it (tested above); the nodeid extension preserves it *)
  let store = Store.shred (Xml_parse.document "<a><b><c/></b></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  match fragment_roundtrip [ [ Xdm.Node a ]; [ Xdm.Node b ] ] with
  | _, [ [ Xdm.Node a' ]; [ Xdm.Node b' ] ] ->
      check bool_ "same fragment" true
        (a'.Store.store.Store.doc_id = b'.Store.store.Store.doc_id);
      check bool_ "ancestry preserved" true
        (List.exists (fun x -> Store.equal_nodes x a') (Store.ancestors b'));
      check string_ "b still correct" "b"
        (match Store.name b' with Some q -> q.Qname.local | None -> "?")
  | _ -> Alcotest.fail "shape"

let test_fragments_compress_message () =
  let big =
    Store.shred
      (Xml_parse.document
         ("<root>" ^ String.concat ""
            (List.init 50 (fun i ->
                 Printf.sprintf "<x i=\"%d\">%s</x>" i (String.make 120 'p')))
          ^ "</root>"))
  in
  let root_el = List.hd (Store.children (Store.root big)) in
  let sub = List.nth (Store.children root_el) 10 in
  let params = [ [ Xdm.Node root_el ]; [ Xdm.Node sub ] ] in
  let plain = fragment_request ~fragments:false params in
  let compressed = fragment_request params in
  check bool_ "smaller on the wire" true
    (String.length compressed < String.length plain)

let test_fragments_plain_params_unchanged () =
  (* unrelated parameters marshal exactly as without the extension *)
  let s1 = Store.shred (Xml_parse.document "<p/>") in
  let params = [ [ Xdm.Atomic (Xs.Integer 1) ];
                 [ Xdm.Node (List.hd (Store.children (Store.root s1))) ] ] in
  match fragment_roundtrip params with
  | _, [ [ Xdm.Atomic (Xs.Integer 1) ]; [ Xdm.Node n ] ] ->
      check bool_ "element intact" true
        (match Store.name n with Some q -> q.Qname.local = "p" | None -> false)
  | _ -> Alcotest.fail "shape"

let test_fragments_wire_roundtrip () =
  let store = Store.shred (Xml_parse.document "<a><b>inner</b></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  let r =
    {
      Message.module_uri = "m"; location = ""; method_ = "f"; arity = 2;
      updating = false; fragments = true; query_id = None;
      idem_key = None;
      calls = [ [ [ Xdm.Node a ]; [ Xdm.Node b ] ] ];
    }
  in
  match Message.of_string (Message.to_string (Message.Request r)) with
  | Message.Request { fragments = true; calls = [ [ [ Xdm.Node a' ]; [ Xdm.Node b' ] ] ]; _ } ->
      check bool_ "ancestry over the wire" true
        (List.exists (fun x -> Store.equal_nodes x a') (Store.ancestors b'))
  | _ -> Alcotest.fail "wire shape"

(* A reference must name the base node or one of its descendants in the
   shipped fragment, by an xs:nonNegativeInteger: a negative or
   non-decimal nodeid, or one past the base's size, is a malformed
   message, never an uncaught exception or a node outside the
   fragment. *)
let test_fragments_nodeid_bounds () =
  let store = Store.shred (Xml_parse.document "<a><b><c/></b><d/></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  let c = List.hd (Store.children b) in
  let wire, _ = fragment_roundtrip [ [ Xdm.Node b ]; [ Xdm.Node c ] ] in
  let with_nodeid v = replace ~sub:{|nodeid="1"|} ~by:(Printf.sprintf {|nodeid="%s"|} v) wire in
  List.iter
    (fun v ->
      match Message.of_string (with_nodeid v) with
      | exception Message.Protocol_error _ -> ()
      | _ -> Alcotest.failf "nodeid=%s accepted" v)
    [ "-3"; "-1"; "2"; "99"; "0x1" ];
  match decoded_call (with_nodeid "0") with
  | [ [ Xdm.Node b' ]; [ Xdm.Node self ] ] ->
      check bool_ "nodeid 0 names the base" true (Store.equal_nodes b' self)
  | _ -> Alcotest.fail "shape"

(* Many references to one base resolve in time linear in their number:
   each checks that its base is not itself a reference in O(1).  A
   quadratic check took seconds here (CPU time, so a loaded host does
   not fail it). *)
let test_fragments_many_references () =
  let store = Store.shred (Xml_parse.document "<a><b/></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let n = 50_000 in
  let wire = fragment_request [ List.init (n + 1) (fun _ -> Xdm.Node a) ] in
  let t0 = Sys.time () in
  let params = decoded_call wire in
  let cpu = Sys.time () -. t0 in
  (match params with
  | [ (Xdm.Node a' :: refs) ] ->
      check int_ "references" n (List.length refs);
      check bool_ "each names the base" true
        (List.for_all
           (function Xdm.Node r -> Store.equal_nodes r a' | _ -> false)
           refs)
  | _ -> Alcotest.fail "shape");
  check bool_ (Printf.sprintf "decoded in %.2f s of CPU" cpu) true (cpu < 1.0)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let sample_request ?(query_id = None) ?(calls = 1) () =
  {
    Message.module_uri = "films";
    location = "http://x.example.org/film.xq";
    method_ = "filmsByActor";
    arity = 1;
    updating = false;
    fragments = false;
    query_id;
    idem_key = None;
    calls =
      List.init calls (fun i -> [ [ Xdm.str (Printf.sprintf "Actor %d" i) ] ]);
  }

let test_request_roundtrip () =
  let r = sample_request () in
  match Message.of_string (Message.to_string (Message.Request r)) with
  | Message.Request r' ->
      check string_ "module" r.Message.module_uri r'.Message.module_uri;
      check string_ "method" r.Message.method_ r'.Message.method_;
      check int_ "arity" r.Message.arity r'.Message.arity;
      check string_ "location" r.Message.location r'.Message.location;
      check int_ "calls" 1 (List.length r'.Message.calls)
  | _ -> Alcotest.fail "wrong message kind"

let test_bulk_request_roundtrip () =
  let r = sample_request ~calls:5 () in
  match Message.of_string (Message.to_string (Message.Request r)) with
  | Message.Request r' ->
      check int_ "bulk calls preserved" 5 (List.length r'.Message.calls);
      let params =
        List.map
          (fun call -> Xdm.string_value (List.hd (List.hd call)))
          r'.Message.calls
      in
      check bool_ "order" true
        (params = [ "Actor 0"; "Actor 1"; "Actor 2"; "Actor 3"; "Actor 4" ])
  | _ -> Alcotest.fail "wrong kind"

let test_query_id_roundtrip () =
  let qid = { Message.host = "xrpc://x"; timestamp = "123.456"; timeout = 42; level = Message.Repeatable } in
  let r = sample_request ~query_id:(Some qid) () in
  match Message.of_string (Message.to_string (Message.Request r)) with
  | Message.Request { query_id = Some q; _ } ->
      check string_ "host" "xrpc://x" q.Message.host;
      check string_ "timestamp" "123.456" q.Message.timestamp;
      check int_ "timeout" 42 q.Message.timeout
  | _ -> Alcotest.fail "queryID lost"

(* A queryID timeout or an arity that is not a plain non-negative
   integer is a malformed message, not a silent default (30 s, arity 0):
   both decoders raise [Protocol_error].  So is an xs:boolean flag
   (updCall, fragments, profile, ok) outside true/false/1/0 and a queryID
   level other than repeatable/snapshot. *)
let test_bad_integer_attributes () =
  let qid level =
    { Message.host = "xrpc://x"; timestamp = "1.0"; timeout = 42; level }
  in
  let wire =
    Message.to_string
      (Message.Request
         (sample_request ~query_id:(Some (qid Message.Repeatable)) ()))
  in
  (* a request with every optional flag on the wire *)
  let flagged =
    Message.to_string
      (Message.Request
         {
           (sample_request ~query_id:(Some (qid Message.Snapshot)) ()) with
           Message.updating = true;
           fragments = true;
         })
    |> replace ~sub:{|updCall="true"|} ~by:{|updCall="true" profile="true"|}
  in
  let tx_result =
    Message.to_string (Message.Tx_response { ok = true; info = "" })
  in
  (* [wire] with attribute [attr]'s value [v0] replaced by [v] *)
  let with_attr ?(wire = wire) attr v0 v =
    replace ~sub:(Printf.sprintf "%s=%S" attr v0)
      ~by:(Printf.sprintf "%s=\"%s\"" attr v)
      wire
  in
  (* [profile] is the serving side's business: only of_string_server
     reads it *)
  let rejected ?(server_only = false) what bad =
    (match Message.of_string bad with
    | exception Message.Protocol_error _ -> ()
    | _ when server_only -> ()
    | _ -> Alcotest.failf "of_string accepted %s" what);
    match Message.of_string_server bad with
    | exception Message.Protocol_error _ -> ()
    | _ -> Alcotest.failf "of_string_server accepted %s" what
  in
  List.iter
    (fun v -> rejected ("timeout=" ^ v) (with_attr "timeout" "42" v))
    [ ""; "ten"; "0"; "-5"; "0x10"; "1_0"; "4.2"; "9999999999"; "+" ];
  List.iter
    (fun v -> rejected ("arity=" ^ v) (with_attr "arity" "1" v))
    [ ""; "one"; "-1"; "0x1"; "1_0"; "1.0"; "1 1"; "++1" ];
  List.iter
    (fun (wire, attr, v0) ->
      List.iter
        (fun v ->
          rejected ~server_only:(attr = "profile") (attr ^ "=" ^ v)
            (with_attr ~wire attr v0 v))
        [ ""; "yes"; "TRUE"; "False"; "2"; "-1"; "t"; "1 0" ])
    [
      (flagged, "updCall", "true"); (flagged, "fragments", "true");
      (flagged, "profile", "true"); (tx_result, "ok", "true");
    ];
  List.iter
    (fun v -> rejected ("level=" ^ v) (with_attr ~wire:flagged "level" "snapshot" v))
    [ ""; "Snapshot"; "serializable"; "read-committed"; "1" ];
  (* the schema's other lexical forms of an integer still decode *)
  List.iter
    (fun v ->
      match Message.of_string (with_attr "arity" "1" v) with
      | Message.Request r -> check int_ ("arity=" ^ v) 1 r.Message.arity
      | _ -> Alcotest.fail "wrong kind")
    [ "01"; "+1"; " 1 " ];
  (* and so do xs:boolean's 1/0 forms, and the explicit defaults *)
  let request what wire =
    match Message.of_string_server wire with
    | Message.Request r, _, profile -> (r, profile)
    | _ -> Alcotest.failf "%s: wrong kind" what
  in
  List.iter
    (fun (v, expected) ->
      let r, profile =
        request v
          (flagged
          |> replace ~sub:{|updCall="true"|} ~by:(Printf.sprintf "updCall=%S" v)
          |> replace ~sub:{|fragments="true"|}
               ~by:(Printf.sprintf "fragments=%S" v)
          |> replace ~sub:{|profile="true"|} ~by:(Printf.sprintf "profile=%S" v))
      in
      check bool_ ("updCall=" ^ v) expected r.Message.updating;
      check bool_ ("fragments=" ^ v) expected r.Message.fragments;
      check bool_ ("profile=" ^ v) expected profile)
    [ ("1", true); ("0", false); (" true ", true); ("false", false) ];
  (match request "level=repeatable" (with_attr ~wire:flagged "level" "snapshot" " repeatable") with
  | { Message.query_id = Some q; _ }, _ ->
      check bool_ "level=repeatable" true (q.Message.level = Message.Repeatable)
  | _ -> Alcotest.fail "queryID lost");
  match Message.of_string (with_attr ~wire:tx_result "ok" "true" "0") with
  | Message.Tx_response { ok; _ } -> check bool_ "ok=0" false ok
  | _ -> Alcotest.fail "wrong kind"

(* XRPC.xsd declares host, timestamp and timeout of a queryID
   use="required": a queryID without one is a malformed message, where it
   used to default to "" or 30 s. *)
let test_query_id_required_attributes () =
  let qid =
    { Message.host = "xrpc://x"; timestamp = "1.0"; timeout = 42;
      level = Message.Repeatable }
  in
  let request = Message.Request (sample_request ~query_id:(Some qid) ()) in
  let tx = Message.Tx_request (Message.Commit, qid) in
  List.iter
    (fun msg ->
      let wire = Message.to_string msg in
      List.iter
        (fun attr ->
          let bad = replace ~sub:attr ~by:"" wire in
          (match Message.of_string bad with
          | exception Message.Protocol_error _ -> ()
          | _ -> Alcotest.failf "of_string accepted a queryID without%s" attr);
          match Message.of_string_server bad with
          | exception Message.Protocol_error _ -> ()
          | _ ->
              Alcotest.failf "of_string_server accepted a queryID without%s"
                attr)
        [ {| host="xrpc://x"|}; {| timestamp="1.0"|}; {| timeout="42"|} ];
      (* the whole queryID still decodes *)
      match Message.of_string wire with
      | Message.Request { query_id = Some q; _ } | Message.Tx_request (_, q) ->
          check int_ "timeout" 42 q.Message.timeout
      | _ -> Alcotest.fail "queryID lost")
    [ request; tx ]

(* A snapshot-level queryID pins the instant its timestamp names, so the
   timestamp must be a finite decimal number of seconds; a repeatable
   read only keys on it. *)
let test_snapshot_timestamp_decimal () =
  let qid level ts =
    { Message.host = "xrpc://x"; timestamp = ts; timeout = 42; level }
  in
  let decodes msg =
    let wire = Message.to_string msg in
    match (Message.of_string wire, Message.of_string_server wire) with
    | _ -> true
    | exception Message.Protocol_error _ -> false
  in
  let both q =
    [ Message.Request (sample_request ~query_id:(Some q) ());
      Message.Tx_request (Message.Prepare, q) ]
  in
  List.iter
    (fun ts ->
      List.iter
        (fun m ->
          check bool_ ("snapshot " ^ ts) true (decodes m);
          check (Alcotest.float 0.) ("time of " ^ ts) (float_of_string ts)
            (Message.snapshot_time (qid Message.Snapshot ts)))
        (both (qid Message.Snapshot ts)))
    [ "1"; "1.5"; "-2."; ".5"; "+3.25"; "1190541600.000000" ];
  List.iter
    (fun ts ->
      List.iter
        (fun m -> check bool_ ("snapshot " ^ ts) false (decodes m))
        (both (qid Message.Snapshot ts));
      List.iter
        (fun m -> check bool_ ("repeatable " ^ ts) true (decodes m))
        (both (qid Message.Repeatable ts)))
    [ "yesterday"; "2007-09-23T10:00:00Z"; "nan"; "inf"; "-infinity"; "1e9";
      "0x1F"; "1_0"; ""; "."; "+"; "1.2.3"; String.make 400 '9' ]

(* transactionResult/@ok is use="required" in XRPC.xsd: a result
   without it, or with an empty or non-boolean one, is a malformed
   message — which a peer answers with a Sender fault — not a refusal. *)
let test_tx_result_ok_required () =
  let wire = Message.to_string (Message.Tx_response { ok = true; info = "done" }) in
  let peer = Xrpc_peer.Peer.create "xrpc://tx.local" in
  List.iter
    (fun (what, by) ->
      let bad = replace ~sub:{| ok="true"|} ~by wire in
      (match Message.of_string bad with
      | exception Message.Protocol_error _ -> ()
      | _ -> Alcotest.failf "of_string accepted a transactionResult with %s" what);
      (match Message.of_string_server bad with
      | exception Message.Protocol_error _ -> ()
      | _ ->
          Alcotest.failf "of_string_server accepted a transactionResult with %s"
            what);
      match Message.of_string (Xrpc_peer.Peer.handle_raw peer bad) with
      | Message.Fault { fault_code = `Sender; reason } ->
          if not (String.starts_with ~prefix:"malformed message" reason) then
            Alcotest.failf "%s: unexpected fault %S" what reason
      | _ -> Alcotest.failf "%s: the peer did not answer a Sender fault" what)
    [ ("no ok", ""); ("an empty ok", {| ok=""|}); ("ok=\"yes\"", {| ok="yes"|}) ];
  match Message.of_string wire with
  | Message.Tx_response { ok; info } ->
      check bool_ "ok" true ok;
      check string_ "info" "done" info
  | _ -> Alcotest.fail "wrong kind"

(* Regression: a Code value shorter than its surrounding whitespace once
   made both reply decoders raise Invalid_argument (an untrimmed length
   check before a trimmed suffix).  It is a Receiver fault. *)
let test_fault_code_padded () =
  List.iter
    (fun (what, decode) ->
      match decode Seeds.padded_fault_code with
      | Message.Fault { fault_code = `Receiver; reason = "" } -> ()
      | Message.Fault _ -> Alcotest.failf "%s: wrong fault" what
      | _ -> Alcotest.failf "%s: not a fault" what)
    [ ("of_string", Message.of_string);
      ("of_reply", Message.of_reply ~dest:"xrpc://p") ];
  let code v =
    match
      Message.of_string
        (replace ~sub:"  ab  " ~by:v Seeds.padded_fault_code)
    with
    | Message.Fault f -> f.Message.fault_code
    | _ -> Alcotest.fail "not a fault"
  in
  check bool_ "env:Sender" true (code "env:Sender" = `Sender);
  check bool_ "padded env:Sender" true (code " env:Sender\n" = `Sender);
  check bool_ "env:Receiver" true (code "env:Receiver" = `Receiver);
  check bool_ "unknown" true (code "env:Other" = `Receiver)

(* An atomic value's text broken into many pieces by comments is joined
   once: decoding allocates a small multiple of the message, where
   appending piece by piece copied the text once per piece. *)
let test_text_pieces_linear () =
  let n = 100_000 in
  let wire =
    response_envelope
      ("<xrpc:sequence><xrpc:atomic-value>"
      ^ String.concat "" (List.init n (fun _ -> "a<!---->"))
      ^ "</xrpc:atomic-value></xrpc:sequence>")
  in
  let b0 = Gc.allocated_bytes () in
  let seq = one_result wire in
  let allocated = Gc.allocated_bytes () -. b0 in
  (match seq with
  | [ Xdm.Atomic (Xs.Untyped v) ] -> check int_ "all pieces" n (String.length v)
  | _ -> Alcotest.fail "not one untyped value");
  let ratio = allocated /. float_of_int (String.length wire) in
  check bool_ (Printf.sprintf "allocates %.1fx the message" ratio) true
    (ratio < 64.)

(* [of_string] and [of_reply] both reject [wire] as malformed *)
let rejected what wire =
  List.iter
    (fun (decoder, decode) ->
      match decode wire with
      | exception Message.Protocol_error _ -> ()
      | _ -> Alcotest.failf "%s accepted %s" decoder what)
    [ ("of_string", Message.of_string);
      ("of_reply", Message.of_reply ~dest:"xrpc://p") ]

let sample_response =
  Message.to_string
    (Message.Response
       { Message.resp_module = "m"; resp_method = "f"; results = [ [] ];
         peers = [ "xrpc://p1" ]; db_version = Some 31 })

(* XRPC.xsd types dbVersion as xs:nonNegativeInteger *)
let test_db_version_decimal () =
  List.iter
    (fun v ->
      rejected ("dbVersion=" ^ v)
        (replace ~sub:{|dbVersion="31"|} ~by:(Printf.sprintf {|dbVersion="%s"|} v)
           sample_response))
    [ "0x1F"; "-3"; "1_0"; "" ];
  match
    Message.of_string
      (replace ~sub:{|dbVersion="31"|} ~by:{|dbVersion=" +31 "|} sample_response)
  with
  | Message.Response r ->
      check (Alcotest.option int_) "whitespace and + allowed" (Some 31)
        r.Message.db_version
  | _ -> Alcotest.fail "not a response"

(* XRPC.xsd: a participating peer's uri is use="required"; dropping the
   element would lose a 2PC participant *)
let test_peer_uri_required () =
  rejected "an xrpc:peer without uri"
    (replace ~sub:{|<xrpc:peer uri="xrpc://p1"/>|} ~by:{|<xrpc:peer/>|}
       sample_response);
  match Message.of_string sample_response with
  | Message.Response r ->
      check (Alcotest.list string_) "peers" [ "xrpc://p1" ] r.Message.peers
  | _ -> Alcotest.fail "not a response"

(* xrpc:nodeid, xrpc:param and xrpc:item are xs:nonNegativeIntegers *)
let test_nodeid_attributes_decimal () =
  let store = Store.shred (Xml_parse.document "<a><b><c/></b></a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  let wire, _ = fragment_roundtrip [ [ Xdm.Node a ]; [ Xdm.Node b ] ] in
  List.iter
    (fun (attr, v0) ->
      let sub = Printf.sprintf {|xrpc:%s="%s"|} attr v0 in
      rejected
        (Printf.sprintf "xrpc:%s=\"0x%s\"" attr v0)
        (replace ~sub ~by:(Printf.sprintf {|xrpc:%s="0x%s"|} attr v0) wire))
    [ ("nodeid", "1"); ("param", "0"); ("item", "0") ];
  match decoded_call wire with
  | [ [ Xdm.Node a' ]; [ Xdm.Node b' ] ] ->
      check bool_ "decimal references resolve" true
        (List.exists (fun x -> Store.equal_nodes x a') (Store.ancestors b'))
  | _ -> Alcotest.fail "shape"

let test_updating_flag_roundtrip () =
  let r = { (sample_request ()) with Message.updating = true } in
  match Message.of_string (Message.to_string (Message.Request r)) with
  | Message.Request r' -> check bool_ "updating" true r'.Message.updating
  | _ -> Alcotest.fail "wrong kind"

let test_response_roundtrip_with_peers () =
  let store = Store.shred (Xml_parse.document "<name>The Rock</name>") in
  let resp =
    {
      Message.resp_module = "films";
      resp_method = "filmsByActor";
      results =
        [ [ Xdm.Node (List.hd (Store.children (Store.root store))) ];
          [ Xdm.int 7 ] ];
      db_version = None;
      peers = [ "xrpc://y.example.org"; "xrpc://z.example.org" ];
    }
  in
  match Message.of_string (Message.to_string (Message.Response resp)) with
  | Message.Response r ->
      check int_ "two results" 2 (List.length r.Message.results);
      check bool_ "peers piggybacked" true
        (r.Message.peers = [ "xrpc://y.example.org"; "xrpc://z.example.org" ])
  | _ -> Alcotest.fail "wrong kind"

let test_fault_roundtrip () =
  let f = { Message.fault_code = `Sender; reason = "could not load module!" } in
  match Message.of_string (Message.to_string (Message.Fault f)) with
  | Message.Fault f' ->
      check bool_ "code" true (f'.Message.fault_code = `Sender);
      check string_ "reason" "could not load module!" f'.Message.reason
  | _ -> Alcotest.fail "wrong kind"

let test_tx_roundtrip () =
  let qid = { Message.host = "h"; timestamp = "1"; timeout = 5; level = Message.Snapshot } in
  (match
     Message.of_string
       (Message.to_string (Message.Tx_request (Message.Prepare, qid)))
   with
  | Message.Tx_request (Message.Prepare, q) ->
      check string_ "qid host" "h" q.Message.host
  | _ -> Alcotest.fail "prepare");
  match
    Message.of_string
      (Message.to_string (Message.Tx_response { ok = true; info = "prepared" }))
  with
  | Message.Tx_response { ok = true; info = "prepared" } -> ()
  | _ -> Alcotest.fail "tx response"

let test_wire_format_matches_paper () =
  (* the §2.1 example message, byte-level landmarks *)
  let s = Message.to_string (Message.Request (sample_request ())) in
  let contains sub =
    check bool_ ("contains " ^ sub) true
      (let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0)
  in
  contains "<?xml version=\"1.0\" encoding=\"utf-8\"?>";
  contains "xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"";
  contains "xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\"";
  contains "<xrpc:request module=\"films\" method=\"filmsByActor\" arity=\"1\"";
  contains "<xrpc:call>";
  contains "<xrpc:atomic-value xsi:type=\"xs:string\">Actor 0</xrpc:atomic-value>"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_atomic =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Xs.Integer i) (int_range (-1000) 1000);
        map (fun s -> Xs.String s) (oneofl [ "a"; "hello world"; "<&>"; "x\"y" ]);
        map (fun b -> Xs.Boolean b) bool;
        map (fun f -> Xs.Double (Float.of_int f /. 8.)) (int_range (-800) 800);
        map (fun s -> Xs.Untyped s) (oneofl [ "u1"; "two words"; "z" ]);
      ])

let arbitrary_seq =
  QCheck.make
    ~print:(fun seq -> Xdm.to_display seq)
    QCheck.Gen.(list_size (int_range 0 8) (map (fun a -> Xdm.Atomic a) gen_atomic))

let prop_marshal_roundtrip =
  QCheck.Test.make ~name:"s2n/n2s identity on atomics" ~count:300 arbitrary_seq
    (fun seq ->
      let back = roundtrip seq in
      List.length back = List.length seq
      && List.for_all2
           (fun a b ->
             match (a, b) with
             | Xdm.Atomic x, Xdm.Atomic y ->
                 Xs.type_of x = Xs.type_of y && Xs.to_string x = Xs.to_string y
             | _ -> false)
           seq back)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"request wire roundtrip" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 0 4) gen_atomic)))
    (fun (ncalls, params) ->
      let r =
        {
          Message.module_uri = "m";
          location = "loc";
          method_ = "f";
          arity = 1;
          updating = false;
          fragments = false;
          query_id = None;
          idem_key = None;
          calls =
            List.init ncalls (fun _ -> [ List.map (fun a -> Xdm.Atomic a) params ]);
        }
      in
      match Message.of_string (Message.to_string (Message.Request r)) with
      | Message.Request r' ->
          List.length r'.Message.calls = ncalls
          && List.for_all
               (fun call ->
                 match call with
                 | [ seq ] ->
                     List.map Xdm.string_value seq
                     = List.map (fun a -> Xs.to_string a) params
                 | _ -> false)
               r'.Message.calls
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Reply decoder fuzzing                                               *)
(* ------------------------------------------------------------------ *)

module Trace = Xrpc_obs.Trace
module Peer = Xrpc_peer.Peer
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod

(* Message.of_reply on a mutated reply decodes or raises one of the two
   typed decoder errors; every other case also runs inside a Trace
   collection, where of_reply parses the serverProfile phases too *)
let prop_reply_mutations =
  Fuzz.prop ~name:"mutated reply decodes or raises a typed error"
    ~seeds:Seeds.reply_seeds
    ~expected:(function
      | Message.Protocol_error _ | Xml_parse.Parse_error _ -> true
      | _ -> false)
    (fun w ->
      ignore (Message.of_reply ~dest:"xrpc://y" w);
      if String.length w land 1 = 0 then
        ignore (Trace.collect (fun () -> Message.of_reply ~dest:"xrpc://y" w)))

(* A client or peer built before the result cache was removed may still
   send cache="off" on a request or cached="true" on a Response.  XRPC.xsd
   declares neither attribute, and the decoder ignores an attribute the
   schema does not declare, so both still decode and serve. *)
let test_legacy_cache_off_request () =
  let y = Peer.create "xrpc://y" in
  Filmdb.install y ();
  let wire =
    Message.to_string
      (Message.Request
         { (sample_request ()) with calls = [ [ [ Xdm.str "Sean Connery" ] ] ] })
    |> replace ~sub:{|method="filmsByActor"|}
         ~by:{|method="filmsByActor" cache="off"|}
  in
  (match Message.of_string_server wire with
  | Message.Request r, _, _ ->
      check int_ "one call" 1 (List.length r.Message.calls)
  | _ -> Alcotest.fail "not a request");
  match Message.of_string (Peer.handle_raw y wire) with
  | Message.Response { results = [ films ]; _ } ->
      check string_ "executed" "<name>The Rock</name> <name>Goldfinger</name>"
        (Xdm.to_display films)
  | _ -> Alcotest.fail "expected a response"

let test_legacy_cached_response () =
  let wire =
    Message.to_string
      (Message.Response
         { Message.resp_module = "m"; resp_method = "f";
           results = [ [ Xdm.int 1; Xdm.str "a" ]; [] ];
           peers = [ "xrpc://p" ]; db_version = Some 3 })
    |> replace ~sub:{|method="f"|} ~by:{|method="f" cached="true"|}
  in
  List.iter
    (fun (what, decode) ->
      match decode wire with
      | Message.Response r ->
          check (Alcotest.list string_) (what ^ ": results") [ "1 a"; "" ]
            (List.map Xdm.to_display r.Message.results);
          check (Alcotest.option int_) (what ^ ": dbVersion") (Some 3)
            r.Message.db_version
      | _ -> Alcotest.failf "%s: not a response" what)
    [ ("of_string", Message.of_string);
      ("of_reply", Message.of_reply ~dest:"xrpc://p") ]

let test_reply_seeds () =
  let kind w =
    match Message.of_string w with
    | Message.Response { results = []; _ } -> "empty"
    | Message.Response _ -> "response"
    | Message.Fault _ -> "fault"
    | Message.Tx_response _ -> "tx"
    | _ -> "other"
  in
  check (Alcotest.list string_) "every seed is the reply it stands for"
    [ "response"; "response"; "response"; "empty"; "fault"; "tx"; "tx";
      "fault" ]
    (Array.to_list (Array.map kind Seeds.reply_seeds));
  check bool_ "the profiled seed carries serverProfile" true
    (let w = Seeds.reply_seeds.(0) and sub = "serverProfile=" in
     let n = String.length sub in
     let rec go i =
       i + n <= String.length w && (String.sub w i n = sub || go (i + 1))
     in
     go 0)

let qcheck_quick t =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 23 |]) t

let () =
  Alcotest.run "soap"
    [
      ( "marshal",
        [
          Alcotest.test_case "atomic roundtrip" `Quick test_atomic_roundtrip;
          Alcotest.test_case "paper n2s example" `Quick test_paper_example_n2s;
          Alcotest.test_case "element roundtrip" `Quick test_element_roundtrip;
          Alcotest.test_case "call-by-value severs axes" `Quick
            test_call_by_value_severs_upward_axes;
          Alcotest.test_case "descendant relation destroyed" `Quick
            test_marshal_destroys_descendant_relationship;
          Alcotest.test_case "mixed node kinds" `Quick test_mixed_node_kinds;
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence;
          Alcotest.test_case "untyped default" `Quick test_untyped_without_annotation;
          Alcotest.test_case "text pieces joined in linear time" `Quick
            test_text_pieces_linear;
        ] );
      ( "call-by-fragment",
        [
          Alcotest.test_case "ancestry preserved" `Quick
            test_fragments_preserve_ancestry;
          Alcotest.test_case "message compression" `Quick
            test_fragments_compress_message;
          Alcotest.test_case "plain params unchanged" `Quick
            test_fragments_plain_params_unchanged;
          Alcotest.test_case "wire roundtrip" `Quick test_fragments_wire_roundtrip;
          Alcotest.test_case "nodeid out of the fragment rejected" `Quick
            test_fragments_nodeid_bounds;
          Alcotest.test_case "many references decode in linear time" `Quick
            test_fragments_many_references;
        ] );
      ( "message",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "bulk request" `Quick test_bulk_request_roundtrip;
          Alcotest.test_case "queryID" `Quick test_query_id_roundtrip;
          Alcotest.test_case "updating flag" `Quick test_updating_flag_roundtrip;
          Alcotest.test_case "response + peers" `Quick
            test_response_roundtrip_with_peers;
          Alcotest.test_case "fault" `Quick test_fault_roundtrip;
          Alcotest.test_case "transaction" `Quick test_tx_roundtrip;
          Alcotest.test_case "wire format" `Quick test_wire_format_matches_paper;
          Alcotest.test_case "non-integer timeout and arity rejected" `Quick
            test_bad_integer_attributes;
          Alcotest.test_case "queryID without a required attribute rejected"
            `Quick test_query_id_required_attributes;
          Alcotest.test_case "transactionResult without ok rejected" `Quick
            test_tx_result_ok_required;
          Alcotest.test_case "snapshot timestamp must be a decimal" `Quick
            test_snapshot_timestamp_decimal;
          Alcotest.test_case "fault Code shorter than its padding" `Quick
            test_fault_code_padded;
          Alcotest.test_case "dbVersion must be a decimal" `Quick
            test_db_version_decimal;
          Alcotest.test_case "participating peer without uri rejected" `Quick
            test_peer_uri_required;
          Alcotest.test_case "nodeid, param and item must be decimals" `Quick
            test_nodeid_attributes_decimal;
          Alcotest.test_case "request with a legacy cache=\"off\" executes"
            `Quick test_legacy_cache_off_request;
          Alcotest.test_case "response with a legacy cached=\"true\" decodes"
            `Quick test_legacy_cached_response;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_marshal_roundtrip; prop_wire_roundtrip ] );
      ( "fuzz",
        [
          Alcotest.test_case "reply seeds are peer replies" `Quick
            test_reply_seeds;
          qcheck_quick prop_reply_mutations;
        ] );
    ]
