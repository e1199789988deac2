(* Differential and allocation tests for the XML codec.

   Xml_parse_ref and Serialize_ref are the parser and serializer as they
   stood before the allocation-free rewrite, kept here as oracles (the
   way Ops_reference serves the algebra).  The battery checks that the
   rewrite is invisible: byte-identical serializer output on seeded
   random trees, equal parse trees on those outputs, on hand-built XML
   text (entities, CDATA, comments, PIs, namespace rebinding), on the
   XMark documents and on every SOAP message kind.  A deterministic
   Gc.minor_words guard (no timers) pins the point of the rewrite: on
   the 1000-call Table 2 request and reply, the new parser and the new
   serializer each allocate at most 0.6x what the oracle does.

   Replay a failing seed with CODEC_SEED=<n>. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Marshal = Xrpc_soap.Marshal
module Peer = Xrpc_peer.Peer
module Xmark = Xrpc_workloads.Xmark
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let string_ = Alcotest.string

let base_seed =
  match Sys.getenv_opt "CODEC_SEED" with
  | Some s -> int_of_string s
  | None -> 20070923

let trees_per_run = 400

(* ------------------------------------------------------------------ *)
(* Seeded random trees                                                 *)
(* ------------------------------------------------------------------ *)

let pick rs a = a.(Random.State.int rs (Array.length a))

(* prefix/URI pairs: the same prefix bound to several URIs (rebinding),
   the default namespace set and unset, a prefix with no URI *)
let element_names =
  [| ("", ""); ("", "urn:a"); ("", "urn:b"); ("p", "urn:a"); ("p", "urn:b");
     ("q", "urn:c"); ("q", "urn:a"); ("xrpc", Qname.ns_xrpc) |]

let attr_names =
  [| ("", ""); ("", ""); ("p", "urn:a"); ("p", "urn:b"); ("q", "urn:c");
     ("xml", Qname.ns_xml); ("xsi", Qname.ns_xsi) |]

let locals = [| "a"; "b"; "item"; "x-y"; "n.1"; "_u"; "\xc3\xa9t\xc3\xa9" |]

let text_chars =
  [| "a"; "Z"; "0"; " "; " "; "\n"; "\t"; "<"; ">"; "&"; "\""; "'"; "]]>";
     "\xc3\xa9"; "&amp;"; "x" |]

let gen_string rs chars max =
  String.concat "" (List.init (Random.State.int rs (max + 1)) (fun _ -> pick rs chars))

let gen_qname rs table =
  let prefix, uri = pick rs table in
  Qname.make ~prefix ~uri (pick rs locals)

(* [explicit]: also emit xmlns attributes of the caller's choosing, which
   the serializer must merge with the declarations it adds itself *)
let gen_attrs rs ~explicit =
  let n = Random.State.int rs 4 in
  let attrs =
    List.init n (fun _ ->
        Tree.attr (gen_qname rs attr_names) (gen_string rs text_chars 6))
  in
  (* unique expanded names, as a parser would have produced them *)
  let attrs =
    List.fold_left
      (fun acc (a : Tree.attr) ->
        if List.exists (fun (b : Tree.attr) -> Qname.equal a.name b.name) acc
        then acc
        else acc @ [ a ])
      [] attrs
  in
  if explicit && Random.State.int rs 4 = 0 then
    let prefix, uri = pick rs element_names in
    let decl =
      if prefix = "" then Tree.attr (Qname.make "xmlns") uri
      else Tree.attr (Qname.make ~prefix:"xmlns" prefix) uri
    in
    decl :: attrs
  else attrs

let rec gen_node rs ~explicit depth =
  match Random.State.int rs (if depth = 0 then 4 else 9) with
  | 0 | 1 -> Tree.Text (gen_string rs text_chars 8)
  | 2 -> Tree.Comment (gen_string rs [| "c"; " "; "-"; "x" |] 6 ^ "c")
  | 3 ->
      Tree.Pi
        { target = pick rs [| "pi"; "xml-stylesheet"; "t" |];
          data = gen_string rs [| "d"; " "; "=" |] 5 }
  | _ -> gen_element rs ~explicit (depth - 1)

and gen_element rs ~explicit depth =
  Tree.Element
    {
      name = gen_qname rs element_names;
      attrs = gen_attrs rs ~explicit;
      children =
        List.init (Random.State.int rs 5) (fun _ -> gen_node rs ~explicit depth);
    }

let gen_document rs ~explicit =
  Tree.Document [ gen_element rs ~explicit (1 + Random.State.int rs 4) ]

(* ------------------------------------------------------------------ *)
(* The two codecs side by side                                         *)
(* ------------------------------------------------------------------ *)

let serializations t =
  [
    ("to_string", Serialize.to_string t, Serialize_ref.to_string t);
    ("indent", Serialize.to_string ~indent:true t,
     Serialize_ref.to_string ~indent:true t);
    ("document", Serialize.document_to_string t,
     Serialize_ref.document_to_string t);
  ]

let same_bytes ~what t =
  List.iter
    (fun (mode, got, want) ->
      if got <> want then
        Alcotest.failf "%s (%s): serializers differ\n new: %S\n ref: %S" what
          mode got want)
    (serializations t)

let rec has_dup_attrs = function
  | Tree.Document cs -> List.exists has_dup_attrs cs
  | Tree.Element { attrs; children; _ } ->
      let rec dup = function
        | [] -> false
        | (a : Tree.attr) :: rest ->
            List.exists (fun (b : Tree.attr) -> Qname.equal a.name b.name) rest
            || dup rest
      in
      dup attrs || List.exists has_dup_attrs children
  | _ -> false

(* Both parsers on [s]: equal trees, or both reject.  The rewrite also
   rejects what the oracle let through against XML 1.0 (a duplicate
   expanded attribute name, content after the root); [tolerate_dups]
   admits the first where a random tree can serialize into it. *)
let same_parse ?(tolerate_dups = false) ?(preserve_space = false) ~what s =
  match
    ( Xml_parse.document ~preserve_space s,
      Xml_parse_ref.document ~preserve_space s )
  with
  | got, want ->
      if not (Tree.equal got want && got = want) then
        Alcotest.failf "%s: parsers disagree on %S" what s
  | exception Xml_parse.Parse_error e -> (
      match Xml_parse_ref.document ~preserve_space s with
      | exception Xml_parse_ref.Parse_error _ -> ()
      | want ->
          if not (tolerate_dups && has_dup_attrs want) then
            Alcotest.failf "%s: only the new parser rejects %S (%s)" what s e)
  | exception Xml_parse_ref.Parse_error e ->
      Alcotest.failf "%s: only the oracle rejects %S (%s)" what s e

let test_random_trees_serialize () =
  let rs = Random.State.make [| base_seed |] in
  for i = 1 to trees_per_run do
    let t = gen_document rs ~explicit:true in
    same_bytes ~what:(Printf.sprintf "tree %d (CODEC_SEED=%d)" i base_seed) t
  done

(* Trees without explicit xmlns attributes: one that contradicts the
   binding its own element needs is serialized (by both serializers) as
   two declarations of one prefix, which the rewrite rightly rejects.
   The hand-built XML text below covers explicit declarations. *)
let test_random_trees_parse () =
  let rs = Random.State.make [| base_seed + 1 |] in
  for i = 1 to trees_per_run do
    let t = gen_document rs ~explicit:false in
    let what = Printf.sprintf "tree %d (CODEC_SEED=%d)" i base_seed in
    List.iter
      (fun (_, s, _) ->
        same_parse ~tolerate_dups:true ~what s;
        same_parse ~tolerate_dups:true ~preserve_space:true ~what s)
      (serializations t)
  done

(* XML text no serializer writes: CDATA, character and entity
   references, whitespace runs, comments and PIs between elements,
   redeclared and undeclared default namespaces *)
let gen_text_document rs =
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let text () =
    add
      (gen_string rs
         [| "t"; " "; "\n"; "&lt;"; "&gt;"; "&amp;"; "&apos;"; "&quot;";
            "&#65;"; "&#x3b1;"; "&#x1F600;"; "<![CDATA[<x>&amp;]]>";
            "<![CDATA[]]>"; "<![CDATA[ ]]>"; "\xc3\xa9"; "]]" |]
         5)
  in
  let misc () =
    match Random.State.int rs 6 with
    | 0 -> add "<!-- note - x -->"
    | 1 -> add "<?pi some data?>"
    | 2 -> add "  \n "
    | _ -> ()
  in
  let rec element depth =
    let prefix = pick rs [| ""; ""; "p"; "q" |] in
    let name = (if prefix = "" then "" else prefix ^ ":") ^ pick rs locals in
    add "<";
    add name;
    (* declare what the name needs, sometimes more, sometimes undeclare *)
    (match prefix with
    | "" -> (
        match Random.State.int rs 4 with
        | 0 -> add " xmlns='urn:d'"
        | 1 -> add " xmlns=\"\""
        | _ -> ())
    | p -> add (Printf.sprintf " xmlns:%s=\"urn:%s%d\"" p p (Random.State.int rs 2)));
    if Random.State.bool rs then add " a='1&amp;2&#x9;&#10;'";
    if Random.State.bool rs then add " xml:lang=\"en\"";
    if Random.State.bool rs then add (Printf.sprintf " b = \"%s\"" (String.make 3 'v'));
    if depth = 0 || Random.State.int rs 4 = 0 then add " />"
    else (
      add (pick rs [| ">"; " >"; "\n>" |]);
      for _ = 1 to Random.State.int rs 4 do
        (match Random.State.int rs 3 with
        | 0 -> element (depth - 1)
        | 1 -> text ()
        | _ -> misc ())
      done;
      add "</";
      add name;
      add (pick rs [| ">"; " >" |]))
  in
  if Random.State.bool rs then add "<?xml version=\"1.0\"?>\n";
  misc ();
  element 4;
  misc ();
  Buffer.contents b

let test_text_documents_parse () =
  let rs = Random.State.make [| base_seed + 2 |] in
  for i = 1 to trees_per_run do
    let s = gen_text_document rs in
    let what = Printf.sprintf "text %d (CODEC_SEED=%d)" i base_seed in
    same_parse ~what s;
    same_parse ~preserve_space:true ~what s;
    (* and [fragment], which parses content without a root *)
    let got = Xml_parse.fragment s and want = Xml_parse_ref.fragment s in
    if not (List.for_all2 Tree.equal got want && got = want) then
      Alcotest.failf "%s: fragments disagree on %S" what s
  done

let test_xmark_documents () =
  List.iter
    (fun (what, s) ->
      same_parse ~what s;
      let t = Xml_parse.document s in
      same_bytes ~what t)
    [
      ("persons", Xmark.persons ~count:200 ());
      ("auctions", Xmark.auctions ~count:400 ~matches:6 ~persons_count:200 ());
    ]

(* "Aa" and "BB" hash alike under the name table's hash, so every name
   spelled from those two blocks lands in one bucket: past the table's
   chain cap names stop being shared, and the tree must not notice *)
let test_colliding_names () =
  let names =
    List.init 256 (fun i ->
        String.concat ""
          (List.init 8 (fun bit -> if i land (1 lsl bit) = 0 then "Aa" else "BB")))
  in
  let body =
    String.concat ""
      (List.map (fun n -> Printf.sprintf "<%s %s='1'><%s/></%s>" n n n n) names)
  in
  let s = "<r>" ^ body ^ body ^ "</r>" in
  same_parse ~what:"colliding names" s;
  same_bytes ~what:"colliding names" (Xml_parse.document s)

(* ------------------------------------------------------------------ *)
(* Every message kind                                                  *)
(* ------------------------------------------------------------------ *)

let request ?(fragments = false) ?query_id ?idem_key ?(updating = false) calls
    =
  Message.Request
    {
      Message.module_uri = Testmod.module_ns;
      location = Testmod.module_at;
      method_ = "ping";
      arity = 1;
      updating;
      fragments;
      query_id;
      idem_key;
      cache_ok = fragments;
      calls;
    }

let bulk_request n = request (List.init n (fun i -> [ [ Xdm.int i ] ]))

let bulk_response n =
  Message.Response
    {
      Message.resp_module = Testmod.module_ns;
      resp_method = "ping";
      results = List.init n (fun i -> [ Xdm.int i ]);
      peers = [];
      cached = false;
      db_version = None;
    }

let messages () =
  let store =
    Store.shred
      (Xml_parse.document
         "<a xmlns:n='urn:n' n:k='v'><b>inner &amp; more</b><!--c--><?p d?>\
          <n:c/></a>")
  in
  let a = List.hd (Store.children (Store.root store)) in
  let b = List.hd (Store.children a) in
  let all_kinds = Xdm.Node (Store.root store) :: List.map (fun n -> Xdm.Node n)
      (Store.attributes a @ Store.children a) in
  let qid level =
    (* 2007-09-23T10:00:00Z *)
    { Message.host = "xrpc://h"; timestamp = "1190541600.000000";
      timeout = 30; level }
  in
  [
    ("bulk request", None, bulk_request 50);
    ("node parameters", None,
     request [ [ all_kinds ]; [ [ Xdm.str "a < b & \"c\"" ] ] ]);
    ("call by fragment", None,
     request ~fragments:true [ [ [ Xdm.Node a ]; [ Xdm.Node b ] ] ]);
    ("isolated update", None,
     request ~updating:true ~query_id:(qid Message.Snapshot) ~idem_key:"k1"
       [ [ [ Xdm.Atomic (Xs.Double 1.5); Xdm.Atomic (Xs.Boolean true) ] ] ]);
    ("traced", Some ("trace-1", "span-2"),
     request ~query_id:(qid Message.Repeatable) [ [ [] ] ]);
    ("bulk response", None, bulk_response 50);
    ("response extras", None,
     Message.Response
       { Message.resp_module = "m"; resp_method = "f";
         results = [ [ Xdm.Node a ]; [] ]; peers = [ "xrpc://p1"; "xrpc://p2" ];
         cached = true; db_version = Some 7 });
    ("fault", None,
     Message.Fault { fault_code = `Receiver; reason = "<boom> & \"quoted\"" });
    ("tx request", None, Message.Tx_request (Message.Prepare, qid Message.Snapshot));
    ("tx response", None, Message.Tx_response { ok = false; info = "in doubt" });
  ]

let test_message_kinds () =
  List.iter
    (fun (what, trace, m) ->
      let t =
        Tree.Document
          [ Message.to_tree ?trace ~server_profile:[ ("parse", 0.25) ] m ]
      in
      same_bytes ~what t;
      let wire = Serialize.document_to_string t in
      same_parse ~what wire;
      (* and the message survives the round trip through the new codec *)
      check string_ (what ^ ": re-encodes identically") wire
        (Serialize.document_to_string
           (Tree.Document
              [ Message.to_tree ?trace ~server_profile:[ ("parse", 0.25) ]
                  (Message.of_tree (Xml_parse.document wire)) ])))
    (messages ())

(* the no-reference fast path of n2s_call decodes exactly as mapping n2s *)
let test_n2s_call_plain () =
  let store = Store.shred (Xml_parse.document "<a><b/>t</a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let params =
    [ [ Xdm.int 1; Xdm.str "s" ]; [ Xdm.Node a ]; [];
      [ Xdm.Node (List.hd (Store.children a)) ] ]
  in
  let trees = Marshal.s2n_call params in
  let show seqs =
    Serialize.to_string (Tree.Document (List.map Marshal.s2n seqs))
  in
  check string_ "same sequences" (show (List.map Marshal.n2s trees))
    (show (Marshal.n2s_call trees))

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)
(* ------------------------------------------------------------------ *)

(* minor words [f] allocates, after one warm-up run *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let max_ratio = 0.6

let guard ~what ~ours ~oracle =
  let ratio = ours /. oracle in
  Printf.printf "%-28s %9.0f words, oracle %9.0f: %.2fx\n" what ours oracle
    ratio;
  if ratio > max_ratio then
    Alcotest.failf "%s allocates %.2fx the oracle (bound %.1fx)" what ratio
      max_ratio

let bulk_wire () =
  let req = Message.to_string (bulk_request 1000) in
  let peer = Peer.create "xrpc://codec-test" in
  Peer.register_module peer ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  [ ("request", req); ("reply", Peer.handle_raw peer req) ]

let test_parse_allocation () =
  List.iter
    (fun (what, s) ->
      guard ~what:("parse 1000-call " ^ what)
        ~ours:(minor_words (fun () -> Xml_parse.document s))
        ~oracle:(minor_words (fun () -> Xml_parse_ref.document s)))
    (bulk_wire ())

let test_serialize_allocation () =
  List.iter
    (fun (what, s) ->
      let t = Xml_parse.document s in
      (* a buffer already large enough: growth is not what is measured *)
      let buf = Buffer.create (2 * String.length s) in
      let into serialize () =
        Buffer.clear buf;
        serialize buf t
      in
      guard ~what:("serialize 1000-call " ^ what)
        ~ours:(minor_words (into (Serialize.document_to_buffer ~indent:false)))
        ~oracle:
          (minor_words (into (Serialize_ref.document_to_buffer ~indent:false))))
    (bulk_wire ())

let () =
  Alcotest.run "codec"
    [
      ( "differential",
        [
          Alcotest.test_case "random trees: serializer bytes" `Quick
            test_random_trees_serialize;
          Alcotest.test_case "random trees: parse trees" `Quick
            test_random_trees_parse;
          Alcotest.test_case "random XML text: parse trees" `Quick
            test_text_documents_parse;
          Alcotest.test_case "XMark documents" `Quick test_xmark_documents;
          Alcotest.test_case "colliding names" `Quick test_colliding_names;
          Alcotest.test_case "every message kind" `Quick test_message_kinds;
          Alcotest.test_case "n2s_call without references" `Quick
            test_n2s_call_plain;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "parse <= 0.6x oracle" `Quick test_parse_allocation;
          Alcotest.test_case "serialize <= 0.6x oracle" `Quick
            test_serialize_allocation;
        ] );
    ]
