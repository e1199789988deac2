(* Differential and allocation tests for the XML and SOAP codecs.

   Xml_parse_ref and Serialize_ref are the parser and serializer as they
   stood before the allocation-free rewrite, and Message_ref is the SOAP
   codec as it stood before envelopes were written and read without a
   tree, kept here as oracles (the way Path_ref serves path evaluation).
   The battery checks that the rewrites are invisible: byte-identical
   serializer output on seeded random trees, equal parse trees on those
   outputs, on hand-built XML text (entities, CDATA, comments, PIs,
   namespace rebinding) and on the XMark documents; byte-identical
   envelopes and equal decoded messages on every message kind and on
   seeded random messages; and the oracle's verdicts on mutated requests
   and replies, where the only differences allowed are the inputs the
   codec rejects or reads by XRPC.xsd on purpose (named in
   [allowed_difference]).  Deterministic Gc.minor_words guards (no
   timers) pin the point of the rewrites on the 1000-call Table 2
   request and reply: the parser and the XML serializer each allocate at
   most 0.6x what their oracle does, envelope encoding at most 0.35x and
   envelope decoding at most 0.6x.

   Replay a failing seed with CODEC_SEED=<n> (the trees and the seeded
   messages) or FUZZ_SEED=<n> (the mutation fuzzers). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Marshal = Xrpc_soap.Marshal
module Trace = Xrpc_obs.Trace
module Peer = Xrpc_peer.Peer
module Xmark = Xrpc_workloads.Xmark
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool

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
         db_version = Some 7 });
    ("fault", None,
     Message.Fault { fault_code = `Receiver; reason = "<boom> & \"quoted\"" });
    ("tx request", None, Message.Tx_request (Message.Prepare, qid Message.Snapshot));
    ("tx response", None, Message.Tx_response { ok = false; info = "in doubt" });
  ]

(* Decoded messages compared: atomic values by type and value (NaN
   equal to itself), nodes by kind, place in their fragment and the
   fragment's serialization, and by which items share a fragment *)
let equal_messages a b =
  let stores_a = ref [] and stores_b = ref [] in
  let index stores (st : Store.t) =
    match List.assoc_opt st.Store.doc_id !stores with
    | Some i -> i
    | None ->
        let i = List.length !stores in
        stores := (st.Store.doc_id, i) :: !stores;
        i
  in
  let fragment (n : Store.node) =
    Serialize.to_string (Store.to_tree (Store.root n.Store.store))
  in
  let item x y =
    match (x, y) with
    | Xdm.Atomic u, Xdm.Atomic v -> compare u v = 0
    | Xdm.Node m, Xdm.Node n ->
        Store.kind m = Store.kind n
        && m.Store.pre = n.Store.pre
        && fragment m = fragment n
        && index stores_a m.Store.store = index stores_b n.Store.store
    | _ -> false
  in
  let seq = List.equal item in
  match (a, b) with
  | Message.Request r, Message.Request s ->
      { r with Message.calls = [] } = { s with Message.calls = [] }
      && List.equal (List.equal seq) r.Message.calls s.Message.calls
  | Message.Response r, Message.Response s ->
      { r with Message.results = [] } = { s with Message.results = [] }
      && List.equal seq r.Message.results s.Message.results
  | a, b -> a = b

(* the serverProfile phases [of_reply] sums into a collecting span *)
let reply_phases of_reply w =
  let m, spans = Trace.collect (fun () -> of_reply ~dest:"d" w) in
  (m, match spans with root :: _ -> root.Trace.attrs | [] -> [])

(* Every decoder of the codec and of the oracle on [w]: [None] when they
   agree (equal values, or both raise), else what differs.  The oracle's
   of_reply runs inside a collection too, so the phases it reads are
   compared. *)
let decoders_differ ?(server = false) w =
  let run f = match f () with v -> Ok v | exception e -> Error e in
  let differ what ours oracle ~equal =
    match (ours, oracle) with
    | Ok a, Ok b -> if equal a b then None else Some (what ^ ": values differ")
    | Error _, Error _ -> None
    | Ok _, Error e ->
        Some (what ^ ": only the oracle raises " ^ Printexc.to_string e)
    | Error e, Ok _ ->
        Some (what ^ ": only the codec raises " ^ Printexc.to_string e)
  in
  let first = List.find_map Fun.id in
  if server then
    first
      [
        differ "of_string_server"
          (run (fun () -> Message.of_string_server w))
          (run (fun () -> Message_ref.of_string_server w))
          ~equal:(fun (m, t, p) (m', t', p') ->
            equal_messages m m' && t = t' && p = p');
      ]
  else
    first
      [
        differ "of_string"
          (run (fun () -> Message.of_string w))
          (run (fun () -> Message_ref.of_string w))
          ~equal:equal_messages;
        differ "of_reply, collecting"
          (run (fun () -> reply_phases Message.of_reply w))
          (run (fun () -> reply_phases Message_ref.of_reply w))
          ~equal:(fun (m, a) (m', b) ->
            equal_messages m m'
            && List.map (fun (k, v) -> (k, !v)) a
               = List.map (fun (k, v) -> (k, !v)) b);
      ]

let check_decoders ?server ~what w =
  match decoders_differ ?server w with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s on %S" what d w

let test_message_kinds () =
  List.iter
    (fun (what, trace, m) ->
      let encode to_string = to_string ?trace ~server_profile:[ ("parse", 0.25) ] m in
      let wire = encode (fun ?trace ~server_profile m ->
                     Message.to_string ?trace ~server_profile m)
      and oracle = encode (fun ?trace ~server_profile m ->
                       Message_ref.to_string ?trace ~server_profile m) in
      check string_ (what ^ ": the oracle's bytes") oracle wire;
      same_parse ~what wire;
      check_decoders ~what wire;
      check_decoders ~server:true ~what wire;
      (* and the message survives the round trip *)
      check string_ (what ^ ": re-encodes identically") wire
        (Message.to_string ?trace ~server_profile:[ ("parse", 0.25) ]
           (Message.of_string wire)))
    (messages ())

(* a call without references decodes exactly as the oracle maps n2s over
   its sequences *)
let test_n2s_call_plain () =
  let store = Store.shred (Xml_parse.document "<a><b/>t</a>") in
  let a = List.hd (Store.children (Store.root store)) in
  let params =
    [ [ Xdm.int 1; Xdm.str "s" ]; [ Xdm.Node a ]; [];
      [ Xdm.Node (List.hd (Store.children a)) ] ]
  in
  let wire =
    Message.to_string
      (Message.Request
         { Message.module_uri = "m"; location = ""; method_ = "f"; arity = 4;
           updating = false; fragments = false; query_id = None;
           idem_key = None; calls = [ params ] })
  in
  let oracle =
    match Xml_parse.document wire with
    | Tree.Document [ env ] ->
        let rec calls = function
          | Tree.Element { name; children; _ } when name.Qname.local = "call" ->
              [ List.filter_map
                  (function
                    | Tree.Element _ as e -> Some (Message_ref.Marshal.n2s e)
                    | _ -> None)
                  children ]
          | Tree.Element { children; _ } -> List.concat_map calls children
          | _ -> []
        in
        calls env
    | _ -> Alcotest.fail "parse"
  in
  match Message.of_string wire with
  | Message.Request r ->
      check bool_ "same sequences" true
        (equal_messages (Message.Request r)
           (Message.Request { r with Message.calls = oracle }))
  | _ -> Alcotest.fail "not a request"

(* ------------------------------------------------------------------ *)
(* Seeded random messages                                              *)
(* ------------------------------------------------------------------ *)

let replay_seed = Option.bind (Sys.getenv_opt "CODEC_SEED") int_of_string_opt

(* one store whose nodes are every kind, nested, namespaced, and
   related to each other (for call-by-fragment references) *)
let node_pool =
  lazy
    (let store =
       Store.shred ~uri:"pool.xml"
         (Xml_parse.document
            "<r xmlns:n='urn:n' n:k='v&amp;w' a='1'><b c='x'>t &lt; u\
             <d><e/>deep</d></b><!--note--><?pi some data?><n:f/>\
             <g xmlns='urn:g'><h/></g></r>")
     in
     let rec all n = n :: List.concat_map all (Store.attributes n @ Store.children n) in
     Array.of_list (all (Store.root store)))

let gen_atomic rs =
  let str () = gen_string rs text_chars 6 in
  match Random.State.int rs 13 with
  | 0 -> Xs.String (str ())
  | 1 -> Xs.Boolean (Random.State.bool rs)
  | 2 -> Xs.Integer (Random.State.int rs 2_000_001 - 1_000_000)
  | 3 -> Xs.Decimal (float_of_int (Random.State.int rs 20001 - 10000) /. 100.)
  | 4 ->
      Xs.Double
        (pick rs [| Float.nan; Float.infinity; Float.neg_infinity; 0.1; -2.5;
                    1e300; 3. |])
  | 5 -> Xs.Float (Random.State.float rs 1000.)
  | 6 -> Xs.Untyped (str ())
  | 7 -> Xs.AnyURI (pick rs [| "http://x/y?a=1&b=2"; "urn:a"; " pad " |])
  | 8 -> Xs.QName (Qname.make ~prefix:(pick rs [| ""; "p" |]) (pick rs locals))
  | 9 -> Xs.Date "2007-09-23"
  | 10 -> Xs.DateTime "2007-09-23T10:00:00Z"
  | 11 -> Xs.Time "10:00:00"
  | _ -> Xs.Duration "P1D"

let gen_item rs =
  if Random.State.int rs 3 = 0 then
    let pool = Lazy.force node_pool in
    Xdm.Node (pick rs pool)
  else Xdm.Atomic (gen_atomic rs)

let gen_seq rs = List.init (Random.State.int rs 4) (fun _ -> gen_item rs)
let gen_text rs = gen_string rs text_chars 8

let gen_query_id rs =
  {
    Message.host = "xrpc://" ^ gen_text rs;
    timestamp = pick rs [| "1190541600.000000"; "12.5"; "abc"; " 7 " |];
    timeout = 1 + Random.State.int rs 100;
    level = (if Random.State.bool rs then Message.Snapshot else Message.Repeatable);
  }

let gen_message rs =
  let opt f = if Random.State.bool rs then Some (f ()) else None in
  match Random.State.int rs 8 with
  | 0 | 1 | 2 | 3 ->
      let arity = Random.State.int rs 4 in
      Message.Request
        {
          Message.module_uri = gen_text rs;
          location = gen_text rs;
          method_ = pick rs locals;
          arity;
          updating = Random.State.bool rs;
          fragments = Random.State.bool rs;
          query_id = opt (fun () -> gen_query_id rs);
          idem_key = opt (fun () -> gen_text rs);
          calls =
            List.init (Random.State.int rs 4) (fun _ ->
                List.init arity (fun _ -> gen_seq rs));
        }
  | 4 | 5 ->
      Message.Response
        {
          Message.resp_module = gen_text rs;
          resp_method = gen_text rs;
          results = List.init (Random.State.int rs 4) (fun _ -> gen_seq rs);
          peers = List.init (Random.State.int rs 3) (fun _ -> gen_text rs);
          db_version = opt (fun () -> Random.State.int rs 1000);
        }
  | 6 ->
      Message.Fault
        { fault_code = (if Random.State.bool rs then `Sender else `Receiver);
          reason = gen_text rs }
  | _ ->
      if Random.State.bool rs then
        Message.Tx_request
          ( pick rs [| Message.Prepare; Message.Commit; Message.Rollback;
                       Message.Status |],
            gen_query_id rs )
      else Message.Tx_response { ok = Random.State.bool rs; info = gen_text rs }

(* One seeded case: a random message, trace context and serverProfile,
   encoded by both codecs (inside a Trace collection for some, which
   stamps profile="true" on a request): the same bytes, and every decoder
   agrees with the oracle's on them. *)
let codec_case seed =
  let rs = Random.State.make [| seed |] in
  let m = gen_message rs in
  let trace =
    if Random.State.int rs 3 = 0 then Some (gen_text rs, gen_text rs) else None
  in
  let server_profile =
    if Random.State.bool rs then
      Some
        (List.init (Random.State.int rs 3) (fun i ->
             (pick rs [| "parse"; "exec"; "commit" |], float_of_int i /. 7.)))
    else None
  in
  let collecting = Random.State.bool rs in
  let encode to_string =
    if collecting then fst (Trace.collect to_string) else to_string ()
  in
  let wire = encode (fun () -> Message.to_string ?trace ?server_profile m) in
  let oracle = encode (fun () -> Message_ref.to_string ?trace ?server_profile m) in
  if wire <> oracle then
    QCheck.Test.fail_reportf "CODEC_SEED=%d: encodings differ\n new: %S\n ref: %S"
      seed wire oracle;
  (match decoders_differ wire, decoders_differ ~server:true wire with
  | Some d, _ | None, Some d ->
      QCheck.Test.fail_reportf "CODEC_SEED=%d: %s on %S" seed d wire
  | None, None -> ());
  true

let seeded ~name ~count ~print ~replay case =
  QCheck.Test.make ~name
    ~count:(if replay = None then count else 1)
    ~long_factor:10
    (QCheck.make ~print
       (match replay with
       | Some s -> QCheck.Gen.return s
       | None -> QCheck.Gen.int_bound 0x3FFF_FFFF))
    case

let prop_seeded_messages =
  seeded ~name:"seeded messages: the oracle's bytes and values" ~count:1_000
    ~print:(Printf.sprintf "CODEC_SEED=%d") ~replay:replay_seed codec_case

(* ------------------------------------------------------------------ *)
(* The mutation fuzzers against the oracle's verdicts                  *)
(* ------------------------------------------------------------------ *)

let rec exists_element p = function
  | Tree.Document cs -> List.exists (exists_element p) cs
  | Tree.Element { children; _ } as e ->
      p e || List.exists (exists_element p) children
  | _ -> false

let attr_of (e : Tree.t) local =
  match e with
  | Tree.Element { attrs; _ } ->
      List.find_map
        (fun (a : Tree.attr) ->
          if a.name.Qname.local = local then Some a.value else None)
        attrs
  | _ -> None

let local_of = function
  | Tree.Element { name; _ } -> name.Qname.local
  | _ -> ""

(* a number the oracle read leniently (int_of_string, or a dbVersion it
   could not read as absent) that is not an xs:nonNegativeInteger with
   the same value *)
let read_differently v =
  Marshal.nat v = None || int_of_string_opt v <> Marshal.nat v

(* The differences from the oracle the codec makes on purpose, by name:
   the inputs the oracle crashed on, and the fields that now follow
   XRPC.xsd.  An input outside these classes must be decoded exactly as
   the oracle decodes it. *)
let allowed_difference w =
  match Message_ref.of_string w with
  | exception Invalid_argument _ ->
      Some "a Fault Code value shorter than its padding (the oracle crashed)"
  | _ | (exception _) -> (
      match Xml_parse.document w with
      | exception Xml_parse.Parse_error _ -> None
      | tree ->
          let has p = exists_element p tree in
          if
            has (fun e ->
                local_of e = "response"
                && Option.fold ~none:false ~some:read_differently
                     (attr_of e "dbVersion"))
          then Some "dbVersion is an xs:nonNegativeInteger"
          else if
            has (fun e ->
                local_of e = "participatingPeers"
                && (match e with
                   | Tree.Element { children; _ } ->
                       List.exists
                         (fun c -> local_of c = "peer" && attr_of c "uri" = None)
                         children
                   | _ -> false))
          then Some "an xrpc:peer needs its uri"
          else if
            has (fun e ->
                local_of e = "element"
                && attr_of e "nodeid" <> None
                && List.exists
                     (fun a ->
                       Option.fold ~none:false ~some:read_differently
                         (attr_of e a))
                     [ "nodeid"; "param"; "item" ])
          then Some "nodeid, param and item are xs:nonNegativeIntegers"
          else None)

let allowed_seen : (string, int) Hashtbl.t = Hashtbl.create 4

let differential ~name ~seeds ~server =
  let case seed =
    let rng = Random.State.make [| seed |] in
    let w = ref seeds.(Random.State.int rng (Array.length seeds)) in
    for _ = 0 to Random.State.int rng 4 do
      w := Fuzz.mutate ~seeds rng !w
    done;
    (match decoders_differ ~server !w with
    | None -> ()
    | Some d -> (
        match allowed_difference !w with
        | Some cls ->
            Hashtbl.replace allowed_seen cls
              (1 + Option.value ~default:0 (Hashtbl.find_opt allowed_seen cls))
        | None ->
            QCheck.Test.fail_reportf "FUZZ_SEED=%d: %s on %S" seed d !w));
    true
  in
  seeded ~name ~count:10_000 ~print:(Printf.sprintf "FUZZ_SEED=%d")
    ~replay:Fuzz.replay_seed case

let prop_request_verdicts =
  differential ~name:"mutated requests: the oracle's verdicts"
    ~seeds:Seeds.request_seeds ~server:true

let prop_reply_verdicts =
  differential ~name:"mutated replies: the oracle's verdicts"
    ~seeds:Seeds.reply_seeds ~server:false

(* the named differences the fuzzers met, printed for the record *)
let test_allowed_differences () =
  Hashtbl.iter
    (fun cls n -> Printf.printf "allowed difference, %d cases: %s\n" n cls)
    allowed_seen;
  (* each class is real: a hand-made input of it differs *)
  List.iter
    (fun (cls, w) ->
      check bool_ (cls ^ ": differs") true (decoders_differ w <> None);
      check (Alcotest.option string_) cls (Some cls) (allowed_difference w))
    [
      ( "a Fault Code value shorter than its padding (the oracle crashed)",
        Seeds.padded_fault_code );
      ( "dbVersion is an xs:nonNegativeInteger",
        {|<env:Envelope xmlns:env="e"><env:Body><response dbVersion="0x1F"/></env:Body></env:Envelope>|} );
      ( "an xrpc:peer needs its uri",
        {|<env:Envelope xmlns:env="e"><env:Body><response><participatingPeers><peer/></participatingPeers></response></env:Body></env:Envelope>|} );
      ( "nodeid, param and item are xs:nonNegativeIntegers",
        let _, _, m = List.find (fun (w, _, _) -> w = "call by fragment") (messages ()) in
        (* the reference's offset, spelled in hex *)
        let wire = Message.to_string m in
        let sub = {|xrpc:nodeid="|} in
        let n = String.length sub in
        let rec at i = if String.sub wire i n = sub then i + n else at (i + 1) in
        let i = at 0 in
        String.sub wire 0 i ^ "0x" ^ String.sub wire i (String.length wire - i) );
    ]

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)
(* ------------------------------------------------------------------ *)

(* minor words [f] allocates, after one warm-up run *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let guard ?(max_ratio = 0.6) ~what ~ours ~oracle () =
  let ratio = ours /. oracle in
  Printf.printf "%-34s %9.0f words, oracle %9.0f: %.2fx\n" what ours oracle
    ratio;
  if ratio > max_ratio then
    Alcotest.failf "%s allocates %.2fx the oracle (bound %.2fx)" what ratio
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
        ~oracle:(minor_words (fun () -> Xml_parse_ref.document s)) ())
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
          (minor_words (into (Serialize_ref.document_to_buffer ~indent:false)))
        ())
    (bulk_wire ())

let bulk_messages () =
  [ ("bulk_request", bulk_request 1000); ("bulk_response", bulk_response 1000) ]

let test_encode_allocation () =
  List.iter
    (fun (what, m) ->
      let buf = Buffer.create 262_144 in
      let into to_buffer () =
        Buffer.clear buf;
        to_buffer buf m
      in
      guard ~max_ratio:0.35 ~what:("encode 1000-call " ^ what)
        ~ours:(minor_words (into (fun buf m -> Message.to_buffer buf m)))
        ~oracle:(minor_words (into (fun buf m -> Message_ref.to_buffer buf m)))
        ())
    (bulk_messages ())

let test_decode_allocation () =
  List.iter
    (fun (what, m) ->
      let wire = Message.to_string m in
      guard ~what:("decode 1000-call " ^ what)
        ~ours:(minor_words (fun () -> Message.of_string wire))
        ~oracle:(minor_words (fun () -> Message_ref.of_string wire))
        ())
    (bulk_messages ())

(* ------------------------------------------------------------------ *)
(* Xml_parse on its own                                                *)
(* ------------------------------------------------------------------ *)

(* The documents and envelopes the suites parse, mutated by test/fuzz.ml:
   every consumer of the scanner (the tree builders and a pull-cursor
   walk that reads each event's data, descends by element, content,
   skip or text_content, over a window inside a larger string) must
   return or raise Parse_error; any other exception is a scanner bug.
   10k cases under runtest, 100k under @fuzz; FUZZ_SEED=<n> replays one. *)
let xml_seeds =
  let rs = Random.State.make [| 0x5eed |] in
  Array.concat
    [
      Seeds.request_seeds;
      Seeds.reply_seeds;
      [|
        Xrpc_workloads.Filmdb.film_db_xml;
        Xmark.persons ~count:4 ();
        Xmark.auctions ~count:4 ~matches:2 ~persons_count:4 ();
        {|<library xmlns:cat="urn:catalog"><shelf floor="1"><book year="1999" cat:id="b1"><title>DDBS</title></book></shelf></library>|};
      |];
      Array.init 8 (fun _ -> gen_text_document rs);
    ]

let walk_cursor w =
  let pad = "<<" in
  let s = pad ^ w ^ pad in
  let c = Xml_parse.cursor s ~pos:(String.length pad) ~len:(String.length w) in
  (* which accessor to try at each start tag, derived from the input *)
  let choice = ref (String.length w) in
  let rec go () =
    match Xml_parse.next c with
    | Xml_parse.Start ->
        ignore (Xml_parse.name c);
        ignore (Xml_parse.local c);
        ignore (Xml_parse.attrs c);
        ignore (Xml_parse.attr c "id");
        choice := (!choice * 31) + 7;
        (match !choice land 7 with
        | 0 -> ignore (Xml_parse.element c)
        | 1 -> ignore (Xml_parse.content c)
        | 2 -> Xml_parse.skip c
        | 3 -> ignore (Xml_parse.text_content c)
        | _ -> ());
        go ()
    | Xml_parse.End -> go ()
    | Xml_parse.Text | Xml_parse.Comment | Xml_parse.Pi ->
        ignore (Xml_parse.text c);
        go ()
    | Xml_parse.Eof -> ()
  in
  go ()

let prop_xml_parse =
  Fuzz.prop ~name:"Xml_parse: only Parse_error escapes" ~seeds:xml_seeds
    ~expected:(fun _ -> false)
    (fun w ->
      let consume f = try f () with Xml_parse.Parse_error _ -> () in
      consume (fun () -> ignore (Xml_parse.document w));
      consume (fun () -> ignore (Xml_parse.document ~preserve_space:false w));
      consume (fun () -> ignore (Xml_parse.fragment w));
      consume (fun () -> walk_cursor w))

let qcheck_quick t =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 29 |]) t

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
          qcheck_quick prop_seeded_messages;
          qcheck_quick prop_request_verdicts;
          qcheck_quick prop_reply_verdicts;
          Alcotest.test_case "allowed differences" `Quick
            test_allowed_differences;
        ] );
      ("xml-fuzz", [ qcheck_quick prop_xml_parse ]);
      ( "allocation",
        [
          Alcotest.test_case "parse <= 0.6x oracle" `Quick test_parse_allocation;
          Alcotest.test_case "serialize <= 0.6x oracle" `Quick
            test_serialize_allocation;
          Alcotest.test_case "encode envelope <= 0.35x oracle" `Quick
            test_encode_allocation;
          Alcotest.test_case "decode envelope <= 0.6x oracle" `Quick
            test_decode_allocation;
        ] );
    ]
