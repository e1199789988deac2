(* Tests for the XQUF machinery: update primitives, pending update lists,
   applyUpdates document rebuilding, fn:put, the updating semantics of
   rules R_Fu / R'_Fu at a single peer, value-only commits (Store.patch)
   against the rebuild, and the cost-bounded version history. *)

open Xrpc_xml
module Update = Xrpc_xquery.Update
module Context = Xrpc_xquery.Context
module Runner = Xrpc_xquery.Runner
module Database = Xrpc_peer.Database
module Peer = Xrpc_peer.Peer
module Message = Xrpc_soap.Message
module Xmark = Xrpc_workloads.Xmark
module Filmdb = Xrpc_workloads.Filmdb

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let resolver ~uri:_ ~location:_ = failwith "no modules"

(* run an updating query against one document; returns the document after
   applyUpdates *)
let run_update ?(doc = "<films><film><name>A</name></film><film><name>B</name></film></films>")
    query =
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" doc;
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let result, pul = Runner.run ~ctx ~resolver query in
  check int_ "updating query yields empty sequence" 0 (List.length result);
  Database.commit db pul;
  Serialize.to_string
    (Store.to_tree (Store.root (Database.doc_exn (Database.snapshot db) "d.xml")))

let stripped s =
  (* document node serialization *)
  s

let test_insert_into () =
  let after =
    run_update {|insert node <film><name>C</name></film> into exactly-one(doc("d.xml")/films)|}
  in
  check string_ "appended"
    "<films><film><name>A</name></film><film><name>B</name></film><film><name>C</name></film></films>"
    (stripped after)

let test_insert_as_first () =
  let after =
    run_update {|insert node <film><name>Z</name></film> as first into exactly-one(doc("d.xml")/films)|}
  in
  check bool_ "prepended" true
    (String.length after > 30 && String.sub after 0 30 = "<films><film><name>Z</name></f")

let test_insert_before_after () =
  let after =
    run_update
      {|(insert node <x/> before exactly-one(doc("d.xml")//film[name="B"]),
         insert node <y/> after exactly-one(doc("d.xml")//film[name="A"]))|}
  in
  check string_ "positioned"
    "<films><film><name>A</name></film><y/><x/><film><name>B</name></film></films>"
    after

let test_delete () =
  let after = run_update {|delete nodes doc("d.xml")//film[name = "A"]|} in
  check string_ "deleted" "<films><film><name>B</name></film></films>" after

let test_delete_multiple () =
  let after = run_update {|delete nodes doc("d.xml")//film|} in
  check string_ "all gone" "<films/>" after

let test_replace_node () =
  let after =
    run_update {|replace node exactly-one(doc("d.xml")//film[name="A"]) with <film><name>R</name></film>|}
  in
  check string_ "replaced"
    "<films><film><name>R</name></film><film><name>B</name></film></films>" after

let test_replace_value () =
  let after =
    run_update {|replace value of node exactly-one(doc("d.xml")//film[1]/name) with "NEW"|}
  in
  check string_ "value replaced"
    "<films><film><name>NEW</name></film><film><name>B</name></film></films>" after

let test_rename () =
  let after = run_update {|rename node exactly-one(doc("d.xml")/films) as "movies"|} in
  check bool_ "renamed" true
    (String.sub after 0 8 = "<movies>")

let test_insert_attribute () =
  let after =
    run_update {|insert node attribute year {1996} into exactly-one(doc("d.xml")//film[1])|}
  in
  check string_ "attribute added"
    "<films><film year=\"1996\"><name>A</name></film><film><name>B</name></film></films>"
    after

let test_delete_attribute () =
  let after =
    run_update ~doc:"<a x=\"1\" y=\"2\"/>" {|delete nodes doc("d.xml")/a/@x|}
  in
  check string_ "attr deleted" "<a y=\"2\"/>" after

let test_replace_attribute_value () =
  let after =
    run_update ~doc:"<a x=\"1\"/>"
      {|replace value of node exactly-one(doc("d.xml")/a/@x) with "9"|}
  in
  check string_ "attr value" "<a x=\"9\"/>" after

let test_updates_invisible_during_query () =
  (* XQUF: the database state is constant during evaluation; the query sees
     pre-update state even after emitting update primitives *)
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a><b/></a>";
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let result, pul =
    Runner.run ~ctx ~resolver
      {|(delete nodes doc("d.xml")//b, count(doc("d.xml")//b))|}
  in
  check string_ "still sees b" "1" (Xdm.to_display result);
  check int_ "one primitive" 1 (List.length pul)

let test_multiple_updates_same_query () =
  let after =
    run_update
      {|for $f in doc("d.xml")//film return insert node <seen/> into $f|}
  in
  (* insert into appends inside each target film *)
  check string_ "both films updated"
    "<films><film><name>A</name><seen/></film><film><name>B</name><seen/></film></films>"
    (stripped after)

let test_fn_put () =
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a/>";
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let _, pul = Runner.run ~ctx ~resolver {|put(<copy><of/></copy>, "new.xml")|} in
  Database.commit db pul;
  let s = Database.doc_exn (Database.snapshot db) "new.xml" in
  check string_ "stored" "<copy><of/></copy>"
    (Serialize.to_string (Store.to_tree (Store.root s)))

let test_snapshot_isolation_of_versions () =
  (* older snapshots keep reading the pre-commit state *)
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a><b/></a>";
  let before = Database.snapshot db in
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver = (fun name -> Database.doc_exn before name);
    }
  in
  let _, pul = Runner.run ~ctx ~resolver {|delete nodes doc("d.xml")//b|} in
  Database.commit db pul;
  let count v =
    let s = Database.doc_exn v "d.xml" in
    List.length (Store.descendants (Store.root s))
  in
  check int_ "old snapshot unchanged" 2 (count before);
  check int_ "new version updated" 1 (count (Database.snapshot db))

let test_touched_docs () =
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a><b/></a>";
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let _, pul = Runner.run ~ctx ~resolver {|delete nodes doc("d.xml")//b|} in
  check (Alcotest.list string_) "touched" [ "d.xml" ] (Database.touched_docs pul)

let test_cannot_delete_root () =
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a/>";
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let _, pul =
    Runner.run ~ctx ~resolver {|delete nodes root(exactly-one(doc("d.xml")/a))|}
  in
  match Database.commit db pul with
  | exception Update.Update_error _ -> ()
  | () -> Alcotest.fail "expected Update_error"

let test_pul_union_unordered () =
  (* §2.3: PULs from separate calls can be unioned in any order *)
  let doc = "<films><film><name>A</name></film><film><name>B</name></film></films>" in
  let db1 = Database.create () and db2 = Database.create () in
  Database.add_doc_xml db1 "d.xml" doc;
  Database.add_doc_xml db2 "d.xml" doc;
  let make db =
    {
      (Context.empty ()) with
      Context.doc_resolver =
        (fun name -> Database.doc_exn (Database.snapshot db) name);
    }
  in
  let q1 = {|insert node <x/> into exactly-one(doc("d.xml")//film[1])|} in
  let q2 = {|insert node <y/> into exactly-one(doc("d.xml")//film[2])|} in
  let _, p1a = Runner.run ~ctx:(make db1) ~resolver q1 in
  let _, p1b = Runner.run ~ctx:(make db1) ~resolver q2 in
  let _, p2a = Runner.run ~ctx:(make db2) ~resolver q2 in
  let _, p2b = Runner.run ~ctx:(make db2) ~resolver q1 in
  Database.commit db1 (p1a @ p1b);
  Database.commit db2 (p2b @ p2a);
  let show db =
    Serialize.to_string
      (Store.to_tree (Store.root (Database.doc_exn (Database.snapshot db) "d.xml")))
  in
  check string_ "order independent" (show db1) (show db2)

(* ---- value-only commits: Store.patch against the rebuild ---- *)

(* every node kind: a prolog PI, comments, namespaced attributes, empty
   elements, a one-text-child element and mixed content *)
let kinds_xml =
  {|<?style href="a.css"?><lib xmlns:x="urn:x"><!--shelf-->|}
  ^ {|<x:shelf x:id="s1" n="1"><?p data?><book lang="en"><title>T</title>|}
  ^ {|<e/><note>n</note></book>mixed <b>bold</b> tail<!----></x:shelf></lib>|}

let battery_docs =
  [
    ("persons.xml", Xml_parse.document (Xmark.persons ~seed:3 ~count:6 ()));
    ("filmDB.xml", Xml_parse.document Filmdb.film_db_xml);
    ("kinds.xml", Xml_parse.document kinds_xml);
  ]

let value_pool =
  [| ""; " "; "x"; "Ada Lovelace"; "a < b & \"c\""; String.make 40 'v' |]

let name_pool =
  [|
    Qname.make "name"; Qname.make "film"; Qname.make "renamed";
    Qname.make ~prefix:"x" ~uri:"urn:x" "shelf";
    Qname.make ~prefix:"y" ~uri:"urn:y" "tag";
  |]

let pick rng a = a.(Random.State.int rng (Array.length a))

let pres_of (s : Store.t) keep =
  Array.of_list
    (List.filter keep (List.init (Store.node_count s) Fun.id))

let element_names (s : Store.t) =
  List.sort_uniq compare
    (List.filter_map
       (fun pre ->
         match (s.Store.kind.(pre), s.Store.name.(pre)) with
         | Store.Elem, Some q -> Some (Qname.make ~uri:q.Qname.uri q.Qname.local)
         | _ -> None)
       (List.init (Store.node_count s) Fun.id))

let one_text_child n =
  match Store.children n with
  | [ c ] -> Store.kind c = Store.Txt
  | _ -> false

(* One random PUL over [stores] and whether the patch path must take it:
   value-only shapes (replace value of text, attribute, comment, PI and
   one-text-child elements, renames, two edits to one node) and the
   shapes that need the rebuild (an empty element's or an element with
   element children's value, an insert, fn:put, a document node's value,
   a text node's rename). *)
let random_pul rng stores =
  let value_only = ref true in
  let store () = pick rng stores in
  let node s keep =
    let pres = pres_of s keep in
    if pres = [||] then None else Some { Store.store = s; pre = pick rng pres }
  in
  let kind_is ks (s : Store.t) pre = List.mem s.Store.kind.(pre) ks in
  let value () = pick rng value_pool in
  let replace_value n =
    (match Store.kind n with
    | Store.Txt | Store.Attr | Store.Comm | Store.Pi -> ()
    | Store.Elem when one_text_child n -> ()
    | _ -> value_only := false);
    Update.Replace_value (n, value ())
  in
  (* half the cases draw only from the value-only shapes *)
  let shapes = if Random.State.bool rng then 14 else 20 in
  let prim () =
    let s = store () in
    match Random.State.int rng shapes with
    | 0 | 1 | 2 | 3 | 4 -> (
        let leaf = kind_is [ Store.Txt; Store.Attr; Store.Comm; Store.Pi ] s in
        match node s leaf with
        | Some n -> [ replace_value n ]
        | None -> [])
    | 5 | 6 | 7 | 8 -> (
        match node s (kind_is [ Store.Elem ] s) with
        | Some n -> [ replace_value n ]
        | None -> [])
    | 9 | 10 | 11 -> (
        match node s (kind_is [ Store.Elem; Store.Attr; Store.Pi ] s) with
        | Some n -> [ Update.Rename (n, pick rng name_pool) ]
        | None -> [])
    | 12 | 13 -> (
        (* two edits to one node; an element's value and its text child's *)
        match node s (fun pre -> pre > 0) with
        | None -> []
        | Some n ->
            let child =
              if Store.kind n = Store.Elem && one_text_child n then
                [ replace_value (List.hd (Store.children n)) ]
              else []
            in
            let edits = [ replace_value n; replace_value n ] @ child in
            if Random.State.bool rng then edits else List.rev edits)
    | 14 -> (
        value_only := false;
        match node s (kind_is [ Store.Elem ] s) with
        | Some n -> [ Update.Insert_into (n, [ Tree.elem (Qname.make "ins") [] ]) ]
        | None -> [])
    | 15 ->
        value_only := false;
        [ Update.Put (Tree.document [ Tree.elem (Qname.make "p") [] ], "put.xml") ]
    | 16 | 17 -> (
        (* an empty element, or one with element children *)
        let keep pre =
          s.Store.kind.(pre) = Store.Elem
          && not (one_text_child { Store.store = s; pre })
        in
        match node s keep with Some n -> [ replace_value n ] | None -> [])
    | 18 -> (
        match node s (kind_is [ Store.Txt ] s) with
        | Some n ->
            value_only := false;
            [ Update.Rename (n, pick rng name_pool) ]
        | None -> [])
    | _ -> [ replace_value (Store.root s) ]
  in
  let pul =
    List.concat (List.init (1 + Random.State.int rng 4) (fun _ -> prim ()))
  in
  (pul, !value_only)

let serialize s = Serialize.to_string (Store.to_tree (Store.root s))

(* the committed version against the rebuilt one, document by document;
   [None] when they agree *)
let version_diff (p : Database.version) (r : Database.version) =
  let diffs = ref [] in
  let differ what = diffs := what :: !diffs in
  if p.Database.version_no <> r.Database.version_no then differ "version_no";
  if Database.Doc_map.bindings p.Database.doc_versions
     <> Database.Doc_map.bindings r.Database.doc_versions
  then differ "doc_versions";
  if Database.doc_names p <> Database.doc_names r then differ "doc names";
  List.iter
    (fun name ->
      match (Database.doc p name, Database.doc r name) with
      | Some ps, Some rs ->
          let col what same = if not same then differ (name ^ " " ^ what) in
          col "kind" (ps.Store.kind = rs.Store.kind);
          col "name" (ps.Store.name = rs.Store.name);
          col "value" (ps.Store.value = rs.Store.value);
          col "parent" (ps.Store.parent = rs.Store.parent);
          col "size" (ps.Store.size = rs.Store.size);
          col "level" (ps.Store.level = rs.Store.level);
          col "bytes" (ps.Store.bytes = rs.Store.bytes);
          col "serialization" (serialize ps = serialize rs);
          List.iter
            (fun q ->
              col ("pres_named " ^ Qname.to_string q)
                (Store.pres_named ps q = Store.pres_named rs q))
            (List.sort_uniq compare
               (element_names ps @ element_names rs
               @ Array.to_list
                   (Array.map
                      (fun q -> Qname.make ~uri:q.Qname.uri q.Qname.local)
                      name_pool)))
      | _ -> differ (name ^ " missing"))
    (Database.doc_names p);
  match !diffs with [] -> None | ds -> Some (String.concat ", " (List.rev ds))

(* One case: a fresh database over the battery documents (a random half
   of each element-name index already built), a random PUL committed by
   [Database.commit] and by [Database.rebuild] on a twin, then every
   column, serialization, index answer, version vector and touched list
   compared, and the pre-commit snapshot re-read. *)
let value_only_case seed =
  let fail fmt = QCheck.Test.fail_reportf ("FUZZ_SEED=%d: " ^^ fmt) seed in
  let rng = Random.State.make [| seed |] in
  let db = Database.create ~clock:(fun () -> 0.) () in
  List.iter (fun (name, tree) -> Database.add_doc db name tree) battery_docs;
  let before = Database.snapshot db in
  let stores =
    Array.of_list
      (List.map (fun (name, _) -> Database.doc_exn before name) battery_docs)
  in
  Array.iter
    (fun s ->
      List.iter
        (fun q -> if Random.State.bool rng then ignore (Store.pres_named s q))
        (element_names s))
    stores;
  let pul, value_only = random_pul rng stores in
  let twin = { db with Database.on_commit = [] } in
  let touched db =
    let seen = ref [] in
    Database.on_commit db (fun t -> seen := t :: !seen);
    seen
  in
  let touched_p = touched db and touched_r = touched twin in
  let old_text = Array.map serialize stores in
  let patched = Update.value_edits pul <> None in
  if patched <> (value_only && pul <> []) then
    fail "value_edits %s a PUL that %s value-only"
      (if patched then "took" else "refused")
      (if value_only then "is" else "is not");
  let outcome commit db =
    match commit db pul with
    | () -> Ok (Database.snapshot db)
    | exception (Update.Update_error m) -> Error m
  in
  (match (outcome Database.commit db, outcome Database.rebuild twin) with
  | Ok p, Ok r -> (
      match version_diff p r with
      | Some d -> fail "patched and rebuilt versions differ: %s" d
      | None -> ())
  | Error a, Error b when a = b -> ()
  | _ -> fail "one path raised and the other did not");
  if !touched_p <> !touched_r then fail "on_commit touched lists differ";
  Array.iteri
    (fun i s ->
      if serialize s <> old_text.(i) then
        fail "the pre-commit snapshot of %s changed" s.Store.uri)
    stores;
  true

let prop_value_only =
  QCheck.Test.make ~name:"patched commit equals the rebuild"
    ~count:(if Fuzz.replay_seed = None then 2_000 else 1)
    ~long_factor:10
    (QCheck.make
       ~print:(Printf.sprintf "FUZZ_SEED=%d")
       (match Fuzz.replay_seed with
       | Some s -> QCheck.Gen.return s
       | None -> QCheck.Gen.int_bound 0x3FFF_FFFF))
    value_only_case

(* the bench's write, served by a peer: the module and call of bench/e2e's
   mixed_rw workload *)
let persons_module =
  {|module namespace p = "bench-persons";
declare updating function p:set($pid as xs:string, $v as xs:string)
{ replace value of node exactly-one(doc("persons.xml")//person[@id = $pid]/name)
  with $v };
|}

let set_name peer pid v =
  let req =
    {
      Message.module_uri = "bench-persons";
      location = "http://bench.example.org/persons.xq";
      method_ = "set";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = None;
      idem_key = None;
      cache_ok = true;
      calls = [ [ [ Xdm.str pid ]; [ Xdm.str v ] ] ];
    }
  in
  let reply = Peer.handle_raw peer (Message.to_string (Message.Request req)) in
  match Message.of_string reply with
  | Message.Response _ -> ()
  | _ -> Alcotest.fail "set failed"

let person_name store pid =
  let n =
    List.find
      (fun n ->
        List.exists
          (fun a -> Store.string_value a = pid)
          (Store.attributes n))
      (Store.descendants_named (Store.root store) (Qname.make "person"))
  in
  Store.string_value (List.hd (Store.children n))

(* A value-only commit shares kind/parent/size/level (and the name column
   and index when nothing is renamed) with its predecessor: no
   [Update.apply], no [Store.shred].  A structural commit builds fresh
   columns.  The older snapshot keeps its value either way. *)
let test_value_only_shares_structure () =
  let peer = Peer.create "xrpc://persons.local" in
  Database.add_doc_xml peer.Peer.db "persons.xml" (Xmark.persons ~count:50 ());
  Peer.register_module peer ~uri:"bench-persons"
    ~location:"http://bench.example.org/persons.xq" persons_module;
  let v0 = Database.snapshot peer.Peer.db in
  let s0 = Database.doc_exn v0 "persons.xml" in
  let old_name = person_name s0 "person7" in
  ignore (Store.pres_named s0 (Qname.make "person"));
  set_name peer "person7" "Grace Hopper";
  let v1 = Database.snapshot peer.Peer.db in
  let s1 = Database.doc_exn v1 "persons.xml" in
  check bool_ "kind shared" true (s1.Store.kind == s0.Store.kind);
  check bool_ "parent shared" true (s1.Store.parent == s0.Store.parent);
  check bool_ "size shared" true (s1.Store.size == s0.Store.size);
  check bool_ "level shared" true (s1.Store.level == s0.Store.level);
  check bool_ "name shared" true (s1.Store.name == s0.Store.name);
  check bool_ "index shared" true (s1.Store.names == s0.Store.names);
  check bool_ "value copied" true (s1.Store.value != s0.Store.value);
  check bool_ "fresh doc_id" true (s1.Store.doc_id <> s0.Store.doc_id);
  check string_ "new value" "Grace Hopper" (person_name s1 "person7");
  check string_ "old snapshot keeps its value" old_name (person_name s0 "person7");
  check int_ "doc version bumped" v1.Database.version_no
    (Database.doc_version v1 "persons.xml");
  check bool_ "costs the value column, not the store" true
    (v1.Database.own_bytes < s1.Store.bytes / 4);
  (* a structural commit re-shreds *)
  let ctx =
    {
      (Context.empty ()) with
      Context.doc_resolver = (fun name -> Database.doc_exn v1 name);
    }
  in
  let _, pul =
    Runner.run ~ctx ~resolver
      {|insert node <person id="new"/>
        into exactly-one(doc("persons.xml")/site/people)|}
  in
  Database.commit peer.Peer.db pul;
  let s2 = Database.doc_exn (Database.snapshot peer.Peer.db) "persons.xml" in
  check bool_ "kind fresh" true (s2.Store.kind != s1.Store.kind);
  check bool_ "parent fresh" true (s2.Store.parent != s1.Store.parent);
  check bool_ "size fresh" true (s2.Store.size != s1.Store.size);
  check bool_ "level fresh" true (s2.Store.level != s1.Store.level);
  check string_ "patched snapshot keeps its value" "Grace Hopper"
    (person_name s1 "person7")

(* Renaming an element gives the new store its own element-name index;
   the old store keeps answering from its own. *)
let test_rename_index () =
  let db = Database.create () in
  Database.add_doc_xml db "d.xml" "<a><b>1</b><b>2</b><c/></a>";
  let s0 = Database.doc_exn (Database.snapshot db) "d.xml" in
  let b = Qname.make "b" and c = Qname.make "c" and z = Qname.make "z" in
  List.iter (fun q -> ignore (Store.pres_named s0 q)) [ b; c; z ];
  let second_b = { Store.store = s0; pre = (Store.pres_named s0 b).(1) } in
  Database.commit db [ Update.Rename (second_b, z) ];
  let s1 = Database.doc_exn (Database.snapshot db) "d.xml" in
  check bool_ "structure shared" true (s1.Store.kind == s0.Store.kind);
  check (Alcotest.array int_) "b" [| 2 |] (Store.pres_named s1 b);
  check (Alcotest.array int_) "z" [| 4 |] (Store.pres_named s1 z);
  check (Alcotest.array int_) "c" [| 6 |] (Store.pres_named s1 c);
  check (Alcotest.array int_) "old b" [| 2; 4 |] (Store.pres_named s0 b);
  check (Alcotest.array int_) "old z" [||] (Store.pres_named s0 z)

(* The history keeps old versions while the bytes they do not share stay
   within [Database.history_factor] times the current version's: many
   value-only versions, few rebuilt ones. *)
let test_history_bounded_by_cost () =
  let db = Database.create () in
  Database.add_doc_xml db "persons.xml" (Xmark.persons ~count:50 ());
  let commit_set i =
    let s = Database.doc_exn (Database.snapshot db) "persons.xml" in
    let name = (Store.pres_named s (Qname.make "name")).(i mod 50) in
    let text = List.hd (Store.children { Store.store = s; pre = name }) in
    Database.commit db [ Update.Replace_value (text, string_of_int i) ]
  in
  let within_budget () =
    let older = List.tl db.Database.history in
    List.fold_left (fun acc (_, v) -> acc + v.Database.own_bytes) 0 older
    <= Database.history_factor * db.Database.current.Database.bytes
  in
  for i = 1 to 300 do
    commit_set i;
    if not (within_budget ()) then Alcotest.failf "over budget after %d" i
  done;
  let kept = List.length db.Database.history in
  check bool_ "dropped some" true db.Database.truncated;
  check bool_ "kept many value-only versions" true
    (kept > 4 * Database.history_factor && kept < 300);
  let insert () =
    let s = Database.doc_exn (Database.snapshot db) "persons.xml" in
    let people = (Store.pres_named s (Qname.make "people")).(0) in
    let person = Tree.elem (Qname.make "person") [] in
    Database.commit db
      [ Update.Insert_into ({ Store.store = s; pre = people }, [ person ]) ]
  in
  for _ = 1 to 20 do
    insert ();
    if not (within_budget ()) then Alcotest.fail "over budget after a rebuild"
  done;
  check bool_ "few rebuilt versions" true
    (List.length db.Database.history <= Database.history_factor + 1)

let () =
  Alcotest.run "updates"
    [
      ( "primitives",
        [
          Alcotest.test_case "insert into" `Quick test_insert_into;
          Alcotest.test_case "insert as first" `Quick test_insert_as_first;
          Alcotest.test_case "insert before/after" `Quick test_insert_before_after;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete multiple" `Quick test_delete_multiple;
          Alcotest.test_case "replace node" `Quick test_replace_node;
          Alcotest.test_case "replace value" `Quick test_replace_value;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "insert attribute" `Quick test_insert_attribute;
          Alcotest.test_case "delete attribute" `Quick test_delete_attribute;
          Alcotest.test_case "replace attribute value" `Quick
            test_replace_attribute_value;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "updates invisible during query" `Quick
            test_updates_invisible_during_query;
          Alcotest.test_case "loop of inserts" `Quick test_multiple_updates_same_query;
          Alcotest.test_case "fn:put" `Quick test_fn_put;
          Alcotest.test_case "snapshot versions" `Quick
            test_snapshot_isolation_of_versions;
          Alcotest.test_case "touched docs" `Quick test_touched_docs;
          Alcotest.test_case "cannot delete root" `Quick test_cannot_delete_root;
          Alcotest.test_case "PUL union unordered" `Quick test_pul_union_unordered;
        ] );
      ( "value-only",
        [
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 26 |]) prop_value_only;
          Alcotest.test_case "shares structure with its predecessor" `Quick
            test_value_only_shares_structure;
          Alcotest.test_case "element rename and the name index" `Quick
            test_rename_index;
          Alcotest.test_case "history bounded by its cost" `Quick
            test_history_bounded_by_cost;
        ] );
    ]
