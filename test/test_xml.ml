(* Unit + property tests for the XML/XDM substrate (lib/xml). *)

open Xrpc_xml

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Qname                                                               *)
(* ------------------------------------------------------------------ *)

let test_qname_basics () =
  let q = Qname.make ~prefix:"f" ~uri:"films" "filmsByActor" in
  check string_ "to_string" "f:filmsByActor" (Qname.to_string q);
  check string_ "expanded" "{films}filmsByActor" (Qname.expanded q);
  let q2 = Qname.make ~prefix:"g" ~uri:"films" "filmsByActor" in
  check bool_ "equal ignores prefix" true (Qname.equal q q2);
  check bool_ "hash agrees" true (Qname.hash q = Qname.hash q2)

let test_qname_split () =
  check (Alcotest.pair string_ string_) "split prefixed" ("a", "b")
    (Qname.split "a:b");
  check (Alcotest.pair string_ string_) "split bare" ("", "b") (Qname.split "b")

(* ------------------------------------------------------------------ *)
(* Xs atomic values                                                    *)
(* ------------------------------------------------------------------ *)

let test_xs_lexical () =
  check string_ "int" "42" (Xs.to_string (Xs.Integer 42));
  check string_ "double int" "3" (Xs.to_string (Xs.Double 3.));
  check string_ "double frac" "3.1" (Xs.to_string (Xs.Double 3.1));
  check string_ "bool" "true" (Xs.to_string (Xs.Boolean true));
  check string_ "NaN" "NaN" (Xs.to_string (Xs.Double Float.nan));
  check string_ "INF" "INF" (Xs.to_string (Xs.Double Float.infinity))

let test_xs_parse () =
  check bool_ "int roundtrip" true
    (Xs.of_string Xs.TInteger " 17 " = Xs.Integer 17);
  check bool_ "bool 1" true (Xs.of_string Xs.TBoolean "1" = Xs.Boolean true);
  check bool_ "double INF" true
    (Xs.of_string Xs.TDouble "-INF" = Xs.Double Float.neg_infinity);
  Alcotest.check_raises "bad int" (Xs.Type_error "cannot cast \"xyz\" to xs:integer")
    (fun () -> ignore (Xs.of_string Xs.TInteger "xyz"))

let test_xs_arith_promotion () =
  check bool_ "int+int=int" true
    (Xs.arith `Add (Xs.Integer 2) (Xs.Integer 3) = Xs.Integer 5);
  check bool_ "int+double=double" true
    (Xs.arith `Add (Xs.Integer 2) (Xs.Double 3.5) = Xs.Double 5.5);
  check bool_ "int div int = decimal" true
    (Xs.arith `Div (Xs.Integer 7) (Xs.Integer 2) = Xs.Decimal 3.5);
  check bool_ "idiv truncates" true
    (Xs.arith `Idiv (Xs.Integer 7) (Xs.Integer 2) = Xs.Integer 3);
  check bool_ "mod" true (Xs.arith `Mod (Xs.Integer 7) (Xs.Integer 2) = Xs.Integer 1);
  Alcotest.check_raises "div by zero"
    (Xs.Type_error "division by zero") (fun () ->
      ignore (Xs.arith `Div (Xs.Integer 1) (Xs.Integer 0)))

let test_xs_compare () =
  check bool_ "numeric vs untyped" true
    (Xs.compare_values (Xs.Integer 2) (Xs.Untyped "2") = 0);
  check bool_ "string order" true
    (Xs.compare_values (Xs.String "a") (Xs.String "b") < 0);
  check bool_ "ebv empty string" false (Xs.ebv (Xs.String ""));
  check bool_ "ebv zero" false (Xs.ebv (Xs.Integer 0));
  check bool_ "ebv NaN" false (Xs.ebv (Xs.Double Float.nan))

let test_xs_cast () =
  check bool_ "string->int" true
    (Xs.cast (Xs.String "12") Xs.TInteger = Xs.Integer 12);
  check bool_ "double->int truncates" true
    (Xs.cast (Xs.Double 3.9) Xs.TInteger = Xs.Integer 3);
  check bool_ "bool->int" true (Xs.cast (Xs.Boolean true) Xs.TInteger = Xs.Integer 1);
  check bool_ "int->string" true (Xs.cast (Xs.Integer 5) Xs.TString = Xs.String "5")

(* ------------------------------------------------------------------ *)
(* Parser / serializer                                                 *)
(* ------------------------------------------------------------------ *)

let parse = Xml_parse.document

let test_parse_basic () =
  match parse "<a x=\"1\"><b>t</b><c/></a>" with
  | Tree.Document [ Tree.Element { name; attrs; children } ] ->
      check string_ "name" "a" name.Qname.local;
      check int_ "attrs" 1 (List.length attrs);
      check int_ "children" 2 (List.length children)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_entities () =
  let t = parse "<a>&lt;&amp;&gt;&#65;&#x42;</a>" in
  check string_ "entities" "<&>AB" (Tree.string_value t)

let test_parse_cdata () =
  let t = parse "<a><![CDATA[<not-a-tag>&amp;]]></a>" in
  check string_ "cdata" "<not-a-tag>&amp;" (Tree.string_value t)

let test_parse_namespaces () =
  let t =
    parse
      "<x:a xmlns:x=\"urn:one\"><b xmlns=\"urn:two\"/><x:c/></x:a>"
  in
  match t with
  | Tree.Document [ Tree.Element { name; children; _ } ] ->
      check string_ "outer uri" "urn:one" name.Qname.uri;
      (match children with
      | [ Tree.Element b; Tree.Element c ] ->
          check string_ "default ns" "urn:two" b.name.Qname.uri;
          check string_ "inherited prefix" "urn:one" c.name.Qname.uri
      | _ -> Alcotest.fail "children shape")
  | _ -> Alcotest.fail "document shape"

let test_parse_comments_pis () =
  match parse "<?xml version=\"1.0\"?><!-- top --><a><?target data?><!--in--></a>" with
  | Tree.Document [ Tree.Element { children; _ } ] ->
      check int_ "kept pi+comment" 2 (List.length children)
  | _ -> Alcotest.fail "shape"

let test_parse_doctype_skipped () =
  match parse "<!DOCTYPE html><a>ok</a>" with
  | Tree.Document [ e ] -> check string_ "value" "ok" (Tree.string_value e)
  | _ -> Alcotest.fail "shape"

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception Xml_parse.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "<a><b></a>";
  fails "<a";
  fails "<a>&unknown;</a>";
  fails "text only"

(* character references: only #[0-9]+ or #x[0-9a-fA-F]+ naming an XML
   Char, in text and in attribute values alike *)
let bad_char_refs =
  [ "&#-5;"; "&#-1;"; "&#+65;"; "&#0x41;"; "&#1_0;"; "&#0;"; "&#xD800;";
    "&#x110000;"; "&#;"; "&#x;"; "&#65"; "&#X41;"; "&#99999999999999999999;";
    "&#x0000000000041;" ]

let test_parse_char_refs () =
  let value s =
    match Xml_parse.document ~preserve_space:true s with
    | Tree.Document [ (Tree.Element { attrs; _ } as e) ] -> (
        match attrs with
        | [ a ] -> a.Tree.value
        | _ -> Tree.string_value e)
    | _ -> Alcotest.fail "shape"
  in
  List.iter
    (fun (r, want) ->
      check string_ ("text " ^ r) want (value ("<a>" ^ r ^ "</a>"));
      check string_ ("attr " ^ r) want (value ("<a b='" ^ r ^ "'/>")))
    [ ("&#65;", "A"); ("&#x41;", "A"); ("&#x4a;", "J");
      ("&#00065;", "A"); ("&#9;", "\t"); ("&#xD7FF;", "\xed\x9f\xbf");
      ("&#xE000;", "\xee\x80\x80"); ("&#x10FFFF;", "\xf4\x8f\xbf\xbf");
      ("&#233;", "\xc3\xa9") ];
  List.iter
    (fun r ->
      List.iter
        (fun doc ->
          match parse doc with
          | exception Xml_parse.Parse_error _ -> ()
          | _ -> Alcotest.failf "accepted %S" doc)
        [ "<a>" ^ r ^ "</a>"; "<a b='" ^ r ^ "'/>"; "<a b=\"x" ^ r ^ "y\"/>" ])
    bad_char_refs

let test_parse_well_formed () =
  let fails s =
    match parse s with
    | exception Xml_parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %S" s
  in
  (* after the root: only whitespace, comments and PIs *)
  fails "<a/><b/>";
  fails "<a>x</a>junk";
  fails "<a/>&amp;";
  fails "<a/><!DOCTYPE a>";
  fails "<a/><![CDATA[x]]>";
  (match parse "<a/> \n<!-- c --><?pi x?>\n" with
  | Tree.Document [ Tree.Element _ ] -> ()
  | _ -> Alcotest.fail "trailing misc");
  (* Unique Att Spec, on expanded names *)
  fails "<a x='1' x='2'/>";
  fails "<a p:x='1' q:x='2' xmlns:p='urn:u' xmlns:q='urn:u'/>";
  fails "<a xmlns:p='urn:u' xmlns:p='urn:v'/>";
  fails "<a xmlns='urn:u' xmlns='urn:v'/>";
  fails
    ("<a " ^ String.concat " " (List.init 40 (fun i -> Printf.sprintf "k%d='v'" i))
    ^ " k7='w'/>");
  (match parse "<a p:x='1' q:x='2' x='3' xmlns:p='urn:u' xmlns:q='urn:v'/>" with
  | Tree.Document [ Tree.Element { attrs; _ } ] ->
      check int_ "distinct expanded names kept" 3 (List.length attrs)
  | _ -> Alcotest.fail "shape");
  (* end tags match the start tag's spelling exactly *)
  fails "<a:b xmlns:a='u'></a:bc>";
  fails "<ab></a>";
  fails "<a></ab>"

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let parse_error s =
  match Xml_parse.document s with
  | exception Xml_parse.Parse_error m -> Some m
  | _ -> None

let nested n = String.concat "" (List.init n (fun _ -> "<a>"))
  ^ String.concat "" (List.init n (fun _ -> "</a>"))

(* a body of a million nested start tags is refused at the depth bound,
   long before the recursion it would take to read it *)
let test_parse_depth_bound () =
  (match parse (nested Xml_parse.max_depth) with
  | Tree.Document [ Tree.Element _ ] -> ()
  | _ -> Alcotest.fail "shape at the bound");
  check bool_ "one level past the bound" true
    (parse_error (nested (Xml_parse.max_depth + 1)) <> None);
  let deep = String.concat "" (List.init 1_000_000 (fun _ -> "<a>")) in
  let err, secs = time_s (fun () -> parse_error deep) in
  (match err with
  | Some m ->
      if not (String.starts_with ~prefix:"elements nested deeper" m) then
        Alcotest.failf "unexpected error %S" m
  | None -> Alcotest.fail "a million levels accepted");
  if secs > 0.5 then Alcotest.failf "rejection took %.2f s" secs

(* duplicate namespace prefixes are found in linear time: 40,000
   declarations on one start tag *)
let test_parse_many_ns_decls () =
  let decls n = List.init n (fun i -> Printf.sprintf "xmlns:p%d='urn:%d'" i i) in
  let tag ds = "<a " ^ String.concat " " ds ^ "/>" in
  let r, secs = time_s (fun () -> parse (tag (decls 40_000))) in
  (match r with
  | Tree.Document [ Tree.Element _ ] -> ()
  | _ -> Alcotest.fail "shape");
  if secs > 1.0 then Alcotest.failf "40,000 declarations took %.2f s" secs;
  check bool_ "duplicate prefix among many" true
    (parse_error (tag (decls 40_000 @ [ "xmlns:p17='urn:x'" ])) <> None);
  check bool_ "duplicate prefix among few" true
    (parse_error (tag [ "xmlns:p='urn:1'"; "xmlns:q='urn:2'"; "xmlns:p='urn:3'" ])
    <> None);
  match parse_error (tag (decls 20 @ [ "xmlns='urn:d'"; "xmlns='urn:e'" ])) with
  | Some m ->
      if not (String.starts_with ~prefix:{|duplicate namespace declaration "xmlns"|} m)
      then Alcotest.failf "unexpected error %S" m
  | None -> Alcotest.fail "duplicate default namespace accepted"

(* one start tag may carry Xml_parse.max_attributes attributes; the next
   one is refused where it stands, before the duplicate check would see
   the (here duplicated) names.  Namespace declarations do not count. *)
let test_parse_attribute_bound () =
  let attrs n = List.init n (fun i -> Printf.sprintf "a%d='%d'" i i) in
  let tag ds = "<r " ^ String.concat " " ds ^ "/>" in
  (match parse (tag (attrs Xml_parse.max_attributes @ [ "xmlns:p='urn:p'" ])) with
  | Tree.Document [ Tree.Element { attrs; _ } ] ->
      check int_ "every attribute at the bound" Xml_parse.max_attributes
        (List.length attrs)
  | _ -> Alcotest.fail "shape at the bound");
  let past = tag (attrs Xml_parse.max_attributes @ [ "a0='dup'" ]) in
  match parse_error past with
  | Some m ->
      let prefix =
        Printf.sprintf "more than %d attributes on one start tag at offset "
          Xml_parse.max_attributes
      in
      if not (String.starts_with ~prefix m) then
        Alcotest.failf "unexpected error %S" m;
      let offset =
        int_of_string
          (String.sub m (String.length prefix) (String.length m - String.length prefix))
      in
      (* positioned inside the offending (last) attribute *)
      check bool_ "offset at the extra attribute" true
        (offset > String.length past - String.length " a0='dup'/>"
        && offset < String.length past)
  | None -> Alcotest.fail "an attribute past the bound accepted"

let test_parse_name_rebinding () =
  (* one lexical name, three URIs in turn: the per-document name table
     must not hand out a stale resolution *)
  match
    parse
      "<r><p:x xmlns:p='urn:1'/><p:x xmlns:p='urn:2'><p:x xmlns:p='urn:1'/>\
       <p:x/></p:x><p:x xmlns:p='urn:1'/></r>"
  with
  | Tree.Document [ Tree.Element { children; _ } ] ->
      let rec uris = function
        | Tree.Element { name; children; _ } ->
            name.Qname.uri :: List.concat_map uris children
        | _ -> []
      in
      check (Alcotest.list string_) "uris in document order"
        [ "urn:1"; "urn:2"; "urn:1"; "urn:2"; "urn:1" ]
        (List.concat_map uris children)
  | _ -> Alcotest.fail "shape"

let test_serialize_escaping () =
  let t = Tree.elem (Qname.make "a") ~attrs:[ Tree.attr (Qname.make "x") "a\"<b" ]
      [ Tree.Text "1 < 2 & 3" ] in
  check string_ "escaped" "<a x=\"a&quot;&lt;b\">1 &lt; 2 &amp; 3</a>"
    (Serialize.to_string t)

let test_roundtrip_preserves_structure () =
  let src =
    "<films><film genre=\"action\"><name>The Rock</name><actor>Sean \
     Connery</actor></film><!--note--><film><name>Goldfinger</name></film></films>"
  in
  let t1 = parse src in
  let t2 = parse (Serialize.to_string t1) in
  check bool_ "stable" true (Tree.equal t1 t2)

(* ------------------------------------------------------------------ *)
(* Store: shredding and axes                                           *)
(* ------------------------------------------------------------------ *)

let film_store () =
  Store.shred ~uri:"filmDB.xml"
    (parse Xrpc_workloads.Filmdb.film_db_xml)

let test_store_counts () =
  let t = parse Xrpc_workloads.Filmdb.film_db_xml in
  check int_ "node count" (Tree.node_count t)
    (Store.node_count (Store.shred ~uri:"filmDB.xml" t))

let test_store_children_descendants () =
  let s = film_store () in
  let root = Store.root s in
  let films =
    match Store.children root with [ f ] -> f | _ -> Alcotest.fail "one child"
  in
  check int_ "three films" 3 (List.length (Store.children films));
  (* descendants of <films>: 3 film + 6 name/actor + 6 text *)
  check int_ "descendants" 15 (List.length (Store.descendants films))

let test_store_parent_ancestors () =
  let s = film_store () in
  let films = List.hd (Store.children (Store.root s)) in
  let film1 = List.hd (Store.children films) in
  (match Store.parent film1 with
  | Some p -> check bool_ "parent is films" true (Store.equal_nodes p films)
  | None -> Alcotest.fail "no parent");
  check int_ "ancestors" 2 (List.length (Store.ancestors film1))

let test_store_siblings_following () =
  let s = film_store () in
  let films = List.hd (Store.children (Store.root s)) in
  match Store.children films with
  | [ f1; f2; f3 ] ->
      check int_ "following siblings" 2 (List.length (Store.following_siblings f1));
      check int_ "preceding siblings" 2 (List.length (Store.preceding_siblings f3));
      check bool_ "following excludes descendants" true
        (List.for_all
           (fun n -> n.Store.pre > f2.Store.pre + s.Store.size.(f2.Store.pre))
           (Store.following f2));
      check bool_ "preceding excludes ancestors" true
        (not
           (List.exists (fun n -> Store.equal_nodes n films) (Store.preceding f2)))
  | _ -> Alcotest.fail "three films"

let test_store_attributes () =
  let s = Store.shred (parse "<a x=\"1\" y=\"2\"><b z=\"3\"/></a>") in
  let a = List.hd (Store.children (Store.root s)) in
  check int_ "a attrs" 2 (List.length (Store.attributes a));
  (* children must not include attributes *)
  check int_ "a children" 1 (List.length (Store.children a));
  let at = List.hd (Store.attributes a) in
  check string_ "attr value" "1" (Store.string_value at)

let test_store_string_value () =
  let s = film_store () in
  let films = List.hd (Store.children (Store.root s)) in
  let f1 = List.hd (Store.children films) in
  check string_ "concat text" "The RockSean Connery" (Store.string_value f1)

(* Regression: Store.preceding and Store.string_value must stay linear in
   the scanned range.  Correctness is checked against naive recomputations
   on a deep document (the worst case for the old List.mem ancestor test),
   and a growth-ratio check locks in the asymptotics: 8x the nodes must not
   cost more than ~8x the time (quadratic behavior would cost ~64x). *)

let deep_chain depth =
  (* [depth] nested elements, each with a text node before the nested child:
     preceding of the innermost element is the depth-1 text nodes, and its
     ancestor set is the depth-1 enclosing elements *)
  let rec go d =
    if d = 0 then Tree.Text "x"
    else
      Tree.Element
        { name = Qname.make "e"; attrs = []; children = [ Tree.Text "t"; go (d - 1) ] }
  in
  Store.shred (go depth)

let deepest_elem s =
  (* last Elem in preorder: the innermost of the chain *)
  let n = Store.node_count s - 1 in
  let rec find pre =
    if pre < 0 then Alcotest.fail "no elem"
    else
      let node = { Store.store = s; pre } in
      if Store.kind node = Store.Elem then node else find (pre - 1)
  in
  find n

let test_preceding_deep_correct () =
  let s = deep_chain 200 in
  let n = deepest_elem s in
  (* on a pure chain every node before [n] is an ancestor or its text;
     preceding must contain exactly the non-ancestor, non-attribute nodes *)
  let naive =
    List.filter
      (fun pre ->
        s.Store.kind.(pre) <> Store.Attr
        && not
             (List.exists
                (fun a -> a.Store.pre = pre)
                (Store.ancestors n)))
      (List.init n.Store.pre (fun i -> i))
  in
  check (Alcotest.list int_) "preceding = naive"
    naive
    (List.map (fun p -> p.Store.pre) (Store.preceding n))

let time_min_ms reps f =
  (* best of 3 trials of [reps] runs — robust against scheduler noise *)
  let trial () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let a = trial () and b = trial () and c = trial () in
  min a (min b c)

let test_preceding_linear () =
  let small = deep_chain 1000 and big = deep_chain 8000 in
  let ns = deepest_elem small and nb = deepest_elem big in
  check int_ "small preceding size" 999 (List.length (Store.preceding ns));
  check int_ "big preceding size" 7999 (List.length (Store.preceding nb));
  let t_small = time_min_ms 20 (fun () -> Store.preceding ns) in
  let t_big = time_min_ms 20 (fun () -> Store.preceding nb) in
  (* 8x nodes: linear ≈ 8x (generous bound 24x); the old O(n·depth) scan
     would be ≈ 64x *)
  check bool_
    (Printf.sprintf "preceding growth ratio %.1f < 24" (t_big /. t_small))
    true
    (t_big < 24. *. (max t_small 0.001))

let test_string_value_linear () =
  let wide k =
    Store.shred
      (Tree.Element
         {
           name = Qname.make "doc";
           attrs = [];
           children = List.init k (fun _ -> Tree.Text "ab");
         })
  in
  let small = wide 1000 and big = wide 8000 in
  check int_ "small length" 2000
    (String.length (Store.string_value (Store.root small)));
  check int_ "big length" 16000
    (String.length (Store.string_value (Store.root big)));
  let t_small = time_min_ms 50 (fun () -> Store.string_value (Store.root small)) in
  let t_big = time_min_ms 50 (fun () -> Store.string_value (Store.root big)) in
  check bool_
    (Printf.sprintf "string_value growth ratio %.1f < 24" (t_big /. t_small))
    true
    (t_big < 24. *. (max t_small 0.001))

let test_store_to_tree_roundtrip () =
  let tree = parse Xrpc_workloads.Filmdb.film_db_xml in
  let s = Store.shred tree in
  check bool_ "roundtrip" true (Tree.equal tree (Store.to_tree (Store.root s)))

let test_doc_order_across_stores () =
  let s1 = Store.shred (parse "<a/>") in
  let s2 = Store.shred (parse "<b/>") in
  check bool_ "earlier store first" true
    (Store.compare_nodes (Store.root s1) (Store.root s2) < 0)

(* ------------------------------------------------------------------ *)
(* Xdm                                                                 *)
(* ------------------------------------------------------------------ *)

let test_xdm_ebv () =
  check bool_ "empty" false (Xdm.ebv []);
  check bool_ "node" true
    (Xdm.ebv [ Xdm.Node (Store.root (film_store ())) ]);
  check bool_ "false atom" false (Xdm.ebv [ Xdm.bool false ]);
  Alcotest.check_raises "multi-atom ebv"
    (Xdm.Dynamic_error "FORG0006: invalid argument to effective boolean value")
    (fun () -> ignore (Xdm.ebv [ Xdm.int 1; Xdm.int 2 ]))

let test_xdm_dedup () =
  let s = film_store () in
  let films = List.hd (Store.children (Store.root s)) in
  let kids = Store.children films in
  let doubled = kids @ List.rev kids in
  check int_ "dedup" 3 (List.length (Xdm.doc_order_dedup doubled));
  check bool_ "sorted" true
    (Xdm.doc_order_dedup doubled = kids)

let test_xdm_deep_equal () =
  let s1 = Store.shred (parse "<a><b>x</b></a>") in
  let s2 = Store.shred (parse "<a><b>x</b></a>") in
  let s3 = Store.shred (parse "<a><b>y</b></a>") in
  check bool_ "equal trees, different identity" true
    (Xdm.deep_equal [ Xdm.Node (Store.root s1) ] [ Xdm.Node (Store.root s2) ]);
  check bool_ "different trees" false
    (Xdm.deep_equal [ Xdm.Node (Store.root s1) ] [ Xdm.Node (Store.root s3) ])

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(oneofl [ "a"; "b"; "item"; "film"; "name"; "x1"; "long-name" ])

let gen_text =
  QCheck.Gen.(
    map
      (fun ws -> String.concat " " ws)
      (list_size (int_range 1 4)
         (oneofl [ "alpha"; "<"; "&"; "beta"; "\"q\""; "42"; "]]>" ])))

let gen_tree =
  QCheck.Gen.(
    sized_size (int_range 0 5) (fix (fun self n ->
        if n = 0 then map (fun s -> Tree.Text s) gen_text
        else
          frequency
            [
              (2, map (fun s -> Tree.Text s) gen_text);
              (1, map (fun s -> Tree.Comment s) gen_text);
              ( 4,
                map3
                  (fun name attrs children ->
                    Tree.Element
                      {
                        name = Qname.make name;
                        attrs =
                          List.mapi
                            (fun i v ->
                              Tree.attr (Qname.make (Printf.sprintf "a%d" i)) v)
                            attrs;
                        children;
                      })
                  gen_name
                  (list_size (int_range 0 2) gen_text)
                  (list_size (int_range 0 3) (self (n / 2))) );
            ])))

let arbitrary_element =
  QCheck.make
    ~print:(fun t -> Serialize.to_string t)
    QCheck.Gen.(
      map3
        (fun name attrs children ->
          Tree.Element
            {
              name = Qname.make name;
              attrs =
                List.mapi
                  (fun i v -> Tree.attr (Qname.make (Printf.sprintf "a%d" i)) v)
                  attrs;
              children;
            })
        gen_name
        (list_size (int_range 0 3) gen_text)
        (list_size (int_range 0 4) gen_tree))

(* adjacent text nodes legitimately merge on reparse; normalize first *)
let rec normalize = function
  | Tree.Element { name; attrs; children } ->
      Tree.Element { name; attrs; children = normalize_children children }
  | Tree.Document cs -> Tree.Document (normalize_children cs)
  | t -> t

and normalize_children cs =
  let rec go = function
    | Tree.Text a :: Tree.Text b :: rest -> go (Tree.Text (a ^ b) :: rest)
    | c :: rest -> normalize c :: go rest
    | [] -> []
  in
  go cs

(* parse (serialize t) == t for trees without ignorable whitespace *)
let prop_serialize_parse_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip" ~count:200
    arbitrary_element (fun t ->
      match Xml_parse.document ~preserve_space:true (Serialize.to_string t) with
      | Tree.Document [ t' ] -> Tree.equal (normalize t) t'
      | _ -> false)

(* shredding preserves the tree *)
let prop_shred_to_tree =
  QCheck.Test.make ~name:"shred/to_tree roundtrip" ~count:200 arbitrary_element
    (fun t -> Tree.equal t (Store.to_tree (Store.root (Store.shred t))))

(* parent of every child is the node itself; descendants count = size minus
   attributes *)
let prop_axes_consistent =
  QCheck.Test.make ~name:"children/parent consistency" ~count:200
    arbitrary_element (fun t ->
      let s = Store.shred t in
      let rec walk n =
        List.for_all
          (fun c ->
            (match Store.parent c with
            | Some p -> Store.equal_nodes p n
            | None -> false)
            && walk c)
          (Store.children n)
      in
      walk (Store.root s))

(* document order = preorder: descendants are contiguous *)
let prop_descendants_contiguous =
  QCheck.Test.make ~name:"descendants contiguous" ~count:200 arbitrary_element
    (fun t ->
      let s = Store.shred t in
      let rec walk n =
        let ds = Store.descendants n in
        List.for_all
          (fun d -> d.Store.pre > n.Store.pre
                    && d.Store.pre <= n.Store.pre + s.Store.size.(n.Store.pre))
          ds
        && List.for_all walk (Store.children n)
      in
      walk (Store.root s))

let () =
  Alcotest.run "xml"
    [
      ( "qname",
        [
          Alcotest.test_case "basics" `Quick test_qname_basics;
          Alcotest.test_case "split" `Quick test_qname_split;
        ] );
      ( "xs",
        [
          Alcotest.test_case "lexical" `Quick test_xs_lexical;
          Alcotest.test_case "parse" `Quick test_xs_parse;
          Alcotest.test_case "arith promotion" `Quick test_xs_arith_promotion;
          Alcotest.test_case "compare" `Quick test_xs_compare;
          Alcotest.test_case "cast" `Quick test_xs_cast;
        ] );
      ( "parse",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "namespaces" `Quick test_parse_namespaces;
          Alcotest.test_case "comments and PIs" `Quick test_parse_comments_pis;
          Alcotest.test_case "doctype skipped" `Quick test_parse_doctype_skipped;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "character references" `Quick test_parse_char_refs;
          Alcotest.test_case "well-formedness" `Quick test_parse_well_formed;
          Alcotest.test_case "name rebinding" `Quick test_parse_name_rebinding;
          Alcotest.test_case "depth bound" `Quick test_parse_depth_bound;
          Alcotest.test_case "attribute bound" `Quick test_parse_attribute_bound;
          Alcotest.test_case "many namespace declarations" `Quick
            test_parse_many_ns_decls;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "escaping" `Quick test_serialize_escaping;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_preserves_structure;
        ] );
      ( "store",
        [
          Alcotest.test_case "counts" `Quick test_store_counts;
          Alcotest.test_case "children/descendants" `Quick
            test_store_children_descendants;
          Alcotest.test_case "parent/ancestors" `Quick test_store_parent_ancestors;
          Alcotest.test_case "siblings/following" `Quick
            test_store_siblings_following;
          Alcotest.test_case "attributes" `Quick test_store_attributes;
          Alcotest.test_case "string value" `Quick test_store_string_value;
          Alcotest.test_case "preceding deep correct" `Quick
            test_preceding_deep_correct;
          Alcotest.test_case "preceding linear" `Slow test_preceding_linear;
          Alcotest.test_case "string_value linear" `Slow
            test_string_value_linear;
          Alcotest.test_case "to_tree roundtrip" `Quick test_store_to_tree_roundtrip;
          Alcotest.test_case "doc order across stores" `Quick
            test_doc_order_across_stores;
        ] );
      ( "xdm",
        [
          Alcotest.test_case "ebv" `Quick test_xdm_ebv;
          Alcotest.test_case "dedup" `Quick test_xdm_dedup;
          Alcotest.test_case "deep equal" `Quick test_xdm_deep_equal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_serialize_parse_roundtrip;
            prop_shred_to_tree;
            prop_axes_consistent;
            prop_descendants_contiguous;
          ] );
    ]
