(* A conformance-style corpus for the XQuery engine: each case exercises a
   distinct language behaviour not already covered by test_xquery.ml —
   interactions between features, boundary conditions, and error cases.
   Run against a small library database. *)

open Xrpc_xml
module Context = Xrpc_xquery.Context
module Runner = Xrpc_xquery.Runner
module Parser = Xrpc_xquery.Parser

let check = Alcotest.check
let string_ = Alcotest.string

let library_xml =
  {|<library xmlns:cat="urn:catalog">
  <shelf floor="1">
    <book year="1999" cat:id="b1"><title>Principles of DDBS</title><price>80.5</price>
      <authors><author>Ozsu</author><author>Valduriez</author></authors></book>
    <book year="2004" cat:id="b2"><title>XQuery on SQL Hosts</title><price>35</price>
      <authors><author>Grust</author></authors></book>
  </shelf>
  <shelf floor="2">
    <book year="2007" cat:id="b3"><title>XRPC</title><price>0</price>
      <authors><author>Zhang</author><author>Boncz</author></authors></book>
  </shelf>
</library>|}

let store = lazy (Store.shred ~uri:"library.xml" (Xml_parse.document library_xml))

let resolver ~uri:_ ~location:_ = failwith "no modules"

let run q =
  let ctx =
    { (Context.empty ()) with Context.doc_resolver = (fun _ -> Lazy.force store) }
  in
  let result, _ = Runner.run ~ctx ~resolver q in
  Xdm.to_display result

let cases =
  [
    (* --- path / predicate interactions --- *)
    ("predicate chaining", {|count(doc("l")//book[price < 50][@year > 2000])|}, "2");
    ("predicate on attribute step", {|string(doc("l")//shelf/@floor[. = "2"])|}, "2");
    ("numeric predicate after filter", {|string((doc("l")//author)[3])|}, "Grust");
    ("last in nested predicate",
     {|doc("l")//book[authors/author[last()] = "Boncz"]/string(title)|}, "XRPC");
    ("axis after predicate",
     {|string(doc("l")//book[@year = 2004]/following-sibling::*[1]/@year)|}, "");
    ("parent of attribute",
     {|count(doc("l")//@year/..)|}, "3");
    ("descendant-or-self on element",
     {|count(doc("l")//shelf[1]/descendant-or-self::*)|}, "12");
    ("per-step positional + attribute wildcard",
     {|count(doc("l")//book[1]/@*)|}, "4"); (* //book[1] = first PER shelf *)
    ("attribute wildcard", {|count((doc("l")//book)[1]/@*)|}, "2");
    ("namespace-sensitive attribute",
     {|declare namespace cat = "urn:catalog";
       string(doc("l")//book[title = "XRPC"]/@cat:id)|}, "b3");
    ("namespace-uri of prefixed attribute",
     {|declare namespace cat = "urn:catalog";
       namespace-uri(exactly-one((doc("l")//book)[1]/@cat:id))|}, "urn:catalog");
    ("path result is document-ordered",
     {|string-join(doc("l")//book[price >= 0]/string(@year), " ")|},
     "1999 2004 2007");
    ("union across shelves",
     {|count(doc("l")//shelf[1]/book | doc("l")//shelf[2]/book)|}, "3");
    ("except attribute nodes",
     {|count(doc("l")//book/@* except doc("l")//book/@year)|}, "3");
    (* --- FLWOR interactions --- *)
    ("let rebinding shadows",
     "let $x := 1 let $x := $x + 1 return $x", "2");
    ("for over path with positional",
     {|for $b at $i in doc("l")//book return concat($i, ":", $b/@year)|},
     "1:1999 2:2004 3:2007");
    ("order by computed key",
     {|for $b in doc("l")//book order by number($b/price) return string($b/@year)|},
     "2007 2004 1999");
    ("order by string key descending",
     {|for $a in doc("l")//author order by string($a) descending return string($a)|},
     "Zhang Valduriez Ozsu Grust Boncz");
    ("where with and/or",
     {|for $b in doc("l")//book where $b/price > 10 and $b/@year < 2005 return string($b/title)|},
     "Principles of DDBS XQuery on SQL Hosts");
    ("nested flwor correlated",
     {|for $s in doc("l")//shelf
       for $b in $s/book
       return concat($s/@floor, "-", $b/@year)|},
     "1-1999 1-2004 2-2007");
    ("flwor over empty binds nothing", "for $x in () return 1", "");
    ("let of empty", "let $x := () return count($x)", "0");
    ("multiple variables one for",
     "for $x in (1,2), $y in (10,20) return $x + $y", "11 21 12 22");
    (* --- aggregation + arithmetic --- *)
    ("sum over prices", {|sum(doc("l")//price)|}, "115.5");
    ("avg of mapped values",
     {|avg(for $b in doc("l")//book return $b/@year * 1)|}, "2003.33333333");
    ("max over attribute", {|max(doc("l")//book/@year)|}, "2007");
    ("count distinct authors", {|count(distinct-values(doc("l")//author))|}, "5");
    ("arithmetic with untyped node",
     {|exactly-one((doc("l")//book)[1]/price) + 0.5|}, "81");
    ("unary minus chain", "-(-(5))", "5");
    ("modulo negative", "-7 mod 2", "-1");
    ("decimal precision", "0.1 + 0.2 < 0.31", "true");
    ("empty operand yields empty", "count(1 + ())", "0");
    (* --- comparisons --- *)
    ("general comparison node vs number", {|doc("l")//price > 80|}, "true");
    ("value comparison via string", {|"b" ge "a"|}, "true");
    ("node identity same node",
     {|let $b := (doc("l")//book)[1] return $b is $b|}, "true");
    ("node identity different nodes",
     {|(doc("l")//book)[1] is (doc("l")//book)[2]|}, "false");
    ("document order operator",
     {|(doc("l")//book)[1] << (doc("l")//book)[3]|}, "true");
    ("constructed nodes compare by creation order",
     {|let $a := <a/> let $b := <b/> return $a << $b|}, "true");
    (* --- constructors --- *)
    ("attribute from attribute node",
     {|<copy>{(doc("l")//book)[1]/@year}</copy>|}, {|<copy year="1999"/>|});
    ("element copy loses original identity",
     {|let $t := (doc("l")//title)[1]
       let $c := <w>{$t}</w>
       return exactly-one($c/title) is $t|}, "false");
    ("computed element with QName from data",
     {|element {concat("tag", "1")} {"x"}|}, "<tag1>x</tag1>");
    ("nested direct constructors with exprs",
     {|<r>{for $i in 1 to 2 return <i v="{$i}"/>}</r>|},
     {|<r><i v="1"/><i v="2"/></r>|});
    ("text node merging in content",
     {|count((<t>{"a", "b"}</t>)/text())|}, "1");
    ("document node constructor",
     {|count(document {<a/>, <b/>}/node())|}, "2");
    ("namespaced constructor",
     {|declare namespace my = "urn:mine";
       namespace-uri(<my:e/>)|}, "urn:mine");
    (* --- typeswitch / instance of / casts --- *)
    ("typeswitch on node kind",
     {|typeswitch ((doc("l")//title)[1])
       case element() return "elem" case text() return "text" default return "?"|},
     "elem");
    ("typeswitch binds case variable",
     {|typeswitch (5) case $i as xs:integer return $i * 2 default return 0|},
     "10");
    ("instance of node sequence",
     {|doc("l")//book instance of element()+|}, "true");
    ("instance of mixed fails",
     {|(1, <a/>) instance of xs:integer+|}, "false");
    ("castable chain guard",
     {|for $s in ("3", "x", "5") return if ($s castable as xs:integer) then xs:integer($s) else -1|},
     "3 -1 5");
    ("cast empty with ?", {|count(() cast as xs:integer?)|}, "0");
    ("treat as passes", "(1, 2) treat as xs:integer+", "1 2");
    (* --- functions --- *)
    ("function sees no outer context",
     {|declare function local:f() { count(()) };
       doc("l")//book/local:f()|}, "0 0 0");
    ("recursion depth moderate",
     {|declare function local:down($n) { if ($n = 0) then 0 else local:down($n - 1) };
       local:down(500)|}, "0");
    ("higher arity distinct from lower",
     {|declare function local:g($a) { $a };
       declare function local:g($a, $b) { $a * $b };
       (local:g(3), local:g(3, 4))|}, "3 12");
    ("string of empty via function", {|string-join(for $x in () return "a", "-")|}, "");
    (* --- quantifiers --- *)
    ("some over path", {|some $p in doc("l")//price satisfies $p = 0|}, "true");
    ("every over path", {|every $b in doc("l")//book satisfies count($b/authors/author) >= 1|},
     "true");
    ("quantifier over empty", "every $x in () satisfies false()", "true");
    ("some over empty", "some $x in () satisfies true()", "false");
    (* --- builtin conformance: strings --- *)
    ("substring from", {|substring("distributed", 4)|}, "tributed");
    ("substring from length", {|substring("distributed", 4, 3)|}, "tri");
    ("substring start before 1", {|substring("abcde", 0)|}, "abcde");
    ("substring start 0 clips length", {|substring("abcde", 0, 3)|}, "ab");
    ("substring past the end", {|substring("abc", 10)|}, "");
    ("substring length past the end", {|substring("abcde", 2, 100)|}, "bcde");
    ("substring non-positive length", {|substring("abcde", 3, -1)|}, "");
    ("substring of empty sequence", {|substring((), 2)|}, "");
    ("contains hit", {|contains("loop-lifted", "lift")|}, "true");
    ("contains empty needle", {|contains("abc", "")|}, "true");
    ("contains in empty string", {|contains("", "a")|}, "false");
    ("contains empty in empty", {|contains((), ())|}, "true");
    ("contains over node content",
     {|contains(string((doc("l")//title)[2]), "SQL")|}, "true");
    (* --- builtin conformance: numerics --- *)
    ("round down", "round(2.4)", "2");
    ("round up", "round(2.6)", "3");
    ("round negative", "round(-2.6)", "-3");
    ("round integer passthrough", "round(7)", "7");
    ("round of empty is empty", "count(round(()))", "0");
    ("round of untyped node", {|round((doc("l")//price)[1])|}, "81");
    (* --- builtin conformance: sequences --- *)
    ("empty of empty", "empty(())", "true");
    ("empty of one", "empty(0)", "false");
    ("empty of missing path", {|empty(doc("l")//nosuch)|}, "true");
    ("exists of nodes", {|exists(doc("l")//book)|}, "true");
    ("exists of empty", "exists(())", "false");
    ("reverse atomics", "reverse((1, 2, 3))", "3 2 1");
    ("reverse of empty", "count(reverse(()))", "0");
    ("reverse keeps nodes whole",
     {|string((reverse(doc("l")//book))[1]/@year)|}, "2007");
    ("reverse of strings",
     {|string-join(reverse(for $a in doc("l")//author return string($a)), " ")|},
     "Boncz Zhang Grust Valduriez Ozsu");
    ("index-of all positions", "index-of((10, 20, 30, 20), 20)", "2 4");
    ("index-of over empty sequence", "count(index-of((), 1))", "0");
    ("index-of skips incomparable items", {|index-of((1, "a", 2, 1), 1)|}, "1 4");
    ("index-of atomizes nodes", {|index-of(doc("l")//author, "Grust")|}, "3");
  ]

let error_cases =
  [
    ("ebv of two atomics", "if ((1,2)) then 1 else 0");
    ("arith on two items", "(1,2) + 1");
    ("value comparison two items", "(1,2) eq 1");
    ("exactly-one of none", "exactly-one(())");
    ("treat as violation", "(1, 2) treat as xs:integer");
    ("cast empty without ?", "() cast as xs:integer");
    ("mixed path result", {|(doc("l")//book/(title, string(@year)))|});
    ("duplicate constructed attribute (XQDY0025)",
     {|<e>{(doc("l")//book)/@year}</e>|});
    (* builtin type errors *)
    ("substring over two strings", {|substring(("a", "b"), 1)|});
    ("contains over two strings", {|contains(("a", "b"), "a")|});
    ("round over two numbers", "round((1, 2))");
    ("round of non-numeric string", {|round("abc")|});
    ("index-of empty search value", "index-of((1, 2), ())");
    ("index-of two search values", "index-of((1, 2), (1, 2))");
  ]

(* every case, lifted and unlifted: the plan cache's literal lifting
   gives the same answers and the same errors *)
let test_lifted () =
  let t = Lift_check.create [ ("l", library_xml) ] in
  List.iter
    (fun q ->
      match Lift_check.agree t q with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    (List.map (fun (_, q, _) -> q) cases @ List.map snd error_cases);
  let lifted, runs = Lift_check.share t in
  Printf.printf "%d of %d cases lifted a literal\n" lifted runs;
  Alcotest.(check bool) "some cases lift a literal" true (lifted * 4 >= runs)

let () =
  Alcotest.run "conformance"
    [
      ( "behaviours",
        List.map
          (fun (name, q, expected) ->
            Alcotest.test_case name `Quick (fun () ->
                check string_ name expected (run q)))
          cases );
      ( "dynamic-errors",
        List.map
          (fun (name, q) ->
            Alcotest.test_case name `Quick (fun () ->
                match run q with
                | exception
                    ( Xdm.Dynamic_error _ | Xrpc_xquery.Eval.Error _
                    | Xs.Type_error _ ) ->
                    ()
                | r -> Alcotest.fail (name ^ ": expected error, got " ^ r)))
          error_cases );
      ("lift", [ Alcotest.test_case "lifted = unlifted" `Quick test_lifted ]);
    ]
