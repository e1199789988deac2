(* Tests for the XQuery engine: lexer, parser, evaluation of the language
   subset, built-ins, modules, and error behaviour.  Each case runs a query
   string and compares the displayed result. *)

open Xrpc_xml
module Lexer = Xrpc_xquery.Lexer
module Parser = Xrpc_xquery.Parser
module Ast = Xrpc_xquery.Ast
module Context = Xrpc_xquery.Context
module Runner = Xrpc_xquery.Runner

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool

let film_store =
  lazy
    (Store.shred ~uri:"filmDB.xml"
       (Xml_parse.document Xrpc_workloads.Filmdb.film_db_xml))

let resolver ~uri ~location:_ =
  if uri = "films" then Xrpc_workloads.Filmdb.film_module
  else failwith ("no module " ^ uri)

let run ?(ctx = Context.empty ()) q =
  let ctx =
    { ctx with Context.doc_resolver = (fun _ -> Lazy.force film_store) }
  in
  let result, _ = Runner.run ~ctx ~resolver q in
  Xdm.to_display result

let expect name q expected () = check string_ name expected (run q)

let expect_error name q () =
  match run q with
  | exception
      ( Xdm.Dynamic_error _ | Xrpc_xquery.Eval.Error _
      | Parser.Syntax_error _ | Xs.Type_error _ ) ->
      ()
  | r -> Alcotest.fail (Printf.sprintf "%s: expected error, got %s" name r)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let collect_tokens src =
  let lx = Lexer.make src in
  let rec go acc =
    match lx.Lexer.tok with
    | Lexer.Eof -> List.rev acc
    | t ->
        Lexer.next lx;
        go (Lexer.token_to_string t :: acc)
  in
  go []

let test_lexer_basics () =
  check (Alcotest.list string_) "tokens"
    [ "for"; "$x"; "in"; "("; "1"; "to"; "3"; ")"; "return"; "$x"; "*"; "2" ]
    (collect_tokens "for $x in (1 to 3) return $x * 2")

let test_lexer_qnames_axes () =
  check (Alcotest.list string_) "axis vs qname"
    [ "child"; "::"; "a"; "/"; "f:g"; "("; ")"; "/"; "@"; "id" ]
    (collect_tokens "child::a/f:g()/@id")

let test_lexer_comments_strings () =
  check (Alcotest.list string_) "nested comments skipped"
    [ {|"a'b"|}; {|"c\"d"|} ]
    (collect_tokens "(: outer (: inner :) still :) 'a''b' \"c\"\"d\"");
  check (Alcotest.list string_) "numbers" [ "1"; "2.5"; "3."; "0.5" ]
    (collect_tokens "1 2.5 3.0e0 5.0e-1")

(* ------------------------------------------------------------------ *)
(* Parser shape                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_execute_at () =
  match Parser.parse_expression {|execute at {"xrpc://y"} {local:g(1, "a")}|} with
  | Ast.Execute_at (Ast.Literal (Xs.String "xrpc://y"), q, [ _; _ ]) ->
      check string_ "fname" "g" q.Qname.local
  | e -> Alcotest.fail ("wrong shape: " ^ Ast.expr_to_string e)

let test_parse_precedence () =
  (* 1 + 2 * 3 = 7, and comparison binds loosest *)
  check string_ "arith precedence" "7" (run "1 + 2 * 3");
  check string_ "unary minus" "-1" (run "1 - 2");
  check string_ "comparison" "true" (run "1 + 1 = 2")

let test_parse_reserved_names_as_steps () =
  (* element names that look like keywords must still work in paths *)
  let ctx = Context.empty () in
  let ctx =
    {
      ctx with
      Context.doc_resolver =
        (fun _ ->
          Store.shred (Xml_parse.document "<if><then>x</then></if>"));
    }
  in
  let r, _ = Runner.run ~ctx ~resolver {|string(doc("d")/if/then)|} in
  check string_ "keyword element names" "x" (Xdm.to_display r)

let test_parse_errors () =
  List.iter
    (fun q -> expect_error ("syntax: " ^ q) q ())
    [ "for $x in"; "1 +"; "<a>"; "if (1) then 2"; "execute at {1}" ]

(* [//T[preds]] parses as one [descendant::T[preds]] step only when every
   predicate is boolean by its syntax and asks no position() or last() of
   its own; any other form keeps descendant-or-self::node()/child::T *)
let test_parse_descendant_rewrite () =
  let rec axes = function
    | Ast.Path (a, b) -> axes a @ axes b
    | Ast.Step (ax, _, _) -> [ ax ]
    | Ast.Filter (e, _) -> axes e
    | _ -> []
  in
  let shape q = List.map Ast.axis_name (axes (Parser.parse_expression q)) in
  let one_step = [ "descendant" ] in
  List.iter
    (fun q -> check (Alcotest.list string_) q one_step (shape q))
    [ "//a"; "$x//a"; "//a[@id = 1]"; "//a[b and c]"; "//a[b or 1 = 2]";
      "//a[not(@id)]"; "//a[exists(b)]"; "//a[empty(b)]"; "//a[boolean(b)]";
      "//a[b/c]"; "//a[@id]"; "//a[b][@c]"; "//*"; "//*:a"; "//child::a";
      "//element(a)"; "//a[some $x in b satisfies $x = 1]"; "//a[b[1]]";
      "//a[b[last()] = 1]"; "//a[. = 'x']" ];
  check (Alcotest.list string_) "nested" [ "descendant"; "descendant" ]
    (shape "//a//b");
  List.iter
    (fun q ->
      check bool_ q true
        (List.mem "descendant-or-self" (shape q)
        && not (List.mem "descendant" (shape q))))
    [ "//a[1]"; "//a[last()]"; "//a[$n]"; "//@id"; "//a[position() = 1]";
      "//a[count(b) = last()]"; "//a[b][1]"; "//text()"; "//a[string(.)]";
      "//a[b/count(c)]"; "$x//a[2]"; "//a[not(position() = 1)]" ]

(* E1/E2/E3 is (E1/E2)/E3 (XPath 2.0 §3.2), also after a leading [//]:
   a later step sees its position among all nodes the path reached so
   far, not among one parent's children *)
let test_parse_leading_dslash_left_nested () =
  let ctx = Context.empty () in
  let ctx =
    {
      ctx with
      Context.doc_resolver =
        (fun _ ->
          Store.shred (Xml_parse.document "<r><a/><a/><s><a/></s></r>"));
    }
  in
  let run q = Xdm.to_display (fst (Runner.run ~ctx ~resolver q)) in
  check string_ "one descendant step" "3 3 3" (run {|doc("d")/(//a/last())|});
  check string_ "long form" "2 2" (run {|doc("d")/(//a[1]/last())|})

(* ------------------------------------------------------------------ *)
(* Core expressions                                                    *)
(* ------------------------------------------------------------------ *)

let basic_cases =
  [
    ("integer literal", "42", "42");
    ("decimal arith", "1.5 * 2", "3");
    ("division yields decimal", "7 div 2", "3.5");
    ("idiv", "7 idiv 2", "3");
    ("mod", "7 mod 2", "1");
    ("string literal escape", {|"say ""hi"""|}, {|say "hi"|});
    ("sequence flattening", "((1,2),(3,(4)))", "1 2 3 4");
    ("empty sequence", "()", "");
    ("range", "2 to 5", "2 3 4 5");
    ("reverse range empty", "5 to 2", "");
    ("if then else", "if (1 < 2) then \"y\" else \"n\"", "y");
    ("and or", "true() and (false() or true())", "true");
    ("general comparison existential", "(1,2,3) = (3,4)", "true");
    ("general comparison false", "(1,2) = (5,6)", "false");
    ("value comparison", "2 eq 2", "true");
    ("string comparison", {|"abc" < "abd"|}, "true");
    ("some quantifier", "some $x in (1,2,3) satisfies $x > 2", "true");
    ("every quantifier", "every $x in (1,2,3) satisfies $x > 0", "true");
    ("every false", "every $x in (1,2,3) satisfies $x > 1", "false");
    ("nested flwor", "for $x in (10,20) return for $y in (1,2) return $x+$y",
     "11 12 21 22");
    ("let", "let $x := 5 let $y := $x * $x return $y - $x", "20");
    ("where", "for $x in 1 to 10 where $x mod 3 = 0 return $x", "3 6 9");
    ("positional var", "for $x at $i in (\"a\",\"b\") return $i", "1 2");
    ("order by", "for $x in (3,1,2) order by $x return $x", "1 2 3");
    ("order by descending", "for $x in (3,1,2) order by $x descending return $x",
     "3 2 1");
    ("order by two keys",
     "for $p in ((1,2),(1,1),(0,9)) return ()", "");
    ("cast as", "\"17\" cast as xs:integer", "17");
    ("castable", "\"17\" castable as xs:integer", "true");
    ("castable false", "\"x\" castable as xs:integer", "false");
    ("xs constructor", "xs:integer(\"5\") + 1", "6");
    ("instance of", "(1,2) instance of xs:integer+", "true");
    ("instance of false", "(1, \"a\") instance of xs:integer*", "false");
    ("typeswitch atomic",
     "typeswitch (3.5) case xs:integer return \"i\" case xs:decimal return \"d\" default return \"o\"",
     "d");
    ("concat builtin", {|concat("a", "b", "c")|}, "abc");
    ("string-join", {|string-join(("a","b","c"), "-")|}, "a-b-c");
    ("substring", {|substring("hello", 2, 3)|}, "ell");
    ("contains", {|contains("hello", "ell")|}, "true");
    ("starts-with", {|starts-with("hello", "he")|}, "true");
    ("normalize-space", {|normalize-space("  a   b  ")|}, "a b");
    ("count", "count((1,2,3))", "3");
    ("empty", "empty(())", "true");
    ("exists", "exists((1))", "true");
    ("distinct-values", "distinct-values((1, 2, 1, 3, 2))", "1 2 3");
    ("index-of", "index-of((10,20,10), 10)", "1 3");
    ("insert-before", "insert-before((1,2,3), 2, (9))", "1 9 2 3");
    ("remove", "remove((1,2,3), 2)", "1 3");
    ("subsequence", "subsequence((1,2,3,4,5), 2, 3)", "2 3 4");
    ("reverse", "reverse((1,2,3))", "3 2 1");
    ("sum", "sum((1,2,3))", "6");
    ("avg", "avg((2,4))", "3");
    ("min max", "(min((3,1,2)), max((3,1,2)))", "1 3");
    ("floor ceiling round", "(floor(1.7), ceiling(1.2), round(1.5))", "1 2 2");
    ("abs", "abs(-3)", "3");
    ("zero-or-one ok", "zero-or-one(())", "");
    ("number of nan", "string(number(\"zzz\"))", "NaN");
    ("not", "not(())", "true");
    ("boolean of node-set", {|boolean(doc("filmDB.xml")//film)|}, "true");
    ("deep-equal", "deep-equal((1,2),(1,2))", "true");
    ("matches", {|matches("hello world", "w.rld")|}, "true");
    ("matches classes", {|matches("abc123", "[a-z]+\d+")|}, "true");
    ("matches false", {|matches("abc", "^\d+$")|}, "false");
    ("replace", {|replace("banana", "an", "X")|}, "bXXa");
    ("replace group", {|replace("ab", "(a)(b)", "$2$1")|}, "ba");
    ("tokenize", {|tokenize("a,b,,c", ",")|}, "a b  c");
    ("tokenize empty", {|tokenize("", ",")|}, "");
    ("tokenize ws", {|tokenize("the  quick brown", "\s+")|}, "the quick brown");
    ("translate", {|translate("bar", "abc", "ABC")|}, "BAr");
    ("translate removes", {|translate("-a-b-", "-", "")|}, "ab");
    ("codepoints", {|codepoints-to-string(string-to-codepoints("hi"))|}, "hi");
    ("compare", {|(compare("a","b"), compare("b","a"), compare("a","a"))|},
     "-1 1 0");
    ("intersect",
     {|count(doc("filmDB.xml")//film intersect doc("filmDB.xml")//film[actor="Sean Connery"])|},
     "2");
    ("except",
     {|string((doc("filmDB.xml")//film except doc("filmDB.xml")//film[actor="Sean Connery"])/name)|},
     "Green Card");
    ("intersect empty", {|count(doc("filmDB.xml")//film intersect ())|}, "0");
    ("date comparison", {|xs:date("2007-09-23") < xs:date("2007-09-28")|}, "true");
    ("dateTime tz-aware comparison",
     {|xs:dateTime("2007-09-23T12:00:00+02:00") = xs:dateTime("2007-09-23T10:00:00Z")|},
     "true");
    ("date order by",
     {|for $d in (xs:date("2007-12-01"), xs:date("2007-01-15"), xs:date("2006-06-30"))
       order by $d return string($d)|},
     "2006-06-30 2007-01-15 2007-12-01");
    ("date components",
     {|(year-from-date(xs:date("2007-09-23")), month-from-date(xs:date("2007-09-23")),
        day-from-date(xs:date("2007-09-23")))|},
     "2007 9 23");
    ("dateTime components",
     {|(hours-from-dateTime(xs:dateTime("2007-09-23T14:30:05")),
        minutes-from-dateTime(xs:dateTime("2007-09-23T14:30:05")),
        seconds-from-dateTime(xs:dateTime("2007-09-23T14:30:05")))|},
     "14 30 5");
    ("time components", {|hours-from-time(xs:time("23:59:01"))|}, "23");
  ]

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let path_cases =
  [
    ("descendant + predicate",
     {|doc("filmDB.xml")//name[../actor = "Sean Connery"]|},
     "<name>The Rock</name> <name>Goldfinger</name>");
    ("child steps", {|string(doc("filmDB.xml")/films/film[1]/name)|}, "The Rock");
    ("positional predicate", {|string(doc("filmDB.xml")//film[2]/name)|},
     "Goldfinger");
    ("last()", {|string(doc("filmDB.xml")//film[last()]/name)|}, "Green Card");
    ("position()", {|doc("filmDB.xml")//film[position() > 2]/string(name)|},
     "Green Card");
    ("attribute axis", {|<e a="1"/>/@a/string(.)|}, "1");
    ("parent axis", {|doc("filmDB.xml")//actor/../name/string(.)|},
     "The Rock Goldfinger Green Card");
    ("wildcard", {|count(doc("filmDB.xml")/films/*)|}, "3");
    ("local wildcard", {|count(doc("filmDB.xml")//*:actor)|}, "3");
    ("text()", {|(doc("filmDB.xml")//name/text())[1]|}, "The Rock");
    ("self axis", {|count(doc("filmDB.xml")//film/self::film)|}, "3");
    ("union dedups", {|count(doc("filmDB.xml")//film | doc("filmDB.xml")//film)|},
     "3");
    ("doc order after reverse step",
     {|doc("filmDB.xml")//actor/ancestor::film/string(name)|},
     "The Rock Goldfinger Green Card");
    ("following-sibling",
     {|string(doc("filmDB.xml")//film[1]/following-sibling::film[1]/name)|},
     "Goldfinger");
    ("preceding-sibling (reverse-axis position)",
     {|string(doc("filmDB.xml")//film[3]/preceding-sibling::film[1]/name)|},
     "Goldfinger");
    ("preceding-sibling last",
     {|string(doc("filmDB.xml")//film[3]/preceding-sibling::film[2]/name)|},
     "The Rock");
    ("node() kind test", {|count(doc("filmDB.xml")/films/node())|}, "3");
    ("predicate on filter expr", {|(1 to 10)[. mod 2 = 0]|}, "2 4 6 8 10");
    ("double slash from root", {|count(doc("filmDB.xml")//name)|}, "3");
  ]

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let constructor_cases =
  [
    ("direct element", "<a>text</a>", "<a>text</a>");
    ("nested with braces", "<a>{1 + 1}</a>", "<a>2</a>");
    ("attributes with exprs", {|<a x="v{1+1}w"/>|}, {|<a x="v2w"/>|});
    ("sequence in content", "<a>{1, 2, 3}</a>", "<a>1 2 3</a>");
    ("per-step positional predicate",
     {|count(doc("filmDB.xml")//name[1])|}, "3");
    ("node copy into constructor",
     {|<out>{(doc("filmDB.xml")//name)[1]}</out>|},
     "<out><name>The Rock</name></out>");
    ("computed element", {|element res {"x"}|}, "<res>x</res>");
    ("computed attribute", {|<e>{attribute id {42}}</e>|}, {|<e id="42"/>|});
    ("text constructor", {|<e>{text {"a"}}</e>|}, "<e>a</e>");
    ("comment constructor", {|comment {"hi"}|}, "<!--hi-->");
    ("brace escapes", "<a>{{literal}}</a>", "<a>{literal}</a>");
    ("empty element", "<a/>", "<a/>");
    ("boundary space stripped", "<a> <b/> </a>", "<a><b/></a>");
    ("constructed nodes are fresh fragments",
     "count((<a><b/></a>)/b/ancestor::*)", "1");
  ]

(* ------------------------------------------------------------------ *)
(* Functions & modules                                                 *)
(* ------------------------------------------------------------------ *)

let test_user_function () =
  check string_ "local function" "120"
    (run
       {|declare function local:fact($n as xs:integer) as xs:integer
         { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
         local:fact(5)|})

let test_mutual_recursion () =
  check string_ "mutual recursion" "true false"
    (run
       {|declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) };
         declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) };
         (local:even(10), local:odd(4))|})

let test_module_import () =
  check string_ "module function via import"
    "<name>The Rock</name> <name>Goldfinger</name>"
    (run
       {|import module namespace f="films" at "http://x.example.org/film.xq";
         f:filmsByActor("Sean Connery")|})

let test_global_variable () =
  check string_ "declared variable" "10"
    (run {|declare variable $x := 4; $x + 6|})

let test_declare_option () =
  let prog =
    Parser.parse_prog
      {|declare option xrpc:isolation "repeatable";
        declare option xrpc:timeout "17"; 1|}
  in
  let ctx = Runner.load_prolog (Context.empty ()) ~resolver prog in
  check bool_ "isolation" true (Context.isolation ctx = `Repeatable);
  check Alcotest.int "timeout" 17 (Context.timeout ctx)

let test_arity_mismatch () =
  expect_error "unknown arity"
    {|declare function local:f($x) { $x }; local:f(1, 2)|} ()

let test_unknown_function () = expect_error "unknown fn" "no:such(1)" ()
let test_undefined_variable () = expect_error "unbound var" "$nope" ()

let test_updating_flag_parsed () =
  let prog =
    Parser.parse_prog
      {|declare updating function local:u($x) { delete nodes $x }; 1|}
  in
  let f =
    List.find_map
      (function Ast.P_function f -> Some f | _ -> None)
      prog.Ast.prolog
  in
  check bool_ "updating" true (Option.get f).Ast.fn_updating

let test_is_updating_detection () =
  let ctx = Context.empty () in
  let prog = Parser.parse_prog {|delete nodes doc("filmDB.xml")//film|} in
  check bool_ "delete is updating" true (Runner.prog_is_updating ctx prog);
  let prog2 = Parser.parse_prog {|doc("filmDB.xml")//film|} in
  check bool_ "read-only" false (Runner.prog_is_updating ctx prog2)

let test_function_conversion_rules () =
  (* declared parameter types drive the XPath function conversion rules *)
  check string_ "untyped is cast to the declared type" "6"
    (run
       {|declare function local:dbl($n as xs:integer) { $n * 2 };
         local:dbl(exactly-one(<n>3</n>/self::node()))|});
  check string_ "integer promotes to double" "2.5"
    (run
       {|declare function local:half($n as xs:double) { $n div 2 };
         local:half(5)|});
  check string_ "atomization of node argument" "Sean Connery"
    (run
       {|declare function local:s($x as xs:string) { $x };
         local:s(exactly-one(doc("filmDB.xml")//film[1]/actor))|});
  expect_error "occurrence violated"
    {|declare function local:one($x as xs:integer) { $x };
      local:one((1, 2))|} ();
  expect_error "wrong type rejected"
    {|declare function local:i($x as xs:integer) { $x };
      local:i("not a number")|} ();
  expect_error "return type checked"
    {|declare function local:bad() as xs:integer { "str" };
      local:bad()|} ()

let test_xrpc_helpers () =
  check string_ "host/path helpers" "xrpc://h:99 a/b.xml"
    (run {|(xrpc:host("xrpc://h:99/a/b.xml"), xrpc:path("xrpc://h:99/a/b.xml"))|})

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* range/aggregation consistency: sum(1 to n) = n(n+1)/2 *)
let prop_sum_range =
  QCheck.Test.make ~name:"sum(1 to n)" ~count:50
    (QCheck.int_range 0 200)
    (fun n ->
      run (Printf.sprintf "sum(1 to %d)" n) = string_of_int (n * (n + 1) / 2))

(* filter/where equivalence *)
let prop_filter_where_equiv =
  QCheck.Test.make ~name:"predicate vs where" ~count:50
    (QCheck.int_range 1 60)
    (fun n ->
      run (Printf.sprintf "(1 to %d)[. mod 2 = 0]" n)
      = run (Printf.sprintf "for $x in 1 to %d where $x mod 2 = 0 return $x" n))

(* reverse . reverse = id over integer sequences *)
let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse involution" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 10) (QCheck.int_range 0 99))
    (fun xs ->
      let seq =
        "(" ^ String.concat "," (List.map string_of_int xs) ^ ")"
      in
      run (Printf.sprintf "reverse(reverse(%s))" seq) = run seq)

(* parser round-trip through evaluation determinism *)
let prop_eval_deterministic =
  QCheck.Test.make ~name:"evaluation deterministic" ~count:20
    (QCheck.oneofl
       [ "for $x in 1 to 9 return $x * $x";
         {|doc("filmDB.xml")//name/string(.)|};
         "<a>{5,6}</a>" ])
    (fun q -> run q = run q)

let () =
  Alcotest.run "xquery"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "qnames and axes" `Quick test_lexer_qnames_axes;
          Alcotest.test_case "comments and strings" `Quick
            test_lexer_comments_strings;
        ] );
      ( "parser",
        [
          Alcotest.test_case "execute at" `Quick test_parse_execute_at;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "keyword element names" `Quick
            test_parse_reserved_names_as_steps;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "// as one descendant step" `Quick
            test_parse_descendant_rewrite;
          Alcotest.test_case "leading // associates left" `Quick
            test_parse_leading_dslash_left_nested;
        ] );
      ( "expressions",
        List.map
          (fun (name, q, exp) -> Alcotest.test_case name `Quick (expect name q exp))
          basic_cases );
      ( "paths",
        List.map
          (fun (name, q, exp) -> Alcotest.test_case name `Quick (expect name q exp))
          path_cases );
      ( "constructors",
        List.map
          (fun (name, q, exp) -> Alcotest.test_case name `Quick (expect name q exp))
          constructor_cases );
      ( "functions",
        [
          Alcotest.test_case "user function" `Quick test_user_function;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "module import" `Quick test_module_import;
          Alcotest.test_case "global variable" `Quick test_global_variable;
          Alcotest.test_case "declare option" `Quick test_declare_option;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "undefined variable" `Quick test_undefined_variable;
          Alcotest.test_case "updating flag" `Quick test_updating_flag_parsed;
          Alcotest.test_case "updating detection" `Quick test_is_updating_detection;
          Alcotest.test_case "xrpc helpers" `Quick test_xrpc_helpers;
          Alcotest.test_case "function conversion rules" `Quick
            test_function_conversion_rules;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sum_range;
            prop_filter_where_equiv;
            prop_reverse_involution;
            prop_eval_deterministic;
          ] );
    ]
