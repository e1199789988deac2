(* Tests for the relational algebra (Table 1), loop-lifted evaluation
   (§3.1, query Q5) and the Figure-1/Figure-2 Bulk RPC translation. *)

open Xrpc_xml
module Table = Xrpc_algebra.Table
module Ops = Xrpc_algebra.Ops
module Looplift = Xrpc_algebra.Looplift
module Bulk_rpc = Xrpc_algebra.Bulk_rpc
module Message = Xrpc_soap.Message
module Parser = Xrpc_xquery.Parser

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let iii rows =
  Table.make [ "iter"; "pos"; "item" ]
    (List.map
       (fun (i, p, v) -> [ Table.Int i; Table.Int p; Table.Item (Xdm.str v) ])
       rows)

(* ------------------------------------------------------------------ *)
(* Table 1 operators                                                   *)
(* ------------------------------------------------------------------ *)

let test_select () =
  let t =
    Table.make [ "iter"; "b" ]
      [
        [ Table.Int 1; Table.Item (Xdm.bool true) ];
        [ Table.Int 2; Table.Item (Xdm.bool false) ];
        [ Table.Int 3; Table.Item (Xdm.bool true) ];
      ]
  in
  check int_ "sigma keeps true rows" 2 (Table.cardinality (Ops.select t "b"))

let test_select_eq () =
  let t = iii [ (1, 1, "y"); (2, 1, "z"); (3, 1, "y") ] in
  check int_ "item=y" 2
    (Table.cardinality (Ops.select_eq t "item" (Table.Item (Xdm.str "y"))))

let test_project_rename () =
  let t = iii [ (1, 1, "a") ] in
  let p = Ops.project t [ ("outer", "iter"); ("v", "item") ] in
  check (Alcotest.list string_) "renamed columns" [ "outer"; "v" ]
    (Table.col_names p);
  check int_ "no dedup" 1 (Table.cardinality p)

let test_project_no_dedup () =
  let t = iii [ (1, 1, "a"); (2, 1, "a") ] in
  (* project drops iter; duplicate rows must remain (π has no dedup) *)
  check int_ "pi keeps dups" 2
    (Table.cardinality (Ops.project t [ ("item", "item") ]))

let test_distinct () =
  let t = iii [ (1, 1, "a"); (2, 1, "a"); (1, 1, "a") ] in
  check int_ "delta over full rows" 2
    (Table.cardinality (Ops.distinct t));
  check int_ "delta over item column" 1
    (Table.cardinality (Ops.distinct (Ops.project t [ ("item", "item") ])))

let test_union () =
  let a = iii [ (1, 1, "a") ] and b = iii [ (2, 1, "b") ] in
  check int_ "disjoint union" 2 (Table.cardinality (Ops.union a b));
  Alcotest.check_raises "schema mismatch"
    (Table.Schema_error "union of incompatible schemas") (fun () ->
      ignore (Ops.union a (Ops.project b [ ("item", "item") ])))

let test_equi_join () =
  let a = iii [ (1, 1, "x"); (2, 1, "y") ] in
  let m =
    Table.make [ "outer"; "inner" ]
      [ [ Table.Int 1; Table.Int 10 ]; [ Table.Int 1; Table.Int 11 ] ]
  in
  let j = Ops.equi_join m "outer" a "iter" in
  check int_ "join cardinality" 2 (Table.cardinality j);
  check (Alcotest.list string_) "join schema"
    [ "outer"; "inner"; "iter"; "pos"; "item" ] (Table.col_names j)

let test_rank_dense () =
  let t = iii [ (3, 1, "c"); (1, 1, "a"); (3, 2, "d"); (2, 1, "b") ] in
  let r = Ops.rank t ~new_col:"rk" ~order_by:[ "iter"; "pos" ] () in
  let ranks =
    List.init (Table.cardinality r) (fun i ->
        Table.int_cell (Table.cell r i "rk"))
  in
  (* rows keep their order; ranks follow (iter,pos) sort: (3,1)->3,(1,1)->1,(3,2)->4,(2,1)->2 *)
  check (Alcotest.list int_) "dense rank" [ 3; 1; 4; 2 ] ranks

let test_rank_partitioned () =
  let t = iii [ (1, 1, "a"); (1, 2, "b"); (2, 1, "c"); (2, 2, "d") ] in
  let r = Ops.rank t ~new_col:"rk" ~order_by:[ "pos" ] ~partition:"iter" () in
  let ranks =
    List.init (Table.cardinality r) (fun i ->
        Table.int_cell (Table.cell r i "rk"))
  in
  check (Alcotest.list int_) "restart per partition" [ 1; 2; 1; 2 ] ranks

let test_sequence_encoding () =
  (* §3.1: item/singleton/empty sequence encodings *)
  let t = Table.of_sequences [ (1, [ Xdm.int 7 ]); (2, []) ] in
  check int_ "single row for singleton" 1 (Table.cardinality t);
  check int_ "empty sequence absent" 0
    (List.length (Table.sequence_of t ~iter:2));
  check bool_ "loop relation tracks iters" true (Table.iters t = [ 1 ])

(* ------------------------------------------------------------------ *)
(* Q5 loop-lifting (§3.1)                                              *)
(* ------------------------------------------------------------------ *)

let dummy_call ~dest:_ _ = failwith "no network in Q5"

let test_q5_tables () =
  (* for $x in (10,20) return for $y in (100,200)
       let $z := ($x,$y) return $z *)
  let q5 =
    Parser.parse_expression
      "for $x in (10,20) return for $y in (100,200) return ($x, $y)"
  in
  let env = Looplift.make_env ~call:dummy_call () in
  let t = Looplift.eval env q5 in
  (* flattened result of iteration 1 *)
  check string_ "q5 result" "10 100 10 200 20 100 20 200"
    (Xdm.to_display (Table.sequence_of t ~iter:1))

let test_q5_inner_variable_tables () =
  (* check the paper's x/y variable tables in the inner scope: $x is
     10,10,20,20 and $y is 100,200,100,200 over iters 1..4 *)
  let inner =
    Parser.parse_expression
      "for $x in (10,20) return for $y in (100,200) return ($x * 1000 + $y)"
  in
  let env = Looplift.make_env ~call:dummy_call () in
  let t = Looplift.eval env inner in
  check string_ "inner iteration order" "10100 10200 20100 20200"
    (Xdm.to_display (Table.sequence_of t ~iter:1))

let film_store =
  lazy
    (Store.shred ~uri:"filmDB.xml"
       (Xml_parse.document Xrpc_workloads.Filmdb.film_db_xml))

let test_looplift_paths_and_constructors () =
  (* the extended loop-lifted subset: path steps with predicates, doc(),
     direct constructors, if/then/else — all checked against the
     interpreter *)
  let queries =
    [
      {|doc("filmDB.xml")//name|};
      {|doc("filmDB.xml")//name[../actor = "Sean Connery"]|};
      {|for $f in doc("filmDB.xml")//film return $f/name|};
      {|for $f in doc("filmDB.xml")//film return string($f/name)|};
      {|count(doc("filmDB.xml")/films/film[2]/name)|};
      {|for $i in (1, 2) return <hit n="{$i}">{$i * 10}</hit>|};
      {|for $f in doc("filmDB.xml")//film
        return if (contains(string($f/actor), "Connery")) then $f/name else ()|};
    ]
  in
  let doc_resolver _ = Lazy.force film_store in
  let resolver ~uri:_ ~location:_ = failwith "none" in
  List.iter
    (fun q ->
      let e = Parser.parse_expression q in
      let env = Looplift.make_env ~doc_resolver ~call:dummy_call () in
      let lifted = Looplift.run env e in
      let ctx = { (Xrpc_xquery.Context.empty ()) with
                  Xrpc_xquery.Context.doc_resolver } in
      let interp, _ = Xrpc_xquery.Runner.run ~ctx ~resolver q in
      check string_ ("looplift paths: " ^ q) (Xdm.to_display interp)
        (Xdm.to_display lifted))
    queries

let test_looplift_matches_interpreter () =
  let queries =
    [
      "for $x in (1,2,3) return $x * $x";
      "for $x in (1 to 4) return for $y in (1 to 3) return $x * $y";
      "for $x in (1,2) let $z := ($x, $x + 10) return $z";
      "for $x in (1 to 10) where $x mod 2 = 0 return $x";
      "(1, 2, (3, 4))";
    ]
  in
  let resolver ~uri:_ ~location:_ = failwith "none" in
  List.iter
    (fun q ->
      let e = Parser.parse_expression q in
      let env = Looplift.make_env ~call:dummy_call () in
      let lifted = Looplift.run env e in
      let interp, _ = Xrpc_xquery.Runner.run ~resolver q in
      check string_ ("looplift = interpreter: " ^ q)
        (Xdm.to_display interp) (Xdm.to_display lifted))
    queries

(* ------------------------------------------------------------------ *)
(* Figure 1 / Figure 2: Bulk RPC translation                           *)
(* ------------------------------------------------------------------ *)

(* the film service of the running example, answering from fixed data *)
let film_service dst_calls_log ~dest (req : Message.request) : Message.t =
  dst_calls_log := (dest, List.length req.Message.calls) :: !dst_calls_log;
  let answer actor =
    match (dest, actor) with
    | "xrpc://y.example.org", "Sean Connery" ->
        [ Xdm.str "The Rock"; Xdm.str "Goldfinger" ]
    | "xrpc://z.example.org", "Julie Andrews" -> [ Xdm.str "Sound Of Music" ]
    | _ -> []
  in
  Message.Response
    {
      resp_module = req.Message.module_uri;
      resp_method = req.Message.method_;
      results =
        List.map
          (fun call -> answer (Xdm.string_value (List.hd (List.hd call))))
          req.Message.calls;
      db_version = None;
      peers = [ dest ];
    }

let test_figure1_multiple_destinations () =
  (* Q3's inner state: 4 iterations, dst alternates y,z, actor repeats *)
  let dst =
    iii
      [
        (1, 1, "xrpc://y.example.org"); (2, 1, "xrpc://z.example.org");
        (3, 1, "xrpc://y.example.org"); (4, 1, "xrpc://z.example.org");
      ]
  in
  let actor =
    iii
      [
        (1, 1, "Julie Andrews"); (2, 1, "Julie Andrews");
        (3, 1, "Sean Connery"); (4, 1, "Sean Connery");
      ]
  in
  let log = ref [] in
  let result, trace =
    Bulk_rpc.execute ~dst ~params:[ actor ] ~module_uri:"films" ~location:""
      ~method_:"filmsByActor" ~call:(film_service log) ()
  in
  (* one Bulk RPC per destination peer, two calls each *)
  check
    (Alcotest.list (Alcotest.pair string_ int_))
    "one bulk request per peer, 2 calls each"
    [ ("xrpc://y.example.org", 2); ("xrpc://z.example.org", 2) ]
    (List.rev !log);
  (* final result table has correct iter mapping: iter2 = Sound Of Music,
     iter3 = The Rock, Goldfinger (exactly Figure 1) *)
  check string_ "iter 1 empty" "" (Xdm.to_display (Table.sequence_of result ~iter:1));
  check string_ "iter 2" "Sound Of Music"
    (Xdm.to_display (Table.sequence_of result ~iter:2));
  check string_ "iter 3" "The Rock Goldfinger"
    (Xdm.to_display (Table.sequence_of result ~iter:3));
  check string_ "iter 4 empty" "" (Xdm.to_display (Table.sequence_of result ~iter:4));
  (* intermediate tables of Figure 1 are traced *)
  let names = List.map fst trace in
  List.iter
    (fun n -> check bool_ ("trace has " ^ n) true (List.mem n names))
    [
      "dst"; "param1"; "map_xrpc://y.example.org"; "req1_xrpc://y.example.org";
      "msg_xrpc://y.example.org"; "res_xrpc://y.example.org"; "result";
    ];
  (* the map table for y: iters 1,3 -> iterp 1,2 *)
  let map_y = List.assoc "map_xrpc://y.example.org" trace in
  check
    (Alcotest.list (Alcotest.pair int_ int_))
    "map_y"
    [ (1, 1); (3, 2) ]
    (List.init (Table.cardinality map_y) (fun i ->
         ( Table.int_cell (Table.cell map_y i "iter"),
           Table.int_cell (Table.cell map_y i "iterp") )))

let test_looplift_executes_bulk_rpc () =
  (* end-to-end through the loop-lifted evaluator: Q3 *)
  let q3 =
    Parser.parse_expression
      {|for $actor in ("Julie Andrews", "Sean Connery")
        for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
        return execute at {$dst} {filmsByActor($actor)}|}
  in
  let log = ref [] in
  let env = Looplift.make_env ~call:(film_service log) () in
  let result = Looplift.run env q3 in
  check string_ "q3 results in query order"
    "Sound Of Music The Rock Goldfinger" (Xdm.to_display result);
  check int_ "two bulk requests" 2 (List.length !log)

let test_table_printing () =
  let t = iii [ (1, 1, "Julie Andrews") ] in
  let s = Table.to_string t in
  check bool_ "header" true
    (String.length s > 0 && String.sub s 0 4 = "iter")

(* ------------------------------------------------------------------ *)
(* Edge cases: every operator on empty and single-row inputs           *)
(* ------------------------------------------------------------------ *)

(* each operator must return exactly the expected table — columns and
   rows in order — when an input is empty or holds a single row *)
let check_equiv name want got =
  check (Alcotest.list string_) (name ^ ": columns") (Table.col_names want)
    (Table.col_names got);
  if Table.rows want <> Table.rows got then
    Alcotest.failf "%s: tables differ\nexpected =\n%s\ngot =\n%s" name
      (Table.to_string want) (Table.to_string got)

let test_equiv_edges () =
  let cols = [ "iter"; "pos"; "item" ] in
  let e = Table.empty cols in
  let one = iii [ (1, 1, "a") ] in
  let joined = cols @ [ "iter'"; "pos'"; "item'" ] in
  check_equiv "distinct empty" e (Ops.distinct e);
  check_equiv "distinct one" one (Ops.distinct one);
  check_equiv "select_eq empty" e (Ops.select_eq e "item" (Table.Int 1));
  check_equiv "project empty" (Table.empty [ "x" ])
    (Ops.project e [ ("x", "item") ]);
  check_equiv "join empty-empty" (Table.empty joined)
    (Ops.equi_join e "iter" e "iter");
  check_equiv "join one-empty" (Table.empty joined)
    (Ops.equi_join one "iter" e "iter");
  check_equiv "join empty-one" (Table.empty joined)
    (Ops.equi_join e "iter" one "iter");
  check_equiv "rank empty"
    (Table.empty (cols @ [ "rk" ]))
    (Ops.rank e ~new_col:"rk" ~order_by:[ "iter" ] ());
  check_equiv "rank empty partitioned"
    (Table.empty (cols @ [ "rk" ]))
    (Ops.rank e ~new_col:"rk" ~order_by:[ "pos" ] ~partition:"iter" ());
  check_equiv "rank one"
    (Table.make (cols @ [ "rk" ])
       [ [ Table.Int 1; Table.Int 1; Table.Item (Xdm.str "a"); Table.Int 1 ] ])
    (Ops.rank one ~new_col:"rk" ~order_by:[ "iter" ] ());
  check_equiv "merge_union none" e (Ops.merge_union_on_iter []);
  check_equiv "merge_union empties" e (Ops.merge_union_on_iter [ e; e ]);
  check_equiv "union empty" one (Ops.union e one)

(* ------------------------------------------------------------------ *)
(* Property: loop-lifted evaluation == interpreter on random queries   *)
(* ------------------------------------------------------------------ *)

(* generator of random expressions in the loop-lifted subset *)
let gen_query =
  let open QCheck.Gen in
  let var_names = [ "a"; "b"; "c" ] in
  let rec gen_expr vars depth =
    let atoms =
      [ map string_of_int (int_range 0 20) ]
      @ List.map (fun v -> return ("$" ^ v)) vars
    in
    if depth = 0 then oneof atoms
    else
      frequency
        [
          (2, oneof atoms);
          ( 2,
            map2
              (fun a b -> Printf.sprintf "(%s + %s)" a b)
              (gen_expr vars (depth - 1))
              (gen_expr vars (depth - 1)) );
          ( 1,
            map2
              (fun a b -> Printf.sprintf "(%s, %s)" a b)
              (gen_expr vars (depth - 1))
              (gen_expr vars (depth - 1)) );
          ( 1,
            map2
              (fun lo n -> Printf.sprintf "(%d to %d)" lo (lo + n))
              (int_range 0 5) (int_range 0 4) );
          ( 3,
            let fresh =
              List.find (fun v -> not (List.mem v vars)) var_names
            in
            map3
              (fun inseq body w ->
                Printf.sprintf "(for $%s in %s %s return %s)" fresh inseq
                  (match w with
                  | None -> ""
                  | Some m -> Printf.sprintf "where $%s mod %d = 0" fresh m)
                  body)
              (gen_expr vars (depth - 1))
              (gen_expr (fresh :: vars) (depth - 1))
              (opt (int_range 1 3)) );
          ( 1,
            let fresh =
              List.find (fun v -> not (List.mem v vars)) var_names
            in
            map2
              (fun bound body ->
                Printf.sprintf "(let $%s := %s return %s)" fresh bound body)
              (gen_expr vars (depth - 1))
              (gen_expr (fresh :: vars) (depth - 1)) );
        ]
  in
  gen_expr [] 3

let prop_looplift_equiv_interpreter =
  QCheck.Test.make ~name:"looplift == interpreter (random queries)" ~count:200
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun q ->
      let resolver ~uri:_ ~location:_ = failwith "none" in
      match
        ( (try
             let e = Parser.parse_expression q in
             let env = Looplift.make_env ~call:dummy_call () in
             Ok (Xdm.to_display (Looplift.run env e))
           with Looplift.Unsupported _ -> Error `Unsupported),
          lazy (Xdm.to_display (fst (Xrpc_xquery.Runner.run ~resolver q))) )
      with
      | Error `Unsupported, _ -> QCheck.assume_fail ()
      | Ok lifted, interp -> lifted = Lazy.force interp)

let () =
  Alcotest.run "algebra"
    [
      ( "table1-operators",
        [
          Alcotest.test_case "sigma" `Quick test_select;
          Alcotest.test_case "sigma item=value" `Quick test_select_eq;
          Alcotest.test_case "pi rename" `Quick test_project_rename;
          Alcotest.test_case "pi keeps duplicates" `Quick test_project_no_dedup;
          Alcotest.test_case "delta" `Quick test_distinct;
          Alcotest.test_case "disjoint union" `Quick test_union;
          Alcotest.test_case "equi-join" `Quick test_equi_join;
          Alcotest.test_case "rank dense" `Quick test_rank_dense;
          Alcotest.test_case "rank partitioned" `Quick test_rank_partitioned;
          Alcotest.test_case "sequence encoding" `Quick test_sequence_encoding;
        ] );
      ( "loop-lifting",
        [
          Alcotest.test_case "Q5 result" `Quick test_q5_tables;
          Alcotest.test_case "Q5 iteration order" `Quick
            test_q5_inner_variable_tables;
          Alcotest.test_case "looplift = interpreter" `Quick
            test_looplift_matches_interpreter;
          Alcotest.test_case "looplift paths + constructors" `Quick
            test_looplift_paths_and_constructors;
        ] );
      ( "bulk-rpc",
        [
          Alcotest.test_case "Figure 1 multiple destinations" `Quick
            test_figure1_multiple_destinations;
          Alcotest.test_case "Q3 via looplift" `Quick
            test_looplift_executes_bulk_rpc;
          Alcotest.test_case "table printing" `Quick test_table_printing;
        ] );
      ( "kernel-equivalence",
        [ Alcotest.test_case "edge cases" `Quick test_equiv_edges ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_looplift_equiv_interpreter ] );
    ]
