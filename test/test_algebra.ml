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
(* Property: optimized kernels == Ops_reference oracle                 *)
(* ------------------------------------------------------------------ *)

module Ops_ref = Xrpc_algebra.Ops_reference

(* Every rewritten operator must return exactly the rows, in exactly the
   order, of the naive row-at-a-time reference implementation — on empty
   tables, single rows, duplicate keys, multi-partition ranks, and joins
   with clashing column names. *)

let check_equiv name ref_t opt_t =
  check (Alcotest.list string_) (name ^ ": columns") (Table.col_names ref_t)
    (Table.col_names opt_t);
  if Table.rows ref_t <> Table.rows opt_t then
    Alcotest.failf "%s: tables differ\nreference =\n%s\noptimized =\n%s" name
      (Table.to_string ref_t) (Table.to_string opt_t)

(* cell generator stressing the hash-bucket bridges: Int vs xs:integer vs
   xs:double encodings of the same number, strings "5"/"true" that collide
   with numeric/boolean keys, empty strings, booleans *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Table.Int i) (int_range 0 5));
        (3, map (fun i -> Table.Item (Xdm.int i)) (int_range 0 5));
        ( 2,
          map (fun s -> Table.Item (Xdm.str s))
            (oneofl [ "a"; "b"; "5"; "true"; "" ]) );
        (1, map (fun b -> Table.Item (Xdm.bool b)) bool);
        ( 1,
          map (fun f -> Table.Item (Xdm.Atomic (Xs.Double f)))
            (oneofl [ 0.; 1.; 2.5; 5. ]) );
      ])

(* iter/pos-style cells: integers in either encoding *)
let gen_int_cell =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Table.Int i) (int_range 0 4));
        (1, map (fun i -> Table.Item (Xdm.int i)) (int_range 0 4));
      ])

let gen_table ?(max_rows = 12) cols cell_gens =
  QCheck.Gen.(
    map
      (fun rows -> Table.make cols rows)
      (list_size (int_range 0 max_rows) (flatten_l cell_gens)))

let arb_table ?max_rows cols cell_gens =
  QCheck.make ~print:Table.to_string (gen_table ?max_rows cols cell_gens)

let equiv_test ~name ~count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count arb (fun x -> f x; true))

let abc = [ "a"; "b"; "c" ]
let abc_gens = [ gen_cell; gen_cell; gen_cell ]

let prop_distinct =
  equiv_test ~name:"distinct == reference" ~count:300 (arb_table abc abc_gens)
    (fun t -> check_equiv "distinct" (Ops_ref.distinct t) (Ops.distinct t))

let prop_select =
  equiv_test ~name:"select == reference" ~count:300 (arb_table abc abc_gens)
    (fun t -> check_equiv "select" (Ops_ref.select t "b") (Ops.select t "b"))

let prop_select_eq =
  equiv_test ~name:"select_eq == reference" ~count:300
    (QCheck.make
       ~print:(fun (t, v) ->
         Table.to_string t ^ "\n v = " ^ Table.cell_to_string v)
       QCheck.Gen.(pair (gen_table abc abc_gens) gen_cell))
    (fun (t, v) ->
      check_equiv "select_eq" (Ops_ref.select_eq t "b" v) (Ops.select_eq t "b" v))

let prop_project =
  equiv_test ~name:"project == reference" ~count:300
    (QCheck.make
       ~print:(fun (t, spec) ->
         Table.to_string t ^ "\n spec = "
         ^ String.concat ","
             (List.map (fun (a, b) -> a ^ ":" ^ b) spec))
       QCheck.Gen.(
         pair (gen_table abc abc_gens)
           (list_size (int_range 1 4)
              (pair (oneofl [ "x"; "y"; "a" ]) (oneofl abc)))))
    (fun (t, spec) ->
      check_equiv "project" (Ops_ref.project t spec) (Ops.project t spec))

let prop_union =
  equiv_test ~name:"union == reference" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> Table.to_string a ^ "\n⊎\n" ^ Table.to_string b)
       QCheck.Gen.(pair (gen_table abc abc_gens) (gen_table abc abc_gens)))
    (fun (a, b) -> check_equiv "union" (Ops_ref.union a b) (Ops.union a b))

let prop_equi_join =
  (* b's columns clash with a's on purpose: "iter" must get the "'" suffix *)
  equiv_test ~name:"equi_join == reference" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Table.to_string a ^ "\n⋈\n" ^ Table.to_string b)
       QCheck.Gen.(
         pair
           (gen_table [ "iter"; "item" ] [ gen_int_cell; gen_cell ])
           (gen_table [ "iter"; "v" ] [ gen_int_cell; gen_cell ])))
    (fun (a, b) ->
      check_equiv "join on int keys"
        (Ops_ref.equi_join a "iter" b "iter")
        (Ops.equi_join a "iter" b "iter");
      check_equiv "join on mixed keys"
        (Ops_ref.equi_join a "item" b "v")
        (Ops.equi_join a "item" b "v"))

let prop_rank =
  equiv_test ~name:"rank == reference" ~count:300
    (QCheck.make
       ~print:(fun (t, (order_by, part)) ->
         Table.to_string t ^ "\n order_by = " ^ String.concat "," order_by
         ^ " partition = " ^ Option.value ~default:"-" part)
       QCheck.Gen.(
         pair
           (gen_table [ "iter"; "pos"; "v" ]
              [ gen_int_cell; gen_int_cell; gen_cell ])
           (* order_by must hold mutually comparable cells (cell_compare
              raises on string-vs-number, per XPath); partition only needs
              equality, so it may pick the mixed-type "v" column *)
           (pair
              (list_size (int_range 1 2) (oneofl [ "iter"; "pos" ]))
              (opt (oneofl [ "iter"; "v" ])))))
    (fun (t, (order_by, partition)) ->
      check_equiv "rank"
        (Ops_ref.rank t ~new_col:"rk" ~order_by ?partition ())
        (Ops.rank t ~new_col:"rk" ~order_by ?partition ()))

let prop_merge_union =
  equiv_test ~name:"merge_union_on_iter == reference" ~count:200
    (QCheck.make
       ~print:(fun ts ->
         String.concat "\n⊎\n" (List.map Table.to_string ts))
       QCheck.Gen.(
         list_size (int_range 0 4)
           (gen_table [ "iter"; "pos"; "item" ]
              [ gen_int_cell; gen_int_cell; gen_cell ])))
    (fun ts ->
      check_equiv "merge_union"
        (Ops_ref.merge_union_on_iter ts)
        (Ops.merge_union_on_iter ts))

(* deterministic edge cases: empty and single-row tables through every
   operator *)
let test_equiv_edges () =
  let e = Table.empty [ "iter"; "pos"; "item" ] in
  let one = iii [ (1, 1, "a") ] in
  check_equiv "distinct empty" (Ops_ref.distinct e) (Ops.distinct e);
  check_equiv "distinct one" (Ops_ref.distinct one) (Ops.distinct one);
  check_equiv "select_eq empty"
    (Ops_ref.select_eq e "item" (Table.Int 1))
    (Ops.select_eq e "item" (Table.Int 1));
  check_equiv "project empty"
    (Ops_ref.project e [ ("x", "item") ])
    (Ops.project e [ ("x", "item") ]);
  check_equiv "join empty-empty"
    (Ops_ref.equi_join e "iter" e "iter")
    (Ops.equi_join e "iter" e "iter");
  check_equiv "join one-empty"
    (Ops_ref.equi_join one "iter" e "iter")
    (Ops.equi_join one "iter" e "iter");
  check_equiv "join empty-one"
    (Ops_ref.equi_join e "iter" one "iter")
    (Ops.equi_join e "iter" one "iter");
  check_equiv "rank empty"
    (Ops_ref.rank e ~new_col:"rk" ~order_by:[ "iter" ] ())
    (Ops.rank e ~new_col:"rk" ~order_by:[ "iter" ] ());
  check_equiv "rank empty partitioned"
    (Ops_ref.rank e ~new_col:"rk" ~order_by:[ "pos" ] ~partition:"iter" ())
    (Ops.rank e ~new_col:"rk" ~order_by:[ "pos" ] ~partition:"iter" ());
  check_equiv "merge_union none"
    (Ops_ref.merge_union_on_iter [])
    (Ops.merge_union_on_iter []);
  check_equiv "merge_union empties"
    (Ops_ref.merge_union_on_iter [ e; e ])
    (Ops.merge_union_on_iter [ e; e ]);
  check_equiv "union empty"
    (Ops_ref.union e one) (Ops.union e one)

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
        [
          Alcotest.test_case "edge cases" `Quick test_equiv_edges;
          prop_distinct;
          prop_select;
          prop_select_eq;
          prop_project;
          prop_union;
          prop_equi_join;
          prop_rank;
          prop_merge_union;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_looplift_equiv_interpreter ] );
    ]
