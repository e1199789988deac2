(* Differential tests for path evaluation.

   Path_ref is the interpreter's axis, step and path code as it stood
   before [//T] became one [descendant::T] step over the store's
   element-name index, kept here as an oracle (the way Xml_parse_ref
   serves the codec).  A seeded generator writes random paths over the
   XMark documents and a nested document: all twelve axes, name and kind
   tests, wildcards, positional and boolean predicates, [//@*], nested
   [//a//b], [intersect] / [except] / [|], and unions of several
   documents.  Each case is written twice: the new evaluator parses
   [//] (and may read it as one descendant step), the oracle parses the
   long form [/descendant-or-self::node()/], which no parser rewrites.
   Both must return the same nodes, by identity, in the same order.
   Where the loop-lifted engine supports the query, it must agree too.

   Case i runs from seed PATH_SEED + i (PATH_SEED defaults to 2026); a
   failure prints the seed that replays it first:

     PATH_SEED=<n> dune build @paths *)

open Xrpc_xml
module Ast = Xrpc_xquery.Ast
module Context = Xrpc_xquery.Context
module Eval = Xrpc_xquery.Eval
module Parser = Xrpc_xquery.Parser
module Looplift = Xrpc_algebra.Looplift
module Xmark = Xrpc_workloads.Xmark

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let base_seed =
  match Sys.getenv_opt "PATH_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 2026

let cases = 2000

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* elements of a few names nested inside each other, so that [//a//b]
   reaches one node from several context nodes *)
let nested_xml =
  let rs = Random.State.make [| 17 |] in
  let buf = Buffer.create 4096 in
  let next = ref 0 in
  let rec elem depth =
    let name = [| "a"; "b"; "c" |].(Random.State.int rs 3) in
    incr next;
    Printf.bprintf buf "<%s id=\"n%d\">" name !next;
    if depth < 5 then
      for _ = 1 to Random.State.int rs 4 do
        if Random.State.int rs 4 = 0 then Printf.bprintf buf "t%d" !next
        else elem (depth + 1)
      done;
    Printf.bprintf buf "</%s>" name
  in
  Buffer.add_string buf "<a id=\"n0\">";
  for _ = 1 to 4 do
    elem 1
  done;
  Buffer.add_string buf "</a>";
  Buffer.contents buf

let doc_sources =
  [
    ("persons.xml", Xmark.persons ~count:12 ());
    ("auctions.xml", Xmark.auctions ~count:12 ~matches:3 ~persons_count:12 ());
    ("nest.xml", nested_xml);
  ]

let docs =
  List.map
    (fun (uri, xml) -> (uri, Store.shred ~uri (Xml_parse.document xml)))
    doc_sources

let doc_resolver uri =
  match List.assoc_opt uri docs with
  | Some s -> s
  | None -> Xdm.no_such_document uri

let all_nodes (s : Store.t) =
  List.init (Store.node_count s) (fun pre -> { Store.store = s; pre })

let distinct l = List.sort_uniq compare l

(* the names and attribute values that occur, so tests hit something *)
let names_of kind stores =
  Array.of_list
    (distinct
       (List.concat_map
          (fun s ->
            List.filter_map
              (fun n ->
                match Store.name n with
                | Some q when Store.kind n = kind -> Some q.Qname.local
                | _ -> None)
              (all_nodes s))
          stores))

let elem_names = names_of Store.Elem (List.map snd docs)
let attr_names = names_of Store.Attr (List.map snd docs)

let attr_values =
  Array.of_list
    (distinct
       (List.concat_map
          (fun (_, s) ->
            List.filter_map
              (fun n ->
                if Store.kind n = Store.Attr then Some (Store.string_value n)
                else None)
              (all_nodes s))
          docs))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

(* query text with its [//] separators left open: [render ~long:false]
   writes [//], [render ~long:true] the long form *)
type text = Lit of string | Cat of text list | Dslash

let render ~long t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Lit s -> Buffer.add_string buf s
    | Cat l -> List.iter go l
    | Dslash ->
        Buffer.add_string buf
          (if long then "/descendant-or-self::node()/" else "//")
  in
  go t;
  Buffer.contents buf

let pick rs a = a.(Random.State.int rs (Array.length a))

let weighted rs choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  let rec go n = function
    | [] -> assert false
    | (w, c) :: rest -> if n < w then c () else go (n - w) rest
  in
  go (Random.State.int rs total) choices

let lit s = Lit s
let quoted s = Printf.sprintf "%S" s

(* an element name of the queried documents, now and then one of none *)
let elem_name rs names =
  if Random.State.int rs 20 = 0 then "zzz" else pick rs names

let elem_test rs names =
  weighted rs
    [
      (8, fun () -> elem_name rs names);
      (2, fun () -> "*");
      (1, fun () -> "*:" ^ elem_name rs names);
      (1, fun () -> "node()");
      (1, fun () -> "text()");
      (1, fun () -> "element()");
      (1, fun () -> Printf.sprintf "element(%s)" (elem_name rs names));
    ]

let attr_test rs =
  weighted rs
    [
      (4, fun () -> pick rs attr_names);
      (1, fun () -> "*");
      (1, fun () -> "node()");
      (1, fun () -> "attribute()");
      (1, fun () -> Printf.sprintf "attribute(%s)" (pick rs attr_names));
    ]

(* [following] and [preceding] scan the whole document; inside a
   predicate, where they run once per candidate, they would make the
   oracle quadratic, so [~cheap] leaves them out *)
let axes ~cheap =
  let all =
    [| "child"; "descendant"; "descendant-or-self"; "self"; "parent";
       "ancestor"; "ancestor-or-self"; "attribute"; "following-sibling";
       "preceding-sibling"; "following"; "preceding" |]
  in
  if cheap then Array.sub all 0 10 else all

let local n = match Store.name n with Some q -> q.Qname.local | None -> ""

let rec step rs names ~cheap depth =
  let preds () = preds rs names depth in
  weighted rs
    [
      (6, fun () -> Cat [ lit (elem_name rs names); preds () ]);
      ( 4,
        fun () ->
          let axis = pick rs (axes ~cheap) in
          let test =
            if axis = "attribute" then attr_test rs else elem_test rs names
          in
          Cat [ lit (axis ^ "::" ^ test); preds () ] );
      (1, fun () -> Cat [ lit "*"; preds () ]);
      (1, fun () -> lit ("@" ^ pick rs attr_names));
      (1, fun () -> lit "@*");
      (1, fun () -> lit "..");
    ]

and preds rs names depth =
  if depth <= 0 then Cat []
  else
    Cat
      (List.init
         (weighted rs [ (3, fun () -> 0); (3, fun () -> 1); (1, fun () -> 2) ])
         (fun _ -> Cat [ lit "["; pred rs names (depth - 1); lit "]" ]))

and pred rs names depth =
  let rel () = relative rs names depth in
  weighted rs
    [
      (2, fun () -> lit (string_of_int (1 + Random.State.int rs 3)));
      (1, fun () -> lit "last()");
      ( 1,
        fun () ->
          lit
            (Printf.sprintf "position() %s %d"
               (pick rs [| "="; "<"; ">="; "!=" |])
               (1 + Random.State.int rs 3)) );
      (3, fun () -> Cat [ rel (); lit (" = " ^ quoted (pick rs attr_values)) ]);
      (2, rel);
      (1, fun () -> Cat [ lit "not("; rel (); lit ")" ]);
      ( 1,
        fun () ->
          Cat
            [ lit (pick rs [| "exists("; "empty("; "boolean(" |]); rel ();
              lit ")" ]
      );
      ( 1,
        fun () ->
          Cat
            [ rel (); lit (pick rs [| " and "; " or " |]);
              pred rs names depth ]
      );
      ( 1,
        fun () ->
          Cat
            [ lit "count("; rel ();
              lit (Printf.sprintf ") = %d" (Random.State.int rs 3)) ] );
      (1, fun () -> Cat [ lit "count("; rel (); lit ") = last()" ]);
      (* a filter over a bare step sees its document order *)
      ( 1,
        fun () ->
          Cat
            [ lit "("; rel ();
              lit (Printf.sprintf ")[%d]" (1 + Random.State.int rs 2)) ] );
    ]

(* a relative path inside a predicate *)
and relative rs names depth =
  let step () = step rs names ~cheap:true depth in
  let first =
    weighted rs
      [ (4, step); (1, fun () -> Cat [ lit "."; Dslash; step () ]) ]
  in
  if Random.State.int rs 3 = 0 then
    Cat [ first; (if Random.State.bool rs then lit "/" else Dslash); step () ]
  else first

(* one document, or a union of several: the root text and the stores *)
let root rs =
  let uris =
    weighted rs
      [
        (5, fun () -> [ fst (pick rs (Array.of_list docs)) ]);
        (1, fun () -> [ "persons.xml"; "auctions.xml" ]);
        (1, fun () -> List.map fst docs);
      ]
  in
  let calls = List.map (Printf.sprintf "doc(%S)") uris in
  ( lit
      (match calls with
      | [ c ] -> c
      | cs -> "(" ^ String.concat " | " cs ^ ")"),
    List.map doc_resolver uris )

(* a path that follows the documents: the names on the ancestor chain of
   a real element, some skipped (so joined by [//]), with predicates drawn
   from the nodes on the chain and at times one free step at the end *)
let guided rs stores =
  let names = names_of Store.Elem stores in
  let elems =
    Array.of_list
      (List.filter
         (fun n -> Store.kind n = Store.Elem)
         (List.concat_map all_nodes stores))
  in
  let target = pick rs elems in
  let chain =
    List.rev
      (target
      :: List.filter
           (fun a -> Store.kind a = Store.Elem)
           (Store.ancestors target))
  in
  let guided_pred n =
    let attrs = Store.attributes n and kids = Store.children n in
    weighted rs
      [
        ( (if attrs = [] then 0 else 3),
          fun () ->
            let a = pick rs (Array.of_list attrs) in
            lit
              (Printf.sprintf "@%s = %s" (local a)
                 (quoted (Store.string_value a))) );
        ( (if kids = [] then 0 else 2),
          fun () ->
            match List.filter (fun k -> Store.kind k = Store.Elem) kids with
            | [] -> lit "node()"
            | ks -> lit (local (pick rs (Array.of_list ks))) );
        (1, fun () -> lit (string_of_int (1 + Random.State.int rs 2)));
        (1, fun () -> lit "last()");
        (2, fun () -> pred rs names 1);
      ]
  in
  let test n =
    weighted rs
      [
        (12, fun () -> local n);
        (1, fun () -> "*");
        (1, fun () -> "*:" ^ local n);
        (1, fun () -> Printf.sprintf "element(%s)" (local n));
        (1, fun () -> "child::" ^ local n);
      ]
  in
  let rec walk parent_kept = function
    | [] -> []
    | n :: rest ->
        let last = rest = [] in
        if (not last) && Random.State.int rs 5 < 2 then walk false rest
        else
          let sep = if parent_kept then lit "/" else Dslash in
          let preds =
            if Random.State.int rs 4 = 0 then
              Cat [ lit "["; guided_pred n; lit "]" ]
            else Cat []
          in
          Cat [ sep; lit (test n); preds ] :: walk true rest
  in
  (* the document node is the chain's parent: "/" reaches the root element *)
  let steps = walk (Random.State.bool rs) chain in
  let tail =
    if Random.State.int rs 3 = 0 then
      [ (if Random.State.bool rs then lit "/" else Dslash);
        step rs names ~cheap:false 1 ]
    else []
  in
  Cat (steps @ tail)

(* a path of free steps, most of which find nothing *)
let free rs stores =
  let names = names_of Store.Elem stores in
  Cat
    (List.init
       (1 + Random.State.int rs 3)
       (fun _ ->
         let sep =
           weighted rs [ (3, fun () -> Dslash); (1, fun () -> lit "/") ]
         in
         Cat [ sep; step rs names ~cheap:false 2 ]))

let path_from rs (r, stores) =
  Cat
    [ r;
      weighted rs
        [ (3, fun () -> guided rs stores); (1, fun () -> free rs stores) ]
    ]

let query rs =
  let set op =
    let r = root rs in
    Cat
      [ lit "("; path_from rs r; lit (") " ^ op ^ " (");
        path_from rs r; lit ")" ]
  in
  weighted rs
    [
      (8, fun () -> path_from rs (root rs));
      (1, fun () -> set "intersect");
      (1, fun () -> set "except");
      (1, fun () -> set "|");
      ( 1,
        fun () ->
          Cat
            [ lit "("; path_from rs (root rs);
              lit (Printf.sprintf ")[%d]" (1 + Random.State.int rs 3)) ] );
      (1, fun () -> Cat [ fst (root rs); Dslash; lit "@*" ]);
      ( 1,
        fun () ->
          let r, stores = root rs in
          let names = names_of Store.Elem stores in
          Cat [ r; Dslash; lit (pick rs names); Dslash; lit (pick rs names) ] );
    ]

(* ------------------------------------------------------------------ *)
(* Running both sides                                                  *)
(* ------------------------------------------------------------------ *)

let ctx = { (Context.empty ()) with Context.doc_resolver }

(* a result by node identity, so equal-looking copies do not pass *)
let show seq =
  String.concat " "
    (List.map
       (function
         | Xdm.Node n ->
             Printf.sprintf "%s#%d" n.Store.store.Store.uri n.Store.pre
         | Xdm.Atomic a -> Xs.to_string a)
       seq)

let outcome f =
  match f () with
  | seq -> Ok (show seq)
  | exception (Path_ref.Unsupported _ as e) -> raise e
  | exception e -> Error (Printexc.to_string e)

let agree a b =
  match (a, b) with
  | Ok x, Ok y -> x = y
  | Error _, Error _ -> true
  | _ -> false

let describe = function Ok s -> Printf.sprintf "%S" s | Error m -> m

let no_network ~dest:_ _ = failwith "no network in path tests"

let test_property () =
  let nonempty = ref 0 and lifted = ref 0 in
  for i = 0 to cases - 1 do
    let seed = base_seed + i in
    let t = query (Random.State.make [| seed |]) in
    let q = render ~long:false t and q_long = render ~long:true t in
    let e = Parser.parse_expression q in
    let got = outcome (fun () -> Eval.eval ctx e) in
    let want =
      outcome (fun () -> Path_ref.eval ctx (Parser.parse_expression q_long))
    in
    let fail what other =
      Alcotest.failf
        "%s diverges from the oracle\n\
         query:  %s\n\
         oracle: %s\n\
         %-7s %s\n\
         replay with: PATH_SEED=%d dune build @paths"
        what q (describe want) (what ^ ":") (describe other) seed
    in
    if not (agree got want) then fail "eval" got;
    (match got with Ok s when s <> "" -> incr nonempty | _ -> ());
    match
      Looplift.run (Looplift.make_env ~doc_resolver ~call:no_network ()) e
    with
    | seq ->
        incr lifted;
        if not (agree (Ok (show seq)) want) then fail "looplift" (Ok (show seq))
    | exception Looplift.Unsupported _ -> ()
    | exception e ->
        incr lifted;
        let r = Error (Printexc.to_string e) in
        if not (agree r want) then fail "looplift" r
  done;
  Printf.printf "%d of %d answers non-empty, %d also run loop-lifted\n"
    !nonempty cases !lifted;
  (* the battery is not vacuous *)
  check bool_
    (Printf.sprintf "%d of %d answers non-empty" !nonempty cases)
    true
    (!nonempty * 3 >= cases);
  check bool_
    (Printf.sprintf "%d of %d queries also run loop-lifted" !lifted cases)
    true
    (!lifted * 5 >= cases)

(* the same seeded paths, lifted and unlifted: the plan cache's literal
   lifting (the key values and names in their predicates) never changes
   an answer or an error *)
let test_lifted () =
  let t = Lift_check.create doc_sources in
  for i = 0 to cases - 1 do
    let seed = base_seed + i in
    let q = render ~long:false (query (Random.State.make [| seed |])) in
    match Lift_check.agree t q with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s\nreplay with: PATH_SEED=%d dune build @paths" m seed
  done;
  let lifted, runs = Lift_check.share t in
  Printf.printf "%d of %d paths lifted a literal\n" lifted runs;
  check bool_ "some paths lift a literal" true (lifted * 10 >= runs)

(* ------------------------------------------------------------------ *)
(* The index, the short-cut and the set operations                     *)
(* ------------------------------------------------------------------ *)

(* one step, unnested, from every node of every document: each axis,
   with name, wildcard and kind tests and positional predicates, gives
   the oracle's nodes in the oracle's order *)
let test_every_step () =
  let axes =
    Ast.
      [ Child; Descendant; Descendant_or_self; Self; Parent; Ancestor;
        Ancestor_or_self; Attribute; Following_sibling; Preceding_sibling;
        Following; Preceding ]
  in
  let tests =
    Ast.
      [ Kind_test K_node; Any_name; Name_test (Qname.make "a");
        Name_test (Qname.make "person"); Name_test (Qname.make "id");
        Kind_test K_text ]
  in
  let preds =
    [ []; [ Ast.Literal (Xs.Integer 1) ];
      [ Ast.Call (Qname.make ~uri:Qname.ns_fn "last", []) ] ]
  in
  List.iter
    (fun (_, s) ->
      List.iter
        (fun n ->
          let ctx = Context.with_context_item ctx (Xdm.Node n) 1 1 in
          List.iter
            (fun axis ->
              List.iter
                (fun test ->
                  List.iter
                    (fun preds ->
                      let e = Ast.Step (axis, test, preds) in
                      let got = show (Eval.eval ctx e)
                      and want = show (Path_ref.eval ctx e) in
                      if got <> want then
                        Alcotest.failf "%s from %s#%d: %S, oracle %S"
                          (Ast.expr_to_string e) s.Store.uri n.Store.pre got
                          want)
                    preds)
                tests)
            axes)
        (all_nodes s))
    docs

(* every element's descendants of every name: index slice = scan *)
let test_index_matches_scan () =
  List.iter
    (fun (_, s) ->
      List.iter
        (fun n ->
          Array.iter
            (fun local ->
              let q = Qname.make local in
              let scan =
                List.filter
                  (fun d ->
                    Store.kind d = Store.Elem
                    && match Store.name d with
                       | Some q' -> Qname.equal q q'
                       | None -> false)
                  (Store.descendants n)
              in
              if
                not
                  (List.equal Store.equal_nodes scan
                     (Store.descendants_named n q))
              then
                Alcotest.failf "%s#%d descendant::%s" s.Store.uri n.Store.pre
                  local)
            elem_names)
        (all_nodes s))
    docs

(* threads that race on a fresh store's first searches all publish:
   each name ends up with one array, equal to the scan *)
let test_index_race () =
  let s = Store.shred (Xml_parse.document nested_xml) in
  let root = Store.root s in
  let names = [| "a"; "b"; "c"; "zzz" |] in
  let worker k () =
    List.init 200 (fun i ->
        let q = Qname.make names.((i + k) mod Array.length names) in
        List.length (Store.descendants_named root q))
  in
  let domains = List.init 2 (fun k -> Domain.spawn (worker k)) in
  let counts = List.map Domain.join domains in
  let expect local =
    List.length
      (List.filter
         (fun n ->
           Store.kind n = Store.Elem
           && match Store.name n with
              | Some q -> q.Qname.local = local
              | None -> false)
         (Store.descendants root))
  in
  List.iteri
    (fun k c ->
      List.iteri
        (fun i got ->
          let local = names.((i + k) mod Array.length names) in
          check int_ ("count of " ^ local) (expect local) got)
        c)
    counts;
  check int_ "one entry per name" (Array.length names)
    (Store.Name_map.cardinal (Atomic.get s.Store.names))

(* ------------------------------------------------------------------ *)
(* The attribute-value index against the scan                          *)
(* ------------------------------------------------------------------ *)

(* [t] elements carrying [n] and [p:n] (at times neither), [c] and [d]
   children with keys of their own, values repeated across elements and
   within one element's children, and [t] nested in [t] *)
let keys_xml =
  let rs = Random.State.make [| 29 |] in
  let buf = Buffer.create 4096 in
  let value () = [| "k1"; "k2"; "k3"; "1"; "2.0"; "true"; "" |].(Random.State.int rs 7) in
  let attrs () =
    (if Random.State.int rs 3 > 0 then Printf.sprintf " n=%S" (value ()) else "")
    ^ if Random.State.int rs 3 = 0 then Printf.sprintf " p:n=%S" (value ()) else ""
  in
  let rec elem name depth =
    Printf.bprintf buf "<%s%s>" name (attrs ());
    if depth < 4 then
      for _ = 1 to Random.State.int rs 4 do
        match Random.State.int rs 4 with
        | 0 -> Buffer.add_string buf (value ())
        | _ -> elem [| "t"; "c"; "d" |].(Random.State.int rs 3) (depth + 1)
      done;
    Printf.bprintf buf "</%s>" name
  in
  Buffer.add_string buf "<t xmlns:p=\"urn:p\">";
  for _ = 1 to 12 do
    elem "t" 1
  done;
  Buffer.add_string buf "</t>";
  Buffer.contents buf

let keys_store = Store.shred ~uri:"keys.xml" (Xml_parse.document keys_xml)

let key_resolver uri =
  if uri = "keys.xml" then keys_store else doc_resolver uri

let fn name args = Ast.Call (Qname.make ~uri:Qname.ns_fn name, args)
let doc_call uri = fn "doc" [ Ast.Literal (Xs.String uri) ]

(* one [descendant(-or-self)::T[K = X]] step from a node of a document,
   now and then followed by a second predicate.  Most cases follow the
   document: [T] is the name of a real element, [K] a key path it has and
   [X] holds the value [K] reaches, from one of its ancestors or itself *)
let probe_case rs =
  let store =
    pick rs
      [| keys_store; keys_store; keys_store; snd (List.nth docs 0);
         snd (List.nth docs 1); snd (List.nth docs 2) |]
  in
  let elems =
    Array.of_list
      (List.filter (fun n -> Store.kind n = Store.Elem) (all_nodes store))
  in
  let names = names_of Store.Elem [ store ] in
  let attrs = names_of Store.Attr [ store ] in
  let guided = Random.State.int rs 6 > 0 in
  let target = pick rs elems in
  let elements n = List.filter (fun c -> Store.kind c = Store.Elem) (Store.children n) in
  let q_of n = Option.get (Store.name n) in
  let step axis q = Ast.Step (axis, Ast.Name_test q, []) in
  (* the key path's children: up to two real descendants of [target] *)
  let rec down n depth =
    match elements n with
    | kids when depth > 0 && kids <> [] ->
        let c = pick rs (Array.of_list kids) in
        let path, last = down c (depth - 1) in
        (q_of c :: path, last)
    | _ -> ([], n)
  in
  let children, owner =
    if guided then down target (Random.State.int rs 3)
    else
      ( List.init (Random.State.int rs 3) (fun _ -> Qname.make (elem_name rs names)),
        target )
  in
  let attr, found =
    match Store.attributes owner with
    | _ :: _ as l when guided ->
        let a = pick rs (Array.of_list l) in
        (q_of a, Some (Store.string_value a))
    | _ ->
        ( (if store == keys_store && Random.State.bool rs then
             Qname.make ~prefix:"p" ~uri:"urn:p" "n"
           else Qname.make (pick rs attrs)),
          None )
  in
  let t = if guided then q_of target else Qname.make (elem_name rs names) in
  let context =
    match Store.ancestors target with
    | ancs when guided && Random.State.int rs 4 > 0 ->
        pick rs (Array.of_list (target :: ancs))
    | _ -> if Random.State.bool rs then Store.root store else pick rs elems
  in
  let key =
    let a = step Ast.Attribute attr in
    match children with
    | [] -> a
    | c :: rest ->
        let first =
          if Random.State.bool rs then step Ast.Child c
          else Ast.Path (Ast.Context_item, step Ast.Child c)
        in
        Ast.Path
          (List.fold_left (fun p c -> Ast.Path (p, step Ast.Child c)) first rest, a)
  in
  let kv = [| "k1"; "k2"; "k3"; "1"; "2.0"; "true"; "" |] in
  let value () =
    match found with
    | Some v when Random.State.int rs 4 > 0 -> v
    | _ -> if Random.State.bool rs then pick rs kv else pick rs attr_values
  in
  let lit () =
    let v = value () in
    if Random.State.int rs 3 = 0 then Ast.Literal (Xs.Untyped v)
    else Ast.Literal (Xs.String v)
  in
  (* node-valued: every [attr] attribute of a document, atomized *)
  let nodes () =
    Ast.Path
      ( Ast.Path
          ( doc_call (if Random.State.bool rs then "keys.xml" else store.Store.uri),
            Ast.Step (Ast.Descendant_or_self, Ast.Kind_test Ast.K_node, []) ),
        step Ast.Attribute attr )
  in
  let x =
    match Random.State.int rs 16 with
    | 0 -> Ast.Sequence []
    | 1 ->
        let l = lit () in
        Ast.Sequence [ l; l ]
    | 2 -> Ast.Sequence (List.init (2 + Random.State.int rs 4) (fun _ -> lit ()))
    | 3 -> nodes ()
    | 4 -> Ast.Literal (Xs.Integer (Random.State.int rs 3))
    | 5 -> Ast.Literal (Xs.Double 2.0)
    | 6 -> Ast.Sequence [ lit (); Ast.Literal (Xs.Integer 1) ]
    (* focus-free, numeric or boolean only once evaluated *)
    | 7 -> fn "count" [ Ast.Path (doc_call "keys.xml", step Ast.Descendant t) ]
    | 8 -> Ast.Sequence [ lit (); fn "boolean" [ nodes () ] ]
    | _ -> lit ()
  in
  let cmp =
    if Random.State.bool rs then Ast.Compare (Ast.G_eq, key, x)
    else Ast.Compare (Ast.G_eq, x, key)
  in
  let more =
    match Random.State.int rs 6 with
    | 0 -> [ Ast.Literal (Xs.Integer 1) ]
    | 1 -> [ fn "last" [] ]
    | 2 -> [ step Ast.Attribute attr ]
    | _ -> []
  in
  let axis =
    if Random.State.bool rs then Ast.Descendant else Ast.Descendant_or_self
  in
  (context, Ast.Step (axis, Ast.Name_test t, cmp :: more))

let index_cases = 3000

let test_index_matches_scan_values () =
  let ctx = { ctx with Context.doc_resolver = key_resolver } in
  let probed = ref 0 and nonempty = ref 0 in
  for i = 0 to index_cases - 1 do
    let seed = base_seed + i in
    let context, e = probe_case (Random.State.make [| seed |]) in
    let ctx = Context.with_context_item ctx (Xdm.Node context) 1 1 in
    let got = outcome (fun () -> Eval.eval ctx e)
    and want = outcome (fun () -> Path_ref.eval ctx e) in
    if not (agree got want) then
      Alcotest.failf
        "probe diverges from the scan\n\
         step:   %s from %s#%d\n\
         oracle: %s\n\
         eval:   %s\n\
         replay with: PATH_SEED=%d dune build @paths"
        (Ast.expr_to_string e) context.Store.store.Store.uri context.Store.pre
        (describe want) (describe got) seed;
    (match got with Ok s when s <> "" -> incr nonempty | _ -> ());
    match e with
    | Ast.Step (axis, test, preds) -> (
        match Eval.value_probe axis test preds with
        | Some p -> (
            match Eval.eval ctx p.Eval.operand with
            | xs when List.for_all Eval.string_like (Xdm.atomize xs) -> incr probed
            | _ -> ()
            | exception _ -> ())
        | None -> ())
    | _ -> ()
  done;
  Printf.printf "%d of %d steps probe the index, %d answers non-empty\n"
    !probed index_cases !nonempty;
  check bool_ "most steps probe" true (!probed * 2 >= index_cases);
  check bool_ "answers are not all empty" true (!nonempty * 5 >= index_cases)

(* the [t[@n = v]] probe of [s] for every value, against the scan *)
let probes_agree s =
  let root = Store.root s in
  let key = { Store.children = []; attr = Qname.make "n" } in
  List.iter
    (fun v ->
      let scan =
        List.filter
          (fun n ->
            List.exists
              (fun a -> Store.name a = Some (Qname.make "n") && Store.string_value a = v)
              (Store.attributes n))
          (Store.descendants_named root (Qname.make "t"))
      in
      if not (List.equal Store.equal_nodes scan
                (Store.probe ~or_self:false root (Qname.make "t") key [ v ]))
      then Alcotest.failf "t[@n = %S]" v)
    [ "k1"; "k2"; "k3"; "1"; "new"; "" ]

(* domains racing on a fresh store's first probes all publish: each key
   ends up with one table, and every answer equals the scan *)
let test_value_index_race () =
  let s = Store.shred (Xml_parse.document keys_xml) in
  let t = Qname.make "t" in
  let keys =
    [| { Store.children = []; attr = Qname.make "n" };
       { Store.children = [ Qname.make "c" ]; attr = Qname.make "n" } |]
  in
  let worker k () =
    List.init 200 (fun i ->
        let key = keys.((i + k) mod 2) in
        List.length (Store.probe ~or_self:true (Store.root s) t key [ "k1"; "k2" ]))
  in
  let domains = List.init 2 (fun k -> Domain.spawn (worker k)) in
  let counts = List.map Domain.join domains in
  let fresh = Store.shred (Xml_parse.document keys_xml) in
  List.iteri
    (fun k c ->
      List.iteri
        (fun i got ->
          let key = keys.((i + k) mod 2) in
          check int_ "count"
            (List.length (Store.probe ~or_self:true (Store.root fresh) t key [ "k1"; "k2" ]))
            got)
        c)
    counts;
  probes_agree s;
  check int_ "one table per key" 2
    (Store.Value_key.cardinal (Atomic.get s.Store.values))

let first_of kind s =
  let rec go pre = if s.Store.kind.(pre) = kind then pre else go (pre + 1) in
  go 0

(* a text-only commit keeps the built index; an attribute write starts a
   fresh one that gives the new answer *)
let test_value_index_across_patches () =
  let s = Store.shred (Xml_parse.document keys_xml) in
  probes_agree s;
  let text, _ = Store.patch s [ (first_of Store.Txt s, Store.Value "k1") ] in
  check bool_ "text commit shares the index" true (text.Store.values == s.Store.values);
  probes_agree text;
  let attr =
    let rec go pre =
      if s.Store.kind.(pre) = Store.Attr && Store.name { Store.store = s; pre } = Some (Qname.make "n")
         && s.Store.kind.(s.Store.parent.(pre)) = Store.Elem
         && Store.name { Store.store = s; pre = s.Store.parent.(pre) } = Some (Qname.make "t")
      then pre
      else go (pre + 1)
    in
    go 0
  in
  let written, _ = Store.patch text [ (attr, Store.Value "new") ] in
  check bool_ "attribute write gets a fresh index" false
    (written.Store.values == s.Store.values);
  probes_agree written;
  check int_ "the written element answers" 1
    (List.length
       (List.filter (fun n -> n.Store.pre = s.Store.parent.(attr))
          (Store.probe ~or_self:false (Store.root written) (Qname.make "t")
             { Store.children = []; attr = Qname.make "n" } [ "new" ])))

let test_sorted_input_not_copied () =
  let _, s = List.hd docs in
  let nodes = Store.descendants (Store.root s) in
  check bool_ "same list back" true (Xdm.doc_order_dedup nodes == nodes);
  let shuffled = List.rev nodes @ nodes in
  check bool_ "sorted and deduplicated" true
    (List.equal Store.equal_nodes (Xdm.doc_order_dedup shuffled) nodes)

(* intersect and except against their definition, on unsorted input
   with duplicates and nodes of two documents *)
let test_set_operations () =
  let rs = Random.State.make [| base_seed |] in
  let pool =
    List.concat_map
      (fun (_, s) -> all_nodes s)
      (List.filteri (fun i _ -> i < 2) docs)
  in
  let pool = Array.of_list pool in
  let sample () = List.init (Random.State.int rs 40) (fun _ -> pick rs pool) in
  for _ = 1 to 300 do
    let a = sample () and b = sample () in
    let mem n l = List.exists (Store.equal_nodes n) l in
    let sorted l = Path_ref.doc_order_dedup l in
    let same what x y =
      if not (List.equal Store.equal_nodes x y) then
        Alcotest.failf "%s differs from its definition" what
    in
    same "intersect" (Xdm.intersect a b)
      (sorted (List.filter (fun n -> mem n b) a));
    same "except" (Xdm.except a b)
      (sorted (List.filter (fun n -> not (mem n b)) a))
  done

let () =
  Alcotest.run "paths"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d seeded paths vs the oracle" cases)
            `Quick test_property;
          Alcotest.test_case "seeded paths, lifted = unlifted" `Quick
            test_lifted;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "every step from every node" `Quick
            test_every_step;
          Alcotest.test_case "name index = scan" `Quick test_index_matches_scan;
          Alcotest.test_case "racing first use" `Quick test_index_race;
          Alcotest.test_case "ordered input is not sorted" `Quick
            test_sorted_input_not_copied;
          Alcotest.test_case "intersect / except merge" `Quick
            test_set_operations;
          Alcotest.test_case
            (Printf.sprintf "value index = scan, %d steps" index_cases)
            `Quick test_index_matches_scan_values;
          Alcotest.test_case "value index: racing first probe" `Quick
            test_value_index_race;
          Alcotest.test_case "value index across commits" `Quick
            test_value_index_across_patches;
        ] );
    ]
