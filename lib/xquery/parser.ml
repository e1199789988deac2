(** Recursive-descent parser for the XQuery subset + XRPC.

    Grammar follows XQuery 1.0 operator precedence.  The productions the
    paper adds/uses are all here: [execute at "{" Expr "}" "{" FunctionCall
    "}"] (§2), XQUF update expressions (§2.3), modules and [declare option]
    (for [xrpc:isolation] / [xrpc:timeout]).  Direct element constructors
    are parsed at character level by rewinding the lexer (see {!Lexer}). *)

open Xrpc_xml

exception Syntax_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

type t = {
  lx : Lexer.t;
  mutable namespaces : (string * string) list;
  mutable default_elem_ns : string;
  mutable default_fn_ns : string;
  mutable boundary_space : bool;
}

let default_namespaces =
  [
    ("xml", Qname.ns_xml);
    ("xs", Qname.ns_xs);
    ("xsi", Qname.ns_xsi);
    ("fn", Qname.ns_fn);
    ("local", "http://www.w3.org/2005/xquery-local-functions");
    ("xrpc", Qname.ns_xrpc);
  ]

let make src =
  {
    lx = Lexer.make src;
    namespaces = default_namespaces;
    default_elem_ns = "";
    default_fn_ns = Qname.ns_fn;
    boundary_space = false;
  }

(* ------------------------------------------------------------------ *)
(* Token helpers                                                       *)
(* ------------------------------------------------------------------ *)

let tok p = p.lx.Lexer.tok
let advance p = Lexer.next p.lx

let expect_sym p s =
  match tok p with
  | Lexer.Sym s' when s' = s -> advance p
  | t -> error "expected %S but found %s" s (Lexer.token_to_string t)

let eat_sym p s =
  match tok p with
  | Lexer.Sym s' when s' = s ->
      advance p;
      true
  | _ -> false

let is_name p kw =
  match tok p with Lexer.Name ("", n) -> n = kw | _ -> false

let eat_name p kw =
  if is_name p kw then (
    advance p;
    true)
  else false

let expect_name p kw =
  if not (eat_name p kw) then
    error "expected keyword %S but found %s" kw
      (Lexer.token_to_string (tok p))

(* the only collation: Unicode codepoint order *)
let codepoint_collation =
  "http://www.w3.org/2005/xpath-functions/collation/codepoint"

let expect_string p =
  match tok p with
  | Lexer.Str_lit s ->
      advance p;
      s
  | t -> error "expected string literal, found %s" (Lexer.token_to_string t)

(** Peek at the token after the current one without consuming anything. *)
let peek2 p =
  let lx = p.lx in
  let save_pos = lx.Lexer.pos
  and save_tok = lx.Lexer.tok
  and save_start = lx.Lexer.tok_start in
  Lexer.next lx;
  let t = lx.Lexer.tok in
  lx.Lexer.pos <- save_pos;
  lx.Lexer.tok <- save_tok;
  lx.Lexer.tok_start <- save_start;
  t

(** Peek two tokens ahead (used to spot computed constructors like
    [element name {..}] in step position). *)
let peek3 p =
  let lx = p.lx in
  let save_pos = lx.Lexer.pos
  and save_tok = lx.Lexer.tok
  and save_start = lx.Lexer.tok_start in
  Lexer.next lx;
  Lexer.next lx;
  let t = lx.Lexer.tok in
  lx.Lexer.pos <- save_pos;
  lx.Lexer.tok <- save_tok;
  lx.Lexer.tok_start <- save_start;
  t

let resolve_prefix p prefix =
  match List.assoc_opt prefix p.namespaces with
  | Some uri -> uri
  | None -> error "unbound namespace prefix %S" prefix

(** Resolve a lexical QName in element-name position. *)
let elem_qname p (prefix, local) =
  let uri = if prefix = "" then p.default_elem_ns else resolve_prefix p prefix in
  Qname.make ~prefix ~uri local

(** Resolve in function-name position (default = fn namespace). *)
let fn_qname p (prefix, local) =
  let uri = if prefix = "" then p.default_fn_ns else resolve_prefix p prefix in
  Qname.make ~prefix ~uri local

(** Resolve in variable-name position (default = no namespace). *)
let var_qname p (prefix, local) =
  let uri = if prefix = "" then "" else resolve_prefix p prefix in
  Qname.make ~prefix ~uri local

(* [//T[preds]] is read as [descendant::T[preds]], one range scan, in place
   of [descendant-or-self::node()/child::T[preds]] when no predicate can
   tell the two apart.  They give each node a different context position
   and size, so every predicate must be boolean by its syntax (a numeric
   one selects by position) and must not ask position() or last() at its
   own focus.  [//T[1]], [//T[$n]], [//@a] and [//text()] keep the long
   form. *)

let rec ends_in_step = function
  | Ast.Step _ -> true
  | Ast.Path (_, b) -> ends_in_step b
  | _ -> false

let boolean_predicate (e : Ast.expr) =
  (match e with
  | Ast.Compare _ | Ast.And _ | Ast.Or _ | Ast.Quantified _ -> true
  | Ast.Call (q, [ _ ]) ->
      q.Qname.uri = Qname.ns_fn
      && List.mem q.Qname.local [ "not"; "exists"; "empty"; "boolean" ]
  | e -> ends_in_step e)
  && not (Ast.mentions_position e)

let descendant_step = function
  | Ast.Step
      ( Ast.Child,
        (( Ast.Name_test _ | Ast.Any_name | Ast.Ns_wildcard _
         | Ast.Local_wildcard _
         | Ast.Kind_test (Ast.K_element _) ) as test),
        preds )
    when List.for_all boolean_predicate preds ->
      Some (Ast.Step (Ast.Descendant, test, preds))
  | _ -> None

(** [a//step]: one [descendant::] step where {!descendant_step} allows
    it, else the long form. *)
let descendant_path a step =
  match descendant_step step with
  | Some d -> Ast.Path (a, d)
  | None ->
      let dos =
        Ast.Step (Ast.Descendant_or_self, Ast.Kind_test Ast.K_node, [])
      in
      Ast.Path (Ast.Path (a, dos), step)

let expect_var p =
  match tok p with
  | Lexer.Var (pfx, local) ->
      advance p;
      var_qname p (pfx, local)
  | t -> error "expected variable, found %s" (Lexer.token_to_string t)

(* Reserved words that can never be function names. *)
let reserved_fn_names =
  [
    "attribute"; "comment"; "document-node"; "element"; "empty-sequence";
    "if"; "item"; "node"; "processing-instruction"; "text"; "typeswitch";
  ]

(* ------------------------------------------------------------------ *)
(* Sequence types                                                      *)
(* ------------------------------------------------------------------ *)

let atomic_type p (prefix, local) =
  let uri = if prefix = "" then Qname.ns_xs else resolve_prefix p prefix in
  if uri <> Qname.ns_xs then error "unknown type namespace %s" uri;
  match Xs.type_of_name local with
  | Some t -> t
  | None -> error "unknown atomic type xs:%s" local

let parse_occurrence p =
  match tok p with
  | Lexer.Sym "?" ->
      advance p;
      Ast.Zero_or_one
  | Lexer.Sym "*" ->
      advance p;
      Ast.Zero_or_more
  | Lexer.Sym "+" ->
      advance p;
      Ast.One_or_more
  | _ -> Ast.Exactly_one

let parse_item_type p =
  match tok p with
  | Lexer.Name (pfx, local) -> (
      if peek2 p = Lexer.Sym "(" then (
        advance p;
        expect_sym p "(";
        let name_arg () =
          match tok p with
          | Lexer.Sym ")" -> None
          | Lexer.Sym "*" ->
              advance p;
              None
          | Lexer.Name (np, nl) ->
              advance p;
              Some (elem_qname p (np, nl))
          | t -> error "bad kind test argument %s" (Lexer.token_to_string t)
        in
        let it =
          match (pfx, local) with
          | "", "item" -> Ast.It_item
          | "", "node" -> Ast.It_node
          | "", "text" -> Ast.It_text
          | "", "comment" -> Ast.It_comment
          | "", "processing-instruction" -> Ast.It_pi
          | "", "document-node" -> Ast.It_document
          | "", "element" -> Ast.It_element (name_arg ())
          | "", "attribute" -> Ast.It_attribute (name_arg ())
          | _ -> error "unknown item type %s" local
        in
        expect_sym p ")";
        it)
      else (
        advance p;
        Ast.It_atomic (atomic_type p (pfx, local))))
  | t -> error "expected item type, found %s" (Lexer.token_to_string t)

let parse_seq_type p =
  if is_name p "empty-sequence" && peek2 p = Lexer.Sym "(" then (
    advance p;
    expect_sym p "(";
    expect_sym p ")";
    Ast.Seq_empty)
  else
    let it = parse_item_type p in
    let occ = parse_occurrence p in
    Ast.Seq (it, occ)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr p : Ast.expr =
  let e1 = parse_expr_single p in
  if eat_sym p "," then
    let rec more acc =
      let e = parse_expr_single p in
      if eat_sym p "," then more (e :: acc) else List.rev (e :: acc)
    in
    Ast.Sequence (more [ e1 ])
  else e1

and parse_expr_single p =
  match tok p with
  | Lexer.Name ("", ("for" | "let")) when is_flwor_start p -> parse_flwor p
  | Lexer.Name ("", ("some" | "every"))
    when (match peek2 p with Lexer.Var _ -> true | _ -> false) ->
      parse_quantified p
  | Lexer.Name ("", "typeswitch") when peek2 p = Lexer.Sym "(" ->
      parse_typeswitch p
  | Lexer.Name ("", "if") when peek2 p = Lexer.Sym "(" -> parse_if p
  | Lexer.Name ("", "execute") when peek2 p = Lexer.Name ("", "at") ->
      parse_execute_at p
  | Lexer.Name ("", "insert")
    when (match peek2 p with
         | Lexer.Name ("", ("node" | "nodes")) -> true
         | _ -> false) ->
      parse_insert p
  | Lexer.Name ("", "delete")
    when (match peek2 p with
         | Lexer.Name ("", ("node" | "nodes")) -> true
         | _ -> false) ->
      advance p;
      advance p;
      Ast.Delete (parse_expr_single p)
  | Lexer.Name ("", "replace")
    when (match peek2 p with
         | Lexer.Name ("", ("node" | "value")) -> true
         | _ -> false) ->
      parse_replace p
  | Lexer.Name ("", "rename") when peek2 p = Lexer.Name ("", "node") ->
      advance p;
      advance p;
      let target = parse_expr_single p in
      expect_name p "as";
      let name = parse_expr_single p in
      Ast.Rename_node (target, name)
  | _ -> parse_or p

and is_flwor_start p =
  (* "for"/"let" must be followed by "$var" to be a FLWOR *)
  match peek2 p with Lexer.Var _ -> true | _ -> false

and parse_flwor p =
  let clauses = ref [] in
  let rec clause_loop () =
    match tok p with
    | Lexer.Name ("", "for") when is_flwor_start p ->
        advance p;
        let rec bind () =
          let v = expect_var p in
          let posvar =
            if eat_name p "at" then Some (expect_var p) else None
          in
          (* optional type annotation ignored for binding *)
          if eat_name p "as" then ignore (parse_seq_type p);
          expect_name p "in";
          let e = parse_expr_single p in
          clauses := Ast.For (v, posvar, e) :: !clauses;
          if eat_sym p "," then bind ()
        in
        bind ();
        clause_loop ()
    | Lexer.Name ("", "let") when is_flwor_start p ->
        advance p;
        let rec bind () =
          let v = expect_var p in
          if eat_name p "as" then ignore (parse_seq_type p);
          expect_sym p ":=";
          let e = parse_expr_single p in
          clauses := Ast.Let (v, e) :: !clauses;
          if eat_sym p "," then bind ()
        in
        bind ();
        clause_loop ()
    | Lexer.Name ("", "where") ->
        advance p;
        clauses := Ast.Where (parse_expr_single p) :: !clauses;
        clause_loop ()
    | _ -> ()
  in
  clause_loop ();
  (* OrderSpec ::= ExprSingle ("ascending" | "descending")?
       ("empty" ("greatest" | "least"))? ("collation" URILiteral)? *)
  let order_spec () =
    let e = parse_expr_single p in
    let descending =
      if eat_name p "descending" then true
      else (
        ignore (eat_name p "ascending");
        false)
    in
    let empty_greatest =
      if not (eat_name p "empty") then false
      else if eat_name p "greatest" then true
      else (
        expect_name p "least";
        false)
    in
    (if eat_name p "collation" then
       let uri = expect_string p in
       if uri <> codepoint_collation then
         error "XQST0076: unsupported collation %S" uri);
    (e, { Ast.descending; empty_greatest })
  in
  let order_by =
    if eat_name p "stable" || is_name p "order" then (
      expect_name p "order";
      expect_name p "by";
      let rec specs acc =
        let spec = order_spec () in
        if eat_sym p "," then specs (spec :: acc) else List.rev (spec :: acc)
      in
      specs [])
    else []
  in
  expect_name p "return";
  let ret = parse_expr_single p in
  Ast.Flwor (List.rev !clauses, order_by, ret)

and parse_quantified p =
  let quant = if is_name p "some" then `Some else `Every in
  advance p;
  let rec binds acc =
    let v = expect_var p in
    if eat_name p "as" then ignore (parse_seq_type p);
    expect_name p "in";
    let e = parse_expr_single p in
    if eat_sym p "," then binds ((v, e) :: acc) else List.rev ((v, e) :: acc)
  in
  let bs = binds [] in
  expect_name p "satisfies";
  Ast.Quantified (quant, bs, parse_expr_single p)

and parse_typeswitch p =
  advance p;
  expect_sym p "(";
  let operand = parse_expr p in
  expect_sym p ")";
  let rec cases acc =
    if eat_name p "case" then (
      let v =
        match tok p with
        | Lexer.Var _ ->
            let v = expect_var p in
            expect_name p "as";
            Some v
        | _ -> None
      in
      let st = parse_seq_type p in
      expect_name p "return";
      let e = parse_expr_single p in
      cases ((st, v, e) :: acc))
    else List.rev acc
  in
  let cs = cases [] in
  expect_name p "default";
  let dv =
    match tok p with Lexer.Var _ -> Some (expect_var p) | _ -> None
  in
  expect_name p "return";
  let de = parse_expr_single p in
  Ast.Typeswitch (operand, cs, (dv, de))

and parse_if p =
  advance p;
  expect_sym p "(";
  let c = parse_expr p in
  expect_sym p ")";
  expect_name p "then";
  let t = parse_expr_single p in
  expect_name p "else";
  let e = parse_expr_single p in
  Ast.If (c, t, e)

and parse_execute_at p =
  advance p;
  (* execute *)
  expect_name p "at";
  expect_sym p "{";
  let dest = parse_expr p in
  expect_sym p "}";
  expect_sym p "{";
  let fname, args =
    match tok p with
    | Lexer.Name (pfx, local) ->
        advance p;
        let q = fn_qname p (pfx, local) in
        expect_sym p "(";
        let args =
          if eat_sym p ")" then []
          else
            let rec more acc =
              let e = parse_expr_single p in
              if eat_sym p "," then more (e :: acc)
              else (
                expect_sym p ")";
                List.rev (e :: acc))
            in
            more []
        in
        (q, args)
    | t -> error "expected function call in execute at, found %s"
             (Lexer.token_to_string t)
  in
  expect_sym p "}";
  Ast.Execute_at (dest, fname, args)

and parse_insert p =
  advance p;
  advance p;
  (* insert node(s) *)
  let src = parse_expr_single p in
  let target_kind =
    if eat_name p "into" then Ast.Into
    else if eat_name p "as" then
      if eat_name p "first" then (
        expect_name p "into";
        Ast.As_first)
      else (
        expect_name p "last";
        expect_name p "into";
        Ast.As_last)
    else if eat_name p "before" then Ast.Before
    else if eat_name p "after" then Ast.After
    else error "expected into/before/after in insert"
  in
  let target = parse_expr_single p in
  Ast.Insert (target_kind, src, target)

and parse_replace p =
  advance p;
  (* replace *)
  if eat_name p "value" then (
    expect_name p "of";
    expect_name p "node";
    let target = parse_expr_single p in
    expect_name p "with";
    Ast.Replace_value (target, parse_expr_single p))
  else (
    expect_name p "node";
    let target = parse_expr_single p in
    expect_name p "with";
    Ast.Replace_node (target, parse_expr_single p))

and parse_or p =
  let a = parse_and p in
  if is_name p "or" then (
    advance p;
    Ast.Or (a, parse_or p))
  else a

and parse_and p =
  let a = parse_comparison p in
  if is_name p "and" then (
    advance p;
    Ast.And (a, parse_and p))
  else a

and parse_comparison p =
  let a = parse_range p in
  let mk op =
    advance p;
    Ast.Compare (op, a, parse_range p)
  in
  match tok p with
  | Lexer.Sym "=" -> mk Ast.G_eq
  | Lexer.Sym "!=" -> mk Ast.G_ne
  | Lexer.Sym "<" -> mk Ast.G_lt
  | Lexer.Sym "<=" -> mk Ast.G_le
  | Lexer.Sym ">" -> mk Ast.G_gt
  | Lexer.Sym ">=" -> mk Ast.G_ge
  | Lexer.Sym "<<" -> mk Ast.N_before
  | Lexer.Sym ">>" -> mk Ast.N_after
  | Lexer.Name ("", "eq") -> mk Ast.V_eq
  | Lexer.Name ("", "ne") -> mk Ast.V_ne
  | Lexer.Name ("", "lt") -> mk Ast.V_lt
  | Lexer.Name ("", "le") -> mk Ast.V_le
  | Lexer.Name ("", "gt") -> mk Ast.V_gt
  | Lexer.Name ("", "ge") -> mk Ast.V_ge
  | Lexer.Name ("", "is") -> mk Ast.N_is
  | _ -> a

and parse_range p =
  let a = parse_additive p in
  if is_name p "to" then (
    advance p;
    Ast.Range (a, parse_additive p))
  else a

and parse_additive p =
  let rec loop a =
    match tok p with
    | Lexer.Sym "+" ->
        advance p;
        loop (Ast.Arith (Ast.Add, a, parse_multiplicative p))
    | Lexer.Sym "-" ->
        advance p;
        loop (Ast.Arith (Ast.Sub, a, parse_multiplicative p))
    | _ -> a
  in
  loop (parse_multiplicative p)

and parse_multiplicative p =
  let rec loop a =
    match tok p with
    | Lexer.Sym "*" ->
        advance p;
        loop (Ast.Arith (Ast.Mul, a, parse_union p))
    | Lexer.Name ("", "div") ->
        advance p;
        loop (Ast.Arith (Ast.Div, a, parse_union p))
    | Lexer.Name ("", "idiv") ->
        advance p;
        loop (Ast.Arith (Ast.Idiv, a, parse_union p))
    | Lexer.Name ("", "mod") ->
        advance p;
        loop (Ast.Arith (Ast.Mod, a, parse_union p))
    | _ -> a
  in
  loop (parse_union p)

and parse_union p =
  let rec loop a =
    if eat_sym p "|" || (is_name p "union" && peek2_not_brace p) then (
      if is_name p "union" then advance p;
      loop (Ast.Union (a, parse_intersect_except p)))
    else a
  in
  loop (parse_intersect_except p)

and parse_intersect_except p =
  let rec loop a =
    if is_name p "intersect" then (
      advance p;
      loop (Ast.Intersect (a, parse_instance_of p)))
    else if is_name p "except" then (
      advance p;
      loop (Ast.Except (a, parse_instance_of p)))
    else a
  in
  loop (parse_instance_of p)

and peek2_not_brace _p = true

and parse_instance_of p =
  let a = parse_treat p in
  if is_name p "instance" then (
    advance p;
    expect_name p "of";
    Ast.Instance_of (a, parse_seq_type p))
  else a

and parse_treat p =
  let a = parse_castable p in
  if is_name p "treat" then (
    advance p;
    expect_name p "as";
    Ast.Treat_as (a, parse_seq_type p))
  else a

and parse_castable p =
  let a = parse_cast p in
  if is_name p "castable" then (
    advance p;
    expect_name p "as";
    let t, opt = parse_single_type p in
    Ast.Castable_as (a, t, opt))
  else a

and parse_single_type p =
  match tok p with
  | Lexer.Name (pfx, local) ->
      advance p;
      let t = atomic_type p (pfx, local) in
      let opt = eat_sym p "?" in
      (t, opt)
  | t -> error "expected atomic type, found %s" (Lexer.token_to_string t)

and parse_cast p =
  let a = parse_unary p in
  if is_name p "cast" then (
    advance p;
    expect_name p "as";
    let t, opt = parse_single_type p in
    Ast.Cast_as (a, t, opt))
  else a

and parse_unary p =
  if eat_sym p "-" then Ast.Neg (parse_unary p)
  else if eat_sym p "+" then parse_unary p
  else parse_path p

and parse_path p =
  match tok p with
  | Lexer.Sym "/" -> (
      advance p;
      match tok p with
      | Lexer.Name _ | Lexer.Star_colon _ | Lexer.Ns_star _ | Lexer.Sym "*"
      | Lexer.Sym "@" | Lexer.Sym "." | Lexer.Sym ".." ->
          Ast.Path (Ast.Root, parse_relative_path p)
      | _ -> Ast.Root)
  | Lexer.Sym "//" ->
      advance p;
      relative_path_from p (descendant_path Ast.Root (parse_step p))
  | _ -> parse_relative_path p

and parse_relative_path p = relative_path_from p (parse_step p)

(* the rest of a path whose steps so far are [a]; [/] associates to the
   left, as in XPath 2.0 *)
and relative_path_from p a =
  match tok p with
  | Lexer.Sym "/" ->
      advance p;
      relative_path_from p (Ast.Path (a, parse_step p))
  | Lexer.Sym "//" ->
      advance p;
      relative_path_from p (descendant_path a (parse_step p))
  | _ -> a

and parse_predicates p =
  let rec loop acc =
    if eat_sym p "[" then (
      let e = parse_expr p in
      expect_sym p "]";
      loop (e :: acc))
    else List.rev acc
  in
  loop []

and is_computed_ctor p =
  (* computed constructors must win over name-test steps *)
  match tok p with
  | Lexer.Name ("", ("element" | "attribute")) -> (
      match peek2 p with
      | Lexer.Sym "{" -> true
      | Lexer.Name _ -> peek3 p = Lexer.Sym "{"
      | _ -> false)
  | Lexer.Name ("", ("text" | "comment" | "document")) ->
      peek2 p = Lexer.Sym "{"
  | _ -> false

and parse_step p =
  if is_computed_ctor p then (
    let prim = parse_primary p in
    let preds = parse_predicates p in
    if preds = [] then prim else Ast.Filter (prim, preds))
  else
  match tok p with
  | Lexer.Sym ".." ->
      advance p;
      let preds = parse_predicates p in
      Ast.Step (Ast.Parent, Ast.Kind_test Ast.K_node, preds)
  | Lexer.Sym "@" ->
      advance p;
      let test = parse_node_test p ~attr:true in
      Ast.Step (Ast.Attribute, test, parse_predicates p)
  | Lexer.Name ("", axis) when peek2 p = Lexer.Sym "::" && is_axis_name axis ->
      advance p;
      advance p;
      let ax = axis_of_name axis in
      let test = parse_node_test p ~attr:(ax = Ast.Attribute) in
      Ast.Step (ax, test, parse_predicates p)
  | Lexer.Name ("", kt)
    when peek2 p = Lexer.Sym "("
         && List.mem kt
              [ "node"; "text"; "comment"; "processing-instruction";
                "document-node"; "element"; "attribute" ] ->
      let test = parse_node_test p ~attr:false in
      Ast.Step (Ast.Child, test, parse_predicates p)
  | Lexer.Name (pfx, local)
    when peek2 p <> Lexer.Sym "(" || List.mem local reserved_fn_names ->
      advance p;
      let q = elem_qname p (pfx, local) in
      Ast.Step (Ast.Child, Ast.Name_test q, parse_predicates p)
  | Lexer.Star_colon local ->
      advance p;
      Ast.Step (Ast.Child, Ast.Local_wildcard local, parse_predicates p)
  | Lexer.Ns_star pfx ->
      advance p;
      Ast.Step (Ast.Child, Ast.Ns_wildcard (resolve_prefix p pfx), parse_predicates p)
  | Lexer.Sym "*" ->
      advance p;
      Ast.Step (Ast.Child, Ast.Any_name, parse_predicates p)
  | _ ->
      let prim = parse_primary p in
      let preds = parse_predicates p in
      if preds = [] then prim else Ast.Filter (prim, preds)

and is_axis_name = function
  | "child" | "descendant" | "descendant-or-self" | "self" | "parent"
  | "ancestor" | "ancestor-or-self" | "attribute" | "following-sibling"
  | "preceding-sibling" | "following" | "preceding" ->
      true
  | _ -> false

and axis_of_name = function
  | "child" -> Ast.Child
  | "descendant" -> Ast.Descendant
  | "descendant-or-self" -> Ast.Descendant_or_self
  | "self" -> Ast.Self
  | "parent" -> Ast.Parent
  | "ancestor" -> Ast.Ancestor
  | "ancestor-or-self" -> Ast.Ancestor_or_self
  | "attribute" -> Ast.Attribute
  | "following-sibling" -> Ast.Following_sibling
  | "preceding-sibling" -> Ast.Preceding_sibling
  | "following" -> Ast.Following
  | "preceding" -> Ast.Preceding
  | a -> error "unknown axis %s" a

and parse_node_test p ~attr =
  match tok p with
  | Lexer.Sym "*" ->
      advance p;
      Ast.Any_name
  | Lexer.Star_colon local ->
      advance p;
      Ast.Local_wildcard local
  | Lexer.Ns_star pfx ->
      advance p;
      Ast.Ns_wildcard (resolve_prefix p pfx)
  | Lexer.Name ("", kt) when peek2 p = Lexer.Sym "(" -> (
      match kt with
      | "node" ->
          advance p;
          expect_sym p "(";
          expect_sym p ")";
          Ast.Kind_test Ast.K_node
      | "text" ->
          advance p;
          expect_sym p "(";
          expect_sym p ")";
          Ast.Kind_test Ast.K_text
      | "comment" ->
          advance p;
          expect_sym p "(";
          expect_sym p ")";
          Ast.Kind_test Ast.K_comment
      | "document-node" ->
          advance p;
          expect_sym p "(";
          expect_sym p ")";
          Ast.Kind_test Ast.K_document
      | "processing-instruction" ->
          advance p;
          expect_sym p "(";
          let target =
            match tok p with
            | Lexer.Name ("", n) ->
                advance p;
                Some n
            | Lexer.Str_lit s ->
                advance p;
                Some s
            | _ -> None
          in
          expect_sym p ")";
          Ast.Kind_test (Ast.K_pi target)
      | "element" ->
          advance p;
          expect_sym p "(";
          let n =
            match tok p with
            | Lexer.Name (np, nl) ->
                advance p;
                Some (elem_qname p (np, nl))
            | Lexer.Sym "*" ->
                advance p;
                None
            | _ -> None
          in
          expect_sym p ")";
          Ast.Kind_test (Ast.K_element n)
      | "attribute" ->
          advance p;
          expect_sym p "(";
          let n =
            match tok p with
            | Lexer.Name (np, nl) ->
                advance p;
                Some (elem_qname p (np, nl))
            | Lexer.Sym "*" ->
                advance p;
                None
            | _ -> None
          in
          expect_sym p ")";
          Ast.Kind_test (Ast.K_attribute n)
      | n ->
          advance p;
          Ast.Name_test (elem_qname p ("", n)))
  | Lexer.Name (pfx, local) ->
      advance p;
      if attr then
        (* attribute names: no default namespace *)
        let uri = if pfx = "" then "" else resolve_prefix p pfx in
        Ast.Name_test (Qname.make ~prefix:pfx ~uri local)
      else Ast.Name_test (elem_qname p (pfx, local))
  | t -> error "expected node test, found %s" (Lexer.token_to_string t)

and parse_primary p =
  match tok p with
  | Lexer.Int_lit i ->
      advance p;
      Ast.Literal (Xs.Integer i)
  | Lexer.Dec_lit f ->
      advance p;
      Ast.Literal (Xs.Decimal f)
  | Lexer.Dbl_lit f ->
      advance p;
      Ast.Literal (Xs.Double f)
  | Lexer.Str_lit s ->
      advance p;
      Ast.Literal (Xs.String s)
  | Lexer.Var (pfx, local) ->
      advance p;
      Ast.Var (var_qname p (pfx, local))
  | Lexer.Sym "(" ->
      advance p;
      if eat_sym p ")" then Ast.Sequence []
      else
        let e = parse_expr p in
        expect_sym p ")";
        e
  | Lexer.Sym "." ->
      advance p;
      Ast.Context_item
  | Lexer.Sym "<" -> parse_direct_constructor p
  | Lexer.Name ("", "element")
    when (match peek2 p with
         | Lexer.Sym "{" | Lexer.Name _ -> true
         | _ -> false) ->
      advance p;
      let name_e =
        if eat_sym p "{" then (
          let e = parse_expr p in
          expect_sym p "}";
          e)
        else
          match tok p with
          | Lexer.Name (pfx, local) ->
              advance p;
              Ast.Literal (Xs.QName (elem_qname p (pfx, local)))
          | t -> error "expected element name, found %s" (Lexer.token_to_string t)
      in
      expect_sym p "{";
      let content = if eat_sym p "}" then Ast.Sequence [] else (
        let e = parse_expr p in
        expect_sym p "}";
        e)
      in
      Ast.Comp_elem (name_e, content)
  | Lexer.Name ("", "attribute")
    when (match peek2 p with
         | Lexer.Sym "{" | Lexer.Name _ -> true
         | _ -> false) ->
      advance p;
      let name_e =
        if eat_sym p "{" then (
          let e = parse_expr p in
          expect_sym p "}";
          e)
        else
          match tok p with
          | Lexer.Name (pfx, local) ->
              advance p;
              let uri = if pfx = "" then "" else resolve_prefix p pfx in
              Ast.Literal (Xs.QName (Qname.make ~prefix:pfx ~uri local))
          | t -> error "expected attribute name, found %s" (Lexer.token_to_string t)
      in
      expect_sym p "{";
      let content = if eat_sym p "}" then Ast.Sequence [] else (
        let e = parse_expr p in
        expect_sym p "}";
        e)
      in
      Ast.Comp_attr (name_e, content)
  | Lexer.Name ("", "text") when peek2 p = Lexer.Sym "{" ->
      advance p;
      expect_sym p "{";
      let e = parse_expr p in
      expect_sym p "}";
      Ast.Text_ctor e
  | Lexer.Name ("", "comment") when peek2 p = Lexer.Sym "{" ->
      advance p;
      expect_sym p "{";
      let e = parse_expr p in
      expect_sym p "}";
      Ast.Comment_ctor e
  | Lexer.Name ("", "document") when peek2 p = Lexer.Sym "{" ->
      advance p;
      expect_sym p "{";
      let e = parse_expr p in
      expect_sym p "}";
      Ast.Doc_ctor e
  | Lexer.Name (pfx, local)
    when peek2 p = Lexer.Sym "(" && not (List.mem local reserved_fn_names) ->
      advance p;
      let q = fn_qname p (pfx, local) in
      expect_sym p "(";
      let args =
        if eat_sym p ")" then []
        else
          let rec more acc =
            let e = parse_expr_single p in
            if eat_sym p "," then more (e :: acc)
            else (
              expect_sym p ")";
              List.rev (e :: acc))
          in
          more []
      in
      Ast.Call (q, args)
  | t -> error "unexpected token %s" (Lexer.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Direct constructors (character level)                               *)
(* ------------------------------------------------------------------ *)

and parse_direct_constructor p =
  Lexer.rewind_to_token p.lx;
  let lx = p.lx in
  let src = lx.Lexer.src in
  let cur () = if lx.Lexer.pos < String.length src then Some src.[lx.Lexer.pos] else None in
  let adv () = lx.Lexer.pos <- lx.Lexer.pos + 1 in
  let looking s =
    let n = String.length s in
    lx.Lexer.pos + n <= String.length src && String.sub src lx.Lexer.pos n = s
  in
  let expect_ch c =
    match cur () with
    | Some c' when c' = c -> adv ()
    | _ -> error "direct constructor: expected %c at %d" c lx.Lexer.pos
  in
  let read_name () =
    let start = lx.Lexer.pos in
    while
      lx.Lexer.pos < String.length src
      && (Lexer.is_name_char src.[lx.Lexer.pos] || src.[lx.Lexer.pos] = ':')
    do
      adv ()
    done;
    if lx.Lexer.pos = start then error "direct constructor: expected name";
    Qname.split (String.sub src start (lx.Lexer.pos - start))
  in
  let skip_ws () =
    while
      match cur () with Some c when Lexer.is_space c -> true | _ -> false
    do
      adv ()
    done
  in
  (* parse an enclosed expression "{...}" starting at the "{" *)
  let enclosed_expr () =
    expect_ch '{';
    Lexer.reprime lx;
    let e = parse_expr p in
    (match tok p with
    | Lexer.Sym "}" -> lx.Lexer.pos <- lx.Lexer.tok_start + 1
    | t -> error "expected } after enclosed expression, found %s"
             (Lexer.token_to_string t))
    ;
    e
  in
  let rec parse_elem () =
    expect_ch '<';
    let prefix, local = read_name () in
    (* attributes: value is a mix of literal text and enclosed exprs *)
    let ns_decls = ref [] in
    let attrs = ref [] in
    let rec attr_loop () =
      skip_ws ();
      match cur () with
      | Some c when Lexer.is_name_start c ->
          let apfx, alocal = read_name () in
          skip_ws ();
          expect_ch '=';
          skip_ws ();
          let quote =
            match cur () with
            | Some (('"' | '\'') as q) ->
                adv ();
                q
            | _ -> error "expected attribute value"
          in
          let parts = ref [] in
          let buf = Buffer.create 16 in
          let flush_text () =
            if Buffer.length buf > 0 then (
              parts := Ast.A_text (Buffer.contents buf) :: !parts;
              Buffer.clear buf)
          in
          let rec value_loop () =
            match cur () with
            | None -> error "unterminated attribute value"
            | Some c when c = quote -> adv ()
            | Some '{' when looking "{{" ->
                adv ();
                adv ();
                Buffer.add_char buf '{';
                value_loop ()
            | Some '}' when looking "}}" ->
                adv ();
                adv ();
                Buffer.add_char buf '}';
                value_loop ()
            | Some '{' ->
                flush_text ();
                parts := Ast.A_expr (enclosed_expr ()) :: !parts;
                value_loop ()
            | Some '&' ->
                let stop =
                  match String.index_from_opt src lx.Lexer.pos ';' with
                  | Some i -> i
                  | None -> error "unterminated entity"
                in
                let ent = String.sub src (lx.Lexer.pos + 1) (stop - lx.Lexer.pos - 1) in
                Buffer.add_string buf
                  (match ent with
                  | "lt" -> "<"
                  | "gt" -> ">"
                  | "amp" -> "&"
                  | "quot" -> "\""
                  | "apos" -> "'"
                  | e -> error "unknown entity &%s;" e);
                lx.Lexer.pos <- stop + 1;
                value_loop ()
            | Some c ->
                adv ();
                Buffer.add_char buf c;
                value_loop ()
          in
          value_loop ();
          flush_text ();
          let parts = List.rev !parts in
          (if apfx = "xmlns" then
             match parts with
             | [ Ast.A_text uri ] -> ns_decls := (alocal, uri) :: !ns_decls
             | [] -> ns_decls := (alocal, "") :: !ns_decls
             | _ -> error "namespace declaration must be a literal"
           else if apfx = "" && alocal = "xmlns" then
             match parts with
             | [ Ast.A_text uri ] -> ns_decls := ("", uri) :: !ns_decls
             | [] -> ns_decls := ("", "") :: !ns_decls
             | _ -> error "namespace declaration must be a literal"
           else attrs := (apfx, alocal, parts) :: !attrs);
          attr_loop ()
      | _ -> ()
    in
    attr_loop ();
    (* namespace scoping: temporarily extend the parser's env *)
    let saved_ns = p.namespaces and saved_default = p.default_elem_ns in
    List.iter
      (fun (pfx, uri) ->
        if pfx = "" then p.default_elem_ns <- uri
        else p.namespaces <- (pfx, uri) :: p.namespaces)
      !ns_decls;
    let name = elem_qname p (prefix, local) in
    let resolved_attrs =
      List.rev_map
        (fun (apfx, alocal, parts) ->
          let uri = if apfx = "" then "" else resolve_prefix p apfx in
          (Qname.make ~prefix:apfx ~uri alocal, parts))
        !attrs
    in
    skip_ws ();
    let result =
      if looking "/>" then (
        adv ();
        adv ();
        Ast.Elem_ctor (name, resolved_attrs, []))
      else (
        expect_ch '>';
        let content = parse_content () in
        (* </name> *)
        expect_ch '<';
        expect_ch '/';
        let cpfx, clocal = read_name () in
        if cpfx <> prefix || clocal <> local then
          error "mismatched constructor end tag </%s:%s>" cpfx clocal;
        skip_ws ();
        expect_ch '>';
        Ast.Elem_ctor (name, resolved_attrs, content))
    in
    p.namespaces <- saved_ns;
    p.default_elem_ns <- saved_default;
    result
  and parse_content () =
    let items = ref [] in
    let buf = Buffer.create 32 in
    let flush_text () =
      let s = Buffer.contents buf in
      Buffer.clear buf;
      let keep =
        p.boundary_space
        || String.exists (fun c -> not (Lexer.is_space c)) s
      in
      if s <> "" && keep then
        items := Ast.Text_ctor (Ast.Literal (Xs.String s)) :: !items
    in
    let rec loop () =
      if looking "</" then flush_text ()
      else if looking "<!--" then (
        flush_text ();
        lx.Lexer.pos <- lx.Lexer.pos + 4;
        let start = lx.Lexer.pos in
        let rec find i =
          if i + 3 > String.length src then error "unterminated comment"
          else if String.sub src i 3 = "-->" then i
          else find (i + 1)
        in
        let stop = find start in
        items :=
          Ast.Comment_ctor
            (Ast.Literal (Xs.String (String.sub src start (stop - start))))
          :: !items;
        lx.Lexer.pos <- stop + 3;
        loop ())
      else if looking "<" then (
        flush_text ();
        items := parse_elem () :: !items;
        loop ())
      else if looking "{{" then (
        adv ();
        adv ();
        Buffer.add_char buf '{';
        loop ())
      else if looking "}}" then (
        adv ();
        adv ();
        Buffer.add_char buf '}';
        loop ())
      else if looking "{" then (
        flush_text ();
        items := enclosed_expr () :: !items;
        loop ())
      else
        match cur () with
        | None -> error "unterminated element constructor"
        | Some '&' ->
            let stop =
              match String.index_from_opt src lx.Lexer.pos ';' with
              | Some i -> i
              | None -> error "unterminated entity"
            in
            let ent = String.sub src (lx.Lexer.pos + 1) (stop - lx.Lexer.pos - 1) in
            Buffer.add_string buf
              (match ent with
              | "lt" -> "<"
              | "gt" -> ">"
              | "amp" -> "&"
              | "quot" -> "\""
              | "apos" -> "'"
              | e -> error "unknown entity &%s;" e);
            lx.Lexer.pos <- stop + 1;
            loop ()
        | Some c ->
            adv ();
            Buffer.add_char buf c;
            loop ()
    in
    loop ();
    List.rev !items
  in
  let e = parse_elem () in
  Lexer.reprime p.lx;
  e

(* ------------------------------------------------------------------ *)
(* Prolog and modules                                                  *)
(* ------------------------------------------------------------------ *)

let parse_prolog p =
  let decls = ref [] in
  let rec loop () =
    if is_name p "declare" then (
      advance p;
      (if eat_name p "namespace" then (
         match tok p with
         | Lexer.Name ("", pfx) ->
             advance p;
             expect_sym p "=";
             let uri = expect_string p in
             p.namespaces <- (pfx, uri) :: p.namespaces;
             decls := Ast.P_namespace (pfx, uri) :: !decls
         | t -> error "expected prefix, found %s" (Lexer.token_to_string t))
       else if eat_name p "default" then
         if eat_name p "element" then (
           expect_name p "namespace";
           let uri = expect_string p in
           p.default_elem_ns <- uri;
           decls := Ast.P_default_element_ns uri :: !decls)
         else (
           expect_name p "function";
           expect_name p "namespace";
           let uri = expect_string p in
           p.default_fn_ns <- uri;
           decls := Ast.P_default_function_ns uri :: !decls)
       else if eat_name p "boundary-space" then (
         let preserve = eat_name p "preserve" in
         if not preserve then expect_name p "strip";
         p.boundary_space <- preserve;
         decls := Ast.P_boundary_space preserve :: !decls)
       else if eat_name p "option" then (
         match tok p with
         | Lexer.Name (pfx, local) ->
             advance p;
             let q = fn_qname p (pfx, local) in
             let v = expect_string p in
             decls := Ast.P_option (q, v) :: !decls
         | t -> error "expected option name, found %s" (Lexer.token_to_string t))
       else if eat_name p "variable" then (
         let v = expect_var p in
         if eat_name p "as" then ignore (parse_seq_type p);
         expect_sym p ":=";
         let e = parse_expr_single p in
         decls := Ast.P_var (v, e) :: !decls)
       else
         let updating = eat_name p "updating" in
         if eat_name p "function" then (
           let fname =
             match tok p with
             | Lexer.Name (pfx, local) ->
                 advance p;
                 fn_qname p (pfx, local)
             | t -> error "expected function name, found %s" (Lexer.token_to_string t)
           in
           expect_sym p "(";
           let params =
             if eat_sym p ")" then []
             else
               let rec more acc =
                 let v = expect_var p in
                 let ty =
                   if eat_name p "as" then Some (parse_seq_type p) else None
                 in
                 if eat_sym p "," then more ((v, ty) :: acc)
                 else (
                   expect_sym p ")";
                   List.rev ((v, ty) :: acc))
               in
               more []
           in
           let ret =
             if eat_name p "as" then Some (parse_seq_type p) else None
           in
           let body =
             if eat_name p "external" then None
             else (
               expect_sym p "{";
               let e = parse_expr p in
               expect_sym p "}";
               Some e)
           in
           decls :=
             Ast.P_function
               { fn_name = fname; fn_params = params; fn_return = ret;
                 fn_body = body; fn_updating = updating }
             :: !decls)
         else error "unknown declaration after 'declare'");
      expect_sym p ";";
      loop ())
    else if is_name p "import" then (
      advance p;
      expect_name p "module";
      let pfx =
        if eat_name p "namespace" then (
          match tok p with
          | Lexer.Name ("", pfx) ->
              advance p;
              expect_sym p "=";
              Some pfx
          | t -> error "expected prefix, found %s" (Lexer.token_to_string t))
        else None
      in
      let uri = expect_string p in
      (match pfx with
      | Some pfx -> p.namespaces <- (pfx, uri) :: p.namespaces
      | None -> ());
      let at = if eat_name p "at" then Some (expect_string p) else None in
      decls := Ast.P_import_module (pfx, uri, at) :: !decls;
      expect_sym p ";";
      loop ())
  in
  loop ();
  List.rev !decls

(** Parse a complete main or library module. *)
let parse_prog src =
  let p = make src in
  (* optional version declaration *)
  if is_name p "xquery" then (
    advance p;
    expect_name p "version";
    ignore (expect_string p);
    if eat_name p "encoding" then ignore (expect_string p);
    expect_sym p ";");
  let module_decl =
    if is_name p "module" then (
      advance p;
      expect_name p "namespace";
      match tok p with
      | Lexer.Name ("", pfx) ->
          advance p;
          expect_sym p "=";
          let uri = expect_string p in
          expect_sym p ";";
          p.namespaces <- (pfx, uri) :: p.namespaces;
          Some (pfx, uri)
      | t -> error "expected module prefix, found %s" (Lexer.token_to_string t))
    else None
  in
  let prolog = parse_prolog p in
  let body =
    match module_decl with
    | Some _ ->
        if tok p <> Lexer.Eof then
          error "library module has trailing content: %s"
            (Lexer.token_to_string (tok p));
        None
    | None ->
        let e = parse_expr p in
        if tok p <> Lexer.Eof then
          error "trailing content after query body: %s"
            (Lexer.token_to_string (tok p));
        Some e
  in
  { Ast.module_decl; prolog; body }

(** Parse a standalone expression (tests, generated queries). *)
let parse_expression src =
  let p = make src in
  let e = parse_expr p in
  if tok p <> Lexer.Eof then
    error "trailing content: %s" (Lexer.token_to_string (tok p));
  e
