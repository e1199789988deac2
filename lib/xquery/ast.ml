(** Abstract syntax for the XQuery subset + the XRPC extension.

    The subset covers everything the paper's queries use: FLWOR with
    [order by], quantifiers, full path expressions with predicates, direct
    and computed constructors, typeswitch/instance of/cast, modules with
    user-defined (possibly updating) functions, XQUF update expressions, and
    the new [execute at {Expr}{FunApp(...)}] primary expression. *)

open Xrpc_xml

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Attribute
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Self -> "self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Attribute -> "attribute"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"

type node_test =
  | Name_test of Qname.t
  | Any_name  (** [*] *)
  | Ns_wildcard of string  (** [prefix:*], uri resolved *)
  | Local_wildcard of string  (** [*:local] *)
  | Kind_test of kind_test

and kind_test =
  | K_node
  | K_text
  | K_comment
  | K_pi of string option
  | K_element of Qname.t option
  | K_attribute of Qname.t option
  | K_document

type occurrence = Exactly_one | Zero_or_one | Zero_or_more | One_or_more

type item_type =
  | It_atomic of Xs.typ
  | It_node
  | It_element of Qname.t option
  | It_attribute of Qname.t option
  | It_text
  | It_comment
  | It_pi
  | It_document
  | It_item

type seq_type = Seq_empty | Seq of item_type * occurrence

(** Where an XQUF insert puts the source nodes relative to the target. *)
type insert_target = Into | As_first | As_last | Before | After

type comparison =
  (* value comparisons *)
  | V_eq | V_ne | V_lt | V_le | V_gt | V_ge
  (* general comparisons *)
  | G_eq | G_ne | G_lt | G_le | G_gt | G_ge
  (* node comparisons *)
  | N_is | N_before | N_after

type arith = Add | Sub | Mul | Div | Idiv | Mod

(** An OrderSpec's modifiers; the one collation is Unicode codepoints. *)
type order_modifier = { descending : bool; empty_greatest : bool }

type expr =
  | Literal of Xs.t
  | Var of Qname.t
  | Context_item  (** [.] *)
  | Root  (** leading [/] — root of the context node's tree *)
  | Sequence of expr list  (** comma operator; [Sequence []] is [()] *)
  | Range of expr * expr  (** [e1 to e2] *)
  | Arith of arith * expr * expr
  | Neg of expr
  | Compare of comparison * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Union of expr * expr  (** [e1 | e2] *)
  | Intersect of expr * expr
  | Except of expr * expr
  | If of expr * expr * expr
  | Flwor of clause list * (expr * order_modifier) list * expr
      (** clauses, order-by specs, return *)
  | Quantified of [ `Some | `Every ] * (Qname.t * expr) list * expr
  | Path of expr * expr
      (** [e1 / e2]: evaluate [e2] with each node of [e1] as context *)
  | Step of axis * node_test * expr list  (** axis step with predicates *)
  | Filter of expr * expr list  (** primary expression with predicates *)
  | Call of Qname.t * expr list
  | Execute_at of expr * Qname.t * expr list  (** the XRPC extension *)
  | Elem_ctor of Qname.t * (Qname.t * attr_content list) list * expr list
      (** direct constructor: name, attributes, content *)
  | Comp_elem of expr * expr  (** computed element: name expr, content *)
  | Comp_attr of expr * expr
  | Text_ctor of expr
  | Comment_ctor of expr
  | Doc_ctor of expr
  | Typeswitch of expr * (seq_type * Qname.t option * expr) list * (Qname.t option * expr)
  | Instance_of of expr * seq_type
  | Cast_as of expr * Xs.typ * bool  (** [bool]: allow empty ([?]) *)
  | Castable_as of expr * Xs.typ * bool
  | Treat_as of expr * seq_type
  (* XQUF update expressions *)
  | Insert of insert_target * expr * expr  (** position, source, target *)
  | Delete of expr
  | Replace_node of expr * expr  (** target, replacement *)
  | Replace_value of expr * expr
  | Rename_node of expr * expr

and clause =
  | For of Qname.t * Qname.t option * expr  (** var, positional var, in *)
  | Let of Qname.t * expr
  | Where of expr

and attr_content = A_text of string | A_expr of expr

type function_decl = {
  fn_name : Qname.t;
  fn_params : (Qname.t * seq_type option) list;
  fn_return : seq_type option;
  fn_body : expr option;  (** [None] for [external] *)
  fn_updating : bool;
}

type prolog_decl =
  | P_namespace of string * string  (** prefix, uri *)
  | P_default_element_ns of string
  | P_default_function_ns of string
  | P_import_module of string option * string * string option
      (** prefix, uri, at-hint *)
  | P_var of Qname.t * expr
  | P_function of function_decl
  | P_option of Qname.t * string
  | P_boundary_space of bool

type prog = {
  module_decl : (string * string) option;  (** library module: prefix, uri *)
  prolog : prolog_decl list;
  body : expr option;  (** [None] for library modules *)
}

(* ------------------------------------------------------------------ *)
(* Pretty-printing (for plan/AST debugging and tests)                  *)
(* ------------------------------------------------------------------ *)

let kind_test_to_string k =
  let name = function Some q -> Qname.to_string q | None -> "" in
  match k with
  | K_node -> "node()"
  | K_text -> "text()"
  | K_comment -> "comment()"
  | K_pi t -> "processing-instruction(" ^ Option.value t ~default:"" ^ ")"
  | K_element q -> "element(" ^ name q ^ ")"
  | K_attribute q -> "attribute(" ^ name q ^ ")"
  | K_document -> "document-node()"

let rec pp_expr fmt e =
  let open Format in
  match e with
  | Literal a -> Xs.pp fmt a
  | Var q -> fprintf fmt "$%s" (Qname.to_string q)
  | Context_item -> pp_print_string fmt "."
  | Root -> pp_print_string fmt "fn:root(.)"
  | Sequence es ->
      fprintf fmt "(%a)"
        (pp_print_list ~pp_sep:(fun f () -> pp_print_string f ", ") pp_expr)
        es
  | Range (a, b) -> fprintf fmt "(%a to %a)" pp_expr a pp_expr b
  | Arith (op, a, b) ->
      let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Idiv -> "idiv" | Mod -> "mod" in
      fprintf fmt "(%a %s %a)" pp_expr a s pp_expr b
  | Neg a -> fprintf fmt "(-%a)" pp_expr a
  | Compare (_, a, b) -> fprintf fmt "(%a <=> %a)" pp_expr a pp_expr b
  | And (a, b) -> fprintf fmt "(%a and %a)" pp_expr a pp_expr b
  | Or (a, b) -> fprintf fmt "(%a or %a)" pp_expr a pp_expr b
  | Union (a, b) -> fprintf fmt "(%a | %a)" pp_expr a pp_expr b
  | Intersect (a, b) -> fprintf fmt "(%a intersect %a)" pp_expr a pp_expr b
  | Except (a, b) -> fprintf fmt "(%a except %a)" pp_expr a pp_expr b
  | If (c, t, e) -> fprintf fmt "if (%a) then %a else %a" pp_expr c pp_expr t pp_expr e
  | Flwor (cs, _, ret) ->
      fprintf fmt "FLWOR[%d clauses] return %a" (List.length cs) pp_expr ret
  | Quantified (q, _, sat) ->
      fprintf fmt "%s .. satisfies %a"
        (match q with `Some -> "some" | `Every -> "every")
        pp_expr sat
  | Path (a, b) -> fprintf fmt "%a/%a" pp_expr a pp_expr b
  | Step (ax, t, preds) ->
      fprintf fmt "%s::%s%s" (axis_name ax)
        (match t with
        | Name_test q -> Qname.to_string q
        | Any_name -> "*"
        | Ns_wildcard p -> p ^ ":*"
        | Local_wildcard l -> "*:" ^ l
        | Kind_test k -> kind_test_to_string k)
        (if preds = [] then "" else "[..]")
  | Filter (e, _) -> fprintf fmt "%a[..]" pp_expr e
  | Call (q, args) -> fprintf fmt "%s(#%d)" (Qname.to_string q) (List.length args)
  | Execute_at (d, f, args) ->
      fprintf fmt "execute at {%a} {%s(#%d)}" pp_expr d (Qname.to_string f)
        (List.length args)
  | Elem_ctor (q, _, _) -> fprintf fmt "<%s>..." (Qname.to_string q)
  | Comp_elem _ -> pp_print_string fmt "element {..} {..}"
  | Comp_attr _ -> pp_print_string fmt "attribute {..} {..}"
  | Text_ctor _ -> pp_print_string fmt "text {..}"
  | Comment_ctor _ -> pp_print_string fmt "comment {..}"
  | Doc_ctor _ -> pp_print_string fmt "document {..}"
  | Typeswitch _ -> pp_print_string fmt "typeswitch"
  | Instance_of _ -> pp_print_string fmt "instance of"
  | Cast_as _ -> pp_print_string fmt "cast as"
  | Castable_as _ -> pp_print_string fmt "castable as"
  | Treat_as _ -> pp_print_string fmt "treat as"
  | Insert _ -> pp_print_string fmt "insert"
  | Delete _ -> pp_print_string fmt "delete"
  | Replace_node _ | Replace_value _ -> pp_print_string fmt "replace"
  | Rename_node _ -> pp_print_string fmt "rename"

let expr_to_string e = Format.asprintf "%a" pp_expr e

(** The direct sub-expressions of [e] that are evaluated with [e]'s own
    focus (context item, position and size).  The right operand of a path
    and the predicates of a step or filter get a new focus per item, so
    they are left out. *)
let focus_sub_exprs (e : expr) : expr list =
  match e with
  | Literal _ | Var _ | Context_item | Root | Step _ -> []
  | Path (a, _) | Filter (a, _) -> [ a ]
  | Sequence es | Call (_, es) -> es
  | Range (a, b) | Arith (_, a, b) | Compare (_, a, b) | And (a, b)
  | Or (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b)
  | Comp_elem (a, b) | Comp_attr (a, b) | Insert (_, a, b)
  | Replace_node (a, b) | Replace_value (a, b) | Rename_node (a, b) ->
      [ a; b ]
  | Neg a | Text_ctor a | Comment_ctor a | Doc_ctor a | Delete a
  | Instance_of (a, _) | Cast_as (a, _, _) | Castable_as (a, _, _)
  | Treat_as (a, _) ->
      [ a ]
  | If (c, t, e) -> [ c; t; e ]
  | Flwor (clauses, order_by, ret) ->
      List.map (function For (_, _, e) | Let (_, e) | Where e -> e) clauses
      @ List.map fst order_by @ [ ret ]
  | Quantified (_, binds, sat) -> List.map snd binds @ [ sat ]
  | Execute_at (d, _, args) -> d :: args
  | Elem_ctor (_, attrs, content) ->
      List.concat_map
        (fun (_, parts) ->
          List.filter_map
            (function A_expr e -> Some e | A_text _ -> None)
            parts)
        attrs
      @ content
  | Typeswitch (op, cases, (_, de)) ->
      (op :: List.map (fun (_, _, e) -> e) cases) @ [ de ]

(** [e] with [f] applied to each of its direct sub-expressions. *)
let map_sub_exprs (f : expr -> expr) (e : expr) : expr =
  let two k a b = k (f a) (f b) in
  match e with
  | Literal _ | Var _ | Context_item | Root -> e
  | Sequence es -> Sequence (List.map f es)
  | Range (a, b) -> two (fun a b -> Range (a, b)) a b
  | Arith (op, a, b) -> two (fun a b -> Arith (op, a, b)) a b
  | Neg a -> Neg (f a)
  | Compare (op, a, b) -> two (fun a b -> Compare (op, a, b)) a b
  | And (a, b) -> two (fun a b -> And (a, b)) a b
  | Or (a, b) -> two (fun a b -> Or (a, b)) a b
  | Union (a, b) -> two (fun a b -> Union (a, b)) a b
  | Intersect (a, b) -> two (fun a b -> Intersect (a, b)) a b
  | Except (a, b) -> two (fun a b -> Except (a, b)) a b
  | If (c, t, e) -> If (f c, f t, f e)
  | Flwor (clauses, order_by, ret) ->
      Flwor
        ( List.map
            (function
              | For (v, p, e) -> For (v, p, f e)
              | Let (v, e) -> Let (v, f e)
              | Where e -> Where (f e))
            clauses,
          List.map (fun (e, m) -> (f e, m)) order_by,
          f ret )
  | Quantified (q, binds, sat) ->
      Quantified (q, List.map (fun (v, e) -> (v, f e)) binds, f sat)
  | Path (a, b) -> two (fun a b -> Path (a, b)) a b
  | Step (axis, test, preds) -> Step (axis, test, List.map f preds)
  | Filter (e, preds) -> Filter (f e, List.map f preds)
  | Call (q, args) -> Call (q, List.map f args)
  | Execute_at (d, q, args) -> Execute_at (f d, q, List.map f args)
  | Elem_ctor (q, attrs, content) ->
      Elem_ctor
        ( q,
          List.map
            (fun (n, parts) ->
              ( n,
                List.map
                  (function A_expr e -> A_expr (f e) | A_text _ as t -> t)
                  parts ))
            attrs,
          List.map f content )
  | Comp_elem (a, b) -> two (fun a b -> Comp_elem (a, b)) a b
  | Comp_attr (a, b) -> two (fun a b -> Comp_attr (a, b)) a b
  | Text_ctor a -> Text_ctor (f a)
  | Comment_ctor a -> Comment_ctor (f a)
  | Doc_ctor a -> Doc_ctor (f a)
  | Typeswitch (op, cases, (dv, de)) ->
      Typeswitch
        (f op, List.map (fun (t, v, e) -> (t, v, f e)) cases, (dv, f de))
  | Instance_of (a, t) -> Instance_of (f a, t)
  | Cast_as (a, t, o) -> Cast_as (f a, t, o)
  | Castable_as (a, t, o) -> Castable_as (f a, t, o)
  | Treat_as (a, t) -> Treat_as (f a, t)
  | Insert (where, a, b) -> two (fun a b -> Insert (where, a, b)) a b
  | Delete a -> Delete (f a)
  | Replace_node (a, b) -> two (fun a b -> Replace_node (a, b)) a b
  | Replace_value (a, b) -> two (fun a b -> Replace_value (a, b)) a b
  | Rename_node (a, b) -> two (fun a b -> Rename_node (a, b)) a b

(** [e] asks [position()] or [last()] at its own focus. *)
let rec mentions_position (e : expr) =
  match e with
  | Call ({ Qname.local = "position" | "last"; _ }, []) -> true
  | e -> List.exists mentions_position (focus_sub_exprs e)

(** The direct sub-expressions of [e] that get a new focus per item: the
    right operand of a path, the predicates of a step or filter. *)
let item_sub_exprs (e : expr) : expr list =
  match e with
  | Path (_, b) -> [ b ]
  | Step (_, _, preds) | Filter (_, preds) -> preds
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

module Var_set = Set.Make (String)

let var_set_key (q : Qname.t) = q.Qname.uri ^ "}" ^ q.Qname.local

(** Free variable references of an expression (expanded names), used by the
    evaluator to hoist loop-invariant FLWOR clauses. *)
let rec free_vars (e : expr) : Var_set.t =
  let open Var_set in
  let ( ++ ) = union in
  match e with
  | Literal _ | Context_item | Root -> empty
  | Var q -> singleton (var_set_key q)
  | Sequence es -> List.fold_left (fun a e -> a ++ free_vars e) empty es
  | Range (a, b) | Arith (_, a, b) | Compare (_, a, b) | And (a, b)
  | Or (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b)
  | Path (a, b) | Comp_elem (a, b)
  | Comp_attr (a, b) | Insert (_, a, b) | Replace_node (a, b)
  | Replace_value (a, b) | Rename_node (a, b) ->
      free_vars a ++ free_vars b
  | Neg a | Text_ctor a | Comment_ctor a | Doc_ctor a | Delete a
  | Instance_of (a, _) | Cast_as (a, _, _) | Castable_as (a, _, _)
  | Treat_as (a, _) ->
      free_vars a
  | If (c, t, e) -> free_vars c ++ free_vars t ++ free_vars e
  | Flwor (clauses, order_by, ret) ->
      let rec go bound = function
        | [] ->
            let inner =
              List.fold_left
                (fun a (e, _) -> a ++ free_vars e)
                (free_vars ret) order_by
            in
            diff inner bound
        | For (v, posv, e) :: rest ->
            let bound' =
              add (var_set_key v)
                (match posv with
                | Some p -> add (var_set_key p) bound
                | None -> bound)
            in
            diff (free_vars e) bound ++ go bound' rest
        | Let (v, e) :: rest ->
            diff (free_vars e) bound ++ go (add (var_set_key v) bound) rest
        | Where e :: rest -> diff (free_vars e) bound ++ go bound rest
      in
      go empty clauses
  | Quantified (_, binds, sat) ->
      let rec go bound = function
        | [] -> diff (free_vars sat) bound
        | (v, e) :: rest ->
            diff (free_vars e) bound ++ go (add (var_set_key v) bound) rest
      in
      go empty binds
  | Step (_, _, preds) ->
      List.fold_left (fun a p -> a ++ free_vars p) empty preds
  | Filter (e, preds) ->
      List.fold_left (fun a p -> a ++ free_vars p) (free_vars e) preds
  | Call (_, args) -> List.fold_left (fun a e -> a ++ free_vars e) empty args
  | Execute_at (d, _, args) ->
      List.fold_left (fun a e -> a ++ free_vars e) (free_vars d) args
  | Elem_ctor (_, attrs, content) ->
      let from_attrs =
        List.fold_left
          (fun a (_, parts) ->
            List.fold_left
              (fun a p ->
                match p with A_expr e -> a ++ free_vars e | A_text _ -> a)
              a parts)
          empty attrs
      in
      List.fold_left (fun a e -> a ++ free_vars e) from_attrs content
  | Typeswitch (op, cases, (dv, de)) ->
      let case_vars =
        List.fold_left
          (fun a (_, v, e) ->
            a
            ++
            match v with
            | Some v -> remove (var_set_key v) (free_vars e)
            | None -> free_vars e)
          empty cases
      in
      let default_vars =
        match dv with
        | Some v -> remove (var_set_key v) (free_vars de)
        | None -> free_vars de
      in
      free_vars op ++ case_vars ++ default_vars
