(** The XQuery evaluator, including [execute at] and loop-lifted Bulk RPC.

    Evaluation is a straightforward tree walk over {!Ast.expr} — this plays
    the role Saxon plays in the paper (a non-bulk engine) — {e except} for
    one crucial feature: in [Rpc_bulk] mode, FLWOR clauses and
    return expressions that are [execute at] applications are evaluated
    set-at-a-time.  All iterations' destinations and parameters are
    computed first, destinations are deduplicated (the δ(dst.item) of
    Figure 2), one Bulk RPC request per destination is dispatched (in
    parallel when there are several), and the per-call results are mapped
    back to their iterations (the mapp tables of Figure 1). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let m_applications = Metrics.counter "eval.applications"
let m_apply_ms = Metrics.histogram "eval.apply_ms"

(* Installed by the cost-model layer (Xrpc_core.Cost): renders a Table-2
   estimate of the Bulk RPC dispatch about to happen, so a profile carries
   the optimizer's predicted cost right next to the measured one.  The
   evaluator cannot depend on the cost model (it lives above this
   library), hence the injection point. *)
let rpc_estimate_hook :
    (fn:string -> ncalls:int -> ndests:int -> string option) option ref =
  ref None

(* ------------------------------------------------------------------ *)
(* Node tests and axes                                                 *)
(* ------------------------------------------------------------------ *)

let kind_matches (k : Ast.kind_test) (n : Store.node) =
  match (k, Store.kind n) with
  | Ast.K_node, _ -> true
  | Ast.K_text, Store.Txt -> true
  | Ast.K_comment, Store.Comm -> true
  | Ast.K_document, Store.Doc -> true
  | Ast.K_pi None, Store.Pi -> true
  | Ast.K_pi (Some t), Store.Pi -> (
      match Store.name n with Some q -> q.Qname.local = t | None -> false)
  | Ast.K_element None, Store.Elem -> true
  | Ast.K_element (Some q), Store.Elem -> (
      match Store.name n with Some q' -> Qname.equal q q' | None -> false)
  | Ast.K_attribute None, Store.Attr -> true
  | Ast.K_attribute (Some q), Store.Attr -> (
      match Store.name n with Some q' -> Qname.equal q q' | None -> false)
  | _ -> false

let test_matches ~(principal : [ `Element | `Attribute ]) (t : Ast.node_test)
    (n : Store.node) =
  let principal_kind =
    match (principal, Store.kind n) with
    | `Element, Store.Elem -> true
    | `Attribute, Store.Attr -> true
    | _ -> false
  in
  match t with
  | Ast.Kind_test k -> kind_matches k n
  | Ast.Any_name -> principal_kind
  | Ast.Name_test q ->
      principal_kind
      && (match Store.name n with Some q' -> Qname.equal q q' | None -> false)
  | Ast.Ns_wildcard uri ->
      principal_kind
      && (match Store.name n with Some q' -> q'.Qname.uri = uri | None -> false)
  | Ast.Local_wildcard local ->
      principal_kind
      && (match Store.name n with
         | Some q' -> q'.Qname.local = local
         | None -> false)

(** Nodes reached over [axis] from [n], in axis order (reverse axes yield
    reverse document order, per XPath). *)
let axis_nodes (axis : Ast.axis) (n : Store.node) =
  match axis with
  | Ast.Child -> Store.children n
  | Ast.Descendant -> Store.descendants n
  | Ast.Descendant_or_self -> Store.descendant_or_self n
  | Ast.Self -> [ n ]
  | Ast.Parent -> ( match Store.parent n with Some p -> [ p ] | None -> [])
  | Ast.Ancestor -> Store.ancestors n
  | Ast.Ancestor_or_self -> n :: Store.ancestors n
  | Ast.Attribute -> Store.attributes n
  | Ast.Following_sibling -> Store.following_siblings n
  | Ast.Preceding_sibling -> List.rev (Store.preceding_siblings n)
  | Ast.Following -> Store.following n
  | Ast.Preceding -> List.rev (Store.preceding n)

(** The element name a step slices from the store's element-name index:
    [descendant::QName] and [descendant-or-self::QName] (or their
    [element(QName)] forms).  [None]: the step filters its axis. *)
let indexed_step (axis : Ast.axis) (test : Ast.node_test) =
  match (axis, test) with
  | ( (Ast.Descendant | Ast.Descendant_or_self),
      (Ast.Name_test q | Ast.Kind_test (Ast.K_element (Some q))) ) ->
      Some q
  | _ -> None

(** [step_nodes axis test n]: the candidates of one axis step, i.e. the
    nodes reached over [axis] from [n] that pass [test], in axis order.
    This is the one step kernel of both engines, {!eval} and the
    loop-lifted plans.  An {!indexed_step} is a slice of the store's
    element-name index; every other step filters its axis. *)
let step_nodes (axis : Ast.axis) (test : Ast.node_test) (n : Store.node) =
  match indexed_step axis test with
  | Some q ->
      Store.descendants_named ~or_self:(axis = Ast.Descendant_or_self) n q
  | None ->
      let principal = if axis = Ast.Attribute then `Attribute else `Element in
      List.filter (test_matches ~principal test) (axis_nodes axis n)

(* ---- Attribute-value index probes --------------------------------- *)

(** A step [descendant(-or-self)::T[K = X]] (or [[X = K]]) that probes the
    store's attribute-value index. *)
type value_probe = {
  elem : Qname.t;  (** [T] *)
  key : Store.key_path;  (** [K] *)
  key_expr : Ast.expr;
  operand : Ast.expr;  (** [X]: evaluated once per context node *)
  key_first : bool;  (** [K] is the left operand *)
  rest : Ast.expr list;  (** the step's other predicates *)
}

(* [@a], [c/@a], [./c/@a], [c/d/@a]: child name steps, then one
   attribute name test, none with a predicate *)
let key_path (e : Ast.expr) =
  let rec steps = function
    | Ast.Path (a, b) ->
        Option.bind (steps a) (fun x -> Option.map (( @ ) x) (steps b))
    | Ast.Context_item -> Some []
    | Ast.Step (((Ast.Child | Ast.Attribute) as axis), Ast.Name_test q, []) ->
        Some [ (axis, q) ]
    | _ -> None
  in
  match Option.map List.rev (steps e) with
  | Some ((Ast.Attribute, attr) :: children)
    when List.for_all (fun (axis, _) -> axis = Ast.Child) children ->
      Some { Store.children = List.rev_map snd children; attr }
  | _ -> None

(* [e] gives one value for every candidate: it reads no context item,
   position or size *)
let rec focus_free (e : Ast.expr) =
  match e with
  | Ast.Context_item | Ast.Root | Ast.Step _ -> false
  | Ast.Call ({ Qname.local = "root" | "string" | "name"; _ }, []) -> false
  | e ->
      (not (Ast.mentions_position e))
      && List.for_all focus_free (Ast.focus_sub_exprs e)

(* items that a general comparison with an untyped key value compares as
   strings; numbers, booleans, dates and QNames cast differently *)
let string_like = function
  | Xs.String _ | Xs.Untyped _ | Xs.AnyURI _ -> true
  | _ -> false

(* [e]'s syntax says it yields an item that is not {!string_like} *)
let rec non_string (e : Ast.expr) =
  match e with
  | Ast.Literal a -> not (string_like a)
  | Ast.Sequence es -> List.exists non_string es
  | Ast.Neg _ | Ast.Arith _ | Ast.Range _ -> true
  | _ -> false

(** The one decision of when a step probes, read by {!eval} and by
    [:explain]: a {!indexed_step} whose first predicate is [K = X] with a
    {!key_path} [K] and an [X] that is focus-free and not a non-string
    literal.  At run time an [X] holding any non-string item still
    compares each candidate instead. *)
let value_probe (axis : Ast.axis) (test : Ast.node_test) preds =
  match (indexed_step axis test, preds) with
  | Some elem, Ast.Compare (Ast.G_eq, a, b) :: rest -> (
      let probe key_expr operand key_first =
        match key_path key_expr with
        | Some key when focus_free operand && not (non_string operand) ->
            Some { elem; key; key_expr; operand; key_first; rest }
        | _ -> None
      in
      match probe a b true with Some p -> Some p | None -> probe b a false)
  | _ -> None

(** How [:explain] and a profile name a probe. *)
let probe_label p =
  Printf.sprintf "attribute-value index probe (%s, %s)"
    (Qname.to_string p.elem)
    (String.concat "/"
       (List.map Qname.to_string p.key.Store.children
       @ [ "@" ^ Qname.to_string p.key.Store.attr ]))

let is_forward = function
  | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Preceding_sibling
  | Ast.Preceding ->
      false
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Sequence-type matching                                              *)
(* ------------------------------------------------------------------ *)

let item_type_matches (it : Ast.item_type) (item : Xdm.item) =
  match (it, item) with
  | Ast.It_item, _ -> true
  | Ast.It_node, Xdm.Node _ -> true
  | Ast.It_text, Xdm.Node n -> Store.kind n = Store.Txt
  | Ast.It_comment, Xdm.Node n -> Store.kind n = Store.Comm
  | Ast.It_pi, Xdm.Node n -> Store.kind n = Store.Pi
  | Ast.It_document, Xdm.Node n -> Store.kind n = Store.Doc
  | Ast.It_element q, Xdm.Node n ->
      kind_matches (Ast.K_element q) n
  | Ast.It_attribute q, Xdm.Node n -> kind_matches (Ast.K_attribute q) n
  | Ast.It_atomic t, Xdm.Atomic a ->
      t = Xs.type_of a
      || (t = Xs.TDecimal && Xs.type_of a = Xs.TInteger)
      || t = Xs.TUntypedAtomic && Xs.type_of a = Xs.TUntypedAtomic
  | _ -> false

let seq_type_matches (st : Ast.seq_type) (seq : Xdm.sequence) =
  match st with
  | Ast.Seq_empty -> seq = []
  | Ast.Seq (it, occ) -> (
      let all = List.for_all (item_type_matches it) seq in
      all
      &&
      match occ with
      | Ast.Exactly_one -> List.length seq = 1
      | Ast.Zero_or_one -> List.length seq <= 1
      | Ast.One_or_more -> seq <> []
      | Ast.Zero_or_more -> true)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let value_compare op (a : Xs.t) (b : Xs.t) =
  let c = Xs.compare_values a b in
  match op with
  | Ast.V_eq | Ast.G_eq -> c = 0
  | Ast.V_ne | Ast.G_ne -> c <> 0
  | Ast.V_lt | Ast.G_lt -> c < 0
  | Ast.V_le | Ast.G_le -> c <= 0
  | Ast.V_gt | Ast.G_gt -> c > 0
  | Ast.V_ge | Ast.G_ge -> c >= 0
  | _ -> err "not a value comparison"

(* the general comparison [xs op ys]: existential over both sides *)
let general_compare op xs ys =
  List.exists
    (fun x ->
      List.exists
        (fun y ->
          let x, y = Xs.coerce_general x y in
          value_compare op x y)
        ys)
    xs

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

(** Turn a content sequence into attributes + child trees, per the XQuery
    content-construction rules: adjacent atomic values become a single text
    node (space separated); node items are copied (call-by-value — they get
    fresh identity when the new element is shredded). *)
let content_to_trees (seq : Xdm.sequence) : Tree.attr list * Tree.t list =
  let attrs = ref [] in
  let out = ref [] in
  let pending = ref [] in
  let flush () =
    if !pending <> [] then (
      let s = String.concat " " (List.rev !pending) in
      out := Tree.Text s :: !out;
      pending := [])
  in
  List.iter
    (fun item ->
      match item with
      | Xdm.Atomic a -> pending := Xs.to_string a :: !pending
      | Xdm.Node n -> (
          flush ();
          match Store.kind n with
          | Store.Attr -> attrs := Store.attr_tree n :: !attrs
          | Store.Doc ->
              (* document nodes contribute their children *)
              List.iter (fun c -> out := Store.to_tree c :: !out) (Store.children n)
          | _ -> out := Store.to_tree n :: !out))
    seq;
  flush ();
  (List.rev !attrs, List.rev !out)

let node_of_tree tree = Xdm.Node (Store.root (Store.shred tree))

(* XQDY0025: a constructed element must not have two attributes with the
   same expanded name *)
let check_attr_duplicates (attrs : Tree.attr list) =
  let rec go seen = function
    | [] -> ()
    | (a : Tree.attr) :: rest ->
        if List.exists (Qname.equal a.name) seen then
          Xdm.dyn_error "XQDY0025: duplicate attribute %s on constructed element"
            (Qname.to_string a.name)
        else go (a.name :: seen) rest
  in
  go [] attrs;
  attrs

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let max_depth = 4096

(** The span a set-at-a-time dispatch opens (a hoisted call opens only
    the dispatcher's per-request span). *)
let bulk_span = "bulkrpc"

(** Ablation switch: loop-invariant FLWOR clause hoisting (benchmarks
    disable it to quantify what set-oriented evaluation buys). *)
let hoisting_enabled = ref true

(* ---- How a FLWOR evaluates its clauses -------------------------- *)

(** [loop_invariant ~bound e]: [e] references none of the variables in
    [bound] (those the earlier clauses of its FLWOR bind), so it evaluates
    identically for every tuple. *)
let loop_invariant ~bound e = Ast.Var_set.disjoint (Ast.free_vars e) bound

(** How {!eval_flwor} evaluates the expression of a [for] or [let] clause
    over the tuple stream, decided from syntax alone ([:explain] reads the
    same decision through [Runner.execute_sites]). *)
type clause_eval =
  | Set_at_a_time of Ast.expr * Qname.t * Ast.expr list
      (** an [execute at] application with Bulk RPC on: one
          {!bulk_execute} over every tuple *)
  | Once
      (** loop-invariant: evaluated once, against the FLWOR's own
          context, when there are several tuples (what a set-oriented
          engine gets for free from loop-lifting) *)
  | Per_tuple

let clause_eval ~bulk ~bound = function
  | Ast.Execute_at (d, f, args) when bulk -> Set_at_a_time (d, f, args)
  | e when !hoisting_enabled && loop_invariant ~bound e -> Once
  | _ -> Per_tuple

(** The [execute at] applications a FLWOR's [return] dispatches
    set-at-a-time with Bulk RPC on: the return itself, or every member of
    a sequence of them (the Q6 shape: each site is bulk-dispatched across
    all tuples, out of order, §3.2).  [[]]: the return runs per tuple. *)
let return_calls ~bulk = function
  | Ast.Execute_at (d, f, args) when bulk -> [ (d, f, args) ]
  | Ast.Sequence (_ :: _ as es) when bulk ->
      let call = function
        | Ast.Execute_at (d, f, args) -> Some (d, f, args)
        | _ -> None
      in
      let calls = List.filter_map call es in
      if List.length calls = List.length es then calls else []
  | _ -> []

let rec eval (ctx : Context.t) (e : Ast.expr) : Xdm.sequence =
  match e with
  | Ast.Literal a -> [ Xdm.Atomic a ]
  | Ast.Var q -> Context.lookup_var ctx q
  | Ast.Context_item -> (
      match ctx.Context.ctx_item with
      | Some i -> [ i ]
      | None -> Xdm.dyn_error "XPDY0002: context item is undefined")
  | Ast.Root ->
      let n = Context.context_node ctx in
      [ Xdm.Node (Store.root n.Store.store) ]
  | Ast.Sequence es -> List.concat_map (eval ctx) es
  | Ast.Range (a, b) -> (
      match (eval ctx a, eval ctx b) with
      | [], _ | _, [] -> []
      | sa, sb ->
          let lo =
            match Xdm.one_atom ~what:"range start" sa with
            | Xs.Integer i -> i
            | a -> int_of_float (Xs.to_float a)
          in
          let hi =
            match Xdm.one_atom ~what:"range end" sb with
            | Xs.Integer i -> i
            | a -> int_of_float (Xs.to_float a)
          in
          if hi < lo then []
          else List.init (hi - lo + 1) (fun i -> Xdm.int (lo + i)))
  | Ast.Arith (op, a, b) -> (
      match (eval ctx a, eval ctx b) with
      | [], _ | _, [] -> []
      | sa, sb ->
          let x = Xdm.one_atom ~what:"operand" sa in
          let y = Xdm.one_atom ~what:"operand" sb in
          let x = match x with Xs.Untyped s -> Xs.Double (Xs.parse_float s) | x -> x in
          let y = match y with Xs.Untyped s -> Xs.Double (Xs.parse_float s) | y -> y in
          let o =
            match op with
            | Ast.Add -> `Add
            | Ast.Sub -> `Sub
            | Ast.Mul -> `Mul
            | Ast.Div -> `Div
            | Ast.Idiv -> `Idiv
            | Ast.Mod -> `Mod
          in
          [ Xdm.Atomic (Xs.arith o x y) ])
  | Ast.Neg a -> (
      match eval ctx a with
      | [] -> []
      | s -> (
          match Xdm.one_atom ~what:"operand" s with
          | Xs.Integer i -> [ Xdm.int (-i) ]
          | v -> [ Xdm.Atomic (Xs.Double (-.Xs.to_float v)) ]))
  | Ast.And (a, b) ->
      [ Xdm.bool (Xdm.ebv (eval ctx a) && Xdm.ebv (eval ctx b)) ]
  | Ast.Or (a, b) ->
      [ Xdm.bool (Xdm.ebv (eval ctx a) || Xdm.ebv (eval ctx b)) ]
  | Ast.Compare (op, a, b) -> eval_compare ctx op a b
  | Ast.Union (a, b) ->
      let nodes =
        List.map Xdm.node_only (eval ctx a) @ List.map Xdm.node_only (eval ctx b)
      in
      List.map (fun n -> Xdm.Node n) (Xdm.doc_order_dedup nodes)
  | Ast.Intersect (a, b) -> eval_set ctx Xdm.intersect a b
  | Ast.Except (a, b) -> eval_set ctx Xdm.except a b
  | Ast.If (c, t, e) -> if Xdm.ebv (eval ctx c) then eval ctx t else eval ctx e
  | Ast.Flwor (clauses, order_by, ret) -> eval_flwor ctx clauses order_by ret
  | Ast.Quantified (q, binds, sat) ->
      let rec go ctx = function
        | [] -> Xdm.ebv (eval ctx sat)
        | (v, e) :: rest ->
            let items = eval ctx e in
            let test item = go (Context.bind_var ctx v [ item ]) rest in
            if q = `Some then List.exists test items else List.for_all test items
      in
      [ Xdm.bool (go ctx binds) ]
  | Ast.Path (a, b) ->
      let input = eval ctx a in
      let n = List.length input in
      let results =
        List.concat
          (List.mapi
             (fun i item ->
               eval (Context.with_context_item ctx item (i + 1) n) b)
             input)
      in
      let nodes, atomics =
        List.partition (function Xdm.Node _ -> true | _ -> false) results
      in
      if atomics = [] then
        List.map
          (fun n -> Xdm.Node n)
          (Xdm.doc_order_dedup (List.map Xdm.node_only nodes))
      else if nodes = [] then atomics
      else Xdm.dyn_error "XPTY0018: path step mixes nodes and atomic values"
  | Ast.Step (axis, test, preds) ->
      let n = Context.context_node ctx in
      let filtered =
        match value_probe axis test preds with
        | Some p -> apply_predicates ctx p.rest (probe_step ctx axis p n)
        | None ->
            apply_predicates ctx preds
              (List.map (fun n -> Xdm.Node n) (step_nodes axis test n))
      in
      (* a reverse axis lists its nodes in reverse document order *)
      if is_forward axis then filtered else List.rev filtered
  | Ast.Filter (e, preds) -> apply_predicates ctx preds (eval ctx e)
  | Ast.Call (q, args) -> eval_call ctx q args
  | Ast.Execute_at (dest, f, args) -> (
      match bulk_execute ctx [ ctx ] dest f args with
      | [ seq ] -> seq
      | _ -> assert false)
  | Ast.Elem_ctor (name, attr_specs, content) ->
      let attrs =
        List.map
          (fun (aname, parts) ->
            let v =
              String.concat ""
                (List.map
                   (function
                     | Ast.A_text s -> s
                     | Ast.A_expr e ->
                         String.concat " "
                           (List.map Xs.to_string (Xdm.atomize (eval ctx e))))
                   parts)
            in
            Tree.attr aname v)
          attr_specs
      in
      let content_seq = List.concat_map (eval ctx) content in
      let content_attrs, children = content_to_trees content_seq in
      let attrs = check_attr_duplicates (attrs @ content_attrs) in
      [ node_of_tree (Tree.Element { name; attrs; children }) ]
  | Ast.Comp_elem (name_e, content_e) ->
      let name = eval_name ctx name_e ~default_ns:true in
      let content_attrs, children = content_to_trees (eval ctx content_e) in
      let attrs = check_attr_duplicates content_attrs in
      [ node_of_tree (Tree.Element { name; attrs; children }) ]
  | Ast.Comp_attr (name_e, content_e) ->
      let name = eval_name ctx name_e ~default_ns:false in
      let v =
        String.concat " "
          (List.map Xs.to_string (Xdm.atomize (eval ctx content_e)))
      in
      (* a standalone attribute node: carried by a hidden owner element *)
      let store =
        Store.shred
          (Tree.elem (Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc "attr-carrier")
             ~attrs:[ Tree.attr name v ] [])
      in
      (match Store.attributes (Store.root store) with
      | a :: _ -> [ Xdm.Node a ]
      | [] -> assert false)
  | Ast.Text_ctor e -> (
      match Xdm.atomize (eval ctx e) with
      | [] -> []
      | vals ->
          [ node_of_tree (Tree.Text (String.concat " " (List.map Xs.to_string vals))) ])
  | Ast.Comment_ctor e ->
      let s = String.concat " " (List.map Xs.to_string (Xdm.atomize (eval ctx e))) in
      [ node_of_tree (Tree.Comment s) ]
  | Ast.Doc_ctor e ->
      let _, children = content_to_trees (eval ctx e) in
      [ node_of_tree (Tree.Document children) ]
  | Ast.Typeswitch (operand, cases, (dv, de)) -> (
      let v = eval ctx operand in
      let rec try_cases = function
        | [] ->
            let ctx =
              match dv with Some var -> Context.bind_var ctx var v | None -> ctx
            in
            eval ctx de
        | (st, var, e) :: rest ->
            if seq_type_matches st v then
              let ctx =
                match var with
                | Some var -> Context.bind_var ctx var v
                | None -> ctx
              in
              eval ctx e
            else try_cases rest
      in
      try_cases cases)
  | Ast.Instance_of (e, st) -> [ Xdm.bool (seq_type_matches st (eval ctx e)) ]
  | Ast.Treat_as (e, st) ->
      let v = eval ctx e in
      if seq_type_matches st v then v
      else Xdm.dyn_error "XPDY0050: treat as failed"
  | Ast.Cast_as (e, t, allow_empty) -> (
      match eval ctx e with
      | [] ->
          if allow_empty then []
          else Xdm.dyn_error "XPTY0004: cast of empty sequence"
      | seq -> [ Xdm.Atomic (Xs.cast (Xdm.one_atom ~what:"cast operand" seq) t) ])
  | Ast.Castable_as (e, t, allow_empty) -> (
      match eval ctx e with
      | [] -> [ Xdm.bool allow_empty ]
      | [ i ] -> (
          try
            ignore (Xs.cast (Xdm.atomize_item i) t);
            [ Xdm.bool true ]
          with _ -> [ Xdm.bool false ])
      | _ -> [ Xdm.bool false ])
  (* ---- XQUF ---- *)
  | Ast.Insert (pos, src_e, target_e) ->
      let attrs, trees = content_to_trees (eval ctx src_e) in
      let target = Xdm.node_only (Xdm.one_item ~what:"insert target" (eval ctx target_e)) in
      let add p = ctx.Context.pul := p :: !(ctx.Context.pul) in
      if attrs <> [] then add (Update.Insert_attributes (target, attrs));
      (if trees <> [] then
         match pos with
         | Ast.Into | Ast.As_last -> add (Update.Insert_into (target, trees))
         | Ast.As_first -> add (Update.Insert_first (target, trees))
         | Ast.Before -> add (Update.Insert_before (target, trees))
         | Ast.After -> add (Update.Insert_after (target, trees)));
      []
  | Ast.Delete target_e ->
      List.iter
        (fun item ->
          ctx.Context.pul :=
            Update.Delete_node (Xdm.node_only item) :: !(ctx.Context.pul))
        (eval ctx target_e);
      []
  | Ast.Replace_node (target_e, src_e) ->
      let target = Xdm.node_only (Xdm.one_item ~what:"replace target" (eval ctx target_e)) in
      let attrs, trees = content_to_trees (eval ctx src_e) in
      (if Store.kind target = Store.Attr then
         ctx.Context.pul := Update.Replace_attr (target, attrs) :: !(ctx.Context.pul)
       else
         ctx.Context.pul := Update.Replace_node (target, trees) :: !(ctx.Context.pul));
      []
  | Ast.Replace_value (target_e, src_e) ->
      let target = Xdm.node_only (Xdm.one_item ~what:"replace target" (eval ctx target_e)) in
      let v =
        String.concat " " (List.map Xs.to_string (Xdm.atomize (eval ctx src_e)))
      in
      ctx.Context.pul := Update.Replace_value (target, v) :: !(ctx.Context.pul);
      []
  | Ast.Rename_node (target_e, name_e) ->
      let target = Xdm.node_only (Xdm.one_item ~what:"rename target" (eval ctx target_e)) in
      let name = eval_name ctx name_e ~default_ns:false in
      ctx.Context.pul := Update.Rename (target, name) :: !(ctx.Context.pul);
      []

and eval_set ctx op a b =
  let nodes e = List.map Xdm.node_only (eval ctx e) in
  List.map (fun n -> Xdm.Node n) (op (nodes a) (nodes b))

and eval_name ctx e ~default_ns =
  ignore default_ns;
  match Xdm.one_atom ~what:"name" (eval ctx e) with
  | Xs.QName q -> q
  | v ->
      let prefix, local = Qname.split (Xs.to_string v) in
      Qname.make ~prefix local

and eval_compare ctx op a b =
  let sa = eval ctx a and sb = eval ctx b in
  match op with
  | Ast.N_is | Ast.N_before | Ast.N_after -> (
      match (sa, sb) with
      | [], _ | _, [] -> []
      | [ Xdm.Node x ], [ Xdm.Node y ] ->
          let c = Store.compare_nodes x y in
          [ Xdm.bool
              (match op with
              | Ast.N_is -> c = 0
              | Ast.N_before -> c < 0
              | _ -> c > 0) ]
      | _ -> Xdm.dyn_error "node comparison requires single nodes")
  | Ast.V_eq | Ast.V_ne | Ast.V_lt | Ast.V_le | Ast.V_gt | Ast.V_ge -> (
      match (sa, sb) with
      | [], _ | _, [] -> []
      | _ ->
          let x = Xdm.one_atom ~what:"operand" sa in
          let y = Xdm.one_atom ~what:"operand" sb in
          [ Xdm.bool (value_compare op x y) ])
  | _ ->
      [ Xdm.bool (general_compare op (Xdm.atomize sa) (Xdm.atomize sb)) ]

(* [descendant(-or-self)::T[K = X]] from [n], before the other predicates:
   [X] is evaluated once, and only when the step has candidates; if every
   item compares as a string, the index answers, else each candidate's [K]
   is compared with [X] as the predicate would (same order, same errors) *)
and probe_step ctx axis p n =
  let or_self = axis = Ast.Descendant_or_self in
  if not (Store.has_named ~or_self n p.elem) then []
  else
    let xs = Xdm.atomize (eval ctx p.operand) in
    let nodes =
      if List.for_all string_like xs then (
        if Trace.recording () then
          Trace.add (Profile.op_attr "calls" (probe_label p)) 1.;
        Store.probe ~or_self n p.elem p.key (List.map Xs.to_string xs))
      else
        List.filter
          (fun c ->
            let ks =
              Xdm.atomize
                (eval (Context.with_context_item ctx (Xdm.Node c) 1 1) p.key_expr)
            in
            if p.key_first then general_compare Ast.G_eq ks xs
            else general_compare Ast.G_eq xs ks)
          (Store.descendants_named ~or_self n p.elem)
    in
    List.map (fun n -> Xdm.Node n) nodes

and apply_predicates ctx preds seq =
  List.fold_left
    (fun seq pred ->
      let size = List.length seq in
      List.filteri
        (fun i item ->
          let ictx = Context.with_context_item ctx item (i + 1) size in
          let r = eval ictx pred in
          match r with
          | [ Xdm.Atomic a ] when Xs.is_numeric a ->
              int_of_float (Xs.to_float a) = i + 1
          | r -> Xdm.ebv r)
        seq)
    seq preds

(* ---- FLWOR with loop-lifted Bulk RPC ---------------------------- *)

and eval_flwor ctx clauses order_by ret =
  let bulk =
    ctx.Context.dispatcher <> None && ctx.Context.rpc_mode = Context.Rpc_bulk
  in
  let tuples = ref [ ctx ] in
  let bound = ref Ast.Var_set.empty in
  let bind_clause_vars v posv =
    bound := Ast.Var_set.add (Ast.var_set_key v) !bound;
    match posv with
    | Some p -> bound := Ast.Var_set.add (Ast.var_set_key p) !bound
    | None -> ()
  in
  let expand_for v posv items tctx =
    List.mapi
      (fun i item ->
        let tctx = Context.bind_var tctx v [ item ] in
        match posv with
        | Some pv -> Context.bind_var tctx pv [ Xdm.int (i + 1) ]
        | None -> tctx)
      items
  in
  (* one sequence per tuple, in tuple order *)
  let per_tuple e =
    match clause_eval ~bulk ~bound:!bound e with
    | Set_at_a_time (d, f, args) -> bulk_execute ctx !tuples d f args
    | Once when List.length !tuples > 1 ->
        let v = eval ctx e in
        List.map (fun _ -> v) !tuples
    | Once | Per_tuple -> List.map (fun tctx -> eval tctx e) !tuples
  in
  List.iter
    (fun clause ->
      match clause with
      | Ast.For (v, posv, e) ->
          tuples :=
            List.concat
              (List.map2 (fun tctx seq -> expand_for v posv seq tctx) !tuples
                 (per_tuple e));
          bind_clause_vars v posv
      | Ast.Let (v, e) ->
          tuples :=
            List.map2 (fun tctx seq -> Context.bind_var tctx v seq) !tuples
              (per_tuple e);
          bind_clause_vars v None
      | Ast.Where e ->
          tuples := List.filter (fun tctx -> Xdm.ebv (eval tctx e)) !tuples)
    clauses;
  (* order by *)
  (if order_by <> [] then
     let keyed =
       List.map
         (fun tctx ->
           let keys =
             List.map
               (fun (e, desc) ->
                 let k =
                   match eval tctx e with
                   | [] -> None
                   | seq -> Some (Xdm.one_atom ~what:"order key" seq)
                 in
                 (k, desc))
               order_by
           in
           (keys, tctx))
         !tuples
     in
     let cmp (ka, _) (kb, _) =
       let rec go = function
         | [] -> 0
         | ((x, desc), (y, _)) :: rest -> (
             let c =
               match (x, y) with
               | None, None -> 0
               | None, Some _ -> -1
               | Some _, None -> 1
               | Some x, Some y -> Xs.compare_values x y
             in
             match if desc then -c else c with 0 -> go rest | c -> c)
       in
       go (List.combine ka kb)
     in
     tuples := List.map snd (List.stable_sort cmp keyed));
  (* return *)
  match return_calls ~bulk ret with
  | [] -> List.concat_map (fun tctx -> eval tctx ret) !tuples
  | [ (d, f, args) ] -> List.concat (bulk_execute ctx !tuples d f args)
  | calls ->
      (* Q6: results are stitched back per tuple, in query order *)
      let per_call =
        List.map
          (fun (d, f, args) -> Array.of_list (bulk_execute ctx !tuples d f args))
          calls
      in
      List.concat
        (List.mapi
           (fun i _ -> List.concat_map (fun results -> results.(i)) per_call)
           !tuples)

(* ---- Function calls --------------------------------------------- *)

and eval_call ctx (q : Qname.t) args =
  if q.Qname.uri = Qname.ns_xs then (
    (* xs:TYPE(...) constructor function *)
    match args with
    | [ arg ] -> (
        match Xs.type_of_name q.Qname.local with
        | Some t -> (
            match eval ctx arg with
            | [] -> []
            | seq -> [ Xdm.Atomic (Xs.cast (Xdm.one_atom ~what:"cast" seq) t) ])
        | None -> err "unknown type constructor xs:%s" q.Qname.local)
    | _ -> err "type constructor expects one argument")
  else
    let arity = List.length args in
    match Context.find_function ctx q arity with
    | Some f -> apply_function ctx f (List.map (eval ctx) args)
    | None -> (
        match Builtins.find q arity with
        | Some impl -> impl ctx (List.map (eval ctx) args)
        | None ->
            err "XPST0017: unknown function %s#%d" (Qname.expanded q) arity)

(* The function conversion rules of XPath 2.0 §3.1.5: for a declared atomic
   parameter type, atomize the argument, cast untyped values to the expected
   type, apply numeric promotion, and enforce the occurrence indicator.
   This is also where XRPC's "the caller performs parameter up-casting"
   (§2.2) happens — arguments are converted before they are marshaled. *)
and convert_argument ~fname (q : Qname.t) (ty : Ast.seq_type option)
    (v : Xdm.sequence) : Xdm.sequence =
  match ty with
  | None -> v
  | Some st -> (
      let converted =
        match st with
        | Ast.Seq (Ast.It_atomic t, _) ->
            List.map
              (fun item ->
                let a = Xdm.atomize_item item in
                let a =
                  match (a, t) with
                  | Xs.Untyped s, t -> Xs.of_string t s
                  (* numeric promotion: integer -> decimal -> float -> double *)
                  | Xs.Integer _, (Xs.TDecimal | Xs.TFloat | Xs.TDouble)
                  | Xs.Decimal _, (Xs.TFloat | Xs.TDouble)
                  | Xs.Float _, Xs.TDouble ->
                      Xs.cast a t
                  | Xs.AnyURI _, Xs.TString -> Xs.cast a t
                  | a, _ -> a
                in
                Xdm.Atomic a)
              v
        | _ -> v
      in
      if seq_type_matches st converted then converted
      else
        err "XPTY0004: argument $%s of %s does not match its declared type"
          q.Qname.local fname)

and apply_function ctx (f : Context.func) (arg_values : Xdm.sequence list) =
  Metrics.incr m_applications;
  if not (Trace.recording ()) then apply_function_inner ctx f arg_values
  else begin
    (* span only the outermost application (the unit the XRPC handler
       bills per call); inner recursion is aggregated into the histogram *)
    let t0 = Trace.now_ms () in
    let run () =
      let r = apply_function_inner ctx f arg_values in
      Metrics.observe m_apply_ms (Trace.now_ms () -. t0);
      r
    in
    if ctx.Context.call_depth = 0 then
      Trace.with_span
        ~detail:(Qname.to_string f.Context.decl.Ast.fn_name)
        "eval.apply" run
    else run ()
  end

and apply_function_inner ctx (f : Context.func) (arg_values : Xdm.sequence list) =
  if ctx.Context.call_depth > max_depth then err "stack overflow (recursion)";
  match f.Context.decl.Ast.fn_body with
  | None -> err "external function %s has no implementation"
              (Qname.to_string f.Context.decl.Ast.fn_name)
  | Some body ->
      let params = f.Context.decl.Ast.fn_params in
      let fname = Qname.to_string f.Context.decl.Ast.fn_name in
      if List.length params <> List.length arg_values then
        err "wrong number of arguments for %s" fname;
      let call_ctx =
        List.fold_left2
          (fun c (p, ty) v ->
            Context.bind_var c p (convert_argument ~fname p ty v))
          { ctx with
            Context.vars = Context.Var_map.empty;
            ctx_item = None;
            call_depth = ctx.Context.call_depth + 1 }
          params arg_values
      in
      let result = eval call_ctx body in
      (* the declared return type is checked (no conversion: the body is
         the implementation's responsibility) *)
      (match f.Context.decl.Ast.fn_return with
      | Some st when not f.Context.decl.Ast.fn_updating ->
          if not (seq_type_matches st result) then
            err "XPTY0004: result of %s does not match its declared type" fname
      | _ -> ());
      result

(* ---- Bulk RPC ----------------------------------------------------- *)

(** [bulk_execute ctx tuples dest f args] evaluates the XRPC application
    [execute at {dest}{f(args)}] for every tuple context in [tuples] with a
    single Bulk RPC per distinct destination, dispatched in parallel.
    Returns one result sequence per tuple, in tuple order. *)
and bulk_execute base_ctx tuples dest_e fname args =
  let dispatcher =
    match base_ctx.Context.dispatcher with
    | Some d -> d
    | None -> err "execute at: no RPC dispatcher configured"
  in
  let arity = List.length args in
  (* function metadata: module URI comes from the function QName; the
     at-hint from the prolog import *)
  let finfo = Context.find_function base_ctx fname arity in
  let module_uri =
    match finfo with
    | Some f -> f.Context.fn_module_uri
    | None -> fname.Qname.uri
  in
  let location =
    match finfo with
    | Some f when f.Context.fn_location <> "" -> f.Context.fn_location
    | _ -> (
        match List.assoc_opt fname.Qname.uri !(base_ctx.Context.imports) with
        | Some at -> at
        | None -> "")
  in
  let updating =
    match finfo with Some f -> f.Context.decl.Ast.fn_updating | None -> false
  in
  (* per-tuple destination and parameters; virtual destinations (e.g. the
     shard scheme) are rewritten here, before δ and Bulk RPC batching, so
     two keys hashing to one peer share a single message *)
  let resolve_dest =
    match base_ctx.Context.dest_resolver with Some f -> f | None -> Fun.id
  in
  let calls =
    List.map
      (fun tctx ->
        let dest =
          resolve_dest
            (Xs.to_string
               (Xdm.one_atom ~what:"destination" (eval tctx dest_e)))
        in
        let params = List.map (eval tctx) args in
        (dest, params))
      tuples
  in
  (* loop-invariant hoisting: if every iteration issues the identical
     non-updating call, one call suffices and its result is shared (the
     paper's Q7_1 pattern, where Q_B1() has no loop-dependent argument) *)
  let hoisted =
    match calls with
    | (d0, p0) :: (_ :: _ as rest)
      when (not updating)
           && List.for_all
                (fun (d, p) ->
                  d = d0
                  && List.length p = List.length p0
                  && List.for_all2 Xdm.deep_equal p p0)
                rest ->
        let req =
          {
            Message.module_uri;
            location;
            method_ = fname.Qname.local;
            arity;
            updating;
            fragments = base_ctx.Context.fragments;
            query_id = base_ctx.Context.query_id;
            idem_key = None;
            calls = [ p0 ];
          }
        in
        let result =
          match dispatcher.Context.call ~dest:d0 req with
          | Message.Response { results = [ r ]; _ } -> r
          | Message.Response _ -> err "XRPC response result count mismatch"
          | Message.Fault f -> err "XRPC fault from %s: %s" d0 f.Message.reason
          | _ -> err "unexpected XRPC reply from %s" d0
        in
        Some (List.map (fun _ -> result) calls)
    | _ -> None
  in
  match hoisted with
  | Some results -> results
  | None ->
  (* δ over destinations, in order of first occurrence *)
  let dests =
    List.fold_left
      (fun acc (d, _) -> if List.mem d acc then acc else d :: acc)
      [] calls
    |> List.rev
  in
  let requests =
    List.map
      (fun dest ->
        let params_for_dest =
          List.filter_map
            (fun (d, ps) -> if d = dest then Some ps else None)
            calls
        in
        ( dest,
          {
            Message.module_uri;
            location;
            method_ = fname.Qname.local;
            arity;
            updating;
            fragments = base_ctx.Context.fragments;
            query_id = base_ctx.Context.query_id;
            idem_key = None;
            calls = params_for_dest;
          } ))
      dests
  in
  let dispatch () =
    match requests with
    | [ (dest, req) ] -> [ dispatcher.Context.call ~dest req ]
    | reqs -> dispatcher.Context.call_parallel reqs
  in
  let responses =
    if not (Trace.recording ()) then dispatch ()
    else begin
      (* the optimizer's estimate is for a profile's reader only *)
      (if Trace.collecting () then
         match !rpc_estimate_hook with
         | Some est -> (
             match
               est ~fn:fname.Qname.local ~ncalls:(List.length calls)
                 ~ndests:(List.length requests)
             with
             | Some s -> Trace.event ~detail:s Profile.annotation_event
             | None -> ())
         | None -> ());
      Trace.with_span
        ~detail:
          (Printf.sprintf "%s: %d call%s -> %d dest(s)" fname.Qname.local
             (List.length calls)
             (if List.length calls = 1 then "" else "s")
             (List.length requests))
        bulk_span
      @@ dispatch
    end
  in
  (* map back: walk tuples in order, pulling the next result for their
     destination (the mapp tables of Figure 1) *)
  let per_dest : (string, Xdm.sequence list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter2
    (fun dest response ->
      match response with
      | Message.Response r -> Hashtbl.replace per_dest dest (ref r.Message.results)
      | Message.Fault f ->
          err "XRPC fault from %s: %s" dest f.Message.reason
      | _ -> err "unexpected XRPC reply from %s" dest)
    dests responses;
  List.map
    (fun (dest, params) ->
      if updating then []
      else
        let q = Hashtbl.find per_dest dest in
        match !q with
        | r :: rest ->
            q := rest;
            r
        | [] ->
            err "XRPC response from %s is missing %d result(s)" dest
              (List.length params))
    calls
