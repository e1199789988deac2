(* Test oracle for path evaluation: the interpreter's axis, step and path
   code as it was before [//T] became one [descendant::T] step over the
   store's element-name index.  Every axis here is a scan of the store,
   every path result is fully sorted and deduplicated, and [intersect] /
   [except] compare every pair of nodes.  It evaluates only what the path
   property generates: paths, steps, filters, set operations,
   comparisons, [and]/[or] and a few built-ins.  Linked by test_paths
   only, never by anything under lib/. *)

open Xrpc_xml
module Ast = Xrpc_xquery.Ast
module Context = Xrpc_xquery.Context
module Eval = Xrpc_xquery.Eval

exception Unsupported of string

(* sort by document order, then drop duplicates: no short-cut *)
let doc_order_dedup nodes =
  let sorted = List.sort Store.compare_nodes nodes in
  let rec dedup = function
    | a :: (b :: _ as rest) when Store.equal_nodes a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

(* nodes reached over [axis] from [n], in axis order (reverse axes yield
   reverse document order) *)
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

let is_forward = function
  | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Preceding_sibling
  | Ast.Preceding ->
      false
  | _ -> true

let nodes_of seq = List.map (fun n -> Xdm.Node n) seq

let rec eval (ctx : Context.t) (e : Ast.expr) : Xdm.sequence =
  match e with
  | Ast.Literal a -> [ Xdm.Atomic a ]
  | Ast.Context_item -> (
      match ctx.Context.ctx_item with
      | Some i -> [ i ]
      | None -> Xdm.dyn_error "XPDY0002: context item is undefined")
  | Ast.Root ->
      let n = Context.context_node ctx in
      [ Xdm.Node (Store.root n.Store.store) ]
  | Ast.Sequence es -> List.concat_map (eval ctx) es
  | Ast.And (a, b) ->
      [ Xdm.bool (Xdm.ebv (eval ctx a) && Xdm.ebv (eval ctx b)) ]
  | Ast.Or (a, b) ->
      [ Xdm.bool (Xdm.ebv (eval ctx a) || Xdm.ebv (eval ctx b)) ]
  | Ast.Compare (op, a, b) ->
      (* general comparison: existential over atomized operands *)
      let xs = Xdm.atomize (eval ctx a) and ys = Xdm.atomize (eval ctx b) in
      [ Xdm.bool
          (List.exists
             (fun x ->
               List.exists
                 (fun y ->
                   let x, y = Xs.coerce_general x y in
                   Eval.value_compare op x y)
                 ys)
             xs) ]
  | Ast.Union (a, b) ->
      let nodes =
        List.map Xdm.node_only (eval ctx a) @ List.map Xdm.node_only (eval ctx b)
      in
      nodes_of (doc_order_dedup nodes)
  | Ast.Intersect (a, b) ->
      let na = List.map Xdm.node_only (eval ctx a) in
      let nb = List.map Xdm.node_only (eval ctx b) in
      nodes_of
        (doc_order_dedup
           (List.filter (fun n -> List.exists (Store.equal_nodes n) nb) na))
  | Ast.Except (a, b) ->
      let na = List.map Xdm.node_only (eval ctx a) in
      let nb = List.map Xdm.node_only (eval ctx b) in
      nodes_of
        (doc_order_dedup
           (List.filter
              (fun n -> not (List.exists (Store.equal_nodes n) nb))
              na))
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
        nodes_of (doc_order_dedup (List.map Xdm.node_only nodes))
      else if nodes = [] then atomics
      else Xdm.dyn_error "XPTY0018: path step mixes nodes and atomic values"
  | Ast.Step (axis, test, preds) ->
      let n = Context.context_node ctx in
      let principal = if axis = Ast.Attribute then `Attribute else `Element in
      let candidates =
        List.filter (Eval.test_matches ~principal test) (axis_nodes axis n)
      in
      let filtered = apply_predicates ctx preds (nodes_of candidates) in
      if is_forward axis then filtered
      else
        (* reverse axes: result back in document order *)
        nodes_of (doc_order_dedup (List.map Xdm.node_only filtered))
  | Ast.Filter (e, preds) -> apply_predicates ctx preds (eval ctx e)
  | Ast.Call (q, args) -> call ctx q.Qname.local (List.map (eval ctx) args)
  | e -> raise (Unsupported (Ast.expr_to_string e))

and apply_predicates ctx preds seq =
  List.fold_left
    (fun seq pred ->
      let size = List.length seq in
      List.filteri
        (fun i item ->
          let ictx = Context.with_context_item ctx item (i + 1) size in
          match eval ictx pred with
          | [ Xdm.Atomic a ] when Xs.is_numeric a ->
              int_of_float (Xs.to_float a) = i + 1
          | r -> Xdm.ebv r)
        seq)
    seq preds

and call ctx name args =
  match (name, args) with
  | "doc", [ [ uri ] ] ->
      let store = ctx.Context.doc_resolver (Xdm.string_value uri) in
      [ Xdm.Node (Store.root store) ]
  | "position", [] -> [ Xdm.int ctx.Context.ctx_pos ]
  | "last", [] -> [ Xdm.int ctx.Context.ctx_size ]
  | "count", [ s ] -> [ Xdm.int (List.length s) ]
  | "not", [ s ] -> [ Xdm.bool (not (Xdm.ebv s)) ]
  | "boolean", [ s ] -> [ Xdm.bool (Xdm.ebv s) ]
  | "exists", [ s ] -> [ Xdm.bool (s <> []) ]
  | "empty", [ s ] -> [ Xdm.bool (s = []) ]
  | _ -> raise (Unsupported (name ^ "()"))
