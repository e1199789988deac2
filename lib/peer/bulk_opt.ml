(** Set-oriented execution of Bulk RPC requests (§1: "a function that
    selects with a constant argument is turned into a join against the
    sequence of all arguments"; §4: Saxon does so for bulk [getPerson]).
    A bulk request to [PATH//T[K = $param]] is answered with one
    evaluation of [PATH] and one probe of the store's attribute-value
    index per call, for the native {!Peer} and the §4 {!Wrapper}. *)

open Xrpc_xml
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module Eval = Xrpc_xquery.Eval

(* the cardinality wrappers around a body, outermost first, and the body *)
let rec strip_wrappers (e : Xast.expr) =
  match e with
  | Xast.Call (q, [ arg ])
    when q.Qname.uri = Qname.ns_fn
         && List.mem q.Qname.local [ "zero-or-one"; "exactly-one"; "one-or-more" ]
    ->
      let ws, e = strip_wrappers arg in
      (q.Qname.local :: ws, e)
  | e -> ([], e)

(* [PATH/step] whose step probes with the parameter [v] as [X], where
   [PATH] does not read [v] *)
let selection params body =
  match body with
  | Xast.Path (prefix, Xast.Step (axis, test, [ pred ])) -> (
      match Eval.value_probe axis test [ pred ] with
      | Some ({ Eval.operand = Xast.Var v; _ } as p)
        when List.exists (Qname.equal v) params
             && not (Xast.Var_set.mem (Xast.var_set_key v) (Xast.free_vars prefix))
        ->
          Some (prefix, axis, test, p, v)
      | _ -> None)
  | _ -> None

(** Recognize [PATH[key = $param]], a probing step under any cardinality
    wrappers; returns (path without the predicate, key expression,
    parameter). *)
let selection_pattern (params : Qname.t list) (body : Xast.expr) =
  Option.map
    (fun (prefix, axis, test, p, v) ->
      (Xast.Path (prefix, Xast.Step (axis, test, [])), p.Eval.key_expr, v))
    (selection params (snd (strip_wrappers body)))

(** [join_execute ctx f calls] answers the [calls] (at least two) of a
    bulk request to the selection function [f] whose other parameters are
    equal in every call.  [None], and the caller runs the calls one at a
    time, when that does not hold, a key holds an item that is not
    compared as a string, or a probed result breaks a stripped wrapper or
    the declared return type: the single calls give those answers or
    errors. *)
let join_execute ctx (f : Xctx.func) (calls : Xdm.sequence list list) =
  let decl = f.Xctx.decl in
  let params = List.map fst decl.Xast.fn_params in
  let wrappers, body =
    strip_wrappers (Option.value decl.Xast.fn_body ~default:(Xast.Sequence []))
  in
  match (selection params body, calls) with
  | Some (prefix, axis, _, p, v), _ :: _ :: _ ->
      let fname = Qname.to_string decl.Xast.fn_name in
      let convert (q, ty) a = Eval.convert_argument ~fname q ty a in
      let calls = List.map (List.map2 convert decl.Xast.fn_params) calls in
      let j = Option.get (List.find_index (Qname.equal v) params) in
      let key call = Xdm.atomize (List.nth call j) in
      let others call = List.filteri (fun i _ -> i <> j) call in
      if
        not
          (List.for_all
             (fun c ->
               List.for_all2 Xdm.deep_equal (others c) (others (List.hd calls))
               && List.for_all Eval.string_like (key c))
             calls)
      then None
      else
        let call_ctx =
          List.fold_left2 Xctx.bind_var
            { ctx with
              Xctx.vars = Xctx.Var_map.empty;
              ctx_item = None;
              call_depth = ctx.Xctx.call_depth + 1 }
            params (List.hd calls)
        in
        let contexts = List.map Xdm.node_only (Eval.eval call_ctx prefix) in
        let or_self = axis = Xast.Descendant_or_self in
        let probe call =
          let vs = List.map Xs.to_string (key call) in
          List.concat_map
            (fun n -> Store.probe ~or_self n p.Eval.elem p.Eval.key vs)
            contexts
          |> Xdm.doc_order_dedup
          |> List.map (fun n -> Xdm.Node n)
        in
        let holds r =
          let n = List.compare_length_with r 1 in
          List.for_all
            (function "zero-or-one" -> n <= 0 | "exactly-one" -> n = 0 | _ -> n >= 0)
            wrappers
          && Option.fold ~none:true ~some:(fun st -> Eval.seq_type_matches st r)
               decl.Xast.fn_return
        in
        let results = List.map probe calls in
        if List.for_all holds results then Some results else None
  | _ -> None
