(** Loop-lifted evaluation over [iter|pos|item] tables — §3.1 of the paper.

    This is the Pathfinder-style set-at-a-time execution model: instead of
    iterating a for-loop, every expression is evaluated once for {e all}
    iterations, producing a single table.  The subset covered (literals,
    sequences, arithmetic, comparisons, built-in calls, nested [for]/[let],
    [where], and [execute at]) is exactly what the paper's examples Q2, Q3,
    Q5, Q6 and the echoVoid experiment exercise; XRPC calls compile to the
    Figure-2 Bulk RPC rule, so a call nested in a for-loop taken [n] times
    generates a single request per destination peer.

    Every per-iteration traversal goes through {!Table.iter_lookup} /
    {!Table.sequences}, which partition a table by [iter] once, so
    evaluating an expression over k live iterations costs O(rows), not
    O(k × rows). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module IntSet = Set.Make (Int)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type env = {
  loop : int list;  (** the loop relation: live iteration numbers *)
  vars : (string * Table.t) list;  (** variable -> iter|pos|item table *)
  funcs : (string * string * int, Xctx.func) Hashtbl.t;
  imports : (string * string) list;
  call : dest:string -> Message.request -> Message.t;
  query_id : Message.query_id option;
  doc_resolver : string -> Store.t;
  trace : (string * Table.t) list ref;
}

let make_env ?(vars = []) ?(funcs = Hashtbl.create 4) ?(imports = [])
    ?(query_id = None)
    ?(doc_resolver = Xdm.no_such_document) ~call () =
  {
    loop = [ 1 ]; vars; funcs; imports; call; query_id; doc_resolver;
    trace = ref [];
  }

let var_key (q : Qname.t) = q.Qname.uri ^ "}" ^ q.Qname.local

let note env name t = env.trace := (name, t) :: !(env.trace)

(** Table of a constant: value [a] in every live iteration. *)
let const_table env (a : Xs.t) =
  let n = List.length env.loop in
  Table.of_cols [ "iter"; "pos"; "item" ]
    [|
      Array.of_list (List.map (fun i -> Table.Int i) env.loop);
      Array.make n (Table.Int 1);
      Array.make n (Table.Item (Xdm.Atomic a));
    |]

(** Per-iteration sequences of a table, for all live iterations (empty
    sequences included thanks to the loop relation — footnote 5). *)
let sequences env t = Table.sequences t ~loop:env.loop

let rec eval env (e : Xast.expr) : Table.t =
  match e with
  | Xast.Literal a -> const_table env a
  | Xast.Var q -> (
      match List.assoc_opt (var_key q) env.vars with
      | Some t -> t
      | None -> unsupported "unbound loop-lifted variable $%s" (Qname.to_string q))
  | Xast.Sequence es ->
      let lookups = List.map (fun e -> Table.iter_lookup (eval env e)) es in
      let rows =
        List.concat_map
          (fun iter ->
            List.concat_map
              (fun lookup -> List.map (fun item -> (iter, item)) (lookup iter))
              lookups)
          env.loop
      in
      Table.of_iter_items rows
  | Xast.Range (a, b) ->
      let la = Table.iter_lookup (eval env a)
      and lb = Table.iter_lookup (eval env b) in
      let rows =
        List.concat_map
          (fun iter ->
            match (la iter, lb iter) with
            | [ lo ], [ hi ] ->
                let lo = int_of_float (Xs.to_float (Xdm.atomize_item lo)) in
                let hi = int_of_float (Xs.to_float (Xdm.atomize_item hi)) in
                if hi < lo then []
                else
                  List.init (hi - lo + 1) (fun k ->
                      (iter, Xdm.int (lo + k)))
            | _ -> unsupported "range over non-singletons")
          env.loop
      in
      Table.of_iter_items rows
  | Xast.Arith (op, a, b) ->
      binop env a b (fun x y ->
          let o =
            match op with
            | Xast.Add -> `Add
            | Xast.Sub -> `Sub
            | Xast.Mul -> `Mul
            | Xast.Div -> `Div
            | Xast.Idiv -> `Idiv
            | Xast.Mod -> `Mod
          in
          Xs.arith o x y)
  | Xast.Compare (op, a, b) ->
      binop env a b (fun x y ->
          let x, y = Xs.coerce_general x y in
          let c = Xs.compare_values x y in
          Xs.Boolean
            (match op with
            | Xast.G_eq | Xast.V_eq -> c = 0
            | Xast.G_ne | Xast.V_ne -> c <> 0
            | Xast.G_lt | Xast.V_lt -> c < 0
            | Xast.G_le | Xast.V_le -> c <= 0
            | Xast.G_gt | Xast.V_gt -> c > 0
            | Xast.G_ge | Xast.V_ge -> c >= 0
            | _ -> unsupported "node comparison in loop-lifted plan"))
  | Xast.Call (q, args) ->
      (* per-iteration application of a built-in over lifted arguments *)
      let arg_lookups = List.map (fun a -> Table.iter_lookup (eval env a)) args in
      let impl =
        match Xrpc_xquery.Builtins.find q (List.length args) with
        | Some impl -> impl
        | None -> unsupported "function %s in loop-lifted plan" (Qname.to_string q)
      in
      let ctx = { (Xctx.empty ()) with Xctx.doc_resolver = env.doc_resolver } in
      let rows =
        List.concat_map
          (fun iter ->
            let arg_seqs = List.map (fun lookup -> lookup iter) arg_lookups in
            List.map (fun item -> (iter, item)) (impl ctx arg_seqs))
          env.loop
      in
      Table.of_iter_items rows
  | Xast.Flwor (clauses, [], ret) -> eval_flwor env clauses ret
  | Xast.Execute_at (dst_e, fname, args) ->
      let dst = eval env dst_e in
      let params = List.map (eval env) args in
      let module_uri, location =
        match
          Hashtbl.find_opt env.funcs
            (fname.Qname.uri, fname.Qname.local, List.length args)
        with
        | Some f -> (f.Xctx.fn_module_uri, f.Xctx.fn_location)
        | None -> (
            ( fname.Qname.uri,
              match List.assoc_opt fname.Qname.uri env.imports with
              | Some at -> at
              | None -> "" ))
      in
      let result, trace =
        Bulk_rpc.execute ~dst ~params ~module_uri ~location
          ~method_:fname.Qname.local ?query_id:env.query_id ~call:env.call ()
      in
      List.iter (fun (name, t) -> note env name t) trace;
      result
  | Xast.Path (a, b) ->
      (* loop-lifted path step: the step is applied to every (iter, node)
         pair at once; per-iteration results end up in document order with
         duplicates removed, like any XPath step *)
      let t_in = eval env a in
      eval_step env t_in b
  | Xast.Elem_ctor (name, attr_specs, content) ->
      let attr_tables =
        List.map
          (fun (aname, parts) ->
            ( aname,
              List.map
                (function
                  | Xast.A_text s -> `Text s
                  | Xast.A_expr e -> `Lookup (Table.iter_lookup (eval env e)))
                parts ))
          attr_specs
      in
      let content_lookups =
        List.map (fun e -> Table.iter_lookup (eval env e)) content
      in
      let rows =
        List.map
          (fun iter ->
            let attrs =
              List.map
                (fun (aname, parts) ->
                  let v =
                    String.concat ""
                      (List.map
                         (function
                           | `Text s -> s
                           | `Lookup lookup ->
                               String.concat " "
                                 (List.map Xs.to_string
                                    (Xdm.atomize (lookup iter))))
                         parts)
                  in
                  Tree.attr aname v)
                attr_tables
            in
            let content_seq =
              List.concat_map (fun lookup -> lookup iter) content_lookups
            in
            let content_attrs, children =
              Xrpc_xquery.Eval.content_to_trees content_seq
            in
            let tree =
              Tree.Element { name; attrs = attrs @ content_attrs; children }
            in
            (iter, Xdm.Node (Store.root (Store.shred tree))))
          env.loop
      in
      Table.of_iter_items rows
  | Xast.Filter (e, preds) ->
      (* positional predicates with an integer-literal index: number the
         items of each iteration (ρ_{rk:<pos>/iter}) and keep rank = k.
         Non-literal predicates would need per-tuple EBV plumbing and stay
         unsupported. *)
      List.fold_left
        (fun t pred ->
          match pred with
          | Xast.Literal (Xs.Integer k) ->
              let ranked =
                Ops.rank t ~new_col:"rk" ~order_by:[ "pos" ] ~partition:"iter" ()
              in
              let selected = Ops.select_eq ranked "rk" (Table.Int k) in
              Ops.project selected
                [ ("iter", "iter"); ("pos", "pos"); ("item", "item") ]
          | p ->
              unsupported "non-positional predicate in loop-lifted plan: %s"
                (Xast.expr_to_string p))
        (eval env e) preds
  | Xast.If (c, t, e) ->
      let lc = Table.iter_lookup (eval env c) in
      let rows =
        List.concat_map
          (fun iter ->
            let branch = if Xdm.ebv (lc iter) then t else e in
            (* per-iteration branch selection: evaluate under the single
               surviving iteration *)
            let sub = { env with loop = [ iter ] } in
            List.map (fun item -> (iter, item))
              (Table.sequence_of (eval sub branch) ~iter))
          env.loop
      in
      Table.of_iter_items rows
  | e -> unsupported "expression in loop-lifted plan: %s" (Xast.expr_to_string e)

(* a path step applied to a table of context nodes *)
and eval_step env t_in step =
  match step with
  | Xast.Step (axis, test, preds) ->
      let ctx0 =
        { (Xctx.empty ()) with Xctx.doc_resolver = env.doc_resolver }
      in
      let l_in = Table.iter_lookup t_in in
      let rows =
        List.concat_map
          (fun iter ->
            let nodes =
              List.concat_map
                (fun item ->
                  match item with
                  | Xdm.Node n ->
                      (* predicates see positions within this context
                         node's axis result, per XPath *)
                      let candidates =
                        Xrpc_xquery.Eval.step_nodes axis test n
                      in
                      let filtered =
                        Xrpc_xquery.Eval.apply_predicates ctx0 preds
                          (List.map (fun n -> Xdm.Node n) candidates)
                      in
                      List.map Xdm.node_only filtered
                  | Xdm.Atomic _ -> unsupported "path step over atomic value")
                (l_in iter)
            in
            List.map
              (fun n -> (iter, Xdm.Node n))
              (Xdm.doc_order_dedup nodes))
          env.loop
      in
      Table.of_iter_items rows
  | other ->
      unsupported "path rhs in loop-lifted plan: %s" (Xast.expr_to_string other)

and binop env a b f =
  let la = Table.iter_lookup (eval env a)
  and lb = Table.iter_lookup (eval env b) in
  let rows =
    List.concat_map
      (fun iter ->
        match (la iter, lb iter) with
        | [], _ | _, [] -> []
        | [ x ], [ y ] ->
            [ (iter, Xdm.Atomic (f (Xdm.atomize_item x) (Xdm.atomize_item y))) ]
        | _ -> unsupported "binary op over non-singleton sequences")
      env.loop
  in
  Table.of_iter_items rows

and eval_flwor env clauses ret =
  match clauses with
  | [] ->
      let t = eval env ret in
      t
  | Xast.Let (v, e) :: rest ->
      let t = eval env e in
      eval_flwor { env with vars = (var_key v, t) :: env.vars } rest ret
  | Xast.Where e :: rest ->
      (* σ over the loop relation: drop iterations where the predicate is
         false, restricting every live variable table accordingly *)
      let lookup = Table.iter_lookup (eval env e) in
      let keep = List.filter (fun iter -> Xdm.ebv (lookup iter)) env.loop in
      let keep_set = IntSet.of_list keep in
      let restrict table =
        let icol = Table.col table "iter" in
        Table.filter_rows table (fun r ->
            IntSet.mem (Table.int_cell icol.(r)) keep_set)
      in
      let env =
        { env with loop = keep; vars = List.map (fun (k, t) -> (k, restrict t)) env.vars }
      in
      eval_flwor env rest ret
  | Xast.For (v, posv, e) :: rest ->
      (* loop-lifting proper: the inner loop has one iteration per
         (iter, pos) of the binding sequence *)
      let t_in = eval env e in
      let ranked =
        Ops.rank t_in ~new_col:"inner" ~order_by:[ "iter"; "pos" ] ()
      in
      (* map : outer iter <-> inner iter *)
      let map_t = Ops.project ranked [ ("outer", "iter"); ("inner", "inner") ] in
      let inner_col = Table.col map_t "inner" in
      let inner_loop =
        Array.to_list (Array.map Table.int_cell inner_col)
        |> List.sort Int.compare
      in
      (* distribute each outer variable to the inner loop *)
      let distribute table =
        let joined = Ops.equi_join map_t "outer" table "iter" in
        Ops.project joined [ ("iter", "inner"); ("pos", "pos"); ("item", "item") ]
      in
      let vars = List.map (fun (k, t) -> (k, distribute t)) env.vars in
      (* the loop variable: value at pos of its inner iteration *)
      let n_in = Table.cardinality ranked in
      let v_table =
        Table.of_cols [ "iter"; "pos"; "item" ]
          [|
            Table.col ranked "inner";
            Array.make n_in (Table.Int 1);
            Table.col ranked "item";
          |]
      in
      let vars = (var_key v, v_table) :: vars in
      let vars =
        match posv with
        | None -> vars
        | Some pv ->
            let pos_table =
              Table.of_cols [ "iter"; "pos"; "item" ]
                [|
                  Table.col ranked "inner";
                  Array.make n_in (Table.Int 1);
                  Array.map
                    (fun c -> Table.Item (Xdm.int (Table.int_cell c)))
                    (Table.col ranked "pos");
                |]
            in
            (var_key pv, pos_table) :: vars
      in
      let inner_env = { env with loop = inner_loop; vars } in
      let t_ret = eval_flwor inner_env rest ret in
      (* map inner iterations back to outer, keeping iteration order *)
      let joined = Ops.equi_join t_ret "iter" map_t "inner" in
      let oc = Table.col joined "outer"
      and ic = Table.col joined "iter"
      and pc = Table.col joined "pos"
      and xc = Table.col joined "item" in
      let tuples =
        Array.init (Table.cardinality joined) (fun r ->
            ( Table.int_cell oc.(r),
              Table.int_cell ic.(r),
              Table.int_cell pc.(r),
              Table.item_cell xc.(r) ))
      in
      (* (inner, pos) pairs are unique, so the sort is deterministic *)
      Array.sort
        (fun (o1, i1, p1, _) (o2, i2, p2, _) ->
          match Int.compare o1 o2 with
          | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare p1 p2 | c -> c)
          | c -> c)
        tuples;
      Table.of_iter_items
        (Array.to_list (Array.map (fun (o, _, _, item) -> (o, item)) tuples))

(** Evaluate a standalone expression under a single-iteration loop and
    return its sequence (iteration 1). *)
let run env e =
  let t = eval env e in
  Table.sequence_of t ~iter:1
