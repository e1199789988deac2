(** Program execution: prolog processing, module imports, query runs.

    A module resolver maps a module namespace URI plus its at-hint location
    to XQuery source text.  Peers resolve module URIs against their module
    registry (or, in a fuller deployment, fetch the at-hint over HTTP —
    exactly what [import module ... at "http://x.example.org/film.xq"]
    suggests in the paper's examples). *)

open Xrpc_xml

exception Module_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Module_error s)) fmt

type module_resolver = uri:string -> location:string -> string

(** A module resolver that hands back the parsed module, so a peer that
    keeps each registered module's parse never parses it again. *)
type module_loader = uri:string -> location:string -> Ast.prog

(** [load_prolog ctx ~resolver prog] processes a parsed program's prolog:
    registers functions, loads imported modules (recursively), binds global
    variables, and records [declare option] values.  Returns the extended
    context. *)
let rec load_prolog (ctx : Context.t) ~(resolver : module_resolver)
    ?(visited = ref []) (prog : Ast.prog) : Context.t =
  let module_uri, location =
    match prog.Ast.module_decl with
    | Some (_pfx, uri) -> (uri, "")
    | None -> ("", "")
  in
  (* pass 1: imports and functions (so bodies can call forward/recursively) *)
  List.iter
    (fun decl ->
      match decl with
      | Ast.P_import_module (_pfx, uri, at) ->
          let at = Option.value ~default:"" at in
          ctx.Context.imports := (uri, at) :: !(ctx.Context.imports);
          if not (List.mem uri !visited) then (
            visited := uri :: !visited;
            let source = resolver ~uri ~location:at in
            let sub = Parser.parse_prog source in
            (match sub.Ast.module_decl with
            | Some (_, sub_uri) when sub_uri <> uri ->
                err "module at %s declares namespace %s, expected %s" at
                  sub_uri uri
            | Some _ -> ()
            | None -> err "imported %s is not a library module" uri);
            let ctx' = load_prolog ctx ~resolver ~visited sub in
            (* module-level variable bindings flow into the importer *)
            ignore ctx')
      | Ast.P_function f ->
          let location =
            if location <> "" then location
            else
              match
                List.assoc_opt f.Ast.fn_name.Qname.uri !(ctx.Context.imports)
              with
              | Some at -> at
              | None -> ""
          in
          let module_uri =
            if module_uri <> "" then module_uri else f.Ast.fn_name.Qname.uri
          in
          Context.register_function ctx ~module_uri ~location f
      | Ast.P_option (q, v) -> Context.set_option ctx q v
      | _ -> ())
    prog.Ast.prolog;
  (* pass 2: global variables, in declaration order *)
  List.fold_left
    (fun ctx decl ->
      match decl with
      | Ast.P_var (v, e) -> Context.bind_var ctx v (Eval.eval ctx e)
      | _ -> ctx)
    ctx prog.Ast.prolog

(** Pass 1 only — imports (recursively), function registration and
    [declare option] values, all of which mutate [ctx] in place and depend
    only on the source text and the module registry.  Nothing is
    evaluated, so the result is what a plan cache may keep; the variable
    bindings of pass 2 ({!bind_globals}) are database-dependent and must
    re-run per execution.  Imported modules' own global variables are not
    bound — matching {!load_prolog}, which evaluates and discards them. *)
let rec load_prolog_static (ctx : Context.t) ~(load : module_loader)
    ?(visited = ref []) (prog : Ast.prog) : unit =
  let module_uri, location =
    match prog.Ast.module_decl with
    | Some (_pfx, uri) -> (uri, "")
    | None -> ("", "")
  in
  List.iter
    (fun decl ->
      match decl with
      | Ast.P_import_module (_pfx, uri, at) ->
          let at = Option.value ~default:"" at in
          ctx.Context.imports := (uri, at) :: !(ctx.Context.imports);
          if not (List.mem uri !visited) then (
            visited := uri :: !visited;
            let sub = load ~uri ~location:at in
            (match sub.Ast.module_decl with
            | Some (_, sub_uri) when sub_uri <> uri ->
                err "module at %s declares namespace %s, expected %s" at
                  sub_uri uri
            | Some _ -> ()
            | None -> err "imported %s is not a library module" uri);
            load_prolog_static ctx ~load ~visited sub)
      | Ast.P_function f ->
          let location =
            if location <> "" then location
            else
              match
                List.assoc_opt f.Ast.fn_name.Qname.uri !(ctx.Context.imports)
              with
              | Some at -> at
              | None -> ""
          in
          let module_uri =
            if module_uri <> "" then module_uri else f.Ast.fn_name.Qname.uri
          in
          Context.register_function ctx ~module_uri ~location f
      | Ast.P_option (q, v) -> Context.set_option ctx q v
      | _ -> ())
    prog.Ast.prolog

(** Pass 2 — bind this program's global variables, in declaration order.
    Evaluation may read documents (and even the network, through
    [execute at] in an initializer), so it runs once per execution and is
    never cached. *)
let bind_globals (ctx : Context.t) (prog : Ast.prog) : Context.t =
  List.fold_left
    (fun ctx decl ->
      match decl with
      | Ast.P_var (v, e) -> Context.bind_var ctx v (Eval.eval ctx e)
      | _ -> ctx)
    ctx prog.Ast.prolog

(** Check whether a program's body contains any updating expression or call
    to a declared updating function — used by peers to classify queries. *)
let prog_is_updating (ctx : Context.t) (prog : Ast.prog) =
  let rec expr_updating (e : Ast.expr) =
    match e with
    | Ast.Insert _ | Ast.Delete _ | Ast.Replace_node _ | Ast.Replace_value _
    | Ast.Rename_node _ ->
        true
    | Ast.Call (q, args) ->
        (match Context.find_function ctx q (List.length args) with
        | Some f -> f.Context.decl.Ast.fn_updating
        | None -> q.Qname.local = "put" && (q.Qname.uri = Qname.ns_fn || q.Qname.uri = ""))
        || List.exists expr_updating args
    | Ast.Execute_at (d, q, args) ->
        (match Context.find_function ctx q (List.length args) with
        | Some f -> f.Context.decl.Ast.fn_updating
        | None -> false)
        || expr_updating d
        || List.exists expr_updating args
    | Ast.Sequence es -> List.exists expr_updating es
    | Ast.Range (a, b)
    | Ast.Arith (_, a, b)
    | Ast.Compare (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Union (a, b)
    | Ast.Intersect (a, b)
    | Ast.Except (a, b)
    | Ast.Path (a, b)
    | Ast.Comp_elem (a, b)
    | Ast.Comp_attr (a, b) ->
        expr_updating a || expr_updating b
    | Ast.If (c, t, e) -> expr_updating c || expr_updating t || expr_updating e
    | Ast.Flwor (clauses, order_by, ret) ->
        List.exists
          (function
            | Ast.For (_, _, e) | Ast.Let (_, e) | Ast.Where e ->
                expr_updating e)
          clauses
        || List.exists (fun (e, _) -> expr_updating e) order_by
        || expr_updating ret
    | Ast.Quantified (_, binds, sat) ->
        List.exists (fun (_, e) -> expr_updating e) binds || expr_updating sat
    | Ast.Step (_, _, preds) -> List.exists expr_updating preds
    | Ast.Filter (e, preds) ->
        expr_updating e || List.exists expr_updating preds
    | Ast.Elem_ctor (_, attrs, content) ->
        List.exists
          (fun (_, parts) ->
            List.exists
              (function Ast.A_expr e -> expr_updating e | Ast.A_text _ -> false)
              parts)
          attrs
        || List.exists expr_updating content
    | Ast.Text_ctor e | Ast.Comment_ctor e | Ast.Doc_ctor e | Ast.Neg e
    | Ast.Instance_of (e, _)
    | Ast.Cast_as (e, _, _)
    | Ast.Castable_as (e, _, _)
    | Ast.Treat_as (e, _) ->
        expr_updating e
    | Ast.Typeswitch (op, cases, (_, de)) ->
        expr_updating op
        || List.exists (fun (_, _, e) -> expr_updating e) cases
        || expr_updating de
    | Ast.Literal _ | Ast.Var _ | Ast.Context_item | Ast.Root -> false
  in
  match prog.Ast.body with Some e -> expr_updating e | None -> false

(* ------------------------------------------------------------------ *)
(* Shard-aware [execute at] destinations                               *)
(* ------------------------------------------------------------------ *)

(** The virtual shard scheme: [execute at {"xrpc://shard/<key>"}] names a
    {e key}, not a peer.  A shard router installed on the evaluation
    context ({!Context.t.dest_resolver}, built with {!shard_resolver})
    rewrites it to the URI of a live peer holding that key before Bulk
    RPC batching — so two keys hashing to the same peer still share one
    message, and the query text never hard-codes the topology. *)
let shard_scheme = "xrpc://shard/"

let is_shard_dest d =
  String.length d > String.length shard_scheme
  && String.sub d 0 (String.length shard_scheme) = shard_scheme

(** The key a virtual shard destination names ([None] for ordinary
    destinations). *)
let shard_key d =
  if is_shard_dest d then
    Some
      (String.sub d
         (String.length shard_scheme)
         (String.length d - String.length shard_scheme))
  else None

(** [shard_resolver ~route] — the {!Context.t.dest_resolver} that sends
    shard-scheme destinations through [route] (key to concrete peer URI)
    and leaves every other destination untouched. *)
let shard_resolver ~(route : string -> string) : string -> string =
 fun d -> match shard_key d with Some key -> route key | None -> d

(* ------------------------------------------------------------------ *)
(* Static [execute at] site analysis                                   *)
(* ------------------------------------------------------------------ *)

(** How {!Eval} dispatches one [execute at] site, read off the syntax
    with the rules {!Eval.eval_flwor} applies ({!Eval.clause_eval},
    {!Eval.return_calls}). *)
type dispatch =
  | Bulk  (** one Bulk RPC per destination over all tuples of its FLWOR *)
  | Hoisted
      (** set-at-a-time after a [for], loop-invariant and not updating:
          {!Eval.bulk_execute} sends one call and shares its result when
          the loop has two or more iterations *)
  | Per_iteration  (** one call per iteration of an enclosing loop *)
  | Single
      (** one call: outside any loop, or in a loop-invariant clause that
          runs once for all tuples *)

(** One [execute at] application found in a query body — the unit the
    distributed-strategy optimizer costs.  [site_dest] is the destination
    URI when it is a string literal (the common case in §5's plans);
    [site_in_loop] marks Bulk-RPC candidates (the site sits under at least
    one enclosing [for] binding); [site_loop_dependent] says whether the
    call's destination or arguments reference variables bound by the
    enclosing FLWOR — a loop-dependent site is the semi-join shape, a
    loop-invariant one hoists to a single call (the Q7_1 pattern). *)
type execute_site = {
  site_dest : string option;
  site_fn : Qname.t;
  site_arity : int;
  site_in_loop : bool;
  site_loop_dependent : bool;
  site_dispatch : dispatch;
}

(** [execute_sites prog] — every [execute at] site in [prog]'s body, in
    syntactic order, with the dispatch it gets in [rpc_mode] (default
    bulk).  [funcs] (a compiled plan's registry) says which calls are
    updating.  Purely static: nothing is evaluated. *)
let execute_sites ?(rpc_mode = Context.Rpc_bulk) ?funcs (prog : Ast.prog) :
    execute_site list =
  let bulk = rpc_mode = Context.Rpc_bulk in
  let updating (f : Qname.t) arity =
    match
      Option.bind funcs (fun t ->
          Hashtbl.find_opt t (f.Qname.uri, f.Qname.local, arity))
    with
    | Some fn -> fn.Context.decl.Ast.fn_updating
    | None -> false
  in
  let acc = ref [] in
  let module VS = Ast.Var_set in
  (* [fors], [bound]: the enclosing [for] clauses and bound variables (the
     optimizer's view); [looped]: [e] runs once per iteration of an
     enclosing loop; [set]: its FLWOR dispatches [e] set-at-a-time, after
     clauses binding [flwor_bound] ([has_for]: one of them is a [for]) *)
  let rec go ~fors ~bound ~looped ?set (e : Ast.expr) =
    match e with
    | Ast.Execute_at (d, f, args) ->
        let dispatch =
          match set with
          | Some (flwor_bound, has_for) ->
              if
                has_for
                && Eval.loop_invariant ~bound:flwor_bound e
                && not (updating f (List.length args))
              then Hoisted
              else Bulk
          | None -> if looped then Per_iteration else Single
        in
        acc :=
          {
            site_dest =
              (match d with Ast.Literal (Xs.String s) -> Some s | _ -> None);
            site_fn = f;
            site_arity = List.length args;
            site_in_loop = fors > 0;
            site_loop_dependent = not (Eval.loop_invariant ~bound e);
            site_dispatch = dispatch;
          }
          :: !acc;
        List.iter (go ~fors ~bound ~looped) (d :: args)
    | Ast.Flwor (clauses, order_by, ret) ->
        let key = Ast.var_set_key in
        let add_vars set v posv =
          let set = VS.add (key v) set in
          match posv with Some p -> VS.add (key p) set | None -> set
        in
        let fors, bound, flwor_bound, has_for =
          List.fold_left
            (fun (fors, bound, flwor_bound, has_for) clause ->
              let looped' = looped || has_for in
              let source src =
                match Eval.clause_eval ~bulk ~bound:flwor_bound src with
                | Eval.Set_at_a_time _ ->
                    go ~fors ~bound ~looped:looped'
                      ~set:(flwor_bound, has_for) src
                | Eval.Once -> go ~fors ~bound ~looped src
                | Eval.Per_tuple -> go ~fors ~bound ~looped:looped' src
              in
              match clause with
              | Ast.For (v, posv, src) ->
                  source src;
                  ( fors + 1,
                    add_vars bound v posv,
                    add_vars flwor_bound v posv,
                    true )
              | Ast.Let (v, src) ->
                  source src;
                  ( fors,
                    add_vars bound v None,
                    add_vars flwor_bound v None,
                    has_for )
              | Ast.Where c ->
                  go ~fors ~bound ~looped:looped' c;
                  (fors, bound, flwor_bound, has_for))
            (fors, bound, VS.empty, false)
            clauses
        in
        let looped = looped || has_for in
        List.iter (fun (e, _) -> go ~fors ~bound ~looped e) order_by;
        if Eval.return_calls ~bulk ret = [] then go ~fors ~bound ~looped ret
        else
          List.iter
            (go ~fors ~bound ~looped ~set:(flwor_bound, has_for))
            (match ret with Ast.Sequence es -> es | e -> [ e ])
    | Ast.Quantified (_, binds, sat) ->
        (* every binding after the first, and the test, run per tuple *)
        let bound, _ =
          List.fold_left
            (fun (bound, looped) (v, src) ->
              go ~fors ~bound ~looped src;
              (VS.add (Ast.var_set_key v) bound, true))
            (bound, looped) binds
        in
        go ~fors ~bound ~looped:true sat
    | e ->
        List.iter (go ~fors ~bound ~looped) (Ast.focus_sub_exprs e);
        List.iter (go ~fors ~bound ~looped:true) (Ast.item_sub_exprs e)
  in
  Option.iter (go ~fors:0 ~bound:VS.empty ~looped:false) prog.Ast.body;
  List.rev !acc

(** Parse-and-run a main-module query.  Returns the result sequence and the
    pending update list the query produced (empty for read-only queries —
    it is the {e caller's} job to [Update.apply] the PUL, per XQUF). *)
let run ?(ctx = Context.empty ()) ~(resolver : module_resolver) (source : string)
    : Xdm.sequence * Update.pul =
  let prog = Parser.parse_prog source in
  let ctx = load_prolog ctx ~resolver prog in
  match prog.Ast.body with
  | None -> err "cannot execute a library module"
  | Some body ->
      let result = Eval.eval ctx body in
      (result, List.rev !(ctx.Context.pul))
