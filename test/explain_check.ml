(* The :explain / :profile agreement check.  [agree peer ~iterations
   query] renders [query]'s plan the way the shell's :explain does (the
   peer's plan cache and current RPC mode), runs the query under
   [Profile.profiled], and holds the spans the run recorded for each
   function against what the printed sites of that function predict:

   - one Bulk RPC  -> one bulkrpc span carrying all [iterations] calls
   - per iteration -> [iterations] bulkrpc spans of one call each
   - single call   -> one bulkrpc span of one call
   - hoisted (rpc) -> no bulkrpc span, an rpc span to the destination

   A bulkrpc span no printed site predicts fails too.  [iterations] is
   the number of loop iterations the sites see.  The path steps printed
   as attribute-value index probes must be the probes the run recorded
   outside any served request (an in-process serving peer's probes
   belong to that peer's plan).  The plan is the lifted one: it prints
   the value of each literal the plan cache lifted, in order.  With
   [~lifted_probe], the plan must have lifted a literal and still print that
   probe among its step forms.  Returns the plan. *)

module Peer = Xrpc_peer.Peer
module Profile = Xrpc_obs.Profile
module Cost = Xrpc_core.Cost

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "site N: prefix:fn/arity at dest ..." then "   span S — dispatch" *)
let printed_sites plan =
  let rec go = function
    | site :: span :: rest when starts_with ~prefix:"site " site ->
        let fn_arity, dest =
          Scanf.sscanf site "site %_d: %s at %s" (fun f d -> (f, d))
        in
        let fn =
          let f = String.sub fn_arity 0 (String.rindex fn_arity '/') in
          match String.rindex_opt f ':' with
          | Some i -> String.sub f (i + 1) (String.length f - i - 1)
          | None -> f
        in
        let span_name, dispatch =
          Scanf.sscanf span "   span %s — %[^\n]" (fun s d -> (s, d))
        in
        (fn, dest, span_name, dispatch) :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (String.split_on_char '\n' plan)

let agree ?lifted_probe peer ~iterations query =
  let compiled, literals = Peer.lifted_plan peer query in
  let plan =
    Cost.explain_plan ~funcs:compiled.Xrpc_peer.Plan_cache.funcs ~literals
      ~rpc_mode:peer.Peer.config.rpc_mode compiled.Xrpc_peer.Plan_cache.prog
  in
  let _, profile = Profile.profiled (fun () -> Peer.query_seq peer query) in
  let fail fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "%s\nplan:\n%s" m plan) fmt
  in
  let sites = printed_sites plan in
  let prog = compiled.Xrpc_peer.Plan_cache.prog in
  if List.length sites <> List.length (Xrpc_xquery.Runner.execute_sites prog)
  then fail "not every site was printed";
  let nodes = Profile.nodes profile in
  (* (fn, calls) of every bulkrpc span, from its detail
     "fn: N call(s) -> D dest(s)" *)
  let recorded =
    List.filter_map
      (fun (n : Profile.node) ->
        if n.Profile.name <> "bulkrpc" then None
        else
          Some (Scanf.sscanf n.Profile.detail "%s@: %d call" (fun f c -> (f, c))))
      nodes
  in
  (* the bulkrpc calls one printed site predicts *)
  let predicted (_, dest, span_name, dispatch) =
    let is prefix = starts_with ~prefix dispatch in
    match span_name with
    | "rpc" ->
        if
          not
            (List.exists
               (fun (n : Profile.node) ->
                 n.Profile.name = "rpc" && n.Profile.detail = dest)
               nodes)
        then fail "the hoisted call to %s recorded no rpc span" dest;
        []
    | "bulkrpc" when is "one Bulk RPC" -> [ iterations ]
    | "bulkrpc" when is "one call per iteration" ->
        List.init iterations (fun _ -> 1)
    | "bulkrpc" when is "a single call" -> [ 1 ]
    | _ -> fail "unknown span %S or dispatch %S" span_name dispatch
  in
  let calls l = String.concat "; " (List.map string_of_int l) in
  List.iter
    (fun fn ->
      let expected =
        List.sort compare
          (List.concat_map predicted
             (List.filter (fun (f, _, _, _) -> f = fn) sites))
      and got =
        List.sort compare
          (List.filter_map
             (fun (f, c) -> if f = fn then Some c else None)
             recorded)
      in
      if expected <> got then
        fail "%s: :explain predicts bulkrpc spans of [%s] calls, :profile \
              recorded [%s]"
          fn (calls expected) (calls got))
    (List.sort_uniq compare
       (List.map (fun (f, _, _, _) -> f) sites @ List.map fst recorded));
  let probe = "attribute-value index probe" in
  (* "   step — form": the forms that name a probe *)
  let form l =
    let sep = " — " in
    let n = String.length sep in
    let rec go i =
      if i + n > String.length l then None
      else if String.sub l i n = sep then
        Some (String.sub l (i + n) (String.length l - i - n))
      else go (i + 1)
    in
    go 0
  in
  let printed_probes =
    List.filter
      (starts_with ~prefix:probe)
      (List.filter_map form (String.split_on_char '\n' plan))
  in
  let rec local_ops (n : Profile.node) =
    if n.Profile.name = "peer.handle" then []
    else List.map fst n.Profile.ops @ List.concat_map local_ops n.Profile.children
  in
  let recorded_probes =
    List.filter (starts_with ~prefix:probe)
      (List.map fst profile.Profile.root_ops
      @ List.concat_map local_ops profile.Profile.roots)
  in
  let set l = List.sort_uniq compare l in
  if set printed_probes <> set recorded_probes then
    fail ":explain prints probes [%s], :profile recorded [%s]"
      (String.concat "; " (set printed_probes))
      (String.concat "; " (set recorded_probes));
  (* "   $xrpc:lit-N := "v"" after "lifted literals:" *)
  let printed_literals =
    let rec after = function
      | "lifted literals:" :: rest -> rest
      | _ :: rest -> after rest
      | [] -> []
    in
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "   $xrpc:lit-%d := %S" (fun n v -> (n, v)))
      (after (String.split_on_char '\n' plan))
  in
  if printed_literals <> List.mapi (fun i v -> (i + 1, v)) (Array.to_list literals)
  then fail ":explain does not print the %d lifted literals in order"
      (Array.length literals);
  Option.iter
    (fun probe ->
      if literals = [||] then fail "the plan lifted no literal";
      if not (List.mem probe printed_probes) then
        fail "the lifted plan does not print %s" probe)
    lifted_probe;
  plan
