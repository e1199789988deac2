(** The relational translation of a loop-lifted XRPC call — Figure 2 of the
    paper, with the intermediate tables of Figure 1 exposed for inspection.

    {v
    execute at {dst} { f(param1, ..., paramn) }  ⇒  result
      peers   = δ(π_item(dst))
      map_p   = π_{iter,iterp}(ρ_{iterp:<iter>}(σ_{item=p}(dst)))
      req_i_p = π_{iterp,pos,item}(ρ_pos(map_p ⋈_{iter=iter} param_i))
      msg_p   = f(req_1_p, ..., req_n_p) @ p          (one Bulk RPC)
      res_p   = π_{iter,pos,item}(msg_p ⋈_{iterp=iterp} map_p)
      result  = ⊎_{p ∈ peers} res_p                    (merge on iter)
    v}

    Request assembly partitions each [req_i_p] table by [iterp] in one pass
    ({!Table.group_by_iter}), so building a k-call Bulk RPC costs O(rows),
    not O(k × rows); response reassembly likewise builds [msg_p] columnar
    in one pass and maps it back through the hash ⋈. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

type trace = (string * Table.t) list

let m_bulk = Metrics.counter "bulkrpc.executes"
let m_bulk_calls = Metrics.counter "bulkrpc.calls"

(** [execute ~dst ~params ~request_meta ~call] runs the Figure-2 rule.
    [dst] and each parameter are [iter|pos|item] tables over the same loop;
    [call dest request] performs one network round trip.  Returns the
    result table plus the named intermediate tables (Figure 1). *)
let execute ~(dst : Table.t) ~(params : Table.t list)
    ~(module_uri : string) ~(location : string) ~(method_ : string)
    ?(query_id : Message.query_id option)
    ~(call : dest:string -> Message.request -> Message.t) () :
    Table.t * trace =
  Trace.with_span ~detail:method_ "bulkrpc" @@ fun () ->
  Metrics.incr m_bulk;
  let trace = ref [] in
  let note name t = trace := (name, t) :: !trace in
  note "dst" dst;
  List.iteri (fun i p -> note (Printf.sprintf "param%d" (i + 1)) p) params;
  (* peers = δ(π_item(dst)) — order of first occurrence is kept by δ *)
  let peers_t = Ops.distinct (Ops.project dst [ ("item", "item") ]) in
  let peer_col = Table.col peers_t "item" in
  let peers =
    Array.to_list
      (Array.map (fun c -> Xdm.string_value (Table.item_cell c)) peer_col)
  in
  let results =
    List.map
      (fun peer ->
        let map_p, iterps, request =
          Trace.with_span ~detail:peer "bulkrpc.assemble" @@ fun () ->
          let peer_cell = Table.Item (Xdm.str peer) in
          (* map_p : iter -> iterp *)
          let selected = Ops.select_eq dst "item" peer_cell in
          let ranked =
            Ops.rank selected ~new_col:"iterp" ~order_by:[ "iter" ] ()
          in
          let map_p = Ops.project ranked [ ("iter", "iter"); ("iterp", "iterp") ] in
          note (Printf.sprintf "map_%s" peer) map_p;
          (* req_i_p per parameter *)
          let reqs =
            List.mapi
              (fun i param ->
                let joined = Ops.equi_join map_p "iter" param "iter" in
                let req =
                  Ops.project joined
                    [ ("iterp", "iterp"); ("pos", "pos"); ("item", "item") ]
                in
                note (Printf.sprintf "req%d_%s" (i + 1) peer) req;
                req)
              params
          in
          (* assemble the Bulk RPC: one call per iterp, in iterp order.  Each
             req table is partitioned by iterp ONCE; per-call assembly is then
             an O(1) lookup, keeping the whole request build linear. *)
          let iterps =
            List.sort_uniq Int.compare
              (Array.to_list
                 (Array.map Table.int_cell (Table.col map_p "iterp")))
          in
          let req_lookups =
            List.map (fun req -> Table.iter_lookup ~iter_col:"iterp" req) reqs
          in
          let calls =
            List.map
              (fun iterp -> List.map (fun lookup -> lookup iterp) req_lookups)
              iterps
          in
          Metrics.incr_by m_bulk_calls (List.length calls);
          (* logical calls carried to this destination, for :profile's
             per-destination accounting *)
          if Trace.recording () then
            Trace.add (Profile.dest_attr "calls" peer)
              (float_of_int (List.length calls));
          let request =
            {
              Message.module_uri;
              location;
              method_;
              arity = List.length params;
              updating = false;
              fragments = false;
              query_id;
              idem_key = None; cache_ok = true;
              calls;
            }
          in
          (map_p, iterps, request)
        in
        let response = call ~dest:peer request in
        Trace.with_span ~detail:peer "bulkrpc.reassemble" @@ fun () ->
        let result_seqs =
          match response with
          | Message.Response r -> r.Message.results
          | Message.Fault f ->
              Xdm.dyn_error "XRPC fault from %s: %s" peer f.Message.reason
          | _ -> Xdm.dyn_error "unexpected XRPC reply from %s" peer
        in
        (* msg_p : iterp|pos|item — one columnar pass over the response *)
        let msg_p =
          Table.of_sequences ~iter_col:"iterp" (List.combine iterps result_seqs)
        in
        note (Printf.sprintf "msg_%s" peer) msg_p;
        (* res_p : map iterp back to iter *)
        let joined = Ops.equi_join msg_p "iterp" map_p "iterp" in
        let res_p =
          Ops.project joined [ ("iter", "iter"); ("pos", "pos"); ("item", "item") ]
        in
        note (Printf.sprintf "res_%s" peer) res_p;
        res_p)
      peers
  in
  let result = Ops.merge_union_on_iter results in
  note "result" result;
  (result, List.rev !trace)
