(** Convenience layer: wire a set of XRPC peers over a transport.

    [create ~names ()] builds one {!Xrpc_peer.Peer} per name on a shared
    deterministic {!Xrpc_net.Simnet} (names become [xrpc://NAME] URIs),
    registers each peer's handler with the network, and points every peer's
    outgoing transport at it.  Wrapper peers (§4) can be attached with
    [add_wrapper].  [serve_http] exposes any peer of the cluster over real
    HTTP for cross-process use. *)

module Peer = Xrpc_peer.Peer
module Wrapper = Xrpc_peer.Wrapper
module Shard = Xrpc_peer.Shard
module Database = Xrpc_peer.Database
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Http = Xrpc_net.Http
module Serialize = Xrpc_xml.Serialize
module Executor = Xrpc_net.Executor
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Xdm = Xrpc_xml.Xdm
module Qname = Xrpc_xml.Qname

(** One sharded collection: a named document that every ring member holds
    a slice of.  Records are [(key, inner-xml)] in placement order; the
    placement index is the record's global [seq] tag. *)
type sharded_collection = {
  sc_doc : string;
  sc_root : string;
  mutable sc_records : (string * string) list;
}

type shard_state = {
  smap : Shard.t;
  mutable collections : sharded_collection list;  (** newest first *)
}

type t = {
  net : Simnet.t;
  policied : Transport.policied option;
      (** present when the cluster was built with a retry/breaker policy;
          exposes the policy layer's stats *)
  transport : Transport.t;
      (** what every peer's outgoing calls go through (the policy layer
          when configured); kept so late-joining peers wire up the same *)
  peer_config : Peer.config;
  executor : Xrpc_net.Executor.t;
  mutable peers : (string * Peer.t) list;
  mutable wrappers : (string * Wrapper.t) list;
  mutable client_facade : Xrpc_client.t option;  (** built lazily *)
  mutable shard : shard_state option;
  mutable modules : (string * string option * string) list;
      (** every [register_module_everywhere] call, replayed onto peers
          that join later *)
}

let net t = t.net

let uri_of_name name =
  if String.length name >= 7 && String.sub name 0 7 = "xrpc://" then name
  else "xrpc://" ^ name

(** Virtual clock derived from the simulated network (milliseconds of
    simulated time become seconds of peer-local time would be confusing —
    peers read the virtual clock in seconds). *)
let clock_of (net : Simnet.t) () = net.Simnet.clock_ms /. 1000.

(* The coordinator's breaker state toward [uri] rides in that peer's
   telemetry snapshot, so /clusterz can show "breaker open to x" next to
   the peer it protects against. *)
let register_breaker_source ~policied uri =
  match policied with
  | None -> ()
  | Some p ->
      Slo.register_source ~scope:uri ~name:"breaker" (fun () ->
          let st =
            match Transport.breaker_state p uri with
            | Transport.Closed -> "closed"
            | Transport.Open _ -> "open"
            | Transport.Half_open -> "half_open"
          in
          (Slo.Probe_ok, [ Slo.Breaker (uri, st) ]))

(** [create ?faults ?policy ~names ()] — [faults] installs seeded fault
    injection on the simulated network; [policy] wraps every peer's
    outgoing transport in the retry/timeout/circuit-breaker layer
    ({!Transport.with_policy}), with backoff sleeps and breaker cooldowns
    measured on the {e virtual} clock so chaos runs stay deterministic.
    [executor] is handed to the policy layer and to every peer's 2PC
    coordinator; leave it sequential (the default) — Simnet is
    single-threaded, and sequential dispatch is what keeps seeded chaos
    runs replayable. *)
let create ?(config = Simnet.default_config) ?(peer_config = Peer.default_config)
    ?faults ?policy ?(executor = Xrpc_net.Executor.sequential) ~names () =
  let net = Simnet.create ~config ?faults () in
  let policied =
    Option.map
      (fun policy ->
        let seed =
          match faults with
          | Some f -> f.Simnet.fault_seed
          | None -> 0
        in
        Transport.with_policy ~policy ~seed ~executor
          ~now:(fun () -> net.Simnet.clock_ms)
          ~sleep:(Simnet.sleep net) (Simnet.transport net))
      policy
  in
  let transport =
    match policied with
    | Some p -> Transport.transport p
    | None -> Simnet.transport net
  in
  let cluster =
    {
      net;
      policied;
      transport;
      peer_config;
      executor;
      peers = [];
      wrappers = [];
      client_facade = None;
      shard = None;
      modules = [];
    }
  in
  List.iter
    (fun name ->
      let uri = uri_of_name name in
      let peer = Peer.create ~config:peer_config ~clock:(clock_of net) uri in
      Peer.set_transport peer transport;
      Peer.set_executor peer executor;
      Simnet.register net uri (Peer.handle_raw peer);
      register_breaker_source ~policied uri;
      cluster.peers <- (name, peer) :: cluster.peers)
    names;
  cluster

(** Add one more peer to a live cluster (same config, transport, executor
    and simulated network as the founding members).  No-op if the name is
    taken. *)
let add_peer t name =
  match List.assoc_opt name t.peers with
  | Some p -> p
  | None ->
      let uri = uri_of_name name in
      let peer = Peer.create ~config:t.peer_config ~clock:(clock_of t.net) uri in
      Peer.set_transport peer t.transport;
      Peer.set_executor peer t.executor;
      Simnet.register t.net uri (Peer.handle_raw peer);
      register_breaker_source ~policied:t.policied uri;
      t.peers <- (name, peer) :: t.peers;
      List.iter
        (fun (muri, location, source) ->
          Peer.register_module peer ~uri:muri ?location source)
        (List.rev t.modules);
      peer

let peer t name =
  match List.assoc_opt name t.peers with
  | Some p -> p
  | None -> invalid_arg ("no peer named " ^ name)

(** Attach a §4 wrapper peer (an XRPC-incapable engine behind the wrapper). *)
let add_wrapper t ?(join_detect = false) name =
  let uri = uri_of_name name in
  let w = Wrapper.create ~join_detect uri in
  Simnet.register t.net uri (Wrapper.handle_raw w);
  t.wrappers <- (name, w) :: t.wrappers;
  w

let wrapper t name =
  match List.assoc_opt name t.wrappers with
  | Some w -> w
  | None -> invalid_arg ("no wrapper named " ^ name)

(** Register the same module on every peer (the paper's examples assume the
    module at its at-hint URL is reachable from everywhere). *)
let register_module_everywhere t ~uri ?location source =
  t.modules <- (uri, location, source) :: t.modules;
  List.iter (fun (_, p) -> Peer.register_module p ~uri ?location source) t.peers;
  List.iter (fun (_, w) -> Wrapper.register_module w ~uri ?location source) t.wrappers

(** Expose a peer over real HTTP (loopback); returns the server handle and
    the xrpc URI (with port) remote peers should use. *)
let serve_http t name ?(port = 0) () =
  let p = peer t name in
  let server = Http.serve ~port (fun ~path:_ body -> Peer.handle_raw p body) in
  (server, Printf.sprintf "xrpc://127.0.0.1:%d" (Http.port server))

(** Point the global tracer at this cluster's virtual clock and enable it:
    span timings become deterministic simulated milliseconds, so a seeded
    chaos schedule replays to a bit-identical span tree. *)
let enable_tracing t =
  Xrpc_obs.Trace.set_clock (fun () -> t.net.Simnet.clock_ms);
  Xrpc_obs.Trace.set_enabled true

let disable_tracing () =
  Xrpc_obs.Trace.set_enabled false;
  Xrpc_obs.Trace.use_wall_clock ()

(** Run [f] with query profiling on, timings on this cluster's virtual
    clock: plan-node and phase times come out as deterministic simulated
    milliseconds, like {!enable_tracing} does for spans. *)
let profiled t ?label f =
  Xrpc_obs.Trace.set_clock (fun () -> t.net.Simnet.clock_ms);
  Xrpc_obs.Profile.profiled ?label f

let clock_ms t = t.net.Simnet.clock_ms
let reset_clock t = Simnet.reset_clock t.net
let stats t = t.net.Simnet.stats
let reset_stats t = Simnet.reset_stats t.net

(* -- fault-injection passthroughs ----------------------------------- *)

let inject_faults t fconfig = Simnet.inject t.net fconfig
let clear_faults t = Simnet.clear_faults t.net
let fault_stats t = Simnet.fault_stats t.net
let crash t ?after_ms name = Simnet.crash t.net ?after_ms (uri_of_name name)
let restart t name = Simnet.restart t.net (uri_of_name name)
let partition t names = Simnet.partition t.net (List.map uri_of_name names)
let heal t = Simnet.heal t.net
let policy_stats t = Option.map Transport.stats t.policied

(** The cluster's {!Xrpc_client} façade: calls go through the shared
    policy layer when one was configured, straight onto the simulated
    network otherwise.  Built once, on first use (idempotency keys stay
    monotone across calls). *)
let client t =
  match t.client_facade with
  | Some c -> c
  | None ->
      let c =
        match t.policied with
        | Some p -> Xrpc_client.connect_policied ~origin:"xrpc://coordinator" p
        | None ->
            Xrpc_client.connect_transport ~origin:"xrpc://coordinator"
              (Simnet.transport t.net)
      in
      t.client_facade <- Some c;
      c

(** Run {!Peer.resolve_in_doubt} on every peer (models "everyone
    reconnects after the network recovers"); returns summed
    [(committed, aborted, still_in_doubt)]. *)
let resolve_in_doubt t =
  List.fold_left
    (fun (c, a, d) (_, p) ->
      let c', a', d' = Peer.resolve_in_doubt p in
      (c + c', a + a', d + d'))
    (0, 0, 0) t.peers

(** Federation health: scrape every member's built-in [telemetry]
    function through the cluster client — so the scrape crosses the same
    simulated network, policy layer and chaos the queries do — and merge
    the snapshots into one cluster view.  A crashed or partitioned peer
    answers with a transport error and appears as ["unreachable"] in the
    view rather than failing the whole scrape. *)
let cluster_health t =
  let c = client t in
  let now = t.net.Simnet.clock_ms in
  let scrape (name, (_ : Peer.t)) =
    let uri = uri_of_name name in
    Telemetry.scrape ~peer:uri ~at_ms:now (fun () ->
        Xrpc_client.call c ~dest:uri ~module_uri:Qname.ns_xrpc ~fn:"telemetry"
          []
        |> Xdm.one_item ~what:"telemetry"
        |> Xdm.string_value)
  in
  let snaps = Executor.map_list t.executor scrape (List.rev t.peers) in
  Telemetry.merge ~at_ms:now snaps

(* ------------------------------------------------------------------ *)
(* Sharded collections                                                  *)
(* ------------------------------------------------------------------ *)

let default_shard_doc = "shard.xml"

let name_of_uri uri =
  if String.length uri >= 7 && String.sub uri 0 7 = "xrpc://" then
    String.sub uri 7 (String.length uri - 7)
  else uri

let peer_by_uri t uri =
  match List.find_opt (fun (n, _) -> uri_of_name n = uri) t.peers with
  | Some (_, p) -> p
  | None -> invalid_arg ("no peer at " ^ uri)

(** The canonical record wrapper: [owner] is the key's primary at
    placement time (what a scatter leg selects on), [seq] its global
    placement index (what the gather merge dedups and orders by). *)
let part_xml ~key ~owner ~seq inner =
  Printf.sprintf "<part key=\"%s\" owner=\"%s\" seq=\"%d\">%s</part>"
    (Serialize.escape_attr key)
    (Serialize.escape_attr owner)
    seq inner

(* the slice of a collection one member stores: every part whose replica
   set includes it, in seq order *)
let member_slice st member c =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "<%s>" c.sc_root);
  List.iteri
    (fun i (key, inner) ->
      match Shard.replica_set st.smap key with
      | primary :: _ as holders when List.mem member holders ->
          Buffer.add_string buf
            (part_xml ~key ~owner:primary ~seq:(i + 1) inner)
      | _ -> ())
    c.sc_records;
  Buffer.add_string buf (Printf.sprintf "</%s>" c.sc_root);
  Buffer.contents buf

(* (re-)write every member's slice of every collection *)
let rebalance_state t st =
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          Database.add_doc_xml (peer_by_uri t m).Peer.db c.sc_doc
            (member_slice st m c))
        (Shard.members st.smap))
    st.collections

(* keys route to the first live holder; with every replica down, to the
   primary — whose typed transport error then surfaces the outage *)
let shard_router t map key =
  let holders = Shard.replica_set map key in
  match List.find_opt (Simnet.is_up t.net) holders with
  | Some m -> m
  | None -> Shard.primary map key

let install_shard_on_peers t st =
  List.iter
    (fun (_, p) ->
      Peer.set_shard_map p (Some st.smap);
      Peer.set_shard_router p (shard_router t st.smap))
    t.peers

(** Attach a shard map: every ring member without a peer is created
    ({!add_peer}), and every peer — member or not — gets the map plus a
    replica-aware, liveness-filtered router for its
    [execute at {"xrpc://shard/<key>"}] destinations.  [None] detaches.
    Re-attaching with a different map re-places any sharded
    collections. *)
let set_shard_map t map =
  match map with
  | None ->
      t.shard <- None;
      List.iter (fun (_, p) -> Peer.set_shard_map p None) t.peers
  | Some map ->
      List.iter
        (fun m -> ignore (add_peer t (name_of_uri m)))
        (Shard.members map);
      let st =
        match t.shard with
        | Some old -> { smap = map; collections = old.collections }
        | None -> { smap = map; collections = [] }
      in
      t.shard <- Some st;
      install_shard_on_peers t st;
      rebalance_state t st

let shard_map t = Option.map (fun st -> st.smap) t.shard
let alive t name = Simnet.is_up t.net (uri_of_name name)

let shard_state_exn ~what t =
  match t.shard with
  | Some st -> st
  | None -> invalid_arg (what ^ ": attach a shard map first (set_shard_map)")

(** Place (or replace) a sharded collection: [records] are
    [(key, inner-xml)] pairs; record [i] becomes
    [<part key owner seq="i+1">inner</part>] in the [doc] slice of every
    member of its replica set. *)
let place_sharded t ?(doc = default_shard_doc) ?(root = "shard") records =
  let st = shard_state_exn ~what:"place_sharded" t in
  st.collections <-
    { sc_doc = doc; sc_root = root; sc_records = records }
    :: List.filter (fun c -> c.sc_doc <> doc) st.collections;
  rebalance_state t st

let find_collection ~what st doc =
  match List.find_opt (fun c -> c.sc_doc = doc) st.collections with
  | Some c -> c
  | None -> invalid_arg (what ^ ": no sharded collection " ^ doc)

let sharded_records t ?(doc = default_shard_doc) () =
  (find_collection ~what:"sharded_records"
     (shard_state_exn ~what:"sharded_records" t)
     doc)
    .sc_records

(** The unsharded oracle: the whole collection in one document, parts
    tagged exactly as the placed slices tag them.  Load this on a
    single reference peer and any sharded query must match it. *)
let oracle_xml t ?(doc = default_shard_doc) () =
  let st = shard_state_exn ~what:"oracle_xml" t in
  let c = find_collection ~what:"oracle_xml" st doc in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "<%s>" c.sc_root);
  List.iteri
    (fun i (key, inner) ->
      Buffer.add_string buf
        (part_xml ~key ~owner:(Shard.primary st.smap key) ~seq:(i + 1) inner))
    c.sc_records;
  Buffer.add_string buf (Printf.sprintf "</%s>" c.sc_root);
  Buffer.contents buf

(** Peer join: create the peer if needed, hash it onto the ring, and
    re-place every collection (only ~K/N parts move). *)
let shard_join t name =
  let st = shard_state_exn ~what:"shard_join" t in
  ignore (add_peer t name);
  Shard.add st.smap (uri_of_name name);
  install_shard_on_peers t st;
  rebalance_state t st

(** Peer leave: drop the member from the ring, re-place, and empty the
    departed peer's slices (it no longer serves them). *)
let shard_leave t name =
  let st = shard_state_exn ~what:"shard_leave" t in
  let uri = uri_of_name name in
  Shard.remove st.smap uri;
  install_shard_on_peers t st;
  rebalance_state t st;
  match List.find_opt (fun (n, _) -> uri_of_name n = uri) t.peers with
  | Some (_, p) ->
      List.iter
        (fun c ->
          Database.add_doc_xml p.Peer.db c.sc_doc
            (Printf.sprintf "<%s></%s>" c.sc_root c.sc_root))
        st.collections
  | None -> ()

(** One scatter-gather query over the attached ring: plan legs from the
    map filtered by Simnet liveness, fan out through the cluster client,
    merge with the seq-dedup gather (see {!Xrpc_client.call_gather}). *)
let scatter_gather t ?mode ~module_uri ?location ~fn ?params () =
  let st = shard_state_exn ~what:"scatter_gather" t in
  Xrpc_client.call_gather (client t) ?mode
    ~alive:(Simnet.is_up t.net)
    ~shard:st.smap ~module_uri ?location ~fn ?params ()

(* ------------------------------------------------------------------ *)
(* Cache control                                                       *)
(* ------------------------------------------------------------------ *)

(** Per-peer cache counters, [(name, stats)] in creation order. *)
let cache_stats t =
  List.map (fun (name, p) -> (name, Peer.cache_stats p)) (List.rev t.peers)

let set_plan_caching t on =
  List.iter (fun (_, p) -> Peer.set_plan_caching p on) t.peers

let clear_caches t = List.iter (fun (_, p) -> Peer.clear_caches p) t.peers

(** Every peer's {!Peer.cache_stats_text} block, name-prefixed. *)
let cache_stats_text t =
  String.concat "\n"
    (List.map
       (fun (name, p) ->
         Printf.sprintf "== %s ==\n%s" name
           Peer.(cache_stats_text (cache_stats p)))
       (List.rev t.peers))
