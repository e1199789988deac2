(** Convenience layer: wire a set of XRPC peers over a transport.

    [create ~names ()] builds one {!Xrpc_peer.Peer} per name on a shared
    deterministic {!Xrpc_net.Simnet} (names become [xrpc://NAME] URIs),
    registers each peer's handler with the network, and points every
    peer's outgoing transport at it.  Wrapper peers (§4) can be attached
    with [add_wrapper].  [serve_http] exposes any peer of the cluster over
    real HTTP for cross-process use; [client] is the cluster's
    {!Xrpc_client} façade. *)

type t
(** A cluster: the simulated network, the optional shared policy layer,
    and the peers and wrappers living on it.  The policy layer's breaker
    table is internal — observe it through {!policy_stats}. *)

val create :
  ?config:Xrpc_net.Simnet.config ->
  ?peer_config:Xrpc_peer.Peer.config ->
  ?faults:Xrpc_net.Simnet.fault_config ->
  ?policy:Xrpc_net.Transport.policy ->
  ?executor:Xrpc_net.Executor.t ->
  names:string list ->
  unit ->
  t
(** [create ?faults ?policy ~names ()] — [faults] installs seeded fault
    injection on the simulated network; [policy] wraps every peer's
    outgoing transport in the retry/timeout/circuit-breaker layer, with
    backoff sleeps and breaker cooldowns measured on the {e virtual}
    clock so chaos runs stay deterministic.  [executor] is handed to the
    policy layer and to every peer's 2PC coordinator; leave it sequential
    (the default) — Simnet is single-threaded, and sequential dispatch is
    what keeps seeded chaos runs replayable. *)

val net : t -> Xrpc_net.Simnet.t
(** The underlying simulated network (register extra handlers, advance
    the virtual clock, ...). *)

val peer : t -> string -> Xrpc_peer.Peer.t

val add_peer : t -> string -> Xrpc_peer.Peer.t
(** Add one more peer to a live cluster: same config, transport, executor
    and simulated network as the founding members, with every
    {!register_module_everywhere} module replayed onto it.  Returns the
    existing peer if the name is taken. *)

val add_wrapper : t -> ?join_detect:bool -> string -> Xrpc_peer.Wrapper.t
val wrapper : t -> string -> Xrpc_peer.Wrapper.t

val register_module_everywhere :
  t -> uri:string -> ?location:string -> string -> unit
(** Register the same module on every peer and wrapper (the paper's
    examples assume the module at its at-hint URL is reachable from
    everywhere). *)

val serve_http : t -> string -> ?port:int -> unit -> Xrpc_net.Http.server * string
(** Expose a peer over real HTTP (loopback); returns the server handle
    and the xrpc URI (with port) remote peers should use. *)

val client : t -> Xrpc_client.t
(** The cluster's {!Xrpc_client} façade: calls go through the shared
    policy layer when one was configured, straight onto the simulated
    network otherwise.  Built once, on first use. *)

(** {2 Tracing and clocks} *)

val enable_tracing : t -> unit
(** Point the global tracer at this cluster's virtual clock and enable
    it: span timings become deterministic simulated milliseconds, so a
    seeded chaos schedule replays to a bit-identical span tree. *)

val disable_tracing : unit -> unit

(** Run a thunk with query profiling on, timings on this cluster's
    virtual clock; returns the result and the finished profile (plan-node
    tree, per-operator rows/times, per-destination traffic and remote
    phase breakdown). *)
val profiled : t -> ?label:string -> (unit -> 'a) -> 'a * Xrpc_obs.Profile.t
val clock_ms : t -> float
val reset_clock : t -> unit
val stats : t -> Xrpc_net.Simnet.stats
val reset_stats : t -> unit

(** {2 Fault injection} *)

val inject_faults : t -> Xrpc_net.Simnet.fault_config -> unit
val clear_faults : t -> unit
val fault_stats : t -> Xrpc_net.Simnet.fault_stats option
val crash : t -> ?after_ms:float -> string -> unit
val restart : t -> string -> unit
val partition : t -> string list -> unit
val heal : t -> unit
val policy_stats : t -> Xrpc_net.Transport.policy_stats option

val resolve_in_doubt : t -> int * int * int
(** Run {!Xrpc_peer.Peer.resolve_in_doubt} on every peer (models
    "everyone reconnects after the network recovers"); returns summed
    [(committed, aborted, still_in_doubt)]. *)

val cluster_health : t -> Xrpc_obs.Telemetry.cluster_view
(** Scrape every member's built-in [telemetry] XRPC function through the
    cluster client (fanned out on the cluster executor) and merge the
    windowed snapshots into one federation view — per-peer health and
    p99s, hot endpoints, shard-map version agreement, breaker states.
    A crashed or partitioned peer appears as ["unreachable"] rather than
    failing the scrape.  Render with {!Xrpc_obs.Telemetry.cluster_text}
    or, as a JSON value, [cluster_json]. *)

(** {2 Sharded collections}

    A cluster carries at most one {!Xrpc_peer.Shard} ring.  Records
    placed with {!place_sharded} are wrapped as
    [<part key owner seq>…</part>] elements; each ring member's [doc]
    holds every part whose replica set includes it, so any single member
    can die without losing data (with [replicas >= 2]).  Queries reach
    the slices two ways: per-key routing — [execute at
    {"xrpc://shard/<key>"}] on any peer resolves to the first {e live}
    holder of the key — and {!scatter_gather}, which fans a per-owner
    collection function out over the live members and merges the partial
    answers deduped and ordered by [seq]. *)

val set_shard_map : t -> Xrpc_peer.Shard.t option -> unit
(** Attach a ring (creating peers for members that lack one, installing
    the replica-aware liveness-filtered router on every peer) or detach
    with [None].  Re-attaching re-places any sharded collections. *)

val shard_map : t -> Xrpc_peer.Shard.t option

val alive : t -> string -> bool
(** Whether a peer is currently up on the simulated network (not crashed,
    not partitioned away). *)

val place_sharded :
  t -> ?doc:string -> ?root:string -> (string * string) list -> unit
(** Place (or replace) a sharded collection. [records] are
    [(key, inner-xml)] pairs; record [i] is tagged [seq="i+1"] and
    [owner="<its primary>"], and lands in [doc] (default ["shard.xml"],
    root element [root], default ["shard"]) on every member of its
    replica set. *)

val sharded_records : t -> ?doc:string -> unit -> (string * string) list
(** The records of a placed collection, in placement (seq) order. *)

val oracle_xml : t -> ?doc:string -> unit -> string
(** The unsharded oracle: the whole collection as one document, parts
    tagged exactly as the placed slices tag them.  Load it on a single
    reference peer; every sharded query must match that peer's answer. *)

val shard_join : t -> string -> unit
(** Peer join: create the peer if needed, hash it onto the ring,
    re-place every collection (only ~K/N parts move). *)

val shard_leave : t -> string -> unit
(** Peer leave: drop the member from the ring, re-place, and empty the
    departed peer's slices. *)

val scatter_gather :
  t ->
  ?mode:Xrpc_client.scatter_mode ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  ?params:Xrpc_xml.Xdm.sequence list ->
  unit ->
  Xrpc_xml.Xdm.sequence
(** One scatter-gather query over the ring: legs planned from the map
    filtered by Simnet liveness ({!Xrpc_client.plan_scatter}), dispatched
    through the cluster client, merged with the seq-dedup gather.  [fn]
    receives the owner URIs a leg answers for as its first parameter. *)

(** {2 Cache control} *)

val cache_stats : t -> (string * Xrpc_peer.Peer.cache_stats) list
(** Per-peer cache counters, [(name, stats)] in creation order. *)

val set_plan_caching : t -> bool -> unit
(** Toggle every peer's compiled-plan cache. *)

val clear_caches : t -> unit
(** Drop every peer's performance caches (plan, module plans). *)

val cache_stats_text : t -> string
(** Every peer's {!Xrpc_peer.Peer.cache_stats_text} block, name-prefixed. *)
