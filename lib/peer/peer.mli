(** An XRPC peer: an XQuery engine + database + SOAP XRPC request handler +
    client-side query runner (§3 of the paper).

    A peer owns a versioned {!Database}, a registry of XQuery module
    sources, three {!Lru} caches (ad-hoc plans, prepared modules,
    the replies of keyed updating requests), and an {!Isolation}
    manager for queryID-pinned snapshots.  [handle_raw] is the server side
    (the paper's "XRPC request handler"); [query] is the client side (the
    stub code the Pathfinder compiler generates, §3): it runs a local query
    whose [execute at] calls are dispatched over the configured transport,
    with Bulk RPC batching, and — for updating queries under repeatable
    isolation — commits distributed updates with 2PC over the piggybacked
    participant list (§2.3).

    [handle_raw] is this peer's engine behind the one {!Inbound} path,
    which decodes, locks, records and answers every served request;
    [query] runs outside the path's lock, and each cache guards itself
    with its own mutex. *)

exception Peer_error of string
(** The same exception as {!Inbound.Peer_error}. *)

type config = {
  rpc_mode : Xrpc_xquery.Context.rpc_mode;
      (** [Rpc_bulk] (default) loop-lifts [execute at] into Bulk RPC;
          [Rpc_singles] sends one message per call, the Table-2
          comparison mode.  The [XRPC_FORCE_STRATEGY] environment variable
          (read per query) overrides it. *)
  idem_capacity : int;
      (** idempotency-cache capacity; an evicted key falls back to
          at-least-once (the request re-executes on replay) *)
}

val default_config : config

type internals
(** Peer-private state (module registries, coordinator decision log,
    clock, inbound path) — not part of the API. *)

type t = {
  uri : string;
  db : Database.t;
  func_cache : (Xrpc_xquery.Context.func_key, Xrpc_xquery.Context.func) Hashtbl.t Lru.t;
      (** prepared module plans (§3.3): module uri -> the function
          registry of the parsed, prolog-loaded, checked module *)
  plan_cache : Plan_cache.t;
      (** compiled plans for ad-hoc [query] sources, keyed on canonical
          query text — repeats skip parse + prolog + static check *)
  idem_cache : string Lru.t;
      (** the inbound path's idempotency cache: exactly-once semantics
          over an at-least-once transport (rule R_Fu applies pending
          update lists per request), [config.idem_capacity] entries.  It
          keeps the replies of keyed updating requests only; a replayed
          read runs again *)
  isolation : Isolation.t;
  mutable transport : Outbound.t option;
      (** the outgoing-message path every message this peer originates
          takes: [execute at] calls, [getDocument] fetches, 2PC *)
  mutable executor : Xrpc_net.Executor.t;
      (** drives the 2PC prepare/decision broadcasts of distributed
          commits; sequential by default so Simnet chaos runs replay
          deterministically *)
  mutable config : config;
  mutable requests_handled : int;
  mutable calls_handled : int;
  internals : internals;
}

val create : ?config:config -> ?clock:(unit -> float) -> string -> t
(** [create uri] — [uri] is this peer's own [xrpc://] identity; [clock]
    feeds database version timestamps and queryID lifetimes (defaults to
    the wall clock; clusters pass the simulated clock). *)

val set_transport : t -> Xrpc_net.Transport.t -> unit
(** Send this peer's outgoing messages over [transport], through an
    {!Outbound} path whose idempotency keys are [uri/N]. *)

val set_executor : t -> Xrpc_net.Executor.t -> unit
(** Fan this peer's 2PC broadcasts out through [executor].  Keep the
    default {!Xrpc_net.Executor.sequential} on Simnet-backed peers. *)

(** {2 Shard routing} *)

val set_shard_map : t -> Shard.t option -> unit
(** Attach (or, with [None], detach) a consistent-hash {!Shard} map.
    While attached, [execute at {"xrpc://shard/<key>"}] destinations are
    rewritten — before Bulk-RPC dedup, so co-located keys still share one
    message — to the key's primary member.  {!set_shard_router} swaps in a
    smarter route (replica-aware, liveness-filtered; what
    [Xrpc_core.Cluster.set_shard_map] installs on every peer). *)

val set_shard_router : t -> (string -> string) -> unit
(** Override how shard keys become concrete peer URIs, keeping the
    attached map for introspection. *)

val shard_map : t -> Shard.t option

val shard_text : ?keys:string list -> Shard.t option -> string
(** Human-readable description of a peer's {!shard_map} — the shell's
    [:shards] and the monitoring server's [/shardz]; a note when no map
    is attached. *)

val shard_json : ?keys:string list -> Shard.t option -> Xrpc_obs.Json.t
(** The same ring as a JSON value ([/shardz.json]); [{"shard_map":null}]
    when no map is attached. *)

val register_module : t -> uri:string -> ?location:string -> string -> unit
(** Register an XQuery module source under its namespace URI and
    (optionally) an at-hint location, so that both [import module ... at]
    forms and incoming XRPC requests can find it. *)

val module_resolver : t -> Xrpc_xquery.Runner.module_resolver

val handle_raw : t -> string -> string
(** The raw SOAP-over-HTTP handler: body in, body out.  Any error becomes
    a SOAP Fault by the {!Inbound} path's one table
    ({!Xrpc_net.Xrpc_error} values losslessly, via [to_soap_fault]),
    which the originating site turns into a run-time error (§2.1, "XRPC
    Error Message").  A request whose [updCall] disagrees with the called
    function's declaration (updating or not; the built-in [getDocument]
    and [telemetry] calls read) is refused by the inbound path with a
    Sender Fault before it runs: the idempotency cache keeps updating
    replies only, so the flag must be true. *)

val handle_raw_into : t -> ?pos:int -> ?len:int -> string -> Buffer.t -> unit
(** Streaming form of {!handle_raw} ({!Inbound.serve_into}): the request
    envelope is parsed out of the window [body.[pos .. pos+len)] (no
    substring copy — the event-loop server points this at the SOAP body
    inside its connection buffer) and the reply is serialized exactly
    once, appended to the caller's reused output buffer. *)

(** {2 Client side: running queries} *)

type query_result = {
  value : Xrpc_xml.Xdm.sequence;
  participants : string list;  (** remote peers involved *)
  committed : bool;  (** distributed commit outcome (true if read-only) *)
  tx : Two_pc.outcome option;
      (** full 2PC outcome (votes + decision acks) when a distributed
          transaction ran *)
}

val rpc_mode : t -> Xrpc_xquery.Context.rpc_mode
(** The RPC mode this peer's next query runs in: [config.rpc_mode] unless
    [XRPC_FORCE_STRATEGY] names [bulk] or [singles]. *)

val compiled_plan : t -> string -> Plan_cache.compiled
(** The compiled plan for a query source, through the plan cache (same
    entry {!query} uses): an explain-then-run pair compiles once.
    Introspection surfaces ([:explain]) must use this instead of
    re-parsing.  The plan is the lifted one: each body string literal the
    cache lifted is the variable [$xrpc:lit-N] in it. *)

val lifted_plan : t -> string -> Plan_cache.compiled * string array
(** {!compiled_plan} and the values of the source's lifted literals
    ([$xrpc:lit-1] first), which {!query} binds before it runs the plan. *)

val query_label : string -> string
(** A query's one-line label, at most 120 bytes: flight-recorder entries
    and profiles name client-side queries by it. *)

val query : t -> string -> query_result
(** [query peer source] parses and runs a main-module query at this peer.

    - [execute at] calls go over the peer's transport (Bulk RPC unless
      {!rpc_mode} is [Rpc_singles]).
    - With [declare option xrpc:isolation "repeatable"], a fresh queryID is
      attached to every request and the local snapshot is pinned, giving
      rule R'_Fr / R'_Fu semantics; updating queries then commit with 2PC
      across all participating peers (broadcast through the peer's
      {!set_executor} executor).
    - Without it, rules R_Fr / R_Fu apply: remote updates are applied per
      request, local updates when the query finishes.

    A failed cast or arithmetic error raises {!Xrpc_xml.Xdm.Dynamic_error}
    whose message starts with its W3C code ([FORG0001], [FOAR0001], …). *)

val query_seq : t -> string -> Xrpc_xml.Xdm.sequence
(** Convenience: result sequence only; raises on failed distributed
    commit. *)

val resolve_in_doubt : t -> int * int * int
(** In-doubt recovery (presumed abort, §2.3): each prepared-but-undecided
    transaction asks its coordinator for the logged decision with a
    [Status] message.  Returns [(committed, aborted, still_in_doubt)]. *)

(** {2 Cache introspection & control} *)

type cache_stats = {
  plan : Lru.stats;
  result : Lru.stats;
      (** always zero: every served call executes.  Kept for its one
          reader, the [peer.result_hit_ratio] per-layer metric of
          [bench/e2e], which reads 0 on every workload. *)
  func : Lru.stats;
  idem : Lru.stats;
  func_hits : int;  (** [func.hits] *)
  func_misses : int;  (** [func.misses] *)
}

val cache_stats : t -> cache_stats
(** The counters of the three caches (plan, module plan, idempotency),
    each read in one critical section of its cache. *)

val set_plan_caching : t -> bool -> unit
(** Toggle the compiled-plan cache; disabled, every [query] recompiles. *)

val clear_caches : t -> unit
(** Drop every performance cache (plan, module).  The idempotency
    cache is kept — it is a correctness mechanism (exactly-once updates),
    not a performance one. *)

val cache_stats_text : cache_stats -> string
(** Human-readable stats block — what [/cachez] and the shell's
    [:cache stats] print. *)

val cache_stats_json : cache_stats -> Xrpc_obs.Json.t
(** The same counters as a JSON value ([/cachez.json]). *)
