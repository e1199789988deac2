(** Unified XRPC server façade — the serving-side twin of {!Xrpc_client}.

    One front door for everything a hosting process does: build a
    {!config} (port, worker executor, connection limits, flight-recorder
    threshold, tracing), get the standard monitoring routes registered
    declaratively, {!start}/{!stop} the HTTP core, and observe it with
    {!stats}.  The [xrpc-server] binary is flag parsing plus calls into
    this module; embedders get the same server the CLI runs.

    {[
      let peer = Xrpc_peer.Peer.create "xrpc://127.0.0.1:8080" in
      let server =
        Xrpc_server.(
          create ~config:(config ~port:8080 ~max_connections:10_000 ()) peer)
      in
      let _port = Xrpc_server.start server in
      ...
      Xrpc_server.stop server
    ]}

    The core is the readiness-driven event loop ({!Xrpc_net.Evloop}): one
    epoll loop over non-blocking sockets with per-connection state
    machines, XQuery execution on a bounded worker pool, SOAP requests
    parsed straight out of connection buffers and replies serialized
    once into reused output buffers. *)

(** {2 Configuration} *)

type config = {
  port : int;  (** listen port (0 picks a free one; see {!port}) *)
  backlog : int;
  max_connections : int option;
      (** beyond this many open connections, new ones get an immediate
          503 and are closed *)
  workers : int;  (** size of the query-execution pool *)
  executor : Xrpc_net.Executor.t option;
      (** overrides [workers] with a caller-owned executor *)
  slow_ms : float;  (** flight-recorder pinning threshold *)
  trace : bool;  (** enable tracing; log a span tree per SOAP request *)
  outgoing : bool;
      (** wire the peer's own [execute at] dispatch through an HTTP
          {!Xrpc_client} (pooled keep-alive, parallel fan-out) *)
  cluster_peers : string list;
      (** other federation members [/clusterz] scrapes (their built-in
          [telemetry] function, in parallel over the outgoing client) *)
}

val config :
  ?port:int ->
  ?backlog:int ->
  ?max_connections:int ->
  ?workers:int ->
  ?executor:Xrpc_net.Executor.t ->
  ?slow_ms:float ->
  ?trace:bool ->
  ?outgoing:bool ->
  ?cluster_peers:string list ->
  unit ->
  config
(** Builder with the defaults: port 8080, backlog 128, no connection
    cap, 4 workers, 250 ms slow threshold, tracing off,
    outgoing HTTP client wired, no cluster peers. *)

val default_config : config

type t

(** {2 Lifecycle} *)

val create : ?config:config -> Xrpc_peer.Peer.t -> t
(** Build a server around [peer]: configures the flight recorder,
    optionally enables tracing (span ids tagged with the port so traces
    stitched across processes cannot collide), wires the peer's outgoing
    transport through an {!Xrpc_client} (unless [~outgoing:false]), and
    registers the {{!section-routes} default monitoring routes}.  The
    socket is not opened until {!start}. *)

val start : t -> int
(** Bind and serve; returns the bound port (useful with [~port:0]).
    Idempotent — a second [start] returns the running server's port.
    GET routes answer from the route table; everything else is a SOAP
    XRPC request handled by the peer. *)

val stop : t -> unit
(** Shut the HTTP core down (close every connection, release the port,
    join the loop thread) and stop any worker pool [start] created.
    The façade can be started again afterwards. *)

val port : t -> int
(** Bound port once started, configured port before. *)

val peer : t -> Xrpc_peer.Peer.t

val client : t -> Xrpc_client.t option
(** The outgoing HTTP client wired at {!create} time (unless
    [~outgoing:false]). *)

(** {2 Observation} *)

val stats : t -> Xrpc_net.Evloop.stats
(** Lifetime counters of the serving core: accepted / active / served /
    rejected(503) / accept_errors / client disconnects.  Zeros before
    {!start}. *)

val stats_text : t -> string
(** The [/statz] route body: the {!stats} counters, and the
    windowed rates / loop-lag p99 / queue depths from the sliding-window
    series. *)

val cluster_snapshots : t -> Xrpc_obs.Telemetry.snapshot list
(** This peer's own snapshot plus one per configured [cluster_peers]
    member, scraped in parallel via each peer's built-in [telemetry]
    XRPC function.  A peer that cannot be reached yields an
    ["unreachable"] pseudo-snapshot rather than an exception. *)

val cluster_view : t -> Xrpc_obs.Telemetry.cluster_view
(** {!cluster_snapshots} merged: the [/clusterz] value. *)

(** {2:routes Routes}

    [create] registers the standard monitoring surface in one place
    (instead of ad-hoc dispatch in the binary).  Most routes are views:
    one value computed per request, rendered as text at [/p] and as
    JSON at [/p.json] ({!add_view}).  Views: [/metrics] (the metric
    registry: totals, plus 1m/1h windows of windowed series),
    [/healthz] (liveness + readiness with structured reasons, one
    {!Xrpc_obs.Slo.health}), [/clusterz] (federation-wide scrape),
    [/requestz] (one {!Xrpc_obs.Flight_recorder.snapshot}), [/cachez]
    and [/shardz] ([?keys=a,b]).  Text only: [/slowz], [/optimizerz],
    [/tracez?id=N[&format=tree]] (JSON span exports), [/statz] and
    [/routez] (the table itself, one line per route).  GET requests
    whose path matches a route are answered by it; unmatched requests
    fall through to the peer's SOAP handler. *)

val add_route :
  t -> path:string -> doc:string -> (query:string -> string) -> unit
(** Register (or append) a text route.  [handle ~query] receives the raw
    query string ([k=v&k2=v2]); use {!query_param} to pick values. *)

val add_view :
  t ->
  path:string ->
  doc:string ->
  (query:string -> 'a) ->
  text:('a -> string) ->
  json:('a -> Xrpc_obs.Json.t) ->
  unit
(** Register a view: [path] answers [text v] and [path ^ ".json"]
    answers [json v], where [v] is computed once per request. *)

val routes : t -> (string * string) list
(** [(path, doc)] pairs, registration order. *)

val query_param : string -> string -> string option
(** [query_param query key] — the value of [key] in a raw query string. *)

val split_path : string -> string * string
(** Split [/route?query] into [("/route", "query")]. *)

(** {2 Data loading} *)

val load_directory : t -> string -> int * int
(** Load every [*.xml] file in a directory as a queryable document (by
    file name) and register every [*.xq] library module under its
    declared namespace URI (file name as at-hint).  Returns
    [(documents, modules)] counts; non-library-module [.xq] files and a
    missing directory are logged and skipped. *)
