(** Unified XRPC client façade.

    One front door for everything the query-originating site does on the
    wire: connect over Simnet, HTTP or any transport; call remote XQuery
    functions singly, in Bulk RPC batches, scattered across peers, or
    asynchronously; and observe the recovery policy at work.

    {[
      let client =
        Xrpc_client.(
          connect_http
            ~config:(config ~policy:Transport.default_policy
                       ~executor:(Executor.pool 8) ~keep_alive:true ())
            ())
      in
      let films =
        Xrpc_client.call client ~dest:"xrpc://y:8080" ~module_uri:"films"
          ~fn:"filmsByActor" [ [ Xdm.str "Sean Connery" ] ]
    ]}

    Every outgoing request is stamped with a unique idempotency key, so
    retries at the transport layer never re-execute updating functions.
    SOAP Faults surface as typed {!Xrpc_net.Xrpc_error.Error} exceptions
    (the fault reason round-trips losslessly).  Multi-peer calls fan out
    through the configured {!Xrpc_net.Executor}. *)

(** {2 Configuration} *)

type config = {
  policy : Xrpc_net.Transport.policy option;
  executor : Xrpc_net.Executor.t;
  seed : int;  (** deterministic backoff jitter *)
  tracing : bool;  (** enable the global tracer on connect *)
  keep_alive : bool;  (** HTTP: pool one connection per destination *)
  default_port : int;  (** HTTP: port for xrpc:// URIs without one *)
  result_cache : bool;
      (** allow serving peers to answer this client's read-only calls from
          their semantic result caches (default); [false] stamps every
          request [cache="off"] *)
  strategy : Strategies.strategy option;
      (** pin {!choose_strategy} to one §5 strategy instead of letting the
          cost model rank them (the [~strategy] config counterpart of the
          [XRPC_FORCE_STRATEGY] env override) *)
}

val config :
  ?policy:Xrpc_net.Transport.policy ->
  ?executor:Xrpc_net.Executor.t ->
  ?seed:int ->
  ?tracing:bool ->
  ?keep_alive:bool ->
  ?default_port:int ->
  ?result_cache:bool ->
  ?strategy:Strategies.strategy ->
  unit ->
  config
(** Builder with the defaults: no policy, sequential executor, seed 0,
    tracing off, keep-alive off, port 8080, result caching allowed. *)

val default_config : config

type t

(** {2 Connecting} *)

val connect_transport :
  ?config:config -> ?origin:string -> Xrpc_net.Transport.t -> t
(** Front an arbitrary transport.  With [config.policy], the recovery
    policy (retry, backoff, circuit breaker) runs on the wall clock.
    [origin] names this client in its idempotency keys. *)

val connect_policied :
  ?config:config -> ?origin:string -> Xrpc_net.Transport.policied -> t
(** Front an already-policied transport (e.g. a cluster's shared policy
    layer), keeping its stats and breakers visible via {!policy_stats}. *)

val connect_simnet :
  ?config:config -> ?origin:string -> Xrpc_net.Simnet.t -> t
(** Front the deterministic simulated network.  The executor is {e forced
    sequential} regardless of [config.executor] — Simnet owns a virtual
    clock and is single-threaded, so this is the mode whose seeded chaos
    runs replay bit-identically. *)

val connect_http : ?config:config -> ?origin:string -> unit -> t
(** Front real HTTP: destinations are [xrpc://host:port[/path]] URIs.
    The policy's [timeout_ms] doubles as the socket timeout. *)

(** {2 Introspection} *)

val transport : t -> Xrpc_net.Transport.t
(** The underlying transport, for wiring into [Peer.set_transport]. *)

val executor : t -> Xrpc_net.Executor.t
val policy_stats : t -> Xrpc_net.Transport.policy_stats option
val breaker : t -> string -> Xrpc_net.Transport.breaker_state option

val set_result_caching : t -> bool -> unit
(** Flip the default for requests without an explicit [?cache] argument:
    [false] stamps them [cache="off"], so serving peers always execute. *)

val result_caching : t -> bool

(** {2 Calls}

    All typed calls raise {!Xrpc_net.Xrpc_error.Error} on transport
    failure or when the peer answers with a SOAP Fault. *)

val call :
  t ->
  dest:string ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?updating:bool ->
  ?fragments:bool ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  Xrpc_xml.Xdm.sequence list ->
  Xrpc_xml.Xdm.sequence
(** [call t ~dest ~module_uri ~fn params] invokes
    [module_uri:fn(params...)] at [dest] and returns its result sequence
    (empty for updating calls, whose effects are the result). *)

val call_profiled :
  t ->
  dest:string ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?updating:bool ->
  ?fragments:bool ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  Xrpc_xml.Xdm.sequence list ->
  Xrpc_xml.Xdm.sequence * Xrpc_obs.Profile.t
(** [call] with profiling enabled for its duration: returns the result
    together with the finished {!Xrpc_obs.Profile.t} — per-destination
    messages, serialized bytes both ways, and (the request carries the
    [xrpc:profile] header flag, so cooperating peers measure and return
    them) the remote side's parse/cache/compile/exec/commit phase costs. *)

val call_bulk :
  t ->
  dest:string ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?updating:bool ->
  ?fragments:bool ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  Xrpc_xml.Xdm.sequence list list ->
  Xrpc_xml.Xdm.sequence list
(** Bulk RPC (§2.2): many calls to the same function in one message; one
    result sequence per call, in call order. *)

val call_scatter :
  t ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?updating:bool ->
  ?fragments:bool ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  (string * Xrpc_xml.Xdm.sequence list) list ->
  Xrpc_xml.Xdm.sequence list
(** One single-call request per [(dest, params)] pair, dispatched
    concurrently through the client's executor; results in input order. *)

val call_raw : t -> dest:string -> string -> string
(** Send a pre-serialized message body; returns the raw reply body. *)

val call_raw_bulk : t -> (string * string) list -> string list
(** Raw multi-destination fan-out through the executor. *)

(** {2 Sharded scatter-gather}

    A {!Xrpc_peer.Shard} ring plans into legs; the gather merge
    ({!Xrpc_algebra.Gather.merge}) dedups replica/broadcast re-deliveries
    by [@seq] and orders by [@seq], so every mode returns the same
    answer. *)

type scatter_mode = By_owner | Broadcast

val plan_scatter :
  ?mode:scatter_mode ->
  ?alive:(string -> bool) ->
  Xrpc_peer.Shard.t ->
  (string * string list) list
(** The legs of a sharded fan-out: [(dest, owners)] pairs.  [By_owner]
    (default) asks each live member for its own parts plus those of every
    dead owner (replica failover); [Broadcast] asks each live member for
    every owner's parts.  Raises {!Xrpc_net.Xrpc_error.Error} when no
    member passes [alive]. *)

val call_gather :
  t ->
  ?mode:scatter_mode ->
  ?alive:(string -> bool) ->
  shard:Xrpc_peer.Shard.t ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  ?params:Xrpc_xml.Xdm.sequence list ->
  unit ->
  Xrpc_xml.Xdm.sequence
(** Scatter [fn] over the ring ({!plan_scatter} → {!call_scatter}) and
    merge the partial answers.  [fn] receives the owner URIs a leg should
    answer for as its first parameter ([xs:string*]), then [params].  A
    failing leg raises that leg's typed error with the failing [dest];
    partial results are never returned. *)

(** {2 Asynchronous calls} *)

type 'a future = 'a Xrpc_net.Executor.future

val call_async :
  t ->
  dest:string ->
  ?query_id:Xrpc_soap.Message.query_id ->
  ?updating:bool ->
  ?fragments:bool ->
  ?cache:bool ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  Xrpc_xml.Xdm.sequence list ->
  Xrpc_xml.Xdm.sequence future
(** Like {!call} but returns immediately with a future (resolved inline
    when the executor is sequential). *)

val await : 'a future -> 'a
val await_result : 'a future -> ('a, exn) result

(** {2 Cost-based strategy choice}

    The client is the query-originating site, so it is where the §5
    strategy decision surfaces: {!choose_strategy} ranks the four plans
    with the {!Cost} model (Tables 2–4 terms), {!measure_site} seeds the
    model's site statistics from a live probe. *)

val set_strategy : t -> Strategies.strategy option -> unit
(** Pin (or unpin) the strategy {!choose_strategy} returns. *)

val strategy : t -> Strategies.strategy option

val choose_strategy :
  t ->
  ?force:Strategies.strategy ->
  ?dest:string ->
  ?net:Cost.net ->
  ?cpu:Cost.cpu ->
  Cost.site ->
  Cost.decision
(** Rank the §5 strategies for a site and return the full decision —
    chosen plan plus every rejected alternative with its estimated cost.
    [?dest] applies that destination's calibration factors (falling back
    to the global per-strategy EMA).  Force precedence: [?force], then
    the client's configured [~strategy], then the [XRPC_FORCE_STRATEGY]
    environment variable. *)

val measure_site :
  t ->
  dest:string ->
  ?site:Cost.site ->
  module_uri:string ->
  ?location:string ->
  fn:string ->
  Xrpc_xml.Xdm.sequence list ->
  Cost.site * Xrpc_obs.Profile.t
(** Probe one remote function and fold what came back (row count, payload
    bytes, [serverProfile] phases) into the optimizer's site statistics:
    the measurement side of the adaptive feedback loop. *)
