(** Unified XRPC client façade.

    Typed XDM in and out for everything the query-originating site does
    on the wire: call remote XQuery functions singly, in Bulk RPC batches
    or scattered across peers, over HTTP or any transport, and observe
    the recovery policy's breakers.

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

    Every message goes through the site's one outgoing path
    ({!Xrpc_peer.Outbound}): it is serialized in an [rpc] span, stamped
    with a unique idempotency key (so retries at the transport layer never
    re-execute updating functions), counted in the profile's destination
    rows and decoded with [Message.of_reply].  SOAP Faults surface as
    typed {!Xrpc_net.Xrpc_error.Error} exceptions (the fault reason
    round-trips losslessly). *)

(** {2 Configuration} *)

type config = {
  policy : Xrpc_net.Transport.policy option;
      (** retry, backoff and circuit breaker, on the wall clock *)
  executor : Xrpc_net.Executor.t;
      (** drives parallel sends and the policy's concurrent retries *)
  keep_alive : bool;  (** HTTP: pool one connection per destination *)
}

val config :
  ?policy:Xrpc_net.Transport.policy ->
  ?executor:Xrpc_net.Executor.t ->
  ?keep_alive:bool ->
  unit ->
  config
(** Builder with the defaults: no policy, sequential executor, keep-alive
    off. *)

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
    layer), keeping its breakers visible via {!breaker}. *)

val connect_http : ?config:config -> ?origin:string -> unit -> t
(** Front real HTTP: destinations are [xrpc://host:port[/path]] URIs
    (port 8080 when absent).  The policy's [timeout_ms] doubles as the
    socket timeout. *)

(** {2 Introspection} *)

val outbound : t -> Xrpc_peer.Outbound.t
(** The client's outgoing path.  A peer that shares it (set as its
    [Peer.transport]) mints its keys from the same counter. *)

val executor : t -> Xrpc_net.Executor.t
val breaker : t -> string -> Xrpc_net.Transport.breaker_state option

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
    concurrently through the transport's parallel send; results in input
    order. *)

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

(** {2 Optimizer feedback} *)

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
