(** Unified XRPC client façade: typed XDM in and out over the site's one
    outgoing-message path, {!Xrpc_peer.Outbound}, which encodes, keys,
    counts, sends and decodes every message.

    {[
      let client =
        Xrpc_client.(connect_http ~config:(config ~policy ~keep_alive:true
                                             ~executor:(Executor.pool 8) ()) ())
      in
      let films =
        Xrpc_client.call client ~dest:"xrpc://y:8080" ~module_uri:"films"
          ~fn:"filmsByActor" [ [ Xdm.str "Sean Connery" ] ]
    ]}

    A client is an outgoing path plus a {!config}: the recovery policy,
    the dispatch {!Executor} and connection keep-alive.  Faults come back
    as typed {!Xrpc_error.Error} exceptions. *)

module Transport = Xrpc_net.Transport
module Executor = Xrpc_net.Executor
module Xrpc_error = Xrpc_net.Xrpc_error
module Http = Xrpc_net.Http
module Message = Xrpc_soap.Message
module Profile = Xrpc_obs.Profile
module Outbound = Xrpc_peer.Outbound
module Xdm = Xrpc_xml.Xdm

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  policy : Transport.policy option;
  executor : Executor.t;
  keep_alive : bool;  (** HTTP: pool one connection per destination *)
}

let config ?policy ?(executor = Executor.sequential) ?(keep_alive = false) ()
    =
  { policy; executor; keep_alive }

let default_config = config ()

type t = {
  out : Outbound.t;
  policied : Transport.policied option;
      (** present when [config.policy] wrapped the transport; exposes the
          policy layer's breakers *)
  executor : Executor.t;
}

(* ------------------------------------------------------------------ *)
(* Connecting                                                          *)
(* ------------------------------------------------------------------ *)

let make ?(origin = "xrpc://client") ~executor transport policied =
  { out = Outbound.create ~origin transport; policied; executor }

(** Front an arbitrary transport.  With [config.policy], the recovery
    policy runs on the wall clock. *)
let connect_transport ?(config = default_config) ?origin raw =
  match config.policy with
  | None -> make ?origin ~executor:config.executor raw None
  | Some policy ->
      let p =
        Transport.with_policy ~policy ~executor:config.executor
          ~now:(fun () -> Unix.gettimeofday () *. 1000.)
          ~sleep:(fun ms -> Unix.sleepf (ms /. 1000.))
          raw
      in
      make ?origin ~executor:config.executor (Transport.transport p) (Some p)

(** Front an already-policied transport (e.g. a cluster's shared policy
    layer), keeping its breakers visible. *)
let connect_policied ?(config = default_config) ?origin p =
  make ?origin ~executor:config.executor (Transport.transport p) (Some p)

(** Front real HTTP.  The policy's [timeout_ms] doubles as the socket
    timeout; [config.keep_alive] pools one connection per destination. *)
let connect_http ?(config = default_config) ?origin () =
  let raw =
    Http.transport
      ?timeout_ms:(Option.map (fun p -> p.Transport.timeout_ms) config.policy)
      ~executor:config.executor ~keep_alive:config.keep_alive ()
  in
  connect_transport ~config ?origin raw

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let outbound t = t.out
let executor t = t.executor
let breaker t dest = Option.map (fun p -> Transport.breaker_state p dest) t.policied

(* ------------------------------------------------------------------ *)
(* Typed calls                                                         *)
(* ------------------------------------------------------------------ *)

(* the idempotency key is the outgoing path's to mint *)
let request ?query_id ?(updating = false) ?(fragments = false) ?(cache = true)
    ~module_uri ?(location = "") ~fn calls =
  {
    Message.module_uri;
    location;
    method_ = fn;
    arity = (match calls with [] -> 0 | params :: _ -> List.length params);
    updating;
    fragments;
    query_id;
    idem_key = None;
    cache_ok = cache;
    calls;
  }

(* a Fault reply becomes the typed error it round-trips as *)
let results ~dest = function
  | Message.Response r -> r.Message.results
  | Message.Fault f ->
      raise
        (Xrpc_error.Error
           (Xrpc_error.of_soap_fault ~dest ~code:f.Message.fault_code
              f.Message.reason))
  | _ ->
      Xrpc_error.error
        ~kind:(Xrpc_error.Protocol "unexpected-reply")
        ~dest "expected a response or fault"

let call_bulk t ~dest ?query_id ?updating ?fragments ?cache ~module_uri
    ?location ~fn calls =
  let req =
    request ?query_id ?updating ?fragments ?cache ~module_uri ?location ~fn
      calls
  in
  results ~dest (Outbound.call t.out ~dest req)

let first = function seq :: _ -> seq | [] -> []  (* updating: no results *)

let call t ~dest ?query_id ?updating ?fragments ?cache ~module_uri ?location
    ~fn params =
  first
    (call_bulk t ~dest ?query_id ?updating ?fragments ?cache ~module_uri
       ?location ~fn [ params ])

(** [call] with profiling on for its duration: returns the result together
    with the finished profile — per-destination messages/bytes and, when
    the serving peer measured them, its parse/compile/exec/commit phase
    costs from the response header. *)
let call_profiled t ~dest ?query_id ?updating ?fragments ?cache ~module_uri
    ?location ~fn params =
  Profile.profiled ~label:(fn ^ " @ " ^ dest) (fun () ->
      call t ~dest ?query_id ?updating ?fragments ?cache ~module_uri ?location
        ~fn params)

(** One single-call request per destination, dispatched concurrently
    through the transport's parallel send. *)
let call_scatter t ?query_id ?updating ?fragments ?cache ~module_uri ?location
    ~fn dest_params =
  let reqs =
    List.map
      (fun (dest, params) ->
        ( dest,
          request ?query_id ?updating ?fragments ?cache ~module_uri ?location
            ~fn [ params ] ))
      dest_params
  in
  List.map2
    (fun (dest, _) reply -> first (results ~dest reply))
    dest_params
    (Outbound.call_parallel t.out reqs)

(* ------------------------------------------------------------------ *)
(* Sharded scatter-gather                                              *)
(* ------------------------------------------------------------------ *)

module Shard = Xrpc_peer.Shard

(** How a shard map turns into scatter legs.  [By_owner] sends every live
    member one call asking for the parts it primarily owns (plus, as
    failover, the parts of every dead owner — its replicas hold copies);
    [Broadcast] asks every live member for everything it stores.
    Broadcast legs over-answer — only replication-factor of the ring is
    returned more than once — and rely on the gather merge's seq-dedup,
    which makes them robust to a rebalance racing the query. *)
type scatter_mode = By_owner | Broadcast

(** The legs of a sharded fan-out: [(dest, owners)] — call [dest], asking
    for the parts tagged with each owner in [owners].  [alive] filters the
    ring's members (default: all live); raises {!Xrpc_error.Error}
    ([Unreachable]) when no member is live. *)
let plan_scatter ?(mode = By_owner) ?alive shard =
  let members = Shard.members shard in
  let is_alive = match alive with Some f -> f | None -> fun _ -> true in
  let live = List.filter is_alive members in
  if live = [] then
    Xrpc_error.error
      ~kind:Xrpc_error.Unreachable
      ~dest:"xrpc://shard" "scatter: every shard member is down";
  match mode with
  | Broadcast -> List.map (fun m -> (m, members)) live
  | By_owner ->
      let dead = List.filter (fun m -> not (is_alive m)) members in
      List.map (fun m -> (m, m :: dead)) live

(** Scatter a per-owner collection function over a shard ring and merge
    the partial answers (dedup by [@seq], order by [@seq] — see
    {!Xrpc_algebra.Gather}).  [fn] at each member receives the owner URIs
    it should answer for as its first parameter (an [xs:string*]), then
    [params].  One leg failing raises that leg's typed
    {!Xrpc_error.Error}; no partial result is ever returned. *)
let call_gather t ?(mode = By_owner) ?alive ~shard ?query_id ?cache
    ~module_uri ?location ~fn ?(params = []) () =
  let legs = plan_scatter ~mode ?alive shard in
  let dest_params =
    List.map
      (fun (dest, owners) -> (dest, List.map Xdm.str owners :: params))
      legs
  in
  let partials =
    call_scatter t ?query_id ?cache ~module_uri ?location ~fn dest_params
  in
  Gather.merge partials

(* ------------------------------------------------------------------ *)
(* Optimizer feedback                                                  *)
(* ------------------------------------------------------------------ *)

(** Probe one remote function and seed the optimizer's site statistics
    from what actually came back: the returned row count and payload
    bytes become the pushdown terms of [site], measured (not guessed) the
    way the feedback loop expects.  Returns the updated site and the
    probe's profile (which also carries [serverProfile] phase costs for
    the CPU term). *)
let measure_site t ~dest ?(site = Cost.default_site) ~module_uri ?location ~fn
    params =
  let results, profile =
    call_profiled t ~dest ~module_uri ?location ~fn params
  in
  let bytes_in =
    match List.assoc_opt dest (Profile.dests profile) with
    | Some d -> d.Profile.d_bytes_in
    | None -> 0
  in
  let rows = List.length results in
  let site =
    {
      site with
      Cost.pushdown_rows = rows;
      pushdown_bytes = max 0 (bytes_in - site.Cost.msg_overhead_bytes);
    }
  in
  (site, profile)
