(** Unified XRPC client façade.

    One front door for everything the query-originating site does on the
    wire, replacing the scattered entry points (raw {!Transport} records,
    [Http.transport] keyword soup, hand-built {!Message.request}s):

    {[
      let client =
        Xrpc_client.(connect_http ~config:(config ~policy ~keep_alive:true
                                             ~executor:(Executor.pool 8) ()) ())
      in
      let films =
        Xrpc_client.call client ~dest:"xrpc://y:8080" ~module_uri:"films"
          ~fn:"filmsByActor" [ [ Xdm.str "Sean Connery" ] ]
    ]}

    A client is a {!Transport.t} plus a {!config}: the recovery policy,
    the dispatch {!Executor}, connection keep-alive, and tracing.  Every
    outgoing request is stamped with a unique idempotency key (so the
    at-least-once transport never re-executes updating functions), faults
    come back as typed {!Xrpc_error.Error} exceptions, and multi-peer
    calls fan out through the configured executor. *)

module Transport = Xrpc_net.Transport
module Executor = Xrpc_net.Executor
module Xrpc_error = Xrpc_net.Xrpc_error
module Simnet = Xrpc_net.Simnet
module Http = Xrpc_net.Http
module Message = Xrpc_soap.Message
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile
module Metrics = Xrpc_obs.Metrics
module Xdm = Xrpc_xml.Xdm

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  policy : Transport.policy option;
  executor : Executor.t;
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

let config ?policy ?(executor = Executor.sequential) ?(seed = 0)
    ?(tracing = false) ?(keep_alive = false) ?(default_port = 8080)
    ?(result_cache = true) ?strategy () =
  {
    policy;
    executor;
    seed;
    tracing;
    keep_alive;
    default_port;
    result_cache;
    strategy;
  }

let default_config = config ()

type t = {
  transport : Transport.t;
  policied : Transport.policied option;
      (** present when [config.policy] wrapped the transport; exposes the
          policy layer's stats and breakers *)
  executor : Executor.t;
  origin : string;  (** identity stamped into idempotency keys *)
  mutable idem_seq : int;
  seq_lock : Mutex.t;
  mutable cache_ok : bool;
      (** default for requests without an explicit [?cache] argument *)
  mutable forced_strategy : Strategies.strategy option;
      (** from [config.strategy]; pins {!choose_strategy} *)
}

(* ------------------------------------------------------------------ *)
(* Connecting                                                          *)
(* ------------------------------------------------------------------ *)

let make ?(origin = "xrpc://client") ~config:cfg ~executor transport policied =
  if cfg.tracing then Trace.set_enabled true;
  {
    transport;
    policied;
    executor;
    origin;
    idem_seq = 0;
    seq_lock = Mutex.create ();
    cache_ok = cfg.result_cache;
    forced_strategy = cfg.strategy;
  }

(** Front an arbitrary transport.  With [config.policy], the recovery
    policy runs on the wall clock. *)
let connect_transport ?(config = default_config) ?origin raw =
  match config.policy with
  | None -> make ?origin ~config ~executor:config.executor raw None
  | Some policy ->
      let p =
        Transport.with_policy ~policy ~seed:config.seed
          ~executor:config.executor
          ~now:(fun () -> Unix.gettimeofday () *. 1000.)
          ~sleep:(fun ms -> Unix.sleepf (ms /. 1000.))
          raw
      in
      make ?origin ~config ~executor:config.executor (Transport.transport p)
        (Some p)

(** Front an already-policied transport (e.g. a cluster's shared policy
    layer), keeping its stats and breakers visible. *)
let connect_policied ?(config = default_config) ?origin p =
  make ?origin ~config ~executor:config.executor (Transport.transport p)
    (Some p)

(** Front the deterministic simulated network.  The executor is {e forced
    sequential} — Simnet owns a virtual clock and is single-threaded, so
    this is the mode whose seeded chaos runs replay bit-identically. *)
let connect_simnet ?(config = default_config) ?origin net =
  let executor = Executor.sequential in
  let raw = Simnet.transport net in
  match config.policy with
  | None -> make ?origin ~config ~executor raw None
  | Some policy ->
      let p =
        Transport.with_policy ~policy ~seed:config.seed ~executor
          ~now:(fun () -> net.Simnet.clock_ms)
          ~sleep:(Simnet.sleep net) raw
      in
      make ?origin ~config ~executor (Transport.transport p) (Some p)

(** Front real HTTP.  The policy's [timeout_ms] doubles as the socket
    timeout; [config.keep_alive] pools one connection per destination. *)
let connect_http ?(config = default_config) ?origin () =
  let raw =
    Http.transport ~default_port:config.default_port
      ?timeout_ms:(Option.map (fun p -> p.Transport.timeout_ms) config.policy)
      ~executor:config.executor ~keep_alive:config.keep_alive ()
  in
  connect_transport ~config ?origin raw

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let transport t = t.transport
let executor t = t.executor
let policy_stats t = Option.map Transport.stats t.policied
let breaker t dest = Option.map (fun p -> Transport.breaker_state p dest) t.policied

let set_result_caching t on = t.cache_ok <- on
let result_caching t = t.cache_ok

(* ------------------------------------------------------------------ *)
(* Raw calls                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-destination traffic series, labeled Prometheus-style; resolved per
   call (a registry lookup), which is noise next to a network round trip. *)
let m_dest_requests dest =
  Metrics.counter (Metrics.with_labels "client.requests" [ ("dest", dest) ])

let m_dest_bytes_out dest =
  Metrics.counter (Metrics.with_labels "client.bytes_out" [ ("dest", dest) ])

let m_dest_bytes_in dest =
  Metrics.counter (Metrics.with_labels "client.bytes_in" [ ("dest", dest) ])

let note_exchange ~dest ~out_bytes ~in_bytes =
  Metrics.incr (m_dest_requests dest);
  Metrics.incr_by (m_dest_bytes_out dest) out_bytes;
  Metrics.incr_by (m_dest_bytes_in dest) in_bytes;
  if Trace.recording () then begin
    Trace.add (Profile.dest_attr "msgs" dest) 1.;
    Trace.add (Profile.dest_attr "bytes_out" dest) (float_of_int out_bytes);
    Trace.add (Profile.dest_attr "bytes_in" dest) (float_of_int in_bytes)
  end

(* unspanned sends: the typed calls open the span themselves so response
   decoding (and its trace events, e.g. remote-cache-hit) happens inside
   it; the public raw entry points wrap these in the same spans *)
let send_raw t ~dest body =
  let raw = t.transport.Transport.send ~dest body in
  note_exchange ~dest ~out_bytes:(String.length body)
    ~in_bytes:(String.length raw);
  raw

let send_raw_bulk t pairs =
  let raws = t.transport.Transport.send_parallel pairs in
  List.iter2
    (fun (dest, body) raw ->
      note_exchange ~dest ~out_bytes:(String.length body)
        ~in_bytes:(String.length raw))
    pairs raws;
  raws

let span_call ~dest f = Trace.with_span ~detail:dest "client.call" f

let span_scatter ~n f =
  Trace.with_span ~detail:(string_of_int n ^ " peers") "client.scatter" f

let call_raw t ~dest body = span_call ~dest (fun () -> send_raw t ~dest body)

let call_raw_bulk t pairs =
  span_scatter ~n:(List.length pairs) (fun () -> send_raw_bulk t pairs)

(* ------------------------------------------------------------------ *)
(* Typed calls                                                         *)
(* ------------------------------------------------------------------ *)

let fresh_idem_key t =
  Mutex.lock t.seq_lock;
  t.idem_seq <- t.idem_seq + 1;
  let seq = t.idem_seq in
  Mutex.unlock t.seq_lock;
  Printf.sprintf "%s/%d" t.origin seq

let request t ?query_id ?(updating = false) ?(fragments = false) ?cache
    ~module_uri ?(location = "") ~fn calls =
  {
    Message.module_uri;
    location;
    method_ = fn;
    arity = (match calls with [] -> 0 | params :: _ -> List.length params);
    updating;
    fragments;
    query_id;
    idem_key = Some (fresh_idem_key t);
    cache_ok = (match cache with Some b -> b | None -> t.cache_ok);
    calls;
  }

(* per-destination remote-cache observability: how often this client's
   calls were answered from the serving peer's result cache, and the last
   database version each destination reported *)
let m_dest_cache_hits dest =
  Metrics.counter
    (Metrics.with_labels "client.remote_cache_hits" [ ("dest", dest) ])

let m_dest_db_version dest =
  Metrics.gauge
    (Metrics.with_labels "client.remote_db_version" [ ("dest", dest) ])

(* a Fault reply becomes the typed error it round-trips as *)
let decode ~dest raw =
  match Message.of_reply ~dest raw with
  | Message.Response r ->
      if r.Message.cached then begin
        Metrics.incr (m_dest_cache_hits dest);
        Trace.event ~detail:dest "remote-cache-hit"
      end;
      Option.iter
        (fun v -> Metrics.set (m_dest_db_version dest) (float_of_int v))
        r.Message.db_version;
      r.Message.results
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
    request t ?query_id ?updating ?fragments ?cache ~module_uri ?location ~fn
      calls
  in
  if Trace.recording () then
    Trace.add (Profile.dest_attr "calls" dest) (float_of_int (List.length calls));
  span_call ~dest @@ fun () ->
  decode ~dest (send_raw t ~dest (Message.to_string (Message.Request req)))

let call t ~dest ?query_id ?updating ?fragments ?cache ~module_uri ?location
    ~fn params =
  match
    call_bulk t ~dest ?query_id ?updating ?fragments ?cache ~module_uri
      ?location ~fn [ params ]
  with
  | seq :: _ -> seq
  | [] -> []  (* updating requests carry no results *)

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
    through the client's executor. *)
let call_scatter t ?query_id ?updating ?fragments ?cache ~module_uri ?location
    ~fn dest_params =
  let pairs =
    List.map
      (fun (dest, params) ->
        let req =
          request t ?query_id ?updating ?fragments ?cache ~module_uri ?location
            ~fn [ params ]
        in
        (dest, Message.to_string (Message.Request req)))
      dest_params
  in
  span_scatter ~n:(List.length pairs) @@ fun () ->
  List.map2
    (fun (dest, _) raw ->
      match decode ~dest raw with seq :: _ -> seq | [] -> [])
    dest_params
    (send_raw_bulk t pairs)

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
(* Asynchronous calls                                                  *)
(* ------------------------------------------------------------------ *)

type 'a future = 'a Executor.future

let call_async t ~dest ?query_id ?updating ?fragments ?cache ~module_uri
    ?location ~fn params =
  Executor.submit t.executor (fun () ->
      call t ~dest ?query_id ?updating ?fragments ?cache ~module_uri ?location
        ~fn params)

let await = Executor.await
let await_result = Executor.await_result

(* ------------------------------------------------------------------ *)
(* Cost-based strategy choice                                          *)
(* ------------------------------------------------------------------ *)

let set_strategy t s = t.forced_strategy <- s
let strategy t = t.forced_strategy

(** Rank the §5 strategies for [site] and return the full decision
    (chosen plan + rejected alternatives with their estimated costs).
    Force precedence: explicit [?force], then the client's configured
    [~strategy], then [XRPC_FORCE_STRATEGY]. *)
let choose_strategy t ?force ?dest ?(net = Cost.default_net)
    ?(cpu = Cost.zero_cpu) site =
  let force =
    match force with
    | Some _ -> force
    | None -> (
        match t.forced_strategy with
        | Some _ as s -> s
        | None -> Cost.force_of_env ())
  in
  Cost.choose ?force ?dest net cpu site

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
