(** Unified XRPC server façade — the serving-side twin of {!Xrpc_client}.

    One front door for everything a hosting process does: build a config
    (port, worker executor, connection limits, flight-recorder threshold,
    tracing), register monitoring routes declaratively, start/stop the
    HTTP core, and observe it.  [bin/xrpc_server.ml] is flag parsing plus
    calls into this module; embedders get the same server the CLI runs.

    {[
      let peer = Xrpc_peer.Peer.create "xrpc://127.0.0.1:8080" in
      let server =
        Xrpc_server.(
          create ~config:(config ~port:8080 ~max_connections:10_000 ()) peer)
      in
      let port = Xrpc_server.start server in
      ...
      Xrpc_server.stop server
    ]}

    The core is the readiness-driven event loop ({!Xrpc_net.Evloop}):
    SOAP requests are parsed out of each connection's input buffer and
    replies serialized into its reused output buffer
    ({!Xrpc_peer.Peer.handle_raw_into}), with XQuery execution on a
    bounded worker pool so slow queries never stall the accept/read/write
    loop. *)

module Peer = Xrpc_peer.Peer
module Http = Xrpc_net.Http
module Evloop = Xrpc_net.Evloop
module Executor = Xrpc_net.Executor
module Transport = Xrpc_net.Transport
module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Trace = Xrpc_obs.Trace
module Flight_recorder = Xrpc_obs.Flight_recorder
module Export = Xrpc_obs.Export
module Json = Xrpc_obs.Json
module Xdm = Xrpc_xml.Xdm
module Qname = Xrpc_xml.Qname

let log_src = Logs.Src.create "xrpc.server" ~doc:"XRPC serving façade"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  port : int;  (** listen port (0 picks a free one; see {!port}) *)
  backlog : int;
  max_connections : int option;
      (** beyond this many open connections, new ones get an immediate
          503 and are closed *)
  workers : int;  (** size of the query-execution pool *)
  executor : Executor.t option;
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

let config ?(port = 8080) ?(backlog = 128) ?max_connections ?(workers = 4)
    ?executor ?(slow_ms = 250.) ?(trace = false)
    ?(outgoing = true) ?(cluster_peers = []) () =
  {
    port;
    backlog;
    max_connections;
    workers;
    executor;
    slow_ms;
    trace;
    outgoing;
    cluster_peers;
  }

let default_config = config ()

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

(* A route answers [rpath] with text; a route built by [add_view] also
   answers [rpath ^ ".json"], rendering JSON from the same value. *)
type route = {
  rpath : string;
  doc : string;
  text : query:string -> string;
  json : (query:string -> string) option;
}

type t = {
  peer : Peer.t;
  cfg : config;
  mutable routes : route list;
  mutable server : Http.server option;
  mutable owned_pool : Executor.t option;
      (* a pool we created in [start] and must shut down in [stop] *)
  mutable client : Xrpc_client.t option;
}

let query_param query key =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.sub kv 0 i = key ->
          Some (String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (String.split_on_char '&' query)

let split_path path =
  match String.index_opt path '?' with
  | Some i ->
      (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))
  | None -> (path, "")

let add_route t ~path ~doc text =
  t.routes <- t.routes @ [ { rpath = path; doc; text; json = None } ]

let add_view t ~path ~doc value ~text ~json =
  t.routes <-
    t.routes
    @ [ { rpath = path; doc = doc ^ " (also .json)";
          text = (fun ~query -> text (value ~query));
          json = Some (fun ~query -> Json.to_string (json (value ~query))) } ]

let routes t = List.map (fun r -> (r.rpath, r.doc)) t.routes

let keys_of_query query =
  match query_param query "keys" with
  | Some ks -> String.split_on_char ',' ks
  | None -> []

let tracez ~query =
  match Option.map int_of_string_opt (query_param query "id") with
  | Some (Some id) -> (
      match Flight_recorder.find id with
      | Some e ->
          Json.to_string
            (if query_param query "format" = Some "tree" then
               Export.span_tree_json e.Flight_recorder.spans
             else Export.chrome_trace e.Flight_recorder.spans)
      | None -> Printf.sprintf "no request #%d in the flight recorder" id)
  | _ ->
      "usage: /tracez?id=N (ids listed at /requestz; &format=tree for the \
       nested-span JSON instead of Chrome trace events)"

let optimizerz ~query:_ =
  Cost.calibration_text ()
  ^
  match Cost.force_of_env () with
  | Some s -> "forced by XRPC_FORCE_STRATEGY: " ^ Strategies.name s ^ "\n"
  | None -> ""

let stats_unstarted () =
  {
    Evloop.accepted = 0;
    active = 0;
    served = 0;
    rejected = 0;
    accept_errors = 0;
    disconnects = 0;
  }

let stats t =
  match t.server with Some s -> Http.stats s | None -> stats_unstarted ()

let loop_lag_p99 () =
  Metrics.quantile ~tier:Metrics.Fast (Metrics.histogram "evloop.loop_lag_ms")
    0.99

let stats_text t =
  let s = stats t in
  let wr name = Metrics.rate (Metrics.counter name) in
  let exec =
    match t.cfg.executor with
    | Some e -> Some e
    | None -> t.owned_pool
  in
  Printf.sprintf
    "server.accepted %d\nserver.active %d\nserver.served \
     %d\nserver.rejected_503 %d\nserver.accept_errors \
     %d\nserver.client_disconnects %d\nwindow.accepted_1m_rate \
     %.3f\nwindow.served_1m_rate %.3f\nwindow.rejected_503_1m_rate \
     %.3f\nwindow.accept_errors_1m_rate %.3f\nwindow.disconnects_1m_rate \
     %.3f\nwindow.loop_lag_p99_ms %s\nwindow.doneq_depth \
     %s\nwindow.executor_queue_depth %d\n"
    s.Evloop.accepted s.Evloop.active s.Evloop.served s.Evloop.rejected
    s.Evloop.accept_errors s.Evloop.disconnects (wr "server.accepted")
    (wr "http.requests_served") (wr "server.rejected_503")
    (wr "server.accept_errors") (wr "server.client_disconnects")
    (Metrics.fnum (loop_lag_p99 ()))
    (Metrics.fnum (Metrics.gauge "evloop.doneq_depth").Metrics.value)
    (match exec with Some e -> Executor.queue_depth e | None -> 0)

(* -- federation scrape --------------------------------------------- *)

(* Pull every configured peer's windowed snapshot via its built-in
   [telemetry] XRPC function, in parallel on the outgoing client's
   executor.  A failed leg degrades to an [unreachable] pseudo-snapshot
   instead of failing the view — a peer you cannot scrape is exactly
   what the cluster view exists to show. *)
let cluster_snapshots t =
  let self = Telemetry.local_snapshot ~peer:t.peer.Peer.uri () in
  let now = Trace.now_ms () in
  let others =
    List.filter (fun u -> u <> t.peer.Peer.uri) t.cfg.cluster_peers
  in
  let scrape uri =
    match t.client with
    | None ->
        Telemetry.unreachable ~peer:uri ~at_ms:now
          ~reason:"no outgoing client configured"
    | Some c ->
        Telemetry.scrape ~peer:uri ~at_ms:now (fun () ->
            Xrpc_client.call c ~dest:uri ~module_uri:Qname.ns_xrpc
              ~fn:"telemetry" []
            |> Xdm.one_item ~what:"telemetry"
            |> Xdm.string_value)
  in
  let ex =
    match t.client with
    | Some c -> Xrpc_client.executor c
    | None -> Executor.sequential
  in
  self :: Executor.map_list ex scrape others

let cluster_view t = Telemetry.merge ~at_ms:(Trace.now_ms ()) (cluster_snapshots t)

(* the monitoring surface, registered in one place instead of the ad-hoc
   match the CLI used to hand-wire; a view computes its value once per
   request and renders it as text or, at [.json], as JSON *)
let default_routes t =
  let r path doc text = add_route t ~path ~doc text in
  let v path doc value = add_view t ~path ~doc (fun ~query:_ -> value ()) in
  v "/metrics" "metrics registry, totals + 1m/1h windows" Metrics.snapshot
    ~text:Metrics.to_text ~json:Metrics.to_json;
  v "/healthz" "liveness + readiness with reasons"
    (Slo.health ~scope:t.peer.Peer.uri)
    ~text:Slo.healthz_text ~json:Slo.healthz_json;
  v "/clusterz" "federation-wide health (scrapes cluster peers)"
    (fun () -> cluster_view t)
    ~text:Telemetry.cluster_text ~json:Telemetry.cluster_json;
  v "/requestz" "flight recorder: last requests" Flight_recorder.snapshot
    ~text:Flight_recorder.to_text ~json:Flight_recorder.to_json;
  r "/slowz" "pinned slow queries (>= slow-ms)" (fun ~query:_ ->
      Flight_recorder.(pinned_text (snapshot ())));
  v "/cachez" "plan/func/idem cache stats"
    (fun () -> Peer.cache_stats t.peer)
    ~text:Peer.cache_stats_text ~json:Peer.cache_stats_json;
  add_view t ~path:"/shardz" ~doc:"consistent-hash ring (?keys=a,b shows placement)"
    (fun ~query -> (keys_of_query query, Peer.shard_map t.peer))
    ~text:(fun (keys, m) -> Peer.shard_text ~keys m)
    ~json:(fun (keys, m) -> Peer.shard_json ~keys m);
  r "/optimizerz" "strategy-cost calibration state" optimizerz;
  r "/tracez" "span trees per request (?id=N[&format=tree])" (fun ~query ->
      tracez ~query);
  r "/statz" "server core counters" (fun ~query:_ -> stats_text t);
  r "/routez" "this route table" (fun ~query:_ ->
      String.concat ""
        (List.map
           (fun r -> Printf.sprintf "%-16s %s\n" r.rpath r.doc)
           t.routes))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) peer =
  Flight_recorder.set_slow_ms config.slow_ms;
  if config.trace then begin
    (* span ids get a per-process tag so traces stitched across several
       server processes cannot collide *)
    Trace.set_process_tag (Printf.sprintf "p%d-" config.port);
    Trace.set_enabled true
  end;
  let t =
    {
      peer;
      cfg = config;
      routes = [];
      server = None;
      owned_pool = None;
      client = None;
    }
  in
  if config.outgoing then begin
    (* outgoing calls of hosted functions also travel over HTTP, through
       the client façade: pooled keep-alive connections, parallel fan-out,
       and the default recovery policy, whose breakers feed the "breaker"
       health source.  The peer shares the client's outgoing path, so
       its execute-at calls and the telemetry scrapes draw idempotency
       keys from one counter *)
    let client =
      Xrpc_client.connect_http
        ~config:
          (Xrpc_client.config ~policy:Transport.default_policy
             ~executor:Executor.unbounded ~keep_alive:true ())
        ~origin:peer.Peer.uri ()
    in
    peer.Peer.transport <- Some (Xrpc_client.outbound client);
    Peer.set_executor peer (Xrpc_client.executor client);
    t.client <- Some client
  end;
  default_routes t;
  t

let peer t = t.peer
let client t = t.client

let soap_done t =
  if t.cfg.trace then begin
    Log.app (fun m -> m "trace:@.%s" (Trace.render ()));
    Trace.reset ()
  end

(* the route answering [path] and its renderer: [/p] is a route's text,
   [/p.json] the JSON form of a view *)
let find_route t path =
  match List.find_opt (fun r -> r.rpath = path) t.routes with
  | Some r -> Some (r, r.text)
  | None ->
      let base = Filename.chop_suffix_opt ~suffix:".json" path in
      List.find_map
        (fun r ->
          match r.json with
          | Some json when base = Some r.rpath -> Some (r, json)
          | _ -> None)
        t.routes

(* Monitoring routes get the same per-endpoint rate/error/latency
   treatment as served functions (SOAP traffic is recorded per-function
   inside [Peer.handle_raw_into] — recording it here too would double
   count). *)
let run_route t (r, render) ~query =
  let t0 = Unix.gettimeofday () in
  let finish ~error =
    Slo.record ~scope:t.peer.Peer.uri ~endpoint:r.rpath
      ~dur_ms:((Unix.gettimeofday () -. t0) *. 1000.)
      ~error ()
  in
  match render ~query with
  | body ->
      finish ~error:false;
      body
  | exception e ->
      finish ~error:true;
      raise e

(* Health sources for this serving process: the conditions /healthz
   must surface that no request counter can see — executor queue
   saturation and breakers open toward cluster peers — plus the runtime
   gauges that ride in the telemetry snapshot.  [executor] runs the
   served requests. *)
let register_runtime_sources t executor =
  let scope = t.peer.Peer.uri in
  let cap = min 1024 (max 1 (Executor.threads executor)) in
  Slo.register_source ~scope ~name:"executor" (fun () ->
      let d = Executor.queue_depth executor in
      ( (if d >= cap * 16 then
           Slo.Probe_unready
             (Printf.sprintf "queue saturated (%d jobs behind %d workers)" d cap)
         else if d >= cap * 4 then
           Slo.Probe_degraded (Printf.sprintf "queue backlog (%d jobs)" d)
         else Slo.Probe_ok),
        [] ));
  (match (t.client, t.cfg.cluster_peers) with
  | Some c, (_ :: _ as peers) ->
      Slo.register_source ~scope ~name:"breaker" (fun () ->
          let states =
            List.filter_map
              (fun d ->
                match Xrpc_client.breaker c d with
                | Some (Transport.Open _) -> Some (d, "open")
                | Some Transport.Half_open -> Some (d, "half_open")
                | Some Transport.Closed -> Some (d, "closed")
                | None -> None)
              peers
          in
          let opens =
            List.filter_map
              (fun (d, st) -> if st = "open" then Some d else None)
              states
          in
          let circuit_open = "circuit open to " ^ String.concat ", " opens in
          ( (if opens = [] then Slo.Probe_ok
             else Slo.Probe_degraded circuit_open),
            List.map (fun (d, st) -> Slo.Breaker (d, st)) states ))
  | _ -> ());
  Slo.register_source ~scope ~name:"gauges" (fun () ->
      let s = stats t in
      ( Slo.Probe_ok,
        [
          Slo.Gauge ("active_connections", float_of_int s.Evloop.active);
          Slo.Gauge
            ( "served_1m_rate",
              Metrics.rate (Metrics.counter "http.requests_served") );
          Slo.Gauge ("loop_lag_p99_ms", loop_lag_p99 ());
          Slo.Gauge
            ( "executor_queue_depth",
              float_of_int (Executor.queue_depth executor) );
        ] ))

let start t =
  match t.server with
  | Some s -> Http.port s
  | None ->
      let executor =
        match t.cfg.executor with
        | Some e -> e
        | None ->
            let p = Executor.pool t.cfg.workers in
            t.owned_pool <- Some p;
            p
      in
      (* streaming contract: SOAP bodies are parsed straight out of the
         connection's input buffer and replies serialized into its reused
         output buffer — envelopes are materialized once *)
      let server =
        Http.serve_stream ~port:t.cfg.port ~backlog:t.cfg.backlog
          ?max_connections:t.cfg.max_connections ~executor
          (fun ~meth:_ ~path ~src ~pos ~len out ->
            let route, query = split_path path in
            match find_route t route with
            | Some r -> Buffer.add_string out (run_route t r ~query)
            | None ->
                Peer.handle_raw_into t.peer ~pos ~len src out;
                soap_done t)
      in
      t.server <- Some server;
      register_runtime_sources t executor;
      Http.port server

let port t = match t.server with Some s -> Http.port s | None -> t.cfg.port

let stop t =
  match t.server with
  | None -> ()
  | Some s ->
      Http.shutdown s;
      t.server <- None;
      Option.iter Executor.shutdown t.owned_pool;
      t.owned_pool <- None

(* ------------------------------------------------------------------ *)
(* Data loading                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Load every [*.xml] in [dir] as a queryable document (by file name)
    and register every [*.xq] library module under its declared namespace
    URI and its file name as at-hint.  Returns [(documents, modules)]
    counts; skips (with a log line) files that are not library modules. *)
let load_directory t dir =
  let docs = ref 0 and mods = ref 0 in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        if Filename.check_suffix entry ".xml" then begin
          Xrpc_peer.Database.add_doc_xml t.peer.Peer.db entry (read_file path);
          incr docs
        end
        else if Filename.check_suffix entry ".xq" then begin
          let source = read_file path in
          let prog = Xrpc_xquery.Parser.parse_prog source in
          match prog.Xrpc_xquery.Ast.module_decl with
          | Some (_, uri) ->
              Peer.register_module t.peer ~uri ~location:entry source;
              incr mods
          | None ->
              Log.warn (fun m -> m "skipping %s: not a library module" entry)
        end)
      (Sys.readdir dir)
  else Log.warn (fun m -> m "data directory %s not found" dir);
  (!docs, !mods)
