(** An XRPC peer: an XQuery engine + database + SOAP XRPC request handler +
    client-side query runner (§3 of the paper).

    A peer owns a versioned {!Database}, a registry of XQuery module
    sources, four {!Lru} caches (ad-hoc plans, call results, prepared
    modules, idempotent responses), and an {!Isolation}
    manager for queryID-pinned snapshots.  [handle_raw] is the server side
    (the paper's "XRPC request handler"); [query] is the client side (the
    stub code the Pathfinder compiler generates, §3): it runs a local query
    whose [execute at] calls are dispatched over the configured transport,
    with Bulk RPC batching, and — for updating queries under repeatable
    isolation — commits distributed updates with 2PC over the piggybacked
    participant list (§2.3). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xctx = Xrpc_xquery.Context
module Runner = Xrpc_xquery.Runner
module Update = Xrpc_xquery.Update
module Executor = Xrpc_net.Executor
module Xrpc_error = Xrpc_net.Xrpc_error
module Xrpc_uri = Xrpc_net.Xrpc_uri
module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile
module Flight_recorder = Xrpc_obs.Flight_recorder

let log_src = Logs.Src.create "xrpc.peer" ~doc:"XRPC peer request handling"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Peer_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Peer_error s)) fmt

type config = {
  rpc_mode : Xctx.rpc_mode;
      (** [Rpc_bulk] (default) loop-lifts [execute at] into Bulk RPC;
          [Rpc_singles] sends one message per call, the Table-2
          comparison mode.  The [XRPC_FORCE_STRATEGY] environment variable
          (read per query) overrides it. *)
  idem_capacity : int;
      (** idempotency-cache capacity; an evicted key falls back to
          at-least-once (the request re-executes on replay) *)
}

let default_config =
  {
    rpc_mode = Xctx.Rpc_bulk;
    idem_capacity = 256;
  }

let m_requests = Metrics.counter "peer.requests"
let m_calls = Metrics.counter "peer.calls"
let m_queries = Metrics.counter "peer.queries"

(** Peer-private state, hidden behind the interface: module registries,
    the coordinator's decision log, the clock, and the request-handling
    lock. *)
type internals = {
  modules : (string, string) Hashtbl.t;  (** module namespace uri -> source *)
  locations : (string, string) Hashtbl.t;  (** at-hint location -> source *)
  tx_decisions : (string, bool) Hashtbl.t;
      (** coordinator decision log (queryID key -> committed) backing the
          Status recovery of in-doubt participants (presumed abort) *)
  clock : unit -> float;
  lock : Mutex.t;
      (** serializes request handling — the HTTP server runs handlers on
          a pool of worker threads, and peer state (isolation tables,
          database versions) is not otherwise synchronized *)
  mutable locked_by : int option;
      (** holder thread id, for reentrant self-calls (a served function may
          [execute at] its own peer) *)
  mutable shard_map : Shard.t option;
      (** the consistent-hash ring this peer routes virtual
          [xrpc://shard/<key>] destinations with (introspection surface) *)
  mutable shard_route : (string -> string) option;
      (** key -> concrete peer URI; defaults to the map's primary, but a
          cluster installs a replica-aware, liveness-filtered router *)
}

type t = {
  uri : string;
  db : Database.t;
  func_cache : (Xctx.func_key, Xctx.func) Hashtbl.t Lru.t;
      (** prepared module plans (§3.3): module uri -> the function
          registry of the parsed, prolog-loaded, checked module *)
  plan_cache : Plan_cache.t;
      (** compiled plans for ad-hoc [query] sources, keyed on canonical
          query text — repeats skip parse + prolog + static check *)
  result_cache : Result_cache.t;
      (** memoized answers for read-only remote calls, pinned to the
          per-document version vector; invalidated by commits *)
  idem_cache : string Lru.t;
      (** exactly-once semantics over an at-least-once transport: the
          serialized response of every request that carried an [idemKey].
          A replay with a known key is answered from here without
          re-executing (rule R_Fu applies pending update lists per
          request); an evicted key falls back to at-least-once.  Faults
          are not cached: a failed request had no effects, so re-executing
          it on retry is safe and the only way a transient error heals. *)
  isolation : Isolation.t;
  mutable transport : Outbound.t option;
      (** every message this peer originates goes through it *)
  mutable executor : Executor.t;
      (** drives the 2PC prepare/decision broadcasts of distributed
          commits; sequential by default so Simnet chaos runs replay
          deterministically *)
  mutable config : config;
  mutable requests_handled : int;
  mutable calls_handled : int;
  internals : internals;
}

let create ?(config = default_config) ?(clock = Unix.gettimeofday) uri =
  let peer =
  {
    uri;
    db = Database.create ~clock ();
    func_cache = Lru.create ~capacity:64 "peer.func_cache";
    plan_cache = Plan_cache.create ();
    result_cache = Result_cache.create ();
    idem_cache = Lru.create ~capacity:config.idem_capacity "peer.idem_cache";
    isolation = Isolation.create ~clock ();
    transport = None;
    executor = Executor.sequential;
    config;
    requests_handled = 0;
    calls_handled = 0;
    internals =
      {
        modules = Hashtbl.create 8;
        locations = Hashtbl.create 8;
        tx_decisions = Hashtbl.create 8;
        clock;
        lock = Mutex.create ();
        locked_by = None;
        shard_map = None;
        shard_route = None;
      };
  }
  in
  (* eager result-cache invalidation: every version bump (committed XQUF
     update, document load, Commit leg of 2PC) evicts exactly the entries
     depending on a touched document.  An aborted 2PC releases its
     isolation entry without committing, so it never fires this hook. *)
  Database.on_commit peer.db (fun touched ->
      ignore (Result_cache.invalidate_docs peer.result_cache touched));
  (* this peer's shard-map version rides in its telemetry snapshot, so
     the cluster view can flag ring-version disagreement across peers *)
  Slo.register_source ~scope:uri ~name:"shard" (fun () ->
      ( Slo.Probe_ok,
        Option.to_list
          (Option.map
             (fun m -> Slo.Shard_version (Shard.version m))
             peer.internals.shard_map) ));
  peer

let set_transport peer transport =
  peer.transport <- Some (Outbound.create ~origin:peer.uri transport)
let set_executor peer executor = peer.executor <- executor

(** Attach (or detach) a shard map: [execute at {"xrpc://shard/<key>"}]
    destinations route to the key's primary member.  Use
    {!set_shard_router} afterwards for a smarter route (replica-aware,
    liveness-filtered — what {!Xrpc_core.Cluster} installs). *)
let set_shard_map peer map =
  peer.internals.shard_map <- map;
  peer.internals.shard_route <-
    Option.map (fun m -> fun key -> Shard.primary m key) map

(** Override the key router while keeping the map for introspection. *)
let set_shard_router peer route = peer.internals.shard_route <- Some route

let shard_map peer = peer.internals.shard_map

(** [:shards] / [/shardz]: a peer's {!shard_map}, or a note that none
    is attached. *)
let shard_text ?keys = function
  | Some m -> Shard.describe ?keys m
  | None -> "no shard map attached (execute at \"xrpc://shard/<key>\" would fail)\n"

let shard_json ?keys = function
  | Some m -> Shard.to_json ?keys m
  | None -> Xrpc_obs.Json.Obj [ ("shard_map", Xrpc_obs.Json.Null) ]

(** Register an XQuery module source under its namespace URI and
    (optionally) an at-hint location, so that both [import module ... at]
    forms and incoming XRPC requests can find it. *)
let register_module peer ~uri ?location source =
  Hashtbl.replace peer.internals.modules uri source;
  (match location with
  | Some loc -> Hashtbl.replace peer.internals.locations loc source
  | None -> ());
  ignore (Lru.remove_if peer.func_cache (fun k _ -> k = uri));
  (* cached results of calls into this module reflect the old code *)
  ignore (Result_cache.invalidate_module peer.result_cache uri);
  (* cached ad-hoc plans may embed functions imported from this module;
     plans carry no import provenance, so clear wholesale — blunt but
     correct, and module re-registration is rare *)
  Lru.clear peer.plan_cache.Plan_cache.lru

let module_resolver peer : Runner.module_resolver =
 fun ~uri ~location ->
  match Hashtbl.find_opt peer.internals.modules uri with
  | Some src -> src
  | None -> (
      match Hashtbl.find_opt peer.internals.locations location with
      | Some src -> src
      | None -> err "could not load module! (%s at %s)" uri location)

(* ------------------------------------------------------------------ *)
(* Dynamic context plumbing                                            *)
(* ------------------------------------------------------------------ *)

(* fn:doc over a pinned database version; xrpc:// URIs are fetched from the
   remote peer — the data-shipping path of §5's Q7 *)
let doc_resolver peer (version : Database.version) uri_str : Store.t =
  let is_remote =
    String.length uri_str >= 7 && String.sub uri_str 0 7 = "xrpc://"
  in
  if not is_remote then Database.doc_exn version uri_str
  else
    let uri = Xrpc_uri.parse uri_str in
    let self_key = Xrpc_uri.peer_key_of_string peer.uri in
    if Xrpc_uri.peer_key uri = self_key then
      Database.doc_exn version uri.Xrpc_uri.path
    else
      match peer.transport with
      | Some out -> Outbound.fetch_document out uri_str
      | None -> err "fn:doc(%s): no transport configured" uri_str

(* dispatcher over the outgoing path; records every destination and
   piggybacked participant into [peers_acc] for 2PC registration *)
let dispatcher peer peers_acc : Xctx.dispatcher =
  let out =
    match peer.transport with
    | Some o -> o
    | None -> err "execute at: no transport configured on %s" peer.uri
  in
  let note dest = if not (List.mem dest !peers_acc) then peers_acc := dest :: !peers_acc in
  let noted dest = function
    | Message.Response r as m ->
        note dest;
        List.iter note r.Message.peers;
        m
    | m -> m
  in
  {
    Xctx.call = (fun ~dest req -> noted dest (Outbound.call out ~dest req));
    call_parallel =
      (fun reqs ->
        List.map2
          (fun (dest, _) m -> noted dest m)
          reqs (Outbound.call_parallel out reqs));
  }

(* fn:doc must be stable within a query (XQuery 1.0 §2.1.2), and caching is
   also what makes data shipping fetch a remote document once, not once per
   iteration *)
let memoized_doc_resolver peer version =
  let cache = Hashtbl.create 4 in
  fun uri ->
    match Hashtbl.find_opt cache uri with
    | Some store -> store
    | None ->
        let store = doc_resolver peer version uri in
        Hashtbl.replace cache uri store;
        store

(* Result-cache dependency tracking: every locally resolved document is
   recorded under its canonical store name with the doc version it was
   read at (the entry's version vector); a document fetched from another
   peer depends on state we cannot version, so it poisons cacheability. *)
let tracking_doc_resolver peer version ~deps ~remote_dep =
  let base = memoized_doc_resolver peer version in
  let self_key = Xrpc_uri.peer_key_of_string peer.uri in
  fun uri_str ->
    let store = base uri_str in
    let local =
      if not (String.length uri_str >= 7 && String.sub uri_str 0 7 = "xrpc://")
      then true
      else Xrpc_uri.peer_key (Xrpc_uri.parse uri_str) = self_key
    in
    if local then
      Hashtbl.replace deps store.Store.uri
        (Database.doc_version version store.Store.uri)
    else remote_dep := true;
    store

(* The env override is read per query (not at startup) so tests and live
   debugging can flip it with [putenv] between runs; a value that names no
   mode (e.g. [auto], or a §5 strategy) is no override. *)
let rpc_mode peer =
  let forced = Sys.getenv_opt "XRPC_FORCE_STRATEGY" in
  match Option.bind forced Xctx.rpc_mode_of_string with
  | Some m -> m
  | None -> peer.config.rpc_mode

let make_context ?deps ?remote_dep peer ~version ~query_id ~peers_acc : Xctx.t =
  let base = Xctx.empty () in
  let resolver =
    match (deps, remote_dep) with
    | Some deps, Some remote_dep ->
        tracking_doc_resolver peer version ~deps ~remote_dep
    | _ -> memoized_doc_resolver peer version
  in
  let dispatcher =
    if peer.transport = None then None
    else
      let d = dispatcher peer peers_acc in
      match remote_dep with
      | None -> Some d
      | Some remote_dep ->
          (* any dispatch — even back to this peer — executes code whose
             document reads are not tracked here, so the result cannot be
             pinned to a version vector *)
          Some
            {
              Xctx.call =
                (fun ~dest req ->
                  remote_dep := true;
                  d.Xctx.call ~dest req);
              call_parallel =
                (fun reqs ->
                  remote_dep := true;
                  d.Xctx.call_parallel reqs);
            }
  in
  let dest_resolver =
    Option.map
      (fun route -> Runner.shard_resolver ~route)
      peer.internals.shard_route
  in
  {
    base with
    Xctx.doc_resolver = resolver;
    dispatcher;
    dest_resolver;
    query_id;
    rpc_mode = rpc_mode peer;
  }

(* ------------------------------------------------------------------ *)
(* Server side: the XRPC request handler                               *)
(* ------------------------------------------------------------------ *)

(* The function registry of module [uri], compiled (parse + prolog +
   static check) on a module-cache miss. *)
let compile_module peer ~uri ~location =
  fst @@ Lru.find_or_add peer.func_cache uri @@ fun () ->
  let source = module_resolver peer ~uri ~location in
  let prog = Xrpc_xquery.Parser.parse_prog source in
  let ctx = Xctx.empty () in
  let ctx = Runner.load_prolog ctx ~resolver:(module_resolver peer) prog in
  Xrpc_xquery.Check.check_prog_exn ctx prog;
  ctx.Xctx.funcs

let handle_request peer (r : Message.request) : Message.t =
  peer.requests_handled <- peer.requests_handled + 1;
  peer.calls_handled <- peer.calls_handled + List.length r.Message.calls;
  Metrics.incr m_requests;
  Metrics.incr_by m_calls (List.length r.Message.calls);
  Log.debug (fun m ->
      m "%s: request %s:%s#%d (%d call%s%s%s)" peer.uri r.Message.module_uri
        r.Message.method_ r.Message.arity
        (List.length r.Message.calls)
        (if List.length r.Message.calls = 1 then "" else "s — Bulk RPC")
        (if r.Message.updating then ", updating" else "")
        (match r.Message.query_id with
        | Some q -> ", queryID " ^ Message.query_id_key q
        | None -> ""));
  (* snapshot selection: pinned per queryID (R'_F), else current (R_F) *)
  let entry =
    match r.Message.query_id with
    | Some qid -> Some (Isolation.pin peer.isolation qid peer.db)
    | None -> None
  in
  let version =
    match entry with
    | Some e -> e.Isolation.snapshot
    | None -> Database.snapshot peer.db
  in
  if r.Message.module_uri = Qname.ns_xrpc && r.Message.method_ = "telemetry"
  then
    (* built-in scrape function: the federation health plane pulls each
       peer's windowed snapshot over the ordinary RPC path, so the scrape
       itself exercises (and is throttled/observed by) the same
       transport, executor and breaker the queries use *)
    let wire = Telemetry.to_wire (Telemetry.local_snapshot ~peer:peer.uri ()) in
    Message.Response
      {
        resp_module = r.Message.module_uri;
        resp_method = r.Message.method_;
        results = List.map (fun _ -> [ Xdm.str wire ]) r.Message.calls;
        cached = false;
        db_version = None;
        peers = [ peer.uri ];
      }
  else if
    r.Message.module_uri = Qname.ns_xrpc && r.Message.method_ = "getDocument"
  then
    (* internal data-shipping handler behind fn:doc("xrpc://...") *)
    let results =
      List.map
        (fun params ->
          match params with
          | [ path_seq ] ->
              let path = Xdm.string_value (Xdm.one_item ~what:"path" path_seq) in
              [ Xdm.Node (Store.root (Database.doc_exn version path)) ]
          | _ -> err "getDocument expects one parameter")
        r.Message.calls
    in
    Message.Response
      {
        resp_module = r.Message.module_uri;
        resp_method = r.Message.method_;
        results;
        cached = false;
        db_version = None;
        peers = [ peer.uri ];
      }
  else
    (* semantic result cache (R_Fr only): a read-only, non-isolated call
       whose caller did not opt out is answerable from a memoized result,
       provided the entry's document-version vector still matches.  A
       queryID-pinned call (R'_Fr) bypasses the cache — its snapshot may
       legitimately diverge from the current version. *)
    let cache_key =
      if
        r.Message.cache_ok
        && (not r.Message.updating)
        && (not r.Message.fragments)
           (* call-by-fragment arguments carry ancestor context beyond
              their serialized value, which the value-based key cannot
              distinguish — never cache them *)
        && r.Message.query_id = None
        && Lru.enabled peer.result_cache.Result_cache.lru
      then
        Some
          (Result_cache.key ~module_uri:r.Message.module_uri
             ~fn:r.Message.method_ ~arity:r.Message.arity
             ~calls:r.Message.calls)
      else None
    in
    match
      match cache_key with
      | Some key ->
          Trace.with_span "peer.cache" @@ fun () ->
          Result_cache.find peer.result_cache ~key
            ~doc_version:(Database.doc_version version)
      | None -> None
    with
    | Some results ->
        Trace.event
          ~detail:(r.Message.module_uri ^ ":" ^ r.Message.method_)
          "result-cache-hit";
        if Trace.recording () then begin
          Trace.add (Profile.op_attr "calls" "cache.result_hit") 1.;
          Trace.add (Profile.op_attr "rows_out" "cache.result_hit")
            (float_of_int (List.length results))
        end;
        Message.Response
          {
            resp_module = r.Message.module_uri;
            resp_method = r.Message.method_;
            results;
            cached = true;
            db_version = Some version.Database.version_no;
            peers = [ peer.uri ];
          }
    | None ->
    let funcs =
      (* covers parse + prolog + static check on a cache miss; ~0 on a hit *)
      Trace.with_span ~detail:r.Message.module_uri "peer.compile" @@ fun () ->
      compile_module peer ~uri:r.Message.module_uri ~location:r.Message.location
    in
    let peers_acc = ref [ peer.uri ] in
    let deps = Hashtbl.create 4 in
    let remote_dep = ref false in
    let ctx =
      make_context ~deps ~remote_dep peer ~version ~query_id:r.Message.query_id
        ~peers_acc
    in
    let ctx = { ctx with Xctx.funcs } in
    let fname =
      Qname.make ~uri:r.Message.module_uri r.Message.method_
    in
    let f =
      match Xctx.find_function ctx fname r.Message.arity with
      | Some f -> f
      | None ->
          err "no function %s#%d in module %s" r.Message.method_
            r.Message.arity r.Message.module_uri
    in
    (* bulk execution: a selection function with a call-dependent key is
       answered with one scan + hash join over all calls (the set-oriented
       opportunity of §1); otherwise the body runs once per call *)
    let results =
      Trace.with_span ~detail:r.Message.method_ "peer.exec" @@ fun () ->
      let joined =
        if f.Xctx.decl.Xrpc_xquery.Ast.fn_updating then None
        else Bulk_opt.hash_join_execute ctx f r.Message.calls
      in
      match joined with
      | Some rs -> rs
      | None ->
          List.map
            (fun params ->
              if List.length params <> r.Message.arity then
                err "call has %d parameters, expected %d" (List.length params)
                  r.Message.arity;
              Xrpc_xquery.Eval.apply_function ctx f params)
            r.Message.calls
    in
    (* updating semantics *)
    let pul = List.rev !(ctx.Xctx.pul) in
    (if pul <> [] then
       Trace.with_span "peer.commit" @@ fun () ->
       match entry with
       | Some e ->
           (* R'_Fu: defer — union into the per-query ∆ collection *)
           e.Isolation.pul <- e.Isolation.pul @ pul
       | None ->
           (* R_Fu: apply the pending update list immediately *)
           Database.commit peer.db pul);
    (* store the result iff the execution was provably a pure function of
       this peer's documents: nothing updated, no remote document fetched,
       no dispatch to any peer (tracked via [remote_dep] and the
       participant accumulator); a Bulk RPC answer only on its key's
       second miss (see {!Result_cache.add}) *)
    (match cache_key with
    | Some key
      when pul = []
           && (not f.Xctx.decl.Xrpc_xquery.Ast.fn_updating)
           && (not !remote_dep)
           && !peers_acc = [ peer.uri ] ->
        Result_cache.add peer.result_cache ~key
          ~deps:(Hashtbl.fold (fun d v acc -> (d, v) :: acc) deps [])
          results
    | _ -> ());
    Message.Response
      {
        resp_module = r.Message.module_uri;
        resp_method = r.Message.method_;
        results = (if r.Message.updating then [] else results);
        cached = false;
        db_version = Some version.Database.version_no;
        peers = !peers_acc;
      }

(* 2PC participant (WS-AtomicTransaction-style, §2.3) *)
let handle_tx peer (op : Message.tx_op) (qid : Message.query_id) : Message.t =
  Log.info (fun m ->
      m "%s: 2PC %s for %s" peer.uri (Message.tx_op_name op)
        (Message.query_id_key qid));
  match op with
  | Message.Prepare -> (
      match Isolation.find peer.isolation qid with
      | None ->
          (* read-only participant: nothing to log, vote yes *)
          Message.Tx_response { ok = true; info = "read-only" }
      | Some e ->
          (* conflict check: another prepared transaction touching the same
             documents forces an abort vote *)
          let mine = Database.touched_docs e.Isolation.pul in
          let conflict =
            Hashtbl.fold
              (fun key other acc ->
                acc
                || key <> Message.query_id_key qid
                   && other.Isolation.prepared
                   && List.exists
                        (fun d ->
                          List.mem d (Database.touched_docs other.Isolation.pul))
                        mine)
              peer.isolation.Isolation.entries false
          in
          if conflict then
            Message.Tx_response { ok = false; info = "conflicting transaction in prepared state" }
          else (
            (* "log(∆) to stable storage": the PUL is retained in the
               isolation entry; mark the vote *)
            e.Isolation.prepared <- true;
            Message.Tx_response { ok = true; info = "prepared" }))
  | Message.Commit -> (
      match Isolation.find peer.isolation qid with
      | None -> Message.Tx_response { ok = true; info = "nothing to commit" }
      | Some e ->
          Database.commit peer.db e.Isolation.pul;
          Isolation.release peer.isolation qid;
          Message.Tx_response { ok = true; info = "committed" })
  | Message.Rollback ->
      (match Isolation.find peer.isolation qid with
      | Some _ -> Isolation.release peer.isolation qid
      | None -> ());
      Message.Tx_response { ok = true; info = "rolled back" }
  | Message.Status -> (
      (* coordinator side of in-doubt recovery: report the logged
         decision; an unknown transaction is presumed aborted *)
      match Hashtbl.find_opt peer.internals.tx_decisions (Message.query_id_key qid) with
      | Some true -> Message.Tx_response { ok = true; info = "committed" }
      | Some false -> Message.Tx_response { ok = false; info = "aborted" }
      | None ->
          Message.Tx_response
            { ok = false; info = "unknown transaction (presumed abort)" })

(** The raw SOAP-over-HTTP handler: body in, body out.  Any error becomes a
    SOAP Fault, which the originating site turns into a run-time error
    (§2.1, "XRPC Error Message"). *)
let with_peer_lock peer f =
  let self = Thread.id (Thread.self ()) in
  if peer.internals.locked_by = Some self then f ()
  else begin
    Mutex.lock peer.internals.lock;
    peer.internals.locked_by <- Some self;
    Fun.protect
      ~finally:(fun () ->
        peer.internals.locked_by <- None;
        Mutex.unlock peer.internals.lock)
      f
  end

(* The reply to one parsed message: a SOAP Fault on failure. *)
let reply_to peer msg =
  let reply =
    try
      match msg with
      | Ok (Message.Request r) -> handle_request peer r
      | Ok (Message.Tx_request (op, qid)) -> handle_tx peer op qid
      | Ok _ -> Message.Fault { fault_code = `Sender; reason = "expected a request" }
      | Error e -> raise e
    with
    | Peer_error m | Xdm.Dynamic_error m | Xrpc_xquery.Eval.Error m
    | Xrpc_xquery.Runner.Module_error m ->
        Message.Fault { fault_code = `Sender; reason = m }
    | Xrpc_error.Error e ->
        (* a served function's own [execute at] dispatch failed: surface
           the typed transport error losslessly (round-trips through
           {!Xrpc_error.of_soap_fault} on the caller's side) *)
        let fault_code, reason = Xrpc_error.to_soap_fault e in
        Message.Fault { fault_code; reason }
    | Isolation.Expired key ->
        Message.Fault
          { fault_code = `Sender; reason = "queryID expired: " ^ key }
    | Isolation.Snapshot_too_old timestamp ->
        Message.Fault
          { fault_code = `Sender; reason = "snapshot too old: " ^ timestamp }
    | Message.Protocol_error m | Xml_parse.Parse_error m ->
        Message.Fault { fault_code = `Sender; reason = "malformed message: " ^ m }
    | Xrpc_xquery.Parser.Syntax_error m | Xrpc_xquery.Lexer.Lex_error m ->
        Message.Fault { fault_code = `Sender; reason = "module syntax error: " ^ m }
    | Xrpc_xquery.Check.Static_error errors ->
        Message.Fault
          {
            fault_code = `Sender;
            reason =
              "static errors: "
              ^ String.concat "; "
                  (List.map Xrpc_xquery.Check.error_to_string errors);
          }
  in
  (match reply with
  | Message.Fault f ->
      Trace.event ~detail:f.Message.reason "fault";
      Log.warn (fun m -> m "%s: fault: %s" peer.uri f.Message.reason)
  | _ -> ());
  reply

(* serverProfile, folded from the request's span slice: the parse time
   (an attribute of the peer.handle root), then the root's phase spans in
   the order they ran.  Only the root's direct children count, so a
   nested in-process peer's own phases never add to this peer's. *)
let phase_spans =
  [ ("peer.cache", "cache"); ("peer.compile", "compile");
    ("peer.exec", "exec"); ("peer.commit", "commit") ]

let server_phases = function
  | [] -> []
  | (root : Trace.span) :: rest ->
      ("parse", Option.value ~default:0. (Trace.attr root "parse_ms"))
      :: List.filter_map
           (fun (s : Trace.span) ->
             match List.assoc_opt s.Trace.name phase_spans with
             | Some phase when s.Trace.parent = Some root.Trace.span_id ->
                 Some (phase, Trace.duration_ms s)
             | _ -> None)
           rest

type served = Cached of string | Reply of Message.t

let handle_raw_into peer ?(pos = 0) ?len (body : string) (out : Buffer.t) :
    unit =
  let len = match len with Some l -> l | None -> String.length body - pos in
  let t0 = Unix.gettimeofday () in
  with_peer_lock peer @@ fun () ->
  let tparse0 = Trace.now_ms () in
  let parsed =
    try Ok (Message.of_string_server ~pos ~len body) with e -> Error e
  in
  let parse_ms = Trace.now_ms () -. tparse0 in
  let msg = Result.map (fun (m, _, _) -> m) parsed in
  let idem_key =
    match msg with
    | Ok (Message.Request { idem_key = Some k; _ }) -> Some k
    | _ -> None
  in
  (* the request's spans are collected whenever someone will read them:
     the caller asked for the phase breakdown (the profile request
     attribute), sent a trace context (a traced distributed query), or
     tracing is on in this process.  The root adopts the caller's
     propagated (trace-id, parent-span), so peer-side work lands in the
     originating query's tree.  Plain traffic pays one test and its wire
     format is unchanged. *)
  let remote, want_phases =
    match parsed with
    | Ok (_, remote, flag) -> (remote, flag || remote <> None || Trace.enabled ())
    | Error _ -> (None, Trace.enabled ())
  in
  let serve () =
    Trace.add "parse_ms" parse_ms;
    (* exactly-once over at-least-once delivery: a request whose idemKey
       we already answered is served from the idempotency cache without
       re-executing (in particular without re-applying R_Fu updates) *)
    match Option.bind idem_key (Lru.find peer.idem_cache) with
    | Some cached ->
        Trace.event "idem-hit";
        Cached cached
    | None -> Reply (reply_to peer msg)
  in
  let run () = try Ok (serve ()) with e -> Error e in
  let served, spans =
    if want_phases then
      Trace.collect ~label:"peer.handle" ~detail:peer.uri ?remote run
    else (Trace.with_span ~detail:peer.uri "peer.handle" run, [])
  in
  (* the phase breakdown rides back on the response element, so the
     calling site's profile can split remote time into phases without
     another round trip; the reply is serialized exactly once, directly
     into the caller's (reused) output buffer — the streaming-serialize
     half of the event-loop server.  Successful replies are remembered
     for retries; a faulted request had no effects, so a retry may
     legitimately re-execute it. *)
  let outcome =
    match served with
    | Error e -> Error e
    | Ok (Cached cached) ->
        Buffer.add_string out cached;
        Ok None
    | Ok (Reply reply) -> (
        let start = Buffer.length out in
        match
          Message.to_buffer
            ?server_profile:(if want_phases then Some (server_phases spans) else None)
            out reply
        with
        | exception e -> Error e
        | () -> (
            match (idem_key, reply) with
            | _, Message.Fault f -> Ok (Some f.Message.reason)
            | Some k, _ ->
                Lru.add peer.idem_cache k
                  (Buffer.sub out start (Buffer.length out - start));
                Ok None
            | None, _ -> Ok None))
  in
  (* the request's one exit: one clock read for its duration, one
     completion record for the metrics, SLO and flight-recorder views.
     The SLO endpoint is the function or 2PC op served; the label adds
     the arity and call count. *)
  let endpoint, label =
    match msg with
    | Ok (Message.Request r) ->
        let n = List.length r.Message.calls in
        ( r.Message.module_uri ^ ":" ^ r.Message.method_,
          Printf.sprintf "%s:%s#%d (%d call%s)" r.Message.module_uri
            r.Message.method_ r.Message.arity n
            (if n = 1 then "" else "s") )
    | Ok (Message.Tx_request (op, qid)) ->
        ( "tx:" ^ Message.tx_op_name op,
          Printf.sprintf "tx:%s %s" (Message.tx_op_name op)
            (Message.query_id_key qid) )
    | Ok _ -> ("malformed", "unexpected message kind")
    | Error e -> ("malformed", "unparseable request: " ^ Printexc.to_string e)
  in
  Flight_recorder.complete ~scope:peer.uri
    {
      Flight_recorder.c_endpoint = endpoint;
      c_label = label;
      c_duration_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      c_error =
        (match outcome with
        | Ok fault -> fault
        | Error e -> Some (Printexc.to_string e));
      c_idem_key = idem_key;
      (* the ring keeps a slice only when tracing is on: holding every
         profiled request's spans would promote them all to the major
         heap *)
      c_spans = (if Trace.enabled () then spans else []);
    };
  match outcome with Ok _ -> () | Error e -> raise e

let handle_raw peer (body : string) : string =
  let out = Buffer.create 1024 in
  handle_raw_into peer body out;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Client side: running queries                                        *)
(* ------------------------------------------------------------------ *)

let fresh_query_id peer ~timeout ~level : Message.query_id =
  {
    Message.host = peer.uri;
    timestamp = Printf.sprintf "%.6f" (peer.internals.clock ());
    timeout;
    level;
  }

type query_result = {
  value : Xdm.sequence;
  participants : string list;  (** remote peers involved *)
  committed : bool;  (** distributed commit outcome (true if read-only) *)
  tx : Two_pc.outcome option;
      (** full 2PC outcome (votes + decision acks) when a distributed
          transaction ran *)
}

(** [query peer source] parses and runs a main-module query at this peer.

    - [execute at] calls go over the peer's transport (Bulk RPC unless
      {!rpc_mode} is [Rpc_singles]).
    - With [declare option xrpc:isolation "repeatable"], a fresh queryID is
      attached to every request and the local snapshot is pinned, giving
      rule R'_Fr / R'_Fu semantics; updating queries then commit with 2PC
      across all participating peers.
    - Without it, rules R_Fr / R_Fu apply: remote updates are applied per
      request, local updates when the query finishes. *)
(* Flight-recorder label for a client-side query: first line, bounded. *)
let query_label source =
  let one_line =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) source
  in
  let trimmed = String.trim one_line in
  if String.length trimmed <= 120 then trimmed
  else String.sub trimmed 0 117 ^ "..."

(* The static (cacheable) half of ad-hoc query compilation: parse, prolog
   pass 1 (imports, functions, options), static check.  Global variable
   binding is prolog pass 2 — database-dependent, re-run per execution by
   {!Runner.bind_globals} — which is what keeps a cached plan coherent
   with a database that changed under it. *)
let compile_static peer (source : string) : Plan_cache.compiled =
  let prog =
    Trace.with_span "client.parse" @@ fun () ->
    Xrpc_xquery.Parser.parse_prog source
  in
  let cctx = Xctx.empty () in
  Runner.load_prolog_static cctx ~resolver:(module_resolver peer) prog;
  Xrpc_xquery.Check.check_prog_exn cctx prog;
  {
    Plan_cache.prog;
    funcs = cctx.Xctx.funcs;
    options = !(cctx.Xctx.options);
    imports = !(cctx.Xctx.imports);
  }

(** The compiled plan for [source], through the plan cache: an
    explain-then-run pair compiles once.  This is what introspection
    surfaces ([:explain]) must use instead of re-parsing. *)
let compiled_plan peer (source : string) : Plan_cache.compiled =
  let compiled, _hit =
    Plan_cache.find_or_compile peer.plan_cache source ~compile:(fun () ->
        compile_static peer source)
  in
  compiled

let run_query peer (source : string) : query_result =
  let compiled, plan_hit =
    Trace.with_span "client.compile" @@ fun () ->
    Plan_cache.find_or_compile peer.plan_cache source ~compile:(fun () ->
        compile_static peer source)
  in
  if plan_hit then begin
    Trace.event ~detail:(query_label source) "plan-cache-hit";
    if Trace.recording () then
      Trace.add (Profile.op_attr "calls" "cache.plan_hit") 1.
  end
  else Trace.event "plan-cache-miss";
  let prog = compiled.Plan_cache.prog in
  let version = Database.snapshot peer.db in
  let peers_acc = ref [] in
  let ctx0 = make_context peer ~version ~query_id:None ~peers_acc in
  let ctx0 = { ctx0 with Xctx.funcs = compiled.Plan_cache.funcs } in
  ctx0.Xctx.options := compiled.Plan_cache.options;
  ctx0.Xctx.imports := compiled.Plan_cache.imports;
  (* a bad timeout fails here, before a global initializer can send *)
  let timeout = Xctx.timeout ctx0 in
  (* prolog pass 2: bind global variables against the current database
     (their initializers may call fn:doc or even [execute at]) *)
  let ctx =
    Trace.with_span "client.bind" @@ fun () -> Runner.bind_globals ctx0 prog
  in
  let isolation_level = Xctx.isolation ctx in
  let query_id =
    match isolation_level with
    | `Repeatable -> Some (fresh_query_id peer ~timeout ~level:Message.Repeatable)
    | `Snapshot -> Some (fresh_query_id peer ~timeout ~level:Message.Snapshot)
    | `None -> None
  in
  let fragments =
    Xctx.option_value ctx (Qname.make ~uri:Qname.ns_xrpc "call-by-fragment")
    = Some "true"
  in
  let ctx = { ctx with Xctx.query_id; fragments } in
  let body =
    match prog.Xrpc_xquery.Ast.body with
    | Some b -> b
    | None -> err "cannot execute a library module"
  in
  let value =
    Trace.with_span "client.exec" @@ fun () -> Xrpc_xquery.Eval.eval ctx body
  in
  let pul = List.rev !(ctx.Xctx.pul) in
  let participants =
    List.filter (fun p -> Xrpc_uri.peer_key_of_string p
                          <> Xrpc_uri.peer_key_of_string peer.uri)
      !peers_acc
  in
  let committed, tx =
    match (query_id, participants) with
    | Some qid, _ :: _ ->
        (* distributed transaction: register participants, 2PC.  The
           decision is logged BEFORE the decision phase so participants
           that miss a Commit/Rollback can recover it via Status. *)
        let transport =
          match peer.transport with
          | Some o -> o
          | None -> err "2PC requires a transport"
        in
        let outcome =
          Two_pc.run_detailed ~transport ~executor:peer.executor
            ~on_decision:(fun committed ->
              Hashtbl.replace peer.internals.tx_decisions (Message.query_id_key qid)
                committed)
            qid participants
        in
        if outcome.Two_pc.committed then
          Trace.with_span "client.commit" (fun () -> Database.commit peer.db pul);
        (outcome.Two_pc.committed, Some outcome)
    | _ ->
        (* local-only (or non-isolated) commit *)
        if pul <> [] then
          Trace.with_span "client.commit" (fun () -> Database.commit peer.db pul);
        (true, None)
  in
  { value; participants; committed; tx }

(* With tracing on, the query runs inside its own collection, so its
   flight-recorder entry holds exactly its own span subtree. *)
let query peer (source : string) : query_result =
  Metrics.incr m_queries;
  let t0 = Unix.gettimeofday () in
  let run () = try Ok (run_query peer source) with e -> Error e in
  let outcome, spans =
    if Trace.enabled () then Trace.collect ~label:"query" ~detail:peer.uri run
    else (Trace.with_span ~detail:peer.uri "query" run, [])
  in
  ignore
    (Flight_recorder.record
       ?error:(Result.fold ~ok:(fun _ -> None)
                 ~error:(fun e -> Some (Printexc.to_string e)) outcome)
       ~label:(query_label source)
       ~duration_ms:((Unix.gettimeofday () -. t0) *. 1000.)
       ~spans ());
  match outcome with Ok r -> r | Error e -> raise e

(** Convenience: result sequence only; raises on failed distributed commit. *)
let query_seq peer source =
  let r = query peer source in
  if not r.committed then err "distributed commit failed";
  r.value

(** In-doubt recovery (presumed abort, §2.3).

    A participant that voted yes in a Prepare but never saw the decision is
    stuck holding a prepared isolation entry.  On reconnect it asks each
    transaction's coordinator — the originating host recorded in the
    queryID — with a [Status] message: committed means apply the logged ∆
    now, anything the coordinator answers definitively (including "unknown
    transaction") means aborted.  A transaction whose coordinator is still
    unreachable stays in doubt for a later pass.

    Returns [(committed, aborted, still_in_doubt)] counts. *)
let resolve_in_doubt peer : int * int * int =
  match peer.transport with
  | None -> (0, 0, 0)
  | Some transport ->
      let prepared =
        Hashtbl.fold
          (fun _ e acc -> if e.Isolation.prepared then e :: acc else acc)
          peer.isolation.Isolation.entries []
      in
      List.fold_left
        (fun (c, a, d) (e : Isolation.entry) ->
          let qid = e.Isolation.query_id in
          let v = Two_pc.status ~transport ~dest:qid.Message.host qid in
          if v.Two_pc.transport_failed then (c, a, d + 1)
          else if v.Two_pc.ok then begin
            Database.commit peer.db e.Isolation.pul;
            Isolation.release peer.isolation qid;
            (c + 1, a, d)
          end
          else begin
            Isolation.release peer.isolation qid;
            (c, a + 1, d)
          end)
        (0, 0, 0) prepared

(* ------------------------------------------------------------------ *)
(* Cache introspection & control                                       *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  plan : Lru.stats;
  result : Lru.stats;
  func : Lru.stats;
  idem : Lru.stats;
  func_hits : int;  (** [func.hits] *)
  func_misses : int;  (** [func.misses] *)
  result_deferred : int;
      (** Bulk RPC result entries not stored on their first miss *)
}

let cache_stats peer =
  let func = Lru.stats peer.func_cache in
  {
    plan = Lru.stats peer.plan_cache.Plan_cache.lru;
    result = Lru.stats peer.result_cache.Result_cache.lru;
    func;
    idem = Lru.stats peer.idem_cache;
    func_hits = func.hits;
    func_misses = func.misses;
    result_deferred = Result_cache.deferred peer.result_cache;
  }

let set_plan_caching peer on = Lru.set_enabled peer.plan_cache.Plan_cache.lru on
let set_result_caching peer on =
  Lru.set_enabled peer.result_cache.Result_cache.lru on

(** Drop every performance cache (plan, result, module).  The idempotency
    cache is deliberately kept: it is a correctness mechanism
    (exactly-once updates), not a performance one. *)
let clear_caches peer =
  Lru.clear peer.plan_cache.Plan_cache.lru;
  Result_cache.clear peer.result_cache;
  Lru.clear peer.func_cache

(* each cache's counters, then the fields only it has *)
let named_caches s =
  [ ("plan_cache", s.plan, []);
    ("result_cache", s.result, [ ("deferred", s.result_deferred) ]);
    ("func_cache", s.func, []); ("idem_cache", s.idem, []) ]

(** Human-readable stats block — what [/cachez] and the shell's [:cache
    stats] print. *)
let cache_stats_text s =
  String.concat "\n"
    (List.map
       (fun (name, (c : Lru.stats), extra) ->
         Printf.sprintf
           "%-13s hits=%d misses=%d stale=%d invalidations=%d evictions=%d \
            size=%d/%d enabled=%b%s"
           (name ^ ":") c.hits c.misses c.stale c.invalidations c.evictions
           c.size c.capacity c.enabled
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) extra)))
       (named_caches s))

(** The same block as a JSON value: [/cachez.json]. *)
let cache_stats_json s =
  let open Xrpc_obs.Json in
  Obj
    (List.map
       (fun (name, (c : Lru.stats), extra) ->
         ( name,
           Obj
             ([ ("hits", Int c.hits); ("misses", Int c.misses);
                ("stale", Int c.stale); ("invalidations", Int c.invalidations);
                ("evictions", Int c.evictions); ("size", Int c.size);
                ("capacity", Int c.capacity); ("enabled", Bool c.enabled) ]
             @ List.map (fun (k, v) -> (k, Int v)) extra) ))
       (named_caches s))
