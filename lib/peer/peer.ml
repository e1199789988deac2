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
    participant list (§2.3). *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Xctx = Xrpc_xquery.Context
module Xast = Xrpc_xquery.Ast
module Runner = Xrpc_xquery.Runner
module Normalize = Xrpc_xquery.Normalize
module Executor = Xrpc_net.Executor
module Xrpc_uri = Xrpc_net.Xrpc_uri
module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile
module Flight_recorder = Xrpc_obs.Flight_recorder

let log_src = Logs.Src.create "xrpc.peer" ~doc:"XRPC peer request handling"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Peer_error = Inbound.Peer_error

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
    idem_capacity = Inbound.default_idem_capacity;
  }

let m_requests = Metrics.counter "peer.requests"
let m_calls = Metrics.counter "peer.calls"
let m_queries = Metrics.counter "peer.queries"

(* a registered module's source and, once a compile has needed it, its
   parse: a module is parsed once per registration, not once per compile *)
type module_entry = { source : string; mutable parsed : Xast.prog option }

(** Peer-private state, hidden behind the interface: module registries,
    the coordinator's decision log, the clock, and the inbound path. *)
type internals = {
  modules : (string, module_entry) Hashtbl.t;  (** module namespace uri -> module *)
  locations : (string, module_entry) Hashtbl.t;  (** at-hint location -> module *)
  tx_decisions : (string, bool) Hashtbl.t;
      (** coordinator decision log (queryID key -> committed) backing the
          Status recovery of in-doubt participants (presumed abort) *)
  clock : unit -> float;
  inbound : Inbound.t;  (** serves every request, one at a time *)
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
  idem_cache : string Lru.t;
      (** the inbound path's idempotency cache (exactly-once over an
          at-least-once transport) *)
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
  let inbound = Inbound.create ~scope:uri ~idem_capacity:config.idem_capacity in
  let peer =
  {
    uri;
    db = Database.create ~clock ();
    func_cache = Lru.create ~capacity:64 "peer.func_cache";
    plan_cache = Plan_cache.create ();
    idem_cache = Inbound.idem_cache inbound;
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
        inbound;
        shard_map = None;
        shard_route = None;
      };
  }
  in
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
  let entry = { source; parsed = None } in
  Hashtbl.replace peer.internals.modules uri entry;
  (match location with
  | Some loc -> Hashtbl.replace peer.internals.locations loc entry
  | None -> ());
  ignore (Lru.remove_if peer.func_cache (fun k _ -> k = uri));
  (* cached ad-hoc plans may embed functions imported from this module;
     plans carry no import provenance, so clear wholesale — blunt but
     correct, and module re-registration is rare *)
  Lru.clear peer.plan_cache.Plan_cache.lru

let module_entry peer ~uri ~location =
  match Hashtbl.find_opt peer.internals.modules uri with
  | Some m -> m
  | None -> (
      match Hashtbl.find_opt peer.internals.locations location with
      | Some m -> m
      | None -> err "could not load module! (%s at %s)" uri location)

let module_resolver peer : Runner.module_resolver =
 fun ~uri ~location -> (module_entry peer ~uri ~location).source

(* Two threads may both parse a module on its first use; either parse is
   the module's, so the race is benign. *)
let module_loader peer : Runner.module_loader =
 fun ~uri ~location ->
  let m = module_entry peer ~uri ~location in
  match m.parsed with
  | Some prog -> prog
  | None ->
      let prog = Xrpc_xquery.Parser.parse_prog m.source in
      m.parsed <- Some prog;
      prog

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

(* The env override is read per query (not at startup) so tests and live
   debugging can flip it with [putenv] between runs; a value that names no
   mode (e.g. [auto], or a §5 strategy) is no override. *)
let rpc_mode peer =
  let forced = Sys.getenv_opt "XRPC_FORCE_STRATEGY" in
  match Option.bind forced Xctx.rpc_mode_of_string with
  | Some m -> m
  | None -> peer.config.rpc_mode

let make_context peer ~version ~query_id ~peers_acc : Xctx.t =
  let base = Xctx.empty () in
  let dispatcher =
    if peer.transport = None then None else Some (dispatcher peer peers_acc)
  in
  let dest_resolver =
    Option.map
      (fun route -> Runner.shard_resolver ~route)
      peer.internals.shard_route
  in
  {
    base with
    Xctx.doc_resolver = memoized_doc_resolver peer version;
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
  let prog = module_loader peer ~uri ~location in
  let ctx = Xctx.empty () in
  let ctx = Runner.load_prolog ctx ~resolver:(module_resolver peer) prog in
  Xrpc_xquery.Check.check_prog_exn ctx prog;
  ctx.Xctx.funcs

(* A request resolved to what it calls, run once the inbound path has
   checked its updCall against [updating] *)
let prepare_request peer (r : Message.request) : Inbound.prepared =
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
    Inbound.read (fun () ->
        let wire =
          Telemetry.to_wire (Telemetry.local_snapshot ~peer:peer.uri ())
        in
        Inbound.response ~peers:[ peer.uri ] r
          (List.map (fun _ -> [ Xdm.str wire ]) r.Message.calls))
  else if Inbound.is_get_document r then
    (* internal data-shipping handler behind fn:doc("xrpc://...") *)
    Inbound.read (fun () -> Inbound.get_document ~self:peer.uri version r)
  else
    let funcs =
      (* covers parse + prolog + static check on a cache miss; ~0 on a hit *)
      Trace.with_span ~detail:r.Message.module_uri "peer.compile" @@ fun () ->
      compile_module peer ~uri:r.Message.module_uri ~location:r.Message.location
    in
    let peers_acc = ref [ peer.uri ] in
    let ctx =
      make_context peer ~version ~query_id:r.Message.query_id ~peers_acc
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
    let updating = f.Xctx.decl.Xrpc_xquery.Ast.fn_updating in
    {
      Inbound.updating;
      run =
        (fun () ->
          (* bulk execution: a selection function with a call-dependent
             key is answered with one index probe per call (the
             set-oriented opportunity of §1); otherwise the body runs
             once per call *)
          let results =
            Trace.with_span ~detail:r.Message.method_ "peer.exec" @@ fun () ->
            let joined =
              if updating then None
              else Bulk_opt.join_execute ctx f r.Message.calls
            in
            match joined with
            | Some rs -> rs
            | None ->
                List.map (Xrpc_xquery.Eval.apply_function ctx f) r.Message.calls
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
          Inbound.Reply
            (Inbound.response ~db_version:version.Database.version_no
               ~peers:!peers_acc r
               (if updating then [] else results)));
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
          (* first committer wins: a document committed to since this
             query pinned its snapshot would lose that commit if the ∆
             built against the snapshot were applied, so vote no *)
          let current = Database.snapshot peer.db in
          let changed =
            List.find_opt
              (fun d ->
                Database.doc_version current d
                <> Database.doc_version e.Isolation.snapshot d)
              mine
          in
          match changed with
          | _ when conflict ->
              Message.Tx_response { ok = false; info = "conflicting transaction in prepared state" }
          | Some d ->
              Message.Tx_response
                { ok = false; info = "document changed since the snapshot: " ^ d }
          | None ->
              (* "log(∆) to stable storage": the PUL is retained in the
                 isolation entry; mark the vote *)
              e.Isolation.prepared <- true;
              Message.Tx_response { ok = true; info = "prepared" })
  | Message.Commit -> (
      match Isolation.find peer.isolation qid with
      | None -> Message.Tx_response { ok = true; info = "nothing to commit" }
      | Some e when not e.Isolation.prepared ->
          (* only a yes vote logged the ∆: a stray or duplicated Commit
             after a no vote (or none) applies nothing *)
          Message.Tx_response { ok = false; info = "not prepared" }
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

(* The native engine behind the inbound path. *)
let answer peer msg ~body:_ ~pos:_ ~len:_ =
  match msg with
  | Message.Request r -> prepare_request peer r
  | Message.Tx_request (op, qid) -> Inbound.read (fun () -> handle_tx peer op qid)
  | _ -> err "expected a request"

let handle_raw_into peer ?pos ?len body out =
  Inbound.serve_into peer.internals.inbound (answer peer) ?pos ?len body out

let handle_raw peer body = Inbound.serve peer.internals.inbound (answer peer) body

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

(* The static (cacheable) half of ad-hoc query compilation after the
   parse: prolog pass 1 (imports, functions, options) and the static
   check, with the lifted literals' variables in scope.  Global variable
   binding is prolog pass 2 — database-dependent, re-run per execution by
   {!Runner.bind_globals} — which is what keeps a cached plan coherent
   with a database that changed under it. *)
let compile_static peer (prog : Xast.prog) ~literals : Plan_cache.compiled =
  let cctx = Normalize.bind_literals (Xctx.empty ()) literals in
  Runner.load_prolog_static cctx ~load:(module_loader peer) prog;
  Xrpc_xquery.Check.check_prog_exn cctx prog;
  {
    Plan_cache.prog;
    funcs = cctx.Xctx.funcs;
    options = !(cctx.Xctx.options);
    imports = !(cctx.Xctx.imports);
  }

(** The compiled plan for [source] and the values of its lifted
    literals, through the plan cache: an explain-then-run pair compiles
    once.  This is what introspection surfaces ([:explain]) must use
    instead of re-parsing. *)
let lifted_plan peer (source : string) : Plan_cache.compiled * string array =
  let compiled, literals, _hit =
    Plan_cache.find_or_compile peer.plan_cache source
      ~compile:(compile_static peer)
  in
  (compiled, literals)

let compiled_plan peer (source : string) : Plan_cache.compiled =
  fst (lifted_plan peer source)

let run_query peer (source : string) : query_result =
  let compiled, literals, plan_hit =
    Trace.with_span "client.compile" @@ fun () ->
    Plan_cache.find_or_compile peer.plan_cache source
      ~compile:(compile_static peer)
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
  let ctx0 =
    Normalize.bind_literals
      { ctx0 with Xctx.funcs = compiled.Plan_cache.funcs }
      literals
  in
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
   flight-recorder entry holds exactly its own span subtree.  A failed
   cast or arithmetic error leaves as the dynamic error it is, its W3C
   code first in the message. *)
let query peer (source : string) : query_result =
  Metrics.incr m_queries;
  let t0 = Unix.gettimeofday () in
  let run () =
    try Ok (run_query peer source) with
    | Xs.Type_error m -> Error (Xdm.Dynamic_error m)
    | e -> Error e
  in
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
}

(* every served call executes: the counters of a cache that never holds
   anything *)
let no_result_cache : Lru.stats =
  { hits = 0; misses = 0; evictions = 0; invalidations = 0; size = 0;
    capacity = 0; enabled = false }

let cache_stats peer =
  let func = Lru.stats peer.func_cache in
  {
    plan = Lru.stats peer.plan_cache.Plan_cache.lru;
    result = no_result_cache;
    func;
    idem = Lru.stats peer.idem_cache;
    func_hits = func.hits;
    func_misses = func.misses;
  }

let set_plan_caching peer on = Lru.set_enabled peer.plan_cache.Plan_cache.lru on

(** Drop every performance cache (plan, module).  The idempotency
    cache is deliberately kept: it is a correctness mechanism
    (exactly-once updates), not a performance one. *)
let clear_caches peer =
  Lru.clear peer.plan_cache.Plan_cache.lru;
  Lru.clear peer.func_cache

let named_caches s =
  [ ("plan_cache", s.plan); ("func_cache", s.func); ("idem_cache", s.idem) ]

(** Human-readable stats block — what [/cachez] and the shell's [:cache
    stats] print. *)
let cache_stats_text s =
  String.concat "\n"
    (List.map
       (fun (name, (c : Lru.stats)) ->
         Printf.sprintf
           "%-11s hits=%d misses=%d invalidations=%d evictions=%d \
            size=%d/%d enabled=%b"
           (name ^ ":") c.hits c.misses c.invalidations c.evictions c.size
           c.capacity c.enabled)
       (named_caches s))

(** The same block as a JSON value: [/cachez.json]. *)
let cache_stats_json s =
  let open Xrpc_obs.Json in
  Obj
    (List.map
       (fun (name, (c : Lru.stats)) ->
         ( name,
           Obj
             [ ("hits", Int c.hits); ("misses", Int c.misses);
               ("invalidations", Int c.invalidations);
               ("evictions", Int c.evictions); ("size", Int c.size);
               ("capacity", Int c.capacity); ("enabled", Bool c.enabled) ] ))
       (named_caches s))
