(* xrpc-shell: run distributed XQuery queries from the command line.

   Reads a query from a file argument (or stdin), runs it against a local
   peer whose database is populated from --data, with `execute at` and
   `doc("xrpc://host:port/...")` going out over real HTTP.  With no query
   it drops into a small REPL (queries terminated by a line with a single
   "." or by EOF). *)

module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile
module Flight_recorder = Xrpc_obs.Flight_recorder
module Cost = Xrpc_core.Cost

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_data peer dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Filename.check_suffix entry ".xml" then
        Database.add_doc_xml peer.Peer.db entry (read_file path)
      else if Filename.check_suffix entry ".xq" then
        let source = read_file path in
        let prog = Xrpc_xquery.Parser.parse_prog source in
        match prog.Xrpc_xquery.Ast.module_decl with
        | Some (_, uri) -> Peer.register_module peer ~uri ~location:entry source
        | None -> ())
    (Sys.readdir dir)

(* After a traced query: the span tree, then a paper-style per-phase cost
   table (§5 of the XRPC paper breaks query time down the same way). *)
let print_trace () =
  print_string (Trace.render ());
  let phases = Trace.phase_summary () in
  if phases <> [] then begin
    print_endline "-- per-phase cost:";
    List.iter
      (fun (name, count, total_ms) ->
        Printf.printf "   %-18s %4dx  %8.3f ms\n" name count total_ms)
      phases
  end;
  Trace.reset ()

let run_query peer source =
  (match Peer.query peer source with
  | { Peer.value; committed; participants; _ } ->
      print_endline (Xrpc_xml.Xdm.to_display value);
      if participants <> [] then
        Printf.printf "-- participants: %s%s\n"
          (String.concat ", " participants)
          (if committed then "" else " (COMMIT FAILED)")
  | exception
      ( Xrpc_xquery.Parser.Syntax_error m
      | Xrpc_xquery.Lexer.Lex_error m
      | Xrpc_xquery.Eval.Error m
      | Xrpc_xml.Xdm.Dynamic_error m
      | Peer.Peer_error m ) ->
      Printf.eprintf "error: %s\n%!" m
  | exception Xrpc_net.Xrpc_error.Error e ->
      Printf.eprintf "error: %s\n%!" (Xrpc_net.Xrpc_error.to_string e));
  if Trace.enabled () then print_trace ()

(* EXPLAIN: what Eval will do with the query (dispatch and span of each
   [execute at] site, its Table-2 estimate, the form of each path step,
   the values of its lifted literals), no execution.  Goes through the
   peer's plan cache — an explain-then-run pair compiles once, and the
   plan shown is the lifted one. *)
let explain_query peer source =
  match Peer.lifted_plan peer source with
  | compiled, literals ->
      print_string
        (Cost.explain_plan ~funcs:compiled.Xrpc_peer.Plan_cache.funcs ~literals
           ~rpc_mode:peer.Peer.config.rpc_mode
           compiled.Xrpc_peer.Plan_cache.prog)
  | exception
      (Xrpc_xquery.Parser.Syntax_error m | Xrpc_xquery.Lexer.Lex_error m) ->
      Printf.eprintf "error: %s\n%!" m

(* PROFILE: run the query with the profiler on and print the annotated
   plan tree (per-node times, per-operator call counts, per-destination
   traffic with the remote phase breakdown). *)
let profile_query peer source =
  let (), prof =
    Profile.profiled ~label:(Peer.query_label source) (fun () ->
        run_query peer source)
  in
  print_string (Profile.render prof)

(* REPL meta-commands, ':'-prefixed like most database shells. *)
let command ~client peer line =
  let line = String.trim line in
  let word, rest =
    match String.index_opt line ' ' with
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
    | None -> (line, "")
  in
  match (word, rest) with
  | ":trace", "on" ->
      Trace.set_enabled true;
      print_endline "tracing on";
      true
  | ":trace", "off" ->
      Trace.set_enabled false;
      Trace.reset ();
      print_endline "tracing off";
      true
  | ":metrics", "" ->
      print_string Metrics.(to_text (snapshot ()));
      true
  | ":metrics", "reset" ->
      Metrics.reset ();
      print_endline "metrics reset";
      true
  | ":health", "" ->
      print_string (Slo.healthz_text (Slo.health ~scope:peer.Peer.uri ()));
      true
  | ":cluster", "" ->
      print_endline "usage: :cluster <http://host:port> [more peers ...]";
      true
  | ":cluster", uris ->
      (* scrape each named peer's built-in telemetry function over HTTP
         and print the merged federation view *)
      let peers = String.split_on_char ' ' uris in
      let now = Trace.now_ms () in
      let scrape dest =
        Telemetry.scrape ~peer:dest ~at_ms:now (fun () ->
            Xrpc_core.Xrpc_client.call client ~dest
              ~module_uri:Xrpc_xml.Qname.ns_xrpc ~fn:"telemetry" []
            |> Xrpc_xml.Xdm.one_item ~what:"telemetry"
            |> Xrpc_xml.Xdm.string_value)
      in
      print_string
        (Telemetry.cluster_text
           (Telemetry.merge ~at_ms:now (List.map scrape peers)));
      true
  | ":flight", "" ->
      print_string Flight_recorder.(to_text (snapshot ()));
      true
  | ":flight", "slow" ->
      print_string Flight_recorder.(pinned_text (snapshot ()));
      true
  | ":explain", "" ->
      print_endline "usage: :explain <one-line query>";
      true
  | ":explain", q ->
      explain_query peer q;
      true
  | ":shards", "" ->
      print_string (Peer.shard_text (Peer.shard_map peer));
      true
  | ":shards", keys ->
      (* :shards k1 k2 … — placement + load ratio for those keys *)
      print_string
        Peer.(shard_text ~keys:(String.split_on_char ' ' keys) (shard_map peer));
      true
  | ":profile", "" ->
      print_endline "usage: :profile <one-line query>";
      true
  | ":profile", q ->
      profile_query peer q;
      true
  | ":cache", ("" | "stats") ->
      print_endline Peer.(cache_stats_text (cache_stats peer));
      true
  | ":cache", "clear" ->
      Peer.clear_caches peer;
      print_endline "caches cleared (plan, module plans)";
      true
  | ":cache", "on" ->
      Peer.set_plan_caching peer true;
      print_endline "plan caching on";
      true
  | ":cache", "off" ->
      Peer.set_plan_caching peer false;
      print_endline "plan caching off";
      true
  | ":cache", _ ->
      print_endline "usage: :cache [stats|clear|on|off]";
      true
  | ":help", _ ->
      print_endline
        ":explain <q>   — each execute-at site's dispatch, span and Table-2 \
         estimate, each path step's form (no execution; cached plan)";
      print_endline
        ":profile <q>   — run with the profiler: per-operator rows/times,";
      print_endline
        "                 per-destination bytes and remote phase costs";
      print_endline ":trace on|off  — print a span tree after each query";
      print_endline
        ":metrics       — dump the metrics registry (totals + 1m/1h windows)";
      print_endline ":metrics reset — zero every counter and histogram";
      print_endline
        ":health        — this peer's SLO state (budgets, burn, p99s)";
      print_endline
        ":cluster <uris> — scrape peers' telemetry, print the merged view";
      print_endline
        ":flight        — recent requests from the flight recorder";
      print_endline ":flight slow   — pinned slow queries";
      print_endline
        ":shards [keys] — shard map: members, replication, key placement";
      print_endline ":cache [stats] — plan/module/idem cache counters";
      print_endline ":cache clear   — drop the performance caches";
      print_endline ":cache on|off  — toggle plan caching";
      true
  | cmd, _ when String.length cmd > 0 && cmd.[0] = ':' ->
      Printf.eprintf "unknown command %s (try :help)\n%!" cmd;
      true
  | _ -> false

let repl ~client peer =
  print_endline
    "XRPC shell — terminate a query with a single '.' line; ctrl-d exits.\n\
     Meta-commands: :explain <q>, :profile <q>, :trace on|off, :metrics \
     [reset], :health, :cluster <uris>, :flight [slow], :shards [keys], \
     :cache [stats|clear|on|off], :help.";
  let buf = Buffer.create 256 in
  let rec loop () =
    (match Buffer.length buf with 0 -> print_string "xquery> " | _ -> print_string "      > ");
    print_string "";
    flush stdout;
    match input_line stdin with
    | "." ->
        if Buffer.length buf > 0 then run_query peer (Buffer.contents buf);
        Buffer.clear buf;
        loop ()
    | line when Buffer.length buf = 0 && command ~client peer line -> loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        loop ()
    | exception End_of_file ->
        if Buffer.length buf > 0 then run_query peer (Buffer.contents buf)
  in
  loop ()

let main verbose data trace query_file =
  setup_logs verbose;
  if trace then Trace.set_enabled true;
  (* the peer URI seeds outgoing idempotency keys (origin/seq); a fixed
     name would make every shell process stamp the same keys, so a second
     process's first call could be answered from a server's idem cache
     with the FIRST process's response *)
  let peer = Peer.create (Printf.sprintf "xrpc://shell-%d.local" (Unix.getpid ())) in
  (* the peer's execute-at calls and :cluster's scrapes share one
     outgoing path, so they draw their keys from one counter *)
  let client =
    Xrpc_core.Xrpc_client.(
      connect_http
        ~config:(config ~executor:Xrpc_net.Executor.unbounded ())
        ~origin:peer.Peer.uri ())
  in
  peer.Peer.transport <- Some (Xrpc_core.Xrpc_client.outbound client);
  Option.iter (load_data peer) data;
  match query_file with
  | Some path -> run_query peer (read_file path)
  | None -> if Unix.isatty Unix.stdin then repl ~client peer
            else run_query peer (In_channel.input_all stdin)

open Cmdliner

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log requests and 2PC activity.")

let data =
  Arg.(
    value
    & opt (some dir) None
    & info [ "d"; "data" ] ~docv:"DIR"
        ~doc:"Directory of *.xml documents and *.xq modules for the local peer.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print a span tree with per-phase timings after each query.")

let query_file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"QUERY.xq" ~doc:"Query file to run (stdin if omitted).")

let cmd =
  let doc = "run (distributed) XQuery queries with XRPC" in
  Cmd.v
    (Cmd.info "xrpc-shell" ~doc)
    Term.(const main $ verbose $ data $ trace $ query_file)

let () = exit (Cmd.eval cmd)
