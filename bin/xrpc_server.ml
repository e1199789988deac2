(* xrpc-server: serve a directory of XML documents and XQuery modules as an
   XRPC peer over HTTP.

   Flag parsing only — everything else (event-loop server core, route
   table, data loading, outgoing-client wiring) lives behind the
   Xrpc_core.Xrpc_server façade, so embedders get exactly the server this
   binary runs. *)

module Peer = Xrpc_peer.Peer
module Server = Xrpc_core.Xrpc_server

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let serve verbose port data demo trace slow_ms max_connections workers backlog
    peers =
  setup_logs verbose;
  let cluster_peers =
    match peers with
    | None -> []
    | Some s ->
        List.filter (fun u -> u <> "") (String.split_on_char ',' s)
  in
  let peer = Peer.create (Printf.sprintf "xrpc://127.0.0.1:%d" port) in
  let server =
    Server.create
      ~config:
        (Server.config ~port ~backlog ?max_connections ~workers ~slow_ms ~trace
           ~cluster_peers ())
      peer
  in
  if demo then begin
    Xrpc_workloads.Filmdb.install peer ();
    print_endline "demo film database + films module loaded"
  end;
  Option.iter
    (fun dir ->
      let docs, mods = Server.load_directory server dir in
      Printf.printf "loaded %d documents, %d modules from %s\n%!" docs mods dir)
    data;
  let port = Server.start server in
  Printf.printf "XRPC peer listening on xrpc://127.0.0.1:%d\n%!" port;
  Printf.printf "routes on http://127.0.0.1:%d :\n%!" port;
  List.iter
    (fun (path, doc) -> Printf.printf "  %-16s %s\n%!" path doc)
    (Server.routes server);
  if not trace then
    print_endline "(span trees at /tracez need --trace)";
  (* keep the main thread alive *)
  while true do
    Unix.sleep 3600
  done

open Cmdliner

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log requests and 2PC activity.")

let port =
  Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Listen port.")

let data =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "data" ] ~docv:"DIR"
        ~doc:"Directory of *.xml documents and *.xq modules to serve.")

let demo =
  Arg.(value & flag & info [ "demo" ] ~doc:"Load the paper's film database.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Enable distributed tracing; log a span tree after every request.")

let slow_ms =
  Arg.(
    value
    & opt float 250.
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Requests at least this slow are pinned by the flight recorder \
           (served at /slowz).")

let max_connections =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-connections" ] ~docv:"N"
        ~doc:
          "Reject connections beyond $(docv) open ones with an immediate \
           503 (default: unlimited).")

let workers =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Query-execution worker threads behind the event loop.")

let backlog =
  Arg.(
    value & opt int 128
    & info [ "backlog" ] ~docv:"N" ~doc:"Listen-socket backlog.")

let peers =
  Arg.(
    value
    & opt (some string) None
    & info [ "peers" ] ~docv:"URIS"
        ~doc:
          "Comma-separated federation peers (http://host:port) whose \
           telemetry /clusterz aggregates.")

let cmd =
  let doc = "serve XML documents and XQuery modules as an XRPC peer" in
  Cmd.v
    (Cmd.info "xrpc-server" ~doc)
    Term.(
      const serve $ verbose $ port $ data $ demo $ trace $ slow_ms
      $ max_connections $ workers $ backlog $ peers)

let () = exit (Cmd.eval cmd)
