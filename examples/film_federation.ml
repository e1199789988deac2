(* Film federation: Bulk RPC across multiple peers (queries Q2, Q3, Q6).

   Demonstrates:
   - Q2: an XRPC call inside a for-loop becomes ONE Bulk RPC message;
   - Q3: two destination peers, one Bulk RPC to each, dispatched in
     parallel (Figure 1 of the paper);
   - Q6: two call sites in one loop — the out-of-order execution effect;
   - the one-at-a-time mode for comparison (message counts differ). *)

module Cluster = Xrpc_core.Cluster
module Peer = Xrpc_peer.Peer
module Filmdb = Xrpc_workloads.Filmdb

let run_and_report cluster peer label query =
  Cluster.reset_clock cluster;
  Cluster.reset_stats cluster;
  let result = Peer.query_seq peer query in
  Printf.printf "== %s ==\n%s\n  -> %d messages, %.2f simulated ms\n\n" label
    (Xrpc_xml.Xdm.to_display result)
    (Cluster.stats cluster).Xrpc_net.Simnet.messages
    (Cluster.clock_ms cluster)

let () =
  let cluster =
    Cluster.create ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  Filmdb.install (Cluster.peer cluster "y.example.org") ();
  Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;

  run_and_report cluster x "Q2: loop over actors, single destination (one Bulk RPC)"
    (Filmdb.q2 ~dest:"xrpc://y.example.org");
  run_and_report cluster x "Q3: loop over actors x two destinations (one Bulk RPC per peer)"
    (Filmdb.q3 ~dest1:"xrpc://y.example.org" ~dest2:"xrpc://z.example.org");
  run_and_report cluster x "Q6: two call sites, out-of-order bulk execution"
    (Filmdb.q6 ~dest:"xrpc://y.example.org");

  (* same Q2 with Bulk RPC disabled: one message per iteration *)
  x.Peer.config <- { x.Peer.config with Peer.rpc_mode = Xrpc_xquery.Context.Rpc_singles };
  run_and_report cluster x "Q2 again, one-at-a-time RPC (bulk disabled)"
    (Filmdb.q2 ~dest:"xrpc://y.example.org")
