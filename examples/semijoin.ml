(* Distributed query strategies for Q7 (§5 of the paper).

   persons.xml lives at peer A (a native XRPC peer); auctions.xml lives at
   peer B.  The same join runs four ways: data shipping, predicate
   push-down, execution relocation, and distributed semi-join.  Bulk RPC
   turns the semi-join's per-person probe into a single message. *)

module Cluster = Xrpc_core.Cluster
module Strategies = Xrpc_core.Strategies
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Xmark = Xrpc_workloads.Xmark
module Metrics = Xrpc_obs.Metrics

let () =
  let scale = Xmark.small_scale in
  let cluster = Cluster.create ~names:[ "A"; "B" ] () in
  let a = Cluster.peer cluster "A" and b = Cluster.peer cluster "B" in
  Database.add_doc_xml a.Peer.db "persons.xml"
    (Xmark.persons ~count:scale.Xmark.persons ());
  Database.add_doc_xml b.Peer.db "auctions.xml"
    (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
       ~persons_count:scale.Xmark.persons ());
  let q7 =
    {
      Strategies.local_doc = "persons.xml";
      remote_uri = "xrpc://B";
      remote_doc = "auctions.xml";
      module_ns = "functions_b";
      module_at = "http://example.org/b.xq";
    }
  in
  Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at (Strategies.functions_b q7);
  (* the served-request histogram's sum delta is B's handling time (plus,
     under execution relocation, A's short answers to B's nested calls) *)
  let handled = Metrics.histogram "peer.handle_ms" in

  List.iter
    (fun strategy ->
      Cluster.reset_clock cluster;
      Cluster.reset_stats cluster;
      let b_ms0 = handled.Metrics.sum in
      let query = Strategies.query ~local_uri:"xrpc://A" q7 strategy in
      let t0 = Unix.gettimeofday () in
      let result = Peer.query_seq a query in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let b_ms = handled.Metrics.sum -. b_ms0 in
      let stats = Cluster.stats cluster in
      (* wall time already includes both peers' CPU (in-process); add the
         modeled wire time for the total *)
      let total = wall_ms +. stats.Xrpc_net.Simnet.network_ms in
      Printf.printf
        "%-22s: %2d results, total %6.1f ms (A %6.1f + B %6.1f + wire %5.1f), %2d msgs, %7d bytes shipped\n"
        (Strategies.name strategy)
        (List.length result)
        total
        (wall_ms -. b_ms)
        b_ms
        stats.Xrpc_net.Simnet.network_ms
        stats.Xrpc_net.Simnet.messages
        (stats.Xrpc_net.Simnet.bytes_sent + stats.Xrpc_net.Simnet.bytes_received))
    Strategies.all
