(* P2P data management with XRPC (§7 future work: "integrating XRPC with
   advanced P2P data structures such as Distributed Hash Tables").

   Eight peers form a consistent-hash ring ({!Xrpc_peer.Shard}): every
   member is hashed onto the ring at 64 virtual points, each record's key
   picks the first member clockwise, and the next distinct member holds a
   replica.  Placement, routing and querying all ride the stock XRPC
   machinery:

   - [Cluster.place_sharded] cuts the collection into per-member slices;
   - a per-key lookup is ordinary XQuery against a {e virtual}
     destination — [execute at {"xrpc://shard/<key>"}] — which the peer's
     shard router resolves to the first live holder at plan time;
   - a whole-ring query scatters one call per member and gathers the
     partial answers with the columnar merge kernels
     ([Cluster.scatter_gather]), deduping replica re-deliveries;
   - writes route the same way and stay atomic across shards via 2PC;
   - a peer joining the ring moves only ~K/N keys ([Shard.moved_keys]).

   Because a key's replica set has two distinct members, killing any
   single peer changes no answer — the gather merge just takes the
   surviving copy. *)

module Cluster = Xrpc_core.Cluster
module Xrpc_client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Shard = Xrpc_peer.Shard
module Shardmod = Xrpc_workloads.Shardmod
module Simnet = Xrpc_net.Simnet
open Xrpc_xml

let n_peers = 8
let peer_name i = Printf.sprintf "p%d.ring" i
let peer_uri i = "xrpc://" ^ peer_name i

let films =
  [
    ("The Rock", "Sean Connery"); ("Goldfinger", "Sean Connery");
    ("Green Card", "Gerard Depardieu"); ("Sound Of Music", "Julie Andrews");
    ("Dr. No", "Sean Connery"); ("Mary Poppins", "Julie Andrews");
    ("Cyrano", "Gerard Depardieu"); ("The Untouchables", "Sean Connery");
  ]

let records =
  List.map
    (fun (t, a) ->
      (t, Printf.sprintf "<film><name>%s</name><actor>%s</actor></film>" t a))
    films

let ring_count cluster =
  List.length
    (Cluster.scatter_gather cluster ~module_uri:Shardmod.module_ns
       ~location:Shardmod.module_at ~fn:"partsByOwner" ())

let () =
  (* build the ring: 8 peers, 2 replicas per key *)
  let names = List.init n_peers peer_name in
  let cluster = Cluster.create ~names () in
  Cluster.register_module_everywhere cluster ~uri:Shardmod.module_ns
    ~location:Shardmod.module_at Shardmod.shard_module;
  let map = Shard.create ~replicas:2 (List.init n_peers peer_uri) in
  Cluster.set_shard_map cluster (Some map);
  Cluster.place_sharded cluster records;
  let coordinator = Cluster.peer cluster (peer_name 0) in

  (* the :shards view of the placement *)
  print_string
    (Peer.shard_text ~keys:(List.map fst records) (Peer.shard_map coordinator));
  List.iter
    (fun (t, _) ->
      Printf.printf "  %-18s -> %s\n" t
        (String.concat ", " (Shard.holders map t)))
    films;

  (* per-key lookups against virtual destinations: the router picks the
     first live holder, so the query text never names a peer *)
  let wanted = [ "The Rock"; "Dr. No"; "Mary Poppins"; "Cyrano" ] in
  Printf.printf "\nrouted lookups (execute at \"xrpc://shard/<key>\"):\n";
  List.iter
    (fun key ->
      let got =
        Xdm.to_display
          (Peer.query_seq coordinator (Shardmod.lookup_query ~key))
      in
      Printf.printf "  %-18s -> %s\n" key got)
    wanted;

  (* whole-ring scatter-gather through the columnar merge kernels *)
  Printf.printf "\nscatter-gather over %d peers: %d films\n" n_peers
    (ring_count cluster);

  (* kill any one peer: the replica masks it *)
  Cluster.crash cluster (peer_name 3);
  Printf.printf "after killing %s:        %d films (replica masks the loss)\n"
    (peer_name 3) (ring_count cluster);
  Cluster.restart cluster (peer_name 3);

  (* atomic cross-shard write: both inserts route through the ring and
     commit (or abort) together under 2PC *)
  let k1, k2 = ("Highlander", "Victor Victoria") in
  let write_query =
    Printf.sprintf
      {|import module namespace sh="shard" at %S;
declare option xrpc:isolation "repeatable";
for $k in (%S, %S)
return execute at {concat("xrpc://shard/", $k)} {sh:put($k, "new film")}|}
      Shardmod.module_at k1 k2
  in
  let r = Peer.query coordinator write_query in
  Printf.printf "\natomic cross-shard insert committed: %b (participants: %s)\n"
    r.Peer.committed
    (String.concat ", " r.Peer.participants);

  (* a ninth peer joins: only ~K/N keys move, and every lookup still
     answers during the new topology *)
  let keys = List.map fst records in
  let before = Shard.assignment map keys in
  Cluster.shard_join cluster "p8.ring";
  let moved =
    Shard.moved_keys
      ~before:(fun k ->
        fst (List.find (fun (_, ks) -> List.mem k ks) before))
      ~after:(fun k -> Shard.primary map k)
      keys
  in
  Printf.printf "\np8.ring joined: %d of %d keys moved (%s)\n"
    (List.length moved) (List.length keys)
    (String.concat ", " moved);
  Printf.printf "scatter-gather over %d peers: %d films\n"
    (List.length (Shard.members map))
    (ring_count cluster);
  List.iter
    (fun key ->
      let got =
        Xdm.to_display
          (Peer.query_seq coordinator (Shardmod.lookup_query ~key))
      in
      Printf.printf "  %-18s -> %s\n" key got)
    wanted
