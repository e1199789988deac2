(* Sharded-store suite: the consistent-hash ring, replica placement,
   scatter-gather querying, and the shard-vs-single-peer differential
   battery.

   The headline test generates >= 200 random shard topologies (4-16
   peers, 1-3 replicas, both scatter modes, optional single-peer kill)
   and asserts that every sharded query returns exactly what an
   unsharded oracle peer — one database holding the whole collection —
   returns.  The battery is re-seedable:

     SHARD_SEED=<n> dune runtest

   regenerates every case from base seed <n>; a failure message carries
   the base seed, the case index and the case's topology, so any failing
   case replays exactly.

   The chaos section proves the replication claim directly: at 16 peers
   with 2 replicas, killing (or partitioning away) ANY single member
   changes no answer, in either scatter mode.  The error-discipline
   section pins what a failed leg looks like: one typed
   [Xrpc_error.Error] naming the failing destination, never a silently
   partial result. *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Xrpc_client = Xrpc_core.Xrpc_client
module Shard = Xrpc_peer.Shard
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Gather = Xrpc_core.Gather
module Shardmod = Xrpc_workloads.Shardmod
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Executor = Xrpc_net.Executor
module Xrpc_error = Xrpc_net.Xrpc_error

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Ring unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let uris n = List.init n (fun i -> Printf.sprintf "xrpc://s%d" i)
let keys k = List.init k (fun i -> Printf.sprintf "key%d" i)

let test_ring_basics () =
  let m = Shard.create ~replicas:2 (uris 4) in
  check int_ "members" 4 (List.length (Shard.members m));
  check int_ "replicas" 2 (Shard.replicas m);
  List.iter
    (fun key ->
      let rs = Shard.replica_set m key in
      check int_ "replica set size" 2 (List.length rs);
      check bool_ "distinct" true
        (List.length (List.sort_uniq compare rs) = List.length rs);
      check string_ "primary first" (Shard.primary m key) (List.hd rs);
      List.iter
        (fun h -> check bool_ "holder is a member" true
            (List.mem h (Shard.members m)))
        rs)
    (keys 50);
  (* replica count clamps to the member count *)
  let tiny = Shard.create ~replicas:5 (uris 2) in
  check int_ "clamped" 2 (List.length (Shard.replica_set tiny "k"))

let test_ring_deterministic () =
  let a = Shard.create (uris 7) and b = Shard.create (uris 7) in
  List.iter
    (fun key ->
      check string_ ("same primary for " ^ key) (Shard.primary a key)
        (Shard.primary b key))
    (keys 100);
  let hs = List.map Shard.fnv1a (keys 100) in
  check bool_ "hash spreads" true
    (List.length (List.sort_uniq compare hs) > 95)

let test_version_bumps () =
  let m = Shard.create (uris 3) in
  let v0 = Shard.version m in
  Shard.add m "xrpc://joiner";
  check bool_ "add bumps" true (Shard.version m > v0);
  let v1 = Shard.version m in
  Shard.remove m "xrpc://joiner";
  check bool_ "remove bumps" true (Shard.version m > v1);
  Shard.add m "xrpc://s0";
  check int_ "re-adding a member is a no-op" (Shard.version m) (v1 + 1)

let test_describe_surfaces () =
  let m = Shard.create (uris 3) in
  let txt = Shard.describe ~keys:(keys 30) m in
  List.iter
    (fun u ->
      check bool_ (u ^ " listed") true
        (contains txt u))
    (uris 3);
  let js =
    Json_check.parse_ok "shard json" (Xrpc_obs.Json.to_string (Shard.to_json ~keys:(keys 30) m))
  in
  check int_ "json has members" 3
    (List.length Json_check.(items (member "members" js)))

(* ------------------------------------------------------------------ *)
(* Ring properties (QCheck)                                            *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 50) ~name arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count arb (fun x ->
         f x;
         true))

let arb_topology =
  QCheck.make
    ~print:(fun (n, r, seed) ->
      Printf.sprintf "peers=%d replicas=%d seed=%d" n r seed)
    QCheck.Gen.(triple (int_range 3 32) (int_range 1 3) (int_range 0 9999))

(* max/min primary-load over 2000 keys stays within a constant factor:
   the vnode count bounds the arc-length skew of the ring *)
let prop_balance (n, r, seed) =
  let m = Shard.create ~replicas:r (uris n) in
  let ks = List.init 2000 (fun i -> Printf.sprintf "bal%d-%d" seed i) in
  let ratio = Shard.load_ratio m ks in
  if ratio > 6.0 then
    Alcotest.failf "load ratio %.2f > 6.0 at %d peers" ratio n

(* join moves exactly the keys the joiner takes over: a key's primary
   changes iff its new primary IS the joiner (other arcs are untouched),
   and the moved fraction stays near K/(N+1) *)
let prop_join_minimal (n, r, seed) =
  let m = Shard.create ~replicas:r (uris n) in
  let ks = List.init 1000 (fun i -> Printf.sprintf "join%d-%d" seed i) in
  let before = List.map (fun k -> (k, Shard.primary m k)) ks in
  let joiner = "xrpc://joiner" in
  Shard.add m joiner;
  let moved = ref 0 in
  List.iter
    (fun (k, old) ->
      let now = Shard.primary m k in
      if now <> old then begin
        incr moved;
        if now <> joiner then
          Alcotest.failf "key %s moved %s -> %s, not to the joiner" k old now
      end)
    before;
  let expected = 1000 / (n + 1) in
  if !moved > (4 * expected) + 30 then
    Alcotest.failf "join moved %d keys, expected ~%d" !moved expected

(* leave moves exactly the departed member's keys *)
let prop_leave_minimal (n, r, seed) =
  let m = Shard.create ~replicas:r (uris n) in
  let ks = List.init 1000 (fun i -> Printf.sprintf "leave%d-%d" seed i) in
  let before = List.map (fun k -> (k, Shard.primary m k)) ks in
  let victim = List.nth (Shard.members m) (seed mod n) in
  Shard.remove m victim;
  List.iter
    (fun (k, old) ->
      let now = Shard.primary m k in
      if old = victim then begin
        if now = victim then Alcotest.failf "key %s still on removed %s" k victim
      end
      else if now <> old then
        Alcotest.failf "key %s moved %s -> %s though %s left" k old now victim)
    before

(* replica sets: right size, all-distinct, primary-first, members only *)
let prop_replica_sets (n, r, seed) =
  let m = Shard.create ~replicas:r (uris n) in
  List.iter
    (fun k ->
      let rs = Shard.replica_set m k in
      if List.length rs <> min r n then
        Alcotest.failf "replica set size %d, expected %d" (List.length rs)
          (min r n);
      if List.length (List.sort_uniq compare rs) <> List.length rs then
        Alcotest.failf "replica set of %s not distinct" k;
      if List.hd rs <> Shard.primary m k then
        Alcotest.failf "replica set of %s not primary-first" k)
    (List.init 200 (fun i -> Printf.sprintf "rs%d-%d" seed i))

(* ------------------------------------------------------------------ *)
(* Cluster fixture                                                     *)
(* ------------------------------------------------------------------ *)

let member_names n = List.init n (fun i -> Printf.sprintf "s%d" i)
let member_uris n = List.map (fun s -> "xrpc://" ^ s) (member_names n)

let import_prologue =
  Printf.sprintf "import module namespace sh=\"shard\" at %S;\n"
    Shardmod.module_at

(** A ring of [peers] members plus one out-of-ring "oracle" peer holding
    the whole collection in a single database. *)
let make_cluster ?(seed = 0) ?(replicas = 2) ~peers:n ~records:k () =
  let t =
    Cluster.create
      ~faults:{ Simnet.no_faults with Simnet.fault_seed = seed }
      ~names:("oracle" :: member_names n)
      ()
  in
  Cluster.register_module_everywhere t ~uri:Shardmod.module_ns
    ~location:Shardmod.module_at Shardmod.shard_module;
  let map = Shard.create ~replicas (member_uris n) in
  Cluster.set_shard_map t (Some map);
  let records = Shardmod.records k in
  Cluster.place_sharded t records;
  Database.add_doc_xml (Cluster.peer t "oracle").Peer.db "shard.xml"
    (Cluster.oracle_xml t ());
  (t, map, records)

let oracle_answer t =
  Xdm.to_display
    (Peer.query_seq (Cluster.peer t "oracle")
       (import_prologue ^ "sh:allParts()"))

let sharded_answer ?mode t =
  Xdm.to_display
    (Cluster.scatter_gather t ?mode ~module_uri:Shardmod.module_ns
       ~location:Shardmod.module_at ~fn:"partsByOwner" ())

(* the string-value a routed sh:valueOf lookup should return *)
let string_value_of_xml xml =
  let store = Store.shred ~uri:"tmp" (Xml_parse.document xml) in
  Store.string_value { Store.store; pre = 0 }

(* read one attribute off a result element *)
let attr_of ~name item =
  match item with
  | Xdm.Node n ->
      List.find_map
        (fun a ->
          match Store.name a with
          | Some q when q.Qname.local = name -> Some (Store.string_value a)
          | _ -> None)
        (Store.attributes n)
  | _ -> None

(* after a join/leave the rebalance re-stamps every part's @owner with its
   new primary, so topology-change tests rebuild the oracle's copy before
   comparing *)
let reload_oracle t =
  Database.add_doc_xml (Cluster.peer t "oracle").Peer.db "shard.xml"
    (Cluster.oracle_xml t ())

(* ------------------------------------------------------------------ *)
(* Scatter-gather sanity                                               *)
(* ------------------------------------------------------------------ *)

let test_scatter_matches_oracle () =
  let t, _, records = make_cluster ~peers:4 ~records:30 () in
  let oracle = oracle_answer t in
  check bool_ "oracle non-empty" true (String.length oracle > 0);
  check string_ "by-owner matches oracle" oracle
    (sharded_answer ~mode:Xrpc_client.By_owner t);
  check string_ "broadcast matches oracle" oracle
    (sharded_answer ~mode:Xrpc_client.Broadcast t);
  check int_ "all records present" (List.length records)
    (List.length
       (Cluster.scatter_gather t ~module_uri:Shardmod.module_ns
          ~location:Shardmod.module_at ~fn:"partsByOwner" ()))

let test_routed_lookup () =
  let t, _, records = make_cluster ~peers:6 ~records:24 () in
  List.iter
    (fun (key, inner) ->
      let got =
        Xdm.to_display
          (Peer.query_seq (Cluster.peer t "s0") (Shardmod.lookup_query ~key))
      in
      check string_ ("lookup " ^ key) (string_value_of_xml inner) got)
    records

let test_shard_text_surfaces () =
  let t, _, _ = make_cluster ~peers:3 ~records:9 () in
  let map = Peer.shard_map (Cluster.peer t "s0") in
  let txt = Peer.shard_text map in
  List.iter
    (fun u ->
      check bool_ (u ^ " in :shards") true
        (contains txt u))
    (member_uris 3);
  let js =
    Json_check.parse_ok "peer shard json" (Xrpc_obs.Json.to_string (Peer.shard_json map))
  in
  check int_ "json members" 3 (List.length Json_check.(items (member "members" js)));
  (* a peer without a map says so instead of failing *)
  let bare = Peer.create "xrpc://bare" in
  check bool_ "no map note" true
    (contains (Peer.shard_text (Peer.shard_map bare)) "no shard map");
  check string_ "no map json" "{\"shard_map\":null}"
    (Xrpc_obs.Json.to_string (Peer.shard_json (Peer.shard_map bare)))

(* ------------------------------------------------------------------ *)
(* Differential battery: sharded vs oracle, >= 200 seeded cases        *)
(* ------------------------------------------------------------------ *)

let base_seed () =
  match Sys.getenv_opt "SHARD_SEED" with
  | Some s -> int_of_string s
  | None -> 0x5a4d

let battery_cases = 200

let run_case ~base ~case =
  let rng = Random.State.make [| base; case |] in
  let n = 4 + Random.State.int rng 13 in
  let replicas = 1 + Random.State.int rng 3 in
  let k = 10 + Random.State.int rng 51 in
  let mode =
    if Random.State.bool rng then Xrpc_client.By_owner
    else Xrpc_client.Broadcast
  in
  let t, _, records =
    make_cluster ~seed:(base + case) ~replicas ~peers:n ~records:k ()
  in
  let killed =
    if replicas >= 2 && Random.State.int rng 3 = 0 then begin
      let victim = Printf.sprintf "s%d" (Random.State.int rng n) in
      Cluster.crash t victim;
      Some victim
    end
    else None
  in
  let topo =
    Printf.sprintf "peers=%d replicas=%d records=%d mode=%s killed=%s" n
      replicas k
      (match mode with Xrpc_client.By_owner -> "by-owner" | _ -> "broadcast")
      (Option.value killed ~default:"-")
  in
  let oracle = oracle_answer t in
  let sharded = sharded_answer ~mode t in
  if oracle <> sharded then
    Alcotest.failf
      "sharded answer diverges on case %d of base seed %d (%s)\n\
       oracle:  %s\n\
       sharded: %s\n\
       replay the battery with: SHARD_SEED=%d dune runtest" case base topo
      oracle sharded base;
  (* routed per-key lookups from a live peer must hit a live holder *)
  let origin =
    let rec pick () =
      let c = Printf.sprintf "s%d" (Random.State.int rng n) in
      if Some c = killed then pick () else c
    in
    pick ()
  in
  for _ = 1 to 3 do
    let key, inner = List.nth records (Random.State.int rng k) in
    let got =
      Xdm.to_display
        (Peer.query_seq (Cluster.peer t origin) (Shardmod.lookup_query ~key))
    in
    if got <> string_value_of_xml inner then
      Alcotest.failf
        "routed lookup of %s diverges on case %d of base seed %d (%s): got \
         %S, want %S\n\
         replay the battery with: SHARD_SEED=%d dune runtest" key case base
        topo got
        (string_value_of_xml inner)
        base
  done

let test_differential_battery () =
  let base = base_seed () in
  for case = 0 to battery_cases - 1 do
    run_case ~base ~case
  done

(* same base seed, same topologies: the battery itself is replayable *)
let test_battery_deterministic () =
  let base = base_seed () in
  let draw case =
    let rng = Random.State.make [| base; case |] in
    ( 4 + Random.State.int rng 13,
      1 + Random.State.int rng 3,
      10 + Random.State.int rng 51,
      Random.State.bool rng )
  in
  for case = 0 to battery_cases - 1 do
    if draw case <> draw case then
      Alcotest.failf "case %d topology not deterministic" case
  done

(* ------------------------------------------------------------------ *)
(* Chaos: replication masks any single fault at 16 peers               *)
(* ------------------------------------------------------------------ *)

let test_single_kill_masked () =
  let t, _, _ = make_cluster ~peers:16 ~replicas:2 ~records:200 () in
  let baseline = oracle_answer t in
  check string_ "healthy ring matches oracle" baseline (sharded_answer t);
  List.iter
    (fun name ->
      Cluster.crash t name;
      check string_
        ("kill " ^ name ^ ": by-owner answer unchanged")
        baseline
        (sharded_answer ~mode:Xrpc_client.By_owner t);
      check string_
        ("kill " ^ name ^ ": broadcast answer unchanged")
        baseline
        (sharded_answer ~mode:Xrpc_client.Broadcast t);
      Cluster.restart t name)
    (member_names 16)

let test_single_partition_masked () =
  let t, _, _ = make_cluster ~peers:16 ~replicas:2 ~records:200 () in
  let baseline = oracle_answer t in
  List.iter
    (fun name ->
      Cluster.partition t [ name ];
      check bool_ "partitioned member reads down" false (Cluster.alive t name);
      check string_
        ("partition " ^ name ^ ": answer unchanged")
        baseline (sharded_answer t);
      Cluster.heal t)
    (member_names 16)

(* with a single replica a kill MUST surface as an error, not silence:
   the negative control for the masking tests *)
let test_no_replication_no_masking () =
  let t, _, _ = make_cluster ~peers:8 ~replicas:1 ~records:100 () in
  Cluster.crash t "s3";
  (* by-owner failover broadcasts the dead owner's tags, but nobody else
     holds copies: the merged answer must MISS s3's parts, so the healthy
     baseline cannot be reproduced *)
  let healthy = oracle_answer t in
  let crippled = sharded_answer t in
  check bool_ "unreplicated kill loses parts" true (healthy <> crippled)

(* rebalance while a scatter is mid-flight: run the legs one at a time,
   join a peer between two legs, and check nothing is dropped or doubled.
   Broadcast legs ask for {e everything a member holds} ([allParts], no
   owner filter — an owner list snapshotted pre-join would miss parts the
   rebalance re-stamped) and seq-dedup makes the merge insensitive to the
   same part arriving from both its old and new holders. *)
let test_rebalance_during_query () =
  let t, map, records = make_cluster ~peers:6 ~replicas:2 ~records:60 () in
  let legs =
    Xrpc_client.plan_scatter ~mode:Xrpc_client.Broadcast
      ~alive:(Simnet.is_up (Cluster.net t))
      map
  in
  let partials = ref [] in
  List.iteri
    (fun i (dest, _owners) ->
      (* topology changes between legs 2 and 3 *)
      if i = 2 then Cluster.shard_join t "late-joiner";
      let r =
        Xrpc_client.call_scatter (Cluster.client t)
          ~module_uri:Shardmod.module_ns ~location:Shardmod.module_at
          ~fn:"allParts" [ (dest, []) ]
      in
      partials := !partials @ r)
    legs;
  let merged = Gather.merge !partials in
  check int_ "no row dropped or doubled" (List.length records)
    (List.length merged);
  (* every placed key came back exactly once (the rebalance may have
     re-stamped @owner mid-flight, so compare keys, not whole elements) *)
  let keys_of items =
    List.sort compare
      (List.filter_map (fun it -> attr_of ~name:"key" it) items)
  in
  check (Alcotest.list string_) "every key exactly once"
    (List.sort compare (List.map fst records))
    (keys_of merged);
  let seqs = List.filter_map Gather.seq_of merged in
  check int_ "seqs distinct"
    (List.length merged)
    (List.length (List.sort_uniq compare seqs))

(* ------------------------------------------------------------------ *)
(* Error discipline                                                    *)
(* ------------------------------------------------------------------ *)

let test_failed_leg_is_typed_and_total () =
  let t, map, _ = make_cluster ~peers:6 ~replicas:2 ~records:30 () in
  Cluster.crash t "s2";
  (* without the liveness filter, the s2 leg must surface as one typed
     error naming s2 — not as a silently partial merge *)
  match
    Xrpc_client.call_gather (Cluster.client t) ~shard:map
      ~module_uri:Shardmod.module_ns ~location:Shardmod.module_at
      ~fn:"partsByOwner" ()
  with
  | _ -> Alcotest.fail "dead leg did not raise"
  | exception Xrpc_error.Error e ->
      check string_ "error names the failing dest" "xrpc://s2"
        e.Xrpc_error.dest

let test_all_dead_is_unreachable () =
  let t, map, _ = make_cluster ~peers:4 ~replicas:2 ~records:10 () in
  List.iter (fun nm -> Cluster.crash t nm) (member_names 4);
  match
    Xrpc_client.call_gather (Cluster.client t)
      ~alive:(Simnet.is_up (Cluster.net t))
      ~shard:map ~module_uri:Shardmod.module_ns ~location:Shardmod.module_at
      ~fn:"partsByOwner" ()
  with
  | _ -> Alcotest.fail "fully-dead ring did not raise"
  | exception Xrpc_error.Error e ->
      check bool_ "typed unreachable" true
        (e.Xrpc_error.kind = Xrpc_error.Unreachable)

(* pool executor and sequential executor must produce byte-identical
   gathers: the merge consumes legs in plan order, not arrival order *)
let direct_transport ~executor peers =
  let send ~dest body =
    match List.assoc_opt dest peers with
    | Some handler -> handler body
    | None -> Transport.error ~kind:Transport.Unreachable ~dest "no such peer"
  in
  {
    Transport.send;
    send_parallel =
      (fun pairs ->
        Executor.map_list executor (fun (dest, body) -> send ~dest body) pairs);
  }

let test_pool_matches_sequential () =
  let t, map, _ = make_cluster ~peers:8 ~replicas:2 ~records:40 () in
  let peers =
    List.map
      (fun nm -> ("xrpc://" ^ nm, Peer.handle_raw (Cluster.peer t nm)))
      (member_names 8)
  in
  let run executor =
    let client =
      Xrpc_client.connect_transport
        ~config:(Xrpc_client.config ~executor ())
        (direct_transport ~executor peers)
    in
    Xdm.to_display
      (Xrpc_client.call_gather client ~shard:map
         ~module_uri:Shardmod.module_ns ~location:Shardmod.module_at
         ~fn:"partsByOwner" ())
  in
  let seq = run Executor.sequential in
  let pool = Executor.pool 4 in
  let par = run pool in
  Executor.shutdown pool;
  check string_ "sequential == pool" seq par;
  check string_ "and both match the oracle" (oracle_answer t) seq

(* ------------------------------------------------------------------ *)
(* Gather merge unit tests                                             *)
(* ------------------------------------------------------------------ *)

(* a part whose @seq is any text *)
let raw_part ~owner ~seq inner =
  let xml =
    Printf.sprintf "<part owner=\"%s\" seq=\"%s\">%s</part>" owner seq inner
  in
  let store = Store.shred ~uri:"gather-test" (Xml_parse.document xml) in
  match Store.children { Store.store; pre = 0 } with
  | [ n ] -> Xdm.Node n
  | _ -> assert false

let part ~owner ~seq inner = raw_part ~owner ~seq:(string_of_int seq) inner

let test_gather_dedups_and_orders () =
  let a = part ~owner:"x" ~seq:2 "<v>2</v>"
  and b = part ~owner:"y" ~seq:1 "<v>1</v>"
  and c = part ~owner:"x" ~seq:3 "<v>3</v>" in
  (* duplicate seq 2 from a second leg, shuffled leg order *)
  let merged = Gather.merge [ [ c ]; [ a; b ]; [ a ] ] in
  check int_ "dedup" 3 (List.length merged);
  check string_ "seq order"
    (Xdm.to_display [ b; a; c ])
    (Xdm.to_display merged);
  check int_ "seq_of reads the tag" 2
    (Option.get (Gather.seq_of a));
  check bool_ "atomics carry no seq" true
    (Gather.seq_of (Xdm.str "plain") = None)

let test_gather_untagged_items () =
  (* untagged values dedup by content, keep first-appearance order, and
     never collide with tagged parts *)
  let tagged = part ~owner:"x" ~seq:1 "<v>1</v>" in
  let merged =
    Gather.merge
      [ [ Xdm.str "b"; Xdm.str "a" ]; [ Xdm.str "a"; tagged ] ]
  in
  check string_ "content dedup, stable order"
    (Xdm.to_display [ tagged; Xdm.str "b"; Xdm.str "a" ])
    (Xdm.to_display merged);
  (* only a non-negative decimal @seq is a tag: a negative one cannot
     collide with an untagged item, a hex one cannot alias its decimal *)
  let minus3 = raw_part ~owner:"x" ~seq:"-3" "<v>m</v>" in
  let merged =
    Gather.merge [ [ Xdm.str "u1"; Xdm.str "u2"; Xdm.str "u3" ]; [ minus3 ] ]
  in
  check int_ "seq=-3 is a fourth distinct item" 4 (List.length merged);
  check bool_ "seq=-3 is untagged" true (Gather.seq_of minus3 = None);
  let hex = raw_part ~owner:"x" ~seq:"0x10" "<v>h</v>"
  and sixteen = part ~owner:"y" ~seq:16 "<v>d</v>" in
  check bool_ "seq=0x10 is untagged" true (Gather.seq_of hex = None);
  check int_ "seq=0x10 does not dedup against seq=16" 2
    (List.length (Gather.merge [ [ sixteen ]; [ hex ] ]));
  check int_ "an untagged part dedups by content" 1
    (List.length (Gather.merge [ [ hex ]; [ hex ] ]));
  List.iter
    (fun v ->
      check bool_ ("seq=" ^ v ^ " is untagged") true
        (Gather.seq_of (raw_part ~owner:"x" ~seq:v "") = None))
    [ "+5"; "5.0"; "1_0"; ""; "99999999999999999999999" ];
  check (Alcotest.option int_) "surrounding whitespace is trimmed" (Some 7)
    (Gather.seq_of (raw_part ~owner:"x" ~seq:" 7 " ""))

let test_gather_empty () =
  check int_ "no legs" 0 (List.length (Gather.merge []));
  check int_ "empty legs" 0 (List.length (Gather.merge [ []; [] ]))

(* ------------------------------------------------------------------ *)
(* Topology changes through the cluster                                *)
(* ------------------------------------------------------------------ *)

let test_join_leave_rebalance () =
  let t, map, records = make_cluster ~peers:4 ~replicas:2 ~records:50 () in
  let expected = oracle_answer t in
  check string_ "4 peers" expected (sharded_answer t);
  Cluster.shard_join t "s4";
  check int_ "ring grew" 5 (List.length (Shard.members map));
  (* the join re-stamped moved parts' @owner, so refresh the oracle *)
  reload_oracle t;
  let expected_joined = oracle_answer t in
  check bool_ "join reassigned some parts" true (expected <> expected_joined);
  check string_ "after join" expected_joined (sharded_answer t);
  Cluster.shard_leave t "s1";
  check int_ "ring shrank" 4 (List.length (Shard.members map));
  reload_oracle t;
  check string_ "after leave" (oracle_answer t) (sharded_answer t);
  (* the departed member's slice was emptied *)
  let s1_parts =
    Peer.query_seq (Cluster.peer t "s1") (import_prologue ^ "sh:allParts()")
  in
  check int_ "departed slice empty" 0 (List.length s1_parts);
  check int_ "records unchanged" (List.length records)
    (List.length (Cluster.sharded_records t ()))

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "version bumps" `Quick test_version_bumps;
          Alcotest.test_case "describe surfaces" `Quick test_describe_surfaces;
          qcheck_case ~name:"key distribution balanced" arb_topology
            prop_balance;
          qcheck_case ~name:"join remaps minimally" arb_topology
            prop_join_minimal;
          qcheck_case ~name:"leave remaps minimally" arb_topology
            prop_leave_minimal;
          qcheck_case ~name:"replica sets distinct" arb_topology
            prop_replica_sets;
        ] );
      ( "gather",
        [
          Alcotest.test_case "dedups and orders by seq" `Quick
            test_gather_dedups_and_orders;
          Alcotest.test_case "untagged items" `Quick test_gather_untagged_items;
          Alcotest.test_case "empty" `Quick test_gather_empty;
        ] );
      ( "scatter-gather",
        [
          Alcotest.test_case "matches oracle" `Quick test_scatter_matches_oracle;
          Alcotest.test_case "routed lookup" `Quick test_routed_lookup;
          Alcotest.test_case ":shards surfaces" `Quick test_shard_text_surfaces;
          Alcotest.test_case "join/leave rebalance" `Quick
            test_join_leave_rebalance;
        ] );
      ( "differential",
        [
          Alcotest.test_case "200 seeded topologies vs oracle" `Quick
            test_differential_battery;
          Alcotest.test_case "battery determinism" `Quick
            test_battery_deterministic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "any single kill masked (16 peers, N=2)" `Quick
            test_single_kill_masked;
          Alcotest.test_case "any single partition masked" `Quick
            test_single_partition_masked;
          Alcotest.test_case "no replication, no masking" `Quick
            test_no_replication_no_masking;
          Alcotest.test_case "rebalance during query" `Quick
            test_rebalance_during_query;
        ] );
      ( "errors",
        [
          Alcotest.test_case "failed leg raises typed error" `Quick
            test_failed_leg_is_typed_and_total;
          Alcotest.test_case "all-dead ring raises unreachable" `Quick
            test_all_dead_is_unreachable;
          Alcotest.test_case "pool == sequential" `Quick
            test_pool_matches_sequential;
        ] );
    ]
