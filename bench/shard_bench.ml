(* Scatter-gather benchmark: a distributed semi-join over a sharded
   collection at ring sizes 1 / 4 / 16 / 64.

   The workload is the paper's semi-join shape on sharded data: the
   coordinator ships a key list to every ring member, each member filters
   its own slice ([sh:semiJoin] — parts it owns whose key is in the
   list), and the partial answers come back through the columnar gather
   merge.  The collection's total size is fixed, so a P-member ring gives
   every member ~K/P parts to scan.

   Two numbers per ring size, both on the Simnet virtual clock with
   charge_cpu on (real handler CPU is charged to the modeled clock, plus
   the modeled latency/bandwidth cost of each leg's messages):

   - total work: the sum of all legs' virtual-clock costs — what a
     sequential executor would pay, and what the 1-peer baseline is;
   - modeled makespan: the max over legs plus the measured gather-merge
     time — what a parallel scatter pays when every leg runs
     concurrently on its own peer.

   The speedup column is makespan(1 peer) / makespan(P peers); the
   acceptance bar is 16 peers beating 1 peer.  Writes BENCH_shard.json
   with `--json`. *)

module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Shard = Xrpc_peer.Shard
module Gather = Xrpc_core.Gather
module Simnet = Xrpc_net.Simnet
module Shardmod = Xrpc_workloads.Shardmod
module Xdm = Xrpc_xml.Xdm

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* big enough that scanning the collection dominates the 0.6 ms modeled
   message latency — otherwise every ring size just measures the wire *)
let n_records = if quick then 2048 else 8192
let ring_sizes = if quick then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ]

(* the outer side of the semi-join: every 8th key matches *)
let wanted_keys =
  List.filter_map
    (fun (k, _) ->
      match String.sub k 1 (String.length k - 1) with
      | d when int_of_string d mod 8 = 0 -> Some k
      | _ -> None)
    (Shardmod.records n_records)

let build_ring peers =
  let names = List.init peers (fun i -> Printf.sprintf "s%d" i) in
  let cluster = Cluster.create ~names () in
  Cluster.register_module_everywhere cluster ~uri:Shardmod.module_ns
    ~location:Shardmod.module_at Shardmod.shard_module;
  let map =
    Shard.create ~replicas:1
      (List.map (fun s -> "xrpc://" ^ s) names)
  in
  Cluster.set_shard_map cluster (Some map);
  Cluster.place_sharded cluster (Shardmod.records n_records);
  (cluster, map)

type row = {
  peers : int;
  rows : int;  (** semi-join matches returned *)
  total_ms : float;  (** sum of per-leg virtual-clock cost *)
  makespan_ms : float;  (** max leg + gather merge *)
  merge_ms : float;
  messages : int;
  bytes : int;
}

let run_ring peers =
  let cluster, map = build_ring peers in
  let client = Cluster.client cluster in
  let keys = List.map Xdm.str wanted_keys in
  let legs =
    Client.plan_scatter ~alive:(Simnet.is_up (Cluster.net cluster)) map
  in
  (* each leg separately, so per-leg virtual cost is observable; the
     clock delta includes modeled latency/bandwidth AND the charged
     handler CPU (stats.network_ms alone is wire cost only) *)
  let partials, leg_costs, messages, bytes =
    List.fold_left
      (fun (acc, costs, msgs, byts) (dest, owners) ->
        Cluster.reset_stats cluster;
        let c0 = Cluster.clock_ms cluster in
        let r =
          Client.call_scatter client ~module_uri:Shardmod.module_ns
            ~location:Shardmod.module_at ~fn:"semiJoin"
            [ (dest, [ List.map Xdm.str owners; keys ]) ]
        in
        let s = Cluster.stats cluster in
        ( acc @ r,
          (Cluster.clock_ms cluster -. c0) :: costs,
          msgs + s.Simnet.messages,
          byts + s.Simnet.bytes_sent + s.Simnet.bytes_received ))
      ([], [], 0, 0) legs
  in
  let t0 = Unix.gettimeofday () in
  let merged = Gather.merge partials in
  let merge_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let total_ms = List.fold_left ( +. ) 0. leg_costs in
  let makespan_ms = List.fold_left max 0. leg_costs +. merge_ms in
  if List.length merged <> List.length wanted_keys then
    failwith
      (Printf.sprintf "ring of %d returned %d rows, expected %d" peers
         (List.length merged) (List.length wanted_keys));
  {
    peers;
    rows = List.length merged;
    total_ms;
    makespan_ms;
    merge_ms;
    messages;
    bytes;
  }

let () =
  Printf.printf
    "Sharded semi-join scatter-gather: %d records, %d outer keys\n"
    n_records (List.length wanted_keys);
  Printf.printf "%5s | %6s | %11s | %12s | %10s | %5s %9s | %7s\n" "peers"
    "rows" "total work" "makespan" "merge" "msgs" "bytes" "speedup";
  let rows = List.map run_ring ring_sizes in
  let base =
    match rows with
    | r :: _ -> r.makespan_ms
    | [] -> assert false
  in
  List.iter
    (fun r ->
      Printf.printf
        "%5d | %6d | %9.3fms | %10.3fms | %8.3fms | %5d %9d | %6.2fx\n"
        r.peers r.rows r.total_ms r.makespan_ms r.merge_ms r.messages r.bytes
        (base /. r.makespan_ms))
    rows;
  (* sanity: every ring returns the same matches, and 16 peers must beat
     the single-peer makespan *)
  (match List.find_opt (fun r -> r.peers = 16) rows with
  | Some r16 when r16.makespan_ms >= base ->
      Printf.eprintf
        "FAIL: 16-peer makespan %.3fms did not beat 1 peer (%.3fms)\n"
        r16.makespan_ms base;
      exit 1
  | _ -> ());
  if json_out then begin
    let row_json r =
      Printf.sprintf
        "    \
         {\"peers\":%d,\"rows\":%d,\"total_work_ms\":%.4f,\"makespan_ms\":%.4f,\"merge_ms\":%.4f,\"messages\":%d,\"bytes\":%d,\"speedup_vs_1\":%.4f}"
        r.peers r.rows r.total_ms r.makespan_ms r.merge_ms r.messages r.bytes
        (base /. r.makespan_ms)
    in
    write_file "BENCH_shard.json"
      (Printf.sprintf
         "{\n\
         \  \"workload\": \"distributed semi-join over sharded collection\",\n\
         \  \"records\": %d,\n\
         \  \"outer_keys\": %d,\n\
         \  \"replicas\": 1,\n\
         \  \"rings\": [\n%s\n  ]\n\
          }\n"
         n_records
         (List.length wanted_keys)
         (String.concat ",\n" (List.map row_json rows)))
  end
