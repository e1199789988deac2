(* Federation-wide caching benchmark: what do the PR-6 caches buy?

   Two measurements, mirroring the two cache levels:

   1. Plan cache — a compile-heavy ad-hoc query (a prolog of 60 declared
      functions, trivial body) through Peer.query, cold (plan caching
      disabled: parse + prolog + static check every run) vs warm (cached
      plan: straight to global binding + execution).  This is the §3.3
      observation: MonetDB/XQuery charges ~130 ms to module translation,
      and the paper's fix is to never pay compilation on the hot path.
      Target: warm ≥ 5× cold qps.

   2. Result cache — repeated read-only client calls into a 2-peer
      cluster, cold (every request stamped cache="off", the serving peer
      executes each time) vs warm (the peer answers from its semantic
      result cache after the first call).  A profiled warm call checks
      the phase breakdown: "cache" present, "exec" absent — the repeat
      runs zero remote exec phases.

   Writes BENCH_cache.json with `--json`. *)

module Peer = Xrpc_peer.Peer
module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Simnet = Xrpc_net.Simnet
module Filmdb = Xrpc_workloads.Filmdb
module Xdm = Xrpc_xml.Xdm

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let now_ms () = Unix.gettimeofday () *. 1000.

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* queries per second over a fixed-duration run (minimum batch time keeps
   the clock-read error negligible) *)
let qps f =
  ignore (Sys.opaque_identity (f ()));
  let budget_ms = if quick then 100. else 400. in
  let t0 = now_ms () in
  let n = ref 0 in
  while now_ms () -. t0 < budget_ms do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  float_of_int !n /. ((now_ms () -. t0) /. 1000.)

(* ------------------------------------------------------------------ *)
(* 1. Plan cache: compile-heavy ad-hoc query                           *)
(* ------------------------------------------------------------------ *)

(* 60 declared functions make parse + static check dominate; the body
   calls one of them once, so execution is a few µs *)
let compile_heavy_query =
  let b = Buffer.create 4096 in
  for i = 0 to 59 do
    Buffer.add_string b
      (Printf.sprintf
         "declare function local:f%d($x as xs:integer) as xs:integer { $x + \
          %d * 2 - (%d idiv 3) };\n"
         i i i)
  done;
  Buffer.add_string b "local:f7(local:f13(29))";
  Buffer.contents b

let plan_bench () =
  let peer = Peer.create "xrpc://bench.local" in
  let expected = Xdm.to_display (Peer.query_seq peer compile_heavy_query) in
  Peer.set_plan_caching peer false;
  let cold = qps (fun () -> Peer.query_seq peer compile_heavy_query) in
  Peer.set_plan_caching peer true;
  let warm = qps (fun () -> Peer.query_seq peer compile_heavy_query) in
  assert (Xdm.to_display (Peer.query_seq peer compile_heavy_query) = expected);
  let stats = (Peer.cache_stats peer).Peer.plan in
  Printf.printf
    "plan cache:   %8.0f qps cold  %8.0f qps warm  (%.1fx; %d hits %d \
     misses)\n"
    cold warm (warm /. cold) stats.Xrpc_peer.Lru.hits
    stats.Xrpc_peer.Lru.misses;
  (cold, warm)

(* ------------------------------------------------------------------ *)
(* 2. Result cache: repeated read-only remote calls                    *)
(* ------------------------------------------------------------------ *)

let sim = { Simnet.default_config with Simnet.charge_cpu = false }

(* the served function needs real exec work for the skipped phase to be
   visible over the fixed per-request cost (SOAP both ways, transport,
   idempotency bookkeeping) — an aggregation over a generated range
   stands in for a selective scan of a big document *)
let bench_module =
  {|module namespace b = "bench";
declare function b:heavy($n as xs:integer) as xs:integer
{ sum(for $i in 1 to $n return $i * $i - ($i idiv 3)) };|}

let result_bench () =
  let cluster = Cluster.create ~config:sim ~names:[ "x"; "y" ] () in
  Filmdb.install (Cluster.peer cluster "y") ();
  Cluster.register_module_everywhere cluster ~uri:"bench" ~location:"bench.xq"
    bench_module;
  let client = Cluster.client cluster in
  let dest = "xrpc://y" in
  let call ?cache () =
    Client.call client ~dest ?cache ~module_uri:"bench" ~location:"bench.xq"
      ~fn:"heavy"
      [ [ Xdm.int 30000 ] ]
  in
  let baseline = Xdm.to_display (call ~cache:false ()) in
  let cold = qps (fun () -> call ~cache:false ()) in
  let warm = qps (fun () -> call ()) in
  assert (Xdm.to_display (call ()) = baseline);
  (* the warm repeat must run no exec phase at the serving peer *)
  let _, profile =
    Client.call_profiled client ~dest ~module_uri:"bench" ~location:"bench.xq"
      ~fn:"heavy"
      [ [ Xdm.int 30000 ] ]
  in
  let phases =
    List.concat_map
      (fun (_, d) -> List.map fst d.Xrpc_obs.Profile.d_remote)
      (Xrpc_obs.Profile.dests profile)
  in
  let served_from_cache =
    List.mem "cache" phases && not (List.mem "exec" phases)
  in
  let stats = (Peer.cache_stats (Cluster.peer cluster "y")).Peer.result in
  Printf.printf
    "result cache: %8.0f qps cold  %8.0f qps warm  (%.1fx; %d hits %d \
     misses; warm phases [%s])\n"
    cold warm (warm /. cold) stats.Xrpc_peer.Lru.hits
    stats.Xrpc_peer.Lru.misses
    (String.concat ";" phases);
  if not served_from_cache then
    failwith "warm repeat was not served from the result cache";
  (cold, warm)

let () =
  print_endline "Federation-wide caching: cold vs warm qps";
  print_endline "=========================================";
  let plan_cold, plan_warm = plan_bench () in
  let result_cold, result_warm = result_bench () in
  let plan_ratio = plan_warm /. plan_cold in
  let result_ratio = result_warm /. result_cold in
  Printf.printf "plan-cache speedup %.1fx (target >= 5x), result-cache \
                 speedup %.1fx\n"
    plan_ratio result_ratio;
  if json_out then
    write_file "BENCH_cache.json"
      (Printf.sprintf
         "{\n\
         \  \"plan_cache\": { \"cold_qps\": %.0f, \"warm_qps\": %.0f, \
          \"speedup\": %.2f, \"target_speedup\": 5.0 },\n\
         \  \"result_cache\": { \"cold_qps\": %.0f, \"warm_qps\": %.0f, \
          \"speedup\": %.2f, \"warm_repeat_zero_exec_phases\": true }\n\
          }\n"
         plan_cold plan_warm plan_ratio result_cold result_warm result_ratio)
