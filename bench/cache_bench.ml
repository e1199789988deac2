(* Plan-cache benchmark: what does the compiled-plan cache buy?

   A compile-heavy ad-hoc query (a prolog of 60 declared functions,
   trivial body) through Peer.query, cold (plan caching disabled: parse +
   prolog + static check every run) vs warm (cached plan: straight to
   global binding + execution).  This is the §3.3 observation:
   MonetDB/XQuery charges ~130 ms to module translation, and the paper's
   fix is to never pay compilation on the hot path.  Exits nonzero unless
   warm >= 5x cold qps.

   Writes BENCH_cache.json with `--json`. *)

module Peer = Xrpc_peer.Peer
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
(* A compile-heavy ad-hoc query                                       *)
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

let () =
  print_endline "Plan cache: cold vs warm qps";
  print_endline "============================";
  let cold, warm = plan_bench () in
  let ratio = warm /. cold in
  Printf.printf "plan-cache speedup %.1fx (target >= 5x)\n" ratio;
  if json_out then
    write_file "BENCH_cache.json"
      (Printf.sprintf
         "{\n\
         \  \"plan_cache\": { \"cold_qps\": %.0f, \"warm_qps\": %.0f, \
          \"speedup\": %.2f, \"target_speedup\": 5.0 }\n\
          }\n"
         cold warm ratio);
  if ratio < 5. then begin
    prerr_endline "plan-cache speedup below the 5x target";
    exit 1
  end
