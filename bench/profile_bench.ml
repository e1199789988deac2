(* Profiling-overhead benchmark: what does the query profiler cost?

   End-to-end 2-peer distributed queries, plain vs under Cluster.profiled
   (plan nodes, per-destination byte accounting, and the remote phase
   breakdown riding the serverProfile attribute), reported as the median
   of paired off/on batch ratios — see the comment at [median] below.

   Targets: off within noise of the baseline (the off number IS the
   baseline — profiling off takes the unprofiled code path), on
   around 5% on this worst case (a ~0.2 ms in-process round trip; the
   fixed ~10 µs/query cost disappears against real network latency).
   Writes BENCH_profile.json with `--json`. *)

module Profile = Xrpc_obs.Profile
module Trace = Xrpc_obs.Trace
module Cluster = Xrpc_core.Cluster
module Peer = Xrpc_peer.Peer
module Simnet = Xrpc_net.Simnet
module Testmod = Xrpc_workloads.Testmod

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let now_ms () = Unix.gettimeofday () *. 1000.

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let sim = { Simnet.default_config with Simnet.charge_cpu = false }

let mk_cluster () =
  let cluster = Cluster.create ~config:sim ~names:[ "x"; "y"; "z" ] () in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  cluster

(* tst:payload gives each request real server-side exec work and a
   multi-kB response, like the §3.3 micro-benchmarks: the profiler's
   fixed per-message cost (profile attr on the request, serverProfile attr
   on the reply, byte accounting) is measured against representative
   message handling, not against an empty ping *)
let query =
  {|import module namespace t="test" at "http://x.example.org/test.xq";
for $d in ("xrpc://y", "xrpc://z")
return execute at {$d} {t:payload(100)}|}

(* many small alternating batches beat few large ones: the per-query
   profiling cost is a handful of µs on a ~200 µs query, far below the
   batch-to-batch scheduler/GC jitter, so the minimum needs lots of
   draws to converge for each mode *)
let queries = if quick then 20 else 30
let e2e_rounds = if quick then 3 else 15

(* average ms per query over one batch; [profiled] wraps every query in
   its own Cluster.profiled scope, the worst case (a profile allocated
   and torn down per query) *)
let run_batch cluster x profiled =
  let t0 = now_ms () in
  for _ = 1 to queries do
    if profiled then
      ignore (Cluster.profiled cluster (fun () -> Peer.query_seq x query))
    else ignore (Peer.query_seq x query)
  done;
  (now_ms () -. t0) /. float_of_int queries

(* the overhead is a handful of µs on a ~200 µs query — well inside
   batch-to-batch scheduler/GC jitter, which is also *correlated* within
   a batch, so min-of-batches converges slowly.  Instead each round times
   an off and an on batch back to back on the same warm cluster and
   reports the overhead as the MEDIAN of the per-round ratios: each
   ratio mostly cancels that round's ambient load, and the median
   discards the rounds a GC major or scheduler blip lands in. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let () =
  print_endline "Profiling overhead: off must match the baseline, on < 5%";
  print_endline "========================================================";
  let e2e_cluster = mk_cluster () in
  let e2e_x = Cluster.peer e2e_cluster "x" in
  ignore (Peer.query_seq e2e_x query);
  (* warm the function caches *)
  let pcts = ref [] and e2e_off = ref infinity and e2e_on = ref infinity in
  for _ = 1 to e2e_rounds do
    let o = run_batch e2e_cluster e2e_x false in
    let p = run_batch e2e_cluster e2e_x true in
    e2e_off := Float.min !e2e_off o;
    e2e_on := Float.min !e2e_on p;
    pcts := ((p -. o) /. o *. 100.) :: !pcts
  done;
  Trace.use_wall_clock ();
  let e2e_off = !e2e_off and e2e_on = !e2e_on in
  let e2e_pct = median !pcts in
  Printf.printf
    "end-to-end 2-peer query: %8.3f ms off  %8.3f ms on  (median overhead %+5.1f%%)\n"
    e2e_off e2e_on e2e_pct;
  (* one profiled run, rendered — the artifact :profile prints *)
  let cluster = mk_cluster () in
  let x = Cluster.peer cluster "x" in
  ignore (Peer.query_seq x query);
  let _, profile =
    Cluster.profiled cluster ~label:"2-peer ping" (fun () ->
        Peer.query_seq x query)
  in
  Trace.use_wall_clock ();
  Printf.printf "\nprofile of one distributed query over peers y and z:\n%s"
    (Profile.render profile);
  if json_out then
    write_file "BENCH_profile.json"
      (Printf.sprintf
         "{\n\
         \  \"end_to_end\": { \"off_ms\": %.4f, \"on_ms\": %.4f, \"overhead_pct\": %.2f },\n\
         \  \"target_on_overhead_pct\": 5.0,\n\
         \  \"sample_profile\": %s\n\
          }\n"
         e2e_off e2e_on e2e_pct
         (Xrpc_obs.Json.to_string (Profile.to_json profile)))
