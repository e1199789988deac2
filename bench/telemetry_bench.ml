(* Telemetry-overhead benchmark: what does the health plane cost on the
   serving hot path?

   Two measurements:

   1. Micro: ns/op for the record primitives on windowed series —
      Metrics.observe / Metrics.incr / Slo.record — with windows on vs
      off (off writes the cumulative totals only; on adds a clock read,
      a mutex, and a few array stores into the preallocated rings).
      Alternating-minimum discipline: interleave off/on rounds and keep
      each mode's minimum, so a GC pause in one round cannot masquerade
      as instrumentation cost.

   2. End-to-end: the in-process SOAP serve path (Peer.handle_raw over
      deterministic Simnet, the same path the event loop's workers run)
      with Metrics.set_windows_enabled off vs on.  On this path "on"
      buys the per-request SLO record (scope+endpoint lookup, latency
      histogram, request/error counters on both tiers) and the
      [peer.handle_ms] histogram's rings.  Reported as the median of
      paired off/on batch ratios — the PR-5 method: each ratio cancels
      that round's ambient load, the median discards the rounds a GC
      major lands in.

   Gate: the end-to-end median overhead must stay under 5% — the alias
   run exits nonzero past the gate.  Writes BENCH_telemetry.json with
   `--json`. *)

module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Cluster = Xrpc_core.Cluster
module Peer = Xrpc_peer.Peer
module Simnet = Xrpc_net.Simnet
module Testmod = Xrpc_workloads.Testmod

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv
let rounds = if quick then 3 else 7

let now_ms () = Unix.gettimeofday () *. 1000.

(* adaptive timer: warm once, then repeat until ~50 ms of samples *)
let time_ns f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = now_ms () in
  let reps = ref 0 in
  while now_ms () -. t0 < 50. && !reps < 2_000_000 do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  (now_ms () -. t0) *. 1e6 /. float_of_int !reps

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* 1. Record-primitive cost                                            *)
(* ------------------------------------------------------------------ *)

let micro_rows () =
  let h = Metrics.histogram ~windowed:true "bench.lat_ms" in
  let c = Metrics.counter ~windowed:true "bench.reqs" in
  let prims =
    [
      ("metrics.observe", fun () -> Metrics.observe h 5.);
      ("metrics.incr", fun () -> Metrics.incr c);
      ( "slo.record",
        fun () ->
          Slo.record ~scope:"bench" ~endpoint:"e" ~dur_ms:5. ~error:false ()
      );
    ]
  in
  List.map
    (fun (name, f) ->
      let off = ref infinity and on = ref infinity in
      for _ = 1 to rounds do
        Metrics.set_windows_enabled false;
        off := Float.min !off (time_ns f);
        Metrics.set_windows_enabled true;
        on := Float.min !on (time_ns f)
      done;
      Metrics.set_windows_enabled true;
      Printf.printf "%-16s %8.1f ns off  %8.1f ns on\n" name !off !on;
      (name, !off, !on))
    prims

(* ------------------------------------------------------------------ *)
(* 2. End-to-end serve path                                            *)
(* ------------------------------------------------------------------ *)

let sim = { Simnet.default_config with Simnet.charge_cpu = false }

(* one loop-lifted Bulk RPC message per query: x ships 10 echoVoid
   applications to y in one request, y's handle_raw parses, executes and
   replies — with telemetry on, y also records the SLO sample *)
let query = Testmod.echo_void_query ~dest:"xrpc://y" ~iterations:10
(* The gate's sample is the same in quick and full runs: a batch of 200
   ~20 us queries lasts ~4 ms, long enough that one GC slice does not
   swing a batch by the gate's 5%, and 21 pairs cost well under a
   second.  Quick runs save time on the micro rows only. *)
let queries = 200
let e2e_rounds = 21

let run_batch x enabled =
  Metrics.set_windows_enabled enabled;
  let t0 = now_ms () in
  for _ = 1 to queries do
    ignore (Peer.query_seq x query)
  done;
  Metrics.set_windows_enabled true;
  (now_ms () -. t0) /. float_of_int queries

let () =
  print_endline "Telemetry overhead: windowed recording off vs on, gate < 5%";
  print_endline "===========================================================";
  let micro = micro_rows () in
  let cluster = Cluster.create ~config:sim ~names:[ "x"; "y" ] () in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  let x = Cluster.peer cluster "x" in
  ignore (Peer.query_seq x query);
  (* warm the plan caches *)
  let pcts = ref [] and off = ref infinity and on = ref infinity in
  for _ = 1 to e2e_rounds do
    let o = run_batch x false in
    let p = run_batch x true in
    off := Float.min !off o;
    on := Float.min !on p;
    pcts := ((p -. o) /. o *. 100.) :: !pcts
  done;
  let off = !off and on = !on in
  let pct = median !pcts in
  Printf.printf
    "end-to-end serve path: %8.4f ms off  %8.4f ms on  (median overhead \
     %+5.2f%%, gate 5%%)\n"
    off on pct;
  if json_out then
    write_file "BENCH_telemetry.json"
      (Printf.sprintf
         "{\n\
         \  \"record_primitives_ns\": {\n%s\n  },\n\
         \  \"end_to_end\": { \"off_ms\": %.4f, \"on_ms\": %.4f, \
          \"overhead_pct\": %.2f },\n\
         \  \"gate_overhead_pct\": 5.0,\n\
         \  \"gate_passed\": %b\n\
          }\n"
         (String.concat ",\n"
            (List.map
               (fun (name, o, n) ->
                 Printf.sprintf "    %S: { \"off\": %.1f, \"on\": %.1f }" name
                   o n)
               micro))
         off on pct (pct < 5.));
  if pct >= 5. then begin
    Printf.printf "FAIL: telemetry overhead %.2f%% >= 5%% gate\n" pct;
    exit 1
  end
