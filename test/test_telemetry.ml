(* Telemetry-plane suite: the sliding-window series (bucket rotation on
   the virtual clock, concurrent writers, steady-state allocation), the
   per-endpoint SLO tracker (error budgets, burn rate, probes, the
   ready -> unready -> ready flip under seeded Simnet chaos), the
   snapshot wire format, and the federation aggregation — a 4-peer
   cluster whose /clusterz view must agree with each peer's own
   /healthz, with a killed peer surfacing as unreachable. *)

open Xrpc_xml
module Metrics = Xrpc_obs.Metrics
module Slo = Xrpc_obs.Slo
module Telemetry = Xrpc_obs.Telemetry
module Trace = Xrpc_obs.Trace
module Cluster = Xrpc_core.Cluster
module Xrpc_client = Xrpc_core.Xrpc_client
module Server = Xrpc_core.Xrpc_server
module Peer = Xrpc_peer.Peer
module Shard = Xrpc_peer.Shard
module Simnet = Xrpc_net.Simnet
module Executor = Xrpc_net.Executor
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let float_ = Alcotest.float 1e-9

(* a JSON value as a route serves it, read back strictly *)
let reread v = Json_check.parse_ok "json" (Xrpc_obs.Json.to_string v)
let healthz_json ~scope = reread (Slo.healthz_json (Slo.health ~scope ()))
let state_of ~scope = (Slo.health ~scope ()).Slo.state

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test starts from empty global registries and leaves the clock
   on the wall and windowed recording on. *)
let with_clean f =
  let setup () =
    Trace.use_wall_clock ();
    Metrics.set_windows_enabled true;
    Metrics.reset ();
    Slo.reset ()
  in
  setup ();
  Fun.protect ~finally:setup f

(* windowed reads name their tier *)
let fast = Metrics.Fast
let slow = Metrics.Slow

let fake_clock () =
  let t = ref 0. in
  Trace.set_clock (fun () -> !t);
  t

(* ------------------------------------------------------------------ *)
(* Windowed series: rotation on the virtual clock                      *)
(* ------------------------------------------------------------------ *)

let test_counter_rotation () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  let c = Metrics.counter ~windowed:true "w.rot.ctr" in
  Metrics.incr c;
  Metrics.incr_by c 4;
  check float_ "fast sum at t=0" 5. (Metrics.total ~tier:fast c);
  check float_ "slow sum at t=0" 5. (Metrics.total ~tier:slow c);
  check float_ "rate = sum / window" (5. /. 60.) (Metrics.rate c);
  t := 30_000.;
  Metrics.incr_by c 3;
  check float_ "both fast buckets live" 8. (Metrics.total ~tier:fast c);
  (* one tick past the first bucket's expiry: only the t=30s sample left *)
  t := 61_000.;
  check float_ "t=0 bucket aged out" 3. (Metrics.total ~tier:fast c);
  t := 200_000.;
  check float_ "fast window fully decayed" 0. (Metrics.total ~tier:fast c);
  check float_ "slow window still holds all" 8.
    (Metrics.total ~tier:slow c);
  t := 3_700_000.;
  check float_ "slow window decayed after an hour" 0.
    (Metrics.total ~tier:slow c);
  (* kind clash on a registered name is rejected *)
  match Metrics.gauge "w.rot.ctr" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted"

let test_histogram_quantiles_rotation () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  let h = Metrics.histogram ~windowed:true "w.rot.h" in
  for _ = 1 to 50 do
    Metrics.observe h 10.
  done;
  (* all samples equal: every quantile clamps to the single value *)
  check float_ "p50 of constant samples" 10.
    (Metrics.quantile ~tier:fast h 0.50);
  check float_ "p99 of constant samples" 10.
    (Metrics.quantile ~tier:fast h 0.99);
  t := 30_000.;
  for _ = 1 to 50 do
    Metrics.observe h 1000.
  done;
  (* 50 x 10ms + 50 x 1000ms: p50 sits in the 10ms log-bucket, p99 in
     the 1000ms one — both within one bucket width of the true value *)
  let p50 = Metrics.quantile ~tier:fast h 0.50
  and p99 = Metrics.quantile ~tier:fast h 0.99 in
  check bool_ "p50 near 10ms" true (p50 >= 10. && p50 <= 32.);
  check bool_ "p99 near 1000ms" true (p99 >= 500. && p99 <= 1000.);
  check int_ "fast count merges both buckets" 100 (Metrics.count ~tier:fast h);
  check float_ "mean over both" 505. (Metrics.mean ~tier:fast h);
  check float_ "window max" 1000. (Metrics.max_value ~tier:fast h);
  check float_ "window min" 10. (Metrics.min_value ~tier:fast h);
  (* cross the first batch's expiry: quantiles decay to the survivors *)
  t := 61_500.;
  check int_ "only second batch live" 50 (Metrics.count ~tier:fast h);
  let p50 = Metrics.quantile ~tier:fast h 0.50 in
  check bool_ "p50 follows the survivors" true (p50 >= 500. && p50 <= 1000.);
  (* cross the second batch's expiry: the fast window reads empty *)
  t := 92_000.;
  check int_ "fast window empty" 0 (Metrics.count ~tier:fast h);
  check bool_ "empty window quantile is nan" true
    (Float.is_nan (Metrics.quantile ~tier:fast h 0.99));
  (* the slow tier still remembers the hour *)
  check int_ "slow tier holds all 100" 100 (Metrics.count ~tier:slow h);
  let p99h = Metrics.quantile ~tier:slow h 0.99 in
  check bool_ "slow-tier p99" true (p99h >= 500. && p99h <= 1000.)

let test_gauge_and_rewind () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  let g = Metrics.gauge ~windowed:true "w.rot.g" in
  Metrics.set g 3.;
  Metrics.set g 7.;
  check float_ "gauge last" 7. (g.Metrics.value);
  check float_ "gauge window max" 7. (Metrics.gauge_max g);
  (* clock rewind (a test resetting a virtual clock): samples stamped in
     the "future" read as empty instead of corrupting the window *)
  let h = Metrics.histogram ~windowed:true "w.rot.rewind" in
  t := 120_000.;
  Metrics.observe h 5.;
  check int_ "sample visible at its own time" 1 (Metrics.count ~tier:fast h);
  t := 10_000.;
  check int_ "future sample invisible after rewind" 0
    (Metrics.count ~tier:fast h);
  Metrics.observe h 7.;
  check int_ "writes work after rewind" 1 (Metrics.count ~tier:fast h)

(* ------------------------------------------------------------------ *)
(* Windowed series: concurrency and steady-state allocation            *)
(* ------------------------------------------------------------------ *)

let test_concurrent_observers () =
  with_clean @@ fun () ->
  let _t = fake_clock () in
  let c = Metrics.counter ~windowed:true "w.conc.ctr" in
  let h = Metrics.histogram ~windowed:true "w.conc.h" in
  let worker () =
    for i = 1 to 10_000 do
      Metrics.incr c;
      Metrics.observe h (float_of_int (i land 15))
    done
  in
  let ths = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join ths;
  (* the per-series mutex makes rotation atomic with writes: with the
     clock frozen, not one of the 40k increments may be lost *)
  check float_ "40k increments, none lost" 40_000. (Metrics.total ~tier:fast c);
  check int_ "40k observations" 40_000 (Metrics.count ~tier:fast h);
  check int_ "slow tier agrees" 40_000 (Metrics.count ~tier:slow h);
  check bool_ "quantile defined" true
    (not (Float.is_nan (Metrics.quantile ~tier:fast h 0.5)));
  (* the totals are written under the same lock *)
  check int_ "40k counted in total" 40_000 c.Metrics.count;
  check int_ "40k observed in total" 40_000 h.Metrics.n

let test_steady_state_allocation () =
  with_clean @@ fun () ->
  let _t = fake_clock () in
  let h = Metrics.histogram ~windowed:true "w.alloc.h" in
  let c = Metrics.counter ~windowed:true "w.alloc.c" in
  for _ = 1 to 1_000 do
    Metrics.observe h 5.;
    Metrics.incr c
  done;
  (* steady state: the rings are preallocated, so per-observation cost
     is a few boxed floats at most — no per-sample data structures *)
  let n = 50_000 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to n do
    Metrics.observe h 5.;
    Metrics.incr c
  done;
  let per_op = (Gc.allocated_bytes () -. a0) /. float_of_int n in
  if per_op > 128. then
    Alcotest.failf "windowed record path allocates %.1f bytes/op" per_op

let test_disabled_records_nothing () =
  with_clean @@ fun () ->
  let _t = fake_clock () in
  let c = Metrics.counter ~windowed:true "w.off.ctr" in
  let h = Metrics.histogram ~windowed:true "w.off.h" in
  Metrics.set_windows_enabled false;
  Metrics.incr c;
  Metrics.observe h 5.;
  Slo.record ~scope:"xrpc://off" ~endpoint:"e" ~dur_ms:1. ~error:true ();
  Metrics.set_windows_enabled true;
  check float_ "counter untouched" 0. (Metrics.total ~tier:fast c);
  check int_ "histogram untouched" 0 (Metrics.count ~tier:fast h);
  (* the flag gates the windows only: totals still count *)
  check int_ "counter total kept" 1 c.Metrics.count;
  check int_ "histogram total kept" 1 h.Metrics.n;
  check int_ "no SLO entry created" 0
    (List.length (Slo.endpoints ~scope:"xrpc://off" ()))

let test_export_surfaces () =
  with_clean @@ fun () ->
  let _t = fake_clock () in
  let h = Metrics.histogram ~windowed:true "w.exp.ms" in
  List.iter (Metrics.observe h) [ 1.; 2.; 4. ];
  let snap = Metrics.snapshot () in
  let text = Metrics.to_text snap in
  check bool_ "text has 1m count" true (contains text "w.exp.ms_1m_count 3");
  check bool_ "text has p99" true (contains text "w.exp.ms_1m_p99");
  let json = reread (Metrics.to_json snap) in
  check bool_ "json has series" true (Json_check.has "w.exp.ms" json);
  let series = Json_check.member "w.exp.ms" json in
  check float_ "json has count" 3. Json_check.(num (member "count_1m" series));
  check bool_ "one export has the cumulative half" true
    (contains text "w.exp.ms_count 3");
  (* one object, cumulative half first *)
  check (Alcotest.list string_) "one json object has both halves"
    [ "count"; "sum" ]
    (List.filteri (fun i _ -> i < 2) (Json_check.keys series));
  check float_ "cumulative count" 3. Json_check.(num (member "count" series));
  check float_ "cumulative sum" 7. Json_check.(num (member "sum" series))

(* ------------------------------------------------------------------ *)
(* SLO: budgets, burn, probes                                          *)
(* ------------------------------------------------------------------ *)

let test_slo_budget_and_burn () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  let scope = "xrpc://s" in
  for _ = 1 to 100 do
    Slo.record ~scope ~endpoint:"q" ~dur_ms:5. ~error:false ()
  done;
  (match Slo.endpoints ~scope () with
  | [ h ] ->
      check string_ "ready on clean traffic" "ready"
        (Slo.state_label h.Slo.h_state);
      check float_ "full budget" 1. h.Slo.h_budget;
      check float_ "no burn" 0. h.Slo.h_burn
  | l -> Alcotest.failf "expected 1 endpoint, got %d" (List.length l));
  (* 2 errors against a 1% objective on 102 requests: over budget *)
  for _ = 1 to 2 do
    Slo.record ~scope ~endpoint:"q" ~dur_ms:5. ~error:true ()
  done;
  let { Slo.state = st; reasons; _ } = Slo.health ~scope () in
  check string_ "unready once budget exhausted" "unready" (Slo.state_label st);
  check bool_ "reason names the budget" true
    (List.exists (fun r -> contains r "error budget") reasons);
  (match Slo.endpoints ~scope () with
  | [ h ] -> check bool_ "burn rate above 1" true (h.Slo.h_burn > 1.)
  | _ -> Alcotest.fail "endpoint vanished");
  (* the budget is rolling: an hour later the bad window has decayed *)
  t := 3_700_000.;
  check string_ "budget replenished by decay" "ready"
    (Slo.state_label (state_of ~scope));
  (* latency objective: slow-but-successful traffic degrades, it does
     not drop readiness *)
  for _ = 1 to 15 do
    Slo.record ~scope ~endpoint:"slow" ~dur_ms:500. ~error:false ()
  done;
  let { Slo.state = st; reasons; _ } = Slo.health ~scope () in
  check string_ "degraded on p99 breach" "degraded" (Slo.state_label st);
  check bool_ "reason names p99" true
    (List.exists (fun r -> contains r "p99") reasons);
  (* healthz renderings carry the state *)
  check bool_ "healthz text" true
    (contains (Slo.healthz_text (Slo.health ~scope ())) "ready: degraded");
  check string_ "healthz json" "degraded"
    Json_check.(str (member "state" (healthz_json ~scope)))

let test_slo_probes () =
  with_clean @@ fun () ->
  let mode = ref Slo.Probe_ok in
  Slo.register_source ~scope:"xrpc://p" ~name:"queue" (fun () -> (!mode, []));
  let state scope = Slo.state_label (state_of ~scope) in
  check string_ "probe ok" "ready" (state "xrpc://p");
  mode := Slo.Probe_degraded "queue building";
  check string_ "probe degrades" "degraded" (state "xrpc://p");
  mode := Slo.Probe_unready "queue saturated";
  let { Slo.state = st; reasons; _ } = Slo.health ~scope:"xrpc://p" () in
  check string_ "probe drops readiness" "unready" (Slo.state_label st);
  check bool_ "probe reason is named" true
    (List.exists (fun r -> contains r "queue: queue saturated") reasons);
  (* a process-global probe applies to every scope *)
  mode := Slo.Probe_ok;
  Slo.register_source ~name:"disk" (fun () ->
      (Slo.Probe_degraded "disk 95% full", []));
  check string_ "global probe reaches scoped healthz" "degraded"
    (state "xrpc://p");
  (* a raising probe reads as unready, never as a crash *)
  Slo.register_source ~scope:"xrpc://q" ~name:"boom" (fun () -> failwith "x");
  check string_ "raising probe = unready" "unready" (state "xrpc://q");
  check bool_ "raising probe is named" true
    (List.mem "boom: boom probe raised"
       (Slo.health ~scope:"xrpc://q" ()).Slo.reasons);
  (* scopes are isolated: peer r sees only the global probe *)
  check string_ "other scopes unaffected" "degraded" (state "xrpc://r");
  (* a source's named values join its scope's health, read once with
     the verdict *)
  let reads = ref 0 in
  Slo.register_source ~scope:"xrpc://p" ~name:"ring" (fun () ->
      incr reads;
      (Slo.Probe_ok, [ Slo.Shard_version 4; Slo.Gauge ("g", 1.) ]));
  check bool_ "values reach the scope" true
    ((Slo.health ~scope:"xrpc://p" ()).Slo.values
    = [ Slo.Shard_version 4; Slo.Gauge ("g", 1.) ]);
  check int_ "one read per health" 1 !reads;
  check bool_ "and only that scope" true
    ((Slo.health ~scope:"xrpc://r" ()).Slo.values = [])

(* ------------------------------------------------------------------ *)
(* Snapshot wire format                                                *)
(* ------------------------------------------------------------------ *)

(* a health value with every field set *)
let row ?reason ?(state = Slo.Ready) name =
  { Slo.h_endpoint = name; h_rate = 1.5; h_err_rate = 0.01; h_p50 = 2.;
    h_p95 = 8.; h_p99 = 20.5; h_reqs_1m = 90.; h_budget = 0.75;
    h_burn = 0.5; h_state = state; h_reason = reason }

let snapshot ?(peer = "xrpc://p1") ?(at_ms = 12345.5) ?(state = Slo.Degraded)
    ?(reasons = []) ?(endpoints = []) ?(values = []) () =
  { Telemetry.sn_peer = peer; sn_at_ms = at_ms;
    sn_health = { Slo.state; reasons; endpoints; values } }

(* bit-exact float equality; NaN equals NaN (the wire has one "nan") *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_row (a : Slo.endpoint_health) (b : Slo.endpoint_health) =
  let fs (h : Slo.endpoint_health) =
    [ h.h_rate; h.h_err_rate; h.h_p50; h.h_p95; h.h_p99; h.h_reqs_1m;
      h.h_budget; h.h_burn ]
  in
  a.h_endpoint = b.h_endpoint && List.for_all2 same_float (fs a) (fs b)
  && a.h_state = b.h_state && a.h_reason = b.h_reason

let same_value a b =
  match (a, b) with
  | Slo.Gauge (n, v), Slo.Gauge (n', v') -> n = n' && same_float v v'
  | _ -> a = b

let same_snapshot (a : Telemetry.snapshot) (b : Telemetry.snapshot) =
  let ha = a.sn_health and hb = b.sn_health in
  a.sn_peer = b.sn_peer && same_float a.sn_at_ms b.sn_at_ms
  && ha.state = hb.state && ha.reasons = hb.reasons
  && List.equal same_row ha.endpoints hb.endpoints
  && List.equal same_value ha.values hb.values

let test_wire_roundtrip () =
  with_clean @@ fun () ->
  let sn =
    snapshot
      ~reasons:[ "p99 over\tobjective"; "second\nline" ]
      ~endpoints:
        [ row ~state:Slo.Degraded ~reason:"error budget burning"
            "films:filmsByActor";
          row "b:g" ]
      ~values:
        [ Slo.Gauge ("active", 3.); Slo.Gauge ("lag", 0.25);
          Slo.Shard_version 7; Slo.Breaker ("xrpc://p2", "open") ]
      ()
  in
  let rt = Telemetry.of_wire (Telemetry.to_wire sn) in
  (* tabs/newlines inside values are flattened to spaces, never promoted
     to field or record separators *)
  check
    (Alcotest.list string_)
    "reasons sanitized"
    [ "p99 over objective"; "second line" ]
    rt.Telemetry.sn_health.Slo.reasons;
  check bool_ "every other field crosses" true
    (same_snapshot rt
       { sn with
         Telemetry.sn_health =
           { sn.Telemetry.sn_health with
             Slo.reasons = rt.Telemetry.sn_health.Slo.reasons } });
  (* numbers cross bit-exactly: a wall-clock timestamp in ms (six
     significant digits would be 50 minutes off) and a sum with no short
     decimal *)
  List.iter
    (fun v ->
      let rt = Telemetry.of_wire (Telemetry.to_wire (snapshot ~at_ms:v ())) in
      check bool_ (Printf.sprintf "%h round-trips" v) true
        (same_float v rt.Telemetry.sn_at_ms))
    [ 1792287005162.233; 0.1 +. 0.2; -0.; 5e-324; max_float; infinity;
      neg_infinity; nan ];
  (* nan quantiles survive the round trip as nan, and an unreachable
     pseudo-snapshot is wire-clean too *)
  let u = Telemetry.unreachable ~peer:"xrpc://p3" ~at_ms:1. ~reason:"down" in
  check bool_ "unreachable round-trips" true
    (same_snapshot u (Telemetry.of_wire (Telemetry.to_wire u)));
  (* the named values render where /clusterz always printed them *)
  let cv = Telemetry.merge ~at_ms:1. [ rt; u ] in
  let text = Telemetry.cluster_text cv in
  check bool_ "text: shard map" true
    (contains text "shard map: agreed (xrpc://p1=v7)");
  check bool_ "text: breakers" true (contains text "breakers xrpc://p2:open");
  check bool_ "text: worst state" true (contains text "cluster: unreachable");
  let cz = reread (Telemetry.cluster_json cv) in
  let p1 = List.hd Json_check.(items (member "peers" cz)) in
  check float_ "json: shard_version" 7.
    Json_check.(num (member "shard_version" p1));
  check string_ "json: breakers" "open"
    Json_check.(str (member "xrpc://p2" (member "breakers" p1)));
  check float_ "json: gauges" 0.25
    Json_check.(num (member "lag" (member "gauges" p1)));
  check string_ "json: endpoint rows are /healthz rows" "degraded"
    Json_check.(str (member "state" (List.hd (items (member "endpoints" p1)))))

(* Scrape replies are bytes another peer wrote.  Garbage in a numeric
   field always raises [Malformed]; a flood of reason lines decodes in
   linear time; and a malformed reply shows the peer as unreachable with
   the reason.  Random mutations are the fuzz group's. *)
let test_wire_mutations () =
  with_clean @@ fun () ->
  let seed = 16 in
  let rng = Random.State.make [| seed |] in
  let ep name = { (row name) with Slo.h_p50 = nan; h_p99 = 1e6 } in
  let sn =
    snapshot ~reasons:[ "r" ] ~endpoints:[ ep "a:f"; ep "b:g" ]
      ~values:
        [ Slo.Gauge ("lag", 0.25); Slo.Gauge ("inf", infinity);
          Slo.Shard_version 3; Slo.Breaker ("xrpc://q", "half_open") ]
      ()
  in
  let wire = Telemetry.to_wire sn in
  (* every numeric field, replaced by garbage, is rejected *)
  let lines = String.split_on_char '\n' wire in
  let numeric = function
    | "at" -> [ 1 ] | "gauge" -> [ 2 ] | "shardv" -> [ 1 ]
    | "ep" -> [ 2; 3; 4; 5; 6; 7; 8; 9 ] | _ -> []
  in
  let garbage =
    [| ""; "x"; "1.2.3"; "0x10"; "1_0"; "--1"; "na"; "1e"; "infinity" |]
  in
  List.iteri
    (fun li line ->
      let fields = Array.of_list (String.split_on_char '\t' line) in
      List.iter
        (fun fi ->
          let g = garbage.(Random.State.int rng (Array.length garbage)) in
          let fields = Array.copy fields in
          fields.(fi) <- g;
          let line' = String.concat "\t" (Array.to_list fields) in
          let w =
            String.concat "\n"
              (List.mapi (fun j l -> if j = li then line' else l) lines)
          in
          match Telemetry.of_wire w with
          | exception Telemetry.Malformed _ -> ()
          | _ -> Alcotest.failf "seed %d: %S accepted in %S" seed g line)
        (numeric (List.hd (Array.to_list fields))))
    lines;
  (* an unknown record, an unknown state and a missing state line are
     rejected too *)
  List.iter
    (fun (what, w) ->
      match Telemetry.of_wire w with
      | exception Telemetry.Malformed _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [ ("unknown record", wire ^ "bogus\t1\n");
      ("unknown state", "peer\tp\nat\t1\nstate\tfine\n");
      ("snapshot without a state", "peer\tp\nat\t1\n") ];
  (* 100k reason lines: linear, where appending per line was quadratic *)
  let flood = Buffer.create (100_000 * 10) in
  Buffer.add_string flood wire;
  for i = 1 to 100_000 do
    Buffer.add_string flood (Printf.sprintf "reason\t%d\n" i)
  done;
  let t0 = Unix.gettimeofday () in
  let big = Telemetry.of_wire (Buffer.contents flood) in
  let dt = Unix.gettimeofday () -. t0 in
  let reasons = big.Telemetry.sn_health.Slo.reasons in
  check int_ "every reason kept" 100_001 (List.length reasons);
  check bool_ "reasons in order" true (List.nth reasons 100_000 = "100000");
  if dt > 2. then Alcotest.failf "100k-line decode took %.1f s" dt;
  (* the cluster view shows a peer with a malformed reply as unreachable *)
  let u =
    Telemetry.scrape ~peer:"xrpc://bad" ~at_ms:1. (fun () ->
        "peer\tx\nat\tfast\n")
  in
  check string_ "malformed reply is unreachable" "unreachable"
    (Slo.state_label u.Telemetry.sn_health.Slo.state);
  check bool_ "reason names the decode failure" true
    (List.exists
       (fun r -> contains r "malformed telemetry")
       u.Telemetry.sn_health.Slo.reasons)

(* ------------------------------------------------------------------ *)
(* Snapshot decoder fuzzing                                            *)
(* ------------------------------------------------------------------ *)

(* The seeds: wire forms of snapshots covering every record, an
   unreachable peer, non-finite numbers and reasons with tabs and
   newlines (which [to_wire] flattens). *)
let fuzz_seeds =
  Array.map Telemetry.to_wire
    [| snapshot
         ~reasons:[ "queue: backlog\t(12 jobs)"; "two\nlines" ]
         ~endpoints:
           [ row ~state:Slo.Unready ~reason:"error budget exhausted" "a:f";
             { (row "b:g") with Slo.h_p50 = nan; h_p95 = nan; h_p99 = nan } ]
         ~values:
           [ Slo.Gauge ("lag", 0.25); Slo.Gauge ("big", infinity);
             Slo.Gauge ("neg", neg_infinity); Slo.Shard_version 42;
             Slo.Breaker ("xrpc://q", "half_open") ]
         ();
       Telemetry.unreachable ~peer:"xrpc://d" ~at_ms:1792287005162.233
         ~reason:"Failure(\"connection\trefused\")";
       snapshot ~state:Slo.Ready ~at_ms:(0.1 +. 0.2) ();
       snapshot ~state:Slo.Unready ~reasons:[ "" ]
         ~endpoints:[ row ~reason:"" "" ]
         ~values:[ Slo.Breaker ("", "closed"); Slo.Shard_version 0 ]
         () |]

let prop_mutations =
  Fuzz.prop ~name:"mutated wire decodes or raises Malformed" ~seeds:fuzz_seeds
    ~expected:(function Telemetry.Malformed _ -> true | _ -> false)
    (fun w -> ignore (Telemetry.of_wire w))

let test_truncation_every_byte () =
  Array.iter
    (fun w ->
      for i = 0 to String.length w do
        match Telemetry.of_wire (String.sub w 0 i) with
        | _ | (exception Telemetry.Malformed _) -> ()
        | exception e ->
            Alcotest.failf "truncated at %d: %s escaped" i (Printexc.to_string e)
      done)
    fuzz_seeds

(* Arbitrary snapshots whose strings are already clean (no tab, newline
   or carriage return): the wire must give each one back bit-exactly. *)
let gen_snapshot =
  let open QCheck.Gen in
  let clean_char = map (function '\t' | '\n' | '\r' -> ' ' | c -> c) char in
  let str = string_size ~gen:clean_char (int_bound 12) in
  let num =
    frequency
      [ ( 1,
          oneofl
            [ nan; infinity; neg_infinity; 0.; -0.; 0.1 +. 0.2;
              1792287005162.233; 5e-324; max_float; 1e15; 123456789012345.6 ] );
        (3, map Int64.float_of_bits ui64); (2, float) ]
  in
  let state = oneofl Slo.states in
  let row =
    let* name = str and* fs = list_repeat 8 num and* st = state
    and* reason = opt str in
    match fs with
    | [ rate; err; p50; p95; p99; r1m; budget; burn ] ->
        return
          { Slo.h_endpoint = name; h_rate = rate; h_err_rate = err;
            h_p50 = p50; h_p95 = p95; h_p99 = p99; h_reqs_1m = r1m;
            h_budget = budget; h_burn = burn; h_state = st; h_reason = reason }
    | _ -> assert false
  in
  let value =
    oneof
      [ map2 (fun n v -> Slo.Gauge (n, v)) str num;
        map (fun v -> Slo.Shard_version v) (int_bound max_int);
        map2
          (fun d st -> Slo.Breaker (d, st))
          str (oneofl Telemetry.breaker_states) ]
  in
  let* peer = str and* at_ms = num and* state = state
  and* reasons = list_size (int_bound 4) str
  and* endpoints = list_size (int_bound 4) row
  and* values = list_size (int_bound 6) value in
  return (snapshot ~peer ~at_ms ~state ~reasons ~endpoints ~values ())

let prop_roundtrip =
  QCheck.Test.make ~name:"of_wire inverts to_wire, bit-exact" ~count:2_000
    ~long_factor:10
    (QCheck.make ~print:Telemetry.to_wire gen_snapshot)
    (fun sn -> same_snapshot (Telemetry.of_wire (Telemetry.to_wire sn)) sn)

let qcheck_quick t =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 23 |]) t

(* ------------------------------------------------------------------ *)
(* Executor instrumentation                                            *)
(* ------------------------------------------------------------------ *)

let test_executor_instrumentation () =
  with_clean @@ fun () ->
  let e = Executor.pool 2 in
  Fun.protect ~finally:(fun () -> Executor.shutdown e) @@ fun () ->
  let futs =
    List.init 20 (fun i ->
        Executor.submit e (fun () ->
            Thread.delay 0.002;
            i))
  in
  List.iteri (fun i f -> check int_ "job result" i (Executor.await f)) futs;
  let run = Metrics.histogram ~windowed:true "executor.run_ms" in
  let wait = Metrics.histogram ~windowed:true "executor.wait_ms" in
  check bool_ "run_ms recorded" true (Metrics.count ~tier:fast run >= 20);
  check bool_ "wait_ms recorded" true (Metrics.count ~tier:fast wait >= 20);
  check bool_ "run p99 defined" true
    (not (Float.is_nan (Metrics.quantile ~tier:fast run 0.99)));
  check int_ "sequential executor has no queue" 0
    (Executor.queue_depth Executor.sequential)

(* ------------------------------------------------------------------ *)
(* /healthz flip under seeded Simnet chaos                             *)
(* ------------------------------------------------------------------ *)

let test_healthz_flip_under_chaos () =
  with_clean @@ fun () ->
  let t = Cluster.create ~names:[ "x"; "y" ] () in
  (* the windows tick on the virtual clock: deterministic decay *)
  Trace.set_clock (fun () -> Cluster.clock_ms t);
  Cluster.register_module_everywhere t ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  (* x forwards every poke to y — y's death becomes x's served Faults *)
  Cluster.register_module_everywhere t ~uri:"relay"
    ~location:"http://x.example.org/relay.xq"
    {|module namespace r = "relay";
import module namespace t = "test" at "http://x.example.org/test.xq";
declare function r:poke() { execute at {"xrpc://y"} {t:echoVoid()} };|};
  let c = Cluster.client t in
  let poke () =
    try
      ignore
        (Xrpc_client.call c ~dest:"xrpc://x" ~module_uri:"relay"
           ~location:"http://x.example.org/relay.xq" ~fn:"poke" []);
      true
    with _ -> false
  in
  let state () = state_of ~scope:"xrpc://x" in
  for i = 1 to 15 do
    check bool_ (Printf.sprintf "clean poke %d" i) true (poke ())
  done;
  check string_ "ready after clean traffic" "ready"
    (Slo.state_label (state ()));
  (* seeded chaos + the dependency gone: the pokes x still receives
     come back as Faults and burn its error budget *)
  Cluster.inject_faults t (Simnet.chaos ~seed:11 ~loss:0.2 ());
  Cluster.crash t "y";
  let n = ref 0 in
  while state () <> Slo.Unready && !n < 300 do
    incr n;
    ignore (poke ())
  done;
  check string_ "unready once the budget is spent" "unready"
    (Slo.state_label (state ()));
  let hz = healthz_json ~scope:"xrpc://x" in
  check bool_ "healthz says not ready" false Json_check.(bool (member "ready" hz));
  check bool_ "healthz carries the budget reason" true
    (List.exists
       (fun r -> contains (Json_check.str r) "error budget")
       Json_check.(items (member "reasons" hz)));
  (* recovery: faults off, y back, and the bad hour ages out of the
     slow window — the budget replenishes by decay, no reset step *)
  Cluster.clear_faults t;
  Cluster.heal t;
  Cluster.restart t "y";
  Simnet.sleep (Cluster.net t) 3_660_000.;
  check string_ "ready again after the window turns over" "ready"
    (Slo.state_label (state ()));
  for i = 1 to 5 do
    check bool_ (Printf.sprintf "recovered poke %d" i) true (poke ())
  done;
  check string_ "stays ready under clean traffic" "ready"
    (Slo.state_label (state ()))

(* ------------------------------------------------------------------ *)
(* Federation aggregation over a 4-peer cluster                        *)
(* ------------------------------------------------------------------ *)

let test_cluster_health_federation () =
  with_clean @@ fun () ->
  let names = [ "a"; "b"; "c"; "d" ] in
  let uris = List.map (fun n -> "xrpc://" ^ n) names in
  (* no_faults still installs the fault machinery, so [crash] works *)
  let t = Cluster.create ~faults:Simnet.no_faults ~names () in
  Trace.set_clock (fun () -> Cluster.clock_ms t);
  Cluster.register_module_everywhere t ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  (* a shard ring so every snapshot reports a map version *)
  Cluster.set_shard_map t (Some (Shard.create ~replicas:2 uris));
  let c = Cluster.client t in
  List.iter
    (fun dest ->
      for i = 1 to 12 do
        ignore
          (Xrpc_client.call c ~dest ~module_uri:Testmod.module_ns
             ~location:Testmod.module_at ~fn:"ping"
             [ [ Xdm.int i ] ])
      done)
    uris;
  let state_of_sn sn = Slo.state_label sn.Telemetry.sn_health.Slo.state in
  let cv = Cluster.cluster_health t in
  check int_ "one snapshot per peer" 4 (List.length cv.Telemetry.cv_peers);
  check string_ "cluster healthy" "ready" (Slo.state_label cv.Telemetry.cv_state);
  check bool_ "shard versions reported" true
    (List.length cv.Telemetry.cv_shard_versions = 4);
  check bool_ "shard map agreed" true cv.Telemetry.cv_shard_agree;
  check bool_ "hot endpoints surfaced" true (cv.Telemetry.cv_hot <> []);
  List.iter
    (fun sn ->
      let uri = sn.Telemetry.sn_peer in
      let scraped = sn.Telemetry.sn_health in
      check bool_ "peer uri known" true (List.mem uri uris);
      (* the scraped state agrees with the peer's own /healthz *)
      let own = Slo.health ~scope:uri () in
      check string_ (uri ^ " state agrees with its healthz")
        (Slo.state_label own.Slo.state) (state_of_sn sn);
      check bool_ (uri ^ " healthz.json ready") true
        Json_check.(bool (member "ready" (healthz_json ~scope:uri)));
      (* every scraped row is the peer's own row, every float bit-exact
         (the scrape itself may add the telemetry endpoint's row at home) *)
      List.iter
        (fun (e : Slo.endpoint_health) ->
          match
            List.find_opt
              (fun (h : Slo.endpoint_health) -> h.h_endpoint = e.h_endpoint)
              own.Slo.endpoints
          with
          | Some h ->
              check bool_ (uri ^ " " ^ e.h_endpoint ^ " row equals its own") true
                (same_row e h)
          | None -> Alcotest.failf "%s: scraped row %s unknown" uri e.h_endpoint)
        scraped.Slo.endpoints;
      match
        List.find_opt
          (fun (e : Slo.endpoint_health) -> e.h_endpoint = "test:ping")
          scraped.Slo.endpoints
      with
      | None -> Alcotest.failf "%s snapshot lacks the ping endpoint" uri
      | Some e ->
          check float_ (uri ^ " windowed request count") 12. e.h_reqs_1m;
          check bool_ (uri ^ " windowed p99 present") true
            (not (Float.is_nan e.h_p99)))
    cv.Telemetry.cv_peers;
  let cz = reread (Telemetry.cluster_json cv) in
  check string_ "cluster json renders" "ready" Json_check.(str (member "state" cz));
  check bool_ "cluster json endpoint rows are /healthz rows" true
    (List.for_all
       (fun p ->
         List.for_all
           (fun e -> Json_check.has "budget" e && Json_check.has "objective" e)
           Json_check.(items (member "endpoints" p)))
       Json_check.(items (member "peers" cz)));
  (* a source that raises makes its scope unready with a reason, both in
     the peer's /healthz and in the scraped snapshot *)
  Slo.register_source ~scope:"xrpc://c" ~name:"disk" (fun () -> failwith "io");
  let reason = "disk: disk probe raised" in
  check bool_ "healthz names the raising source" true
    (contains
       (Slo.healthz_text (Slo.health ~scope:"xrpc://c" ()))
       ("reason: " ^ reason));
  let cv = Cluster.cluster_health t in
  let c =
    List.find (fun sn -> sn.Telemetry.sn_peer = "xrpc://c") cv.Telemetry.cv_peers
  in
  check string_ "scraped raising source is unready" "unready" (state_of_sn c);
  check bool_ "scraped snapshot carries the reason" true
    (List.mem reason c.Telemetry.sn_health.Slo.reasons);
  check string_ "cluster takes the worst" "unready"
    (Slo.state_label cv.Telemetry.cv_state);
  (* kill one member: the very next scrape (well within one window
     tier) must show it unhealthy rather than dropping it *)
  Cluster.crash t "d";
  let cv = Cluster.cluster_health t in
  check int_ "dead peer still in the view" 4
    (List.length cv.Telemetry.cv_peers);
  let dead =
    List.find
      (fun sn -> sn.Telemetry.sn_peer = "xrpc://d")
      cv.Telemetry.cv_peers
  in
  check string_ "dead peer unreachable" "unreachable" (state_of_sn dead);
  check string_ "worst state wins" "unreachable"
    (Slo.state_label cv.Telemetry.cv_state);
  List.iter
    (fun sn ->
      match sn.Telemetry.sn_peer with
      | "xrpc://d" | "xrpc://c" -> ()
      | p -> check string_ (p ^ " still ready") "ready" (state_of_sn sn))
    cv.Telemetry.cv_peers;
  check bool_ "cluster text renders the outage" true
    (contains (Telemetry.cluster_text cv) "unreachable")

(* ------------------------------------------------------------------ *)
(* HTTP monitoring routes                                              *)
(* ------------------------------------------------------------------ *)

(* a route's body; raises [Http_error] unless it answers 2xx *)
let http_get port path = Xrpc_net.Http.post ~host:"127.0.0.1" ~port ~path ""

let test_http_monitoring_routes () =
  with_clean @@ fun () ->
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  let server = Server.create ~config:(Server.config ~port:0 ~workers:2 ()) peer in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  let port = Server.start server in
  let hz = http_get port "/healthz" in
  check bool_ "healthz liveness" true (contains hz "live: ok");
  check bool_ "healthz ready" true (contains hz "ready: ready");
  let json path = Json_check.parse_ok path (http_get port path) in
  let hj = json "/healthz.json" in
  check bool_ "healthz.json live" true Json_check.(bool (member "live" hj));
  check bool_ "healthz.json ready" true Json_check.(bool (member "ready" hj));
  let cz = json "/clusterz.json" in
  check int_ "clusterz has the self peer" 1
    (List.length Json_check.(items (member "peers" cz)));
  check string_ "clusterz state" "ready" Json_check.(str (member "state" cz));
  let self = List.hd Json_check.(items (member "peers" cz)) in
  check (Alcotest.list string_) "clusterz carries the runtime gauges"
    [ "active_connections"; "served_1m_rate"; "loop_lag_p99_ms";
      "executor_queue_depth" ]
    (Json_check.keys (Json_check.member "gauges" self));
  check bool_ "clusterz text renders" true
    (contains (http_get port "/clusterz") "cluster: ready");
  check bool_ "metrics exports windowed series" true
    (contains (http_get port "/metrics") "evloop.");
  check bool_ "metrics.json carries the windowed keys" true
    (List.exists
       (fun (_, v) -> Json_check.has "rate_1m" v)
       (match json "/metrics.json" with
       | Xrpc_obs.Json.Obj kvs -> kvs
       | _ -> Alcotest.fail "metrics.json is not an object"));
  check bool_ "statz has the windowed block" true
    (contains (http_get port "/statz") "window.");
  (* the fetches above went through the route SLO layer: they are
     endpoints of this peer's healthz now *)
  check bool_ "routes tracked as endpoints" true
    (contains (http_get port "/healthz") "/metrics")

(* An endpoint idle for a minute has no p99: the text says [-], the
   JSON (which has no token for NaN) says null and stays parseable. *)
let test_http_non_finite_p99 () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  let scope = peer.Peer.uri in
  for _ = 1 to 3 do
    Slo.record ~scope ~endpoint:"idle" ~dur_ms:1. ~error:false ()
  done;
  t := 120_000.;
  let server = Server.create ~config:(Server.config ~port:0 ~workers:2 ()) peer in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  let port = Server.start server in
  check bool_ "text says p99 -" true
    (List.exists
       (fun l -> contains l "endpoint idle" && contains l "p99 -  budget")
       (String.split_on_char '\n' (http_get port "/healthz")));
  let hj = Json_check.parse_ok "/healthz.json" (http_get port "/healthz.json") in
  let idle =
    List.find
      (fun e -> Json_check.(str (member "endpoint" e)) = "idle")
      Json_check.(items (member "endpoints" hj))
  in
  check bool_ "p99 is null" true
    (Json_check.member "p99_ms" idle = Xrpc_obs.Json.Null);
  check float_ "objective printed from the constant" 100.
    Json_check.(num (member "p99_ms" (member "objective" idle)))

(* A loopback port nothing listens on: bound, read, closed. *)
let closed_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close s;
  port

(* a server whose [--peers] names [dead]; [f port] runs against it *)
let with_dead_member uri f =
  with_clean @@ fun () ->
  let dead = Printf.sprintf "xrpc://127.0.0.1:%d" (closed_port ()) in
  let peer = Peer.create uri in
  let server =
    Server.create
      ~config:(Server.config ~port:0 ~workers:2 ~cluster_peers:[ dead ] ())
      peer
  in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () -> f dead (Server.start server)

let member_named dead cz =
  List.find
    (fun p -> Json_check.(str (member "peer" p)) = dead)
    Json_check.(items (member "peers" cz))

(* a dead --peers member reads as unreachable, and the reason names the
   error's kind and destination, not the exception's constructor *)
let test_clusterz_names_dead_member () =
  with_dead_member "xrpc://scrape.test" @@ fun dead port ->
  let cz = Json_check.parse_ok "/clusterz.json" (http_get port "/clusterz.json") in
  let d = member_named dead cz in
  check string_ "dead member unreachable" "unreachable"
    Json_check.(str (member "state" d));
  let reason =
    String.concat "; "
      (List.map Json_check.str Json_check.(items (member "reasons" d)))
  in
  check bool_ ("reason names kind and port: " ^ reason) true
    (contains reason ("unreachable to " ^ dead));
  check bool_ "reason is not the bare constructor" false
    (contains reason "Xrpc_error.Error(")

(* the outgoing client runs the default recovery policy: repeated scrapes
   of a dead member open its breaker, which /clusterz.json lists and
   which degrades /healthz *)
let test_breaker_source_live () =
  with_dead_member "xrpc://breaker.test" @@ fun dead port ->
  let self_breakers () =
    let cz = Json_check.parse_ok "/clusterz.json" (http_get port "/clusterz.json") in
    Json_check.member "breakers" (member_named "xrpc://breaker.test" cz)
  in
  let rec scrape n =
    let b = self_breakers () in
    if Json_check.has dead b && Json_check.(str (member dead b)) = "open" then ()
    else if n = 0 then
      Alcotest.failf "breaker to %s never opened: %s" dead
        (Xrpc_obs.Json.to_string b)
    else scrape (n - 1)
  in
  scrape 5;
  let hz = http_get port "/healthz" in
  check bool_ ("healthz degraded: " ^ hz) true (contains hz "ready: degraded");
  check bool_ "healthz names the circuit" true
    (contains hz ("circuit open to " ^ dead))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "window",
        [
          Alcotest.test_case "counter rotation on virtual clock" `Quick
            test_counter_rotation;
          Alcotest.test_case "histogram quantiles decay bucket-by-bucket"
            `Quick test_histogram_quantiles_rotation;
          Alcotest.test_case "gauges and clock rewinds" `Quick
            test_gauge_and_rewind;
          Alcotest.test_case "4 concurrent observers lose nothing" `Quick
            test_concurrent_observers;
          Alcotest.test_case "steady state allocates no structures" `Quick
            test_steady_state_allocation;
          Alcotest.test_case "disabled flag gates every record" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "text/json export surfaces" `Quick
            test_export_surfaces;
        ] );
      ( "slo",
        [
          Alcotest.test_case "error budget, burn and decay" `Quick
            test_slo_budget_and_burn;
          Alcotest.test_case "probes: scoped, global, raising" `Quick
            test_slo_probes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "snapshot wire round-trip" `Quick
            test_wire_roundtrip;
          Alcotest.test_case "executor wait/run instrumentation" `Quick
            test_executor_instrumentation;
          Alcotest.test_case "hostile snapshot wire input" `Quick
            test_wire_mutations;
        ] );
      ( "federation",
        [
          Alcotest.test_case "healthz flips under seeded chaos" `Quick
            test_healthz_flip_under_chaos;
          Alcotest.test_case "4-peer cluster health view" `Quick
            test_cluster_health_federation;
        ] );
      ( "http",
        [
          Alcotest.test_case "monitoring routes end-to-end" `Quick
            test_http_monitoring_routes;
          Alcotest.test_case "non-finite p99 is null in JSON" `Quick
            test_http_non_finite_p99;
          Alcotest.test_case "clusterz names a dead member's error" `Quick
            test_clusterz_names_dead_member;
          Alcotest.test_case "breakers of a live server open" `Quick
            test_breaker_source_live;
        ] );
      ( "fuzz",
        [
          qcheck_quick prop_mutations;
          Alcotest.test_case "every seed truncated at every byte" `Quick
            test_truncation_every_byte;
          qcheck_quick prop_roundtrip;
        ] );
    ]
