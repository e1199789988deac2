(* Observability suite: the metrics registry, the tracer, SOAP header
   propagation of trace context, and the end-to-end guarantee of the PR —
   a distributed query over simulated peers yields ONE reconstructable
   span tree, whose shape is deterministic under seeded chaos.

   Span-tree invariants checked under fault injection:
     - no span leaks open across timeouts/retries/failures,
     - every recorded span's parent is itself recorded (live parentage),
     - the same fault seed replays to an identical tree signature. *)

open Xrpc_xml
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Cluster = Xrpc_core.Cluster
module Peer = Xrpc_peer.Peer
module Two_pc = Xrpc_peer.Two_pc
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Message = Xrpc_soap.Message
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* Every test leaves the global tracer exactly as it found it: disabled,
   wall clock, empty buffer. *)
let with_tracer f =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.use_wall_clock ();
      Trace.set_process_tag "";
      Trace.reset ())
    f

let fake_clock () =
  let t = ref 0. in
  Trace.set_clock (fun () -> !t);
  t

let span_names () = List.map (fun s -> s.Trace.name) (Trace.spans ())

let find_span name =
  match List.find_opt (fun s -> s.Trace.name = name) (Trace.spans ()) with
  | Some s -> s
  | None ->
      Alcotest.failf "no span named %s in [%s]" name
        (String.concat "; " (span_names ()))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters_gauges () =
  Metrics.reset ();
  let c = Metrics.counter "t.requests" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.incr_by c 3;
  check int_ "counter accumulates" 5 c.Metrics.count;
  (* create-or-get: same name returns the same live handle *)
  let c' = Metrics.counter "t.requests" in
  Metrics.incr c';
  check int_ "same handle" 6 c.Metrics.count;
  let g = Metrics.gauge "t.depth" in
  Metrics.set g 2.5;
  Metrics.add g 1.5;
  check (Alcotest.float 1e-9) "gauge" 4.0 g.Metrics.value;
  (* a name registered as one type cannot come back as another *)
  (match Metrics.gauge "t.requests" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted")

let test_metrics_histogram_quantiles () =
  Metrics.reset ();
  let h = Metrics.histogram "t.lat_ms" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  check int_ "count" 100 h.Metrics.n;
  check (Alcotest.float 1e-6) "sum" 5050. h.Metrics.sum;
  check (Alcotest.float 1e-6) "mean" 50.5 (Metrics.mean h);
  (* log-bucketed estimates: correct to within one sqrt(2) bucket factor *)
  let p50 = Metrics.quantile h 0.50 in
  if p50 < 25. || p50 > 75. then Alcotest.failf "p50 estimate %.1f off" p50;
  let p99 = Metrics.quantile h 0.99 in
  if p99 < 64. || p99 > 100. then Alcotest.failf "p99 estimate %.1f off" p99;
  (* estimates are clamped into the observed range *)
  if Metrics.quantile h 1.0 > 100. then Alcotest.fail "quantile above max";
  if Metrics.quantile h 0.0 < 1. then Alcotest.fail "quantile below min";
  let empty = Metrics.histogram "t.empty" in
  check bool_ "empty histogram quantile is nan" true
    (Float.is_nan (Metrics.quantile empty 0.5))

let test_metrics_exporters_and_reset () =
  Metrics.reset ();
  let c = Metrics.counter "t.hits" in
  Metrics.incr_by c 7;
  let h = Metrics.histogram "t.ms" in
  Metrics.observe h 10.;
  let snap = Metrics.snapshot () in
  let text = Metrics.to_text snap in
  let has needle hay =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length hay
                   && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool_ "text has counter" true (has "t.hits 7" text);
  check bool_ "text has histogram count" true (has "t.ms_count 1" text);
  check bool_ "text has p95 line" true (has "t.ms_p95" text);
  let json =
    Json_check.parse_ok "metrics json"
      (Xrpc_obs.Json.to_string (Metrics.to_json snap))
  in
  check (Alcotest.float 0.) "json has counter" 7.
    Json_check.(num (member "t.hits" json));
  check (Alcotest.float 0.) "json has histogram object" 1.
    Json_check.(num (get json [ "t.ms"; "count" ]));
  (* reset zeroes values but keeps handles registered and live *)
  Metrics.reset ();
  check int_ "counter zeroed" 0 c.Metrics.count;
  check int_ "histogram zeroed" 0 h.Metrics.n;
  Metrics.incr c;
  check int_ "old handle still wired" 1 (Metrics.counter "t.hits").Metrics.count

(* ------------------------------------------------------------------ *)
(* Tracer unit tests on a fake clock                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_nesting_and_timing () =
  with_tracer @@ fun () ->
  let t = fake_clock () in
  Trace.set_enabled true;
  Trace.with_span "root" (fun () ->
      t := 1.;
      Trace.with_span ~detail:"d" "child" (fun () ->
          t := 3.;
          Trace.event ~detail:"e" "tick");
      t := 10.);
  let root = find_span "root" and child = find_span "child" in
  check string_ "one trace" root.Trace.trace_id child.Trace.trace_id;
  check bool_ "root is a root" true (root.Trace.parent = None);
  check bool_ "child under root" true
    (child.Trace.parent = Some root.Trace.span_id);
  check (Alcotest.float 1e-9) "root duration" 10. (Trace.duration_ms root);
  check (Alcotest.float 1e-9) "child duration" 2. (Trace.duration_ms child);
  (match child.Trace.events with
  | [ e ] ->
      check string_ "event name" "tick" e.Trace.e_name;
      check (Alcotest.float 1e-9) "event time" 3. e.Trace.e_at
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  check int_ "no open spans" 0 (Trace.open_count ())

let test_trace_closes_on_exception () =
  with_tracer @@ fun () ->
  ignore (fake_clock ());
  Trace.set_enabled true;
  (try
     Trace.with_span "outer" (fun () ->
         Trace.with_span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check int_ "two spans recorded" 2 (List.length (Trace.spans ()));
  check int_ "none left open" 0 (Trace.open_count ())

let test_trace_disabled_is_free () =
  with_tracer @@ fun () ->
  check bool_ "disabled by default" false (Trace.enabled ());
  Trace.with_span "nope" (fun () -> Trace.event "nothing");
  check int_ "nothing recorded" 0 (List.length (Trace.spans ()));
  check bool_ "no propagation context" true (Trace.propagation () = None)

let test_trace_remote_parent_and_propagation () =
  with_tracer @@ fun () ->
  ignore (fake_clock ());
  Trace.set_enabled true;
  let ctx = ref None in
  Trace.with_span "client" (fun () -> ctx := Trace.propagation ());
  let trace_id, parent =
    match !ctx with Some c -> c | None -> Alcotest.fail "no context"
  in
  (* "the server side": adopt the propagated context *)
  ignore
    (Trace.collect ~label:"server" ~remote:(trace_id, parent) (fun () ->
         Trace.with_span "work" (fun () -> ())));
  let server = find_span "server" and work = find_span "work" in
  check string_ "server joins the client's trace" trace_id server.Trace.trace_id;
  check bool_ "server under the client span" true
    (server.Trace.parent = Some parent);
  check string_ "nested work inherits the trace" trace_id work.Trace.trace_id;
  (* the stitched structure renders as ONE tree: client is the only root *)
  let roots, _ = Trace.tree_of (Trace.spans ()) in
  check int_ "single root" 1 (List.length roots)

let test_trace_capacity_bounded () =
  with_tracer @@ fun () ->
  ignore (fake_clock ());
  Trace.set_enabled true;
  for _ = 1 to Trace.capacity + 15 do
    Trace.with_span "s" (fun () -> ())
  done;
  check int_ "buffer capped" Trace.capacity (List.length (Trace.spans ()));
  check int_ "overflow counted" 15 (Trace.dropped_count ())

let test_collect_slice () =
  with_tracer @@ fun () ->
  ignore (fake_clock ());
  check bool_ "nothing records by default" false (Trace.recording ());
  (* tracing off: a collection still sees its own subtree, and only it *)
  let pool_span = ref None in
  let inner = ref [] in
  let r, outer =
    Trace.collect ~label:"outer" (fun () ->
        Trace.with_span "a" (fun () ->
            Trace.add "n" 2.;
            Trace.add "n" 3.;
            let _, spans =
              Trace.collect ~label:"inner" (fun () ->
                  Trace.with_span "b" (fun () -> ()))
            in
            inner := spans;
            (* work shipped to another thread under the ambient span *)
            let parent = Option.get (Trace.current ()) in
            Thread.join
              (Thread.create
                 (fun () ->
                   Trace.with_ambient parent (fun () ->
                       Trace.with_span "pool" (fun () ->
                           pool_span := Trace.current ())))
                 ()));
        7)
  in
  check int_ "result returned" 7 r;
  check bool_ "gate closed again" false (Trace.recording ());
  check int_ "process buffer untouched" 0 (List.length (Trace.spans ()));
  let names l = List.map (fun s -> s.Trace.name) l in
  check (Alcotest.list string_) "outer slice, root first"
    [ "outer"; "a"; "inner"; "b"; "pool" ] (names outer);
  check (Alcotest.list string_) "inner slice" [ "inner"; "b" ] (names !inner);
  let a = List.nth outer 1 in
  check (Alcotest.option (Alcotest.float 1e-9)) "attributes sum" (Some 5.)
    (Trace.attr a "n");
  check bool_ "pool span adopted the ambient parent" true
    (match !pool_span with
    | Some s -> s.Trace.parent = Some a.Trace.span_id
    | None -> false);
  (* tracing on: the process buffer records the same spans *)
  Trace.set_enabled true;
  let (), spans = Trace.collect (fun () -> Trace.with_span "c" (fun () -> ())) in
  check (Alcotest.list string_) "traced slice" [ "collect"; "c" ] (names spans);
  check (Alcotest.list string_) "and the process buffer" [ "collect"; "c" ]
    (span_names ())

let test_collect_bounded () =
  with_tracer @@ fun () ->
  let (), spans =
    Trace.collect (fun () ->
        for _ = 1 to Trace.capacity + 2 do
          Trace.with_span "s" (fun () -> Trace.add "x" 1.)
        done)
  in
  check int_ "root plus capacity" (Trace.capacity + 1) (List.length spans);
  check (Alcotest.option (Alcotest.float 1e-9)) "drops counted on the root"
    (Some 2.) (Trace.attr (List.hd spans) Trace.dropped_attr)

(* ------------------------------------------------------------------ *)
(* SOAP envelope propagation                                           *)
(* ------------------------------------------------------------------ *)

let ping_request =
  Message.Request
    {
      Message.module_uri = "test";
      location = "http://x.example.org/test.xq";
      method_ = "ping";
      arity = 1;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = [ [ [ Xdm.int 1 ] ] ];
    }

let test_envelope_header_roundtrip () =
  with_tracer @@ fun () ->
  (* explicit context *)
  let s = Message.to_string ~trace:("t9", "s9") ping_request in
  (match Message.of_string_traced s with
  | Message.Request r, Some (tid, sid) ->
      check string_ "method survives" "ping" r.Message.method_;
      check string_ "trace id" "t9" tid;
      check string_ "parent span" "s9" sid
  | _ -> Alcotest.fail "bad parse");
  (* no context, no header *)
  (match Message.of_string_traced (Message.to_string ping_request) with
  | Message.Request _, None -> ()
  | _, Some _ -> Alcotest.fail "spurious trace header"
  | _, None -> Alcotest.fail "bad parse")

let test_envelope_ambient_stamping () =
  with_tracer @@ fun () ->
  ignore (fake_clock ());
  Trace.set_enabled true;
  Trace.with_span "caller" (fun () ->
      let s = Message.to_string ping_request in
      let caller = find_span "caller" in
      match Message.of_string_traced s with
      | _, Some (tid, sid) ->
          check string_ "ambient trace id" caller.Trace.trace_id tid;
          check string_ "ambient parent is the open span" caller.Trace.span_id sid
      | _, None -> Alcotest.fail "enabled tracer did not stamp the envelope")

(* ------------------------------------------------------------------ *)
(* Distributed span trees over the simulated network                   *)
(* ------------------------------------------------------------------ *)

let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

let test_cluster () =
  let cluster = Cluster.create ~config:sim_config ~names:[ "x"; "y"; "z" ] () in
  List.iter
    (fun n ->
      Peer.register_module (Cluster.peer cluster n) ~uri:Testmod.module_ns
        ~location:Testmod.module_at Testmod.test_module)
    [ "x"; "y"; "z" ];
  cluster

let q_two_peers =
  {|import module namespace t="test" at "http://x.example.org/test.xq";
for $d in ("xrpc://y", "xrpc://z")
return execute at {$d} {t:ping(1)}|}

let assert_parents_live () =
  let all = Trace.spans () in
  let ids = List.map (fun s -> s.Trace.span_id) all in
  List.iter
    (fun s ->
      match s.Trace.parent with
      | None -> ()
      | Some p ->
          if not (List.mem p ids) then
            Alcotest.failf "span %s (%s) has dangling parent %s" s.Trace.span_id
              s.Trace.name p)
    all

let test_distributed_single_tree () =
  with_tracer @@ fun () ->
  let cluster = test_cluster () in
  Cluster.enable_tracing cluster;
  let r = Peer.query_seq (Cluster.peer cluster "x") q_two_peers in
  check string_ "query answered" "1 1" (Xdm.to_display r);
  (* one query over two remote peers: a single trace, a single root *)
  let all = Trace.spans () in
  check bool_ "spans recorded" true (List.length all > 5);
  let root_trace = (List.hd all).Trace.trace_id in
  List.iter
    (fun s -> check string_ "single trace id" root_trace s.Trace.trace_id)
    all;
  let roots, _ = Trace.tree_of all in
  (match roots with
  | [ r ] -> check string_ "root is the client query" "query" r.Trace.name
  | l -> Alcotest.failf "expected one root, got %d" (List.length l));
  assert_parents_live ();
  check int_ "no span left open" 0 (Trace.open_count ());
  (* client compile, transport, both peers' handling and evals are all
     stitched into the one tree *)
  let names = span_names () in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "phase %s missing" n)
    [ "client.compile"; "client.exec"; "net.send"; "peer.handle";
      "peer.exec"; "eval.apply" ];
  check int_ "both peers handled under the same tree" 2
    (List.length (List.filter (( = ) "peer.handle") names));
  (* per-phase rollup covers the handled requests *)
  let phases = Trace.phase_summary () in
  (match List.find_opt (fun (n, _, _) -> n = "peer.handle") phases with
  | Some (_, count, _) -> check int_ "summary counts both peers" 2 count
  | None -> Alcotest.fail "peer.handle missing from phase summary")

let test_2pc_phases_traced () =
  with_tracer @@ fun () ->
  let cluster = Cluster.create ~config:sim_config ~names:[ "x"; "y"; "z" ] () in
  let x = Cluster.peer cluster "x" in
  Filmdb.install (Cluster.peer cluster "y") ();
  Filmdb.install (Cluster.peer cluster "z") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  Cluster.enable_tracing cluster;
  let r =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y", "xrpc://z")
return execute at {$dst} {f:addFilm("Traced", "Actor T")}|}
  in
  check bool_ "transaction committed" true r.Peer.committed;
  let names = span_names () in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "2PC span %s missing" n)
    [ "2pc"; "2pc.prepare"; "2pc.decision"; "peer.commit"; "client.commit" ];
  let prepare = find_span "2pc.prepare" in
  check int_ "both votes recorded as events" 2
    (List.length
       (List.filter (fun e -> e.Trace.e_name = "vote-yes") prepare.Trace.events));
  check int_ "no span left open" 0 (Trace.open_count ());
  assert_parents_live ()

(* ------------------------------------------------------------------ *)
(* Chaos: span invariants + replay-deterministic trees                 *)
(* ------------------------------------------------------------------ *)

let chaos_policy =
  {
    Transport.timeout_ms = 1_000.;
    max_retries = 4;
    backoff_base_ms = 5.;
    backoff_cap_ms = 40.;
    backoff_jitter = 0.5;
    breaker_threshold = 0;
    breaker_cooldown_ms = 100.;
  }

(* Run a batch of queries under a seeded fault schedule with tracing on;
   return (signature, fault stats, open spans, queries failed). *)
let chaos_traced_run ~seed ~loss =
  Trace.reset ();
  let cluster =
    Cluster.create ~config:sim_config
      ~faults:(Simnet.chaos ~seed ~loss ())
      ~policy:chaos_policy ~names:[ "x"; "y"; "z" ] ()
  in
  List.iter
    (fun n ->
      Peer.register_module (Cluster.peer cluster n) ~uri:Testmod.module_ns
        ~location:Testmod.module_at Testmod.test_module)
    [ "x"; "y"; "z" ];
  Cluster.enable_tracing cluster;
  let x = Cluster.peer cluster "x" in
  let failed = ref 0 in
  for _ = 1 to 15 do
    try ignore (Peer.query_seq x q_two_peers) with _ -> incr failed
  done;
  let sig_ = Trace.signature () in
  let opens = Trace.open_count () in
  assert_parents_live ();
  let fs = Option.get (Cluster.fault_stats cluster) in
  Cluster.disable_tracing ();
  (sig_, fs, opens, !failed)

let test_chaos_no_leaked_spans () =
  with_tracer @@ fun () ->
  List.iter
    (fun seed ->
      let _, fs, opens, _ = chaos_traced_run ~seed ~loss:0.10 in
      (* the schedule must actually bite for the test to mean anything *)
      check bool_
        (Printf.sprintf "seed %d injected faults" seed)
        true
        (fs.Simnet.dropped_requests + fs.Simnet.dropped_responses
         + fs.Simnet.delayed + fs.Simnet.duplicated
         > 0);
      check int_ (Printf.sprintf "seed %d leaked open spans" seed) 0 opens)
    [ 3; 5; 11 ]

let test_chaos_retry_events_in_tree () =
  with_tracer @@ fun () ->
  (* at 10% loss with retries on, the trace must show the recovery work:
     failed attempts and backoff sleeps recorded as span events *)
  let sig_, fs, _, _ = chaos_traced_run ~seed:5 ~loss:0.10 in
  check bool_ "faults bit" true
    (fs.Simnet.dropped_requests + fs.Simnet.dropped_responses > 0);
  let has needle hay =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length hay
                   && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool_ "failed attempts traced" true (has "attempt-failed" sig_);
  check bool_ "backoff sleeps traced" true (has "backoff" sig_)

let test_chaos_span_tree_replay () =
  with_tracer @@ fun () ->
  List.iter
    (fun seed ->
      let a, _, _, fa = chaos_traced_run ~seed ~loss:0.05 in
      let b, _, _, fb = chaos_traced_run ~seed ~loss:0.05 in
      check int_ (Printf.sprintf "seed %d same failures" seed) fa fb;
      if a <> b then
        Alcotest.failf
          "seed %d: span tree not reproducible\n--- run 1 ---\n%s\n--- run 2 ---\n%s"
          seed a b;
      (* different seeds are allowed to differ; identical ones must not *)
      let c, _, _, _ = chaos_traced_run ~seed:(seed + 1000) ~loss:0.05 in
      ignore c)
    [ 1; 7; 42 ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_histogram_quantiles;
          Alcotest.test_case "exporters and reset" `Quick
            test_metrics_exporters_and_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and timing" `Quick
            test_trace_nesting_and_timing;
          Alcotest.test_case "closes on exception" `Quick
            test_trace_closes_on_exception;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_is_free;
          Alcotest.test_case "remote parent stitching" `Quick
            test_trace_remote_parent_and_propagation;
          Alcotest.test_case "bounded buffer" `Quick test_trace_capacity_bounded;
          Alcotest.test_case "collect: one subtree, any thread" `Quick
            test_collect_slice;
          Alcotest.test_case "collect: bounded, drops counted" `Quick
            test_collect_bounded;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "envelope header round-trip" `Quick
            test_envelope_header_roundtrip;
          Alcotest.test_case "ambient context stamping" `Quick
            test_envelope_ambient_stamping;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "one tree across two peers" `Quick
            test_distributed_single_tree;
          Alcotest.test_case "2PC phases traced" `Quick test_2pc_phases_traced;
        ] );
      ( "chaos-spans",
        [
          Alcotest.test_case "no span leaks under faults" `Quick
            test_chaos_no_leaked_spans;
          Alcotest.test_case "retries visible as events" `Quick
            test_chaos_retry_events_in_tree;
          Alcotest.test_case "seeded replay, same tree" `Quick
            test_chaos_span_tree_replay;
        ] );
    ]
