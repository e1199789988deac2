(* Strategy-optimizer benchmark: does the Tables 2-4 cost model pick the
   strategy that actually wins?

   Reproduces the paper's Section 6 crossover points on deterministic
   Simnet (charge_cpu = false: measured time is the network model only, so
   every run is bit-identical):

   1. Q7 strategy crossover — for each setting (the paper's 6-of-4875
      selectivity, an everything-matches workload where predicate pushdown
      overtakes the semi-join, a high-latency network that punishes
      execution relocation's extra round trip), seed the cost model from
      live probes (document sizes, a profiled Q_B1 probe via
      Client.measure_site, the baseline result size), let it choose, then
      measure all four strategies and check the choice matches the
      measured-fastest.  Disagreement is a hard failure (exit 1).

   2. Table 2 crossover — the distributed semi-join run under
      XRPC_FORCE_STRATEGY=singles (one message per call) vs bulk, at two
      loop sizes; the model's estimate_rpc must agree with the measured
      ordering.

   Each measured run is fed back with Cost.record_run, so the JSON also
   reports the calibration EMA the adaptive feedback loop ends up with.

   Writes BENCH_optimizer.json with `--json`. *)

module Cluster = Xrpc_core.Cluster
module Cost = Xrpc_core.Cost
module Strategies = Xrpc_core.Strategies
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Wrapper = Xrpc_peer.Wrapper
module Database = Xrpc_peer.Database
module Simnet = Xrpc_net.Simnet
module Xmark = Xrpc_workloads.Xmark
module Xdm = Xrpc_xml.Xdm

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

type setting = {
  s_name : string;
  s_scale : Xmark.scale;
  s_latency_ms : float;
  s_bandwidth : float;
}

(* paper-shaped selectivity (6 matching buyers), an everything-matches
   workload, and a slow network; --quick trims document sizes *)
let settings =
  let scale p a m = { Xmark.persons = p; auctions = a; matches = m } in
  if quick then
    [
      { s_name = "paper-selectivity"; s_scale = scale 50 400 6;
        s_latency_ms = 0.6; s_bandwidth = 125_000. };
      { s_name = "all-match"; s_scale = scale 120 80 80;
        s_latency_ms = 0.6; s_bandwidth = 125_000. };
      { s_name = "high-latency"; s_scale = scale 50 400 6;
        s_latency_ms = 40.; s_bandwidth = 125_000. };
    ]
  else
    [
      { s_name = "paper-selectivity"; s_scale = scale 250 4875 6;
        s_latency_ms = 0.6; s_bandwidth = 125_000. };
      { s_name = "all-match"; s_scale = scale 300 200 200;
        s_latency_ms = 0.6; s_bandwidth = 125_000. };
      { s_name = "high-latency"; s_scale = scale 250 4875 6;
        s_latency_ms = 40.; s_bandwidth = 125_000. };
      { s_name = "slow-link"; s_scale = scale 250 4875 6;
        s_latency_ms = 0.6; s_bandwidth = 12_500. };
    ]

let q7 =
  {
    Strategies.local_doc = "persons.xml";
    remote_uri = "xrpc://B";
    remote_doc = "auctions.xml";
    module_ns = "functions_b";
    module_at = "http://example.org/b.xq";
  }

(* A (native) + B (wrapper, join detection on), as in bench/main.ml's
   Table 4 — charge_cpu=false makes the virtual clock purely model-driven *)
let build_cluster setting =
  let sim =
    {
      Simnet.latency_ms = setting.s_latency_ms;
      bandwidth_bytes_per_ms = setting.s_bandwidth;
      charge_cpu = false;
    }
  in
  let cluster = Cluster.create ~config:sim ~names:[ "A" ] () in
  let a = Cluster.peer cluster "A" in
  let b = Cluster.add_wrapper cluster ~join_detect:true "B" in
  Wrapper.set_transport b (Simnet.transport (Cluster.net cluster));
  let persons_xml = Xmark.persons ~count:setting.s_scale.Xmark.persons () in
  let auctions_xml =
    Xmark.auctions ~count:setting.s_scale.Xmark.auctions
      ~matches:setting.s_scale.Xmark.matches
      ~persons_count:setting.s_scale.Xmark.persons ()
  in
  Database.add_doc_xml a.Peer.db "persons.xml" persons_xml;
  Database.add_doc_xml b.Wrapper.db "auctions.xml" auctions_xml;
  let module_src = Strategies.functions_b q7 in
  Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at module_src;
  (cluster, a, String.length persons_xml, String.length auctions_xml)

(* Seed the site statistics the way a live optimizer would: known document
   sizes and cardinalities, a profiled Q_B1 probe for the pushdown payload
   (Client.measure_site), and the baseline result size. *)
let probe_site cluster setting ~persons_bytes ~auctions_bytes ~result_bytes =
  let client = Cluster.client cluster in
  let site0 =
    {
      Cost.default_site with
      Cost.outer_rows = setting.s_scale.Xmark.persons;
      local_doc_bytes = persons_bytes;
      remote_doc_bytes = auctions_bytes;
      remote_rows = setting.s_scale.Xmark.auctions;
      match_rows = setting.s_scale.Xmark.matches;
      result_bytes;
    }
  in
  let site, _profile =
    Client.measure_site client ~dest:"xrpc://B" ~site:site0
      ~module_uri:q7.Strategies.module_ns ~location:q7.Strategies.module_at
      ~fn:"Q_B1" []
  in
  site

let run_setting setting =
  Printf.printf "\n%s (persons=%d auctions=%d matches=%d latency=%.1fms \
                 bw=%.0fB/ms)\n"
    setting.s_name setting.s_scale.Xmark.persons
    setting.s_scale.Xmark.auctions setting.s_scale.Xmark.matches
    setting.s_latency_ms setting.s_bandwidth;
  (* every setting is its own federation: the feedback EMA is a property
     of one deployment's network, so it must not leak across settings
     (a ratio learned at 0.6 ms latency is wrong at 40 ms) *)
  Cost.reset_calibration ();
  let cluster, a, persons_bytes, auctions_bytes = build_cluster setting in
  let net =
    {
      Cost.latency_ms = setting.s_latency_ms;
      bandwidth_bytes_per_ms = setting.s_bandwidth;
    }
  in
  (* baseline (also the reference answer): plain data shipping *)
  let baseline =
    Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7
                        Strategies.Data_shipping)
  in
  let baseline_display = Xdm.to_display baseline in
  let site =
    probe_site cluster setting ~persons_bytes ~auctions_bytes
      ~result_bytes:(String.length baseline_display)
  in
  let decision = Cost.choose net Cost.zero_cpu site in
  (* measure every strategy on the virtual clock *)
  let measured =
    List.map
      (fun strategy ->
        Cluster.reset_stats cluster;
        let query = Strategies.query ~local_uri:"xrpc://A" q7 strategy in
        let result = Peer.query_seq a query in
        let stats = Cluster.stats cluster in
        if Xdm.to_display result <> baseline_display then
          failwith
            (Printf.sprintf "%s returned a different answer than data shipping"
               (Strategies.name strategy));
        (strategy, stats.Simnet.network_ms, stats.Simnet.messages,
         stats.Simnet.bytes_sent + stats.Simnet.bytes_received))
      Strategies.all
  in
  (* adaptive feedback: every measured run calibrates the model *)
  List.iter
    (fun (strategy, ms, _, _) ->
      let est = Cost.total (Cost.estimate net Cost.zero_cpu site strategy) in
      ignore (Cost.record_run strategy ~estimated_ms:est ~measured_ms:ms))
    measured;
  let fastest, fastest_ms, _, _ =
    List.fold_left
      (fun (bs, bm, bmsg, bb) (s, m, msg, b) ->
        if m < bm then (s, m, msg, b) else (bs, bm, bmsg, bb))
      (match measured with
      | x :: _ -> x
      | [] -> assert false)
      measured
  in
  let chosen = decision.Cost.chosen.Cost.strategy in
  Printf.printf "%-22s | %12s | %12s | %5s %10s\n" "" "est (model)"
    "measured" "msgs" "bytes";
  List.iter
    (fun (strategy, ms, msgs, bytes) ->
      let est = Cost.total (Cost.estimate net Cost.zero_cpu site strategy) in
      Printf.printf "%-22s | %10.3fms | %10.3fms | %5d %10d%s\n"
        (Strategies.name strategy) est ms msgs bytes
        (if strategy = chosen then "  <- chosen" else ""))
    measured;
  (* with the feedback folded in, the calibrated re-choice must agree too *)
  let recheck = Cost.choose net Cost.zero_cpu site in
  let agree =
    chosen = fastest && recheck.Cost.chosen.Cost.strategy = fastest
  in
  Printf.printf "chosen=%s calibrated=%s fastest=%s (%.3fms) -> %s\n"
    (Strategies.short_name chosen)
    (Strategies.short_name recheck.Cost.chosen.Cost.strategy)
    (Strategies.short_name fastest)
    fastest_ms
    (if agree then "AGREE" else "DISAGREE");
  (setting, site, measured, decision, fastest, agree)

(* ------------------------------------------------------------------ *)
(* Table 2: Bulk RPC vs one-at-a-time on the semi-join                 *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  print_endline "\nTable 2 crossover: Bulk RPC vs one-at-a-time (semi-join)";
  let loops = if quick then [ 10; 50 ] else [ 10; 250 ] in
  let rows =
    List.map
      (fun n ->
        let setting =
          { s_name = Printf.sprintf "n=%d" n;
            s_scale = { Xmark.persons = n; auctions = 40; matches = 6 };
            s_latency_ms = 0.6; s_bandwidth = 125_000. }
        in
        let measure mode =
          let cluster, a, _, _ = build_cluster setting in
          Unix.putenv "XRPC_FORCE_STRATEGY" mode;
          Fun.protect
            ~finally:(fun () -> Unix.putenv "XRPC_FORCE_STRATEGY" "")
            (fun () ->
              Cluster.reset_stats cluster;
              let r =
                Peer.query_seq a
                  (Strategies.query ~local_uri:"xrpc://A" q7
                     Strategies.Distributed_semijoin)
              in
              let stats = Cluster.stats cluster in
              (Xdm.to_display r, stats.Simnet.network_ms,
               stats.Simnet.messages))
        in
        let bulk_disp, bulk_ms, bulk_msgs = measure "bulk" in
        let singles_disp, singles_ms, singles_msgs = measure "singles" in
        if bulk_disp <> singles_disp then
          failwith "bulk and one-at-a-time answers differ";
        let est_bulk, est_singles =
          Cost.estimate_rpc Cost.default_net ~ncalls:n ~bytes_per_call:128 ()
        in
        Printf.printf
          "  n=%-4d bulk %8.3fms (%d msgs)  singles %8.3fms (%d msgs)  \
           measured %.1fx, model %.1fx\n"
          n bulk_ms bulk_msgs singles_ms singles_msgs
          (singles_ms /. bulk_ms) (est_singles /. est_bulk);
        if not (bulk_ms <= singles_ms && est_bulk <= est_singles) then
          failwith "Table 2 ordering violated (bulk should win)";
        (n, bulk_ms, singles_ms, bulk_msgs, singles_msgs, est_bulk,
         est_singles))
      loops
  in
  rows

(* ------------------------------------------------------------------ *)

let () =
  print_endline "Strategy optimizer: model choice vs measured winner";
  print_endline "===================================================";
  let results = List.map run_setting settings in
  let table2 = run_table2 () in
  let all_agree = List.for_all (fun (_, _, _, _, _, a) -> a) results in
  print_newline ();
  print_string (Cost.calibration_text ());
  Printf.printf "verdict: %s\n"
    (if all_agree then "optimizer picks the measured-fastest strategy at \
                        every setting"
     else "OPTIMIZER/MEASUREMENT DISAGREEMENT");
  if json_out then begin
    let setting_json (setting, site, measured, decision, fastest, agree) =
      let strat_json (strategy, ms, msgs, bytes) =
        let net =
          { Cost.latency_ms = setting.s_latency_ms;
            bandwidth_bytes_per_ms = setting.s_bandwidth }
        in
        let est = Cost.total (Cost.estimate net Cost.zero_cpu site strategy) in
        Printf.sprintf
          "{\"strategy\":\"%s\",\"estimated_ms\":%.4f,\"measured_ms\":%.4f,\"messages\":%d,\"bytes\":%d}"
          (Strategies.short_name strategy)
          est ms msgs bytes
      in
      Printf.sprintf
        "    {\"setting\":\"%s\",\"persons\":%d,\"auctions\":%d,\"matches\":%d,\"latency_ms\":%.2f,\"bandwidth_bytes_per_ms\":%.0f,\"chosen\":\"%s\",\"fastest\":\"%s\",\"agree\":%b,\"strategies\":[%s]}"
        setting.s_name setting.s_scale.Xmark.persons
        setting.s_scale.Xmark.auctions setting.s_scale.Xmark.matches
        setting.s_latency_ms setting.s_bandwidth
        (Strategies.short_name decision.Cost.chosen.Cost.strategy)
        (Strategies.short_name fastest)
        agree
        (String.concat "," (List.map strat_json measured))
    in
    let table2_json (n, bulk_ms, singles_ms, bulk_msgs, singles_msgs,
                     est_bulk, est_singles) =
      Printf.sprintf
        "    {\"ncalls\":%d,\"bulk_ms\":%.4f,\"singles_ms\":%.4f,\"bulk_messages\":%d,\"singles_messages\":%d,\"model_bulk_ms\":%.4f,\"model_singles_ms\":%.4f}"
        n bulk_ms singles_ms bulk_msgs singles_msgs est_bulk est_singles
    in
    let calib_json s =
      Printf.sprintf "    {\"strategy\":\"%s\",\"factor\":%.4f,\"runs\":%d}"
        (Strategies.short_name s) (Cost.calibration s) (Cost.runs s)
    in
    write_file "BENCH_optimizer.json"
      (Printf.sprintf
         "{\n\
         \  \"all_agree\": %b,\n\
         \  \"settings\": [\n%s\n  ],\n\
         \  \"table2_bulk_vs_singles\": [\n%s\n  ],\n\
         \  \"calibration\": [\n%s\n  ]\n\
          }\n"
         all_agree
         (String.concat ",\n" (List.map setting_json results))
         (String.concat ",\n" (List.map table2_json table2))
         (String.concat ",\n" (List.map calib_json Strategies.all)))
  end;
  if not all_agree then exit 1
