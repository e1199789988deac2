(* Cost-based strategy optimizer suite (§5 strategies, Tables 2-4 model).

   Covers, in rough order: the per-strategy shape of the cost estimates
   (message counts, payload directions), the Table-2 Bulk-vs-singles
   estimator, model-level crossover points (selectivity flips semi-join vs
   pushdown, latency punishes relocation's extra round trip), a seeded
   monotonicity battery (growing any additive statistic — rows, bytes,
   latency — or shrinking bandwidth never lowers a strategy's cost; replay
   with OPT_SEED=<n> dune runtest), strategy-name parsing and the
   XRPC_FORCE_STRATEGY override, the adaptive feedback loop (EMA
   calibration, flight-recorder persistence and replay), the :explain
   surfaces (decision rendering, static execute-at site analysis, the
   loop-lift note hook, the profiler's Table-2 annotation), measured
   crossover reproduction on deterministic Simnet (the optimizer's choice
   must be the measured-fastest strategy at every setting, as in
   bench/optimizer_bench.ml), Bulk RPC vs one-at-a-time forced through the
   debug override, and a chaos differential battery: whatever strategy the
   optimizer picks must return answers identical to plain Bulk RPC data
   shipping, or fail outright — never a silently different answer (replay
   with FAULT_SEED=<n> dune runtest). *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Cost = Xrpc_core.Cost
module Strategies = Xrpc_core.Strategies
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Wrapper = Xrpc_peer.Wrapper
module Database = Xrpc_peer.Database
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Xmark = Xrpc_workloads.Xmark
module Parser = Xrpc_xquery.Parser
module Runner = Xrpc_xquery.Runner
module Xctx = Xrpc_xquery.Context
module Profile = Xrpc_obs.Profile
module Flight_recorder = Xrpc_obs.Flight_recorder

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let floatish = Alcotest.float 1e-9

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* every test that touches the process-wide calibration table or the env
   override cleans up after itself *)
let with_clean_calibration f =
  Cost.reset_calibration ();
  Fun.protect ~finally:Cost.reset_calibration f

let with_env_strategy value f =
  Unix.putenv "XRPC_FORCE_STRATEGY" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "XRPC_FORCE_STRATEGY" "") f

(* ------------------------------------------------------------------ *)
(* The estimator: per-strategy shapes                                  *)
(* ------------------------------------------------------------------ *)

(* the paper-shaped selective site: 6 of 400 auctions match *)
let selective_site =
  {
    Cost.default_site with
    Cost.outer_rows = 50;
    key_bytes = 24;
    local_doc_bytes = 30_000;
    remote_doc_bytes = 40_000;
    remote_rows = 400;
    match_rows = 6;
    result_bytes = 2_000;
    pushdown_rows = 400;
    pushdown_bytes = 20_000;
  }

let est strategy = Cost.estimate Cost.default_net Cost.zero_cpu selective_site strategy

let test_message_counts () =
  (* Table 2's term: one round trip for data shipping, pushdown and the
     (Bulk RPC) semi-join; relocation pays the nested getDocument trip *)
  let msgs s = (est s).Cost.messages in
  check int_ "data shipping: 2 msgs" 2 (msgs Strategies.Data_shipping);
  check int_ "pushdown: 2 msgs" 2 (msgs Strategies.Predicate_pushdown);
  check int_ "relocation: 4 msgs" 4 (msgs Strategies.Execution_relocation);
  check int_ "semi-join: 2 msgs" 2 (msgs Strategies.Distributed_semijoin);
  let ovh = selective_site.Cost.msg_overhead_bytes in
  check int_ "data shipping pulls the whole remote document"
    (selective_site.Cost.remote_doc_bytes + ovh)
    (est Strategies.Data_shipping).Cost.bytes_in;
  check int_ "pushdown pulls only the selected nodes"
    (selective_site.Cost.pushdown_bytes + ovh)
    (est Strategies.Predicate_pushdown).Cost.bytes_in;
  check int_ "relocation ships the local document out"
    (selective_site.Cost.local_doc_bytes + (2 * ovh))
    (est Strategies.Execution_relocation).Cost.bytes_out;
  check int_ "semi-join ships one key per outer row"
    ((selective_site.Cost.outer_rows * selective_site.Cost.key_bytes) + ovh)
    (est Strategies.Distributed_semijoin).Cost.bytes_out;
  check bool_ "zero cpu under charge_cpu=false" true
    (List.for_all (fun s -> (est s).Cost.cpu_ms = 0.) Strategies.all)

let test_table2_estimates () =
  let rpc n = Cost.estimate_rpc Cost.default_net ~ncalls:n ~bytes_per_call:128 () in
  let b1, s1 = rpc 1 in
  check floatish "one call: bulk and singles coincide" b1 s1;
  let b10, s10 = rpc 10 in
  let b100, s100 = rpc 100 in
  check bool_ "bulk beats singles at n=10" true (b10 < s10);
  check bool_ "bulk beats singles at n=100" true (b100 < s100);
  check bool_ "the bulk advantage grows with the loop" true
    (s100 /. b100 > s10 /. b10);
  (* 2N messages vs 2: at negligible payload the ratio approaches N *)
  let tiny_b, tiny_s = Cost.estimate_rpc Cost.default_net ~overhead:0 ~ncalls:50 ~bytes_per_call:0 () in
  check floatish "latency-only ratio is exactly N" 50. (tiny_s /. tiny_b)

let test_model_crossover_selectivity () =
  with_clean_calibration @@ fun () ->
  (* 6-of-400 selectivity: the semi-join's key shipment is far smaller
     than the pushdown payload, which is smaller than the document *)
  let d = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check string_ "selective site: semi-join wins" "semijoin"
    (Strategies.short_name d.Cost.chosen.Cost.strategy);
  check bool_ "pushdown still beats data shipping" true
    (Cost.total (est Strategies.Predicate_pushdown)
    < Cost.total (est Strategies.Data_shipping));
  (* everything matches: the semi-join pays the keys out AND the full
     payload back, so plain pushdown overtakes it *)
  let all_match =
    { selective_site with Cost.outer_rows = 200; match_rows = 400 }
  in
  let d = Cost.choose Cost.default_net Cost.zero_cpu all_match in
  check string_ "all-match site: pushdown wins" "pushdown"
    (Strategies.short_name d.Cost.chosen.Cost.strategy)

let test_model_crossover_latency () =
  with_clean_calibration @@ fun () ->
  let slow = { Cost.default_net with Cost.latency_ms = 40. } in
  let d = Cost.choose slow Cost.zero_cpu selective_site in
  check string_ "high latency: the 2-message semi-join still wins" "semijoin"
    (Strategies.short_name d.Cost.chosen.Cost.strategy);
  (* 4 messages at 40ms dominate any byte savings at these sizes *)
  (match List.rev d.Cost.ranked with
  | worst :: _ ->
      check string_ "relocation's extra round trip ranks it last"
        "relocation"
        (Strategies.short_name worst.Cost.strategy)
  | [] -> Alcotest.fail "empty ranking");
  check bool_ "slow link favors small payloads: semi-join beats pushdown" true
    (let thin = { Cost.latency_ms = 0.6; bandwidth_bytes_per_ms = 1_000. } in
     Cost.total (Cost.estimate thin Cost.zero_cpu selective_site
                   Strategies.Distributed_semijoin)
     < Cost.total (Cost.estimate thin Cost.zero_cpu selective_site
                     Strategies.Predicate_pushdown))

(* ------------------------------------------------------------------ *)
(* Seeded monotonicity battery                                         *)
(* ------------------------------------------------------------------ *)

let opt_seed () =
  match Sys.getenv_opt "OPT_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 2026

let replay_hint seed = Printf.sprintf "OPT_SEED=%d dune runtest" seed

let gen_site rng =
  let i n = Random.State.int rng n in
  {
    Cost.outer_rows = i 500;
    key_bytes = 1 + i 64;
    local_doc_bytes = i 200_000;
    remote_doc_bytes = i 200_000;
    remote_rows = i 5_000;
    match_rows = i 5_000;
    result_bytes = i 100_000;
    pushdown_rows = i 5_000;
    pushdown_bytes = i 100_000;
    msg_overhead_bytes = i 2_048;
  }

let gen_net rng =
  {
    Cost.latency_ms = Random.State.float rng 50.;
    bandwidth_bytes_per_ms = 1_000. +. Random.State.float rng 200_000.;
  }

let gen_cpu rng =
  {
    Cost.compile_ms = Random.State.float rng 1.;
    xml_ms_per_byte = Random.State.float rng 0.001;
    exec_ms_per_row = Random.State.float rng 0.01;
  }

(* every additive statistic the model consumes; [pushdown_rows] is the one
   deliberate exception — it is a selectivity-ratio denominator (average
   pushdown row width), not a quantity of work *)
let site_bumps =
  [
    ("outer_rows", fun s d -> { s with Cost.outer_rows = s.Cost.outer_rows + d });
    ("key_bytes", fun s d -> { s with Cost.key_bytes = s.Cost.key_bytes + d });
    ( "local_doc_bytes",
      fun s d -> { s with Cost.local_doc_bytes = s.Cost.local_doc_bytes + d } );
    ( "remote_doc_bytes",
      fun s d -> { s with Cost.remote_doc_bytes = s.Cost.remote_doc_bytes + d } );
    ( "remote_rows",
      fun s d -> { s with Cost.remote_rows = s.Cost.remote_rows + d } );
    ("match_rows", fun s d -> { s with Cost.match_rows = s.Cost.match_rows + d });
    ( "result_bytes",
      fun s d -> { s with Cost.result_bytes = s.Cost.result_bytes + d } );
    ( "pushdown_bytes",
      fun s d -> { s with Cost.pushdown_bytes = s.Cost.pushdown_bytes + d } );
    ( "msg_overhead_bytes",
      fun s d -> { s with Cost.msg_overhead_bytes = s.Cost.msg_overhead_bytes + d }
    );
  ]

let monotone_check ~seed ~case ~what ~strategy before after =
  if after +. 1e-9 < before then
    Alcotest.failf
      "seed %d case %d: growing %s LOWERED the %s cost (%.9f -> %.9f)\n\
       replay: %s"
      seed case what (Strategies.name strategy) before after (replay_hint seed)

let test_monotone_site_stats () =
  let seed = opt_seed () in
  for case = 0 to 299 do
    let rng = Random.State.make [| seed; case |] in
    let site = gen_site rng and net = gen_net rng and cpu = gen_cpu rng in
    let delta = 1 + Random.State.int rng 10_000 in
    List.iter
      (fun (what, bump) ->
        List.iter
          (fun strategy ->
            let before = Cost.total (Cost.estimate net cpu site strategy) in
            let after =
              Cost.total (Cost.estimate net cpu (bump site delta) strategy)
            in
            monotone_check ~seed ~case ~what ~strategy before after)
          Strategies.all)
      site_bumps
  done

let test_monotone_network () =
  let seed = opt_seed () in
  for case = 300 to 599 do
    let rng = Random.State.make [| seed; case |] in
    let site = gen_site rng and net = gen_net rng and cpu = gen_cpu rng in
    let slower =
      { net with Cost.latency_ms = net.Cost.latency_ms +. Random.State.float rng 100. }
    in
    let thinner =
      {
        net with
        Cost.bandwidth_bytes_per_ms =
          net.Cost.bandwidth_bytes_per_ms /. (1. +. Random.State.float rng 10.);
      }
    in
    List.iter
      (fun strategy ->
        let before = Cost.total (Cost.estimate net cpu site strategy) in
        monotone_check ~seed ~case ~what:"latency" ~strategy before
          (Cost.total (Cost.estimate slower cpu site strategy));
        monotone_check ~seed ~case ~what:"1/bandwidth" ~strategy before
          (Cost.total (Cost.estimate thinner cpu site strategy)))
      Strategies.all
  done

let test_monotone_cpu () =
  let seed = opt_seed () in
  for case = 600 to 899 do
    let rng = Random.State.make [| seed; case |] in
    let site = gen_site rng and net = gen_net rng and cpu = gen_cpu rng in
    let pricier =
      {
        Cost.compile_ms = cpu.Cost.compile_ms +. Random.State.float rng 1.;
        xml_ms_per_byte = cpu.Cost.xml_ms_per_byte +. Random.State.float rng 0.001;
        exec_ms_per_row = cpu.Cost.exec_ms_per_row +. Random.State.float rng 0.01;
      }
    in
    List.iter
      (fun strategy ->
        monotone_check ~seed ~case ~what:"per-peer CPU" ~strategy
          (Cost.total (Cost.estimate net cpu site strategy))
          (Cost.total (Cost.estimate net pricier site strategy)))
      Strategies.all
  done

(* ------------------------------------------------------------------ *)
(* Choosing, names, overrides                                          *)
(* ------------------------------------------------------------------ *)

let test_choose_ranks () =
  with_clean_calibration @@ fun () ->
  let d = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check int_ "all four strategies ranked" 4 (List.length d.Cost.ranked);
  check bool_ "not forced" false d.Cost.forced;
  check bool_ "every strategy appears once" true
    (List.sort compare (List.map (fun c -> c.Cost.strategy) d.Cost.ranked)
    = List.sort compare Strategies.all);
  (match d.Cost.ranked with
  | first :: _ ->
      check bool_ "chosen is the head of the ranking" true
        (first.Cost.strategy = d.Cost.chosen.Cost.strategy)
  | [] -> Alcotest.fail "empty ranking");
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Cost.calibrated_total a <= Cost.calibrated_total b && sorted rest
    | _ -> true
  in
  check bool_ "ranking is cheapest-first" true (sorted d.Cost.ranked)

let test_choose_force () =
  with_clean_calibration @@ fun () ->
  let d =
    Cost.choose ~force:Strategies.Execution_relocation Cost.default_net
      Cost.zero_cpu selective_site
  in
  check bool_ "forced flag set" true d.Cost.forced;
  check string_ "the forced strategy is chosen" "relocation"
    (Strategies.short_name d.Cost.chosen.Cost.strategy);
  (* the ranking still tells the truth about costs *)
  (match d.Cost.ranked with
  | first :: _ ->
      check bool_ "ranking ignores the force" true
        (first.Cost.strategy <> Strategies.Execution_relocation)
  | [] -> Alcotest.fail "empty ranking")

let test_strategy_names () =
  List.iter
    (fun s ->
      check bool_
        ("short_name round-trips: " ^ Strategies.short_name s)
        true
        (Strategies.of_string (Strategies.short_name s) = Some s);
      check bool_
        ("display name round-trips: " ^ Strategies.name s)
        true
        (Strategies.of_string (Strategies.name s) = Some s))
    Strategies.all;
  check int_ "short names are collision-free" 4
    (List.length
       (List.sort_uniq compare (List.map Strategies.short_name Strategies.all)));
  check bool_ "case/hyphen variants accepted" true
    (Strategies.of_string "Predicate Push-Down"
     = Some Strategies.Predicate_pushdown
    && Strategies.of_string "SEMI-JOIN" = Some Strategies.Distributed_semijoin
    && Strategies.of_string "plain" = Some Strategies.Data_shipping
    && Strategies.of_string "relocate" = Some Strategies.Execution_relocation);
  check bool_ "rpc modes and garbage are not strategies" true
    (Strategies.of_string "bulk" = None
    && Strategies.of_string "singles" = None
    && Strategies.of_string "auto" = None
    && Strategies.of_string "" = None
    && Strategies.of_string "zigzag" = None)

let test_force_env () =
  with_env_strategy "semi-join" (fun () ->
      check bool_ "XRPC_FORCE_STRATEGY=semi-join" true
        (Cost.force_of_env () = Some Strategies.Distributed_semijoin));
  with_env_strategy "relocate" (fun () ->
      check bool_ "XRPC_FORCE_STRATEGY=relocate" true
        (Cost.force_of_env () = Some Strategies.Execution_relocation));
  with_env_strategy "bulk" (fun () ->
      check bool_ "bulk is an rpc mode, not a strategy" true
        (Cost.force_of_env () = None));
  with_env_strategy "" (fun () ->
      check bool_ "empty override is no override" true (Cost.force_of_env () = None))

let test_rpc_mode_parsing () =
  check bool_ "bulk" true (Xctx.rpc_mode_of_string "bulk" = Some Xctx.Rpc_bulk);
  check bool_ "SINGLES" true
    (Xctx.rpc_mode_of_string "SINGLES" = Some Xctx.Rpc_singles);
  check bool_ "one-at-a-time" true
    (Xctx.rpc_mode_of_string "one-at-a-time" = Some Xctx.Rpc_singles);
  check bool_ "auto is no override" true (Xctx.rpc_mode_of_string "auto" = None);
  check bool_ "strategy names are not rpc modes" true
    (Xctx.rpc_mode_of_string "semijoin" = None);
  check string_ "names render back" "singles" (Xctx.rpc_mode_name Xctx.Rpc_singles);
  check bool_ "bulk is the default" true
    (Peer.default_config.Peer.rpc_mode = Xctx.Rpc_bulk);
  let peer =
    Peer.create
      ~config:{ Peer.default_config with Peer.rpc_mode = Xctx.Rpc_singles }
      "xrpc://modes.local"
  in
  with_env_strategy "auto" (fun () ->
      check bool_ "XRPC_FORCE_STRATEGY=auto keeps the configured mode" true
        (Peer.rpc_mode peer = Xctx.Rpc_singles));
  with_env_strategy "bulk" (fun () ->
      check bool_ "XRPC_FORCE_STRATEGY=bulk overrides it" true
        (Peer.rpc_mode peer = Xctx.Rpc_bulk))

(* ------------------------------------------------------------------ *)
(* The adaptive feedback loop                                          *)
(* ------------------------------------------------------------------ *)

let test_feedback_ema () =
  with_clean_calibration @@ fun () ->
  let sj = Strategies.Distributed_semijoin in
  check floatish "virgin calibration is 1.0" 1.0 (Cost.calibration sj);
  check int_ "no runs yet" 0 (Cost.runs sj);
  Cost.observe sj ~estimated_ms:2.0 ~measured_ms:4.0;
  check floatish "first observation sets the ratio" 2.0 (Cost.calibration sj);
  Cost.observe sj ~estimated_ms:2.0 ~measured_ms:2.0;
  check floatish "EMA blends (0.7*2.0 + 0.3*1.0)" 1.7 (Cost.calibration sj);
  check int_ "two runs" 2 (Cost.runs sj);
  check floatish "other strategies untouched" 1.0
    (Cost.calibration Strategies.Predicate_pushdown);
  Cost.observe sj ~estimated_ms:0.0 ~measured_ms:9.0;
  check floatish "zero estimates are ignored" 1.7 (Cost.calibration sj);
  Cost.reset_calibration ();
  check floatish "reset restores 1.0" 1.0 (Cost.calibration sj);
  check bool_ "calibration_text names every strategy" true
    (List.for_all
       (fun s -> contains (Cost.calibration_text ()) (Strategies.name s))
       Strategies.all)

let test_feedback_flips_choice () =
  with_clean_calibration @@ fun () ->
  let d0 = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check string_ "model alone picks the semi-join" "semijoin"
    (Strategies.short_name d0.Cost.chosen.Cost.strategy);
  (* the deployment keeps measuring the semi-join at 10x its estimate —
     the calibrated ranking must switch to the next-best strategy *)
  let sj = Strategies.Distributed_semijoin in
  let est = Cost.total (Cost.estimate Cost.default_net Cost.zero_cpu selective_site sj) in
  Cost.observe sj ~estimated_ms:est ~measured_ms:(est *. 10.);
  let d1 = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check string_ "feedback flips the choice to pushdown" "pushdown"
    (Strategies.short_name d1.Cost.chosen.Cost.strategy);
  Cost.reset_calibration ();
  let d2 = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check string_ "reset restores the model's pick" "semijoin"
    (Strategies.short_name d2.Cost.chosen.Cost.strategy)

let test_feedback_flight_replay () =
  with_clean_calibration @@ fun () ->
  Flight_recorder.reset ();
  Fun.protect ~finally:Flight_recorder.reset @@ fun () ->
  let sj = Strategies.Distributed_semijoin
  and pd = Strategies.Predicate_pushdown in
  ignore (Cost.record_run sj ~estimated_ms:1.0 ~measured_ms:2.0);
  ignore (Cost.record_run sj ~estimated_ms:1.0 ~measured_ms:1.0);
  ignore (Cost.record_run pd ~estimated_ms:2.0 ~measured_ms:1.0);
  (* noise the replay must skip: a non-optimizer entry and a mangled one *)
  ignore
    (Flight_recorder.record ~label:"query xyz" ~duration_ms:1.0 ~spans:[] ());
  ignore
    (Flight_recorder.record ~label:"optimizer:warp est=fast meas=slow"
       ~duration_ms:1.0 ~spans:[] ());
  let f_sj = Cost.calibration sj and f_pd = Cost.calibration pd in
  check floatish "EMA after the recorded runs" 1.7 f_sj;
  check floatish "pushdown factor" 0.5 f_pd;
  (* a fresh session: no calibration, but the flight recorder persists *)
  Cost.reset_calibration ();
  check floatish "fresh session starts at 1.0" 1.0 (Cost.calibration sj);
  let replayed = Cost.replay_flight () in
  check int_ "exactly the three optimizer entries replay" 3 replayed;
  check floatish "semi-join EMA reconstructed" f_sj (Cost.calibration sj);
  check floatish "pushdown EMA reconstructed" f_pd (Cost.calibration pd);
  check int_ "runs reconstructed" 2 (Cost.runs sj)

(* one slow destination must not poison the ranking everywhere: observe
   folds the measurement into BOTH the per-destination and the global
   EMA, calibration ~dest prefers the destination's own factor and falls
   back to the global one for destinations never measured *)
let test_feedback_per_destination () =
  with_clean_calibration @@ fun () ->
  let sj = Strategies.Distributed_semijoin in
  let slow = "xrpc://satellite:8080" and fast = "xrpc://rack-mate" in
  Cost.observe sj ~dest:slow ~estimated_ms:1.0 ~measured_ms:8.0;
  check floatish "slow dest gets its own factor" 8.0
    (Cost.calibration ~dest:slow sj);
  check int_ "and its own run count" 1 (Cost.runs ~dest:slow sj);
  check floatish "global EMA absorbed the run too" 8.0 (Cost.calibration sj);
  (* an unmeasured destination inherits the global factor, not 1.0 *)
  check floatish "unseen dest falls back to global" 8.0
    (Cost.calibration ~dest:fast sj);
  check int_ "unseen dest has no runs" 0 (Cost.runs ~dest:fast sj);
  (* measuring the fast destination separates the two *)
  Cost.observe sj ~dest:fast ~estimated_ms:4.0 ~measured_ms:2.0;
  check floatish "fast dest factor" 0.5 (Cost.calibration ~dest:fast sj);
  check floatish "slow dest unchanged" 8.0 (Cost.calibration ~dest:slow sj);
  check bool_ "calibration_text lists the destinations" true
    (contains (Cost.calibration_text ()) "satellite"
    && contains (Cost.calibration_text ()) "rack-mate")

let test_feedback_per_destination_flips_choice () =
  with_clean_calibration @@ fun () ->
  let sj = Strategies.Distributed_semijoin in
  let slow = "xrpc://satellite:8080" in
  let est =
    Cost.total (Cost.estimate Cost.default_net Cost.zero_cpu selective_site sj)
  in
  Cost.observe sj ~dest:slow ~estimated_ms:est ~measured_ms:(est *. 10.);
  (* the global EMA moved too (it absorbs every observation), but a
     steady diet of honest runs elsewhere decays it back toward 1.0 while
     the slow destination's own factor stays put at 10.  Decay until the
     global factor sits safely inside the pushdown/semi-join cost gap. *)
  let gap =
    Cost.total
      (Cost.estimate Cost.default_net Cost.zero_cpu selective_site
         Strategies.Predicate_pushdown)
    /. est
  in
  while Cost.calibration sj > 1.0 +. ((gap -. 1.0) /. 2.) do
    Cost.observe sj ~estimated_ms:est ~measured_ms:est
  done;
  let at_slow =
    Cost.choose ~dest:slow Cost.default_net Cost.zero_cpu selective_site
  in
  let elsewhere = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check string_ "slow destination flips to pushdown" "pushdown"
    (Strategies.short_name at_slow.Cost.chosen.Cost.strategy);
  check string_ "other destinations keep the semi-join" "semijoin"
    (Strategies.short_name elsewhere.Cost.chosen.Cost.strategy)

let test_feedback_per_destination_replay () =
  with_clean_calibration @@ fun () ->
  Flight_recorder.reset ();
  Fun.protect ~finally:Flight_recorder.reset @@ fun () ->
  let sj = Strategies.Distributed_semijoin in
  let dest = "xrpc://satellite:8080" in
  (* the label round-trips the destination *)
  let label = Cost.flight_label ~dest sj ~estimated_ms:1.0 ~measured_ms:3.0 in
  (match Cost.parse_flight_label label with
  | Some (s, Some d, est, meas) ->
      check string_ "label strategy" "semijoin" (Strategies.short_name s);
      check string_ "label dest" dest d;
      check floatish "label est" 1.0 est;
      check floatish "label meas" 3.0 meas
  | _ -> Alcotest.fail ("unparseable flight label: " ^ label));
  ignore (Cost.record_run ~dest sj ~estimated_ms:1.0 ~measured_ms:3.0);
  ignore (Cost.record_run sj ~estimated_ms:1.0 ~measured_ms:1.0);
  let f_dest = Cost.calibration ~dest sj and f_global = Cost.calibration sj in
  (* a fresh session replays the recorder and reconstructs both scopes *)
  Cost.reset_calibration ();
  check int_ "both entries replay" 2 (Cost.replay_flight ());
  check floatish "per-dest factor reconstructed" f_dest
    (Cost.calibration ~dest sj);
  check floatish "global factor reconstructed" f_global (Cost.calibration sj);
  check int_ "per-dest runs reconstructed" 1 (Cost.runs ~dest sj)

(* ------------------------------------------------------------------ *)
(* Explain surfaces                                                    *)
(* ------------------------------------------------------------------ *)

let test_explain_decision () =
  with_clean_calibration @@ fun () ->
  let d = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  let text = Cost.explain_decision d in
  check bool_ "names the winner" true
    (contains text "chosen: distributed semi-join");
  (* the rejected alternatives appear, with estimates *)
  List.iter
    (fun s ->
      check bool_ ("lists " ^ Strategies.name s) true
        (contains text (Strategies.name s)))
    Strategies.all;
  check bool_ "estimates rendered" true (contains text "est=");
  check bool_ "winner is arrow-tagged" true (contains text "-> distributed");
  let forced =
    Cost.choose ~force:Strategies.Data_shipping Cost.default_net Cost.zero_cpu
      selective_site
  in
  check bool_ "forced decisions say so" true
    (contains (Cost.explain_decision forced) "(forced by XRPC_FORCE_STRATEGY)");
  check string_ "chosen" "semijoin" (Strategies.short_name d.Cost.chosen.Cost.strategy);
  check bool_ "not forced" false d.Cost.forced;
  check bool_ "per-strategy costs" true
    (List.exists
       (fun c -> Strategies.short_name c.Cost.strategy = "relocation")
       d.Cost.ranked)

let q7 =
  {
    Strategies.local_doc = "persons.xml";
    remote_uri = "xrpc://B";
    remote_doc = "auctions.xml";
    module_ns = "functions_b";
    module_at = "http://example.org/b.xq";
  }

let test_execute_sites_analysis () =
  let sites strategy =
    Runner.execute_sites
      (Parser.parse_prog (Strategies.query ~local_uri:"xrpc://A" q7 strategy))
  in
  check int_ "data shipping has no execute-at site" 0
    (List.length (sites Strategies.Data_shipping));
  (match sites Strategies.Predicate_pushdown with
  | [ s ] ->
      check bool_ "pushdown dest is the literal" true
        (s.Runner.site_dest = Some "xrpc://B");
      check string_ "pushdown calls Q_B1" "Q_B1" s.Runner.site_fn.Qname.local;
      check int_ "no arguments" 0 s.Runner.site_arity;
      (* the call sits in a for-clause source but depends on nothing the
         loop binds: hoistable, the Q7_1 pattern *)
      check bool_ "in a loop" true s.Runner.site_in_loop;
      check bool_ "loop-invariant" false s.Runner.site_loop_dependent
  | l -> Alcotest.failf "pushdown: expected 1 site, got %d" (List.length l));
  (match sites Strategies.Execution_relocation with
  | [ s ] ->
      check bool_ "relocation runs outside any loop" false s.Runner.site_in_loop;
      check bool_ "loop-invariant" false s.Runner.site_loop_dependent;
      check int_ "persons URL argument" 1 s.Runner.site_arity
  | l -> Alcotest.failf "relocation: expected 1 site, got %d" (List.length l));
  (match sites Strategies.Distributed_semijoin with
  | [ s ] ->
      check string_ "semi-join calls the probe" "Q_B3" s.Runner.site_fn.Qname.local;
      check bool_ "in a loop" true s.Runner.site_in_loop;
      (* the per-person key makes this the Bulk-RPC semi-join shape *)
      check bool_ "loop-DEPENDENT" true s.Runner.site_loop_dependent
  | l -> Alcotest.failf "semi-join: expected 1 site, got %d" (List.length l));
  (* a computed destination cannot be resolved statically *)
  let dynamic =
    Runner.execute_sites
      (Parser.parse_prog
         {|import module namespace b = "functions_b" at "http://example.org/b.xq";
for $d in ("xrpc://B", "xrpc://C") return execute at {$d} { b:Q_B1() }|})
  in
  (match dynamic with
  | [ s ] ->
      check bool_ "dynamic dest is unknown" true (s.Runner.site_dest = None);
      check bool_ "and loop-dependent (dest varies per iteration)" true
        s.Runner.site_loop_dependent
  | l -> Alcotest.failf "dynamic: expected 1 site, got %d" (List.length l));
  (* the dispatch each site gets, per RPC mode *)
  let dispatches ?funcs rpc_mode source =
    List.map
      (fun s -> s.Runner.site_dispatch)
      (Runner.execute_sites ~rpc_mode ?funcs (Parser.parse_prog source))
  in
  let q7 strategy = Strategies.query ~local_uri:"xrpc://A" q7 strategy in
  let expect what expected actual =
    check bool_ what true (actual = expected)
  in
  expect "pushdown, bulk: hoisted" [ Runner.Hoisted ]
    (dispatches Xctx.Rpc_bulk (q7 Strategies.Predicate_pushdown));
  expect "pushdown, singles: its invariant clause runs once" [ Runner.Single ]
    (dispatches Xctx.Rpc_singles (q7 Strategies.Predicate_pushdown));
  expect "semi-join, bulk: one Bulk RPC" [ Runner.Bulk ]
    (dispatches Xctx.Rpc_bulk (q7 Strategies.Distributed_semijoin));
  expect "semi-join, singles: one call per iteration" [ Runner.Per_iteration ]
    (dispatches Xctx.Rpc_singles (q7 Strategies.Distributed_semijoin));
  expect "relocation: a single call" [ Runner.Single ]
    (dispatches Xctx.Rpc_bulk (q7 Strategies.Execution_relocation));
  let q6 =
    {|for $x in (1, 2)
return (execute at {"xrpc://B"} {f($x)}, execute at {"xrpc://C"} {g($x)})|}
  in
  expect "Q6 return sequence, bulk" [ Runner.Bulk; Runner.Bulk ]
    (dispatches Xctx.Rpc_bulk q6);
  expect "Q6 return sequence, singles"
    [ Runner.Per_iteration; Runner.Per_iteration ]
    (dispatches Xctx.Rpc_singles q6);
  expect "a first clause has one tuple: nothing to hoist" [ Runner.Bulk ]
    (dispatches Xctx.Rpc_bulk
       {|let $r := execute at {"xrpc://B"} {f()} return $r|});
  expect "a predicate runs per item" [ Runner.Per_iteration ]
    (dispatches Xctx.Rpc_bulk
       {|doc("d.xml")//person[execute at {"xrpc://B"} {f(.)}]|});
  (* bulk_execute never hoists an updating call *)
  let updating =
    {|declare updating function local:u() { () };
for $i in (1, 2) return execute at {"xrpc://B"} {local:u()}|}
  in
  let compiled = Peer.compiled_plan (Peer.create "xrpc://sites.local") updating in
  expect "an invariant updating call is not hoisted" [ Runner.Bulk ]
    (dispatches ~funcs:compiled.Xrpc_peer.Plan_cache.funcs Xctx.Rpc_bulk
       updating);
  expect "without the registry it would be" [ Runner.Hoisted ]
    (dispatches Xctx.Rpc_bulk updating)

let test_explain_table2_note () =
  let plan =
    Cost.explain_plan ~rpc_mode:Xctx.Rpc_bulk
      (Parser.parse_prog {|execute at {"xrpc://B"} { probe(1, 2) }|})
  in
  check bool_ "the site's dispatch" true
    (contains plan "span bulkrpc — a single call outside any loop");
  check bool_ "Table-2 note on the site" true
    (contains plan "table2 probe/2 -> xrpc://B: @100 iters bulk=");
  check bool_ "against one-at-a-time" true (contains plan "one-at-a-time=")

(* the site section of a rendered plan: from "site N:" to the next site *)
let site_section plan n =
  let from = Printf.sprintf "site %d:" n in
  let rec find i =
    if String.sub plan i (String.length from) = from then i else find (i + 1)
  in
  let start = find 0 in
  let stop =
    try find (start + 1) with Invalid_argument _ -> String.length plan
  in
  String.sub plan start (stop - start)

let test_explain_dest_calibration () =
  with_clean_calibration @@ fun () ->
  let plan () =
    Cost.explain_plan ~rpc_mode:Xctx.Rpc_bulk
      (Parser.parse_prog
         {|(execute at {"xrpc://B"} { probe() }, execute at {"xrpc://C"} { probe() })|})
  in
  let before = plan () in
  let site = { Cost.default_site with Cost.outer_rows = 100 } in
  let choose ?dest () = Cost.choose ?dest Cost.default_net Cost.zero_cpu site in
  let base = (choose ()).Cost.chosen in
  (* the default winner measures 1000x its estimate at B only; C has its
     own history, which agrees with the model *)
  let est = Cost.total base in
  for _ = 1 to 20 do
    Cost.observe ~dest:"xrpc://B" base.Cost.strategy ~estimated_ms:est
      ~measured_ms:(est *. 1000.);
    Cost.observe ~dest:"xrpc://C" base.Cost.strategy ~estimated_ms:est
      ~measured_ms:est
  done;
  let at_b = (choose ~dest:"xrpc://B" ()).Cost.chosen in
  check bool_ "B's winner flipped" true (at_b.Cost.strategy <> base.Cost.strategy);
  let after = plan () in
  let b = site_section after 1 in
  check bool_ "B's section names the flipped winner" true
    (contains b ("chosen: " ^ Strategies.name at_b.Cost.strategy));
  check bool_ "with the cal number it was ranked by" true
    (contains b
       (Printf.sprintf "-> %s" (Cost.cost_line ~dest:"xrpc://B" at_b)));
  check bool_ "the demoted winner shows its B calibration" true
    (contains b (Printf.sprintf "(cal %8.3fms)"
       (Cost.calibrated_total ~dest:"xrpc://B" base)));
  check string_ "C's section is unchanged" (site_section before 2)
    (site_section after 2)

(* ------------------------------------------------------------------ *)
(* Measured crossover on deterministic Simnet                          *)
(* ------------------------------------------------------------------ *)

type setting = {
  s_name : string;
  s_scale : Xmark.scale;
  s_latency_ms : float;
  s_bandwidth : float;
}

(* the bench's --quick settings: paper selectivity, everything-matches
   (pushdown overtakes the semi-join), high latency (relocation's extra
   round trip hurts most) *)
let settings =
  let scale p a m = { Xmark.persons = p; auctions = a; matches = m } in
  [
    { s_name = "paper-selectivity"; s_scale = scale 50 400 6;
      s_latency_ms = 0.6; s_bandwidth = 125_000. };
    { s_name = "all-match"; s_scale = scale 120 80 80;
      s_latency_ms = 0.6; s_bandwidth = 125_000. };
    { s_name = "high-latency"; s_scale = scale 50 400 6;
      s_latency_ms = 40.; s_bandwidth = 125_000. };
  ]

(* A (native) + B (wrapper, join detection on); charge_cpu=false keeps the
   virtual clock purely model-driven, so runs are bit-replayable *)
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
  Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at (Strategies.functions_b q7);
  (cluster, a, String.length persons_xml, String.length auctions_xml)

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
  let site, _ =
    Client.measure_site client ~dest:"xrpc://B" ~site:site0
      ~module_uri:q7.Strategies.module_ns ~location:q7.Strategies.module_at
      ~fn:"Q_B1" []
  in
  site

let test_measured_crossover () =
  List.iter
    (fun setting ->
      (* each setting is its own deployment: the EMA must not leak across
         network parameters (a ratio learned at 0.6ms is wrong at 40ms) *)
      with_clean_calibration @@ fun () ->
      let cluster, a, persons_bytes, auctions_bytes = build_cluster setting in
      let net =
        {
          Cost.latency_ms = setting.s_latency_ms;
          bandwidth_bytes_per_ms = setting.s_bandwidth;
        }
      in
      let baseline =
        Xdm.to_display
          (Peer.query_seq a
             (Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Data_shipping))
      in
      let site =
        probe_site cluster setting ~persons_bytes ~auctions_bytes
          ~result_bytes:(String.length baseline)
      in
      let chosen =
        (Cost.choose net Cost.zero_cpu site).Cost.chosen.Cost.strategy
      in
      let measured =
        List.map
          (fun strategy ->
            Cluster.reset_stats cluster;
            let r =
              Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7 strategy)
            in
            check string_
              (Printf.sprintf "%s: %s answers like data shipping"
                 setting.s_name (Strategies.name strategy))
              baseline (Xdm.to_display r);
            let stats = Cluster.stats cluster in
            (strategy, stats.Simnet.network_ms))
          Strategies.all
      in
      let fastest, _ =
        List.fold_left
          (fun (bs, bm) (s, m) -> if m < bm then (s, m) else (bs, bm))
          (List.hd measured) measured
      in
      check string_
        (Printf.sprintf "%s: the optimizer picked the measured-fastest"
           setting.s_name)
        (Strategies.short_name fastest)
        (Strategies.short_name chosen);
      (* feed the measurements back; the calibrated re-choice on this
         deployment must keep agreeing *)
      List.iter
        (fun (strategy, ms) ->
          let est = Cost.total (Cost.estimate net Cost.zero_cpu site strategy) in
          ignore (Cost.record_run strategy ~estimated_ms:est ~measured_ms:ms))
        measured;
      check string_
        (Printf.sprintf "%s: calibrated re-choice still agrees" setting.s_name)
        (Strategies.short_name fastest)
        (Strategies.short_name
           (Cost.choose net Cost.zero_cpu site).Cost.chosen.Cost.strategy))
    settings

let test_forced_bulk_vs_singles () =
  (* the Table 2 claim, live: the same semi-join forced one-at-a-time
     sends more messages, costs more virtual time, answers identically *)
  let setting =
    { s_name = "table2"; s_scale = { Xmark.persons = 12; auctions = 30; matches = 4 };
      s_latency_ms = 0.6; s_bandwidth = 125_000. }
  in
  let measure mode =
    let cluster, a, _, _ = build_cluster setting in
    with_env_strategy mode @@ fun () ->
    Cluster.reset_stats cluster;
    let r =
      Peer.query_seq a
        (Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Distributed_semijoin)
    in
    let stats = Cluster.stats cluster in
    (Xdm.to_display r, stats.Simnet.network_ms, stats.Simnet.messages)
  in
  let bulk_disp, bulk_ms, bulk_msgs = measure "bulk" in
  let singles_disp, singles_ms, singles_msgs = measure "singles" in
  check string_ "identical answers either way" bulk_disp singles_disp;
  check bool_
    (Printf.sprintf "one-at-a-time sends more messages (%d vs %d)" singles_msgs
       bulk_msgs)
    true (singles_msgs > bulk_msgs);
  check bool_ "and costs more virtual time" true (singles_ms > bulk_ms);
  let est_bulk, est_singles =
    Cost.estimate_rpc Cost.default_net ~ncalls:setting.s_scale.Xmark.persons
      ~bytes_per_call:128 ()
  in
  check bool_ "the model agrees with the measured ordering" true
    (est_bulk < est_singles)

let test_estimator_annotation () =
  (* install_estimator: profiled Bulk RPC dispatches carry a Table-2
     annotation (predicted bulk vs singles cost next to the measurement) *)
  let setting =
    { s_name = "annot"; s_scale = { Xmark.persons = 8; auctions = 20; matches = 3 };
      s_latency_ms = 0.6; s_bandwidth = 125_000. }
  in
  let _, a, _, _ = build_cluster setting in
  let semijoin = Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Distributed_semijoin in
  let _, bare = Profile.profiled ~label:"bare" (fun () -> Peer.query_seq a semijoin) in
  check bool_ "no estimator, no annotation" true
    (not
       (List.exists (fun s -> contains s "table2") (Profile.annotations bare)));
  Cost.install_estimator ();
  Fun.protect ~finally:Cost.uninstall_estimator @@ fun () ->
  let _, profile =
    Profile.profiled ~label:"annotated" (fun () -> Peer.query_seq a semijoin)
  in
  let notes = Profile.annotations profile in
  check bool_ "Table-2 annotation present" true
    (List.exists (fun s -> contains s "table2 Q_B3") notes);
  check bool_ "it compares bulk against singles" true
    (List.exists (fun s -> contains s "bulk=" && contains s "singles=") notes);
  check bool_ "rendered profiles show the optimizer section" true
    (contains (Profile.render profile) "optimizer:")

(* :explain agrees with :profile on every Q7 strategy, in both modes *)
let test_explain_agrees_with_profile () =
  let setting =
    { s_name = "agree"; s_scale = { Xmark.persons = 8; auctions = 20; matches = 3 };
      s_latency_ms = 0.6; s_bandwidth = 125_000. }
  in
  List.iter
    (fun (mode, strategy, span) ->
      let _, a, _, _ = build_cluster setting in
      a.Peer.config <- { a.Peer.config with Peer.rpc_mode = mode };
      let plan =
        Explain_check.agree a ~iterations:setting.s_scale.Xmark.persons
          (Strategies.query ~local_uri:"xrpc://A" q7 strategy)
      in
      check bool_
        (Printf.sprintf "%s/%s: %s" (Xctx.rpc_mode_name mode)
           (Strategies.short_name strategy) span)
        true (contains plan span))
    [
      (Xctx.Rpc_bulk, Strategies.Data_shipping, "0 execute-at sites");
      (Xctx.Rpc_bulk, Strategies.Predicate_pushdown, "span rpc — hoisted");
      (Xctx.Rpc_bulk, Strategies.Execution_relocation, "span bulkrpc — a single call");
      (Xctx.Rpc_bulk, Strategies.Distributed_semijoin, "span bulkrpc — one Bulk RPC");
      (Xctx.Rpc_singles, Strategies.Data_shipping, "0 execute-at sites");
      (Xctx.Rpc_singles, Strategies.Predicate_pushdown, "span bulkrpc — a single call");
      (Xctx.Rpc_singles, Strategies.Execution_relocation, "span bulkrpc — a single call");
      (Xctx.Rpc_singles, Strategies.Distributed_semijoin,
       "span bulkrpc — one call per iteration");
    ]

(* ------------------------------------------------------------------ *)
(* Chaos differential: the optimizer never changes answers             *)
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

let chaos_seeds () =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> List.init 4 (fun i -> 40 + i)

let fault_replay_hint seed = Printf.sprintf "FAULT_SEED=%d dune runtest" seed

let test_chaos_differential () =
  (* the acceptance property: every strategy the optimizer can pick
     returns answers identical to plain Bulk RPC data shipping, even
     under fault schedules — a run may fail outright, it may never
     return a silently different answer *)
  with_clean_calibration @@ fun () ->
  let scale = { Xmark.persons = 20; auctions = 60; matches = 5 } in
  let sim = { Simnet.default_config with Simnet.charge_cpu = false } in
  let make_cluster ?faults () =
    let cluster =
      Cluster.create ~config:sim ?faults ~policy:chaos_policy
        ~names:[ "A"; "B" ] ()
    in
    let a = Cluster.peer cluster "A" and b = Cluster.peer cluster "B" in
    Database.add_doc_xml a.Peer.db "persons.xml"
      (Xmark.persons ~count:scale.Xmark.persons ());
    Database.add_doc_xml b.Peer.db "auctions.xml"
      (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
         ~persons_count:scale.Xmark.persons ());
    Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
      ~location:q7.Strategies.module_at (Strategies.functions_b q7);
    (cluster, a)
  in
  let run a strategy =
    Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7 strategy)
  in
  (* fault-free reference: plain Bulk RPC data shipping, plus the
     optimizer's pick for this deployment (probed live) *)
  let clean_cluster, clean_a = make_cluster () in
  let reference = Xdm.to_display (run clean_a Strategies.Data_shipping) in
  let persons_bytes =
    String.length (Xmark.persons ~count:scale.Xmark.persons ())
  in
  let auctions_bytes =
    String.length
      (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
         ~persons_count:scale.Xmark.persons ())
  in
  let setting =
    { s_name = "chaos"; s_scale = scale; s_latency_ms = 0.6;
      s_bandwidth = 125_000. }
  in
  let site =
    probe_site clean_cluster setting ~persons_bytes ~auctions_bytes
      ~result_bytes:(String.length reference)
  in
  let chosen =
    (Cost.choose Cost.default_net Cost.zero_cpu site).Cost.chosen.Cost.strategy
  in
  let ran = ref 0 and gave_up = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun strategy ->
          let _, a = make_cluster ~faults:(Simnet.chaos ~seed ~loss:0.05 ()) () in
          match run a strategy with
          | r ->
              incr ran;
              if Xdm.to_display r <> reference then
                Alcotest.failf
                  "seed %d: %s%s diverged from plain Bulk RPC under faults\n\
                   replay: %s"
                  seed (Strategies.name strategy)
                  (if strategy = chosen then " (the optimizer's pick)" else "")
                  (fault_replay_hint seed)
          | exception _ -> incr gave_up)
        Strategies.all)
    (chaos_seeds ());
  if List.length (chaos_seeds ()) > 1 && !ran = 0 then
    Alcotest.fail "every chaos run failed outright; the differential proved nothing"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "optimizer"
    [
      ( "cost-model",
        [
          Alcotest.test_case "per-strategy message counts and payloads" `Quick
            test_message_counts;
          Alcotest.test_case "Table 2: bulk vs one-at-a-time estimates" `Quick
            test_table2_estimates;
          Alcotest.test_case "crossover: selectivity" `Quick
            test_model_crossover_selectivity;
          Alcotest.test_case "crossover: latency and bandwidth" `Quick
            test_model_crossover_latency;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "site statistics (seeded battery)" `Quick
            test_monotone_site_stats;
          Alcotest.test_case "latency and bandwidth (seeded battery)" `Quick
            test_monotone_network;
          Alcotest.test_case "per-peer CPU (seeded battery)" `Quick
            test_monotone_cpu;
        ] );
      ( "choice",
        [
          Alcotest.test_case "ranking is cheapest-first" `Quick test_choose_ranks;
          Alcotest.test_case "force override" `Quick test_choose_force;
          Alcotest.test_case "strategy name round-trips" `Quick
            test_strategy_names;
          Alcotest.test_case "XRPC_FORCE_STRATEGY" `Quick test_force_env;
          Alcotest.test_case "rpc-mode parsing" `Quick test_rpc_mode_parsing;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "EMA calibration" `Quick test_feedback_ema;
          Alcotest.test_case "measured runs flip the choice" `Quick
            test_feedback_flips_choice;
          Alcotest.test_case "flight-recorder replay" `Quick
            test_feedback_flight_replay;
          Alcotest.test_case "per-destination calibration" `Quick
            test_feedback_per_destination;
          Alcotest.test_case "per-destination choice flip" `Quick
            test_feedback_per_destination_flips_choice;
          Alcotest.test_case "per-destination flight replay" `Quick
            test_feedback_per_destination_replay;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decision rendering and JSON" `Quick
            test_explain_decision;
          Alcotest.test_case "static execute-at site analysis" `Quick
            test_execute_sites_analysis;
          Alcotest.test_case "table2 note per site" `Quick test_explain_table2_note;
          Alcotest.test_case "per-destination calibration" `Quick
            test_explain_dest_calibration;
          Alcotest.test_case ":explain agrees with :profile" `Quick
            test_explain_agrees_with_profile;
        ] );
      ( "measured",
        [
          Alcotest.test_case "crossover: choice == measured fastest" `Quick
            test_measured_crossover;
          Alcotest.test_case "forced bulk vs one-at-a-time" `Quick
            test_forced_bulk_vs_singles;
          Alcotest.test_case "profiled Table-2 annotation" `Quick
            test_estimator_annotation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "optimizer picks never change answers" `Quick
            test_chaos_differential;
        ] );
    ]
