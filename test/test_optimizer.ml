(* Cost-based strategy optimizer suite (§5 strategies, Tables 2-4 model).

   Covers, in rough order: the per-strategy shape of the cost estimates
   (message counts, payload directions), the Table-2 Bulk-vs-singles
   estimator, model-level crossover points (selectivity flips semi-join vs
   pushdown, latency punishes relocation's extra round trip), a seeded
   monotonicity battery (growing any additive statistic — rows, bytes,
   latency — or shrinking bandwidth never lowers a strategy's cost; replay
   with OPT_SEED=<n> dune runtest), the ranking, strategy names and the
   configured RPC mode, the :explain surfaces (static execute-at site
   analysis, the Table-2 note per site, agreement with :profile),
   measured crossover reproduction on deterministic Simnet (the
   optimizer's choice must be the measured-fastest strategy at every
   setting, as in bench/optimizer_bench.ml), Bulk RPC vs one-at-a-time
   through the peer's [config.rpc_mode], and a chaos differential
   battery: whatever strategy the optimizer picks must return answers
   identical to plain Bulk RPC data shipping, or fail outright — never a
   silently different answer (replay with FAULT_SEED=<n> dune runtest). *)

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
(* Choosing, names, RPC modes                                          *)
(* ------------------------------------------------------------------ *)

let test_choose_ranks () =
  let d = Cost.choose Cost.default_net Cost.zero_cpu selective_site in
  check int_ "all four strategies ranked" 4 (List.length d.Cost.ranked);
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
        Cost.total a <= Cost.total b && sorted rest
    | _ -> true
  in
  check bool_ "ranking is cheapest-first" true (sorted d.Cost.ranked)

(* a short name (the bench JSON key) identifies its strategy *)
let test_strategy_names () =
  List.iter
    (fun s ->
      check bool_
        ("short_name round-trips: " ^ Strategies.short_name s)
        true
        (List.filter
           (fun x -> Strategies.short_name x = Strategies.short_name s)
           Strategies.all
        = [ s ]))
    Strategies.all;
  check int_ "display names are collision-free" 4
    (List.length
       (List.sort_uniq compare (List.map Strategies.name Strategies.all)))

(* the mode is the peer's config field, and :explain reads it from there *)
let test_rpc_mode_parsing () =
  check string_ "bulk renders" "bulk" (Xctx.rpc_mode_name Xctx.Rpc_bulk);
  check string_ "singles renders" "singles" (Xctx.rpc_mode_name Xctx.Rpc_singles);
  check bool_ "bulk is the default" true
    (Peer.default_config.Peer.rpc_mode = Xctx.Rpc_bulk);
  let peer =
    Peer.create
      ~config:{ Peer.default_config with Peer.rpc_mode = Xctx.Rpc_singles }
      "xrpc://modes.local"
  in
  let plan =
    Cost.explain_plan ~rpc_mode:peer.Peer.config.rpc_mode
      (Parser.parse_prog {|for $i in (1, 2) return execute at {"xrpc://B"} {f($i)}|})
  in
  check bool_ "the plan runs in the configured mode" true
    (contains plan "plan (rpc mode singles)");
  check bool_ "and dispatches per iteration" true
    (contains plan "one call per iteration")

(* ------------------------------------------------------------------ *)
(* Explain surfaces                                                    *)
(* ------------------------------------------------------------------ *)

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
        (Strategies.short_name chosen))
    settings

let test_forced_bulk_vs_singles () =
  (* the Table 2 claim, live: the same semi-join run one-at-a-time
     (the coordinator's config.rpc_mode) sends more messages, costs more
     virtual time, answers identically *)
  let setting =
    { s_name = "table2"; s_scale = { Xmark.persons = 12; auctions = 30; matches = 4 };
      s_latency_ms = 0.6; s_bandwidth = 125_000. }
  in
  let measure mode =
    let cluster, a, _, _ = build_cluster setting in
    a.Peer.config <- { a.Peer.config with Peer.rpc_mode = mode };
    Cluster.reset_stats cluster;
    let r =
      Peer.query_seq a
        (Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Distributed_semijoin)
    in
    let stats = Cluster.stats cluster in
    (Xdm.to_display r, stats.Simnet.network_ms, stats.Simnet.messages)
  in
  let bulk_disp, bulk_ms, bulk_msgs = measure Xctx.Rpc_bulk in
  let singles_disp, singles_ms, singles_msgs = measure Xctx.Rpc_singles in
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
          Alcotest.test_case "strategy name round-trips" `Quick
            test_strategy_names;
          Alcotest.test_case "rpc-mode parsing" `Quick test_rpc_mode_parsing;
        ] );
      ( "explain",
        [
          Alcotest.test_case "static execute-at site analysis" `Quick
            test_execute_sites_analysis;
          Alcotest.test_case "table2 note per site" `Quick test_explain_table2_note;
          Alcotest.test_case ":explain agrees with :profile" `Quick
            test_explain_agrees_with_profile;
        ] );
      ( "measured",
        [
          Alcotest.test_case "crossover: choice == measured fastest" `Quick
            test_measured_crossover;
          Alcotest.test_case "forced bulk vs one-at-a-time" `Quick
            test_forced_bulk_vs_singles;
        ] );
      ( "differential",
        [
          Alcotest.test_case "optimizer picks never change answers" `Quick
            test_chaos_differential;
        ] );
    ]
