(* Profiling suite: the Profile fold over a Trace collection and its
   operator / destination accounting, per-request span slices under
   concurrency, the always-on flight recorder (ring eviction,
   pinned slow queries, concurrent writers), the Chrome trace-event and
   span-tree exporters, the metrics satellites (histogram clamping,
   labeled series), and the end-to-end acceptance of the PR — profiling a
   distributed query over two simulated peers yields per-destination
   byte/call counts and the remote side's parse/compile/exec phase
   breakdown, at zero recording cost when profiling is off. *)

open Xrpc_xml
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile
module Flight_recorder = Xrpc_obs.Flight_recorder
module Export = Xrpc_obs.Export
module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Simnet = Xrpc_net.Simnet
module Message = Xrpc_soap.Message
module Cost = Xrpc_core.Cost
module Xctx = Xrpc_xquery.Context
module Ops = Xrpc_algebra.Ops
module Table = Xrpc_algebra.Table
module Parser = Xrpc_xquery.Parser
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let has needle hay =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let assert_has what needle hay =
  if not (has needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle hay

(* Every test leaves the global observability state as it found it. *)
let with_clean f =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.use_wall_clock ();
      Trace.reset ();
      Flight_recorder.set_slow_ms 250.;
      Flight_recorder.reset ())
    f

let fake_clock () =
  let t = ref 0. in
  Trace.set_clock (fun () -> !t);
  t

(* A JSON value printed and read back strictly: exporter tests fail on
   any broken quoting/commas, then look members up in what was read. *)
let assert_json what v = Json_check.parse_ok what (Xrpc_obs.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Metrics satellites: clamping, labels                                *)
(* ------------------------------------------------------------------ *)

let test_histogram_clamps_bad_durations () =
  Metrics.reset ();
  let h = Metrics.histogram "p.clamp_ms" in
  Metrics.observe h (-5.);
  Metrics.observe h Float.nan;
  Metrics.observe h 3.;
  check int_ "all three observations counted" 3 h.Metrics.n;
  check (Alcotest.float 1e-9) "negatives and NaN clamp to zero" 3. h.Metrics.sum;
  check bool_ "quantile stays finite" true
    (Float.is_finite (Metrics.quantile h 0.99))

let test_labeled_series_canonical () =
  check string_ "labels sorted by key" {|m{a="x",z="1"}|}
    (Metrics.with_labels "m" [ ("z", "1"); ("a", "x") ]);
  check string_ "same set, any order, same series"
    (Metrics.with_labels "m" [ ("a", "x"); ("z", "1") ])
    (Metrics.with_labels "m" [ ("z", "1"); ("a", "x") ]);
  check string_ "no labels, bare name" "m" (Metrics.with_labels "m" []);
  check string_ "quotes, backslashes, newlines escaped"
    "m{k=\"a\\\"b\\nc\\\\d\"}"
    (Metrics.with_labels "m" [ ("k", "a\"b\nc\\d") ]);
  check string_ "histogram suffix goes before the label set"
    {|lat_count{dest="y"}|}
    (Metrics.suffixed {|lat{dest="y"}|} "_count")

let test_labeled_series_in_text_export () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter (Metrics.with_labels "p.req" [ ("dest", "y") ]));
  Metrics.incr_by
    (Metrics.counter (Metrics.with_labels "p.req" [ ("dest", "x") ]))
    2;
  let h = Metrics.histogram (Metrics.with_labels "p.lat_ms" [ ("dest", "y") ]) in
  Metrics.observe h 4.;
  let text = Metrics.(to_text (snapshot ())) in
  assert_has "x series" {|p.req{dest="x"} 2|} text;
  assert_has "y series" {|p.req{dest="y"} 1|} text;
  assert_has "histogram count series" {|p.lat_ms_count{dest="y"} 1|} text;
  (* series dump is sorted, so the export is diff-able run to run *)
  let ix = String.index text 'x' in
  ignore ix;
  let posx =
    match String.split_on_char '\n' text with
    | lines ->
        let rec find i = function
          | [] -> (-1, -1)
          | l :: rest ->
              if has {|p.req{dest="x"}|} l then (i, snd (find (i + 1) rest))
              else if has {|p.req{dest="y"}|} l then (fst (find (i + 1) rest), i)
              else find (i + 1) rest
        in
        find 0 lines
  in
  (match posx with
  | ix, iy when ix >= 0 && iy >= 0 ->
      check bool_ "x sorts before y" true (ix < iy)
  | _ -> Alcotest.fail "labeled series missing from text export");
  ignore (assert_json "metrics json export" Metrics.(to_json (snapshot ())))

(* ------------------------------------------------------------------ *)
(* Exporters over a hand-built span tree                               *)
(* ------------------------------------------------------------------ *)

let build_spans () =
  let t = fake_clock () in
  Trace.set_enabled true;
  Trace.with_span ~detail:"root d" "root" (fun () ->
      t := 1.;
      Trace.with_span "child" (fun () ->
          t := 2.;
          Trace.event ~detail:"ed" "tick";
          t := 3.);
      t := 10.);
  Trace.spans ()

let test_chrome_trace_export () =
  with_clean @@ fun () ->
  let spans = build_spans () in
  let json = assert_json "chrome trace" (Export.chrome_trace spans) in
  let open Json_check in
  let events = items (member "traceEvents" json) in
  (* one complete event per span, one instant event per span event *)
  let ph p = List.filter (fun e -> str (member "ph" e) = p) events in
  check int_ "two complete events" 2 (List.length (ph "X"));
  check int_ "one instant event" 1 (List.length (ph "i"));
  let named n l = List.find (fun e -> str (member "name" e) = n) l in
  let float_ = Alcotest.float 1e-9 in
  (* microsecond timestamps: child [1ms,3ms] nests inside root [0,10ms] *)
  check float_ "child start" 1000. (num (member "ts" (named "child" (ph "X"))));
  check float_ "child duration" 2000. (num (member "dur" (named "child" (ph "X"))));
  check float_ "root duration" 10000. (num (member "dur" (named "root" (ph "X"))));
  check float_ "event timestamp" 2000. (num (member "ts" (named "tick" (ph "i"))));
  (* parentage is preserved in args, so the tree is reconstructable *)
  let root = List.find (fun s -> s.Trace.name = "root") spans in
  check string_ "child points at root" root.Trace.span_id
    (str (get (named "child" (ph "X")) [ "args"; "parent" ]));
  check string_ "detail preserved" "root d"
    (str (get (named "root" (ph "X")) [ "args"; "detail" ]));
  check bool_ "no open spans flagged" false
    (List.exists (fun e -> has "open" (member "args" e)) events)

let test_span_tree_json_export () =
  with_clean @@ fun () ->
  let spans = build_spans () in
  let json = assert_json "span tree json" (Export.span_tree_json spans) in
  let open Json_check in
  let root =
    match items (member "spans" json) with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one root, got %d" (List.length l)
  in
  check string_ "root node" "root" (str (member "name" root));
  let child =
    match items (member "children" root) with
    | [ c ] -> c
    | l -> Alcotest.failf "expected one child, got %d" (List.length l)
  in
  check string_ "child nested" "child" (str (member "name" child));
  check (Alcotest.float 1e-9) "durations" 2. (num (member "dur_ms" child));
  check string_ "event list" "tick"
    (str (member "name" (List.hd (items (member "events" child)))))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let rec_one ?error ~ms i =
  ignore
    (Flight_recorder.record ?error
       ~label:(Printf.sprintf "q%d" i)
       ~duration_ms:ms ~spans:[] ())

let test_flight_ring_eviction () =
  with_clean @@ fun () ->
  Flight_recorder.set_slow_ms 1e9;
  Flight_recorder.reset ();
  let cap = Flight_recorder.capacity in
  let n = cap + 12 in
  for i = 1 to n do
    rec_one ~ms:(float_of_int i) i
  done;
  check int_ "all recordings counted" n (Flight_recorder.snapshot ()).Flight_recorder.s_total;
  let rs = Flight_recorder.recent () in
  check int_ "ring bounded" cap (List.length rs);
  check int_ "newest first" n (List.hd rs).Flight_recorder.id;
  check int_ "oldest survivor" 13
    (List.nth rs (cap - 1)).Flight_recorder.id;
  check bool_ "evicted entry unfindable" true (Flight_recorder.find 5 = None);
  check bool_ "live entry findable" true
    (match Flight_recorder.find n with
    | Some e -> e.Flight_recorder.label = Printf.sprintf "q%d" n
    | None -> false);
  check int_ "nothing crossed the slow bar" 0
    (List.length (Flight_recorder.snapshot ()).Flight_recorder.s_pinned)

let test_flight_pinned_slow_queries () =
  with_clean @@ fun () ->
  Flight_recorder.set_slow_ms 100.;
  Flight_recorder.reset ();
  (* four more slow queries than the pinned list holds, 101..120 ms in
     shuffled order (ids 1..20), then a ring's worth of fast traffic *)
  let pinned = Flight_recorder.pinned_capacity in
  let slow = pinned + 4 in
  let ms_of i = 101. +. float_of_int (i * 7 mod slow) in
  for i = 0 to slow - 1 do
    rec_one ~ms:(ms_of i) (i + 1)
  done;
  for i = 1 to Flight_recorder.capacity do
    rec_one ~ms:10. (slow + i)
  done;
  let ps = (Flight_recorder.snapshot ()).Flight_recorder.s_pinned in
  let slowest = 100. +. float_of_int slow in
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "slowest first, bounded"
    (List.init pinned (fun i -> slowest -. float_of_int i))
    (List.map (fun e -> e.Flight_recorder.duration_ms) ps);
  (* every slow query was evicted from the ring by fast traffic; the
     pinned ones stay reachable through their pin, the bumped ones not *)
  let id_of ms =
    1 + Option.get (List.find_index (fun i -> ms_of i = ms) (List.init slow Fun.id))
  in
  let ring_ids =
    List.map (fun e -> e.Flight_recorder.id) (Flight_recorder.recent ())
  in
  check bool_ "slow query evicted from the ring" false
    (List.mem (id_of slowest) ring_ids);
  check bool_ "…but still findable via the pin" true
    (match Flight_recorder.find (id_of slowest) with
    | Some e -> e.Flight_recorder.duration_ms = slowest
    | None -> false);
  check bool_ "a bumped pin is gone" true (Flight_recorder.find (id_of 101.) = None);
  let snap = Flight_recorder.snapshot () in
  assert_has "text export lists pins" "pinned slow queries"
    (Flight_recorder.pinned_text snap);
  assert_has "slow threshold shown" "100" (Flight_recorder.pinned_text snap);
  let json = assert_json "flight json export" (Flight_recorder.to_json snap) in
  check (Alcotest.list (Alcotest.float 1e-9)) "pinned in json"
    (List.map (fun e -> e.Flight_recorder.duration_ms) ps)
    (List.map
       (fun e -> Json_check.(num (member "duration_ms" e)))
       Json_check.(items (member "pinned" json)))

let test_flight_concurrent_writers () =
  with_clean @@ fun () ->
  Flight_recorder.set_slow_ms 90.;
  Flight_recorder.reset ();
  let per_thread = 50 and nthreads = 4 in
  let worker k () =
    for i = 1 to per_thread do
      rec_one ~ms:(float_of_int ((i + k) mod 100)) i
    done
  in
  let ts = List.init nthreads (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ts;
  check int_ "every record counted" (per_thread * nthreads)
    (Flight_recorder.snapshot ()).Flight_recorder.s_total;
  let rs = Flight_recorder.recent () in
  check int_ "ring exactly full" Flight_recorder.capacity (List.length rs);
  let ids = List.map (fun e -> e.Flight_recorder.id) rs in
  check int_ "no duplicate ids in the ring"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let ps = (Flight_recorder.snapshot ()).Flight_recorder.s_pinned in
  check bool_ "pinned list bounded" true
    (List.length ps <= Flight_recorder.pinned_capacity);
  List.iter
    (fun e ->
      if e.Flight_recorder.duration_ms < 90. then
        Alcotest.failf "pinned a fast query (%.0f ms)"
          e.Flight_recorder.duration_ms)
    ps;
  let rec sorted = function
    | a :: b :: rest ->
        a.Flight_recorder.duration_ms >= b.Flight_recorder.duration_ms
        && sorted (b :: rest)
    | _ -> true
  in
  check bool_ "pinned stays sorted under concurrency" true (sorted ps)

(* ------------------------------------------------------------------ *)
(* Profile collection                                                  *)
(* ------------------------------------------------------------------ *)

(* one kernel call's stats, as Ops.timed sums them into the open span *)
let record_op op ~rows_in ~rows_out ms =
  Trace.add (Profile.op_attr "calls" op) 1.;
  Trace.add (Profile.op_attr "rows_in" op) (float_of_int rows_in);
  Trace.add (Profile.op_attr "rows_out" op) (float_of_int rows_out);
  Trace.add (Profile.op_attr "ms" op) ms

let test_profile_nodes_and_ops () =
  with_clean @@ fun () ->
  let t = fake_clock () in
  check bool_ "profiling off by default" false (Trace.recording ());
  let r, p =
    Profile.profiled ~label:"unit" (fun () ->
        Trace.with_span "a" (fun () ->
            t := 2.;
            Trace.with_span ~detail:"d" "b" (fun () ->
                t := 5.;
                record_op "select" ~rows_in:10 ~rows_out:7 1.5;
                record_op "select" ~rows_in:4 ~rows_out:2 0.5));
        42)
  in
  check int_ "thunk result returned" 42 r;
  check bool_ "profiling restored off" false (Trace.recording ());
  check (Alcotest.float 1e-9) "total on the injected clock" 5.
    (Profile.total_ms p);
  check int_ "two plan nodes" 2 (Profile.node_count p);
  (match Profile.nodes p with
  | [ a; b ] ->
      check int_ "stable pre-order ids" 1 a.Profile.id;
      check string_ "names" "b" b.Profile.name;
      check bool_ "parentage" true (b.Profile.parent = Some a.Profile.id);
      check (Alcotest.float 1e-9) "inclusive time of b" 3. b.Profile.incl_ms;
      (match b.Profile.ops with
      | [ ("select", os) ] ->
          check int_ "op calls merged" 2 os.Profile.os_calls;
          check int_ "rows in summed" 14 os.Profile.os_rows_in;
          check int_ "rows out summed" 9 os.Profile.os_rows_out;
          check (Alcotest.float 1e-9) "op time summed" 2. os.Profile.os_ms
      | _ -> Alcotest.fail "expected one merged select op")
  | l -> Alcotest.failf "expected 2 nodes, got %d" (List.length l));
  let text = Profile.render p in
  assert_has "label" "profile unit" text;
  assert_has "node line" "#2 b (d)" text;
  assert_has "cardinality" "select x2  14->9 rows" text;
  assert_has "merged op" "select x2" text;
  let json = assert_json "profile json" (Profile.to_json p) in
  check string_ "label in json" "unit" Json_check.(str (member "label" json))

let test_profile_node_capacity () =
  with_clean @@ fun () ->
  ignore (fake_clock ());
  let (), p =
    Profile.profiled (fun () ->
        for _ = 1 to Trace.capacity + 2 do
          Trace.with_span "n" (fun () -> ())
        done)
  in
  check int_ "nodes capped" Trace.capacity (Profile.node_count p);
  check int_ "overflow counted" 2 (Profile.dropped_count p)

let test_profile_off_records_nothing () =
  with_clean @@ fun () ->
  (* outside [profiled] every hook is a single flag test and a return *)
  check int_ "with_span passes through" 9
    (Trace.with_span "x" (fun () -> 9));
  record_op "select" ~rows_in:1 ~rows_out:1 1.;
  Trace.add (Profile.dest_attr "msgs" "xrpc://y") 1.;
  (* a later profile must not see any of it *)
  let (), p = Profile.profiled (fun () -> ()) in
  check int_ "no leaked nodes" 0 (Profile.node_count p);
  check int_ "no leaked dests" 0 (List.length (Profile.dests p))

let iii rows =
  Table.make [ "iter"; "pos"; "item" ]
    (List.map
       (fun (i, pos, v) ->
         [ Table.Int i; Table.Int pos; Table.Item (Xdm.str v) ])
       rows)

let test_profile_captures_kernel_ops () =
  with_clean @@ fun () ->
  let t = iii [ (1, 1, "a"); (2, 1, "a"); (1, 1, "a") ] in
  let (), p =
    Profile.profiled (fun () ->
        Trace.with_span "plan" (fun () ->
            ignore (Ops.distinct t);
            ignore (Ops.select_eq t "item" (Table.Item (Xdm.str "a")))))
  in
  match Profile.nodes p with
  | [ n ] ->
      let op name =
        match List.assoc_opt name n.Profile.ops with
        | Some os -> os
        | None ->
            Alcotest.failf "kernel op %s missing (have: %s)" name
              (String.concat ", " (List.map fst n.Profile.ops))
      in
      check int_ "distinct rows in" 3 (op "distinct").Profile.os_rows_in;
      check int_ "distinct rows out" 2 (op "distinct").Profile.os_rows_out;
      check int_ "select_eq rows in" 3 (op "select_eq").Profile.os_rows_in;
      check int_ "select_eq rows out" 3 (op "select_eq").Profile.os_rows_out
  | l -> Alcotest.failf "expected the one plan node, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let q_two_peers =
  {|import module namespace t="test" at "http://x.example.org/test.xq";
for $d in ("xrpc://y", "xrpc://z")
return execute at {$d} {t:ping(1)}|}

let test_explain_plan () =
  let plan mode = Cost.explain_plan ~rpc_mode:mode (Parser.parse_prog q_two_peers) in
  let bulk = plan Xctx.Rpc_bulk in
  assert_has "mode named" "plan (rpc mode bulk): 1 execute-at site" bulk;
  assert_has "site listed" "site 1: t:ping/1 at <dynamic> [in loop] [loop-dependent]"
    bulk;
  assert_has "set-at-a-time in bulk mode"
    "span bulkrpc — one Bulk RPC per destination over all iterations" bulk;
  assert_has "Table-2 estimate" "table2 t:ping/1: @100 iters bulk=" bulk;
  assert_has "strategy decision" "chosen: " bulk;
  assert_has "one call per iteration in singles mode"
    "span bulkrpc — one call per iteration" (plan Xctx.Rpc_singles);
  check string_ "stable rendering" bulk (plan Xctx.Rpc_bulk);
  (* path steps: the value probe and the descendant::T index slice
     against axis scans *)
  let steps =
    Cost.explain_plan ~rpc_mode:Xctx.Rpc_bulk
      (Parser.parse_prog
         {|doc("d.xml")//person[@id = "p1"]/name, doc("d.xml")//person[@id],
           doc("d.xml")//person[1]|})
  in
  assert_has "value probe"
    "descendant::person[..] — attribute-value index probe (person, @id)" steps;
  assert_has "index slice"
    "descendant::person[..] — element-name index slice (person)" steps;
  assert_has "child step scans" "child::name — axis scan" steps;
  assert_has "attribute step scans" "attribute::id — axis scan" steps;
  assert_has "positional // keeps the expanded form"
    "descendant-or-self::node() — axis scan" steps;
  assert_has "no sites" "0 execute-at sites" steps;
  check string_ "library modules have no plan"
    "(library module — no query body to explain)\n"
    (Cost.explain_plan ~rpc_mode:Xctx.Rpc_bulk
       (Parser.parse_prog Testmod.test_module))

(* ------------------------------------------------------------------ *)
(* serverProfile attribute round-trip                                     *)
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

(* Message.of_reply inside a collection: the reply and the serverProfile
   phases it summed into the collecting span, in wire order *)
let reply_phases s =
  let m, spans = Trace.collect (fun () -> Message.of_reply ~dest:"d" s) in
  let phase (k, v) =
    let prefix = "remote:" and suffix = ":d" in
    if String.starts_with ~prefix k && String.ends_with ~suffix k then
      Some
        ( String.sub k (String.length prefix)
            (String.length k - String.length prefix - String.length suffix),
          !v )
    else None
  in
  match spans with
  | root :: _ -> (m, List.rev (List.filter_map phase root.Trace.attrs))
  | [] -> (m, [])

let test_server_profile_roundtrip () =
  with_clean @@ fun () ->
  let resp =
    Message.Response
      {
        Message.resp_module = "test";
        resp_method = "ping";
        results = [ [ Xdm.int 1 ] ];
        db_version = None;
        peers = [];
      }
  in
  let s =
    Message.to_string ~server_profile:[ ("parse", 0.5); ("exec", 1.25) ] resp
  in
  (match reply_phases s with
  | Message.Response _, (_ :: _ as phases) ->
      check
        (Alcotest.list (Alcotest.pair string_ (Alcotest.float 1e-9)))
        "phases round-trip in order"
        [ ("parse", 0.5); ("exec", 1.25) ]
        phases
  | _, [] -> Alcotest.fail "serverProfile attribute lost"
  | _ -> Alcotest.fail "bad parse");
  (* a plain response carries no header *)
  (match reply_phases (Message.to_string resp) with
  | _, [] -> ()
  | _, _ :: _ -> Alcotest.fail "spurious serverProfile attribute")

let test_profile_flag_stamped_on_requests () =
  with_clean @@ fun () ->
  (* profiling off: no flag *)
  let _, _, flag = Message.of_string_server (Message.to_string ping_request) in
  check bool_ "no flag when off" false flag;
  (* inside a profiled run every serialized request asks the server to
     measure its phases *)
  let (), _ =
    Profile.profiled (fun () ->
        let _, _, flag =
          Message.of_string_server (Message.to_string ping_request)
        in
        check bool_ "flag when profiling" true flag)
  in
  ()

(* ------------------------------------------------------------------ *)
(* End to end: a profiled distributed query over two simulated peers   *)
(* ------------------------------------------------------------------ *)

let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

let test_cluster () =
  let cluster = Cluster.create ~config:sim_config ~names:[ "x"; "y"; "z" ] () in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  cluster

let test_distributed_profile () =
  with_clean @@ fun () ->
  let cluster = test_cluster () in
  let r, p =
    Cluster.profiled cluster ~label:"q2" (fun () ->
        Peer.query_seq (Cluster.peer cluster "x") q_two_peers)
  in
  check string_ "query answered" "1 1" (Xdm.to_display r);
  check bool_ "total recorded" true (not (Float.is_nan (Profile.total_ms p)));
  (* the Bulk RPC dispatch shows up as a plan node *)
  check bool_ "bulk dispatch node present" true
    (List.exists (fun n -> n.Profile.name = "bulkrpc") (Profile.nodes p));
  (* per-destination accounting: both peers, real bytes both ways, one
     logical call each, and the remote side's phase breakdown *)
  let ds = Profile.dests p in
  check
    (Alcotest.list string_)
    "both destinations accounted" [ "xrpc://y"; "xrpc://z" ] (List.map fst ds);
  List.iter
    (fun (dest, d) ->
      check bool_ (dest ^ " sent a message") true (d.Profile.d_msgs >= 1);
      check int_ (dest ^ " one logical call") 1 d.Profile.d_calls;
      check bool_ (dest ^ " bytes out") true (d.Profile.d_bytes_out > 0);
      check bool_ (dest ^ " bytes in") true (d.Profile.d_bytes_in > 0);
      let remote = List.map fst d.Profile.d_remote in
      List.iter
        (fun ph ->
          if not (List.mem ph remote) then
            Alcotest.failf "%s remote phase %s missing (have: %s)" dest ph
              (String.concat ", " remote))
        [ "parse"; "compile"; "exec" ])
    ds;
  let text = Profile.render p in
  assert_has "label rendered" "profile q2" text;
  assert_has "destination section" "destinations:" text;
  assert_has "remote breakdown rendered" "remote:" text;
  let json = assert_json "profile json export" (Profile.to_json p) in
  check bool_ "destinations in json" true
    Json_check.(keys (member "dests" json) <> [])

(* :explain agrees with :profile on the two-peer query, in both modes *)
let test_explain_agrees_with_profile () =
  with_clean @@ fun () ->
  List.iter
    (fun mode ->
      let cluster = test_cluster () in
      let x = Cluster.peer cluster "x" in
      x.Peer.config <- { x.Peer.config with Peer.rpc_mode = mode };
      ignore (Explain_check.agree x ~iterations:2 q_two_peers))
    [ Xctx.Rpc_bulk; Xctx.Rpc_singles ]

let test_call_profiled () =
  with_clean @@ fun () ->
  let cluster = test_cluster () in
  let r, p =
    Client.call_profiled (Cluster.client cluster) ~dest:"xrpc://y"
      ~module_uri:Testmod.module_ns ~location:Testmod.module_at ~fn:"ping"
      [ [ Xdm.int 7 ] ]
  in
  check string_ "result" "7" (Xdm.to_display r);
  check string_ "label names call and destination" "ping @ xrpc://y"
    (Profile.label p);
  match Profile.dests p with
  | [ ("xrpc://y", d) ] ->
      check int_ "one message" 1 d.Profile.d_msgs;
      check int_ "one call" 1 d.Profile.d_calls;
      check bool_ "bytes out" true (d.Profile.d_bytes_out > 0);
      check bool_ "bytes in" true (d.Profile.d_bytes_in > 0);
      check bool_ "remote exec phase" true
        (List.mem_assoc "exec" d.Profile.d_remote)
  | ds -> Alcotest.failf "expected one destination, got %d" (List.length ds)

(* serverProfile is folded from the serving peer's span slice: the parse
   attribute first, then its compile/exec spans in the order they ran; a
   warm repeat executes again (the module plan comes from the function
   cache, so its compile phase is a lookup) *)
let test_server_phases_from_spans () =
  with_clean @@ fun () ->
  let cluster = test_cluster () in
  let phases () =
    let _, p =
      Client.call_profiled (Cluster.client cluster) ~dest:"xrpc://y"
        ~module_uri:Testmod.module_ns ~location:Testmod.module_at ~fn:"ping"
        [ [ Xdm.int 3 ] ]
    in
    match Profile.dests p with
    | [ (_, d) ] -> List.map fst d.Profile.d_remote
    | _ -> Alcotest.fail "expected one destination"
  in
  check (Alcotest.list string_) "cold call" [ "parse"; "compile"; "exec" ]
    (phases ());
  check (Alcotest.list string_) "warm repeat" [ "parse"; "compile"; "exec" ]
    (phases ())

let test_flight_records_distributed_query () =
  with_clean @@ fun () ->
  Flight_recorder.reset ();
  Flight_recorder.set_slow_ms 1e9;
  let cluster = test_cluster () in
  Cluster.enable_tracing cluster;
  ignore (Peer.query_seq (Cluster.peer cluster "x") q_two_peers);
  Cluster.disable_tracing ();
  (* both remote peers' request handling plus the originating query are
     on the record, without anyone having asked beforehand *)
  check bool_ "at least three entries" true
    ((Flight_recorder.snapshot ()).Flight_recorder.s_total >= 3);
  let rs = Flight_recorder.recent () in
  let by_label pre =
    List.find_opt
      (fun e ->
        String.length e.Flight_recorder.label >= String.length pre
        && String.sub e.Flight_recorder.label 0 (String.length pre) = pre)
      rs
  in
  (match by_label "import module" with
  | Some e ->
      check bool_ "query entry carries spans" true (e.Flight_recorder.spans <> []);
      check bool_ "per-phase rollup present" true
        (List.mem_assoc "peer.handle"
           (List.map
              (fun (n, c, ms) -> (n, (c, ms)))
              (Flight_recorder.phases e)));
      assert_has "signature captured" "query" (Flight_recorder.signature e);
      (* the captured slice exports as a valid Chrome trace *)
      ignore
        (assert_json "per-request chrome trace"
           (Export.chrome_trace e.Flight_recorder.spans))
  | None -> Alcotest.fail "originating query not recorded");
  (match by_label "test:ping" with
  | Some e ->
      check bool_ "server-side phases recorded" true
        (List.exists
           (fun (n, _, _) -> n = "peer.exec" || n = "eval.apply")
           (Flight_recorder.phases e))
  | None ->
      Alcotest.failf "remote handling not recorded (labels: %s)"
        (String.concat " | "
           (List.map (fun e -> e.Flight_recorder.label) rs)));
  assert_has "text export renders" "flight recorder:"
    Flight_recorder.(to_text (snapshot ()))

(* Two traced queries that overlap in time, on two threads: each flight
   entry must hold its own query's span subtree and nothing else — one
   trace id, one [query] span, and phases that sum only its own spans. *)
let test_concurrent_query_slices () =
  with_clean @@ fun () ->
  Flight_recorder.set_slow_ms 1e9;
  Flight_recorder.reset ();
  Trace.set_enabled true;
  let spin tag =
    Printf.sprintf
      {|declare function local:spin($n) {
  count(for $i in 1 to $n where $i mod 7 = 0 return $i) };
(: %s :) local:spin(200000)|}
      tag
  in
  let go = Atomic.make 0 in
  let run tag () =
    let peer = Peer.create ("xrpc://" ^ tag) in
    Atomic.incr go;
    while Atomic.get go < 2 do Thread.yield () done;
    ignore (Peer.query_seq peer (spin tag))
  in
  List.iter Thread.join [ Thread.create (run "a") (); Thread.create (run "b") () ];
  Trace.set_enabled false;
  let entries = Flight_recorder.recent () in
  check int_ "one entry per query" 2 (List.length entries);
  let query_span (e : Flight_recorder.entry) =
    match List.filter (fun s -> s.Trace.name = "query") e.spans with
    | [ q ] -> q
    | qs -> Alcotest.failf "%d query spans in one entry" (List.length qs)
  in
  (match List.map query_span entries with
  | [ q1; q2 ] ->
      check bool_ "the two queries overlapped" true
        (q1.Trace.start_ms < q2.Trace.end_ms
        && q2.Trace.start_ms < q1.Trace.end_ms)
  | _ -> assert false);
  List.iter
    (fun (e : Flight_recorder.entry) ->
      let q = query_span e in
      List.iter
        (fun s ->
          check string_ "one trace id per entry" q.Trace.trace_id s.Trace.trace_id)
        e.spans;
      List.iter
        (fun (name, n, _) ->
          let own =
            List.length (List.filter (fun s -> s.Trace.name = name) e.spans)
          in
          check int_ ("phase " ^ name ^ " counts only its own spans") own n)
        (Flight_recorder.phases e);
      match List.find_opt (fun (n, _, _) -> n = "query") (Flight_recorder.phases e) with
      | Some (_, 1, ms) ->
          check (Alcotest.float 1e-9) "query phase is its own span"
            (Trace.duration_ms q) ms
      | _ -> Alcotest.fail "expected exactly one query phase")
    entries

(* ------------------------------------------------------------------ *)
(* One outgoing path: every message a site sends is counted alike       *)
(* ------------------------------------------------------------------ *)

module Transport = Xrpc_net.Transport
module Strategies = Xrpc_core.Strategies
module Database = Xrpc_peer.Database
module Xmark = Xrpc_workloads.Xmark
module Filmdb = Xrpc_workloads.Filmdb

(* A transport that logs every (dest, request body, reply body). *)
let recording (inner : Transport.t) log =
  Transport.sequential (fun ~dest body ->
      let reply = inner.Transport.send ~dest body in
      log := !log @ [ (dest, body, reply) ];
      reply)

let sent_to dest log = List.filter (fun (d, _, _) -> d = dest) !log
let total f l = List.fold_left (fun acc x -> acc + f x) 0 l
let dest_row p dest =
  match List.assoc_opt dest (Profile.dests p) with
  | Some d -> d
  | None -> Alcotest.failf "no destination row for %s" dest

let has_rpc_span p dest =
  List.exists
    (fun (n : Profile.node) -> n.Profile.name = "rpc" && n.Profile.detail = dest)
    (Profile.nodes p)

(* Q7 as pure data shipping: the getDocument fetch of auctions.xml is a
   destination row whose bytes are exactly what crossed the wire *)
let test_q7_data_shipping_row () =
  with_clean @@ fun () ->
  let cluster = Cluster.create ~config:sim_config ~names:[ "A"; "B" ] () in
  let a = Cluster.peer cluster "A" and b = Cluster.peer cluster "B" in
  let scale = Xmark.small_scale in
  Database.add_doc_xml a.Peer.db "persons.xml"
    (Xmark.persons ~count:scale.Xmark.persons ());
  Database.add_doc_xml b.Peer.db "auctions.xml"
    (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
       ~persons_count:scale.Xmark.persons ());
  let q7 =
    { Strategies.local_doc = "persons.xml"; remote_uri = "xrpc://B";
      remote_doc = "auctions.xml"; module_ns = "functions_b";
      module_at = "http://example.org/b.xq" }
  in
  let log = ref [] in
  Peer.set_transport a (recording (Simnet.transport (Cluster.net cluster)) log);
  let r, p =
    Cluster.profiled cluster (fun () ->
        Peer.query_seq a
          (Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Data_shipping))
  in
  check int_ "six matches" 6 (List.length r);
  let wire = sent_to "xrpc://B" log in
  check int_ "one fetch" 1 (List.length wire);
  let d = dest_row p "xrpc://B" in
  check int_ "one message" 1 d.Profile.d_msgs;
  check int_ "one call" 1 d.Profile.d_calls;
  check int_ "bytes out = request on the wire"
    (total (fun (_, b, _) -> String.length b) wire)
    d.Profile.d_bytes_out;
  check int_ "bytes in = reply on the wire"
    (total (fun (_, _, r) -> String.length r) wire)
    d.Profile.d_bytes_in;
  check bool_ "the fetch has an rpc span" true (has_rpc_span p "xrpc://B");
  assert_has "destination section" "destinations:" (Profile.render p)

let film_cluster () =
  let cluster = Cluster.create ~config:sim_config ~names:[ "x"; "y"; "z" ] () in
  let x = Cluster.peer cluster "x" in
  Filmdb.install (Cluster.peer cluster "y") ();
  Filmdb.install (Cluster.peer cluster "z") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  (cluster, x)

let add_films =
  {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y", "xrpc://z")
return execute at {$dst} {f:addFilm("Counted", "Actor C")}|}

let tx_op body =
  match Message.of_string body with
  | Message.Tx_request (op, _) -> Some op
  | _ -> None

(* a repeatable-isolation update commits with 2PC; the Prepare and Commit
   messages are rows of the profile like the update itself *)
let test_2pc_messages_in_rows () =
  with_clean @@ fun () ->
  let cluster, x = film_cluster () in
  let log = ref [] in
  Peer.set_transport x (recording (Simnet.transport (Cluster.net cluster)) log);
  let r, p = Cluster.profiled cluster (fun () -> Peer.query x add_films) in
  check bool_ "committed" true r.Peer.committed;
  List.iter
    (fun dest ->
      let wire = sent_to dest log in
      check
        (Alcotest.list string_)
        (dest ^ " saw the update, Prepare and Commit")
        [ "request"; "prepare"; "commit" ]
        (List.map
           (fun (_, b, _) ->
             match tx_op b with
             | Some op -> Message.tx_op_name op
             | None -> "request")
           wire);
      let d = dest_row p dest in
      check int_ (dest ^ " msgs") 3 d.Profile.d_msgs;
      check int_ (dest ^ " calls") 1 d.Profile.d_calls;
      check int_ (dest ^ " bytes out")
        (total (fun (_, b, _) -> String.length b) wire)
        d.Profile.d_bytes_out;
      check int_ (dest ^ " bytes in")
        (total (fun (_, _, r) -> String.length r) wire)
        d.Profile.d_bytes_in)
    [ "xrpc://y"; "xrpc://z" ]

(* which messages carry an idemKey: execute-at requests and client
   requests do, each a fresh one; getDocument fetches and 2PC messages
   do not *)
let test_idem_key_kinds () =
  with_clean @@ fun () ->
  let cluster, x = film_cluster () in
  let log = ref [] in
  let wire = recording (Simnet.transport (Cluster.net cluster)) log in
  Peer.set_transport x wire;
  ignore (Peer.query x add_films);
  ignore
    (Peer.query_seq x
       {|count(doc("xrpc://y/filmDB.xml")//film)|});
  let client = Client.connect_transport ~origin:"xrpc://c" wire in
  ignore
    (Client.call client ~dest:"xrpc://y" ~module_uri:Filmdb.module_ns
       ~location:Filmdb.module_at ~fn:"filmsByActor" [ [ Xdm.str "Sean Connery" ] ]);
  let kinds =
    List.map
      (fun (_, body, _) ->
        match Message.of_string body with
        | Message.Request { method_ = "getDocument"; idem_key; _ } ->
            ("getDocument", idem_key)
        | Message.Request { idem_key; _ } -> ("request", idem_key)
        | Message.Tx_request (op, _) -> (Message.tx_op_name op, None)
        | _ -> Alcotest.fail "a non-message was sent")
      !log
  in
  let keyed kind = List.filter_map (fun (k, key) -> if k = kind then key else None) kinds in
  let sent kind = List.length (List.filter (fun (k, _) -> k = kind) kinds) in
  check int_ "3 requests (2 execute at, 1 client)" 3 (sent "request");
  check int_ "every request keyed" 3 (List.length (keyed "request"));
  check int_ "keys are distinct" 3
    (List.length (List.sort_uniq compare (keyed "request")));
  check (Alcotest.list string_) "keys name their origin"
    [ "xrpc://c/1"; "xrpc://x/1"; "xrpc://x/2" ]
    (List.sort compare (keyed "request"));
  check int_ "one fetch" 1 (sent "getDocument");
  check int_ "fetch unkeyed" 0 (List.length (keyed "getDocument"));
  check int_ "2PC: 2 prepares, 2 commits" 4 (sent "prepare" + sent "commit")

let strip_idem_key body =
  let attr = {| idemKey="|} in
  let n = String.length attr in
  let rec find i =
    if i + n > String.length body then Alcotest.failf "no idemKey in %s" body
    else if String.sub body i n = attr then i
    else find (i + 1)
  in
  let i = find 0 in
  let close = String.index_from body (i + n) '"' in
  String.sub body 0 i
  ^ String.sub body (close + 1) (String.length body - close - 1)

(* the same Bulk RPC through the peer's execute-at dispatcher and through
   Xrpc_client.call_bulk: one envelope apart from its key, one row *)
let test_dispatcher_equals_client () =
  with_clean @@ fun () ->
  let run send =
    let cluster = test_cluster () in
    let log = ref [] in
    let wire = recording (Simnet.transport (Cluster.net cluster)) log in
    let (), p = Cluster.profiled cluster (fun () -> send cluster wire) in
    match !log with
    | [ (dest, body, _) ] ->
        let d = dest_row p dest in
        ( dest, strip_idem_key body,
          (d.Profile.d_msgs, d.Profile.d_calls, d.Profile.d_bytes_out,
           d.Profile.d_bytes_in),
          has_rpc_span p dest )
    | l -> Alcotest.failf "expected one message, got %d" (List.length l)
  in
  let via_peer =
    run (fun cluster wire ->
        let x = Cluster.peer cluster "x" in
        Peer.set_transport x wire;
        check string_ "peer answers" "1 2 3"
          (Xdm.to_display
             (Peer.query_seq x
                {|import module namespace t="test" at "http://x.example.org/test.xq";
for $i in (1, 2, 3) return execute at {"xrpc://y"} {t:ping($i)}|})))
  and via_client =
    run (fun _ wire ->
        let c = Client.connect_transport ~origin:"xrpc://x" wire in
        check string_ "client answers" "1 2 3"
          (Xdm.to_display
             (List.concat
                (Client.call_bulk c ~dest:"xrpc://y"
                   ~module_uri:Testmod.module_ns ~location:Testmod.module_at
                   ~fn:"ping"
                   [ [ [ Xdm.int 1 ] ]; [ [ Xdm.int 2 ] ]; [ [ Xdm.int 3 ] ] ]))))
  in
  let dest, body, row, span = via_peer
  and dest', body', row', span' = via_client in
  check string_ "same destination" dest dest';
  check string_ "same envelope apart from idemKey" body body';
  let msgs, calls, out, inb = row and msgs', calls', out', inb' = row' in
  check
    (Alcotest.list int_)
    "same destination row" [ msgs; calls; out; inb ] [ msgs'; calls'; out'; inb' ];
  check int_ "one message" 1 msgs;
  check int_ "three calls" 3 calls;
  check bool_ "both in an rpc span" true (span && span')

let () =
  Alcotest.run "profile"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram clamps bad durations" `Quick
            test_histogram_clamps_bad_durations;
          Alcotest.test_case "canonical labeled series" `Quick
            test_labeled_series_canonical;
          Alcotest.test_case "labels in text export" `Quick
            test_labeled_series_in_text_export;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace events" `Quick
            test_chrome_trace_export;
          Alcotest.test_case "span tree json" `Quick test_span_tree_json_export;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring eviction" `Quick test_flight_ring_eviction;
          Alcotest.test_case "pinned slow queries" `Quick
            test_flight_pinned_slow_queries;
          Alcotest.test_case "concurrent writers" `Quick
            test_flight_concurrent_writers;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nodes, rows and merged ops" `Quick
            test_profile_nodes_and_ops;
          Alcotest.test_case "bounded plan nodes" `Quick
            test_profile_node_capacity;
          Alcotest.test_case "off records nothing" `Quick
            test_profile_off_records_nothing;
          Alcotest.test_case "kernel ops attributed" `Quick
            test_profile_captures_kernel_ops;
        ] );
      ( "explain",
        [ Alcotest.test_case "static plan rendering" `Quick test_explain_plan ]
      );
      ( "propagation",
        [
          Alcotest.test_case "serverProfile round-trip" `Quick
            test_server_profile_roundtrip;
          Alcotest.test_case "profile flag on requests" `Quick
            test_profile_flag_stamped_on_requests;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "profiled two-peer query" `Quick
            test_distributed_profile;
          Alcotest.test_case ":explain agrees with :profile" `Quick
            test_explain_agrees_with_profile;
          Alcotest.test_case "call_profiled" `Quick test_call_profiled;
          Alcotest.test_case "serverProfile phases from spans" `Quick
            test_server_phases_from_spans;
          Alcotest.test_case "flight recorder sees the query" `Quick
            test_flight_records_distributed_query;
          Alcotest.test_case "overlapping queries keep their own slices"
            `Quick test_concurrent_query_slices;
        ] );
      ( "outbound",
        [
          Alcotest.test_case "Q7 data shipping has a destination row" `Quick
            test_q7_data_shipping_row;
          Alcotest.test_case "2PC messages in the destination rows" `Quick
            test_2pc_messages_in_rows;
          Alcotest.test_case "which messages carry an idemKey" `Quick
            test_idem_key_kinds;
          Alcotest.test_case "dispatcher and client send one envelope" `Quick
            test_dispatcher_equals_client;
        ] );
    ]
