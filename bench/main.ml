(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§3.1, §3.3, Table 2, Table 3, §5 Table 4, Figures 1/2), plus
   Bechamel micro-benchmarks for the CPU-bound building blocks.

   Methodology (see DESIGN.md / EXPERIMENTS.md): CPU costs are measured for
   real on this machine; network costs are charged by the deterministic
   Simnet model (latency + bytes/bandwidth, parallel dispatch = max); the
   ~130 ms MonetDB module-translation cost of §3.3 is charged per
   module-cache miss during the timed run.  Absolute numbers differ from
   the paper's 2007 testbed; the comparisons within each table are what
   must (and do) reproduce. *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Strategies = Xrpc_core.Strategies
module Peer = Xrpc_peer.Peer
module Wrapper = Xrpc_peer.Wrapper
module Database = Xrpc_peer.Database
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod
module Xmark = Xrpc_workloads.Xmark
module Message = Xrpc_soap.Message
module Profile = Xrpc_obs.Profile

let quick = Array.exists (( = ) "--quick") Sys.argv
let only_tables = Array.exists (( = ) "--tables") Sys.argv
let skip_micro = Array.exists (( = ) "--no-micro") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let now_ms () = Unix.gettimeofday () *. 1000.

(* adaptive timer: warm once, then repeat until ~50 ms of samples (a single
   rep suffices for the slow reference kernels at 10k rows) *)
let time_ns f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = now_ms () in
  let reps = ref 0 in
  while now_ms () -. t0 < 50. && !reps < 1000 do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  (now_ms () -. t0) *. 1e6 /. float_of_int !reps

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ================================================================== *)
(* Table 2: XRPC performance — loop-lifted vs one-at-a-time,           *)
(*          function cache vs no function cache                        *)
(* ================================================================== *)

(* the paper's measured MonetDB module translation cost (§3.3) *)
let modeled_compile_ms = 130.

let table2 () =
  header
    "Table 2: XRPC performance (ms): loop-lifted vs one-at-a-time; function cache vs no function cache";
  Printf.printf
    "(echoVoid over XRPC; network modeled at %.1f ms one-way latency; module\n\
    \ compilation modeled at %.0f ms per cache miss, the paper's MonetDB figure)\n"
    Simnet.default_config.Simnet.latency_ms modeled_compile_ms;
  let run ~bulk ~warm_cache ~iterations =
    let cluster = Cluster.create ~names:[ "x"; "y" ] () in
    let x = Cluster.peer cluster "x" and y = Cluster.peer cluster "y" in
    Peer.register_module y ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    Peer.register_module x ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    x.Peer.config <- {
        x.Peer.config with
        Peer.rpc_mode = (if bulk then Xrpc_xquery.Context.Rpc_bulk else Rpc_singles);
      };
    let query = Testmod.echo_void_query ~dest:"xrpc://y" ~iterations in
    if warm_cache then
      (* prime the server-side function cache; its miss is not timed *)
      ignore
        (Peer.query_seq x (Testmod.echo_void_query ~dest:"xrpc://y" ~iterations:1));
    Cluster.reset_stats cluster;
    let misses0 = (Peer.cache_stats y).Peer.func_misses in
    let t0 = now_ms () in
    ignore (Peer.query_seq x query);
    let wall = now_ms () -. t0 in
    let compiles = (Peer.cache_stats y).Peer.func_misses - misses0 in
    wall +. (Cluster.stats cluster).Simnet.network_ms
    +. (float_of_int compiles *. modeled_compile_ms)
  in
  let iters_hi = if quick then 100 else 1000 in
  Printf.printf "%-14s | %-25s | %-25s\n" "" "No Function Cache"
    "With Function Cache";
  Printf.printf "%-14s | %10s %12s | %10s %12s\n" "" "$x=1"
    (Printf.sprintf "$x=%d" iters_hi)
    "$x=1"
    (Printf.sprintf "$x=%d" iters_hi);
  let row label ~bulk =
    let c1 = run ~bulk ~warm_cache:false ~iterations:1 in
    let c2 = run ~bulk ~warm_cache:false ~iterations:iters_hi in
    let c3 = run ~bulk ~warm_cache:true ~iterations:1 in
    let c4 = run ~bulk ~warm_cache:true ~iterations:iters_hi in
    Printf.printf "%-14s | %10.1f %12.1f | %10.1f %12.1f\n" label c1 c2 c3 c4;
    (c1, c2, c3, c4)
  in
  let one1, one2, one3, one4 = row "one-at-a-time" ~bulk:false in
  let bulk1, bulk2, bulk3, bulk4 = row "bulk" ~bulk:true in
  Printf.printf
    "shape check: bulk beats one-at-a-time at $x=%d by %.0fx (no cache), %.0fx (cache)\n"
    iters_hi (one2 /. bulk2) (one4 /. bulk4);
  Printf.printf "paper reported:  133 | 2696 | 2.6 | 2696   (one-at-a-time)\n";
  Printf.printf "                 130 |  134 | 2.7 |    4   (bulk)\n";
  if json_out then
    write_file "BENCH_table2.json"
      (Printf.sprintf
         "{\n\
         \  \"iterations_hi\": %d,\n\
         \  \"ms\": {\n\
         \    \"one_at_a_time\": { \"x1_nocache\": %.2f, \"xN_nocache\": %.2f, \"x1_cache\": %.2f, \"xN_cache\": %.2f },\n\
         \    \"bulk\": { \"x1_nocache\": %.2f, \"xN_nocache\": %.2f, \"x1_cache\": %.2f, \"xN_cache\": %.2f }\n\
         \  },\n\
         \  \"bulk_speedup_at_xN\": { \"no_cache\": %.1f, \"cache\": %.1f }\n\
          }\n"
         iters_hi one1 one2 one3 one4 bulk1 bulk2 bulk3 bulk4
         (one2 /. bulk2) (one4 /. bulk4))

(* ================================================================== *)
(* Algebra kernels: columnar hash/sort vs the row-at-a-time reference  *)
(* ================================================================== *)

let algebra_bench () =
  header "Algebra kernels: columnar hash/sort vs Ops_reference (ns/op)";
  let module Table = Xrpc_algebra.Table in
  let module Ops = Xrpc_algebra.Ops in
  let module Ref = Xrpc_algebra.Ops_reference in
  (* iter repeats every n/5 rows (duplicate join/group keys), item cycles
     through 97 values — all 10k full rows stay distinct *)
  let mk n =
    Table.make [ "iter"; "pos"; "item" ]
      (List.init n (fun i ->
           [ Table.Int ((i mod max 1 (n / 5)) + 1); Table.Int 1;
             Table.Item (Xdm.int (i mod 97)) ]))
  in
  let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 10000 ] in
  let kernels =
    [
      ( "equi_join",
        (fun t -> ignore (Ops.equi_join t "iter" t "iter")),
        fun t -> ignore (Ref.equi_join t "iter" t "iter") );
      ( "distinct",
        (fun t -> ignore (Ops.distinct t)),
        fun t -> ignore (Ref.distinct t) );
      ( "rank",
        (fun t ->
          ignore
            (Ops.rank t ~new_col:"rk" ~order_by:[ "item" ] ~partition:"iter" ())),
        fun t ->
          ignore
            (Ref.rank t ~new_col:"rk" ~order_by:[ "item" ] ~partition:"iter" ())
      );
      ( "merge_union",
        (fun t -> ignore (Ops.merge_union_on_iter [ t; t ])),
        fun t -> ignore (Ref.merge_union_on_iter [ t; t ]) );
    ]
  in
  let results =
    List.map
      (fun (name, opt, reference) ->
        let per_size =
          List.map
            (fun n ->
              let t = mk n in
              let o = time_ns (fun () -> opt t) in
              let r = time_ns (fun () -> reference t) in
              Printf.printf
                "%-12s %6d rows: %12.0f ns opt  %14.0f ns ref  (%7.1fx)\n" name
                n o r (r /. o);
              (n, o, r))
            sizes
        in
        (name, per_size))
      kernels
  in
  (* Bulk RPC assembly: the full Figure-2 rule with a zero-cost network stub,
     so only the relational request build + response reassembly is measured.
     Linear assembly ⟹ 10x the calls costs ~10x the time. *)
  let bulk_ms k =
    let dst =
      Table.make [ "iter"; "pos"; "item" ]
        (List.init k (fun i ->
             [ Table.Int (i + 1); Table.Int 1; Table.Item (Xdm.str "xrpc://p") ]))
    in
    let param =
      Table.make [ "iter"; "pos"; "item" ]
        (List.init k (fun i ->
             [ Table.Int (i + 1); Table.Int 1; Table.Item (Xdm.int i) ]))
    in
    let call ~dest:_ (req : Message.request) =
      Message.Response
        {
          Message.resp_module = req.Message.module_uri;
          resp_method = req.Message.method_;
          results = List.map (fun _ -> [ Xdm.int 0 ]) req.Message.calls;
          db_version = None;
          peers = [];
        }
    in
    let f () =
      ignore
        (Xrpc_algebra.Bulk_rpc.execute ~dst ~params:[ param ] ~module_uri:"m"
           ~location:"l" ~method_:"f" ~call ())
    in
    (* best of 15 — GC noise otherwise dominates the sub-ms runs *)
    f ();
    let best = ref infinity in
    for _ = 1 to 15 do
      let t0 = now_ms () in
      f ();
      let d = now_ms () -. t0 in
      if d < !best then best := d
    done;
    !best
  in
  let b100 = bulk_ms 100 and b1000 = bulk_ms 1000 in
  let b10000 = bulk_ms 10000 in
  Printf.printf
    "bulk assembly: 100 calls %6.2f ms   1000 calls %6.2f ms   10000 calls %6.2f ms\n\
    \  (10x calls -> %.1fx / %.1fx time; ~13x is the n log n sort factor,\n\
    \   quadratic assembly would be ~100x per step)\n"
    b100 b1000 b10000 (b1000 /. b100) (b10000 /. b1000);
  if json_out then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"kernels\": {\n";
    List.iteri
      (fun i (name, per_size) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (Printf.sprintf "    %S: { " name);
        List.iteri
          (fun j (n, o, r) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf
                 "\"%d\": { \"opt_ns\": %.0f, \"ref_ns\": %.0f, \"speedup\": %.1f }"
                 n o r (r /. o)))
          per_size;
        Buffer.add_string buf " }")
      results;
    Buffer.add_string buf
      (Printf.sprintf
         "\n  },\n\
         \  \"bulk_assembly\": { \"calls_100_ms\": %.3f, \"calls_1000_ms\": %.3f, \"calls_10000_ms\": %.3f, \"scaling_10x_calls\": %.2f, \"scaling_10x_calls_large\": %.2f, \"note\": \"linear assembly with n log n sorts; quadratic would scale ~100x per 10x\" }\n\
          }\n"
         b100 b1000 b10000 (b1000 /. b100) (b10000 /. b1000));
    write_file "BENCH_algebra.json" (Buffer.contents buf)
  end

(* ================================================================== *)
(* §3.3 Throughput: request/response payload scaling                   *)
(* ================================================================== *)

let throughput () =
  header "Throughput (§3.3): payload scaling — XRPC is CPU-bound on a fast LAN";
  let cluster = Cluster.create ~names:[ "x"; "y" ] () in
  let x = Cluster.peer cluster "x" and y = Cluster.peer cluster "y" in
  Peer.register_module y ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  Peer.register_module x ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  ignore (Peer.query_seq x (Testmod.upload_query ~dest:"xrpc://y" ~chunks:1));
  let sizes = if quick then [ 64; 1024 ] else [ 64; 512; 4096; 16384 ] in
  Printf.printf "%-10s | %-18s | %-18s\n" "payload" "request MB/s"
    "response MB/s";
  List.iter
    (fun chunks ->
      let bytes = chunks * 16 in
      let measure query =
        Cluster.reset_stats cluster;
        let t0 = now_ms () in
        ignore (Peer.query_seq x query);
        let wall = now_ms () -. t0 in
        float_of_int bytes /. 1024. /. 1024. /. (wall /. 1000.)
      in
      let up = measure (Testmod.upload_query ~dest:"xrpc://y" ~chunks) in
      let down = measure (Testmod.download_query ~dest:"xrpc://y" ~chunks) in
      Printf.printf "%7d KB | %18.1f | %18.1f\n" (bytes / 1024) up down)
    sizes;
  Printf.printf
    "paper reported: 8 MB/s (requests), 14 MB/s (responses) — bounded by\n\
     shredding/serialization CPU, not the 1 Gb/s network; the same holds here.\n"

(* ================================================================== *)
(* Table 3: Saxon (wrapper) latency                                    *)
(* ================================================================== *)

(* Run [f] profiled: its result, and the time the wrapper's spans of each
   Table-3 column (compile, treebuild, exec) took inside it. *)
let wrapper_phases f =
  let r, profile = Profile.profiled f in
  let ms phase =
    List.fold_left
      (fun acc (n : Profile.node) ->
        if n.Profile.name = "wrapper." ^ phase then acc +. n.Profile.incl_ms
        else acc)
      0. (Profile.nodes profile)
  in
  (r, (ms "compile", ms "treebuild", ms "exec"))

let table3 () =
  header "Table 3: wrapper-peer latency via the XRPC wrapper (msec)";
  Printf.printf
    "(our tree-walking interpreter behind the Figure-3 wrapper stands in for\n\
    \ Saxon-B 8.7; no function cache, so every request pays compile + treebuild)\n";
  let persons_count = if quick then 50 else 250 in
  let iters_hi = if quick then 100 else 1000 in
  let make_wrapper ~join_detect =
    let cluster = Cluster.create ~names:[ "mdb" ] () in
    let mdb = Cluster.peer cluster "mdb" in
    let w = Cluster.add_wrapper cluster ~join_detect "saxon" in
    Wrapper.register_module w ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    Wrapper.register_module w ~uri:Xmark.functions_ns
      ~location:Xmark.functions_at Xmark.functions_module;
    Database.add_doc_xml w.Wrapper.db "persons.xml"
      (Xmark.persons ~count:persons_count ());
    Peer.register_module mdb ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    Peer.register_module mdb ~uri:Xmark.functions_ns
      ~location:Xmark.functions_at Xmark.functions_module;
    (cluster, mdb, w)
  in
  Printf.printf "%-28s | %9s %9s %10s %9s\n" "" "total" "compile" "treebuild"
    "exec";
  let row label ~join_detect query =
    let cluster, mdb, _ = make_wrapper ~join_detect in
    Cluster.reset_stats cluster;
    let t0 = now_ms () in
    let _, (compile, treebuild, exec) =
      wrapper_phases (fun () -> Peer.query_seq mdb query)
    in
    let total = now_ms () -. t0 +. (Cluster.stats cluster).Simnet.network_ms in
    Printf.printf "%-28s | %9.1f %9.1f %10.1f %9.1f\n" label total compile
      treebuild exec;
    (total, exec)
  in
  let ev1, _ =
    row "echoVoid $x=1" ~join_detect:false
      (Testmod.echo_void_query ~dest:"xrpc://saxon" ~iterations:1)
  in
  let evN, _ =
    row
      (Printf.sprintf "echoVoid $x=%d" iters_hi)
      ~join_detect:false
      (Testmod.echo_void_query ~dest:"xrpc://saxon" ~iterations:iters_hi)
  in
  let gp1, _ =
    row "getPerson $x=1" ~join_detect:true
      (Testmod.get_person_query ~dest:"xrpc://saxon" ~iterations:1
         ~persons_count)
  in
  let gpN, gpN_exec =
    row
      (Printf.sprintf "getPerson $x=%d" iters_hi)
      ~join_detect:true
      (Testmod.get_person_query ~dest:"xrpc://saxon" ~iterations:iters_hi
         ~persons_count)
  in
  let _, gpN_noopt_exec =
    row
      (Printf.sprintf "getPerson $x=%d (no join)" iters_hi)
      ~join_detect:false
      (Testmod.get_person_query ~dest:"xrpc://saxon" ~iterations:iters_hi
         ~persons_count)
  in
  Printf.printf
    "shape check: Bulk RPC amortizes wrapper latency — %d echoVoid calls cost\n\
    \ %.1fx one call (paper: 2.1x); bulk getPerson with join detection costs\n\
    \ %.1fx one call (paper: 1.9x); without the join plan, exec is %.1fx slower.\n"
    iters_hi (evN /. ev1) (gpN /. gp1)
    (gpN_noopt_exec /. gpN_exec);
  Printf.printf
    "paper reported (total/compile/treebuild/exec):\n\
    \  echoVoid  $x=1: 275/178/4.6/92      $x=1000: 590/178/86/325\n\
    \  getPerson $x=1: 4276/185/1956/2134  $x=1000: 8167/185/1973/6010\n"

(* ================================================================== *)
(* Table 4: Q7 distributed strategies                                  *)
(* ================================================================== *)

let table4 () =
  header
    "Table 4: execution time (ms) of Q7 distributed over a native XRPC peer (A) and a wrapper peer (B)";
  let scale = if quick then Xmark.small_scale else Xmark.default_scale in
  Printf.printf
    "(XMark-like data: %d persons at A, %d closed auctions at B, %d matches)\n"
    scale.Xmark.persons scale.Xmark.auctions scale.Xmark.matches;
  let cluster = Cluster.create ~names:[ "A" ] () in
  let a = Cluster.peer cluster "A" in
  let b = Cluster.add_wrapper cluster ~join_detect:true "B" in
  Wrapper.set_transport b (Simnet.transport (Cluster.net cluster));
  Database.add_doc_xml a.Peer.db "persons.xml"
    (Xmark.persons ~count:scale.Xmark.persons ());
  Database.add_doc_xml b.Wrapper.db "auctions.xml"
    (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
       ~persons_count:scale.Xmark.persons ());
  let q7 =
    {
      Strategies.local_doc = "persons.xml";
      remote_uri = "xrpc://B";
      remote_doc = "auctions.xml";
      module_ns = "functions_b";
      module_at = "http://example.org/b.xq";
    }
  in
  let module_src = Strategies.functions_b q7 in
  Peer.register_module a ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at module_src;
  Wrapper.register_module b ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at module_src;
  Printf.printf "%-22s | %10s %12s %12s | %5s %10s\n" "" "Total" "A (local)"
    "B (+comm)" "msgs" "bytes";
  List.iter
    (fun strategy ->
      Cluster.reset_stats cluster;
      let query = Strategies.query ~local_uri:"xrpc://A" q7 strategy in
      let t0 = now_ms () in
      let result, (compile, treebuild, exec) =
        wrapper_phases (fun () -> Peer.query_seq a query)
      in
      let wall = now_ms () -. t0 in
      let stats = Cluster.stats cluster in
      let b_cpu = compile +. treebuild +. exec in
      let total = wall +. stats.Simnet.network_ms in
      Printf.printf "%-22s | %10.1f %12.1f %12.1f | %5d %10d   (%d results)\n"
        (Strategies.name strategy)
        total (wall -. b_cpu)
        (b_cpu +. stats.Simnet.network_ms)
        stats.Simnet.messages
        (stats.Simnet.bytes_sent + stats.Simnet.bytes_received)
        (List.length result))
    Strategies.all;
  Printf.printf
    "paper reported (Total | MonetDB | Saxon+comm):\n\
    \  data shipping 28122|16457|11665   predicate push-down 25799|2961|22838\n\
    \  execution relocation 53184|69|53115   distributed semi-join 10278|118|10160\n"

(* ================================================================== *)
(* Figures: §3.1 loop-lifting tables (Q5) and Figure 1 (Bulk RPC)      *)
(* ================================================================== *)

let figures () =
  header "§3.1: loop-lifted representation of Q5";
  print_endline
    "for $x in (10,20) return for $y in (100,200) let $z := ($x,$y) return $z";
  let module Table = Xrpc_algebra.Table in
  let module Looplift = Xrpc_algebra.Looplift in
  (* the paper's x/y/z tables in the innermost scope *)
  let x_t =
    Table.of_sequences
      [ (1, [ Xdm.int 10 ]); (2, [ Xdm.int 10 ]); (3, [ Xdm.int 20 ]);
        (4, [ Xdm.int 20 ]) ]
  in
  let y_t =
    Table.of_sequences
      [ (1, [ Xdm.int 100 ]); (2, [ Xdm.int 200 ]); (3, [ Xdm.int 100 ]);
        (4, [ Xdm.int 200 ]) ]
  in
  let z_t =
    Table.of_sequences
      [ (1, [ Xdm.int 10; Xdm.int 100 ]); (2, [ Xdm.int 10; Xdm.int 200 ]);
        (3, [ Xdm.int 20; Xdm.int 100 ]); (4, [ Xdm.int 20; Xdm.int 200 ]) ]
  in
  Printf.printf "\nx =\n%s\n\ny =\n%s\n\nz =\n%s\n" (Table.to_string x_t)
    (Table.to_string y_t) (Table.to_string z_t);
  let q5 =
    Xrpc_xquery.Parser.parse_expression
      "for $x in (10,20) return for $y in (100,200) let $z := ($x, $y) return $z"
  in
  let env = Looplift.make_env ~call:(fun ~dest:_ _ -> failwith "no net") () in
  Printf.printf "\nloop-lifted evaluation yields: %s\n"
    (Xdm.to_display (Looplift.run env q5));

  header "Figure 1: relational processing of Bulk RPC (multiple destinations, Q3)";
  let call ~dest (req : Message.request) =
    let answer actor =
      match (dest, actor) with
      | "xrpc://y.example.org", "Sean Connery" ->
          [ Xdm.str "The Rock"; Xdm.str "Goldfinger" ]
      | "xrpc://z.example.org", "Julie Andrews" -> [ Xdm.str "Sound Of Music" ]
      | _ -> []
    in
    Message.Response
      {
        resp_module = req.Message.module_uri;
        resp_method = req.Message.method_;
        results =
          List.map
            (fun c -> answer (Xdm.string_value (List.hd (List.hd c))))
            req.Message.calls;
        db_version = None;
        peers = [ dest ];
      }
  in
  let iii rows =
    Table.make [ "iter"; "pos"; "item" ]
      (List.map
         (fun (i, p, v) -> [ Table.Int i; Table.Int p; Table.Item (Xdm.str v) ])
         rows)
  in
  let dst =
    iii
      [ (1, 1, "xrpc://y.example.org"); (2, 1, "xrpc://z.example.org");
        (3, 1, "xrpc://y.example.org"); (4, 1, "xrpc://z.example.org") ]
  in
  let actor =
    iii
      [ (1, 1, "Julie Andrews"); (2, 1, "Julie Andrews");
        (3, 1, "Sean Connery"); (4, 1, "Sean Connery") ]
  in
  let _, trace =
    Xrpc_algebra.Bulk_rpc.execute ~dst ~params:[ actor ] ~module_uri:"films"
      ~location:"http://x.example.org/film.xq" ~method_:"filmsByActor" ~call ()
  in
  List.iter
    (fun (name, t) -> Printf.printf "\n%s =\n%s\n" name (Table.to_string t))
    trace

(* ================================================================== *)
(* Bechamel micro-benchmarks                                           *)
(* ================================================================== *)

let micro () =
  header "Bechamel micro-benchmarks (CPU-bound building blocks, one per table)";
  let open Bechamel in
  (* Table 1: algebra operators *)
  let algebra_table =
    Xrpc_algebra.Table.of_sequences
      (List.init 200 (fun i -> (i + 1, [ Xdm.int i; Xdm.str "x" ])))
  in
  let bench_table1 =
    Test.make ~name:"table1/rank+project+join"
      (Staged.stage (fun () ->
           let r =
             Xrpc_algebra.Ops.rank algebra_table ~new_col:"rk"
               ~order_by:[ "iter"; "pos" ] ()
           in
           let p =
             Xrpc_algebra.Ops.project r [ ("iter", "iter"); ("rk", "rk") ]
           in
           ignore (Xrpc_algebra.Ops.equi_join p "iter" algebra_table "iter")))
  in
  (* Table 2: one bulk message round trip (serialize + handle + parse) *)
  let peer = Peer.create "xrpc://bench" in
  Peer.register_module peer ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  let bulk_body =
    Message.to_string
      (Message.Request
         {
           Message.module_uri = Testmod.module_ns;
           location = Testmod.module_at;
           method_ = "ping";
           arity = 1;
           updating = false;
           fragments = false;
           query_id = None;
           idem_key = None;
           calls = List.init 100 (fun i -> [ [ Xdm.int i ] ]);
         })
  in
  ignore (Peer.handle_raw peer bulk_body);
  let bench_table2 =
    Test.make ~name:"table2/bulk-rpc-100-calls"
      (Staged.stage (fun () ->
           ignore (Message.of_string (Peer.handle_raw peer bulk_body))))
  in
  (* Table 3: one request through the Figure-3 wrapper *)
  let w = Wrapper.create "xrpc://bench-wrapper" in
  Wrapper.register_module w ~uri:Xmark.functions_ns ~location:Xmark.functions_at
    Xmark.functions_module;
  Database.add_doc_xml w.Wrapper.db "persons.xml" (Xmark.persons ~count:50 ());
  let wrapper_body =
    Message.to_string
      (Message.Request
         {
           Message.module_uri = Xmark.functions_ns;
           location = Xmark.functions_at;
           method_ = "getPerson";
           arity = 2;
           updating = false;
           fragments = false;
           query_id = None;
           idem_key = None;
           calls = [ [ [ Xdm.str "persons.xml" ]; [ Xdm.str "person7" ] ] ];
         })
  in
  let bench_table3 =
    Test.make ~name:"table3/wrapper-request"
      (Staged.stage (fun () -> ignore (Wrapper.handle_raw w wrapper_body)))
  in
  (* Table 4: semi-join probes answered by the bulk index join *)
  let jpeer = Peer.create "xrpc://bench-join" in
  Peer.register_module jpeer ~uri:Xmark.functions_ns
    ~location:Xmark.functions_at Xmark.functions_module;
  Database.add_doc_xml jpeer.Peer.db "persons.xml" (Xmark.persons ~count:100 ());
  let join_body =
    Message.to_string
      (Message.Request
         {
           Message.module_uri = Xmark.functions_ns;
           location = Xmark.functions_at;
           method_ = "getPerson";
           arity = 2;
           updating = false;
           fragments = false;
           query_id = None;
           idem_key = None;
           calls =
             List.init 100 (fun i ->
                 [ [ Xdm.str "persons.xml" ];
                   [ Xdm.str (Printf.sprintf "person%d" i) ] ]);
         })
  in
  ignore (Peer.handle_raw jpeer join_body);
  let bench_table4 =
    Test.make ~name:"table4/bulk-hash-join-100-probes"
      (Staged.stage (fun () -> ignore (Peer.handle_raw jpeer join_body)))
  in
  (* throughput: marshaling a large payload *)
  let payload = [ Xdm.str (String.make 65536 'p') ] in
  let bench_marshal =
    Test.make ~name:"throughput/s2n+serialize-64KB"
      (Staged.stage (fun () ->
           ignore (Serialize.to_string (Xrpc_soap.Marshal.s2n payload))))
  in
  (* the XML codec alone on the Table 2 request at $x=1000 (~120 KB) *)
  let bulk_1000 =
    Message.to_string
      (Message.Request
         {
           Message.module_uri = Testmod.module_ns;
           location = Testmod.module_at;
           method_ = "ping";
           arity = 1;
           updating = false;
           fragments = false;
           query_id = None;
           idem_key = None;
           calls = List.init 1000 (fun i -> [ [ Xdm.int (i + 1) ] ]);
         })
  in
  let bench_parse =
    Test.make ~name:"xml/parse-bulk-1000"
      (Staged.stage (fun () -> ignore (Xml_parse.document bulk_1000)))
  in
  let bulk_tree = Xml_parse.document bulk_1000 in
  let out = Buffer.create (String.length bulk_1000) in
  let bench_serialize =
    Test.make ~name:"xml/serialize-bulk-1000"
      (Staged.stage (fun () ->
           Buffer.clear out;
           Serialize.document_to_buffer out bulk_tree))
  in
  let tests =
    [ bench_table1; bench_table2; bench_table3; bench_table4; bench_marshal;
      bench_parse; bench_serialize ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      (* --quick: a smoke pass over every row, not a measurement *)
      Benchmark.cfg ~limit:200 ~quota:(Time.second (if quick then 0.02 else 0.5)) ()
    in
    let results = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-40s %12.0f ns/run\n" name est
        | _ -> Printf.printf "%-40s (no estimate)\n" name)
      ols
  in
  List.iter benchmark tests

(* ================================================================== *)
(* Ablations: what the design choices buy                              *)
(* ================================================================== *)

let ablations () =
  header "Ablations";
  (* 1. loop-invariant hoisting (set-oriented clause evaluation) *)
  let scale = if quick then 30 else 80 in
  let db = Database.create () in
  Database.add_doc_xml db "persons.xml" (Xmark.persons ~count:scale ());
  Database.add_doc_xml db "auctions.xml"
    (Xmark.auctions ~count:(scale * 8) ~matches:6 ~persons_count:scale ());
  let ctx =
    {
      (Xrpc_xquery.Context.empty ()) with
      Xrpc_xquery.Context.doc_resolver =
        (fun n -> Database.doc_exn (Database.snapshot db) n);
    }
  in
  let join_query =
    {|for $p in doc("persons.xml")//person,
      $ca in doc("auctions.xml")//closed_auction
  where $p/@id = $ca/buyer/@person
  return <r>{$p/@id}</r>|}
  in
  let time_join enabled =
    Xrpc_xquery.Eval.hoisting_enabled := enabled;
    let t0 = now_ms () in
    ignore
      (Xrpc_xquery.Runner.run ~ctx
         ~resolver:(fun ~uri:_ ~location:_ -> failwith "none")
         join_query);
    Xrpc_xquery.Eval.hoisting_enabled := true;
    now_ms () -. t0
  in
  let with_h = time_join true and without_h = time_join false in
  Printf.printf
    "loop-invariant hoisting : join %4.0f ms with, %6.0f ms without (%.0fx)\n"
    with_h without_h
    (without_h /. with_h);
  (* 2. call-by-fragment message compression (footnote-4 extension) *)
  let store =
    Store.shred
      (Xml_parse.document
         ("<doc>"
         ^ String.concat ""
             (List.init 200 (fun i ->
                  Printf.sprintf "<sec i=\"%d\">%s</sec>" i (String.make 400 's')))
         ^ "</doc>"))
  in
  let root_el = List.hd (Store.children (Store.root store)) in
  (* every section is also passed separately: plain call-by-value ships the
     content twice, nodeid references ship it once *)
  let subs = Store.children root_el in
  let params = [ Xdm.Node root_el ] :: List.map (fun s -> [ Xdm.Node s ]) subs in
  let size fragments =
    List.fold_left
      (fun n t -> n + String.length (Serialize.to_string t))
      0
      (Xrpc_soap.Marshal.s2n_call ~fragments params)
  in
  let plain = size false and compressed = size true in
  Printf.printf
    "call-by-fragment        : %d bytes plain, %d bytes with nodeid refs (%.1fx smaller)\n"
    plain compressed
    (float_of_int plain /. float_of_int compressed);
  (* 3. bulk selection as an index join (also visible in Table 3) *)
  let jpeer = Peer.create "xrpc://abl" in
  Peer.register_module jpeer ~uri:Xmark.functions_ns
    ~location:Xmark.functions_at Xmark.functions_module;
  Database.add_doc_xml jpeer.Peer.db "persons.xml" (Xmark.persons ~count:200 ());
  let body calls =
    Message.to_string
      (Message.Request
         {
           Message.module_uri = Xmark.functions_ns;
           location = Xmark.functions_at;
           method_ = "getPerson";
           arity = 2;
           updating = false;
           fragments = false;
           query_id = None;
           idem_key = None;
           calls;
         })
  in
  let bulk_calls =
    List.init 200 (fun i ->
        [ [ Xdm.str "persons.xml" ]; [ Xdm.str (Printf.sprintf "person%d" i) ] ])
  in
  ignore (Peer.handle_raw jpeer (body bulk_calls));
  let t0 = now_ms () in
  ignore (Peer.handle_raw jpeer (body bulk_calls));
  let joined = now_ms () -. t0 in
  let t0 = now_ms () in
  List.iter
    (fun call -> ignore (Peer.handle_raw jpeer (body [ call ])))
    bulk_calls;
  let one_by_one = now_ms () -. t0 in
  Printf.printf
    "bulk selection as join  : 200 probes cost %4.0f ms bulk, %6.0f ms one-at-a-time (%.0fx)\n"
    joined one_by_one
    (one_by_one /. joined)

(* ================================================================== *)
(* Degraded network: throughput under injected message loss            *)
(* ================================================================== *)

let faults_bench () =
  header "Degraded network: seeded fault injection (deterministic virtual time)";
  let policy =
    {
      Transport.default_policy with
      Transport.max_retries = 4;
      backoff_base_ms = 5.;
      backoff_cap_ms = 40.;
      breaker_threshold = 0;
    }
  in
  (* virtual time only (charge_cpu off): the numbers measure the protocol's
     exposure to loss — messages on the wire × (latency + stall on each
     lost one) — not this machine's CPU *)
  let sim = { Simnet.default_config with Simnet.charge_cpu = false } in
  let run ~bulk ~loss ~queries ~iterations =
    let faults = if loss > 0. then Some (Simnet.chaos ~seed:11 ~loss ()) else None in
    let cluster = Cluster.create ~config:sim ?faults ~policy ~names:[ "x"; "y" ] () in
    let x = Cluster.peer cluster "x" and y = Cluster.peer cluster "y" in
    Peer.register_module y ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    Peer.register_module x ~uri:Testmod.module_ns ~location:Testmod.module_at
      Testmod.test_module;
    x.Peer.config <- {
        x.Peer.config with
        Peer.rpc_mode = (if bulk then Xrpc_xquery.Context.Rpc_bulk else Rpc_singles);
      };
    let query = Testmod.echo_void_query ~dest:"xrpc://y" ~iterations in
    let failed = ref 0 in
    for _ = 1 to queries do
      try ignore (Peer.query_seq x query) with _ -> incr failed
    done;
    let elapsed_ms = Cluster.clock_ms cluster in
    let retries =
      match Cluster.policy_stats cluster with
      | Some s -> s.Transport.retries
      | None -> 0
    in
    (elapsed_ms, retries, !failed)
  in
  let queries = if quick then 50 else 200 in
  let throughput loss =
    let elapsed_ms, retries, failed = run ~bulk:true ~loss ~queries ~iterations:8 in
    let qps = float_of_int (queries - failed) /. (elapsed_ms /. 1000.) in
    Printf.printf
      "loss %4.1f%% : %7.0f queries/virtual-s  (%d retries, %d/%d failed)\n"
      (loss *. 100.) qps retries failed queries;
    (loss, qps, retries, failed)
  in
  let tp = List.map throughput [ 0.0; 0.01; 0.05 ] in
  (* Bulk RPC vs one-at-a-time at 1% loss: one message per destination vs
     one per call — fewer messages means fewer loss events to stall on *)
  let per_query ~bulk =
    let elapsed_ms, retries, failed =
      run ~bulk ~loss:0.01 ~queries:(queries / 2) ~iterations:32
    in
    (elapsed_ms /. float_of_int (queries / 2), retries, failed)
  in
  let bulk_ms, bulk_retries, bulk_failed = per_query ~bulk:true in
  let one_ms, one_retries, one_failed = per_query ~bulk:false in
  Printf.printf
    "1%% loss, 32 calls/query : %6.1f ms/query bulk (%d retries), %6.1f ms/query one-at-a-time (%d retries) — %.1fx\n"
    bulk_ms bulk_retries one_ms one_retries (one_ms /. bulk_ms);
  if json_out then
    write_file "BENCH_faults.json"
      (Printf.sprintf
         "{\n\
         \  \"seed\": 11,\n\
         \  \"queries\": %d,\n\
         \  \"calls_per_query\": 8,\n\
         \  \"throughput_queries_per_virtual_s\": {\n%s\n  },\n\
         \  \"bulk_vs_one_at_a_time_at_1pct_loss\": {\n\
         \    \"calls_per_query\": 32,\n\
         \    \"bulk_ms_per_query\": %.3f,\n\
         \    \"bulk_retries\": %d,\n\
         \    \"bulk_failed\": %d,\n\
         \    \"one_at_a_time_ms_per_query\": %.3f,\n\
         \    \"one_at_a_time_retries\": %d,\n\
         \    \"one_at_a_time_failed\": %d\n\
         \  }\n\
          }\n"
         queries
         (String.concat ",\n"
            (List.map
               (fun (loss, qps, retries, failed) ->
                 Printf.sprintf
                   "    \"%.0f%%\": { \"qps\": %.1f, \"retries\": %d, \"failed\": %d }"
                   (loss *. 100.) qps retries failed)
               tp))
         bulk_ms bulk_retries bulk_failed one_ms one_retries one_failed)

(* ================================================================== *)
(* Observability: instrumentation overhead + a distributed span tree   *)
(* ================================================================== *)

let obs_bench () =
  header "Observability: tracing overhead (off vs on) + distributed span tree";
  let module Table = Xrpc_algebra.Table in
  let module Ops = Xrpc_algebra.Ops in
  let module Trace = Xrpc_obs.Trace in
  (* -- 1. algebra kernels, tracing off vs on ------------------------ *)
  (* Counters are always on (one field increment per operator); the
     per-operator latency histograms are gated on [Trace.enabled], so
     "off" measures the always-on cost and "on" adds two clock reads +
     one histogram observation per operator call. *)
  let mk n =
    Table.make [ "iter"; "pos"; "item" ]
      (List.init n (fun i ->
           [ Table.Int ((i mod max 1 (n / 5)) + 1); Table.Int 1;
             Table.Item (Xdm.int (i mod 97)) ]))
  in
  let t = mk 1000 in
  let kernels =
    [
      ("equi_join", fun () -> ignore (Ops.equi_join t "iter" t "iter"));
      ("distinct", fun () -> ignore (Ops.distinct t));
      ( "rank",
        fun () ->
          ignore
            (Ops.rank t ~new_col:"rk" ~order_by:[ "item" ] ~partition:"iter" ())
      );
      ("merge_union", fun () -> ignore (Ops.merge_union_on_iter [ t; t ]));
    ]
  in
  (* sub-ms kernels are noise-dominated: alternate off/on rounds and keep
     the per-mode minimum, so a GC pause in one round cannot masquerade
     as instrumentation cost *)
  let rounds = if quick then 3 else 5 in
  let kernel_rows =
    List.map
      (fun (name, f) ->
        let off = ref infinity and on = ref infinity in
        for _ = 1 to rounds do
          Trace.set_enabled false;
          off := Float.min !off (time_ns f);
          Trace.set_enabled true;
          on := Float.min !on (time_ns f);
          Trace.set_enabled false;
          Trace.reset ()
        done;
        let off = !off and on = !on in
        let pct = (on -. off) /. off *. 100. in
        Printf.printf "%-12s 1000 rows: %10.0f ns off  %10.0f ns on  (%+5.1f%%)\n"
          name off on pct;
        (name, off, on, pct))
      kernels
  in
  let avg_pct =
    List.fold_left (fun a (_, _, _, p) -> a +. p) 0. kernel_rows
    /. float_of_int (List.length kernel_rows)
  in
  Printf.printf "average kernel overhead with tracing on: %+.1f%% (target < 5%%)\n"
    avg_pct;
  (* -- 2. end-to-end distributed queries, off vs on ----------------- *)
  (* charge_cpu off: the virtual network charges no real sleeps, so the
     wall clock measures only the engine's CPU — exactly what the
     instrumentation could slow down. *)
  let sim = { Simnet.default_config with Simnet.charge_cpu = false } in
  let mk_cluster () =
    let cluster = Cluster.create ~config:sim ~names:[ "x"; "y"; "z" ] () in
    List.iter
      (fun n ->
        Peer.register_module (Cluster.peer cluster n) ~uri:Testmod.module_ns
          ~location:Testmod.module_at Testmod.test_module)
      [ "x"; "y"; "z" ];
    cluster
  in
  let query =
    {|import module namespace t="test" at "http://x.example.org/test.xq";
for $d in ("xrpc://y", "xrpc://z")
return execute at {$d} {t:ping(1)}|}
  in
  let queries = if quick then 20 else 60 in
  let run_many traced =
    let cluster = mk_cluster () in
    if traced then Cluster.enable_tracing cluster else Cluster.disable_tracing ();
    let x = Cluster.peer cluster "x" in
    ignore (Peer.query_seq x query);
    (* warm the function caches *)
    let t0 = now_ms () in
    for _ = 1 to queries do
      ignore (Peer.query_seq x query);
      if traced then Trace.reset ()
    done;
    let wall = now_ms () -. t0 in
    Cluster.disable_tracing ();
    wall /. float_of_int queries
  in
  (* same alternating-minimum discipline as the kernels *)
  let e2e_off = ref infinity and e2e_on = ref infinity in
  for _ = 1 to rounds do
    e2e_off := Float.min !e2e_off (run_many false);
    e2e_on := Float.min !e2e_on (run_many true)
  done;
  let e2e_off = !e2e_off and e2e_on = !e2e_on in
  let e2e_pct = (e2e_on -. e2e_off) /. e2e_off *. 100. in
  Printf.printf
    "end-to-end 2-peer query: %8.3f ms off  %8.3f ms on  (%+5.1f%%)\n" e2e_off
    e2e_on e2e_pct;
  (* -- 3. one traced distributed query: the reconstructed span tree -- *)
  let cluster = mk_cluster () in
  Cluster.enable_tracing cluster;
  let x = Cluster.peer cluster "x" in
  ignore (Peer.query_seq x query);
  Trace.reset ();
  (* warm caches, then trace one clean run *)
  ignore (Peer.query_seq x query);
  let tree = Trace.render () in
  let phases = Trace.phase_summary () in
  let span_count = List.length (Trace.spans ()) in
  Cluster.disable_tracing ();
  Trace.reset ();
  Printf.printf "\nspan tree of one distributed query over peers y and z:\n%s" tree;
  Printf.printf "per-phase cost (virtual ms):\n";
  List.iter
    (fun (name, count, total) ->
      Printf.printf "  %-18s %4dx  %8.3f ms\n" name count total)
    phases;
  if json_out then
    write_file "BENCH_obs.json"
      (Printf.sprintf
         "{\n\
         \  \"kernel_overhead\": {\n%s\n  },\n\
         \  \"kernel_overhead_avg_pct\": %.2f,\n\
         \  \"end_to_end\": { \"off_ms\": %.4f, \"on_ms\": %.4f, \"overhead_pct\": %.2f },\n\
         \  \"target_overhead_pct\": 5.0,\n\
         \  \"distributed_trace\": { \"spans\": %d, \"phases\": {\n%s\n  } }\n\
          }\n"
         (String.concat ",\n"
            (List.map
               (fun (name, off, on, pct) ->
                 Printf.sprintf
                   "    %S: { \"off_ns\": %.0f, \"on_ns\": %.0f, \"overhead_pct\": %.2f }"
                   name off on pct)
               kernel_rows))
         avg_pct e2e_off e2e_on e2e_pct span_count
         (String.concat ",\n"
            (List.map
               (fun (name, count, total) ->
                 Printf.sprintf
                   "    %S: { \"count\": %d, \"total_ms\": %.3f }" name count
                   total)
               phases)))

(* ================================================================== *)

let () =
  Printf.printf "XRPC benchmark harness%s\n" (if quick then " (--quick)" else "");
  if json_out then begin
    (* machine-readable run: algebra kernels + Table 2 + degraded
       network, written as JSON *)
    algebra_bench ();
    table2 ();
    faults_bench ();
    obs_bench ()
  end
  else if only_tables then begin
    figures ();
    if quick && not skip_micro then micro ()
  end
  else begin
    figures ();
    table2 ();
    algebra_bench ();
    throughput ();
    table3 ();
    table4 ();
    faults_bench ();
    obs_bench ();
    ablations ();
    if not skip_micro then micro ()
  end;
  print_endline "\ndone."
