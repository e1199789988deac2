(* End-to-end XRPC benchmark: real queries over loopback HTTP from
   originating peers in this process to a real Xrpc_server peer in a
   re-executed serving process, with per-layer times measured from
   outside the program (see README.md).

     e2e.exe --seed 1 --out DIR [--quick]
         every workload, every phase; writes DIR/results.json and
         DIR/trace/<workload>.json; exits 1 on any failed answer
     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
         one workload measured for S seconds; the last stdout line is
         {"correct", "attempted", "failed", "metrics"}: the end-to-end
         metrics with --trace 0, the per-layer metrics with --trace 1
     e2e.exe --selftest
         statistics and bookkeeping checks, no sockets *)

module Peer = Xrpc_peer.Peer
module Http = Xrpc_net.Http

type plan = {
  setups : int;  (** serving processes started to time set-up *)
  warmup_s : float;
  closed_s : float;
  closed_min : int;
  open_s : float;
  open_min : int;
  rungs : int;  (** 0 skips the ladder *)
  rung_s : float;
  rung_min : int;
  traced_queries : int;
  traced_warmup_s : float;
  singles : int;  (** Table 2 one-at-a-time queries (bulk_rpc only) *)
}

let full =
  {
    setups = 9; warmup_s = 2.; closed_s = 10.; closed_min = 500; open_s = 10.;
    open_min = 500; rungs = 6; rung_s = 4.; rung_min = 250;
    traced_queries = 200; traced_warmup_s = 2.; singles = 20;
  }

let quick =
  {
    setups = 2; warmup_s = 0.5; closed_s = 1.; closed_min = 0; open_s = 1.;
    open_min = 0; rungs = 3; rung_s = 0.5; rung_min = 0; traced_queries = 30;
    traced_warmup_s = 0.5; singles = 3;
  }

(* the timed form (--workload ... --seconds S): the measured seconds
   split evenly between the closed and the open loop; no ladder *)
let timed_run seconds =
  {
    full with
    closed_s = seconds /. 2.;
    closed_min = 0;
    open_s = seconds /. 2.;
    open_min = 0;
    rungs = 0;
  }

(* the end-to-end metrics BENCHMARK.json bounds, in its order, and the
   ones too noisy on a shared host to bound, which a --trace 1 run
   reports with the per-layer metrics (see README.md) *)
let end_to_end = [ "setup_s"; "closed_p50_ms"; "closed_qps"; "rss_mb" ]
let unbounded = [ "closed_p99_ms"; "open_p50_ms"; "open_p99_ms" ]

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int option;  (** samples behind the value *)
  pct : float option;  (** the percentile, when the value is one *)
}

let metric ?n ?pct name unit_ value = { name; value; unit_; n; pct }

type outcome = {
  spec : Workload.spec;
  e2e : metric list;
  layers : metric list;
  ladder : Loadgen.rung list;
  attempted : int;
  failed : int;
  wrong : int;
  sums_ok : bool;
  trace_json : Json.t option;
}

let client_peer (spec : Workload.spec) ~seed i =
  let peer = Peer.create (Printf.sprintf "xrpc://bench-client-%d" i) in
  Workload.install_client spec.Workload.kind ~seed peer;
  Peer.set_transport peer (Http.transport ~keep_alive:true ());
  peer

let probes n = List.init n (fun _ -> Host.probe ())

let run_workload plan (spec : Workload.spec) ~seed ~trace =
  Printf.printf "== %s (seed %d)\n%!" spec.Workload.name seed;
  let probes_before = probes 10 in
  (* set-up is timed several times; the last server is the one measured *)
  let servers =
    List.init plan.setups (fun i ->
        let s = Serving.spawn spec ~seed in
        if i < plan.setups - 1 then Serving.stop s;
        s)
  in
  let setup_s = Stats.median (List.map (fun s -> s.Serving.setup_s) servers) in
  let srv = List.nth servers (plan.setups - 1) in
  let closed, opened, ladder, rss =
    Fun.protect ~finally:(fun () -> Serving.stop srv) @@ fun () ->
    let state =
      Workload.make_state spec.Workload.kind ~seed ~dest:(Serving.dest srv)
    in
    let peers = List.init 2 (client_peer spec ~seed) in
    let st = Random.State.make [| seed; 0xc105ed |] in
    let next () = Workload.next state st in
    let w0 = Unix.gettimeofday () in
    let turn = ref 0 in
    while Unix.gettimeofday () -. w0 < plan.warmup_s do
      incr turn;
      ignore (Loadgen.run_query (List.nth peers (!turn mod 2)) (next ()))
    done;
    let closed =
      Loadgen.closed_loop ~min_queries:plan.closed_min ~server:srv
        ~peer:(List.hd peers) ~next ~seconds:plan.closed_s ()
    in
    let opened =
      Loadgen.open_at_rate ~min_arrivals:plan.open_min ~state ~peers
        ~seed:(seed + 17) ~rate:spec.Workload.rate ~seconds:plan.open_s ()
    in
    let ladder =
      if plan.rungs = 0 then []
      else
        Loadgen.ladder ~spec ~state ~peers ~seed:(seed + 29) ~rungs:plan.rungs
          ~rung_s:plan.rung_s ~min_arrivals:plan.rung_min
    in
    (closed, opened, ladder, Serving.peak_rss_mb srv)
  in
  let host_ms = Stats.median (probes_before @ probes 10) in
  let c = closed.Loadgen.c_samples and o = opened.Loadgen.o_samples in
  let nc = List.length c and no = List.length o in
  let closed_sorted = Stats.sorted_array (Loadgen.latencies c) in
  let open_sorted = Stats.sorted_array (Loadgen.latencies o) in
  let closed_p50 = Stats.percentile closed_sorted 0.5 in
  let attempted = nc + opened.Loadgen.o_arrivals in
  let failed =
    Loadgen.failures c + Loadgen.failures o + opened.Loadgen.o_dropped
  in
  let e2e =
    [
      metric ~n:plan.setups "setup_s" "s" setup_s;
      metric ~n:nc ~pct:0.5 "closed_p50_ms" "ms" closed_p50;
      metric ~n:nc ~pct:0.99 "closed_p99_ms" "ms" (Stats.percentile closed_sorted 0.99);
      metric ~n:nc "closed_qps" "1/s" (float_of_int nc /. closed.Loadgen.c_elapsed);
      metric ~n:no ~pct:0.5 "open_p50_ms" "ms" (Stats.percentile open_sorted 0.5);
      metric ~n:no ~pct:0.99 "open_p99_ms" "ms" (Stats.percentile open_sorted 0.99);
      metric "rss_mb" "MB" rss;
    ]
    @ (if ladder = [] then []
       else
         [ metric ~n:(List.length ladder) "sustained_qps" "1/s" (Loadgen.sustained ladder) ])
    @ [ metric ~n:attempted "error_rate" "ratio" (float_of_int failed /. float_of_int attempted) ]
  in
  let load_layers () =
    let reads = Stats.sorted_array (Loadgen.latencies ~op:Workload.Read o) in
    let writes = Stats.sorted_array (Loadgen.latencies ~op:Workload.Write o) in
    let late =
      List.map
        (fun s -> (s.Loadgen.start -. Float.max s.Loadgen.pick s.Loadgen.sched) *. 1000.)
        o
    in
    let queue_wait =
      List.map (fun s -> Float.max 0. (s.Loadgen.pick -. s.Loadgen.sched) *. 1000.) o
    in
    let or0 x = if Float.is_nan x then 0. else x in
    [
      metric ~n:20 "host.probe_ms" "ms" host_ms;
      metric ~n:nc "server.cpu_ms_per_query" "ms"
        (1000. *. closed.Loadgen.c_server_cpu /. float_of_int nc);
      metric "server.cpu_util" "ratio"
        (closed.Loadgen.c_server_cpu /. closed.Loadgen.c_elapsed);
      metric ~n:nc "client.cpu_ms_per_query" "ms"
        (1000. *. closed.Loadgen.c_client_cpu /. float_of_int nc);
      metric ~n:(Array.length reads) ~pct:0.99 "op.read_p99_ms" "ms"
        (or0 (Stats.percentile reads 0.99));
      metric ~n:(Array.length writes) ~pct:0.5 "op.write_p50_ms" "ms"
        (or0 (Stats.percentile writes 0.5));
      metric ~n:no ~pct:0.99 "loadgen.late_p99_ms" "ms"
        (or0 (Stats.percentile (Stats.sorted_array late) 0.99));
      metric ~n:no ~pct:0.5 "loadgen.queue_wait_p50_ms" "ms" (or0 (Stats.median queue_wait));
      metric "loadgen.backlog_max" "count" (float_of_int opened.Loadgen.o_backlog_max);
    ]
  in
  let base =
    {
      spec;
      e2e;
      layers = [];
      ladder;
      attempted;
      failed;
      wrong = Loadgen.wrong c + Loadgen.wrong o;
      sums_ok = true;
      trace_json = None;
    }
  in
  if not trace then base
  else
    let t =
      Traced.run ~spec ~seed ~queries:plan.traced_queries
        ~warmup_s:plan.traced_warmup_s
        ~singles:(if spec.Workload.kind = Workload.Bulk_rpc then plan.singles else 0)
        ~closed_p50_ms:closed_p50
    in
    let nt = plan.traced_queries in
    {
      base with
      layers =
        List.map (fun (name, v, u) -> metric ~n:nt name u v) t.Traced.metrics
        @ load_layers ();
      attempted = attempted + t.Traced.attempted;
      failed = failed + t.Traced.failed;
      wrong = base.wrong + t.Traced.wrong;
      sums_ok = t.Traced.sums_ok;
      trace_json = Some t.Traced.trace_json;
    }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* every percentile is printed with its sample count and how many
   samples lie beyond it *)
let print_metric workload m =
  let count =
    match (m.n, m.pct) with
    | Some n, Some p ->
        let beyond = Stats.beyond n p in
        Printf.sprintf "  (n=%d, %d beyond%s)" n beyond
          (if beyond < 10 then "; too few for this percentile" else "")
    | Some n, None -> Printf.sprintf "  (n=%d)" n
    | None, _ -> ""
  in
  Printf.printf "%-12s %-26s %14.4f %-5s%s\n" workload m.name m.value m.unit_ count

let print_outcome r =
  let w = r.spec.Workload.name in
  List.iter (print_metric w) r.e2e;
  List.iter
    (fun (g : Loadgen.rung) ->
      Printf.printf "%-12s ladder %8.1f/s: %d/%d on time, p95 %.3f ms, %d failed -> %s\n" w
        g.Loadgen.rate g.Loadgen.on_time g.Loadgen.r_arrivals g.Loadgen.r_p95_ms
        g.Loadgen.r_failed
        (if g.Loadgen.passed then "pass" else "fail"))
    r.ladder;
  List.iter (print_metric w) r.layers;
  if r.layers <> [] then begin
    let get name = List.find_opt (fun m -> m.name = name) r.layers in
    (match get "remainder_pct" with
    | Some m when m.value > 10. ->
        Printf.printf
          "%-12s remainder %.1f%% of wall is unattributed: client eval and Bulk RPC \
           assembly need an in-program span (an algebra/eval boundary)\n"
          w m.value
    | _ -> ());
    Printf.printf "%-12s layers + remainder = traced wall within 1%%: %s\n" w
      (if r.sums_ok then "yes" else "NO");
    if r.spec.Workload.kind = Workload.Bulk_rpc then begin
      Option.iter
        (fun m ->
          Printf.printf
            "%-12s paper Table 2: one-at-a-time / bulk at $x=1000 over HTTP = %.2fx\n" w
            m.value)
        (get "paper.table2_ratio");
      Option.iter
        (fun m ->
          Printf.printf "%-12s paper 3.3: %.1f%% of wall in the four soap.* layers\n" w
            m.value)
        (get "paper.soap_share_pct")
    end
  end;
  Printf.printf "%-12s attempted %d, failed %d (wrong answers %d)\n%!" w r.attempted
    r.failed r.wrong

let metrics_json ?(with_n = true) ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
             @
             match m.n with
             | Some n when with_n -> [ ("n", Json.Num (float_of_int n)) ]
             | _ -> []) ))
       ms)

let outcome_json r =
  Json.Obj
    [
      ("end_to_end", metrics_json r.e2e);
      ("per_layer", metrics_json r.layers);
      ( "ladder",
        Json.Arr
          (List.map
             (fun (g : Loadgen.rung) ->
               Json.Obj
                 [
                   ("rate", Json.Num g.Loadgen.rate);
                   ("arrivals", Json.Num (float_of_int g.Loadgen.r_arrivals));
                   ("on_time", Json.Num (float_of_int g.Loadgen.on_time));
                   ("p95_ms", Json.Num g.Loadgen.r_p95_ms);
                   ("achieved", Json.Num g.Loadgen.achieved);
                   ("passed", Json.Bool g.Loadgen.passed);
                 ])
             r.ladder) );
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("layers_sum_to_wall", Json.Bool r.sums_ok);
    ]

(* the checkout's own commit, when run from the root of a git work tree *)
let git_commit () =
  let read () =
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  in
  match if Sys.file_exists ".git" then read () else "" with
  | "" | (exception _) -> "unknown"
  | line -> line

let header ~mode ~seed =
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("commit", Json.Str (git_commit ()));
      ( "date",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec) );
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("mode", Json.Str mode);
      ("seed", Json.Num (float_of_int seed));
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_outputs ~dir ~mode ~seed outcomes =
  mkdir_p (Filename.concat dir "trace");
  List.iter
    (fun r ->
      Option.iter
        (Json.write_file
           (Filename.concat (Filename.concat dir "trace") (r.spec.Workload.name ^ ".json")))
        r.trace_json)
    outcomes;
  Json.write_file (Filename.concat dir "results.json")
    (Json.Obj
       [
         ("header", header ~mode ~seed);
         ( "workloads",
           Json.Obj (List.map (fun r -> (r.spec.Workload.name, outcome_json r)) outcomes) );
       ]);
  Printf.printf "wrote %s\n%!" (Filename.concat dir "results.json")

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: e2e.exe --seed N --out DIR [--quick]\n\
    \       e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       e2e.exe --selftest";
  exit 2

let workload_or_die name =
  match Workload.find name with
  | Some s -> s
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun s -> s.Workload.name) Workload.specs));
      exit 2

let timed ~spec ~seed ~seconds ~trace ~out =
  let r = run_workload (timed_run seconds) spec ~seed ~trace in
  print_outcome r;
  Option.iter (fun dir -> write_outputs ~dir ~mode:"timed" ~seed [ r ]) out;
  let reported =
    if trace then r.layers @ List.filter (fun m -> List.mem m.name unbounded) r.e2e
    else List.filter (fun m -> List.mem m.name end_to_end) r.e2e
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.wrong = 0 && r.sums_ok));
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", metrics_json ~with_n:false reported);
          ]))

let full_run ~plan ~mode ~seed ~out =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    List.map
      (fun spec ->
        let r = run_workload plan spec ~seed ~trace:true in
        print_outcome r;
        r)
      Workload.specs
  in
  write_outputs ~dir:out ~mode ~seed outcomes;
  Printf.printf "total %.1f s\n" (Unix.gettimeofday () -. t0);
  let bad = List.filter (fun r -> r.failed > 0 || not r.sums_ok) outcomes in
  List.iter
    (fun r ->
      Printf.printf "FAIL %s: %d of %d failed, layers sum to wall: %b\n"
        r.spec.Workload.name r.failed r.attempted r.sums_ok)
    bad;
  if bad <> [] then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let flag key = List.mem key args in
  let int_opt key = Option.map int_of_string (opt key args) in
  let seed = Option.value ~default:1 (int_opt "--seed") in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if flag "--selftest" then exit (if Selftest.run () then 0 else 1);
  match opt "--serve" args with
  | Some name -> Serving.serve (workload_or_die name) ~seed
  | None -> (
      at_exit Serving.stop_all;
      let quit _ = exit 130 in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
      Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
      try
        match (opt "--workload" args, opt "--out" args) with
        | Some name, out ->
            let seconds =
              Option.value ~default:10. (Option.map float_of_string (opt "--seconds" args))
            in
            let trace = opt "--trace" args = Some "1" in
            timed ~spec:(workload_or_die name) ~seed ~seconds ~trace ~out
        | None, Some out ->
            if flag "--quick" then full_run ~plan:quick ~mode:"quick" ~seed ~out
            else full_run ~plan:full ~mode:"full" ~seed ~out
        | None, None -> usage ()
      with e ->
        Printf.eprintf "e2e: %s\n%!" (Printexc.to_string e);
        exit 1)
