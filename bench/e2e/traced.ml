(* The traced run: per-layer attribution measured from outside the
   program.  Spans are taken around calls into public functions only:

   - a [query] span around [Peer.query] on the originating peer;
   - an [rpc] span around every [send] of a recording transport wrapped
     around the peer's HTTP transport, which also keeps the request body
     and the reply;
   - after each query, every recorded message is replayed into an
     in-process twin of the serving peer (same seed, same warm-up, so the
     same documents and cache contents), timing [Peer.handle_raw] and the
     four SOAP codec calls separately;
   - a cold [Peer.compiled_plan] on a twin client with plan caching off.

   Replays run after the query's span has closed, so they never inflate
   the traced wall. *)

module Peer = Xrpc_peer.Peer
module Message = Xrpc_soap.Message
module Transport = Xrpc_net.Transport
module Http = Xrpc_net.Http

let now = Unix.gettimeofday

type rpc = { body : string; reply : string; r0 : float; r1 : float }

type replay = {
  handle_ms : float;
  peer_decode_ms : float;
  client_encode_ms : float;
  client_decode_ms : float;
  peer_encode_ms : float;
  calls : int;
  (* absolute start of each replayed call, for the trace file *)
  at : float;
}

type traced = {
  index : int;
  op : Workload.op;
  q0 : float;
  q1 : float;
  outcome : Loadgen.outcome;
  rpcs : (rpc * replay) list;
  compile_ms : float;
}

(* every send is timed and kept; parallel sends go one at a time so rpc
   spans never overlap (each workload has a single destination anyway) *)
let recording (inner : Transport.t) (log : rpc list ref) : Transport.t =
  let send ~dest body =
    let r0 = now () in
    let reply = inner.Transport.send ~dest body in
    log := { body; reply; r0; r1 = now () } :: !log;
    reply
  in
  {
    Transport.send;
    send_parallel = List.map (fun (dest, body) -> send ~dest body);
  }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let replay twin (r : rpc) =
  let at = now () in
  let _, handle_ms = timed (fun () -> Peer.handle_raw twin r.body) in
  let (request, _, _), peer_decode_ms =
    timed (fun () -> Message.of_string_server r.body)
  in
  let _, client_encode_ms = timed (fun () -> Message.to_string request) in
  let reply, client_decode_ms = timed (fun () -> Message.of_string r.reply) in
  let _, peer_encode_ms = timed (fun () -> Message.to_string reply) in
  let calls =
    match request with
    | Message.Request req -> List.length req.Message.calls
    | _ -> 0
  in
  { handle_ms; peer_decode_ms; client_encode_ms; client_decode_ms; peer_encode_ms; calls; at }

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  wrong : int;
  sums_ok : bool;  (** the layers add up to the traced wall *)
  trace_json : Json.t;
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_query n x = if n = 0 then 0. else x /. float_of_int n

(* Chrome trace-event JSON (open in Perfetto or chrome://tracing): the
   measured spans on one track, the replays of each query's messages on
   a second, all tagged with the query they belong to *)
let trace_json ~workload ~t0 queries metrics =
  let us t = Json.Num ((t -. t0) *. 1e6) in
  let span ~tid ~name ~start ~dur_ms args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str workload);
        ("ph", Json.Str "X");
        ("ts", us start);
        ("dur", Json.Num (dur_ms *. 1000.));
        ("pid", Json.Num 1.);
        ("tid", Json.Num tid);
        ("args", Json.Obj args);
      ]
  in
  let events =
    List.concat_map
      (fun q ->
        let id = ("query", Json.Num (float_of_int q.index)) in
        span ~tid:1. ~name:"query" ~start:q.q0
          ~dur_ms:((q.q1 -. q.q0) *. 1000.)
          [ id; ("op", Json.Str (if q.op = Workload.Write then "write" else "read")) ]
        :: List.concat_map
             (fun (r, p) ->
               let parent = ("parent", Json.Str "query") in
               let replayed name start dur =
                 span ~tid:2. ~name ~start ~dur_ms:dur [ id; ("replay", Json.Bool true) ]
               in
               let a = p.at in
               let ms x = x /. 1000. in
               [
                 span ~tid:1. ~name:"rpc" ~start:r.r0
                   ~dur_ms:((r.r1 -. r.r0) *. 1000.)
                   [
                     id; parent;
                     ("bytes_out", Json.Num (float_of_int (String.length r.body)));
                     ("bytes_in", Json.Num (float_of_int (String.length r.reply)));
                     ("calls", Json.Num (float_of_int p.calls));
                   ];
                 replayed "peer.handle" a p.handle_ms;
                 replayed "soap.peer_decode" (a +. ms p.handle_ms) p.peer_decode_ms;
                 replayed "soap.client_encode"
                   (a +. ms (p.handle_ms +. p.peer_decode_ms))
                   p.client_encode_ms;
                 replayed "soap.client_decode"
                   (a +. ms (p.handle_ms +. p.peer_decode_ms +. p.client_encode_ms))
                   p.client_decode_ms;
                 replayed "soap.peer_encode"
                   (a
                   +. ms
                        (p.handle_ms +. p.peer_decode_ms +. p.client_encode_ms
                       +. p.client_decode_ms))
                   p.peer_encode_ms;
               ])
             q.rpcs)
      queries
  in
  let track tid name =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.Num tid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr (track 1. "measured spans" :: track 2. "replays" :: events) );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          (("workload", Json.Str workload)
          :: List.map (fun (name, v, _) -> (name, Json.Num v)) metrics) );
    ]

(* [closed_p50_ms] is the untraced closed-loop median of the same
   workload, for the tracing overhead *)
let run ~(spec : Workload.spec) ~seed ~queries:nq ~warmup_s ~singles
    ~closed_p50_ms =
  let kind = spec.Workload.kind in
  let srv = Serving.spawn spec ~seed in
  Fun.protect ~finally:(fun () -> Serving.stop srv) @@ fun () ->
  let state = Workload.make_state kind ~seed ~dest:(Serving.dest srv) in
  let twin = Workload.serving_peer kind ~seed in
  let twin_client = Peer.create "xrpc://bench-twin-client" in
  Workload.install_client kind ~seed twin_client;
  Peer.set_plan_caching twin_client false;
  let client = Peer.create "xrpc://bench-traced" in
  Workload.install_client kind ~seed client;
  let log = ref [] in
  Peer.set_transport client
    (recording (Http.transport ~keep_alive:true ()) log);
  let st = Random.State.make [| seed; 0x7ace |] in
  (* the same warm-up reaches the serving peer and its twin *)
  let w0 = now () in
  while now () -. w0 < warmup_s do
    ignore (Loadgen.run_query client (Workload.next state st));
    List.iter (fun r -> ignore (Peer.handle_raw twin r.body)) (List.rev !log);
    log := []
  done;
  (* the serving peer's own count and sum of handle times bracket the
     traced queries: the check that the twin times what the server does *)
  let server_handle () =
    let h = Json.member "peer.handle_ms" (Serving.server_metrics srv) in
    (Json.to_num (Json.member "count" h), Json.to_num (Json.member "sum" h))
  in
  let served0, served_ms0 = server_handle () in
  let twin0 = Peer.cache_stats twin and client0 = Peer.cache_stats client in
  let t0 = now () in
  let queries =
    List.init nq (fun index ->
        let q = Workload.next state st in
        log := [];
        let q0 = now () in
        let outcome = Loadgen.run_query client q in
        let q1 = now () in
        let rpcs = List.rev_map (fun r -> (r, replay twin r)) !log in
        let _, compile_ms =
          timed (fun () -> Peer.compiled_plan twin_client q.Workload.text)
        in
        { index; op = q.Workload.op; q0; q1; outcome; rpcs; compile_ms })
  in
  let twin1 = Peer.cache_stats twin and client1 = Peer.cache_stats client in
  let served1, served_ms1 = server_handle () in
  let wall_ms q = (q.q1 -. q.q0) *. 1000. in
  let self_ms q =
    1000. *. Stats.self_time (q.q0, q.q1) (List.map (fun (r, _) -> (r.r0, r.r1)) q.rpcs)
  in
  let over f = per_query nq (sum f queries) in
  let over_rpcs f = over (fun q -> sum f q.rpcs) in
  let plan_hits = client1.plan.hits - client0.plan.hits
  and plan_misses = client1.plan.misses - client0.plan.misses in
  let miss_share = ratio plan_misses (plan_hits + plan_misses) in
  let compile_ms = over (fun q -> q.compile_ms) in
  let rpc_ms = over_rpcs (fun (r, _) -> (r.r1 -. r.r0) *. 1000.) in
  let handle_ms = over_rpcs (fun (_, p) -> p.handle_ms) in
  let layers =
    Stats.attribute ~wall:(over wall_ms) ~self:(over self_ms) ~rpc:rpc_ms
      ~handle:handle_ms
      ~compile:(compile_ms *. miss_share)
      ~client_encode:(over_rpcs (fun (_, p) -> p.client_encode_ms))
      ~client_decode:(over_rpcs (fun (_, p) -> p.client_decode_ms))
      ~peer_decode:(over_rpcs (fun (_, p) -> p.peer_decode_ms))
      ~peer_encode:(over_rpcs (fun (_, p) -> p.peer_encode_ms))
  in
  let handle_by op =
    let qs = List.filter (fun q -> q.op = op) queries in
    per_query (List.length qs)
      (sum (fun q -> sum (fun (_, p) -> p.handle_ms) q.rpcs) qs)
  in
  let messages = over (fun q -> float_of_int (List.length q.rpcs)) in
  let server_handle_ms =
    (served_ms1 -. served_ms0) /. (served1 -. served0) *. messages
  in
  let soap_ms =
    layers.Stats.client_encode +. layers.Stats.client_decode
    +. layers.Stats.peer_decode +. layers.Stats.peer_encode
  in
  let traced_p50 = Stats.median (List.map wall_ms queries) in
  let r_hits = twin1.result.hits - twin0.result.hits
  and r_misses = twin1.result.misses - twin0.result.misses in
  let f_hits = twin1.func_hits - twin0.func_hits
  and f_misses = twin1.func_misses - twin0.func_misses in
  (* Table 2 over HTTP: the same bulk query, one call per message *)
  let singles_runs =
    if singles = 0 then []
    else begin
      let one_at_a_time =
        Peer.create
          ~config:
            { Peer.default_config with rpc_mode = Xrpc_xquery.Context.Rpc_singles }
          "xrpc://bench-singles"
      in
      Workload.install_client kind ~seed one_at_a_time;
      Peer.set_transport one_at_a_time (Http.transport ~keep_alive:true ());
      List.init singles (fun _ ->
          let q = Workload.next state st in
          timed (fun () -> Loadgen.run_query one_at_a_time q))
    end
  in
  let table2_ratio =
    match List.filter (fun (o, _) -> o = Loadgen.Correct) singles_runs with
    | [] -> 0.
    | ok -> Stats.median (List.map snd ok) /. traced_p50
  in
  let metrics =
    [
      ("net.server_core_ms", layers.Stats.server_core, "ms");
      ("net.rtt_ms", rpc_ms, "ms");
      ("net.messages", messages, "count");
      ("net.bytes_out", over_rpcs (fun (r, _) -> float_of_int (String.length r.body)), "B");
      ("net.bytes_in", over_rpcs (fun (r, _) -> float_of_int (String.length r.reply)), "B");
      ("soap.client_encode_ms", layers.Stats.client_encode, "ms");
      ("soap.client_decode_ms", layers.Stats.client_decode, "ms");
      ("soap.peer_decode_ms", layers.Stats.peer_decode, "ms");
      ("soap.peer_encode_ms", layers.Stats.peer_encode, "ms");
      ("peer.handle_ms", handle_ms, "ms");
      ( "peer.twin_error_pct",
        100. *. (handle_ms -. server_handle_ms) /. server_handle_ms,
        "%" );
      ("peer.exec_ms", layers.Stats.peer_exec, "ms");
      ("peer.calls", over_rpcs (fun (_, p) -> float_of_int p.calls), "count");
      ("peer.handle_read_ms", handle_by Workload.Read, "ms");
      ("peer.handle_write_ms", handle_by Workload.Write, "ms");
      ("peer.result_hit_ratio", ratio r_hits (r_hits + r_misses), "ratio");
      ("peer.func_hit_ratio", ratio f_hits (f_hits + f_misses), "ratio");
      ("xquery.compile_ms", compile_ms, "ms");
      ("xquery.plan_hit_ratio", ratio plan_hits (plan_hits + plan_misses), "ratio");
      ("client.self_ms", over self_ms, "ms");
      ("remainder_ms", layers.Stats.remainder, "ms");
      ("remainder_pct", 100. *. layers.Stats.remainder /. layers.Stats.wall, "%");
      ("trace.wall_ms", layers.Stats.wall, "ms");
      ( "trace.overhead_pct",
        100. *. (traced_p50 -. closed_p50_ms) /. closed_p50_ms,
        "%" );
      ("paper.soap_share_pct", 100. *. soap_ms /. layers.Stats.wall, "%");
      ("paper.table2_ratio", table2_ratio, "x");
    ]
  in
  let outcomes = List.map (fun q -> q.outcome) queries @ List.map fst singles_runs in
  {
    metrics;
    attempted = List.length outcomes;
    failed = List.length (List.filter (( <> ) Loadgen.Correct) outcomes);
    wrong = List.length (List.filter (( = ) Loadgen.Wrong) outcomes);
    sums_ok = Stats.sums_to_wall layers;
    trace_json = trace_json ~workload:spec.Workload.name ~t0 queries metrics;
  }
