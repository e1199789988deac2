(* Parallel dispatch suite: the Executor engine, the Xrpc_client façade,
   and every place multi-peer fan-out now runs concurrently.

   What must hold:
     - the pool executor really bounds concurrency, preserves order, and
       survives errors and own-pool re-entry;
     - ambient trace spans follow work onto pool threads;
     - N-destination parallel dispatch returns exactly the sequential
       results (same values, same order);
     - concurrent keep-alive requests against ONE peer all succeed;
     - 2PC stays atomic when its prepare/decision broadcasts fan out in
       parallel;
     - the typed Xrpc_error vocabulary round-trips through SOAP faults;
     - a seeded chaos schedule under the (default) sequential executor
       still replays to a bit-identical span-tree signature. *)

open Xrpc_xml
module Executor = Xrpc_net.Executor
module Transport = Xrpc_net.Transport
module Xrpc_error = Xrpc_net.Xrpc_error
module Simnet = Xrpc_net.Simnet
module Http = Xrpc_net.Http
module Peer = Xrpc_peer.Peer
module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Trace = Xrpc_obs.Trace
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let with_tracer f =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.use_wall_clock ();
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Executor unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_sequential_inline () =
  check bool_ "is_sequential" true (Executor.is_sequential Executor.sequential);
  let log = ref [] in
  let fut = Executor.submit Executor.sequential (fun () -> log := 1 :: !log; "a") in
  (* on the sequential executor the effect is visible before await *)
  check int_ "ran inline" 1 (List.length !log);
  check string_ "await" "a" (Executor.await fut);
  check bool_ "map_list is List.map" true
    (Executor.map_list Executor.sequential (fun i -> i * i) [ 1; 2; 3 ]
    = [ 1; 4; 9 ])

let test_pool_bounds_concurrency () =
  let pool = Executor.pool 2 in
  check int_ "pool size" 2 (Executor.threads pool);
  let m = Mutex.create () in
  let inflight = ref 0 and peak = ref 0 in
  let f i =
    Mutex.lock m;
    incr inflight;
    if !inflight > !peak then peak := !inflight;
    Mutex.unlock m;
    Thread.delay 0.02;
    Mutex.lock m;
    decr inflight;
    Mutex.unlock m;
    i * 10
  in
  let out = Executor.map_list pool f [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  check bool_ "order preserved" true (out = [ 10; 20; 30; 40; 50; 60; 70; 80 ]);
  if !peak > 2 then Alcotest.failf "pool 2 ran %d tasks at once" !peak;
  check bool_ "pool actually overlapped work" true (!peak = 2);
  Executor.shutdown pool

let test_map_list_error_discipline () =
  let pool = Executor.pool 4 in
  let ran = Array.make 5 false in
  let f i =
    ran.(i) <- true;
    if i = 1 || i = 3 then failwith (string_of_int i) else i
  in
  (match Executor.map_list pool f [ 0; 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "error swallowed"
  | exception Failure m ->
      (* the FIRST failure in list order wins, not the first to finish *)
      check string_ "first in list order" "1" m);
  check bool_ "every element still evaluated" true
    (Array.for_all Fun.id ran);
  Executor.shutdown pool

let test_future_lifecycle () =
  let m = Mutex.create () and cv = Condition.create () in
  let go = ref false in
  let fut =
    Executor.submit Executor.unbounded (fun () ->
        Mutex.lock m;
        while not !go do
          Condition.wait cv m
        done;
        Mutex.unlock m;
        42)
  in
  check bool_ "pending while gated" true (Executor.peek fut = None);
  Mutex.lock m;
  go := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  check int_ "await" 42 (Executor.await fut);
  check bool_ "peek after resolve" true (Executor.peek fut = Some (Ok 42));
  let bad = Executor.submit Executor.unbounded (fun () -> failwith "boom") in
  (match Executor.await_result bad with
  | Error (Failure m) when m = "boom" -> ()
  | _ -> Alcotest.fail "error not captured")

let test_own_pool_reentry () =
  (* a pool worker fanning out onto its own pool must not deadlock *)
  let pool = Executor.pool 1 in
  let fut =
    Executor.submit pool (fun () ->
        Executor.map_list pool (fun i -> i * 2) [ 1; 2; 3 ])
  in
  check bool_ "degrades to inline, same answer" true
    (Executor.await fut = [ 2; 4; 6 ]);
  Executor.shutdown pool

let test_span_propagation_across_threads () =
  with_tracer @@ fun () ->
  Trace.set_enabled true;
  let fut = ref None in
  Trace.with_span "outer" (fun () ->
      fut :=
        Some
          (Executor.submit Executor.unbounded (fun () ->
               Trace.with_span "inner" (fun () -> ())));
      Executor.await (Option.get !fut));
  let find name =
    match List.find_opt (fun s -> s.Trace.name = name) (Trace.spans ()) with
    | Some s -> s
    | None -> Alcotest.failf "no span %s" name
  in
  let outer = find "outer" and inner = find "inner" in
  check bool_ "worker span parented under submitter's span" true
    (inner.Trace.parent = Some outer.Trace.span_id)

(* ------------------------------------------------------------------ *)
(* Direct peer-handler transport (thread-safe, no simulated clock)     *)
(* ------------------------------------------------------------------ *)

(* Routes each destination straight into a peer's [handle_raw]; parallel
   sends fan out through [executor].  Peers serialize internally, so this
   is safe under any executor — unlike Simnet, which owns a virtual clock
   and must stay sequential. *)
let direct_transport ~executor peers =
  let send ~dest body =
    match List.assoc_opt dest peers with
    | Some handler -> handler body
    | None -> Transport.error ~kind:Transport.Unreachable ~dest "no such peer"
  in
  {
    Transport.send;
    send_parallel =
      (fun pairs ->
        Executor.map_list executor (fun (dest, body) -> send ~dest body) pairs);
  }

let make_peer name =
  let p = Peer.create ("xrpc://" ^ name) in
  Peer.register_module p ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  p

(* ------------------------------------------------------------------ *)
(* Parallel == sequential dispatch                                     *)
(* ------------------------------------------------------------------ *)

(* one query fanning out to four peers; result depends on the peer *)
let q_fan_out =
  {|import module namespace t="test" at "http://x.example.org/test.xq";
for $i in (1, 2, 3, 4)
return execute at {concat("xrpc://p", string($i))} {t:ping($i)}|}

let run_fan_out ~executor =
  let peers =
    List.map
      (fun i ->
        let name = "p" ^ string_of_int i in
        let p = make_peer name in
        ("xrpc://" ^ name, Peer.handle_raw p))
      [ 1; 2; 3; 4 ]
  in
  let x = make_peer "x" in
  Peer.set_transport x (direct_transport ~executor peers);
  Xdm.to_display (Peer.query_seq x q_fan_out)

let test_parallel_equals_sequential_query () =
  let seq = run_fan_out ~executor:Executor.sequential in
  let pool = Executor.pool 4 in
  let par = run_fan_out ~executor:pool in
  Executor.shutdown pool;
  check string_ "same values, same order" seq par;
  check string_ "and the values are right" "1 2 3 4" seq

let test_client_scatter_matches_sequential () =
  let dispatch ~executor =
    let peers =
      List.map
        (fun i ->
          let name = "p" ^ string_of_int i in
          ("xrpc://" ^ name, Peer.handle_raw (make_peer name)))
        [ 1; 2; 3; 4; 5; 6 ]
    in
    let client =
      Client.connect_transport
        ~config:(Client.config ~executor ())
        (direct_transport ~executor peers)
    in
    Client.call_scatter client ~module_uri:Testmod.module_ns
      ~location:Testmod.module_at ~fn:"ping"
      (List.init 6 (fun i ->
           ("xrpc://p" ^ string_of_int (i + 1), [ [ Xdm.int (i + 1) ] ])))
  in
  let seq = dispatch ~executor:Executor.sequential in
  let pool = Executor.pool 3 in
  let par = dispatch ~executor:pool in
  Executor.shutdown pool;
  check bool_ "scatter results identical" true (seq = par);
  check bool_ "scatter values in input order" true
    (par = List.init 6 (fun i -> [ Xdm.int (i + 1) ]))

(* ------------------------------------------------------------------ *)
(* Xrpc_client façade                                                  *)
(* ------------------------------------------------------------------ *)

let test_client_typed_calls () =
  let cluster = Cluster.create ~names:[ "x"; "y" ] () in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  let client = Cluster.client cluster in
  check bool_ "client is cached" true (client == Cluster.client cluster);
  let r =
    Client.call client ~dest:"xrpc://y" ~module_uri:Testmod.module_ns
      ~location:Testmod.module_at ~fn:"ping" [ [ Xdm.int 9 ] ]
  in
  check string_ "single call" "9" (Xdm.to_display r);
  let rs =
    Client.call_bulk client ~dest:"xrpc://y" ~module_uri:Testmod.module_ns
      ~location:Testmod.module_at ~fn:"ping"
      [ [ [ Xdm.int 1 ] ]; [ [ Xdm.int 2 ] ]; [ [ Xdm.int 3 ] ] ]
  in
  check bool_ "bulk: one result per call, in order" true
    (List.map Xdm.to_display rs = [ "1"; "2"; "3" ]);
  let fut =
    Executor.submit (Client.executor client) (fun () ->
        Client.call client ~dest:"xrpc://y" ~module_uri:Testmod.module_ns
          ~location:Testmod.module_at ~fn:"ping" [ [ Xdm.int 5 ] ])
  in
  check string_ "async" "5" (Xdm.to_display (Executor.await fut))

let test_client_typed_errors () =
  let cluster = Cluster.create ~names:[ "x"; "y" ] () in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  let client = Cluster.client cluster in
  (* a peer-side failure surfaces as a typed application fault *)
  (match
     Client.call client ~dest:"xrpc://y" ~module_uri:Testmod.module_ns
       ~location:Testmod.module_at ~fn:"noSuchFunction" [ [ Xdm.int 1 ] ]
   with
  | _ -> Alcotest.fail "missing function accepted"
  | exception Xrpc_error.Error e -> (
      check string_ "fault dest" "xrpc://y" e.Xrpc_error.dest;
      match e.Xrpc_error.kind with
      | Xrpc_error.Fault `Sender -> ()
      | _ -> Alcotest.fail "expected an application fault"));
  (* a transport-level failure keeps its kind *)
  match
    Client.call client ~dest:"xrpc://nowhere" ~module_uri:Testmod.module_ns
      ~location:Testmod.module_at ~fn:"ping" [ [ Xdm.int 1 ] ]
  with
  | _ -> Alcotest.fail "unknown peer accepted"
  | exception Xrpc_error.Error { kind = Xrpc_error.Unreachable; _ } -> ()
  | exception e -> Alcotest.failf "wrong error %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Concurrent keep-alive requests against one peer                     *)
(* ------------------------------------------------------------------ *)

let test_concurrent_keep_alive () =
  let peer = make_peer "served" in
  let server = Http.serve (fun ~path:_ body -> Peer.handle_raw peer body) in
  Fun.protect ~finally:(fun () -> Http.shutdown server) @@ fun () ->
  let dest = Printf.sprintf "xrpc://127.0.0.1:%d" (Http.port server) in
  let pool = Executor.pool 4 in
  let client =
    Client.connect_http
      ~config:(Client.config ~executor:pool ~keep_alive:true ())
      ()
  in
  (* back-to-back calls on one client reuse the pooled connection *)
  for i = 1 to 5 do
    let r =
      Client.call client ~dest ~module_uri:Testmod.module_ns
        ~location:Testmod.module_at ~fn:"ping" [ [ Xdm.int i ] ]
    in
    check string_ (Printf.sprintf "sequential call %d" i) (string_of_int i)
      (Xdm.to_display r)
  done;
  (* 16 concurrent requests against the SAME destination *)
  let rs =
    Client.call_scatter client ~module_uri:Testmod.module_ns
      ~location:Testmod.module_at ~fn:"ping"
      (List.init 16 (fun i -> (dest, [ [ Xdm.int i ] ])))
  in
  Executor.shutdown pool;
  check bool_ "every concurrent response correct and in order" true
    (List.map Xdm.to_display rs = List.init 16 string_of_int);
  check int_ "peer served every request exactly once" 21
    peer.Peer.requests_handled

(* ------------------------------------------------------------------ *)
(* Parallel 2PC atomicity                                              *)
(* ------------------------------------------------------------------ *)

let q_2pc =
  {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y", "xrpc://z")
return execute at {$dst} {f:addFilm("New", "Actor New")}|}

let count_film peer name =
  match
    Peer.query_seq peer
      (Printf.sprintf {|count(doc("filmDB.xml")//film[name = %S])|} name)
  with
  | [ Xdm.Atomic (Xs.Integer n) ] -> n
  | r -> Alcotest.failf "unexpected count result %s" (Xdm.to_display r)

(* a handler that answers requests but is crashed for transaction
   messages — a peer lost between the query's dispatch and the 2PC *)
let crashed_for_tx ~dest handler body =
  match Xrpc_soap.Message.of_string body with
  | Xrpc_soap.Message.Tx_request _ ->
      Transport.error ~kind:Transport.Unreachable ~dest "crashed before 2PC"
  | _ -> handler body

let twopc_setup ~executor ~lose_z =
  let y = Peer.create "xrpc://y" and z = Peer.create "xrpc://z" in
  Filmdb.install y ();
  Filmdb.install z ~variant:`Z ();
  let x = Peer.create "xrpc://x" in
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  let z_handler =
    if lose_z then crashed_for_tx ~dest:"xrpc://z" (Peer.handle_raw z)
    else Peer.handle_raw z
  in
  let transport =
    direct_transport ~executor
      [ ("xrpc://y", Peer.handle_raw y); ("xrpc://z", z_handler) ]
  in
  Peer.set_transport x transport;
  Peer.set_executor x executor;
  (x, y, z)

let test_parallel_2pc_atomicity () =
  let pool = Executor.pool 4 in
  Fun.protect ~finally:(fun () -> Executor.shutdown pool) @@ fun () ->
  for round = 1 to 5 do
    (* healthy run: both participants prepare and commit, in parallel *)
    let x, y, z = twopc_setup ~executor:pool ~lose_z:false in
    let r = Peer.query x q_2pc in
    check bool_ (Printf.sprintf "round %d committed" round) true
      r.Peer.committed;
    check int_ (Printf.sprintf "round %d applied at y" round) 1
      (count_film y "New");
    check int_ (Printf.sprintf "round %d applied at z" round) 1
      (count_film z "New")
  done;
  (* z crashes after the dispatch but before prepare: its vote fails, so
     the parallel decision phase must roll EVERYONE back *)
  let x, y, z = twopc_setup ~executor:pool ~lose_z:true in
  let r = Peer.query x q_2pc in
  check bool_ "aborted" false r.Peer.committed;
  check int_ "nothing applied at y" 0 (count_film y "New");
  check int_ "nothing applied at z" 0 (count_film z "New")

(* ------------------------------------------------------------------ *)
(* Xrpc_error round trip                                               *)
(* ------------------------------------------------------------------ *)

let test_error_round_trip () =
  let gen_kind =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return Xrpc_error.Timeout;
        QCheck.Gen.return Xrpc_error.Unreachable;
        QCheck.Gen.return Xrpc_error.Circuit_open;
        QCheck.Gen.map
          (fun d -> Xrpc_error.Protocol d)
          (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
             (QCheck.Gen.int_range 0 8));
      ]
  in
  let gen_dest =
    QCheck.Gen.map
      (fun s -> "xrpc://" ^ s)
      (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
         (QCheck.Gen.int_range 1 12))
  in
  let arb =
    QCheck.make
      QCheck.Gen.(
        map3
          (fun kind dest info -> { Xrpc_error.kind; dest; info })
          gen_kind gen_dest (string_size (int_range 0 40)))
  in
  let prop e =
    let code, reason = Xrpc_error.to_soap_fault e in
    (* transport kinds round-trip exactly, embedded dest included *)
    Xrpc_error.of_soap_fault ~code reason = e
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"transport kinds round-trip" arb prop);
  (* application faults keep code + reason, dest comes from the caller *)
  List.iter
    (fun code ->
      let e = { Xrpc_error.kind = Xrpc_error.Fault code; dest = "xrpc://y"; info = "boom" } in
      let code', reason = Xrpc_error.to_soap_fault e in
      check bool_ "fault code preserved" true (code' = code);
      check string_ "fault reason untouched" "boom" reason;
      check bool_ "fault round-trips with dest" true
        (Xrpc_error.of_soap_fault ~dest:"xrpc://y" ~code:code' reason = e))
    [ `Sender; `Receiver ]

(* ------------------------------------------------------------------ *)
(* Sequential-mode chaos replay stays bit-identical                    *)
(* ------------------------------------------------------------------ *)

let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

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

let q_two_peers =
  {|import module namespace t="test" at "http://x.example.org/test.xq";
(execute at {"xrpc://y"} {t:ping(1)}, execute at {"xrpc://z"} {t:ping(2)})|}

(* the executor is passed EXPLICITLY: the deterministic mode of the new
   dispatch engine must preserve the seed-replay contract end to end *)
let chaos_run ~seed =
  Trace.reset ();
  let cluster =
    Cluster.create ~config:sim_config
      ~faults:(Simnet.chaos ~seed ~loss:0.05 ())
      ~policy:chaos_policy ~executor:Executor.sequential
      ~names:[ "x"; "y"; "z" ] ()
  in
  Cluster.register_module_everywhere cluster ~uri:Testmod.module_ns
    ~location:Testmod.module_at Testmod.test_module;
  Cluster.enable_tracing cluster;
  let x = Cluster.peer cluster "x" in
  let failed = ref 0 in
  for _ = 1 to 10 do
    try ignore (Peer.query_seq x q_two_peers) with _ -> incr failed
  done;
  let signature = Trace.signature () in
  Cluster.disable_tracing ();
  (signature, Cluster.clock_ms cluster, !failed)

let test_sequential_chaos_replay () =
  with_tracer @@ fun () ->
  List.iter
    (fun seed ->
      let sig_a, clock_a, failed_a = chaos_run ~seed in
      let sig_b, clock_b, failed_b = chaos_run ~seed in
      check int_ (Printf.sprintf "seed %d same failures" seed) failed_a
        failed_b;
      check (Alcotest.float 0.) (Printf.sprintf "seed %d same clock" seed)
        clock_a clock_b;
      if sig_a <> sig_b then
        Alcotest.failf "seed %d: span tree not reproducible\n--- a ---\n%s\n--- b ---\n%s"
          seed sig_a sig_b)
    [ 2; 9; 23 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dispatch"
    [
      ( "executor",
        [
          Alcotest.test_case "sequential runs inline" `Quick
            test_sequential_inline;
          Alcotest.test_case "pool bounds concurrency" `Quick
            test_pool_bounds_concurrency;
          Alcotest.test_case "map_list error discipline" `Quick
            test_map_list_error_discipline;
          Alcotest.test_case "future lifecycle" `Quick test_future_lifecycle;
          Alcotest.test_case "own-pool re-entry" `Quick test_own_pool_reentry;
          Alcotest.test_case "span propagation across threads" `Quick
            test_span_propagation_across_threads;
        ] );
      ( "parallel-dispatch",
        [
          Alcotest.test_case "query fan-out: parallel == sequential" `Quick
            test_parallel_equals_sequential_query;
          Alcotest.test_case "client scatter: parallel == sequential" `Quick
            test_client_scatter_matches_sequential;
          Alcotest.test_case "concurrent keep-alive, one peer" `Quick
            test_concurrent_keep_alive;
          Alcotest.test_case "parallel 2PC atomicity" `Quick
            test_parallel_2pc_atomicity;
        ] );
      ( "client",
        [
          Alcotest.test_case "typed calls" `Quick test_client_typed_calls;
          Alcotest.test_case "typed errors" `Quick test_client_typed_errors;
        ] );
      ( "errors",
        [ Alcotest.test_case "SOAP fault round trip" `Quick test_error_round_trip ] );
      ( "determinism",
        [
          Alcotest.test_case "sequential chaos replay" `Quick
            test_sequential_chaos_replay;
        ] );
    ]
