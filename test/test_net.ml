(* Tests for the network substrate: xrpc:// URIs, the deterministic
   simulated network (latency/bandwidth/parallel dispatch), and the real
   HTTP transport over loopback sockets. *)

module Uri = Xrpc_net.Xrpc_uri
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Http = Xrpc_net.Http

let check = Alcotest.check
let string_ = Alcotest.string
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* URIs                                                                *)
(* ------------------------------------------------------------------ *)

let test_uri_full () =
  let u = Uri.parse "xrpc://y.example.org:8080/some/path.xml" in
  check string_ "scheme" "xrpc" u.Uri.scheme;
  check string_ "host" "y.example.org" u.Uri.host;
  check (Alcotest.option int_) "port" (Some 8080) u.Uri.port;
  check string_ "path" "some/path.xml" u.Uri.path;
  check string_ "roundtrip" "xrpc://y.example.org:8080/some/path.xml"
    (Uri.to_string u)

let test_uri_minimal () =
  let u = Uri.parse "xrpc://y.example.org" in
  check (Alcotest.option int_) "no port" None u.Uri.port;
  check string_ "no path" "" u.Uri.path;
  check string_ "peer key" "y.example.org" (Uri.peer_key u)

let test_uri_bare_host () =
  (* §5 uses execute at {"B"} — bare names are peers too *)
  let u = Uri.parse "B" in
  check string_ "host" "B" u.Uri.host;
  check string_ "default scheme" "xrpc" u.Uri.scheme

let test_uri_bad () =
  Alcotest.check_raises "empty host" (Uri.Bad_uri "xrpc://") (fun () ->
      ignore (Uri.parse "xrpc://"))

(* ------------------------------------------------------------------ *)
(* Simnet                                                              *)
(* ------------------------------------------------------------------ *)

let config latency bw =
  { Simnet.latency_ms = latency; bandwidth_bytes_per_ms = bw; charge_cpu = false }

let test_simnet_latency_accounting () =
  let net = Simnet.create ~config:(config 1.0 Float.infinity) () in
  Simnet.register net "xrpc://a" (fun body -> body);
  let r = Simnet.send net ~dest:"xrpc://a" "hello" in
  check string_ "echo" "hello" r;
  (* one round trip = 2 x latency *)
  check (Alcotest.float 0.0001) "2ms" 2.0 net.Simnet.clock_ms;
  check int_ "2 messages" 2 net.Simnet.stats.Simnet.messages

let test_simnet_bandwidth_accounting () =
  let net = Simnet.create ~config:(config 0. 100.) () in
  Simnet.register net "xrpc://a" (fun _ -> String.make 400 'x');
  ignore (Simnet.send net ~dest:"xrpc://a" (String.make 200 'y'));
  (* 200/100 + 400/100 = 6 ms *)
  check (Alcotest.float 0.0001) "transfer cost" 6.0 net.Simnet.clock_ms;
  check int_ "bytes sent" 200 net.Simnet.stats.Simnet.bytes_sent;
  check int_ "bytes received" 400 net.Simnet.stats.Simnet.bytes_received

let test_simnet_parallel_charges_max () =
  let net = Simnet.create ~config:(config 0. 100.) () in
  Simnet.register net "xrpc://a" (fun _ -> String.make 100 'a');
  Simnet.register net "xrpc://b" (fun _ -> String.make 500 'b');
  let rs = Simnet.send_parallel net [ ("xrpc://a", "x"); ("xrpc://b", "x") ] in
  check int_ "both answered" 2 (List.length rs);
  (* max(1.01, 5.01) rather than the 6.02 sum *)
  check (Alcotest.float 0.001) "max not sum" 5.01 net.Simnet.clock_ms

let test_simnet_unknown_peer () =
  (* an unregistered destination speaks the unified error vocabulary,
     so the policy layer treats it like any other unreachable peer *)
  let net = Simnet.create () in
  match Simnet.send net ~dest:"xrpc://nope" "x" with
  | _ -> Alcotest.fail "unknown peer answered"
  | exception
      Transport.Error
        { Xrpc_net.Xrpc_error.kind = Transport.Unreachable; dest; _ } ->
      Alcotest.check Alcotest.string "dest reported" "xrpc://nope" dest

let test_simnet_network_ms_excludes_cpu () =
  let net =
    Simnet.create
      ~config:{ Simnet.latency_ms = 1.; bandwidth_bytes_per_ms = Float.infinity;
                charge_cpu = true }
      ()
  in
  Simnet.register net "xrpc://slow" (fun body ->
      Unix.sleepf 0.01;
      body);
  ignore (Simnet.send net ~dest:"xrpc://slow" "x");
  check (Alcotest.float 0.0001) "wire only" 2.0 net.Simnet.stats.Simnet.network_ms;
  check bool_ "clock includes cpu" true (net.Simnet.clock_ms > 10.)

let test_simnet_reset () =
  let net = Simnet.create ~config:(config 1. Float.infinity) () in
  Simnet.register net "xrpc://a" (fun b -> b);
  ignore (Simnet.send net ~dest:"xrpc://a" "x");
  Simnet.reset_clock net;
  Simnet.reset_stats net;
  check (Alcotest.float 0.) "clock reset" 0. net.Simnet.clock_ms;
  check int_ "stats reset" 0 net.Simnet.stats.Simnet.messages

(* ------------------------------------------------------------------ *)
(* HTTP                                                                *)
(* ------------------------------------------------------------------ *)

let test_http_roundtrip () =
  let server =
    Http.serve (fun ~path body ->
        Printf.sprintf "path=%s body=%s" path body)
  in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let r =
        Http.post ~host:"127.0.0.1" ~port:(Http.port server) ~path:"/svc" "ping"
      in
      check string_ "roundtrip" "path=/svc body=ping" r)

let test_http_large_body () =
  let server = Http.serve (fun ~path:_ body -> body) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let payload = String.init 200_000 (fun i -> Char.chr (32 + (i mod 90))) in
      let r = Http.post ~host:"127.0.0.1" ~port:(Http.port server) payload in
      check bool_ "200k echoed" true (String.equal r payload))

let test_http_transport_parallel () =
  let server = Http.serve (fun ~path:_ body -> "<" ^ body ^ ">") in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let t = Http.transport () in
      let dest = Printf.sprintf "xrpc://127.0.0.1:%d" (Http.port server) in
      let rs = t.Transport.send_parallel [ (dest, "a"); (dest, "b"); (dest, "c") ] in
      check (Alcotest.list string_) "parallel" [ "<a>"; "<b>"; "<c>" ] rs)

let test_http_error_status () =
  let server = Http.serve (fun ~path:_ _ -> failwith "boom") in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      match Http.post ~host:"127.0.0.1" ~port:(Http.port server) "x" with
      | exception Http.Http_error _ -> ()
      | r -> Alcotest.fail ("expected 500, got " ^ r))

let test_http_concurrent_peer () =
  (* many threads hammering one peer over real HTTP: the peer lock must
     keep its state consistent *)
  let peer = Xrpc_peer.Peer.create "xrpc://127.0.0.1" in
  Xrpc_workloads.Filmdb.install peer ();
  let server =
    Http.serve (fun ~path:_ body -> Xrpc_peer.Peer.handle_raw peer body)
  in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let body =
        Xrpc_soap.Message.to_string
          (Xrpc_soap.Message.Request
             {
               Xrpc_soap.Message.module_uri = "films";
               location = Xrpc_workloads.Filmdb.module_at;
               method_ = "filmsByActor";
               arity = 1;
               updating = false;
               fragments = false;
               query_id = None;
               idem_key = None;
               calls = [ [ [ Xrpc_xml.Xdm.str "Sean Connery" ] ] ];
             })
      in
      let ok = Atomic.make 0 in
      let threads =
        List.init 16 (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to 5 do
                  match
                    Xrpc_soap.Message.of_string
                      (Http.post ~host:"127.0.0.1" ~port:(Http.port server) body)
                  with
                  | Xrpc_soap.Message.Response { results = [ r ]; _ }
                    when List.length r = 2 ->
                      Atomic.incr ok
                  | _ -> ()
                done)
              ())
      in
      List.iter Thread.join threads;
      check int_ "all 80 requests answered correctly" 80 (Atomic.get ok);
      check int_ "peer counted them" 80 peer.Xrpc_peer.Peer.requests_handled)

let () =
  Alcotest.run "net"
    [
      ( "uri",
        [
          Alcotest.test_case "full" `Quick test_uri_full;
          Alcotest.test_case "minimal" `Quick test_uri_minimal;
          Alcotest.test_case "bare host" `Quick test_uri_bare_host;
          Alcotest.test_case "bad" `Quick test_uri_bad;
        ] );
      ( "simnet",
        [
          Alcotest.test_case "latency" `Quick test_simnet_latency_accounting;
          Alcotest.test_case "bandwidth" `Quick test_simnet_bandwidth_accounting;
          Alcotest.test_case "parallel = max" `Quick
            test_simnet_parallel_charges_max;
          Alcotest.test_case "unknown peer" `Quick test_simnet_unknown_peer;
          Alcotest.test_case "network_ms excludes cpu" `Quick
            test_simnet_network_ms_excludes_cpu;
          Alcotest.test_case "reset" `Quick test_simnet_reset;
        ] );
      ( "http",
        [
          Alcotest.test_case "roundtrip" `Quick test_http_roundtrip;
          Alcotest.test_case "large body" `Quick test_http_large_body;
          Alcotest.test_case "parallel transport" `Quick
            test_http_transport_parallel;
          Alcotest.test_case "server error" `Quick test_http_error_status;
          Alcotest.test_case "concurrent peer over HTTP" `Quick
            test_http_concurrent_peer;
        ] );
    ]
