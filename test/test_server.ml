(* Tests for the HTTP codec and server core: byte-by-byte incremental
   parsing, strict Content-Length, pipelining, slow-loris partial
   requests, client disconnect mid-response, keep-alive reuse over one
   socket, max_connections 503 turn-away, accept-errno classification,
   1000 concurrent keep-alive connections, the client reader against
   raw-socket servers (dribbled bytes, framing errors, connection reuse,
   no re-execution, typed timeouts), and the Xrpc_server façade. *)

module Http = Xrpc_net.Http
module Conn = Xrpc_net.Conn
module Evloop = Xrpc_net.Evloop
module Transport = Xrpc_net.Transport
module Server = Xrpc_core.Xrpc_server
module Peer = Xrpc_peer.Peer

let check = Alcotest.check
let string_ = Alcotest.string
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Raw-socket client helpers                                           *)
(* ------------------------------------------------------------------ *)

(* Raw sockets framed by the shared codec: a [Conn.t] in the client role
   reads responses, one in the server role reads requests (raw-socket
   servers below).  Bytes pipelined past a message stay in its buffer. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Conn.create ~role:Conn.Client fd

let send_all (c : Conn.t) s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring c.Conn.fd s !sent (n - !sent)
  done

let get_req path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path

let post_req path body =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

(* Read exactly one message off [c]: (status, body); the status is 0 for
   a request. *)
let rec recv (c : Conn.t) =
  match Conn.feed c with
  | Conn.Request ->
      let body = Bytes.sub_string c.Conn.inbuf c.Conn.body_off c.Conn.clen in
      Conn.reset_for_next c;
      (c.Conn.status, body)
  | Conn.Bad why -> failwith why
  | Conn.Need_more ->
      if Conn.read_step c = Conn.Read_some then recv c
      else failwith "eof before a full message"

let dest port = Printf.sprintf "xrpc://127.0.0.1:%d" port

(* Also for [Evloop.served], which the loop thread bumps once a response's
   last byte is written, possibly just after the client has read it. *)
let rec wait_for ?(tries = 100) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Unix.sleepf 0.02;
    wait_for ~tries:(tries - 1) pred
  end

(* ------------------------------------------------------------------ *)
(* Conn: incremental parser units (pure buffer manipulation)           *)
(* ------------------------------------------------------------------ *)

let dummy_conn () =
  Conn.create ~role:Conn.Server (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let push c s =
  let n = String.length s in
  Conn.grow_inbuf c (c.Conn.in_len + n);
  Bytes.blit_string s 0 c.Conn.inbuf c.Conn.in_len n;
  c.Conn.in_len <- c.Conn.in_len + n

let body_window c =
  Bytes.sub_string c.Conn.inbuf c.Conn.body_off c.Conn.clen

let expect_bad msg =
  let c = dummy_conn () in
  push c msg;
  let fed = Conn.feed c in
  Conn.close c;
  match fed with Conn.Bad _ -> () | _ -> Alcotest.failf "accepted %S" msg

let test_parse_byte_by_byte () =
  let c = dummy_conn () in
  let req = post_req "/soap" "<env>hi</env>" in
  String.iteri
    (fun i ch ->
      push c (String.make 1 ch);
      let fed = Conn.feed c in
      if i < String.length req - 1 then
        check bool_ (Printf.sprintf "need more at byte %d" i) true
          (fed = Conn.Need_more)
      else check bool_ "complete on last byte" true (fed = Conn.Request))
    req;
  check string_ "method" "POST" c.Conn.meth;
  check string_ "path" "/soap" c.Conn.path;
  check string_ "body window" "<env>hi</env>" (body_window c);
  check bool_ "keep-alive by default" false c.Conn.conn_close;
  Conn.close c

let test_parse_line_endings_and_close () =
  (* bare-LF lines, leading blank lines, explicit Connection: close *)
  let c = dummy_conn () in
  push c "\r\n\nGET /x HTTP/1.1\nConnection: close\n\n";
  check bool_ "request" true (Conn.feed c = Conn.Request);
  check string_ "path" "/x" c.Conn.path;
  check bool_ "close requested" true c.Conn.conn_close;
  Conn.close c

let test_parse_http10_defaults_close () =
  let c = dummy_conn () in
  push c "GET / HTTP/1.0\r\n\r\n";
  check bool_ "request" true (Conn.feed c = Conn.Request);
  check bool_ "1.0 defaults to close" true c.Conn.conn_close;
  Conn.close c

let test_parse_bad_request_line () = expect_bad "NONSENSE\r\n"

let test_parse_pipelined () =
  let c = dummy_conn () in
  push c (post_req "/a" "one" ^ get_req "/b");
  check bool_ "first request" true (Conn.feed c = Conn.Request);
  check string_ "first path" "/a" c.Conn.path;
  check string_ "first body" "one" (body_window c);
  Conn.reset_for_next c;
  check bool_ "second request already buffered" true
    (Conn.feed c = Conn.Request);
  check string_ "second path" "/b" c.Conn.path;
  check int_ "second body empty" 0 c.Conn.clen;
  Conn.close c

let test_parse_strict_content_length () =
  (* spellings int_of_string takes but HTTP does not (a sign, a radix
     prefix, digit separators, no digits), an overflowing length, and
     conflicting duplicates *)
  List.iter
    (fun v ->
      expect_bad
        (Printf.sprintf "POST /x HTTP/1.1\r\nContent-Length: %s\r\n\r\n" v))
    [ "-1"; "0x10"; "0o7"; "1_000"; "+5"; ""; "5 5"; "99999999999999999999999";
      "1\r\nContent-Length: 2" ];
  let c = dummy_conn () in
  push c
    "POST /x HTTP/1.1\r\nContent-Length: 007\r\nContent-Length: 7\r\n\r\nsixteen";
  check bool_ "leading zeros, agreeing duplicate" true
    (Conn.feed c = Conn.Request);
  check string_ "body" "sixteen" (body_window c);
  Conn.close c

let test_accept_errno_classification () =
  (* resource exhaustion backs off (and counts the metric)… *)
  List.iter
    (fun e ->
      check bool_ "backoff" true (Evloop.accept_action e = `Backoff))
    [ Unix.EMFILE; Unix.ENFILE; Unix.ENOBUFS; Unix.ENOMEM ];
  (* …transient per-connection failures just retry… *)
  List.iter
    (fun e -> check bool_ "retry" true (Evloop.accept_action e = `Retry))
    [ Unix.ECONNABORTED; Unix.EINTR; Unix.EAGAIN ];
  (* …and a dead listener stops the loop *)
  check bool_ "stop" true (Evloop.accept_action Unix.EBADF = `Stop)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle against a live event-loop server               *)
(* ------------------------------------------------------------------ *)

let echo_server ?max_connections () =
  Http.serve ?max_connections (fun ~path body ->
      Printf.sprintf "path=%s body=%s" path body)

let test_keep_alive_100_requests () =
  let server = echo_server () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fd = connect (Http.port server) in
      for i = 1 to 100 do
        send_all fd (post_req "/echo" (Printf.sprintf "req%d" i));
        let status, body = recv fd in
        check int_ (Printf.sprintf "status %d" i) 200 status;
        check string_
          (Printf.sprintf "body %d" i)
          (Printf.sprintf "path=/echo body=req%d" i)
          body
      done;
      Conn.close fd;
      (* the loop thread bumps [served] just after the response bytes go
         out, so the client can get here first — wait for the counter *)
      check bool_ "100 requests served" true
        (wait_for (fun () -> (Http.stats server).Evloop.served = 100));
      check int_ "one connection accepted" 1
        (Http.stats server).Evloop.accepted)

let test_slow_loris_does_not_block_others () =
  let server = echo_server () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let loris = connect (Http.port server) in
      (* half a request, then stall *)
      send_all loris "POST /slow HTTP/1.1\r\nHost: t\r\nContent-Le";
      Unix.sleepf 0.05;
      (* a well-behaved client on another connection is served meanwhile *)
      let fast = connect (Http.port server) in
      send_all fast (post_req "/fast" "now");
      let status, body = recv fast in
      check int_ "fast served during stall" 200 status;
      check string_ "fast body" "path=/fast body=now" body;
      Conn.close fast;
      (* the stalled connection can still finish its request *)
      send_all loris "ngth: 4\r\n\r\nlate";
      let status, body = recv loris in
      check int_ "loris finally served" 200 status;
      check string_ "loris body" "path=/slow body=late" body;
      Conn.close loris)

let test_client_disconnect_mid_response () =
  (* a response far larger than loopback socket buffers, so the server is
     still writing when the client vanishes *)
  let big = String.make (8 * 1024 * 1024) 'x' in
  let server = Http.serve (fun ~path:_ _ -> big) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fd = connect (Http.port server) in
      send_all fd (post_req "/big" "");
      (* read a little of the response, then hang up *)
      ignore (Conn.read_step fd);
      Conn.close fd;
      check bool_ "disconnect detected" true
        (wait_for (fun () -> (Http.stats server).Evloop.disconnects >= 1));
      (* the loop survived: a fresh connection is served normally *)
      let fd2 = connect (Http.port server) in
      send_all fd2 (post_req "/after" "");
      let status, body = recv fd2 in
      check int_ "served after disconnect" 200 status;
      check int_ "full body this time" (String.length big) (String.length body);
      Conn.close fd2)

let test_max_connections_503 () =
  let server = echo_server ~max_connections:2 () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      (* two keep-alive connections fill the server *)
      let c1 = connect (Http.port server) and c2 = connect (Http.port server) in
      List.iter
        (fun fd ->
          send_all fd (post_req "/hold" "");
          ignore (recv fd))
        [ c1; c2 ];
      (* the third is turned away with an immediate 503 and closed *)
      let c3 = connect (Http.port server) in
      send_all c3 (get_req "/denied");
      let status, _ = recv c3 in
      check int_ "503 over the cap" 503 status;
      Conn.close c3;
      let s = Http.stats server in
      check bool_ "rejection counted" true (s.Evloop.rejected >= 1);
      ignore (wait_for (fun () -> (Http.stats server).Evloop.served >= 2));
      check int_ "rejects not served" 2 (Http.stats server).Evloop.served;
      Conn.close c1;
      Conn.close c2)

let test_pooled_error_not_reexecuted () =
  let calls = Atomic.make 0 in
  let server =
    Http.serve (fun ~path:_ body ->
        if body = "boom" then (Atomic.incr calls; failwith "boom") else "ok")
  in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let t = Http.transport ~keep_alive:true () in
      let d = dest (Http.port server) in
      check string_ "pool warmed" "ok" (t.Transport.send ~dest:d "warm");
      (match t.Transport.send ~dest:d "boom" with
      | r -> Alcotest.failf "expected a 500, got %S" r
      | exception Http.Http_error _ -> ());
      check int_ "handler ran exactly once" 1 (Atomic.get calls))

let test_1000_concurrent_keep_alive () =
  let n = 1000 in
  let server = Http.serve ~backlog:512 (fun ~path body -> path ^ ":" ^ body) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fds = Array.init n (fun _ -> connect (Http.port server)) in
      (* two full rounds over the same sockets: proves every one of the
         1000 connections is held open and reused *)
      for round = 1 to 2 do
        Array.iteri
          (fun i fd ->
            send_all fd (post_req "/r" (Printf.sprintf "%d.%d" round i)))
          fds;
        Array.iteri
          (fun i fd ->
            let status, body = recv fd in
            check int_ "status" 200 status;
            check string_ "body"
              (Printf.sprintf "/r:%d.%d" round i)
              body)
          fds
      done;
      let s = Http.stats server in
      check int_ "all connections accepted" n s.Evloop.accepted;
      check int_ "still concurrently open" n s.Evloop.active;
      ignore (wait_for (fun () -> (Http.stats server).Evloop.served >= 2 * n));
      check int_ "two rounds served" (2 * n) (Http.stats server).Evloop.served;
      check int_ "none rejected" 0 s.Evloop.rejected;
      Array.iter Conn.close fds)

(* ------------------------------------------------------------------ *)
(* Client reader against raw-socket servers                            *)
(* ------------------------------------------------------------------ *)

(* A hand-scripted HTTP server on a loopback port: runs [script c] on
   every accepted connection (a server-role [Conn.t]), each on its own
   thread, and hands [f] the port and the count of accepted
   connections. *)
let with_raw_server script f =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 16;
  let accepted = Atomic.make 0 in
  let serve c =
    (try script c with Unix.Unix_error _ | Failure _ -> ());
    Conn.close c
  in
  let rec accept_loop () =
    let fd, _ = Unix.accept lsock in
    Atomic.incr accepted;
    ignore (Thread.create serve (Conn.create ~role:Conn.Server fd));
    accept_loop ()
  in
  (* the accept that fails once the listener is shut ends the thread *)
  let acceptor =
    Thread.create (fun () -> try accept_loop () with Unix.Unix_error _ -> ()) ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* shutdown wakes the blocked accept; close alone would not *)
      Unix.shutdown lsock Unix.SHUTDOWN_ALL;
      Thread.join acceptor;
      Unix.close lsock)
    (fun () ->
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, port) -> f port accepted
      | _ -> assert false)

let test_client_dribbled_bare_lf () =
  with_raw_server
    (fun c ->
      ignore (recv c);
      String.iter
        (fun ch ->
          send_all c (String.make 1 ch);
          Unix.sleepf 0.001)
        "HTTP/1.1 200 OK\nContent-Type: text/plain\nContent-Length: 5\n\nhello")
    (fun port _ ->
      check string_ "reassembled body" "hello"
        (Http.post ~host:"127.0.0.1" ~port "ping"))

let test_client_bad_framing () =
  List.iter
    (fun head ->
      with_raw_server
        (fun c ->
          ignore (recv c);
          send_all c (head ^ "\r\n\r\nbody"))
        (fun port _ ->
          match Http.post ~host:"127.0.0.1" ~port "ping" with
          | r -> Alcotest.failf "%S framed as %S" head r
          | exception Transport.Error { kind = Transport.Protocol _; _ } -> ()))
    [ "HTTP/1.1 200 OK\r\nConnection: close";
      "HTTP/1.1 200 OK\r\nContent-Length: -1";
      "HTTP/1.1 200 OK\r\nContent-Length: 0x4";
      "HTTP/1.1 2000 OK\r\nContent-Length: 4";
      "SOAP/1.1 200 OK\r\nContent-Length: 4" ]

(* a response that breaks the codec was produced by a server that has
   already run the request: the policy layer must not re-send it *)
let test_policy_no_resend_on_protocol () =
  with_raw_server
    (fun c ->
      ignore (recv c);
      send_all c "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nbody")
    (fun port accepted ->
      let policy =
        { Transport.default_policy with
          max_retries = 3; backoff_base_ms = 1.; backoff_cap_ms = 1.;
          breaker_threshold = 0 }
      in
      let t = Http.transport ~policy () in
      (match t.Transport.send ~dest:(dest port) "ping" with
      | r -> Alcotest.failf "framed as %S" r
      | exception Transport.Error { kind = Transport.Protocol _; _ } -> ());
      check int_ "requests accepted" 1 (Atomic.get accepted))

(* two sends over a keep-alive transport to a server answering [reply]
   on every request ([~once]: then dropping the connection): returns how
   many connections they took *)
let connections_for_two_sends ?(once = false) reply =
  with_raw_server
    (fun c ->
      while
        ignore (recv c);
        send_all c reply;
        not once
      do () done)
    (fun port accepted ->
      let t = Http.transport ~keep_alive:true () in
      check string_ "first" "ok" (t.Transport.send ~dest:(dest port) "a");
      check string_ "second" "ok" (t.Transport.send ~dest:(dest port) "b");
      Atomic.get accepted)

let test_client_connection_reuse () =
  let keep = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" in
  check int_ "keep-alive response: connection reused" 1
    (connections_for_two_sends keep);
  (* the pooled connection died before any response byte: re-sent fresh *)
  check int_ "stale pooled connection: retried on a new one" 2
    (connections_for_two_sends ~once:true keep);
  (* the server says close but would keep answering: take it at its word *)
  check int_ "Connection: close: a new connection" 2
    (connections_for_two_sends
       "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok");
  check int_ "HTTP/1.0: a new connection" 2
    (connections_for_two_sends "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")

let test_client_read_timeout_typed () =
  (* reads the request, never answers *)
  with_raw_server
    (fun c -> while Conn.read_step c = Conn.Read_some do () done)
    (fun port _ ->
      let t = Http.transport ~timeout_ms:100. ~keep_alive:true () in
      match t.Transport.send ~dest:(dest port) "ping" with
      | r -> Alcotest.failf "answered %S" r
      | exception Transport.Error { kind = Transport.Timeout; _ } -> ())

(* ------------------------------------------------------------------ *)
(* Xrpc_server façade                                                  *)
(* ------------------------------------------------------------------ *)

let test_facade_routes_and_stats () =
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      check int_ "start is idempotent" port (Server.start server);
      (* Http.post raises unless the route answers 2xx *)
      let fetch path = Http.post ~host:"127.0.0.1" ~port ~path "" in
      check bool_ "metrics non-empty" true
        (String.length (fetch "/metrics") > 0);
      let routez = fetch "/routez" in
      List.iter
        (fun r ->
          check bool_ (r ^ " listed") true
            (List.mem_assoc r (Server.routes server)))
        [ "/metrics"; "/requestz"; "/slowz"; "/cachez"; "/shardz"; "/tracez";
          "/statz" ];
      check bool_ "routez renders the table" true
        (String.length routez > 100);
      let statz = fetch "/statz" in
      check bool_ "statz leads with the core counters" true
        (String.starts_with ~prefix:"server.accepted " statz);
      check bool_ "requests counted" true
        (wait_for (fun () -> (Server.stats server).Evloop.served >= 3)))

let contains hay needle =
  let lower = String.lowercase_ascii hay in
  let nl = String.length needle and ll = String.length lower in
  let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
  go 0

let test_facade_soap_fallback () =
  (* a non-route POST falls through to the peer's SOAP handler via the
     zero-copy streaming path: parsed out of the connection buffer,
     executed on a worker, serialized once into the output buffer *)
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"q"
    {|module namespace q = "q";
declare function q:answer() { 42 };|};
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Xrpc_core.Xrpc_client.connect_http () in
      let r =
        Xrpc_core.Xrpc_client.call client
          ~dest:(Printf.sprintf "xrpc://127.0.0.1:%d" port)
          ~module_uri:"q" ~fn:"answer" []
      in
      check string_ "remote call through the event loop" "42"
        (Xrpc_xml.Xdm.to_display r);
      check int_ "handled by the peer" 1 peer.Peer.requests_handled;
      (* an unparseable envelope comes back as a SOAP fault, not a 500 *)
      let reply = Http.post ~host:"127.0.0.1" ~port "not a soap envelope" in
      check bool_ "SOAP fault came back" true (contains reply "fault"))

(* Every JSON surface of a traced server reads back strictly: each
   view's [.json] form and both /tracez exports of every recorded
   request, after SOAP traffic that includes a fault whose label holds
   a quote, a newline and a control byte. *)
let test_facade_json_surfaces () =
  let module Trace = Xrpc_obs.Trace in
  let module Client = Xrpc_core.Xrpc_client in
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"q"
    {|module namespace q = "q";
declare function q:answer() { 42 };|};
  let server =
    Server.create
      ~config:(Server.config ~port:0 ~outgoing:false ~trace:true ())
      peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let client = Client.connect_http () in
      let call module_uri = Client.call client ~dest:(dest port) ~module_uri ~fn:"answer" [] in
      check string_ "served" "42" (Xrpc_xml.Xdm.to_display (call "q"));
      let weird = "we\"ird\nmod\001ule" in
      (match call weird with
      | _ -> Alcotest.fail "a call into an unknown module answered"
      | exception Xrpc_net.Xrpc_error.Error _ -> ());
      let fetch path = Http.post ~host:"127.0.0.1" ~port ~path "" in
      let json path = Json_check.parse_ok path (fetch path) in
      let views = [ "/metrics"; "/healthz"; "/clusterz"; "/requestz"; "/cachez"; "/shardz" ] in
      check (Alcotest.list string_) "the views are the routes with a .json form" views
        (List.filter_map
           (fun (path, doc) ->
             if String.ends_with ~suffix:"(also .json)" doc then Some path else None)
           (Server.routes server));
      List.iter (fun v -> ignore (json (v ^ ".json"))) views;
      let entries = Json_check.(items (member "recent" (json "/requestz.json"))) in
      let label e = Json_check.(str (member "label" e)) in
      (match
         List.find_opt
           (fun e -> String.starts_with ~prefix:(weird ^ ":answer") (label e))
           entries
       with
      | Some e ->
          check bool_ "the fault is on the record" true (Json_check.has "error" e)
      | None ->
          Alcotest.failf "faulted request not recorded (labels: %s)"
            (String.concat " | " (List.map label entries)));
      List.iter
        (fun e ->
          let id = int_of_float Json_check.(num (member "id" e)) in
          let chrome = json (Printf.sprintf "/tracez?id=%d" id) in
          check bool_ "chrome trace has events" true
            (Json_check.(items (member "traceEvents" chrome)) <> []);
          let tree = json (Printf.sprintf "/tracez?id=%d&format=tree" id) in
          check bool_ "span tree has a root" true
            (Json_check.(items (member "spans" tree)) <> []))
        entries;
      (* the weird label also names an SLO endpoint of /healthz.json *)
      check bool_ "healthz lists the faulted endpoint" true
        (List.exists
           (fun e -> Json_check.(str (member "endpoint" e)) = weird ^ ":answer")
           Json_check.(items (member "endpoints" (json "/healthz.json")))))

(* /cachez and /cachez.json render one Peer.cache_stats value: one line
   and one member per cache (plan, module plan, idempotency), and a
   served call's module compile shows in both as a func_cache miss. *)
let test_facade_cachez_agree () =
  let module Client = Xrpc_core.Xrpc_client in
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"q"
    {|module namespace q = "q";
declare function q:echo($x) { $x };|};
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.connect_http () in
      ignore
        (Client.call_bulk client ~dest:(dest port) ~module_uri:"q" ~fn:"echo"
           [ [ [ Xrpc_xml.Xdm.int 1 ] ]; [ [ Xrpc_xml.Xdm.int 2 ] ] ]);
      let fetch path = Http.post ~host:"127.0.0.1" ~port ~path "" in
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' (fetch "/cachez"))
      in
      let caches = [ "plan_cache"; "func_cache"; "idem_cache" ] in
      check (Alcotest.list string_) "text: one line per cache" caches
        (List.map (fun l -> List.hd (String.split_on_char ':' l)) lines);
      let json = Json_check.parse_ok "/cachez.json" (fetch "/cachez.json") in
      check (Alcotest.list string_) "json: one member per cache" caches
        (Json_check.keys json);
      let func_line = List.find (String.starts_with ~prefix:"func_cache:") lines in
      check bool_ "text: the compile was a miss" true
        (contains func_line " misses=1 ");
      check (Alcotest.float 0.) "json: the compile was a miss" 1.
        Json_check.(num (member "misses" (member "func_cache" json))))

(* ------------------------------------------------------------------ *)

(* A server's peer and its outgoing client are one sending site: the
   client's calls (telemetry scrapes) and the peer's execute-at calls
   draw idempotency keys from one counter, so a serving peer never
   answers one from the other's idempotency-cache entry. *)
let test_facade_one_key_counter () =
  let q =
    {|module namespace q = "q";
declare function q:echo($i as xs:integer) { $i };|}
  in
  let b = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module b ~uri:"q" q;
  let sb = Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) b in
  let port = Server.start sb in
  let a = Peer.create "xrpc://a.test" in
  Peer.register_module a ~uri:"q" ~location:"q.xq" q;
  let sa = Server.create ~config:(Server.config ~port:0 ()) a in
  Fun.protect ~finally:(fun () -> Server.stop sb)
  @@ fun () ->
  let client = Option.get (Server.client sa) in
  check string_ "the client's call" "1"
    (Xrpc_xml.Xdm.to_display
       (Xrpc_core.Xrpc_client.call client ~dest:(dest port) ~module_uri:"q"
          ~fn:"echo" [ [ Xrpc_xml.Xdm.int 1 ] ]));
  check string_ "the peer's execute at gets its own answer" "2"
    (Xrpc_xml.Xdm.to_display
       (Peer.query_seq a
          (Printf.sprintf
             {|import module namespace q = "q" at "q.xq";
execute at {%S} {q:echo(2)}|}
             (dest port))))

let () =
  Alcotest.run "server"
    [
      ( "conn-parser",
        [
          Alcotest.test_case "byte-by-byte" `Quick test_parse_byte_by_byte;
          Alcotest.test_case "line endings + close" `Quick
            test_parse_line_endings_and_close;
          Alcotest.test_case "HTTP/1.0 default close" `Quick
            test_parse_http10_defaults_close;
          Alcotest.test_case "bad request line" `Quick
            test_parse_bad_request_line;
          Alcotest.test_case "pipelined requests" `Quick test_parse_pipelined;
          Alcotest.test_case "accept errno classification" `Quick
            test_accept_errno_classification;
          Alcotest.test_case "strict Content-Length" `Quick
            test_parse_strict_content_length;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "keep-alive x100 (event loop)" `Quick
            test_keep_alive_100_requests;
          Alcotest.test_case "slow-loris does not block others" `Quick
            test_slow_loris_does_not_block_others;
          Alcotest.test_case "client disconnect mid-response" `Quick
            test_client_disconnect_mid_response;
          Alcotest.test_case "max_connections -> 503" `Quick
            test_max_connections_503;
          Alcotest.test_case "pooled 500 is not re-executed" `Quick
            test_pooled_error_not_reexecuted;
          Alcotest.test_case "1000 concurrent keep-alive" `Slow
            test_1000_concurrent_keep_alive;
        ] );
      ( "client-reader",
        [
          Alcotest.test_case "dribbled bytes, bare-LF lines" `Quick
            test_client_dribbled_bare_lf;
          Alcotest.test_case "bad response framing" `Quick
            test_client_bad_framing;
          Alcotest.test_case "policy never re-sends a protocol failure" `Quick
            test_policy_no_resend_on_protocol;
          Alcotest.test_case "connection reuse per response" `Quick
            test_client_connection_reuse;
          Alcotest.test_case "read timeout is typed" `Quick
            test_client_read_timeout_typed;
        ] );
      ( "facade",
        [
          Alcotest.test_case "routes + stats" `Quick
            test_facade_routes_and_stats;
          Alcotest.test_case "every JSON surface parses" `Quick
            test_facade_json_surfaces;
          Alcotest.test_case "SOAP fallback (streaming)" `Quick
            test_facade_soap_fallback;
          Alcotest.test_case "/cachez and /cachez.json agree" `Quick
            test_facade_cachez_agree;
          Alcotest.test_case "peer and client share one key counter" `Quick
            test_facade_one_key_counter;
        ] );
    ]
