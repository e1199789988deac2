(** Minimal HTTP/1.1 POST transport over Unix sockets.

    XRPC messages travel as SOAP over HTTP POST (§2.1).  This is a small
    but real implementation — enough for one XQuery peer to call another
    across processes or machines — modeled on the "ultra-light HTTP
    daemon" the paper embeds in MonetDB/XQuery (§3).

    One codec guards both directions: the server ({!Evloop}) and the
    client below frame every message with the same {!Conn} parser and
    caps.  The server multiplexes every connection over one epoll loop
    with non-blocking sockets and per-connection state machines,
    executing handlers on a bounded worker pool — the shape that holds
    thousands of concurrent keep-alive peers.  It keeps the connection
    open across requests (HTTP/1.1 keep-alive) unless the client sends
    [Connection: close].

    The client transport can reuse one pooled connection per destination
    ([~keep_alive:true]) and fans parallel sends out through an
    {!Executor}. *)

module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace

exception Http_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Http_error s)) fmt

let m_posts = Metrics.counter "http.posts"

(* per-destination wire traffic, as labeled series (stable-sorted and
   escaped by Metrics.with_labels, so /metrics output stays diff-able) *)
let m_dest_bytes_out dest =
  Metrics.counter (Metrics.with_labels "http.bytes_out" [ ("dest", dest) ])

let m_dest_bytes_in dest =
  Metrics.counter (Metrics.with_labels "http.bytes_in" [ ("dest", dest) ])
let m_post_ms = Metrics.histogram "http.post_ms"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

type server = Evloop.t

(** [serve handler] starts an HTTP server on 127.0.0.1 ([port = 0] picks
    a free port, see {!port}); [handler ~path body] returns the response
    body for a POST (GET passes an empty body, so module sources can be
    fetched too).  [executor] sizes the handler pool; [max_connections]
    turns extra peers away with a 503. *)
let serve ?port ?backlog ?max_connections ?executor
    (handler : path:string -> string -> string) : server =
  let h ~meth ~path ~src ~pos ~len out =
    let body = if meth = "POST" then String.sub src pos len else "" in
    Buffer.add_string out (handler ~path body)
  in
  Evloop.create ?port ?backlog ?max_connections ?executor h

(** [serve_stream handler] — server with the zero-copy handler contract
    ({!Evloop.handler}): the request body arrives as a window over the
    connection's input buffer and the response body is appended to the
    connection's reused output buffer.  This is what the
    {!Xrpc_core.Xrpc_server} façade uses to hand SOAP bytes straight to
    the peer without materializing them twice. *)
let serve_stream ?port ?backlog ?max_connections ?executor
    (handler : Evloop.handler) : server =
  Evloop.create ?port ?backlog ?max_connections ?executor handler

let port = Evloop.port
let stats = Evloop.stats
let shutdown = Evloop.stop

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

(* A client connection: a blocking socket (the request timeout becomes
   SO_RCVTIMEO/SO_SNDTIMEO) driven through a reused {!Conn.t} in the
   [Client] role, plus the gather buffer its writes go through. *)
type conn = { conn : Conn.t; mutable scratch : Bytes.t }

(* the connection died before the first response byte (EOF or reset), or
   the request could not be written: the server cannot have answered, so
   re-sending on a fresh connection is safe *)
exception Stale

let gather_max = 65536

let open_conn ?timeout_ms ~dest ~host ~port () =
  (* writing to a connection the server dropped must be EPIPE (a stale
     signal), not a fatal SIGPIPE *)
  Evloop.ignore_sigpipe ();
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_loopback
  in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    (match timeout_ms with
    | Some ms when ms > 0. ->
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO (ms /. 1000.);
        Unix.setsockopt_float sock Unix.SO_SNDTIMEO (ms /. 1000.)
    | _ -> ());
    (* header and body leave in one write when they fit [gather_max];
       a larger request is split, and Nagle must not hold its tail back
       waiting for the server's delayed ACK *)
    Unix.setsockopt sock Unix.TCP_NODELAY true;
    Unix.connect sock (Unix.ADDR_INET (addr, port))
  with
  | () -> { conn = Conn.create ~role:Conn.Client sock; scratch = Bytes.empty }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      let kind =
        match e with
        | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT | Unix.EINPROGRESS ->
            Transport.Timeout
        | _ -> Transport.Unreachable
      in
      Transport.error ~kind ~dest "connect: %s" (Unix.error_message e)

let close_conn cc = Conn.close cc.conn

(* One POST round trip over an open connection: returns the status, the
   body, and whether the connection may carry another request.  Raises
   {!Stale} (see above), or {!Transport.Error}: [Timeout] when a socket
   timeout expires, [Unreachable] when the server vanishes mid-response,
   [Protocol] when the response breaks the codec. *)
let request_conn ~dest ~host ~port ~path ~keep_alive cc body =
  let c = cc.conn in
  Conn.set_request c ~path ~host:(Printf.sprintf "%s:%d" host port)
    ~close:(not keep_alive) body;
  let want =
    min gather_max (Buffer.length c.Conn.out_head + String.length body)
  in
  if Bytes.length cc.scratch < want then cc.scratch <- Bytes.create want;
  let timeout what =
    Transport.error ~kind:Transport.Timeout ~dest "socket timeout %s" what
  in
  (match Conn.write_step ~scratch:cc.scratch c with
  | Conn.Write_done -> ()
  | Conn.Write_blocked -> timeout "writing the request"
  | Conn.Write_closed -> raise Stale);
  let rec await () =
    match Conn.feed c with
    | Conn.Request -> ()
    | Conn.Bad why ->
        Transport.error ~kind:(Transport.Protocol "http") ~dest "%s" why
    | Conn.Need_more -> (
        match Conn.read_step c with
        | Conn.Read_some -> await ()
        | Conn.Read_blocked -> timeout "awaiting the response"
        | Conn.Read_eof ->
            if c.Conn.in_len = 0 then raise Stale
            else
              Transport.error ~kind:Transport.Unreachable ~dest
                "connection closed mid-response")
  in
  await ();
  let reply = Bytes.sub_string c.Conn.inbuf c.Conn.body_off c.Conn.clen in
  (* bytes past the response are not ours to interpret: never reuse *)
  let reusable =
    keep_alive && (not c.Conn.conn_close)
    && c.Conn.in_len = c.Conn.body_off + c.Conn.clen
  in
  Conn.reset_for_next c;
  (c.Conn.status, reply, reusable)

(* Idle keep-alive connections: at most one per [host:port]; concurrent
   sends to one destination open extra connections and the last one back
   wins the slot. *)
type pool = { idle : (string, conn) Hashtbl.t; lock : Mutex.t }

let take pool key =
  Mutex.protect pool.lock (fun () ->
      let c = Hashtbl.find_opt pool.idle key in
      Hashtbl.remove pool.idle key;
      c)

let put pool key cc =
  let kept =
    Mutex.protect pool.lock (fun () ->
        let free = not (Hashtbl.mem pool.idle key) in
        if free then Hashtbl.replace pool.idle key cc;
        free)
  in
  if not kept then close_conn cc

(* One POST round trip, traced and timed.  Without a [pool] it runs on a
   fresh connection that asks the server to close.  With one, a pooled
   connection is tried first — if it went stale, the request is re-sent
   once on a fresh connection; anything after the first response byte
   (a complete error response, a timeout) is not retried, because the
   server may have executed the request — and a connection the response
   leaves reusable goes back to the pool.  A non-2xx response becomes
   {!Http_error}. *)
let round_trip ?timeout_ms ?pool ~dest ~host ~port ~path body =
  Trace.with_span ~detail:dest "http.post" @@ fun () ->
  Metrics.incr m_posts;
  let t0 = Unix.gettimeofday () in
  let key = Printf.sprintf "%s:%d" host port in
  let on cc =
    let keep_alive = pool <> None in
    match request_conn ~dest ~host ~port ~path ~keep_alive cc body with
    | status, reply, reusable ->
        (match pool with
        | Some p when reusable -> put p key cc
        | _ -> close_conn cc);
        if status / 100 = 2 then reply else err "HTTP %d: %s" status reply
    | exception e ->
        close_conn cc;
        raise e
  in
  let fresh () =
    try on (open_conn ?timeout_ms ~dest ~host ~port ())
    with Stale ->
      Transport.error ~kind:Transport.Unreachable ~dest
        "connection closed before a response"
  in
  let r =
    match Option.bind pool (fun p -> take p key) with
    | Some cc -> ( try on cc with Stale -> fresh ())
    | None -> fresh ()
  in
  Metrics.observe m_post_ms ((Unix.gettimeofday () -. t0) *. 1000.);
  r

(** [post ~host ~port ~path body] performs one HTTP POST round trip on a
    fresh connection.  [timeout_ms] maps the shared {!Transport.policy}
    request budget onto real socket timeouts. *)
let post ?timeout_ms ~host ~port ?(path = "/") body =
  round_trip ?timeout_ms ~dest:(Printf.sprintf "%s:%d" host port) ~host ~port
    ~path body

(** Transport over HTTP: destinations are [xrpc://host:port[/path]] URIs.

    [executor] drives parallel sends (default {!Executor.unbounded}, one
    thread per destination).  [keep_alive] reuses one pooled connection
    per destination across requests; a send finding the pooled connection
    stale (closed or reset before any response byte) transparently
    retries once on a fresh one.
    With [policy], every send runs under {!Transport.with_policy} on the
    wall clock: the policy's [timeout_ms] becomes the socket timeout and
    retries back off with [Unix.sleepf].  [timeout_ms] alone sets the
    socket timeout without the policy wrapper (for callers that apply
    {!Transport.with_policy} themselves). *)
let transport ?(default_port = 8080) ?timeout_ms ?policy
    ?(executor = Executor.unbounded) ?(keep_alive = false) () =
  let timeout_ms =
    match timeout_ms with
    | Some _ as t -> t
    | None -> Option.map (fun p -> p.Transport.timeout_ms) policy
  in
  let pool =
    if keep_alive then Some { idle = Hashtbl.create 8; lock = Mutex.create () }
    else None
  in
  let send ~dest body =
    let uri = Xrpc_uri.parse dest in
    let port = Option.value ~default:default_port uri.Xrpc_uri.port in
    Metrics.incr_by (m_dest_bytes_out dest) (String.length body);
    let reply =
      round_trip ?timeout_ms ?pool ~dest ~host:uri.Xrpc_uri.host ~port
        ~path:("/" ^ uri.Xrpc_uri.path) body
    in
    Metrics.incr_by (m_dest_bytes_in dest) (String.length reply);
    reply
  in
  let send_parallel pairs =
    Executor.map_list executor (fun (dest, body) -> send ~dest body) pairs
  in
  let raw = { Transport.send; send_parallel } in
  match policy with
  | None -> raw
  | Some p ->
      Transport.transport
        (Transport.with_policy ~policy:p ~executor
           ~now:(fun () -> Unix.gettimeofday () *. 1000.)
           ~sleep:(fun ms -> Unix.sleepf (ms /. 1000.))
           raw)
