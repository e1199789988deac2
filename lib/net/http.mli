(** Minimal HTTP/1.1 SOAP transport: the event-loop server and a pooled
    keep-alive client, both framing messages with the one {!Conn} codec.

    The server side hides its connection-state internals ({!Conn} state
    machines, the epoll set, worker handoff) behind {!server}: start one
    with {!serve} (or {!serve_stream} for the zero-copy handler
    contract), read its bound {!port}, inspect {!stats}, and {!shutdown}
    it.  The client side is {!post} (one round trip) and {!transport}
    (the {!Xrpc_net.Transport.t} used by peers and the client façade). *)

exception Http_error of string
(** A complete non-2xx response. *)

(** {2 Server} *)

type server = Evloop.t

val serve :
  ?port:int ->
  ?backlog:int ->
  ?max_connections:int ->
  ?executor:Executor.t ->
  (path:string -> string -> string) ->
  server
(** [serve handler] binds 127.0.0.1 ([?port] defaults to 0 = pick a free
    one) and serves [handler ~path body] on every request (GET passes an
    empty body).  Handler exceptions become 500 responses.  [executor]
    runs the handlers (default: a private pool of 4 workers) and
    [max_connections] turns extra connections away with an immediate
    503; accept-side resource exhaustion (EMFILE …) counts the
    [server.accept_errors] metric and backs the acceptor off briefly
    instead of spinning. *)

val serve_stream :
  ?port:int ->
  ?backlog:int ->
  ?max_connections:int ->
  ?executor:Executor.t ->
  Evloop.handler ->
  server
(** Event-loop server with the streaming handler contract: the request
    body is a [(src, pos, len)] window over the connection's input buffer
    (valid for the duration of the call, no copy) and the response body
    is appended to the connection's reused output buffer. *)

val port : server -> int
(** The bound port (useful with [?port:0]). *)

val stats : server -> Evloop.stats
(** Lifetime counters: accepted / active / served / rejected(503) /
    accept_errors / disconnects.  A racy snapshot — fine for tests and
    monitoring. *)

val shutdown : server -> unit
(** Stop accepting, close every connection, release the port.  Joins
    the loop thread, so the port is free when it returns. *)

(** {2 Client} *)

val post :
  ?timeout_ms:float ->
  host:string ->
  port:int ->
  ?path:string ->
  string ->
  string
(** One POST round trip on a fresh connection.  [timeout_ms] maps the
    shared {!Transport.policy} request budget onto socket timeouts.
    Raises {!Http_error} on a non-2xx response and {!Transport.Error}
    otherwise: [Timeout] when a socket timeout expires, [Unreachable]
    when the connection fails or closes before a complete response,
    [Protocol] when the response breaks the codec (bad status line, a
    missing or malformed Content-Length, over-size headers or body). *)

val transport :
  ?default_port:int ->
  ?timeout_ms:float ->
  ?policy:Transport.policy ->
  ?executor:Executor.t ->
  ?keep_alive:bool ->
  unit ->
  Transport.t
(** Transport over HTTP: destinations are [xrpc://host:port[/path]] URIs.
    [executor] drives parallel sends (default {!Executor.unbounded});
    [keep_alive] pools one connection per destination with a transparent
    single retry when the pooled connection went stale (closed or reset
    before any response byte, or unwritable) — never after a response
    or a timeout, so this pool-level retry does not execute a request
    twice.  A response with [Connection: close] or from an HTTP/1.0
    server is not pooled.  [policy] wraps every send in
    {!Transport.with_policy} on the wall clock; that layer re-sends on
    [Timeout] and [Unreachable] (relying on the peers' idempotency
    caches), never on a [Protocol] framing failure. *)
