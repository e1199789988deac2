(** Readiness-driven HTTP server core: one event loop, many connections.

    A thread per connection burns a stack, a scheduler slot and
    runtime-lock churn per peer, which caps it at a few hundred
    connections.  This core holds one {!Conn} state machine per
    connection instead and multiplexes them all over a single readiness
    call, so 10k mostly-idle keep-alive peers cost 10k small buffers and
    nothing else.  That call is level-triggered epoll(7) — the kernel
    keeps the interest set, one iteration costs O(ready fds) — through
    tiny C stubs ([Unix.select] tops out at FD_SETSIZE = 1024 fds).  The
    server therefore builds on Linux only.

    The loop thread never executes a handler: a fully-parsed request is
    shipped to a bounded {!Executor} pool (XQuery evaluation can take
    milliseconds; the loop must keep accepting and reading), and the
    worker hands the finished response back through a completion queue,
    waking the loop via a self-pipe.  While a connection is [Executing]
    the loop does not touch it — in particular it stops reading, which is
    the invariant that lets the handler parse the SOAP body directly out
    of the connection's input buffer without a copy.

    Accept failures are handled per the errno: transient per-connection
    errors ([ECONNABORTED]) just move on; resource exhaustion ([EMFILE],
    [ENFILE], …) increments [server.accept_errors] and backs the acceptor
    off briefly instead of spinning at 100% CPU re-raising the same
    error.  Beyond [max_connections], new peers get an immediate
    [503 Service Unavailable] and are closed. *)

module Metrics = Xrpc_obs.Metrics

(* The kernel holds the interest set, so one loop iteration costs
   O(ready fds) instead of poll(2)'s O(all fds).  At 10k mostly-idle
   keep-alive connections that difference is the whole ballgame:
   rebuilding and scanning a 10k-entry pollfd array burns ~0.5 ms per
   iteration before any request is served.  Readiness bits: 1 =
   readable, 2 = writable, 4 = error/hangup.  [epoll_create] raises
   [Failure] if the kernel refuses. *)
external epoll_create : unit -> int = "xrpc_epoll_create_stub"

(* op: 0 = ADD, 1 = MOD, 2 = DEL; events use the shared 1/2/4 bits *)
external epoll_ctl : int -> int -> Unix.file_descr -> int -> int
  = "xrpc_epoll_ctl_stub"

(* returns the ready set flattened as [|fd0; re0; fd1; re1; ...|] *)
external epoll_wait : int -> int -> int -> int array = "xrpc_epoll_wait_stub"

(* on Unix a [Unix.file_descr] is an immediate int; this recovers the
   fds [epoll_wait] hands back inside its flat int array *)
external fd_of_int : int -> Unix.file_descr = "%identity"

external raise_nofile : int -> int = "xrpc_raise_nofile_stub"

(** Best-effort bump of RLIMIT_NOFILE towards [n]; returns the resulting
    soft limit.  Load generators call this before opening 2×10k sockets. *)
let ensure_fd_capacity n = raise_nofile n

(* The loop's series, windowed so they also give the "right now" view.
   Rates answer "is an accept storm happening", [loop_lag_ms] answers
   "is the loop thread keeping up" (tick drift, node.js-style: the idle
   wait is bounded to [heartbeat_s] and lag is how late the tick
   actually fires), [ready_fds] sizes the per-iteration batch,
   [doneq_depth] the executor→loop completion backlog. *)
let m_accept_errors = Metrics.counter ~windowed:true "server.accept_errors"
let m_rejected = Metrics.counter ~windowed:true "server.rejected_503"
let m_disconnects = Metrics.counter ~windowed:true "server.client_disconnects"
let m_served = Metrics.counter ~windowed:true "http.requests_served"
let m_accepted = Metrics.counter ~windowed:true "server.accepted"
let m_active = Metrics.gauge "server.active_connections"
let m_lag = Metrics.histogram ~windowed:true "evloop.loop_lag_ms"
let m_ready = Metrics.histogram ~windowed:true "evloop.ready_fds"
let m_doneq = Metrics.gauge ~windowed:true "evloop.doneq_depth"

let heartbeat_s = 0.5

(* how long the acceptor stays off the epoll set after EMFILE-class
   failures: long enough not to spin, short enough to recover fast *)
let accept_backoff_s = 0.05

type stats = {
  mutable accepted : int;
  mutable active : int;  (** open connections being served right now *)
  mutable served : int;  (** requests answered *)
  mutable rejected : int;  (** 503 turn-aways over [max_connections] *)
  mutable accept_errors : int;
  mutable disconnects : int;  (** peers gone mid-request/mid-response *)
}

(** The streaming handler contract: the request body is the window
    [src.[pos .. pos+len)] — a zero-copy view of the connection's input
    buffer, valid only for the duration of the call — and the response
    body is whatever the handler appends to [out] (a reused per-connection
    buffer).  Raising makes a 500 with the exception text as body. *)
type handler =
  meth:string -> path:string -> src:string -> pos:int -> len:int -> Buffer.t -> unit

type t = {
  lsock : Unix.file_descr;
  port : int;
  handler : handler;
  executor : Executor.t;
  own_pool : bool;
  max_connections : int option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, Conn.t) Hashtbl.t;
  done_q : (Conn.t * string) Queue.t;
  qm : Mutex.t;
  mutable running : bool;
  stats : stats;
  mutable backoff_until : float;
  mutable next_tick : float;  (** heartbeat deadline for loop-lag drift *)
  epfd : int;  (** the epoll instance *)
  mutable lsock_watched : int;  (** listener interest registered in epoll *)
  scratch : Bytes.t;  (** shared chunk buffer for writes out of Buffers *)
  wake_buf : Bytes.t;
  mutable loop_thread : Thread.t option;
}

let port t = t.port

let stats t =
  (* a racy snapshot of monotonic counters: fine for tests and /metrics *)
  {
    accepted = t.stats.accepted;
    active = t.stats.active;
    served = t.stats.served;
    rejected = t.stats.rejected;
    accept_errors = t.stats.accept_errors;
    disconnects = t.stats.disconnects;
  }

let wake t =
  try ignore (Unix.write t.wake_w t.wake_buf 0 1)
  with Unix.Unix_error _ -> ()

(* The idle wait is bounded to the next heartbeat so the loop always
   wakes at least every [heartbeat_s]; how *late* it wakes relative to
   that deadline is the loop lag — time the thread spent in handlers,
   bulk writes, or starved of CPU instead of in the readiness call. *)
let wait_timeout_ms t now ~backing_off =
  if t.next_tick <= 0. then t.next_tick <- now +. heartbeat_s;
  let until = if backing_off then Float.min t.next_tick t.backoff_until
              else t.next_tick in
  max 1 (int_of_float (ceil ((until -. now) *. 1000.)))

let observe_tick t =
  let now = Unix.gettimeofday () in
  if t.next_tick > 0. && now >= t.next_tick then begin
    Metrics.observe m_lag ((now -. t.next_tick) *. 1000.);
    t.next_tick <- now +. heartbeat_s
  end

(* ------------------------------------------------------------------ *)
(* Request dispatch and completion                                     *)
(* ------------------------------------------------------------------ *)

let run_handler t (c : Conn.t) =
  (* the input buffer is frozen while this connection is Executing,
     so an unsafe string view of it is sound (and copy-free) *)
  let src = Bytes.unsafe_to_string c.Conn.inbuf in
  try
    t.handler ~meth:c.Conn.meth ~path:c.Conn.path ~src ~pos:c.Conn.body_off
      ~len:c.Conn.clen c.Conn.out_body;
    "200 OK"
  with e ->
    Buffer.clear c.Conn.out_body;
    Buffer.add_string c.Conn.out_body (Printexc.to_string e);
    "500 Internal Server Error"

(* a peer gone mid-request or mid-response *)
let disconnect t =
  t.stats.disconnects <- t.stats.disconnects + 1;
  Metrics.incr m_disconnects

let close_conn t (c : Conn.t) =
  if c.Conn.state <> Conn.Closed then begin
    Hashtbl.remove t.conns c.Conn.fd;
    if not c.Conn.rejected then begin
      t.stats.active <- t.stats.active - 1;
      Metrics.set m_active (float_of_int t.stats.active)
    end;
    (* closing the fd drops it from the epoll interest set for free *)
    Conn.close c
  end

let desired_interest (c : Conn.t) =
  match c.Conn.state with
  | Conn.Reading -> 1
  | Conn.Writing -> 2
  | Conn.Executing | Conn.Closed -> 0

(* Re-register a connection's interest with epoll iff it changed since
   the last registration ([c.watched] caches it, -1 = never added).
   Called once per state-machine step, so parked connections cost zero
   syscalls. *)
let sync_interest t (c : Conn.t) =
  if c.Conn.state <> Conn.Closed then begin
    let want = desired_interest c in
    if want <> c.Conn.watched then begin
      let op = if c.Conn.watched < 0 then 0 else 1 in
      ignore (epoll_ctl t.epfd op c.Conn.fd want);
      c.Conn.watched <- want
    end
  end

(* keep-alive turnaround: compact, then immediately try to parse bytes a
   pipelining client may already have sent *)
let rec finish_request t (c : Conn.t) =
  if not c.Conn.rejected then t.stats.served <- t.stats.served + 1;
  if c.Conn.close_after then close_conn t c
  else begin
    Conn.reset_for_next c;
    resume_parse t c
  end

and resume_parse t (c : Conn.t) =
  match Conn.feed c with
  | Conn.Request -> dispatch t c
  | Conn.Need_more -> ()
  | Conn.Bad _ ->
      disconnect t;
      close_conn t c

and dispatch t (c : Conn.t) =
  c.Conn.state <- Conn.Executing;
  Metrics.incr m_served;
  if Executor.is_sequential t.executor then begin
    (* inline fast path: a sequential executor means the caller accepts
       handler work on the loop thread, so skip the completion-queue /
       self-pipe round trip and answer in the same loop iteration *)
    let status = run_handler t c in
    Conn.set_response c ~status ~close:c.Conn.conn_close;
    try_write t c
  end
  else
    let job () =
      let status = run_handler t c in
      Mutex.lock t.qm;
      Queue.push (c, status) t.done_q;
      Mutex.unlock t.qm;
      wake t
    in
    ignore (Executor.submit t.executor job)

and try_write t (c : Conn.t) =
  match Conn.write_step ~scratch:t.scratch c with
  | Conn.Write_done -> finish_request t c
  | Conn.Write_blocked -> ()
  | Conn.Write_closed ->
      disconnect t;
      close_conn t c

let drain_done t =
  let pending = ref [] in
  Mutex.lock t.qm;
  let depth = Queue.length t.done_q in
  while not (Queue.is_empty t.done_q) do
    pending := Queue.pop t.done_q :: !pending
  done;
  Mutex.unlock t.qm;
  if depth > 0 then Metrics.set m_doneq (float_of_int depth);
  List.iter
    (fun ((c : Conn.t), status) ->
      if t.running && c.Conn.state = Conn.Executing then begin
        Conn.set_response c ~status ~close:c.Conn.conn_close;
        (* the common case on loopback: the whole response fits in the
           socket buffer, so finish without another loop iteration *)
        try_write t c;
        sync_interest t c
      end)
    !pending

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)
(* ------------------------------------------------------------------ *)

(** What the acceptor should do about an accept(2) failure. *)
let accept_action : Unix.error -> [ `Retry | `Backoff | `Stop ] = function
  | Unix.ECONNABORTED | Unix.EINTR | Unix.EAGAIN -> `Retry
  | Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM | Unix.EPERM ->
      `Backoff
  | Unix.EBADF | Unix.EINVAL -> `Stop (* listening socket shut under us *)
  | _ -> `Backoff

let canned_503 =
  "XRPC peer at connection capacity; retry shortly\n"

let reject_503 t fd =
  t.stats.rejected <- t.stats.rejected + 1;
  Metrics.incr m_rejected;
  let c = Conn.create ~role:Conn.Server fd in
  c.Conn.rejected <- true;
  Buffer.add_string c.Conn.out_body canned_503;
  Conn.set_response ~content_type:"text/plain" c
    ~status:"503 Service Unavailable" ~close:true;
  Hashtbl.replace t.conns fd c;
  (match Conn.write_step ~scratch:t.scratch c with
  | Conn.Write_done | Conn.Write_closed ->
      Hashtbl.remove t.conns fd;
      Conn.close c
  | Conn.Write_blocked -> sync_interest t c)

let accept_burst t =
  (* bounded burst so a connect storm cannot starve established conns *)
  let budget = ref 64 in
  let continue = ref true in
  while !continue && !budget > 0 do
    decr budget;
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _ -> (
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        t.stats.accepted <- t.stats.accepted + 1;
        Metrics.incr m_accepted;
        match t.max_connections with
        | Some m when t.stats.active >= m -> reject_503 t fd
        | _ ->
            t.stats.active <- t.stats.active + 1;
            Metrics.set m_active (float_of_int t.stats.active);
            let c = Conn.create ~role:Conn.Server fd in
            Hashtbl.replace t.conns fd c;
            sync_interest t c)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (e, _, _) -> (
        match accept_action e with
        | `Retry -> ()
        | `Backoff ->
            t.stats.accept_errors <- t.stats.accept_errors + 1;
            Metrics.incr m_accept_errors;
            t.backoff_until <- Unix.gettimeofday () +. accept_backoff_s;
            continue := false
        | `Stop ->
            t.running <- false;
            continue := false)
  done

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

let handle_readable t (c : Conn.t) =
  match Conn.read_step c with
  | Conn.Read_some -> resume_parse t c
  | Conn.Read_blocked -> ()
  | Conn.Read_eof ->
      (* mid-request EOF is a disconnect; EOF between requests is just
         the client ending its keep-alive session *)
      if c.Conn.pstate <> Conn.P_line || c.Conn.in_len > 0 then disconnect t;
      close_conn t c

let drain_wake_pipe t buf =
  try ignore (Unix.read t.wake_r buf 0 (Bytes.length buf))
  with Unix.Unix_error _ -> ()

let handle_conn_event t (c : Conn.t) re =
  match c.Conn.state with
  | Conn.Reading -> if re land (1 lor 4) <> 0 then handle_readable t c
  | Conn.Writing ->
      if re land 4 <> 0 && re land 2 = 0 then begin
        disconnect t;
        close_conn t c
      end
      else if re land 2 <> 0 then try_write t c
  | Conn.Executing | Conn.Closed -> ()

(* Interest lives in the kernel (kept current by {!sync_interest} at
   every state transition), so a wait returns just the ready fds and an
   iteration is O(ready) — parked keep-alive connections are free.
   Level-triggered, so a 512-event batch cap only delays stragglers to
   the next wait, never loses them. *)
let run_loop t =
  let drain_wake = Bytes.create 256 in
  let max_events = 512 in
  while t.running do
    drain_done t;
    let now = Unix.gettimeofday () in
    let backing_off = t.backoff_until > now in
    let want_l = if backing_off then 0 else 1 in
    if want_l <> t.lsock_watched then begin
      ignore (epoll_ctl t.epfd 1 t.lsock want_l);
      t.lsock_watched <- want_l
    end;
    let timeout = wait_timeout_ms t now ~backing_off in
    let evs = epoll_wait t.epfd max_events timeout in
    observe_tick t;
    let n_ready = Array.length evs / 2 in
    if n_ready > 0 then Metrics.observe m_ready (float_of_int n_ready);
    if t.running then
      for j = 0 to (Array.length evs / 2) - 1 do
        let fd = fd_of_int evs.(2 * j) in
        let re = evs.((2 * j) + 1) in
        if fd = t.wake_r then begin
          if re land 1 <> 0 then drain_wake_pipe t drain_wake
        end
        else if fd = t.lsock then begin
          if re land (1 lor 4) <> 0 then accept_burst t
        end
        else
          match Hashtbl.find_opt t.conns fd with
          | None -> ()
          | Some c ->
              handle_conn_event t c re;
              sync_interest t c
      done
  done;
  (* teardown on the loop thread: everything single-owner until here *)
  Hashtbl.iter (fun _ c -> Conn.close c) t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  try Unix.close (fd_of_int t.epfd) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let sigpipe_ignored = ref false

(* a peer closing mid-response must surface as EPIPE from write(2), not
   kill the process *)
let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _ -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ()
  end

let default_workers = 4

let create ?(port = 0) ?(backlog = 128) ?max_connections ?executor handler : t =
  ignore_sigpipe ();
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lsock backlog;
  Unix.set_nonblock lsock;
  let actual_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let epfd = epoll_create () in
  (* the wake pipe and listener live in the interest set for the loop's
     whole life; per-connection fds come and go via [sync_interest] *)
  ignore (epoll_ctl epfd 0 wake_r 1);
  ignore (epoll_ctl epfd 0 lsock 1);
  let executor, own_pool =
    match executor with
    | Some e -> (e, false)
    | None -> (Executor.pool default_workers, true)
  in
  let t =
    {
      lsock;
      port = actual_port;
      handler;
      executor;
      own_pool;
      max_connections;
      wake_r;
      wake_w;
      conns = Hashtbl.create 64;
      done_q = Queue.create ();
      qm = Mutex.create ();
      running = true;
      stats =
        {
          accepted = 0;
          active = 0;
          served = 0;
          rejected = 0;
          accept_errors = 0;
          disconnects = 0;
        };
      backoff_until = 0.;
      next_tick = 0.;
      epfd;
      lsock_watched = 1;
      scratch = Bytes.create 65536;
      wake_buf = Bytes.make 1 '!';
      loop_thread = None;
    }
  in
  t.loop_thread <- Some (Thread.create run_loop t);
  t

let stop t =
  if t.running then begin
    t.running <- false;
    wake t;
    (match t.loop_thread with Some th -> Thread.join th | None -> ());
    if t.own_pool then Executor.shutdown t.executor
  end
