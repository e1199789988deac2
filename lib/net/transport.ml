(** Transport abstraction: how serialized SOAP XRPC messages move between
    peers.

    A transport is a pair of send functions over raw message bodies
    (strings).  [send_parallel] exists because MonetDB/XQuery dispatches
    Bulk RPC requests to distinct peers in parallel (§3.2); a simulated
    transport charges the {e maximum} of the individual costs instead of
    their sum, a real transport may use threads.

    This module also owns the {e failure vocabulary} shared by every
    transport: a typed {!Error} exception (timeout, unreachable peer, open
    circuit) and a {!policy} describing per-request timeout, bounded
    retries with exponential backoff + jitter, and a per-destination
    circuit breaker.  [with_policy] lifts any transport into one that
    enforces the policy; the simulated network maps the policy onto its
    virtual clock, the HTTP transport maps it onto real socket timeouts
    and [sleepf], so the same recovery code is exercised in both worlds. *)

module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace

type t = {
  send : dest:string -> string -> string;
      (** POST a request body to a peer, return the response body *)
  send_parallel : (string * string) list -> string list;
      (** same, to several (dest, body) pairs concurrently *)
}

let sequential send =
  { send; send_parallel = List.map (fun (dest, body) -> send ~dest body) }

(* ------------------------------------------------------------------ *)
(* Failure vocabulary — the shared {!Xrpc_error}, re-exported so every  *)
(* existing [Transport.Error { kind; _ }] site keeps working            *)
(* ------------------------------------------------------------------ *)

type error_kind = Xrpc_error.kind =
  | Timeout
  | Unreachable
  | Circuit_open
  | Protocol of string
  | Fault of [ `Sender | `Receiver ]

exception Error = Xrpc_error.Error

let error = Xrpc_error.error
let kind_name = Xrpc_error.kind_name

(* ------------------------------------------------------------------ *)
(* Recovery policy                                                     *)
(* ------------------------------------------------------------------ *)

type policy = {
  timeout_ms : float;
      (** per-request budget; real transports map it onto socket
          timeouts, the simulated one onto virtual waiting time *)
  max_retries : int;  (** retries after the first attempt *)
  backoff_base_ms : float;  (** delay before the first retry *)
  backoff_cap_ms : float;  (** exponential growth is clamped here *)
  backoff_jitter : float;
      (** fraction of the delay randomized away, in [0,1]: delay is drawn
          uniformly from [(1-j)·d, d] *)
  breaker_threshold : int;
      (** consecutive failures to a destination before its circuit opens;
          0 disables the breaker *)
  breaker_cooldown_ms : float;
      (** how long an open circuit rejects calls before one trial request
          is let through (half-open) *)
}

let default_policy =
  {
    timeout_ms = 1_000.;
    max_retries = 3;
    backoff_base_ms = 5.;
    backoff_cap_ms = 200.;
    backoff_jitter = 0.5;
    breaker_threshold = 8;
    breaker_cooldown_ms = 1_000.;
  }

(** [backoff_delay policy ~attempt ~rand] — the delay before retry
    [attempt] (0-based): exponential from [backoff_base_ms], clamped at
    [backoff_cap_ms], with the top [backoff_jitter] fraction randomized by
    [rand () : float in [0,1)] to de-synchronize competing clients. *)
let backoff_delay policy ~attempt ~rand =
  let expo = policy.backoff_base_ms *. (2. ** float_of_int attempt) in
  let capped = Float.min policy.backoff_cap_ms expo in
  let j = Float.max 0. (Float.min 1. policy.backoff_jitter) in
  capped *. (1. -. j +. (j *. rand ()))

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

type breaker_state = Closed | Open of float  (** opened_at *) | Half_open

type breaker = {
  mutable state : breaker_state;
  mutable consecutive_failures : int;
}

type policy_stats = {
  mutable attempts : int;  (** individual sends reaching the wire *)
  mutable retries : int;
  mutable failed_attempts : int;
  mutable gave_up : int;
      (** requests that failed for good: retries exhausted, or a
          [Protocol] failure, which is never retried *)
  mutable fast_fails : int;  (** rejected locally by an open circuit *)
  mutable circuit_opens : int;
  mutable backoff_ms : float;  (** total time spent backing off *)
}

type policied = {
  p_transport : t;  (** the wrapped transport enforcing the policy *)
  p_policy : policy;
  p_stats : policy_stats;
  breakers : (string, breaker) Hashtbl.t;  (** per-destination *)
  p_lock : Mutex.t;
      (** guards [breakers] and [p_stats] — the concurrent dispatch
          executor retries several legs at once *)
}

let transport p = p.p_transport
let policy p = p.p_policy
let stats p = p.p_stats

let breaker_state p dest =
  Mutex.lock p.p_lock;
  let s =
    match Hashtbl.find_opt p.breakers dest with
    | Some b -> b.state
    | None -> Closed
  in
  Mutex.unlock p.p_lock;
  s

(** [with_policy ~now ~sleep inner] — retry/timeout/breaker wrapper.
    [now] and [sleep] are in milliseconds on whatever clock the transport
    lives on (virtual for Simnet, wall for HTTP), so tests never spin real
    time.  [seed] makes the backoff jitter deterministic. *)
(* Pre-resolved metric handles: hot-path cost is a field increment. *)
let m_attempts = Metrics.counter "transport.attempts"
let m_retries = Metrics.counter "transport.retries"
let m_failed = Metrics.counter "transport.failed_attempts"
let m_gave_up = Metrics.counter "transport.gave_up"
let m_fast_fails = Metrics.counter "transport.fast_fails"
let m_circuit_opens = Metrics.counter "transport.circuit_opens"
let m_send_ms = Metrics.histogram "transport.send_ms"

let with_policy ?(policy = default_policy) ?(seed = 0)
    ?(executor = Executor.sequential) ~(now : unit -> float)
    ~(sleep : float -> unit) (inner : t) : policied =
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let stats =
    {
      attempts = 0;
      retries = 0;
      failed_attempts = 0;
      gave_up = 0;
      fast_fails = 0;
      circuit_opens = 0;
      backoff_ms = 0.;
    }
  in
  let breakers = Hashtbl.create 8 in
  (* every mutable table and counter (breakers, stats, the jitter PRNG)
     lives behind one lock: the dispatch executor drives several legs'
     retry loops concurrently.  The lock is never held across a send. *)
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let rand () = Random.State.float rng 1.0 in
  let breaker dest =
    match Hashtbl.find_opt breakers dest with
    | Some b -> b
    | None ->
        let b = { state = Closed; consecutive_failures = 0 } in
        Hashtbl.replace breakers dest b;
        b
  in
  (* one attempt through the breaker: fast-fail when open, trial when the
     cooldown elapsed (half-open), book-keep transitions *)
  let guarded ~dest f =
    locked (fun () ->
        let b = breaker dest in
        match b.state with
        | Open since when now () -. since < policy.breaker_cooldown_ms ->
            stats.fast_fails <- stats.fast_fails + 1;
            Metrics.incr m_fast_fails;
            Trace.event ~detail:dest "breaker-fast-fail";
            error ~kind:Circuit_open ~dest
              "circuit open for %.0f more ms"
              (policy.breaker_cooldown_ms -. (now () -. since))
        | Open _ ->
            b.state <- Half_open;
            Trace.event ~detail:dest "breaker-half-open"
        | Closed | Half_open -> ());
    match f () with
    | r ->
        locked (fun () ->
            let b = breaker dest in
            b.consecutive_failures <- 0;
            b.state <- Closed);
        r
    | exception e ->
        locked (fun () ->
            let b = breaker dest in
            b.consecutive_failures <- b.consecutive_failures + 1;
            match b.state with
            | Half_open ->
                (* the trial request failed: back to open, fresh cooldown *)
                b.state <- Open (now ())
            | Closed
              when policy.breaker_threshold > 0
                   && b.consecutive_failures >= policy.breaker_threshold ->
                b.state <- Open (now ());
                stats.circuit_opens <- stats.circuit_opens + 1;
                Metrics.incr m_circuit_opens;
                Trace.event ~detail:dest "breaker-open"
            | _ -> ());
        raise e
  in
  let send ~dest body =
    Trace.with_span ~detail:dest "transport.send" @@ fun () ->
    let t0 = now () in
    let rec go attempt =
      locked (fun () -> stats.attempts <- stats.attempts + 1);
      Metrics.incr m_attempts;
      match guarded ~dest (fun () -> inner.send ~dest body) with
      | r ->
          Metrics.observe m_send_ms (now () -. t0);
          r
      | exception (Error { kind; _ } as e) ->
          locked (fun () ->
              stats.failed_attempts <- stats.failed_attempts + 1);
          Metrics.incr m_failed;
          Trace.event ~detail:(kind_name kind) "attempt-failed";
          (* an open circuit is a local decision: burning retries on it
             would just re-reject; surface it immediately.  A protocol
             failure means the peer answered with bytes we cannot frame:
             it has already run the request, and re-sending would run it
             again for the same unreadable answer. *)
          let retryable =
            match kind with Circuit_open | Protocol _ -> false | _ -> true
          in
          if (not retryable) || attempt >= policy.max_retries then begin
            if kind <> Circuit_open then begin
              locked (fun () -> stats.gave_up <- stats.gave_up + 1);
              Metrics.incr m_gave_up;
              Trace.event ~detail:dest "gave-up"
            end;
            raise e
          end
          else begin
            let d =
              locked (fun () ->
                  let d = backoff_delay policy ~attempt ~rand in
                  stats.retries <- stats.retries + 1;
                  stats.backoff_ms <- stats.backoff_ms +. d;
                  d)
            in
            Metrics.incr m_retries;
            Trace.event ~detail:(Printf.sprintf "%.1fms" d) "backoff";
            sleep d;
            go (attempt + 1)
          end
    in
    go 0
  in
  let send_parallel pairs =
    if not (Executor.is_sequential executor) then
      (* overlap mode: each leg runs its own full retry loop on the
         executor, so one slow or failing destination no longer gates the
         others *)
      Executor.map_list executor (fun (dest, body) -> send ~dest body) pairs
    else
      (* deterministic mode: one parallel dispatch (the simulated
         transport charges max-of-legs).  If any leg fails, fall back to
         per-leg retry loops — legs that already executed are re-sent,
         which is exactly what the peers' idempotency caches make safe. *)
      match inner.send_parallel pairs with
      | rs -> rs
      | exception Error _ ->
          List.map (fun (dest, body) -> send ~dest body) pairs
  in
  {
    p_transport = { send; send_parallel };
    p_policy = policy;
    p_stats = stats;
    breakers;
    p_lock = lock;
  }
