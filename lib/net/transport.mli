(** Transport abstraction: how serialized SOAP XRPC messages move between
    peers, plus the shared recovery policy (timeout, retries with
    exponential backoff + jitter, per-destination circuit breaker).

    The failure vocabulary is {!Xrpc_error}, re-exported here so existing
    [Transport.Error] / [Transport.Timeout] call sites keep reading
    naturally. *)

type t = {
  send : dest:string -> string -> string;
      (** POST a request body to a peer, return the response body *)
  send_parallel : (string * string) list -> string list;
      (** same, to several (dest, body) pairs concurrently *)
}

val sequential : (dest:string -> string -> string) -> t
(** Lift a single-send function; [send_parallel] loops sequentially. *)

(** {2 Failure vocabulary (see {!Xrpc_error})} *)

type error_kind = Xrpc_error.kind =
  | Timeout
  | Unreachable
  | Circuit_open
  | Protocol of string
  | Fault of [ `Sender | `Receiver ]

exception Error of Xrpc_error.t
(** Physically the same exception as {!Xrpc_error.Error}: a handler
    matching [Transport.Error] catches errors raised by any layer. *)

val error : kind:error_kind -> dest:string -> ('a, unit, string, 'b) format4 -> 'a
val kind_name : error_kind -> string

(** {2 Recovery policy} *)

type policy = {
  timeout_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
  breaker_threshold : int;  (** 0 disables the breaker *)
  breaker_cooldown_ms : float;
}

val default_policy : policy

val backoff_delay : policy -> attempt:int -> rand:(unit -> float) -> float
(** Delay before retry [attempt] (0-based): exponential, capped,
    jittered by [rand () : float in [0,1)]. *)

type breaker_state = Closed | Open of float  (** opened_at *) | Half_open

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

type policied
(** A transport wrapped in the recovery policy.  The per-destination
    breaker table and the stats counters are internal (mutated under a
    lock — the dispatch executor retries several legs concurrently);
    inspect them through the accessors below. *)

val transport : policied -> t
(** The wrapped transport enforcing the policy. *)

val policy : policied -> policy
val stats : policied -> policy_stats
val breaker_state : policied -> string -> breaker_state

val with_policy :
  ?policy:policy ->
  ?seed:int ->
  ?executor:Executor.t ->
  now:(unit -> float) ->
  sleep:(float -> unit) ->
  t ->
  policied
(** [with_policy ~now ~sleep inner] — retry/timeout/breaker wrapper.
    [now] and [sleep] are in milliseconds on whatever clock the transport
    lives on (virtual for Simnet, wall for HTTP).  [Timeout] and
    [Unreachable] failures are retried up to [max_retries] times (the
    peers' idempotency caches make a re-sent request safe); [Protocol]
    and [Circuit_open] failures never are.  [seed] makes the
    backoff jitter deterministic.  With a non-sequential [executor],
    [send_parallel] runs one full retry loop per leg concurrently;
    sequential (the default) keeps the deterministic
    max-of-legs-then-fallback behaviour the simulated network models. *)
