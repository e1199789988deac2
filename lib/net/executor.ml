(** Bounded-concurrency dispatch engine: thread pools and futures.

    Every place the client or coordinator talks to several peers at once —
    per-destination Bulk RPC fan-out, 2PC prepare/decision broadcasts, the
    HTTP transport's parallel sends — goes through an executor.  Three
    flavours share one interface:

    - {!sequential} runs submitted work inline on the calling thread, in
      submission order.  This is the injectable deterministic mode: the
      simulated network ({!Simnet}) owns a virtual clock and is not
      thread-safe, so everything layered on it must stay sequential for
      seeded chaos schedules to replay bit-for-bit.
    - {!pool}[ n] runs work on [n] long-lived worker threads fed from a
      queue — bounded concurrency for real transports.
    - {!unbounded} spawns a fresh thread per task (the historical HTTP
      fan-out behaviour).

    Futures carry results or exceptions back to the submitter; {!await}
    re-raises.  Submission captures the calling thread's ambient trace
    span and installs it on the worker ({!Xrpc_obs.Trace.with_ambient}),
    so spans opened by shipped work keep their logical parent and one
    distributed query still reconstructs into a single span tree. *)

module Trace = Xrpc_obs.Trace
module Metrics = Xrpc_obs.Metrics

(* Windowed pool telemetry: queue depth (the admission-control signal
   ROADMAP item 4 sheds on), and per-task wait-vs-run split — wait
   growing while run stays flat is the signature of an undersized pool,
   the inverse is a slow handler.  The timings are gated on
   {!Metrics.windows_enabled} and the wait timestamp is only captured
   when it is on, so the off cost is one flag test. *)
let m_queue_depth = Metrics.gauge ~windowed:true "executor.queue_depth"
let m_wait = Metrics.histogram ~windowed:true "executor.wait_ms"
let m_run = Metrics.histogram ~windowed:true "executor.run_ms"

type 'a outcome = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fcv : Condition.t;
  mutable outcome : 'a outcome;
}

type pool = {
  m : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable shut : bool;
  size : int;
  mutable worker_ids : int list;
}

type t = Sequential | Unbounded | Pool of pool

let sequential = Sequential
let unbounded = Unbounded

let rec worker_loop p =
  Mutex.lock p.m;
  while Queue.is_empty p.jobs && not p.shut do
    Condition.wait p.nonempty p.m
  done;
  if Queue.is_empty p.jobs then Mutex.unlock p.m (* shut down *)
  else begin
    let job = Queue.pop p.jobs in
    Mutex.unlock p.m;
    (* jobs fulfil their own future and never raise *)
    job ();
    worker_loop p
  end

let pool n =
  let n = max 1 n in
  let p =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      shut = false;
      size = n;
      worker_ids = [];
    }
  in
  let threads = List.init n (fun _ -> Thread.create worker_loop p) in
  p.worker_ids <- List.map Thread.id threads;
  Pool p

let threads = function Sequential -> 1 | Unbounded -> max_int | Pool p -> p.size
let is_sequential = function Sequential -> true | Unbounded | Pool _ -> false

(** Jobs queued behind the workers right now (0 for non-pool executors):
    the readiness probe's saturation signal. *)
let queue_depth = function
  | Sequential | Unbounded -> 0
  | Pool p ->
      Mutex.lock p.m;
      let d = Queue.length p.jobs in
      Mutex.unlock p.m;
      d

let shutdown = function
  | Sequential | Unbounded -> ()
  | Pool p ->
      Mutex.lock p.m;
      p.shut <- true;
      Condition.broadcast p.nonempty;
      Mutex.unlock p.m

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

let fulfilled outcome =
  { fm = Mutex.create (); fcv = Condition.create (); outcome }

let fulfil fut outcome =
  Mutex.lock fut.fm;
  fut.outcome <- outcome;
  Condition.broadcast fut.fcv;
  Mutex.unlock fut.fm

(** Block until the future resolves; never raises. *)
let await_result fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.outcome with
    | Pending ->
        Condition.wait fut.fcv fut.fm;
        wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  r

let await fut = match await_result fut with Ok v -> v | Error e -> raise e

let peek fut =
  Mutex.lock fut.fm;
  let r =
    match fut.outcome with
    | Pending -> None
    | Done v -> Some (Ok v)
    | Failed e -> Some (Error e)
  in
  Mutex.unlock fut.fm;
  r

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

(* run [f], carrying the submitter's ambient span onto this thread *)
let run_shipped parent f =
  let run () = try Done (f ()) with e -> Failed e in
  match parent with Some s -> Trace.with_ambient s run | None -> run ()

let submit t f =
  match t with
  | Sequential -> fulfilled (try Done (f ()) with e -> Failed e)
  | Unbounded ->
      let fut = fulfilled Pending in
      let parent = Trace.current () in
      ignore (Thread.create (fun () -> fulfil fut (run_shipped parent f)) ());
      fut
  | Pool p ->
      let fut = fulfilled Pending in
      let parent = Trace.current () in
      let t_sub = if Metrics.windows_enabled () then Trace.now_ms () else nan in
      let job () =
        if not (Float.is_nan t_sub) then begin
          let t_start = Trace.now_ms () in
          Metrics.observe m_wait (Float.max 0. (t_start -. t_sub));
          fulfil fut (run_shipped parent f);
          Metrics.observe m_run (Float.max 0. (Trace.now_ms () -. t_start))
        end
        else fulfil fut (run_shipped parent f)
      in
      Mutex.lock p.m;
      if p.shut then begin
        Mutex.unlock p.m;
        fulfil fut (Failed (Invalid_argument "Executor.submit: pool is shut down"))
      end
      else begin
        Queue.push job p.jobs;
        let depth = Queue.length p.jobs in
        Condition.signal p.nonempty;
        Mutex.unlock p.m;
        Metrics.set m_queue_depth (float_of_int depth)
      end;
      fut

(* A pool worker that fans out onto its own pool would deadlock once the
   pool is saturated with waiters; detect that and degrade to inline
   execution (still correct, loses only the overlap). *)
let on_own_pool = function
  | Sequential | Unbounded -> false
  | Pool p -> List.mem (Thread.id (Thread.self ())) p.worker_ids

(** Parallel, order-preserving map.  All elements are evaluated even when
    some fail; the first failure (in list order) is then re-raised, so
    side effects of the other legs have settled — exactly what the
    idempotency caches on the peers make safe to retry. *)
let map_list t f xs =
  match (t, xs) with
  | Sequential, _ | _, ([] | [ _ ]) -> List.map f xs
  | _ ->
      if on_own_pool t then List.map f xs
      else begin
        let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
        let results = List.map await_result futs in
        List.map (function Ok v -> v | Error e -> raise e) results
      end
