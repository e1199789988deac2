(* Load generation from the bench process: a closed loop (one client,
   back to back) and a seeded open loop (Poisson arrivals served by up to
   two client threads, each with its own originating peer and so its own
   keep-alive connection).  Open-loop latency runs from the time an
   arrival was due, so a stall also charges the arrivals queued behind
   it. *)

module Peer = Xrpc_peer.Peer

let now = Unix.gettimeofday

type outcome = Correct | Wrong | Failed

type sample = {
  op : Workload.op;
  sched : float;  (** when the arrival was due (closed loop: = start) *)
  pick : float;  (** when a client thread took it *)
  start : float;
  stop : float;
  outcome : outcome;
}

let latency_ms s = (s.stop -. s.sched) *. 1000.

(* the first failure message of a run, for the log *)
let first_error = ref None

let note_error msg =
  if !first_error = None then begin
    first_error := Some msg;
    Printf.eprintf "e2e: first failure: %s\n%!" msg
  end

let run_query peer (q : Workload.query) =
  match Peer.query peer q.Workload.text with
  | r when r.Peer.committed && q.Workload.check r.Peer.value -> Correct
  | r ->
      note_error
        (Printf.sprintf "wrong answer (%s) to %s"
           (Xrpc_xml.Xdm.to_display r.Peer.value)
           q.Workload.text);
      Wrong
  | exception e ->
      note_error (Printexc.to_string e);
      Failed

type closed = {
  c_samples : sample list;
  c_elapsed : float;
  c_server_cpu : float;  (** serving-process CPU seconds during the run *)
  c_client_cpu : float;  (** this process's CPU seconds during the run *)
}

(* back to back for [seconds] and at least [min_queries] queries *)
let closed_loop ?(min_queries = 0) ~server ~peer ~next ~seconds () =
  let cpu0 = Serving.cpu_s server and self0 = Serving.self_cpu_s () in
  let t0 = now () in
  let rec loop acc n =
    let t = now () in
    if t -. t0 >= seconds && n >= min_queries then (acc, t)
    else
      let q = next () in
      let start = now () in
      let outcome = run_query peer q in
      let s =
        { op = q.Workload.op; sched = start; pick = start; start; stop = now (); outcome }
      in
      loop (s :: acc) (n + 1)
  in
  let samples, t1 = loop [] 0 in
  {
    c_samples = List.rev samples;
    c_elapsed = t1 -. t0;
    c_server_cpu = Serving.cpu_s server -. cpu0;
    c_client_cpu = Serving.self_cpu_s () -. self0;
  }

type opened = {
  o_samples : sample list;  (** arrivals that were sent *)
  o_arrivals : int;
  o_dropped : int;  (** arrivals still unsent at the deadline *)
  o_backlog_max : int;  (** most arrivals due but not yet taken *)
  o_start : float;
  o_seconds : float;  (** span of the schedule *)
}

(* Arrivals at [schedule] offsets, query [i] for arrival [i].  An arrival
   not taken by [grace_s] after the schedule ends is dropped (refused);
   one already sent runs to completion. *)
let open_loop ~peers ~schedule ~queries ~grace_s =
  let n = Array.length schedule in
  let next = ref 0 and m = Mutex.create () in
  let backlog_max = ref 0 in
  let samples = Array.make n None in
  let t0 = now () +. 0.005 in
  let span = if n = 0 then 0. else schedule.(n - 1) in
  let deadline = t0 +. span +. grace_s in
  let worker peer =
    let rec loop () =
      Mutex.lock m;
      let i = !next in
      if i < n then incr next;
      let pick = now () in
      if i < n then
        backlog_max :=
          max !backlog_max (Stats.count_due schedule (pick -. t0) - i);
      Mutex.unlock m;
      if i < n && pick <= deadline then begin
        let sched = t0 +. schedule.(i) in
        let wait = sched -. now () in
        if wait > 0. then Unix.sleepf wait;
        let q = queries.(i) in
        let start = now () in
        let outcome = run_query peer q in
        samples.(i) <-
          Some { op = q.Workload.op; sched; pick; start; stop = now (); outcome };
        loop ()
      end
      else if i < n then loop ()
    in
    loop ()
  in
  List.iter Thread.join (List.map (Thread.create worker) peers);
  let sent = Array.to_list samples |> List.filter_map Fun.id in
  {
    o_samples = sent;
    o_arrivals = n;
    o_dropped = n - List.length sent;
    o_backlog_max = !backlog_max;
    o_start = t0;
    o_seconds = span;
  }

(* [n] queries of one stream, generated before the clock starts *)
let pregenerate state ~seed ~n =
  let st = Random.State.make [| seed; 0x0be2 |] in
  Array.init n (fun _ -> Workload.next state st)

let arrivals ~rate ~seconds ~min_arrivals =
  max min_arrivals (max 1 (int_of_float (Float.ceil (rate *. seconds))))

let open_at_rate ?(min_arrivals = 0) ?(grace_s = 5.) ~state ~peers ~seed ~rate
    ~seconds () =
  let n = arrivals ~rate ~seconds ~min_arrivals in
  let schedule = Stats.poisson_schedule ~seed ~rate ~n in
  let queries = pregenerate state ~seed ~n in
  open_loop ~peers ~schedule ~queries ~grace_s

let failures samples =
  List.length (List.filter (fun s -> s.outcome <> Correct) samples)

let wrong samples = List.length (List.filter (fun s -> s.outcome = Wrong) samples)

let latencies ?op samples =
  List.filter_map
    (fun s ->
      match op with
      | Some o when s.op <> o -> None
      | _ -> Some (latency_ms s))
    samples

(* ------------------------------------------------------------------ *)
(* Rate ladder                                                         *)
(* ------------------------------------------------------------------ *)

type rung = {
  rate : float;
  r_arrivals : int;
  on_time : int;  (** completed correctly within the rung plus 1 s *)
  r_p95_ms : float;
  r_failed : int;
  achieved : float;  (** correct completions per second of schedule *)
  passed : bool;
}

(* Rates 2R * 1.25^k: R is a quarter of the closed-loop qps, so the
   ladder climbs from half to about one and a half times it.  A rung
   passes when at least 95% of its arrivals complete within the rung plus
   1 s, p95 <= L, and nothing fails; the ladder stops at the first rung
   that does not. *)
let ladder ~(spec : Workload.spec) ~state ~peers ~seed ~rungs ~rung_s
    ~min_arrivals =
  let rec go k acc =
    if k >= rungs then List.rev acc
    else
      let rate = 2. *. spec.Workload.rate *. (1.25 ** float_of_int k) in
      let o =
        open_at_rate ~min_arrivals ~grace_s:1. ~state ~peers
          ~seed:(seed + (1000 * (k + 1)))
          ~rate ~seconds:rung_s ()
      in
      let limit = o.o_start +. o.o_seconds +. 1. in
      let on_time =
        List.length
          (List.filter (fun s -> s.outcome = Correct && s.stop <= limit) o.o_samples)
      in
      let p95 = Stats.percentile (Stats.sorted_array (latencies o.o_samples)) 0.95 in
      let failed = failures o.o_samples + o.o_dropped in
      let passed =
        float_of_int on_time >= 0.95 *. float_of_int o.o_arrivals
        && p95 <= spec.Workload.limit_ms
        && failed = 0
      in
      let r =
        {
          rate;
          r_arrivals = o.o_arrivals;
          on_time;
          r_p95_ms = p95;
          r_failed = failed;
          achieved = float_of_int on_time /. Float.max o.o_seconds 1e-9;
          passed;
        }
      in
      if passed then go (k + 1) (r :: acc) else List.rev (r :: acc)
  in
  go 0 []

(* achieved rate of the last passing rung (0 when none passed) *)
let sustained rungs =
  List.fold_left (fun acc r -> if r.passed then r.achieved else acc) 0. rungs
