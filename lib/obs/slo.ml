(* Per-endpoint service-level objectives over the sliding windows, and
   the one health value built from them.

   The objective says what "healthy" means for every endpoint — p99 <=
   100 ms and an error rate <= 1%.  Against it we track, on the windowed
   {!Metrics} tiers:

   - the {b error budget}: over the slow (1 h) tier, the fraction of the
     allowed errors not yet spent.  budget = 1 - errs/(max_error_rate *
     reqs).  Budget 0 means the endpoint has already failed more callers
     this hour than the objective permits — readiness drops until the
     bad minutes age out of the window (a rolling budget, not a
     calendar-month one: it replenishes by decay, no reset step).
   - the {b burn rate}: the same ratio over the fast (1 m) tier.  Burn
     1.0 = spending exactly the budget; a burn of 10 exhausts an hour's
     budget in six minutes.  Burn is the leading indicator (alerts, and
     later: load shedding), budget the lagging one (readiness).

   Scoping: every record is keyed by [(scope, endpoint)].  The scope is
   the peer URI — necessary because Simnet runs a whole federation in
   one process against process-global registries, and peer x's faults
   must not burn peer y's budget.  Single-peer binaries use their own
   URI; [~scope:""] aggregates nothing and belongs to process-wide
   sources only.

   Readiness also consults registered {b sources} — closures the runtime
   hooks in for what no request counter can see from inside (executor
   queue saturated, circuit breaker open to a dependency).  A source
   answers a verdict and the named values that ride in the federation
   snapshot (gauges, the shard-map version, breaker states).  A scope
   reads its own sources and the process-global [""] ones; a source that
   raises makes the scope unready with the reason "<name> probe raised".

   {!health} is the one health value: [/healthz] renders it,
   {!Telemetry} sends it over the wire as a peer's snapshot, and
   [/clusterz] merges the snapshots.  It reports the worst state with
   the structured reasons, so an LB or operator sees *why*, not just
   503. *)

type objective = { p99_ms : float; max_error_rate : float }

let objective = { p99_ms = 100.; max_error_rate = 0.01 }

(* Below this many requests in the slow window, budget math is noise
   (one failed request out of three is not "budget exhausted"). *)
let min_samples = 10.

(* Cardinality cap: endpoints are attacker-influenced strings (URL
   paths); beyond the cap everything lands in one overflow bucket. *)
let max_endpoints = 64
let overflow_endpoint = "other"

type entry = {
  e_endpoint : string;
  e_lat : Metrics.histogram;
  e_reqs : Metrics.counter;
  e_errs : Metrics.counter;
}

(* Best to worst: [worse] ranks by declaration order.  [Unreachable] is
   what a cluster view says of a peer it could not scrape. *)
type state = Ready | Degraded | Unready | Unreachable

let worse (a : state) b = if a >= b then a else b

let states = [ Ready; Degraded; Unready; Unreachable ]

let state_label = function
  | Ready -> "ready"
  | Degraded -> "degraded"
  | Unready -> "unready"
  | Unreachable -> "unreachable"

let state_of_label l = List.find_opt (fun s -> state_label s = l) states

type probe_result = Probe_ok | Probe_degraded of string | Probe_unready of string

(* A named value a source reports next to its verdict. *)
type value =
  | Gauge of string * float
  | Shard_version of int
  | Breaker of string * string  (* destination, closed | open | half_open *)

type source = unit -> probe_result * value list

let entries : (string * string, entry) Hashtbl.t = Hashtbl.create 32
let sources : (string, (string * source) list) Hashtbl.t = Hashtbl.create 8

let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  let r = f () in
  Mutex.unlock m;
  r

let scope_count scope =
  Hashtbl.fold (fun (s, _) _ n -> if s = scope then n + 1 else n) entries 0

let series_name scope endpoint kind =
  (* windowed series live in the global Metrics registry; embed the scope
     so two peers' endpoints never share a ring *)
  Printf.sprintf "slo.%s.%s.%s" (if scope = "" then "global" else scope)
    endpoint kind

let get_entry ~scope endpoint =
  locked (fun () ->
      match Hashtbl.find_opt entries (scope, endpoint) with
      | Some e -> e
      | None ->
          let endpoint =
            if
              endpoint <> overflow_endpoint
              && scope_count scope >= max_endpoints
            then overflow_endpoint
            else endpoint
          in
          (match Hashtbl.find_opt entries (scope, endpoint) with
          | Some e -> e
          | None ->
              let e =
                {
                  e_endpoint = endpoint;
                  e_lat =
                    Metrics.histogram ~windowed:true
                      (series_name scope endpoint "ms");
                  e_reqs =
                    Metrics.counter ~windowed:true
                      (series_name scope endpoint "reqs");
                  e_errs =
                    Metrics.counter ~windowed:true
                      (series_name scope endpoint "errs");
                }
              in
              Hashtbl.replace entries (scope, endpoint) e;
              e))

let record ?(scope = "") ~endpoint ~dur_ms ~error () =
  if Metrics.windows_enabled () then begin
    let e = get_entry ~scope endpoint in
    Metrics.observe e.e_lat dur_ms;
    Metrics.incr e.e_reqs;
    if error then Metrics.incr e.e_errs
  end

(** Register (or replace) the source [name] of [scope]. *)
let register_source ?(scope = "") ~name f =
  locked (fun () ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt sources scope) in
      Hashtbl.replace sources scope ((name, f) :: List.remove_assoc name cur))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type endpoint_health = {
  h_endpoint : string;
  h_rate : float;  (* reqs/s over 1m *)
  h_err_rate : float;  (* errs/reqs over 1m; 0 when idle *)
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;  (* 1m-tier quantiles, nan when idle *)
  h_reqs_1m : float;
  h_budget : float;  (* remaining error budget over 1h, [0,1] *)
  h_burn : float;  (* 1m burn rate; 1.0 = on-budget spend *)
  h_state : state;
  h_reason : string option;
}

let eval_entry e =
  let reqs_1m = Metrics.total ~tier:Metrics.Fast e.e_reqs in
  let errs_1m = Metrics.total ~tier:Metrics.Fast e.e_errs in
  let reqs_1h = Metrics.total ~tier:Metrics.Slow e.e_reqs in
  let errs_1h = Metrics.total ~tier:Metrics.Slow e.e_errs in
  let err_rate = if reqs_1m > 0. then errs_1m /. reqs_1m else 0. in
  let budget =
    if reqs_1h < min_samples then 1.
    else
      Float.max 0. (1. -. (errs_1h /. (objective.max_error_rate *. reqs_1h)))
  in
  let burn = if reqs_1m < 1. then 0. else err_rate /. objective.max_error_rate in
  let p99 = Metrics.quantile ~tier:Metrics.Fast e.e_lat 0.99 in
  let state, reason =
    if budget <= 0. then
      ( Unready,
        Some
          (Printf.sprintf "error budget exhausted on %s (%.0f/%.0f errors, 1h)"
             e.e_endpoint errs_1h reqs_1h) )
    else if burn > 1. && reqs_1m >= min_samples then
      ( Degraded,
        Some
          (Printf.sprintf "error budget burning %.1fx on %s" burn e.e_endpoint)
      )
    else if (not (Float.is_nan p99)) && p99 > objective.p99_ms
            && reqs_1m >= min_samples then
      ( Degraded,
        Some
          (Printf.sprintf "p99 %.1fms over objective %.0fms on %s" p99
             objective.p99_ms e.e_endpoint) )
    else (Ready, None)
  in
  {
    h_endpoint = e.e_endpoint;
    h_rate = Metrics.rate ~tier:Metrics.Fast e.e_reqs;
    h_err_rate = err_rate;
    h_p50 = Metrics.quantile ~tier:Metrics.Fast e.e_lat 0.50;
    h_p95 = Metrics.quantile ~tier:Metrics.Fast e.e_lat 0.95;
    h_p99 = p99;
    h_reqs_1m = reqs_1m;
    h_budget = budget;
    h_burn = burn;
    h_state = state;
    h_reason = reason;
  }

let endpoints ?(scope = "") () =
  let es =
    locked (fun () ->
        Hashtbl.fold
          (fun (s, _) e acc -> if s = scope then e :: acc else acc)
          entries [])
  in
  List.sort
    (fun a b -> compare a.h_endpoint b.h_endpoint)
    (List.map eval_entry es)

(** The health of a scope: the worst endpoint state joined with every
    source's verdict (scope-local and process-global [""] ones), the
    reasons, the endpoint rows, and the sources' named values — all read
    once. *)
type health = {
  state : state;
  reasons : string list;
  endpoints : endpoint_health list;
  values : value list;
}

let health ?(scope = "") () =
  let eps = endpoints ~scope () in
  let st, reasons =
    List.fold_left
      (fun (st, rs) h ->
        ( worse st h.h_state,
          match h.h_reason with Some r -> r :: rs | None -> rs ))
      (Ready, []) eps
  in
  let source_list =
    locked (fun () ->
        let of_scope s =
          Option.value ~default:[] (Hashtbl.find_opt sources s)
        in
        if scope = "" then of_scope "" else of_scope scope @ of_scope "")
  in
  let st, reasons, values =
    List.fold_left
      (fun (st, rs, vs) (name, f) ->
        let verdict, values =
          try f () with _ -> (Probe_unready (name ^ " probe raised"), [])
        in
        let vs = List.rev_append values vs in
        match verdict with
        | Probe_ok -> (st, rs, vs)
        | Probe_degraded r -> (worse st Degraded, (name ^ ": " ^ r) :: rs, vs)
        | Probe_unready r -> (worse st Unready, (name ^ ": " ^ r) :: rs, vs))
      (st, reasons, []) source_list
  in
  { state = st; reasons = List.rev reasons; endpoints = eps;
    values = List.rev values }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let healthz_text hz =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "live: ok\n";
  Buffer.add_string buf (Printf.sprintf "ready: %s\n" (state_label hz.state));
  List.iter (fun r -> Buffer.add_string buf ("reason: " ^ r ^ "\n")) hz.reasons;
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf
           "endpoint %-28s %-8s %6.1f req/s  err %5.2f%%  p99 %s  budget \
            %3.0f%%  burn %.2f\n"
           h.h_endpoint (state_label h.h_state) h.h_rate
           (h.h_err_rate *. 100.)
           (if Float.is_nan h.h_p99 then "-" else Printf.sprintf "%.1fms" h.h_p99)
           (h.h_budget *. 100.) h.h_burn))
    hz.endpoints;
  Buffer.contents buf

let endpoint_json h =
  Json.Obj
    [ ("endpoint", Json.Str h.h_endpoint);
      ("state", Json.Str (state_label h.h_state)); ("rate", Json.Num h.h_rate);
      ("err_rate", Json.Num h.h_err_rate); ("p50_ms", Json.Num h.h_p50);
      ("p95_ms", Json.Num h.h_p95); ("p99_ms", Json.Num h.h_p99);
      ("reqs_1m", Json.Num h.h_reqs_1m); ("budget", Json.Num h.h_budget);
      ("burn", Json.Num h.h_burn);
      ( "objective",
        Json.Obj
          [ ("p99_ms", Json.Num objective.p99_ms);
            ("max_error_rate", Json.Num objective.max_error_rate) ] ) ]

let healthz_json hz =
  Json.Obj
    [ ("live", Json.Bool true); ("ready", Json.Bool (hz.state = Ready));
      ("state", Json.Str (state_label hz.state));
      ("reasons", Json.Arr (List.map (fun r -> Json.Str r) hz.reasons));
      ("endpoints", Json.Arr (List.map endpoint_json hz.endpoints)) ]

let reset () =
  locked (fun () ->
      Hashtbl.reset entries;
      Hashtbl.reset sources)
