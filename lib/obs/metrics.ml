(* The process-wide metric registry: named counters, gauges and
   log-bucketed latency histograms.  It is the only one; every series
   lives in one table and renders through one exporter pass.

   Every series keeps its cumulative totals (since start, or since the
   last [reset]).  Hot paths pay a field write for them: callers resolve
   a handle once at module-init time ([counter "x"]) and then mutate
   record fields, never touching the table per event.  Unwindowed
   series are plain field writes with no lock; a thread switch may lose
   an occasional increment there, which operational telemetry tolerates.

   A series registered [~windowed:true] also answers "what is happening
   right now": two epoch-stamped bucket rings beside its totals,
   - the fast tier, 60 buckets x 1 s: the last minute, which burn-rate
     alerts read;
   - the slow tier, 60 buckets x 1 m: the last hour, which error budgets
     are accounted against.

   A ring never rotates on a timer thread.  Every write and read
   computes the absolute bucket index [now / width] and lazily resets a
   slot whose stamped epoch is not the one that index maps to.  The
   clock is {!Trace.now_ms}, so tests that point it at the Simnet
   virtual clock watch samples age out bucket by bucket, reproducibly.
   A sample expires at most one bucket width late; merging rings is
   array addition; a write allocates nothing.  A t-digest would give
   tighter quantiles but allocates per observation.

   A windowed series takes its own mutex for each write, totals
   included: a rotation must never interleave with a write, or a
   half-reset slot would corrupt the window.  [set_windows_enabled
   false] skips the clock read, the lock and the rings (the totals are
   still written); that is the telemetry bench's "off" mode. *)

type tier = Fast | Slow

let n_slots = 60
let width_ms = function Fast -> 1_000. | Slow -> 60_000.
let window_s = function Fast -> 60. | Slow -> 3_600.
let tier_label = function Fast -> "1m" | Slow -> "1h"

(* Histogram buckets are logarithmic: bucket [i] covers
   [lo * 2^i, lo * 2^(i+1)) with lo = 1e-3 (so the useful range is 1us..
   ~13 days when observations are in milliseconds). Quantiles are estimated
   as the geometric midpoint of the bucket holding the target rank — a
   standard HDR-style estimate with bounded relative error (<= sqrt 2). *)
let n_buckets = 60

let bucket_lo = 1e-3

let windows_on = ref true
let windows_enabled () = !windows_on
let set_windows_enabled b = windows_on := b

(* [epochs.(slot)] holds the absolute bucket index the slot's payload
   belongs to, or -1 when never written.  A slot is live iff its epoch
   lies inside [now_idx - n_slots + 1 .. now_idx]; anything else (older,
   or "future" after a clock rewind) reads as empty and is reset on the
   next write that lands there. *)
type ring = {
  w_ms : float;
  epochs : int array;
  counts : float array;  (* counter: events; histogram/gauge: samples *)
  sums : float array;
  mins : float array;
  maxs : float array;
  hb : int array;  (* histogram log-buckets, slot-major; [||] otherwise *)
}

type window = { m : Mutex.t; fast : ring; slow : ring }

type counter = { c_name : string; mutable count : int; c_win : window option }

type gauge = { g_name : string; mutable value : float; g_win : window option }

type histogram = {
  h_name : string;
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
  h_win : window option;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let make_ring ~hist tier =
  {
    w_ms = width_ms tier;
    epochs = Array.make n_slots (-1);
    counts = Array.make n_slots 0.;
    sums = Array.make n_slots 0.;
    mins = Array.make n_slots infinity;
    maxs = Array.make n_slots neg_infinity;
    hb = (if hist then Array.make (n_slots * n_buckets) 0 else [||]);
  }

let make_window ~hist windowed =
  if windowed then
    Some
      { m = Mutex.create (); fast = make_ring ~hist Fast;
        slow = make_ring ~hist Slow }
  else None

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_m = Mutex.create ()

(* Find [name], creating it with [make] if absent; [unwrap] checks the
   kind and says whether the series has windows.  A lookup without
   [~windowed] returns a windowed series as is; asking for windows on a
   series registered without them is a programming error. *)
let register name windowed make unwrap =
  Mutex.lock registry_m;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m
  in
  Mutex.unlock registry_m;
  match unwrap m with
  | Some (s, has_win) when has_win || not windowed -> s
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " registered without windows")
  | None -> invalid_arg ("Metrics: " ^ name ^ " registered with another type")

let counter ?(windowed = false) name =
  register name windowed
    (fun () ->
      Counter
        { c_name = name; count = 0; c_win = make_window ~hist:false windowed })
    (function Counter c -> Some (c, c.c_win <> None) | _ -> None)

let gauge ?(windowed = false) name =
  register name windowed
    (fun () ->
      Gauge
        { g_name = name; value = 0.; g_win = make_window ~hist:false windowed })
    (function Gauge g -> Some (g, g.g_win <> None) | _ -> None)

let histogram ?(windowed = false) name =
  register name windowed
    (fun () ->
      Histogram
        { h_name = name; n = 0; sum = 0.; min_v = infinity;
          max_v = neg_infinity; buckets = Array.make n_buckets 0;
          h_win = make_window ~hist:true windowed })
    (function Histogram h -> Some (h, h.h_win <> None) | _ -> None)

(* Canonical labeled series name: [with_labels "http.bytes_out"
   [("dest", d)]] -> [http.bytes_out{dest="d"}].  Labels are sorted by key
   and values are escaped (backslash, quote, newline), so the same label
   set always produces the same registry key and /metrics output stays
   diff-able no matter what bytes end up in a destination URI. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let with_labels name labels =
  match labels with
  | [] -> name
  | _ ->
      let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      let body =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      in
      name ^ "{" ^ body ^ "}"

(* Histogram sample suffixes go before the label set: the _count series of
   [lat{dest="y"}] is [lat_count{dest="y"}], not [lat{dest="y"}_count]. *)
let suffixed name suffix =
  match String.index_opt name '{' with
  | Some i ->
      String.sub name 0 i ^ suffix
      ^ String.sub name i (String.length name - i)
  | None -> name ^ suffix

let bucket_of v =
  if v <= bucket_lo then 0
  else
    let i = int_of_float (Float.log2 (v /. bucket_lo)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

let abs_idx r now = int_of_float (now /. r.w_ms)

(* the slot for [now], reset if it held an older epoch; caller holds
   the series mutex *)
let claim_slot r now =
  let idx = abs_idx r now in
  let slot = idx mod n_slots in
  if r.epochs.(slot) <> idx then begin
    r.epochs.(slot) <- idx;
    r.counts.(slot) <- 0.;
    r.sums.(slot) <- 0.;
    r.mins.(slot) <- infinity;
    r.maxs.(slot) <- neg_infinity;
    if r.hb <> [||] then Array.fill r.hb (slot * n_buckets) n_buckets 0
  end;
  slot

(* one sample into one tier; [b] is its log-bucket, -1 when the series
   keeps none *)
let ring_sample r now ~count v b =
  let slot = claim_slot r now in
  r.counts.(slot) <- r.counts.(slot) +. count;
  r.sums.(slot) <- r.sums.(slot) +. v;
  if v < r.mins.(slot) then r.mins.(slot) <- v;
  if v > r.maxs.(slot) then r.maxs.(slot) <- v;
  if b >= 0 then
    r.hb.((slot * n_buckets) + b) <- r.hb.((slot * n_buckets) + b) + 1

(* A windowed write: [lock_now] takes the series mutex and returns the
   clock, the caller writes its totals, [unlock_sample] writes both
   rings and releases the mutex.  No closure, so no allocation. *)
let lock_now w =
  let now = Trace.now_ms () in
  Mutex.lock w.m;
  now

let unlock_sample w now ~count v b =
  ring_sample w.fast now ~count v b;
  ring_sample w.slow now ~count v b;
  Mutex.unlock w.m

let incr_by c d =
  match c.c_win with
  | Some w when !windows_on ->
      let now = lock_now w in
      c.count <- c.count + d;
      let d = float_of_int d in
      unlock_sample w now ~count:d d (-1)
  | _ -> c.count <- c.count + d

let incr c = incr_by c 1

let set g v =
  match g.g_win with
  | Some w when !windows_on ->
      let now = lock_now w in
      g.value <- v;
      unlock_sample w now ~count:1. v (-1)
  | _ -> g.value <- v

let add g d = set g (g.value +. d)

let observe_total h v b =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  h.buckets.(b) <- h.buckets.(b) + 1

(* Durations measured on the Simnet virtual clock are frequently exactly 0
   (several actions on one tick) and can come out negative when a test
   rewinds an injected clock; both used to land in bucket 0 but poisoned
   sum/min/max.  Clamp to 0 — a histogram of elapsed times has no business
   recording negative or NaN observations. *)
let observe h v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  let b = bucket_of v in
  match h.h_win with
  | Some w when !windows_on ->
      let now = lock_now w in
      observe_total h v b;
      unlock_sample w now ~count:1. v b
  | _ -> observe_total h v b

(* ------------------------------------------------------------------ *)
(* Reads: no [?tier] is the cumulative total, a tier is its window     *)
(* ------------------------------------------------------------------ *)

let ring_of w = function Fast -> w.fast | Slow -> w.slow

(* fold [f] over the tier's live slots under the series mutex; a series
   without windows folds over nothing *)
let fold_live win tier f init =
  match win with
  | None -> init
  | Some w ->
      let r = ring_of w tier in
      Mutex.lock w.m;
      let now_idx = abs_idx r (Trace.now_ms ()) in
      let acc = ref init in
      for slot = 0 to n_slots - 1 do
        let e = r.epochs.(slot) in
        if e >= 0 && e <= now_idx && e > now_idx - n_slots then
          acc := f r !acc slot
      done;
      Mutex.unlock w.m;
      !acc

let win_total win tier = fold_live win tier (fun r a s -> a +. r.counts.(s)) 0.

let finite_or_nan v = if Float.is_finite v then v else nan

let win_max win tier =
  finite_or_nan
    (fold_live win tier (fun r a s -> Float.max a r.maxs.(s)) neg_infinity)

let win_min win tier =
  finite_or_nan
    (fold_live win tier (fun r a s -> Float.min a r.mins.(s)) infinity)

(** Events counted: since start, or inside the tier's window. *)
let total ?tier c =
  match tier with
  | None -> float_of_int c.count
  | Some t -> win_total c.c_win t

(** Events per second over the tier's whole window.  The window length is
    the fixed denominator (not "time since first sample"), so a burst
    reads as a burst and an idle window decays toward zero. *)
let rate ?(tier = Fast) c = total ~tier c /. window_s tier

(** The largest value a gauge was set to inside the tier's window. *)
let gauge_max ?(tier = Fast) g = win_max g.g_win tier

let count ?tier h =
  match tier with
  | None -> h.n
  | Some t -> int_of_float (win_total h.h_win t)

let max_value ?tier h =
  match tier with
  | None -> if h.n = 0 then nan else h.max_v
  | Some t -> win_max h.h_win t

let min_value ?tier h =
  match tier with
  | None -> if h.n = 0 then nan else h.min_v
  | Some t -> win_min h.h_win t

let mean ?tier h =
  match tier with
  | None -> if h.n = 0 then nan else h.sum /. float_of_int h.n
  | Some t ->
      let n = win_total h.h_win t in
      if n = 0. then nan
      else fold_live h.h_win t (fun r a s -> a +. r.sums.(s)) 0. /. n

(* Rank-based quantile estimate: the geometric midpoint of the bucket that
   contains the ceil(q * n)-th observation, clamped to the observed
   min/max so tiny samples stay sensible.  A tier merges its live slots'
   bucket rows first, so it answers over only the samples still inside
   the window. *)
let quantile ?tier h q =
  let buckets =
    match tier with
    | None -> h.buckets
    | Some t ->
        let merged = Array.make n_buckets 0 in
        fold_live h.h_win t
          (fun r () s ->
            for b = 0 to n_buckets - 1 do
              merged.(b) <- merged.(b) + r.hb.((s * n_buckets) + b)
            done)
          ();
        merged
  in
  let n = Array.fold_left ( + ) 0 buckets in
  if n = 0 then nan
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let rec find i acc =
      let acc = acc + buckets.(i) in
      if acc >= rank || i = n_buckets - 1 then i else find (i + 1) acc
    in
    let mid = bucket_lo *. (2. ** float_of_int (find 0 0)) *. sqrt 2. in
    Float.min (max_value ?tier h) (Float.max (min_value ?tier h) mid)
  end

let reset_ring r =
  Array.fill r.epochs 0 n_slots (-1);
  Array.fill r.counts 0 n_slots 0.;
  Array.fill r.sums 0 n_slots 0.;
  Array.fill r.mins 0 n_slots infinity;
  Array.fill r.maxs 0 n_slots neg_infinity;
  Array.fill r.hb 0 (Array.length r.hb) 0

(** Zero every series, totals and windows; handles stay registered. *)
let reset () =
  let locked win f =
    match win with
    | None -> f ()
    | Some w ->
        Mutex.lock w.m;
        f ();
        reset_ring w.fast;
        reset_ring w.slow;
        Mutex.unlock w.m
  in
  Mutex.lock registry_m;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> locked c.c_win (fun () -> c.count <- 0)
      | Gauge g -> locked g.g_win (fun () -> g.value <- 0.)
      | Histogram h ->
          locked h.h_win (fun () ->
              h.n <- 0; h.sum <- 0.; h.min_v <- infinity;
              h.max_v <- neg_infinity;
              Array.fill h.buckets 0 n_buckets 0))
    registry;
  Mutex.unlock registry_m

(* ------------------------------------------------------------------ *)
(* The one exporter pass                                               *)
(* ------------------------------------------------------------------ *)

let fnum v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let hist_stats ?tier h =
  let n = float_of_int (count ?tier h) in
  let q p = quantile ?tier h p in
  (match tier with
   | None -> [ ("count", n); ("sum", h.sum); ("mean", mean h) ]
   | Some t -> [ ("count", n); ("rate", n /. window_s t) ])
  @ [ ("p50", q 0.50); ("p95", q 0.95); ("p99", q 0.99);
      ("max", max_value ?tier h) ]

(* A series as [(stat, tier, value)] samples: stat "" is a counter's or
   gauge's own value, tier "" the cumulative totals. *)
let samples m =
  let windowed win stats =
    if Option.is_none win then []
    else
      List.concat_map
        (fun t -> List.map (fun (s, v) -> (s, tier_label t, v)) (stats t))
        [ Fast; Slow ]
  in
  match m with
  | Counter c ->
      ("", "", total c)
      :: windowed c.c_win (fun t ->
             [ ("total", total ~tier:t c); ("rate", rate ~tier:t c) ])
  | Gauge g ->
      ("", "", g.value)
      :: windowed g.g_win (fun t -> [ ("max", gauge_max ~tier:t g) ])
  | Histogram h ->
      List.map (fun (s, v) -> (s, "", v)) (hist_stats h)
      @ windowed h.h_win (fun t -> hist_stats ~tier:t h)

(** The [/metrics] value: every series' samples, sorted by name.  Both
    renderings below read this and nothing else. *)
let snapshot () =
  Mutex.lock registry_m;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_m;
  List.sort (fun (a, _) (b, _) -> compare a b) all
  |> List.map (fun (name, m) -> (name, samples m))

(** Prometheus-flavoured plain text, the [/metrics] body: one line per
    sample that has a value, [name], [name_p99] or [name_1m_p99]. *)
let to_text snap =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, samples) ->
      List.iter
        (fun (stat, tier, v) ->
          if not (Float.is_nan v) then begin
            let key =
              if stat = "" then name
              else if tier = "" then suffixed name ("_" ^ stat)
              else suffixed name ("_" ^ tier ^ "_" ^ stat)
            in
            Buffer.add_string buf key;
            Buffer.add_char buf ' ';
            Buffer.add_string buf (fnum v);
            Buffer.add_char buf '\n'
          end)
        samples)
    snap;
  Buffer.contents buf

(** The [/metrics.json] value: a bare number for a series with one
    value, else an object whose windowed keys carry a [_1m]/[_1h]
    suffix. *)
let to_json snap =
  let field (stat, tier, v) =
    let key =
      if stat = "" then "value" else if tier = "" then stat else stat ^ "_" ^ tier
    in
    (key, Json.Num v)
  in
  Json.Obj
    (List.map
       (fun (name, samples) ->
         match samples with
         | [ (_, _, v) ] -> (name, Json.Num v)
         | ss -> (name, Json.Obj (List.map field ss)))
       snap)
