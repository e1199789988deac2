(* Always-on flight recorder: a bounded, mutex-guarded ring buffer of the
   last N completed requests, each entry holding the request label (query
   text or method), its span slice (from which its span-tree signature
   and per-phase timings are folded on demand), error kind, idem key and
   duration.  Entries whose duration crosses the slow
   threshold are additionally *pinned*: kept in a separate bounded list
   ordered by duration, so a burst of fast traffic cannot evict the
   evidence of yesterday's slow query.

   Recording one entry is a handful of field writes — cheap enough to
   leave on in production, which is the point: /requestz answers "what
   ran here recently" without anyone having had to plan for the question.

   A served SOAP request reaches the ring through [complete], which also
   feeds the request's metrics and SLO series from the same record;
   client-side queries call [record] directly. *)

type entry = {
  id : int; (* 1-based, monotonically increasing *)
  label : string;
  error : string option;
  idem_key : string option;
  duration_ms : float;
  at_ms : float; (* completion time on the Trace clock *)
  wall_at : float; (* capture time, Unix epoch seconds — entries stay
                      datable after the ring wraps or the Trace clock is
                      swapped for a virtual one *)
  spans : Trace.span list;
      (* the request's span slice, creation order; [] when nothing
         collected it *)
}

(* The slice's span-tree signature; "" when it has no spans. *)
let signature e = if e.spans = [] then "" else Trace.signature_of e.spans

(* Per-span-name (name, count, total ms) of the slice. *)
let phases e = Trace.phase_summary_of e.spans

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity = 128
let pinned_capacity = 16
let ring : entry option array = Array.make capacity None
let next_slot = ref 0
let total = ref 0
let slow_ms = ref 250.
let pinned_list : entry list ref = ref [] (* slowest first, bounded *)

(* Requests at least this slow are pinned. *)
let set_slow_ms ms = locked (fun () -> slow_ms := ms)

let reset () =
  locked (fun () ->
      Array.fill ring 0 capacity None;
      next_slot := 0;
      total := 0;
      pinned_list := [])

let slow_threshold_ms () = !slow_ms

(* Insert into the pinned list keeping it sorted slowest-first and
   bounded; ties keep the earlier entry first (stable). *)
let pin_locked e =
  let rec ins = function
    | [] -> [ e ]
    | x :: rest ->
        if e.duration_ms > x.duration_ms then e :: x :: rest
        else x :: ins rest
  in
  pinned_list := List.filteri (fun i _ -> i < pinned_capacity) (ins !pinned_list)

let record ?error ?idem_key ~label ~duration_ms ~spans () =
  locked (fun () ->
      incr total;
      let e =
        { id = !total; label; error; idem_key; duration_ms; at_ms = Trace.now_ms ();
          wall_at = Unix.gettimeofday (); spans }
      in
      ring.(!next_slot) <- Some e;
      next_slot := (!next_slot + 1) mod capacity;
      if duration_ms >= !slow_ms then pin_locked e;
      e.id)

(** One served request, built once at the request's single exit. *)
type completion = {
  c_endpoint : string;  (* SLO identity: "module:function", "tx:op" *)
  c_label : string;
  c_duration_ms : float;
  c_error : string option;
  c_idem_key : string option;
  c_spans : Trace.span list;  (* the request's span slice *)
}

let m_handle_ms = Metrics.histogram ~windowed:true "peer.handle_ms"
let m_faults = Metrics.counter "peer.faults"

(** The one recording call per served SOAP request.  Its three readers
    see the same duration: the [peer.handle_ms] histogram (and
    [peer.faults]), the [scope]'s SLO series, and this ring. *)
let complete ~scope c =
  let error = Option.is_some c.c_error in
  Metrics.observe m_handle_ms c.c_duration_ms;
  if error then Metrics.incr m_faults;
  Slo.record ~scope ~endpoint:c.c_endpoint ~dur_ms:c.c_duration_ms ~error ();
  ignore
    (record ?error:c.c_error ?idem_key:c.c_idem_key ~label:c.c_label
       ~duration_ms:c.c_duration_ms ~spans:c.c_spans ())

(* Newest first; caller holds [mutex]. *)
let recent_locked () =
  let acc = ref [] in
  for i = 0 to capacity - 1 do
    (* walk forward from the oldest slot so [acc] ends newest first *)
    match ring.((!next_slot + i) mod capacity) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let recent () = locked recent_locked

let find id =
  locked (fun () ->
      let in_ring =
        Array.fold_left
          (fun acc slot ->
            match (acc, slot) with
            | Some _, _ -> acc
            | None, Some e when e.id = id -> Some e
            | None, _ -> None)
          None ring
      in
      match in_ring with
      | Some _ -> in_ring
      | None -> List.find_opt (fun e -> e.id = id) !pinned_list)

(** The [/requestz] and [/slowz] value: the ring, the pinned list and
    the counters read under one lock, with the wall time ages are
    measured against. *)
type snapshot = {
  s_total : int;
  s_slow_ms : float;
  s_recent : entry list;
  s_pinned : entry list;
  s_now : float;
}

let snapshot () =
  locked (fun () ->
      { s_total = !total; s_slow_ms = !slow_ms; s_recent = recent_locked ();
        s_pinned = !pinned_list; s_now = Unix.gettimeofday () })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* "2m ago" / "3h ago": ages read at a glance; absolute epochs do not *)
let age_text now e =
  let age = now -. e.wall_at in
  if age < 0.05 then "now"
  else if age < 60. then Printf.sprintf "%.0fs ago" age
  else if age < 3600. then Printf.sprintf "%.0fm ago" (age /. 60.)
  else Printf.sprintf "%.1fh ago" (age /. 3600.)

let entry_text ~now buf e =
  Buffer.add_string buf
    (Printf.sprintf "#%d  [%s]  %.3f ms%s%s  %s\n" e.id (age_text now e)
       e.duration_ms
       (match e.error with Some err -> "  ERROR " ^ err | None -> "")
       (match e.idem_key with Some k -> "  idem=" ^ k | None -> "")
       e.label);
  if e.spans <> [] then
    Buffer.add_string buf
      (Printf.sprintf "    phases: %s\n    spans: %s\n"
         (String.concat "; "
            (List.map
               (fun (name, n, ms) ->
                 Printf.sprintf "%s x%d %.3f ms" name n ms)
               (phases e)))
         (signature e))

let entries_text s header entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter (entry_text ~now:s.s_now buf) entries;
  Buffer.contents buf

let to_text s =
  entries_text s
    (Printf.sprintf "flight recorder: %d recorded, showing %d (slow >= %.0f ms)\n"
       s.s_total (List.length s.s_recent) s.s_slow_ms)
    s.s_recent

let pinned_text s =
  entries_text s
    (Printf.sprintf "pinned slow queries (>= %.0f ms): %d\n" s.s_slow_ms
       (List.length s.s_pinned))
    s.s_pinned

let entry_json ~now e =
  Json.Obj
    ([ ("id", Json.Int e.id); ("label", Json.Str e.label);
       ("duration_ms", Json.Num e.duration_ms); ("at_ms", Json.Num e.at_ms);
       ("wall_at", Json.Num e.wall_at);
       ("age_s", Json.Num (Float.max 0. (now -. e.wall_at))) ]
    @ Json.opt_str "error" e.error
    @ Json.opt_str "idem_key" e.idem_key
    @
    if e.spans = [] then []
    else
      [ ("signature", Json.Str (signature e));
        ( "phases",
          Json.Arr
            (List.map
               (fun (name, n, ms) ->
                 Json.Obj
                   [ ("name", Json.Str name); ("count", Json.Int n);
                     ("ms", Json.Num ms) ])
               (phases e)) ) ])

let to_json s =
  let entries l = Json.Arr (List.map (entry_json ~now:s.s_now) l) in
  Json.Obj
    [ ("total", Json.Int s.s_total); ("recent", entries s.s_recent);
      ("pinned", entries s.s_pinned) ]
