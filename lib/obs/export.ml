(* Exporters for collected span trees, as {!Json} values.

   [chrome_trace spans] is any span slice as Chrome trace-event JSON
   (the chrome://tracing / Perfetto "JSON Array Format"): one complete
   ("ph":"X") event per finished span with microsecond timestamps, one
   instant ("ph":"i") event per span event, and the span/parent ids in
   "args" so a consumer can rebuild the exact tree.  Open spans are
   emitted with zero duration and "open":true.

   [span_tree_json spans] is the compact structural export: the nested
   tree with names, details, timings and events — what /tracez serves
   next to the Chrome format. *)

let us_of_ms ms = ms *. 1000. (* trace-event timestamps are microseconds *)

let detail = Json.nonempty "detail"
let parent (s : Trace.span) = Json.opt_str "parent" s.Trace.parent

let chrome_events (s : Trace.span) =
  let is_open = Float.is_nan s.Trace.end_ms in
  let dur = if is_open then 0. else s.Trace.end_ms -. s.Trace.start_ms in
  let event name ph ts extra args =
    Json.Obj
      ([ ("name", Json.Str name); ("cat", Json.Str "xrpc"); ("ph", Json.Str ph);
         ("ts", Json.Num (us_of_ms ts)) ]
      @ extra
      @ [ ("pid", Json.Int 1); ("tid", Json.Int 1); ("args", Json.Obj args) ])
  in
  event s.Trace.name "X" s.Trace.start_ms
    [ ("dur", Json.Num (us_of_ms dur)) ]
    ((("span", Json.Str s.Trace.span_id) :: parent s)
    @ [ ("trace", Json.Str s.Trace.trace_id) ]
    @ detail s.Trace.detail
    @ if is_open then [ ("open", Json.Bool true) ] else [])
  :: List.rev_map
       (fun (e : Trace.event) ->
         event e.Trace.e_name "i" e.Trace.e_at
           [ ("s", Json.Str "t") ]
           (("span", Json.Str s.Trace.span_id) :: detail e.Trace.e_detail))
       s.Trace.events

let chrome_trace spans =
  Json.Obj
    [ ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (List.concat_map chrome_events spans)) ]

let span_tree_json spans =
  let roots, kids = Trace.tree_of spans in
  let rec node (s : Trace.span) =
    Json.Obj
      ((("name", Json.Str s.Trace.name) :: detail s.Trace.detail)
      @ (("span", Json.Str s.Trace.span_id) :: parent s)
      @ [ ("start_ms", Json.Num s.Trace.start_ms);
          ("dur_ms", Json.Num (Trace.duration_ms s)) ]
      @ (if s.Trace.events = [] then []
         else
           [ ( "events",
               Json.Arr
                 (List.rev_map
                    (fun (e : Trace.event) ->
                      Json.Obj
                        ((("name", Json.Str e.Trace.e_name)
                         :: detail e.Trace.e_detail)
                        @ [ ("at_ms", Json.Num e.Trace.e_at) ]))
                    s.Trace.events) ) ])
      @ [ ("children", Json.Arr (List.map node (kids s.Trace.span_id))) ])
  in
  Json.Obj [ ("spans", Json.Arr (List.map node roots)) ]
