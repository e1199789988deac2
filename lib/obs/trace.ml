(* Distributed tracing: per-query trace IDs and nested spans — the one
   collector every timing view of this library is derived from.

   The model is deliberately small:
   - a span has a trace id, its own id, an optional parent id, a name, a
     detail string, start/end timestamps, a list of point events and a
     list of numeric attributes ([add] sums into the innermost open span);
   - span ids are drawn from a process-local counter (optionally prefixed
     with a process tag for multi-process deployments), so a replayed
     deterministic schedule — Simnet virtual clock + seeded faults —
     yields bit-identical trees;
   - the clock is injectable ([set_clock]); tests and benches point it at
     the Simnet virtual clock, binaries use the wall clock;
   - the ambient "current span" is tracked per thread (Http fan-out runs
     one thread per destination), so nested [with_span] calls on any
     thread build a well-formed tree;
   - context crosses peers as a (trace-id, parent-span) pair carried in
     the SOAP envelope header (see Soap.Message / protocol/XRPC.xsd);
     [propagation] reads the pair to stamp outgoing requests and
     [collect ~remote] adopts it on the serving side.

   A span is recorded in the process buffer when tracing is on, and in
   every collection open around it: [collect f] runs [f] under a fresh
   root span and returns the spans of that root's subtree, whether or
   not tracing is on.  A span's children inherit its collections, so
   work a pool thread runs under [with_ambient] lands in the submitter's
   collection.  A query profile, a peer's serverProfile phases and each
   flight-recorder entry are folds over one such slice.

   When nothing records (tracing off, no collection open) every entry
   point returns after one atomic test — the instrumented hot paths stay
   at ~0%% cost. *)

type event = { e_name : string; e_detail : string; e_at : float }

type span = {
  trace_id : string;
  span_id : string;
  parent : string option;
  name : string;
  detail : string;
  start_ms : float;
  mutable end_ms : float; (* nan while the span is still open *)
  mutable events : event list; (* newest first *)
  mutable attrs : (string * float ref) list; (* newest first *)
  sinks : collection list; (* where this span's children are recorded *)
}

(* One [collect]'s slice, bounded by [capacity]. *)
and collection = {
  mutable c_spans : span list; (* newest first, the root excluded *)
  mutable c_n : int;
  mutable c_dropped : int;
}

(* The one gate: 1 while tracing is on, plus 1 per open collection. *)
let level = Atomic.make 0
let enabled_flag = ref false
let enabled () = !enabled_flag
let recording () = Atomic.get level > 0

let wall_clock_ms () = Unix.gettimeofday () *. 1000.

let clock = ref wall_clock_ms
let set_clock f = clock := f
let use_wall_clock () = clock := wall_clock_ms
let now_ms () = !clock ()

(* Deterministic ids. [process_tag] disambiguates ids across OS processes
   (e.g. two xrpc_server instances); in-process it stays "" so replays of
   a seeded schedule mint identical ids.  Id minting, span recording and
   event/attribute updates share one mutex: the dispatch executor runs
   spans on pool threads, and two threads must never mint the same id or
   lose a recorded span. *)
let state_mutex = Mutex.create ()

let locked f = Mutex.protect state_mutex f

let set_enabled b =
  locked (fun () ->
      if b <> !enabled_flag then begin
        enabled_flag := b;
        ignore (Atomic.fetch_and_add level (if b then 1 else -1))
      end)

let process_tag = ref ""
let set_process_tag t = process_tag := t
let next_trace = ref 0
let next_span = ref 0

(* The next id of [counter]: [!process_tag ^ kind ^ string_of_int n],
   written digit by digit — string_of_int's C formatting was half the
   cost of a recorded span *)
let mint kind counter =
  incr counter;
  let n = !counter in
  let tag = !process_tag and width = ref 1 and m = ref n in
  while !m >= 10 do incr width; m := !m / 10 done;
  let t = String.length tag in
  let b = Bytes.create (t + 1 + !width) in
  Bytes.blit_string tag 0 b 0 t;
  Bytes.set b t kind;
  m := n;
  for i = t + !width downto t + 1 do
    Bytes.set b i (Char.chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b

(* Spans are recorded at start, so a slice is in creation order.  The
   process buffer (recording while tracing is on) and each collection
   are bounded: past [capacity] new spans are counted as dropped but
   stack discipline (and so parentage of later spans) is preserved. *)
let capacity = 50_000
let new_collection () = { c_spans = []; c_n = 0; c_dropped = 0 }
let process = new_collection ()

(* The one per-thread stack of open spans. *)
let stacks : (int, span list ref) Hashtbl.t = Hashtbl.create 8
let stacks_mutex = Mutex.create ()

(* the last thread's stack: a program that traces from one thread at a
   time skips the table *)
let last_stack = ref (-1, ref [])

let my_stack () =
  let id = Thread.id (Thread.self ()) in
  let last_id, last = !last_stack in
  if last_id = id then last
  else begin
    Mutex.lock stacks_mutex;
    let st =
      match Hashtbl.find_opt stacks id with
      | Some st -> st
      | None ->
          let st = ref [] in
          Hashtbl.replace stacks id st;
          st
    in
    last_stack := (id, st);
    Mutex.unlock stacks_mutex;
    st
  end

let top () = match !(my_stack ()) with [] -> None | s :: _ -> Some s
let current () = if Atomic.get level = 0 then None else top ()

(* Is this thread inside a [collect]? *)
let collecting () =
  match current () with Some s -> s.sinks <> [] | None -> false

let reset () =
  locked (fun () ->
      process.c_spans <- [];
      process.c_n <- 0;
      process.c_dropped <- 0;
      next_trace := 0;
      next_span := 0);
  Mutex.lock stacks_mutex;
  Hashtbl.reset stacks;
  last_stack := (-1, ref []);
  Mutex.unlock stacks_mutex

let collect_locked span =
  List.iter (fun c ->
      if c.c_n >= capacity then c.c_dropped <- c.c_dropped + 1
      else begin
        c.c_spans <- span :: c.c_spans;
        c.c_n <- c.c_n + 1
      end)

(* Open a span on this thread's stack [st], under [remote] when given,
   else under the current span.  [root] makes it the root of a new
   collection.  [None] when nothing would record it. *)
let open_span st ?(detail = "") ?remote ?root name =
  let top = match !st with [] -> None | s :: _ -> Some s in
  let sinks = match top with Some p -> p.sinks | None -> [] in
  if (not !enabled_flag) && sinks = [] && root = None then None
  else begin
    let make trace_id parent =
      { trace_id; span_id = mint 's' next_span; parent; name; detail;
        start_ms = now_ms (); end_ms = nan; events = []; attrs = [];
        sinks = (match root with Some c -> c :: sinks | None -> sinks) }
    in
    Mutex.lock state_mutex;
    let s =
      match (remote, top) with
      | Some (t, p), _ -> make t (Some p)
      | None, Some p -> make p.trace_id (Some p.span_id)
      | None, None -> make (mint 't' next_trace) None
    in
    collect_locked s (if !enabled_flag then process :: sinks else sinks);
    Mutex.unlock state_mutex;
    st := s :: !st;
    Some s
  end

let finish_span st s =
  s.end_ms <- now_ms ();
  match !st with
  | top :: rest when top == s -> st := rest
  | _ -> (* unbalanced finish; drop down to (and including) s if present *)
      st := (match List.find_index (( == ) s) !st with
             | Some i -> List.filteri (fun j _ -> j > i) !st
             | None -> !st)

(* not Fun.protect: its closures cost as much as the rest of a span *)
let run_in st s f =
  match f () with
  | r ->
      finish_span st s;
      r
  | exception e ->
      finish_span st s;
      raise e

let with_span ?detail name f =
  if Atomic.get level = 0 then f ()
  else
    let st = my_stack () in
    match open_span st ?detail name with Some s -> run_in st s f | None -> f ()

let dropped_attr = "dropped"

(* Run [f] under a fresh root span [label] (adopting [remote] as its
   parent when given) and return [f]'s result with the root's subtree:
   the root first, then every span recorded under it, on any thread, in
   creation order.  Past [capacity] spans the drops are counted in the
   root's [dropped_attr] attribute.  An exception from [f] propagates
   once the root is finished. *)
let collect ?(label = "collect") ?detail ?remote f =
  let c = new_collection () in
  Atomic.incr level;
  let st = my_stack () in
  let root = Option.get (open_span st ?detail ?remote ~root:c label) in
  let r =
    Fun.protect ~finally:(fun () -> Atomic.decr level) (fun () ->
        run_in st root f)
  in
  locked (fun () ->
      if c.c_dropped > 0 then
        root.attrs <-
          (dropped_attr, ref (float_of_int c.c_dropped)) :: root.attrs;
      (r, root :: List.rev c.c_spans))

(* Run [f] with [span] installed as this thread's ambient current span.
   The span is NOT re-recorded and NOT finished here — it belongs to the
   thread that started it.  The dispatch executor uses this to carry the
   submitting thread's open span onto a pool thread, so spans opened by
   the shipped work keep their logical parent (and collections) instead
   of becoming roots of orphan traces. *)
let with_ambient span f =
  if Atomic.get level = 0 then f ()
  else begin
    let st = my_stack () in
    st := span :: !st;
    Fun.protect
      ~finally:(fun () ->
        match !st with s :: rest when s == span -> st := rest | _ -> ())
      f
  end

let event ?(detail = "") name =
  if Atomic.get level > 0 then
    match top () with
    | None -> ()
    | Some s ->
        let e = { e_name = name; e_detail = detail; e_at = now_ms () } in
        Mutex.lock state_mutex;
        s.events <- e :: s.events;
        Mutex.unlock state_mutex

let rec find_attr name = function
  | [] -> None
  | (k, r) :: rest -> if String.equal k name then Some r else find_attr name rest

(* Sum [v] into the innermost open span's attribute [name]. *)
let add name v =
  if Atomic.get level > 0 then
    match top () with
    | None -> ()
    | Some s ->
        Mutex.lock state_mutex;
        (match find_attr name s.attrs with
        | Some r -> r := !r +. v
        | None -> s.attrs <- (name, ref v) :: s.attrs);
        Mutex.unlock state_mutex

let attr s name = Option.map ( ! ) (find_attr name s.attrs)

(* Outgoing context: what to stamp into the SOAP header. *)
let propagation () =
  if not !enabled_flag then None
  else match top () with Some s -> Some (s.trace_id, s.span_id) | None -> None

let spans () = List.rev process.c_spans (* creation order *)
let dropped_count () = process.c_dropped

let open_count () =
  List.length (List.filter (fun s -> Float.is_nan s.end_ms) process.c_spans)

let duration_ms s = if Float.is_nan s.end_ms then nan else s.end_ms -. s.start_ms

(* ------------------------------------------------------------------ *)
(* Tree reconstruction and rendering                                   *)
(* ------------------------------------------------------------------ *)

(* Children of each span id, in creation order; roots are spans whose
   parent is absent from the recorded set (covers both true roots and
   remote parents living in another process's collector). *)
module Ids = Hashtbl.Make (String)

let tree_of all =
  let children = Ids.create 64 in
  List.iter (fun s -> Ids.replace children s.span_id (ref [])) all;
  let roots =
    List.filter
      (fun s ->
        match Option.bind s.parent (Ids.find_opt children) with
        | Some siblings ->
            siblings := s :: !siblings;
            false
        | None -> true)
      all
  in
  ( roots,
    fun id ->
      match Ids.find_opt children id with
      | Some l -> List.rev !l
      | None -> [] )

let render () =
  let all = spans () in
  let roots, kids = tree_of all in
  let buf = Buffer.create 1024 in
  let rec pr indent s =
    let dur = duration_ms s in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s  %s  [%s/%s]\n" indent s.name
         (if s.detail = "" then "" else " (" ^ s.detail ^ ")")
         (if Float.is_nan dur then "OPEN" else Printf.sprintf "%.3f ms" dur)
         s.trace_id s.span_id);
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "%s  * %s%s @%.3f\n" indent e.e_name
             (if e.e_detail = "" then "" else " " ^ e.e_detail)
             (e.e_at -. s.start_ms)))
      (List.rev s.events);
    List.iter (pr (indent ^ "  ")) (kids s.span_id)
  in
  List.iter (pr "") roots;
  if process.c_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d spans dropped: buffer full)\n" process.c_dropped);
  Buffer.contents buf

(* Structure-only rendering — span names, nesting and event names, but no
   timestamps or durations. Two runs of the same seeded schedule must
   produce equal signatures (replay determinism extended to traces). *)
let signature_of all =
  let roots, kids = tree_of all in
  let buf = Buffer.create 512 in
  let rec pr s =
    Buffer.add_string buf s.name;
    let evs = List.rev_map (fun e -> e.e_name) s.events in
    if evs <> [] then Buffer.add_string buf ("!" ^ String.concat "!" evs);
    let cs = kids s.span_id in
    if cs <> [] then begin
      Buffer.add_char buf '(';
      List.iteri (fun i c -> if i > 0 then Buffer.add_char buf ','; pr c) cs;
      Buffer.add_char buf ')'
    end
  in
  List.iteri (fun i r -> if i > 0 then Buffer.add_char buf ';'; pr r) roots;
  Buffer.contents buf

let signature () = signature_of (spans ())

(* Aggregate per-phase totals: (name, count, total inclusive ms), sorted by
   total descending — the paper's Table-2-style cost breakdown. *)
let phase_summary_of all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = duration_ms s in
      if not (Float.is_nan d) then
        let n, t = try Hashtbl.find tbl s.name with Not_found -> (0, 0.) in
        Hashtbl.replace tbl s.name (n + 1, t +. d))
    all;
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let phase_summary () = phase_summary_of (spans ())
