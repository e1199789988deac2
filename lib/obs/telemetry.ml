(* Federation telemetry: one peer's windowed health as a portable
   snapshot, and the merge of many snapshots into the cluster view.

   The scrape path is ordinary XRPC — the coordinator calls the built-in
   [telemetry] function (namespace {!ns_xrpc}, like [getDocument]) on
   every peer in parallel and each peer answers with its snapshot
   serialized by {!to_wire}.  Using the RPC plane for its own telemetry
   is deliberate: the scrape exercises the same transport, executor and
   breaker the queries do, so "the scrape fails" is itself a health
   signal (the merge turns a failed leg into an [unreachable] pseudo-
   snapshot instead of dropping the peer from the view).

   Wire format: tab-separated lines, one record per line, first field is
   the record tag.  This layer (lib/obs) sits below the XML stack and
   owns no parser, and TSV round-trips with [String.split_on_char] —
   values are sanitized so tag/field positions cannot be forged.

   Sources: the runtime registers closures (shard-map version, breaker
   states, extra gauges) per scope; snapshot assembly pulls from {!Slo}
   plus these.  Scope is the peer URI, same convention as {!Slo}. *)

type endpoint_stat = {
  ep_name : string;
  ep_rate : float;
  ep_err_rate : float;
  ep_p50 : float;
  ep_p95 : float;
  ep_p99 : float;
  ep_reqs_1m : float;
}

type snapshot = {
  sn_peer : string;
  sn_at_ms : float;
  sn_state : string;  (* ready | degraded | unready | unreachable *)
  sn_reasons : string list;
  sn_gauges : (string * float) list;
  sn_endpoints : endpoint_stat list;
  sn_shard_version : int option;
  sn_breakers : (string * string) list;  (* dest -> closed/open/half_open *)
}

(* -- sources ------------------------------------------------------- *)

let gauge_sources : (string, unit -> (string * float) list) Hashtbl.t =
  Hashtbl.create 8

let shard_sources : (string, unit -> int option) Hashtbl.t = Hashtbl.create 8

let breaker_sources : (string, unit -> (string * string) list) Hashtbl.t =
  Hashtbl.create 8

let m = Mutex.create ()

let with_m f =
  Mutex.lock m;
  let r = f () in
  Mutex.unlock m;
  r

let register_gauges ~scope f = with_m (fun () -> Hashtbl.replace gauge_sources scope f)
let register_shard_version ~scope f =
  with_m (fun () -> Hashtbl.replace shard_sources scope f)
let register_breakers ~scope f =
  with_m (fun () -> Hashtbl.replace breaker_sources scope f)

let reset_sources () =
  with_m (fun () ->
      Hashtbl.reset gauge_sources;
      Hashtbl.reset shard_sources;
      Hashtbl.reset breaker_sources)

let pull tbl scope =
  (* scope-local source plus the process-global "" one *)
  let get s = with_m (fun () -> Hashtbl.find_opt tbl s) in
  let run = function
    | Some f -> ( try f () with _ -> [])
    | None -> []
  in
  run (get scope) @ if scope = "" then [] else run (get "")

(** Assemble this process's snapshot for one peer scope. *)
let local_snapshot ~peer () =
  let scope = peer in
  let hz = Slo.health ~scope () in
  let eps =
    List.map
      (fun (h : Slo.endpoint_health) ->
        {
          ep_name = h.Slo.h_endpoint;
          ep_rate = h.Slo.h_rate;
          ep_err_rate = h.Slo.h_err_rate;
          ep_p50 = h.Slo.h_p50;
          ep_p95 = h.Slo.h_p95;
          ep_p99 = h.Slo.h_p99;
          ep_reqs_1m = h.Slo.h_reqs_1m;
        })
      hz.Slo.endpoints
  in
  let shard_version =
    match with_m (fun () -> Hashtbl.find_opt shard_sources scope) with
    | Some f -> ( try f () with _ -> None)
    | None -> None
  in
  {
    sn_peer = peer;
    sn_at_ms = Trace.now_ms ();
    sn_state = Slo.state_label hz.Slo.state;
    sn_reasons = hz.Slo.reasons;
    sn_gauges = pull gauge_sources scope;
    sn_endpoints = eps;
    sn_shard_version = shard_version;
    sn_breakers = pull breaker_sources scope;
  }

let unreachable ~peer ~at_ms ~reason =
  {
    sn_peer = peer;
    sn_at_ms = at_ms;
    sn_state = "unreachable";
    sn_reasons = [ reason ];
    sn_gauges = [];
    sn_endpoints = [];
    sn_shard_version = None;
    sn_breakers = [];
  }

(* -- wire ---------------------------------------------------------- *)

let clean s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let f2s v = if Float.is_nan v then "nan" else Printf.sprintf "%.6g" v

(** A scrape reply that is not a snapshot [to_wire] could have written. *)
exception Malformed of string

let to_wire sn =
  let buf = Buffer.create 512 in
  let line parts =
    Buffer.add_string buf (String.concat "\t" (List.map clean parts));
    Buffer.add_char buf '\n'
  in
  line [ "peer"; sn.sn_peer ];
  line [ "at"; f2s sn.sn_at_ms ];
  line [ "state"; sn.sn_state ];
  List.iter (fun r -> line [ "reason"; r ]) sn.sn_reasons;
  List.iter (fun (n, v) -> line [ "gauge"; n; f2s v ]) sn.sn_gauges;
  (match sn.sn_shard_version with
  | Some v -> line [ "shardv"; string_of_int v ]
  | None -> ());
  List.iter (fun (d, s) -> line [ "breaker"; d; s ]) sn.sn_breakers;
  List.iter
    (fun e ->
      line
        [
          "ep"; e.ep_name; f2s e.ep_rate; f2s e.ep_err_rate; f2s e.ep_p50;
          f2s e.ep_p95; f2s e.ep_p99; f2s e.ep_reqs_1m;
        ])
    sn.sn_endpoints;
  Buffer.contents buf

(* The bytes come from another peer, so every line and field is checked:
   an unknown record, a wrong field count, a number [f2s] would not
   write, a missing or repeated peer/at/state line all raise
   [Malformed].  Records accumulate reversed, so the parse is linear in
   the line count. *)
let of_wire s =
  let lines = String.split_on_char '\n' s in
  let last = List.length lines - 1 in
  let peer = ref None and at = ref None and state = ref None in
  let shardv = ref None in
  let reasons = ref [] and gauges = ref [] and breakers = ref [] in
  let eps = ref [] in
  List.iteri
    (fun i line ->
      let bad what =
        let what =
          if String.length what > 60 then String.sub what 0 60 ^ "..." else what
        in
        raise (Malformed (Printf.sprintf "line %d: %s" (i + 1) what))
      in
      let once r v what =
        if Option.is_some !r then bad ("repeated " ^ what) else r := Some v
      in
      let num v =
        match v with
        | "nan" -> nan
        | "inf" -> infinity
        | "-inf" -> neg_infinity
        | _ -> (
            let ok = function
              | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
              | _ -> false
            in
            match float_of_string_opt v with
            | Some f when v <> "" && String.for_all ok v -> f
            | _ -> bad ("bad number " ^ v))
      in
      let one_of what allowed v =
        if List.mem v allowed then v
        else bad (Printf.sprintf "bad %s %s" what v)
      in
      match String.split_on_char '\t' line with
      | [ "" ] when i = last -> ()
      | [ "peer"; p ] -> once peer p "peer"
      | [ "at"; v ] -> once at (num v) "at"
      | [ "state"; st ] ->
          let states = [ "ready"; "degraded"; "unready"; "unreachable" ] in
          once state (one_of "state" states st) "state"
      | [ "reason"; r ] -> reasons := r :: !reasons
      | [ "gauge"; n; v ] -> gauges := (n, num v) :: !gauges
      | [ "shardv"; v ] -> (
          let digit = function '0' .. '9' -> true | _ -> false in
          match int_of_string_opt v with
          | Some n when String.for_all digit v -> once shardv n "shardv"
          | _ -> bad ("bad shard version " ^ v))
      | [ "breaker"; d; st ] ->
          breakers :=
            (d, one_of "breaker state" [ "closed"; "open"; "half_open" ] st)
            :: !breakers
      | [ "ep"; name; rate; err; p50; p95; p99; r1m ] ->
          let e =
            {
              ep_name = name;
              ep_rate = num rate;
              ep_err_rate = num err;
              ep_p50 = num p50;
              ep_p95 = num p95;
              ep_p99 = num p99;
              ep_reqs_1m = num r1m;
            }
          in
          eps := e :: !eps
      | _ -> bad ("unexpected record: " ^ line))
    lines;
  let required what = function
    | Some v -> v
    | None -> raise (Malformed ("missing " ^ what ^ " line"))
  in
  {
    sn_peer = required "peer" !peer;
    sn_at_ms = required "at" !at;
    sn_state = required "state" !state;
    sn_reasons = List.rev !reasons;
    sn_gauges = List.rev !gauges;
    sn_endpoints = List.rev !eps;
    sn_shard_version = !shardv;
    sn_breakers = List.rev !breakers;
  }

(** A peer's snapshot from its scrape reply, or an [unreachable]
    pseudo-snapshot naming the reason when the fetch or the decode
    fails: a peer that cannot be scraped is what a cluster view must
    show, not drop. *)
let scrape ~peer ~at_ms fetch =
  match of_wire (fetch ()) with
  | sn -> sn
  | exception Malformed m ->
      unreachable ~peer ~at_ms ~reason:("malformed telemetry: " ^ m)
  | exception e -> unreachable ~peer ~at_ms ~reason:(Printexc.to_string e)

(* -- merge --------------------------------------------------------- *)

type cluster_view = {
  cv_at_ms : float;
  cv_peers : snapshot list;
  cv_total_rate : float;
  cv_err_rate : float;  (* cluster-wide error fraction over 1m *)
  cv_hot : (string * string * float) list;  (* peer, endpoint, req/s *)
  cv_shard_versions : (string * int) list;
  cv_shard_agree : bool;  (* all reported versions equal *)
  cv_state : string;  (* worst peer state *)
}

let state_rank = function
  | "ready" -> 0
  | "degraded" -> 1
  | "unready" -> 2
  | _ -> 3 (* unreachable *)

let merge ~at_ms snapshots =
  let peers =
    List.sort (fun a b -> compare a.sn_peer b.sn_peer) snapshots
  in
  let total_rate =
    List.fold_left
      (fun acc sn ->
        List.fold_left (fun a e -> a +. e.ep_rate) acc sn.sn_endpoints)
      0. peers
  in
  let reqs, errs =
    List.fold_left
      (fun acc sn ->
        List.fold_left
          (fun (r, e) ep ->
            (r +. ep.ep_reqs_1m, e +. (ep.ep_err_rate *. ep.ep_reqs_1m)))
          acc sn.sn_endpoints)
      (0., 0.) peers
  in
  let hot =
    List.concat_map
      (fun sn ->
        List.map (fun e -> (sn.sn_peer, e.ep_name, e.ep_rate)) sn.sn_endpoints)
      peers
    |> List.filter (fun (_, _, r) -> r > 0.)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> fun l -> List.filteri (fun i _ -> i < 10) l
  in
  let versions =
    List.filter_map
      (fun sn ->
        Option.map (fun v -> (sn.sn_peer, v)) sn.sn_shard_version)
      peers
  in
  let agree =
    match versions with
    | [] -> true
    | (_, v0) :: rest -> List.for_all (fun (_, v) -> v = v0) rest
  in
  let worst =
    List.fold_left
      (fun acc sn -> if state_rank sn.sn_state > state_rank acc then sn.sn_state else acc)
      "ready" peers
  in
  {
    cv_at_ms = at_ms;
    cv_peers = peers;
    cv_total_rate = total_rate;
    cv_err_rate = (if reqs > 0. then errs /. reqs else 0.);
    cv_hot = hot;
    cv_shard_versions = versions;
    cv_shard_agree = agree;
    cv_state = worst;
  }

(* -- rendering ----------------------------------------------------- *)

let cluster_text cv =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "cluster: %s  peers %d  %.1f req/s  err %.2f%%\n"
       cv.cv_state (List.length cv.cv_peers) cv.cv_total_rate
       (cv.cv_err_rate *. 100.));
  if cv.cv_shard_versions <> [] then
    Buffer.add_string buf
      (Printf.sprintf "shard map: %s (%s)\n"
         (if cv.cv_shard_agree then "agreed" else "DISAGREE")
         (String.concat ", "
            (List.map
               (fun (p, v) -> Printf.sprintf "%s=v%d" p v)
               cv.cv_shard_versions)));
  List.iter
    (fun sn ->
      let p99s =
        List.filter_map
          (fun e -> if Float.is_nan e.ep_p99 then None else Some e.ep_p99)
          sn.sn_endpoints
      in
      let p99_max = List.fold_left Float.max neg_infinity p99s in
      Buffer.add_string buf
        (Printf.sprintf "peer %-32s %-11s %s%s%s\n" sn.sn_peer sn.sn_state
           (if p99_max = neg_infinity then "p99 -"
            else Printf.sprintf "p99 %.1fms" p99_max)
           (match sn.sn_breakers with
           | [] -> ""
           | bs ->
               "  breakers "
               ^ String.concat ","
                   (List.map (fun (d, s) -> d ^ ":" ^ s) bs))
           (match sn.sn_reasons with
           | [] -> ""
           | r :: _ -> "  (" ^ r ^ ")"))
      )
    cv.cv_peers;
  if cv.cv_hot <> [] then begin
    Buffer.add_string buf "hot endpoints:\n";
    List.iter
      (fun (p, e, r) ->
        Buffer.add_string buf
          (Printf.sprintf "  %6.1f req/s  %s %s\n" r p e))
      cv.cv_hot
  end;
  Buffer.contents buf

let endpoint_json e =
  Json.Obj
    [ ("endpoint", Json.Str e.ep_name); ("rate", Json.Num e.ep_rate);
      ("err_rate", Json.Num e.ep_err_rate); ("p50_ms", Json.Num e.ep_p50);
      ("p95_ms", Json.Num e.ep_p95); ("p99_ms", Json.Num e.ep_p99);
      ("reqs_1m", Json.Num e.ep_reqs_1m) ]

let snapshot_json sn =
  Json.Obj
    [ ("peer", Json.Str sn.sn_peer); ("at_ms", Json.Num sn.sn_at_ms);
      ("state", Json.Str sn.sn_state);
      ("reasons", Json.Arr (List.map (fun r -> Json.Str r) sn.sn_reasons));
      ( "shard_version",
        Option.fold ~none:Json.Null ~some:(fun v -> Json.Int v)
          sn.sn_shard_version );
      ("breakers", Json.Obj (List.map (fun (d, st) -> (d, Json.Str st)) sn.sn_breakers));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) sn.sn_gauges));
      ("endpoints", Json.Arr (List.map endpoint_json sn.sn_endpoints)) ]

let cluster_json cv =
  Json.Obj
    [ ("at_ms", Json.Num cv.cv_at_ms); ("state", Json.Str cv.cv_state);
      ("total_rate", Json.Num cv.cv_total_rate);
      ("err_rate", Json.Num cv.cv_err_rate);
      ("shard_agree", Json.Bool cv.cv_shard_agree);
      ( "hot",
        Json.Arr
          (List.map
             (fun (p, e, r) ->
               Json.Obj
                 [ ("peer", Json.Str p); ("endpoint", Json.Str e);
                   ("rate", Json.Num r) ])
             cv.cv_hot) );
      ("peers", Json.Arr (List.map snapshot_json cv.cv_peers)) ]
