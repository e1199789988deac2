(* Federation telemetry: one peer's health as a portable snapshot, and
   the merge of many snapshots into the cluster view.

   A snapshot is the peer, the time it was taken and the peer's
   {!Slo.health} — state, reasons, endpoint rows and the named values of
   its sources — so [/healthz], the [telemetry] built-in and [/clusterz]
   carry one value.

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
   strings are sanitized so tag/field positions cannot be forged.  Every
   field of the snapshot crosses and is checked on decode; a finite
   number is the shortest decimal that reads back as the same float
   ({!Json.finite_to_string}), so timestamps and quantiles arrive
   bit-exact. *)

type snapshot = { sn_peer : string; sn_at_ms : float; sn_health : Slo.health }

(** Assemble this process's snapshot for one peer scope. *)
let local_snapshot ~peer () =
  { sn_peer = peer; sn_at_ms = Trace.now_ms ();
    sn_health = Slo.health ~scope:peer () }

let unreachable ~peer ~at_ms ~reason =
  {
    sn_peer = peer;
    sn_at_ms = at_ms;
    sn_health =
      { Slo.state = Slo.Unreachable; reasons = [ reason ]; endpoints = [];
        values = [] };
  }

let shard_version sn =
  List.find_map
    (function Slo.Shard_version v -> Some v | _ -> None)
    sn.sn_health.Slo.values

let breakers sn =
  List.filter_map
    (function Slo.Breaker (d, st) -> Some (d, st) | _ -> None)
    sn.sn_health.Slo.values

let gauges sn =
  List.filter_map
    (function Slo.Gauge (n, v) -> Some (n, v) | _ -> None)
    sn.sn_health.Slo.values

(* -- wire ---------------------------------------------------------- *)

let clean s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let f2s v =
  if Float.is_nan v then "nan"
  else if v = infinity then "inf"
  else if v = neg_infinity then "-inf"
  else Json.finite_to_string v

let breaker_states = [ "closed"; "open"; "half_open" ]

(** A scrape reply that is not a snapshot [to_wire] could have written. *)
exception Malformed of string

let to_wire sn =
  let buf = Buffer.create 512 in
  let line parts =
    Buffer.add_string buf (String.concat "\t" (List.map clean parts));
    Buffer.add_char buf '\n'
  in
  let hz = sn.sn_health in
  line [ "peer"; sn.sn_peer ];
  line [ "at"; f2s sn.sn_at_ms ];
  line [ "state"; Slo.state_label hz.Slo.state ];
  List.iter (fun r -> line [ "reason"; r ]) hz.Slo.reasons;
  List.iter
    (fun (h : Slo.endpoint_health) ->
      line
        ([ "ep"; h.h_endpoint; f2s h.h_rate; f2s h.h_err_rate; f2s h.h_p50;
           f2s h.h_p95; f2s h.h_p99; f2s h.h_reqs_1m; f2s h.h_budget;
           f2s h.h_burn; Slo.state_label h.h_state ]
        @ Option.to_list h.h_reason))
    hz.Slo.endpoints;
  List.iter
    (function
      | Slo.Gauge (n, v) -> line [ "gauge"; n; f2s v ]
      | Slo.Shard_version v -> line [ "shardv"; string_of_int v ]
      | Slo.Breaker (d, st) -> line [ "breaker"; d; st ])
    hz.Slo.values;
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
  let reasons = ref [] and eps = ref [] and values = ref [] in
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
      let state_of v =
        match Slo.state_of_label v with
        | Some st -> st
        | None -> bad ("bad state " ^ v)
      in
      let endpoint name rate err p50 p95 p99 r1m budget burn st reason =
        eps :=
          { Slo.h_endpoint = name; h_rate = num rate; h_err_rate = num err;
            h_p50 = num p50; h_p95 = num p95; h_p99 = num p99;
            h_reqs_1m = num r1m; h_budget = num budget; h_burn = num burn;
            h_state = state_of st; h_reason = reason }
          :: !eps
      in
      match String.split_on_char '\t' line with
      | [ "" ] when i = last -> ()
      | [ "peer"; p ] -> once peer p "peer"
      | [ "at"; v ] -> once at (num v) "at"
      | [ "state"; st ] -> once state (state_of st) "state"
      | [ "reason"; r ] -> reasons := r :: !reasons
      | [ "ep"; name; rate; err; p50; p95; p99; r1m; budget; burn; st ] ->
          endpoint name rate err p50 p95 p99 r1m budget burn st None
      | [ "ep"; name; rate; err; p50; p95; p99; r1m; budget; burn; st; r ] ->
          endpoint name rate err p50 p95 p99 r1m budget burn st (Some r)
      | [ "gauge"; n; v ] -> values := Slo.Gauge (n, num v) :: !values
      | [ "shardv"; v ] -> (
          let digit = function '0' .. '9' -> true | _ -> false in
          match int_of_string_opt v with
          | Some n when String.for_all digit v ->
              values := Slo.Shard_version n :: !values
          | _ -> bad ("bad shard version " ^ v))
      | [ "breaker"; d; st ] ->
          if not (List.mem st breaker_states) then
            bad ("bad breaker state " ^ st);
          values := Slo.Breaker (d, st) :: !values
      | _ -> bad ("unexpected record: " ^ line))
    lines;
  let required what = function
    | Some v -> v
    | None -> raise (Malformed ("missing " ^ what ^ " line"))
  in
  {
    sn_peer = required "peer" !peer;
    sn_at_ms = required "at" !at;
    sn_health =
      { Slo.state = required "state" !state; reasons = List.rev !reasons;
        endpoints = List.rev !eps; values = List.rev !values };
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
  cv_state : Slo.state;  (* worst peer state *)
}

let merge ~at_ms snapshots =
  let peers =
    List.sort (fun a b -> compare a.sn_peer b.sn_peer) snapshots
  in
  let rows sn = sn.sn_health.Slo.endpoints in
  let total_rate =
    List.fold_left
      (fun acc sn ->
        List.fold_left
          (fun a (e : Slo.endpoint_health) -> a +. e.h_rate)
          acc (rows sn))
      0. peers
  in
  let reqs, errs =
    List.fold_left
      (fun acc sn ->
        List.fold_left
          (fun (r, e) (ep : Slo.endpoint_health) ->
            (r +. ep.h_reqs_1m, e +. (ep.h_err_rate *. ep.h_reqs_1m)))
          acc (rows sn))
      (0., 0.) peers
  in
  let hot =
    List.concat_map
      (fun sn ->
        List.map
          (fun (e : Slo.endpoint_health) -> (sn.sn_peer, e.h_endpoint, e.h_rate))
          (rows sn))
      peers
    |> List.filter (fun (_, _, r) -> r > 0.)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> fun l -> List.filteri (fun i _ -> i < 10) l
  in
  let versions =
    List.filter_map
      (fun sn -> Option.map (fun v -> (sn.sn_peer, v)) (shard_version sn))
      peers
  in
  let agree =
    match versions with
    | [] -> true
    | (_, v0) :: rest -> List.for_all (fun (_, v) -> v = v0) rest
  in
  {
    cv_at_ms = at_ms;
    cv_peers = peers;
    cv_total_rate = total_rate;
    cv_err_rate = (if reqs > 0. then errs /. reqs else 0.);
    cv_hot = hot;
    cv_shard_versions = versions;
    cv_shard_agree = agree;
    cv_state =
      List.fold_left
        (fun acc sn -> Slo.worse acc sn.sn_health.Slo.state)
        Slo.Ready peers;
  }

(* -- rendering ----------------------------------------------------- *)

let cluster_text cv =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "cluster: %s  peers %d  %.1f req/s  err %.2f%%\n"
       (Slo.state_label cv.cv_state) (List.length cv.cv_peers) cv.cv_total_rate
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
      let hz = sn.sn_health in
      let p99_max =
        List.fold_left
          (fun acc (e : Slo.endpoint_health) ->
            if Float.is_nan e.h_p99 then acc else Float.max acc e.h_p99)
          neg_infinity hz.Slo.endpoints
      in
      Buffer.add_string buf
        (Printf.sprintf "peer %-32s %-11s %s%s%s\n" sn.sn_peer
           (Slo.state_label hz.Slo.state)
           (if p99_max = neg_infinity then "p99 -"
            else Printf.sprintf "p99 %.1fms" p99_max)
           (match breakers sn with
           | [] -> ""
           | bs ->
               "  breakers "
               ^ String.concat ","
                   (List.map (fun (d, s) -> d ^ ":" ^ s) bs))
           (match hz.Slo.reasons with
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

let snapshot_json sn =
  let hz = sn.sn_health in
  Json.Obj
    [ ("peer", Json.Str sn.sn_peer); ("at_ms", Json.Num sn.sn_at_ms);
      ("state", Json.Str (Slo.state_label hz.Slo.state));
      ("reasons", Json.Arr (List.map (fun r -> Json.Str r) hz.Slo.reasons));
      ( "shard_version",
        Option.fold ~none:Json.Null ~some:(fun v -> Json.Int v)
          (shard_version sn) );
      ( "breakers",
        Json.Obj (List.map (fun (d, st) -> (d, Json.Str st)) (breakers sn)) );
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) (gauges sn)));
      ("endpoints", Json.Arr (List.map Slo.endpoint_json hz.Slo.endpoints)) ]

let cluster_json cv =
  Json.Obj
    [ ("at_ms", Json.Num cv.cv_at_ms);
      ("state", Json.Str (Slo.state_label cv.cv_state));
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
