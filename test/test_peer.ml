(* Tests for the peer engine: request handling, bulk calls, the function
   cache, queryID isolation (pin / expiry / late requests), the bulk
   hash-join optimizer, and the 2PC participant. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Isolation = Xrpc_peer.Isolation
module Lru = Xrpc_peer.Lru
module Filmdb = Xrpc_workloads.Filmdb
module Metrics = Xrpc_obs.Metrics
module Flight_recorder = Xrpc_obs.Flight_recorder

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* a standalone peer with a controllable clock *)
let make_peer ?clock () =
  let now = ref 0. in
  let clock = match clock with Some c -> c | None -> fun () -> !now in
  let peer = Peer.create ~clock "xrpc://y.example.org" in
  Filmdb.install peer ();
  (peer, now)

let film_request ?(actors = [ "Sean Connery" ]) ?query_id () =
  {
    Message.module_uri = "films";
    location = Filmdb.module_at;
    method_ = "filmsByActor";
    arity = 1;
    updating = false;
    fragments = false;
    query_id;
    idem_key = None;
    calls = List.map (fun a -> [ [ Xdm.str a ] ]) actors;
  }

let handle peer req =
  Message.of_string (Peer.handle_raw peer (Message.to_string (Message.Request req)))

(* [s] with its first [sub] replaced by [by] *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let expect_sender_fault peer what body =
  match Message.of_string (Peer.handle_raw peer body) with
  | Message.Fault { fault_code = `Sender; _ } -> ()
  | _ -> Alcotest.failf "expected a Sender fault for %s" what

let test_single_call () =
  let peer, _ = make_peer () in
  match handle peer (film_request ()) with
  | Message.Response r ->
      check int_ "one result" 1 (List.length r.Message.results);
      check string_ "films" "<name>The Rock</name> <name>Goldfinger</name>"
        (Xdm.to_display (List.hd r.Message.results));
      check bool_ "self in peers" true (List.mem peer.Peer.uri r.Message.peers)
  | _ -> Alcotest.fail "expected response"

let test_bulk_call () =
  let peer, _ = make_peer () in
  match handle peer (film_request ~actors:[ "Julie Andrews"; "Sean Connery"; "Gerard Depardieu" ] ()) with
  | Message.Response r ->
      check int_ "three results" 3 (List.length r.Message.results);
      let lengths = List.map List.length r.Message.results in
      check (Alcotest.list int_) "per-call results" [ 0; 2; 1 ] lengths
  | _ -> Alcotest.fail "expected response"

let test_unknown_module_fault () =
  let peer, _ = make_peer () in
  match handle peer { (film_request ()) with Message.module_uri = "nope" } with
  | Message.Fault f ->
      check bool_ "mentions module" true
        (String.length f.Message.reason > 0)
  | _ -> Alcotest.fail "expected fault"

let test_unknown_function_fault () =
  let peer, _ = make_peer () in
  match handle peer { (film_request ()) with Message.method_ = "noSuch" } with
  | Message.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_runtime_error_becomes_fault () =
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:"bad"
    {|module namespace b = "bad";
declare function b:boom() { error("XYZ: kaboom") };|};
  let req =
    {
      Message.module_uri = "bad";
      location = "";
      method_ = "boom";
      arity = 0;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = [ [] ];
    }
  in
  match handle peer req with
  | Message.Fault f ->
      check bool_ "reason propagated" true
        (String.length f.Message.reason >= 3 && String.sub f.Message.reason 0 3 = "XYZ")
  | _ -> Alcotest.fail "expected fault"

(* an untyped argument that does not cast to the parameter's type is a
   Sender fault, not a cast error out of the handler *)
let test_uncastable_argument_fault () =
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:Xrpc_workloads.Testmod.module_ns
    Xrpc_workloads.Testmod.test_module;
  let req =
    { (film_request ()) with
      Message.module_uri = Xrpc_workloads.Testmod.module_ns; location = "";
      method_ = "ping"; calls = [ [ [ Xdm.Atomic (Xs.Untyped "abc") ] ] ] }
  in
  match handle peer req with
  | Message.Fault { fault_code = `Sender; reason } ->
      check string_ "reason" {|FORG0001: cannot cast "abc" to xs:integer|}
        reason
  | _ -> Alcotest.fail "expected a Sender fault"

(* a failed cast or an arithmetic error in a local query is the dynamic
   error it is, with its W3C code first *)
let test_query_error_codes () =
  let peer, _ = make_peer () in
  List.iter
    (fun (q, code) ->
      match Peer.query peer q with
      | exception Xdm.Dynamic_error m ->
          if not (String.starts_with ~prefix:code m) then
            Alcotest.failf "%s: %S does not start with %s" q m code
      | exception e ->
          Alcotest.failf "%s: raised %s, not a dynamic error" q
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected an error" q)
    [ ({|xs:integer("abc")|}, "FORG0001"); ("1 idiv 0", "FOAR0001");
      ("5 mod 0", "FOAR0001"); ({|"a" + 1|}, "XPTY0004");
      ({|if (xs:date("2007-09-23")) then 1 else 0|}, "FORG0006") ]

(* the same codes reach a remote caller as the Sender Fault's reason *)
let test_served_error_code () =
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:"arith"
    {|module namespace a = "arith";
declare function a:div($x as xs:integer) as xs:integer { 1 idiv $x };|};
  let req =
    { (film_request ()) with
      Message.module_uri = "arith"; location = ""; method_ = "div";
      calls = [ [ [ Xdm.int 0 ] ] ] }
  in
  match handle peer req with
  | Message.Fault { fault_code = `Sender; reason } ->
      check bool_ ("FOAR0001 in " ^ reason) true
        (String.starts_with ~prefix:"FOAR0001: " reason)
  | _ -> Alcotest.fail "expected a Sender fault"

let test_malformed_message_fault () =
  let peer, _ = make_peer () in
  match Message.of_string (Peer.handle_raw peer "this is not xml") with
  | Message.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

(* a character reference that names no XML character, in a parameter's
   text or in an attribute value, is a malformed message: a Sender fault,
   not an exception escaping the handler *)
let test_bad_char_ref_fault () =
  let peer, _ = make_peer () in
  let body =
    Message.to_string
      (Message.Request (film_request ~actors:[ "ACTOR" ] ()))
  in
  List.iter
    (fun r ->
      List.iter (expect_sender_fault peer r)
        [ replace ~sub:"ACTOR" ~by:r body;
          replace ~sub:"method=\"filmsByActor\"" ~by:("method=\"" ^ r ^ "\"") body ])
    [ "&#-5;"; "&#-1;"; "&#+65;"; "&#0x41;"; "&#1_0;"; "&#0;"; "&#xD800;";
      "&#x110000;" ]

(* a non-integer queryID timeout or arity is a malformed message: a
   Sender fault, where it used to default to 30 s or arity 0 *)
let test_bad_integer_attr_fault () =
  let peer, _ = make_peer () in
  let qid =
    { Message.host = "xrpc://o"; timestamp = "1.0"; timeout = 10;
      level = Message.Repeatable }
  in
  let body =
    Message.to_string (Message.Request (film_request ~query_id:qid ()))
  in
  expect_sender_fault peer "timeout=ten"
    (replace ~sub:{|timeout="10"|} ~by:{|timeout="ten"|} body);
  expect_sender_fault peer "arity=x"
    (replace ~sub:{|arity="1"|} ~by:{|arity="x"|} body)

(* a million nested elements inside a parameter is a malformed message,
   refused at the parser's depth bound without holding the peer for the
   recursion it would take to read it *)
let test_deep_nesting_fault () =
  let peer, _ = make_peer () in
  let body =
    Message.to_string
      (Message.Request (film_request ~actors:[ "ACTOR" ] ()))
  in
  let deep = String.concat "" (List.init 1_000_000 (fun _ -> "<a>")) in
  let t0 = Unix.gettimeofday () in
  expect_sender_fault peer "1M nested elements"
    (replace ~sub:"ACTOR" ~by:deep body);
  let secs = Unix.gettimeofday () -. t0 in
  if secs > 1.0 then Alcotest.failf "rejection took %.2f s" secs

(* Each served request is recorded once: [peer.handle_ms] counts it
   exactly once, and its flight-recorder entry carries the very duration
   the histogram summed — for a normal reply, a Sender fault and an
   idempotency-cache replay alike. *)
let test_one_completion_record () =
  let peer, _ = make_peer () in
  let h = Metrics.histogram "peer.handle_ms" in
  let served what body =
    let n0 = h.Metrics.n and sum0 = h.Metrics.sum in
    ignore (Peer.handle_raw peer body);
    check int_ (what ^ ": counted once") (n0 + 1) h.Metrics.n;
    match Flight_recorder.recent () with
    | e :: _ ->
        check (Alcotest.float 1e-9) (what ^ ": one duration")
          (h.Metrics.sum -. sum0) e.Flight_recorder.duration_ms;
        e
    | [] -> Alcotest.failf "%s: no flight-recorder entry" what
  in
  let ok =
    served "normal" (Message.to_string (Message.Request (film_request ())))
  in
  check bool_ "normal: no error" true (ok.Flight_recorder.error = None);
  let fault = served "Sender fault" "this is not xml" in
  check bool_ "fault: error recorded" true
    (fault.Flight_recorder.error <> None);
  let idem =
    Message.to_string
      (Message.Request { (film_request ()) with Message.idem_key = Some "k1" })
  in
  ignore (served "first delivery" idem);
  let replay = served "idempotent replay" idem in
  check bool_ "replay: idem key recorded" true
    (replay.Flight_recorder.idem_key = Some "k1")

(* ---- function cache (§3.3) ---- *)

let func_stats peer = (Peer.cache_stats peer).Peer.func

let test_func_cache_hits () =
  let peer, _ = make_peer () in
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  check int_ "one miss" 1 (func_stats peer).Lru.misses;
  check int_ "two hits" 2 (func_stats peer).Lru.hits

let test_func_cache_disabled () =
  (* a disabled cache holds nothing, so each request compiles the module
     afresh, and it moves no counter *)
  let peer, _ = make_peer () in
  Lru.set_enabled peer.Peer.func_cache false;
  let answer what =
    match handle peer (film_request ()) with
    | Message.Response r ->
        check string_ what "<name>The Rock</name> <name>Goldfinger</name>"
          (Xdm.to_display (List.hd r.Message.results))
    | _ -> Alcotest.failf "%s: expected a response" what
  in
  answer "first compile answers";
  answer "second compile answers";
  let s = func_stats peer in
  check int_ "nothing cached for either compile" 0 s.Lru.size;
  check int_ "no counter moved" 0 (s.Lru.hits + s.Lru.misses)

let test_func_cache_compile_count () =
  (* what Table 2 charges 130 ms for: the miss delta over a timed run —
     one compilation cold, none once the module is cached *)
  let peer, _ = make_peer () in
  let compiles_in f =
    let m0 = (Peer.cache_stats peer).Peer.func_misses in
    f ();
    (Peer.cache_stats peer).Peer.func_misses - m0
  in
  let two () =
    ignore (handle peer (film_request ()));
    ignore (handle peer (film_request ()))
  in
  check int_ "cold run compiles once" 1 (compiles_in two);
  check int_ "warm run compiles nothing" 0 (compiles_in two)

let test_func_cache_invalidated_on_module_update () =
  let peer, _ = make_peer () in
  ignore (handle peer (film_request ()));
  Peer.register_module peer ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  ignore (handle peer (film_request ()));
  check int_ "recompiled" 2 (func_stats peer).Lru.misses

(* ---- isolation (§2.2) ---- *)

let qid ?(timeout = 10) ts =
  { Message.host = "xrpc://origin"; timestamp = ts; timeout; level = Message.Repeatable }

let test_repeatable_read_pins_snapshot () =
  let peer, _ = make_peer () in
  let q = qid "1.0" in
  (* first isolated request pins the snapshot *)
  (match handle peer (film_request ~query_id:q ()) with
  | Message.Response r ->
      check int_ "2 films before" 2 (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp");
  (* another transaction commits a new film *)
  let upd =
    {
      Message.module_uri = "films";
      location = Filmdb.module_at;
      method_ = "addFilm";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = [ [ [ Xdm.str "Dr. No" ]; [ Xdm.str "Sean Connery" ] ] ];
    }
  in
  (match handle peer upd with
  | Message.Response _ -> ()
  | _ -> Alcotest.fail "update failed");
  (* the isolated query still sees the old state; a fresh one sees 3 *)
  (match handle peer (film_request ~query_id:q ()) with
  | Message.Response r ->
      check int_ "repeatable read" 2 (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp");
  match handle peer (film_request ()) with
  | Message.Response r ->
      check int_ "fresh sees commit" 3 (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp"

let test_isolation_timeout_expiry () =
  let peer, now = make_peer () in
  let q = qid ~timeout:5 "2.0" in
  ignore (handle peer (film_request ~query_id:q ()));
  check int_ "pinned" 1 (Isolation.live_count peer.Peer.isolation);
  now := 6.0;
  (* resources freed after the timeout... *)
  check int_ "expired" 0 (Isolation.live_count peer.Peer.isolation);
  (* ...and late requests with the same queryID are rejected *)
  match handle peer (film_request ~query_id:q ()) with
  | Message.Fault f ->
      check bool_ "expired error" true
        (String.length f.Message.reason > 0)
  | _ -> Alcotest.fail "expected fault for expired queryID"

let test_isolation_distinct_queries_distinct_snapshots () =
  let peer, _ = make_peer () in
  let q1 = qid "3.0" and q2 = qid "4.0" in
  ignore (handle peer (film_request ~query_id:q1 ()));
  ignore (handle peer (film_request ~query_id:q2 ()));
  check int_ "two entries" 2 (Isolation.live_count peer.Peer.isolation)

let test_snapshot_isolation_pins_query_timestamp () =
  (* distributed snapshot isolation (§2.2, "Other Isolation Levels"): the
     peer pins the state as of the query's global timestamp, even when its
     first request arrives after later commits; repeatable read (pin at
     first contact) sees the newer state *)
  let peer, now = make_peer () in
  (* a query starts globally at t=1.0 ... *)
  let snap_qid =
    { Message.host = "xrpc://origin"; timestamp = "1.0"; timeout = 100;
      level = Message.Snapshot }
  in
  let repeat_qid =
    { Message.host = "xrpc://origin2"; timestamp = "1.0"; timeout = 100;
      level = Message.Repeatable }
  in
  (* ... at t=2.0 another transaction commits a film at this peer ... *)
  now := 2.0;
  ignore
    (handle peer
       {
         Message.module_uri = "films";
         location = Filmdb.module_at;
         method_ = "addFilm";
         arity = 2;
         updating = true;
         fragments = false;
         query_id = None;
         idem_key = None;
         calls = [ [ [ Xdm.str "Later" ]; [ Xdm.str "Sean Connery" ] ] ];
       });
  (* ... and at t=3.0 the queries' first requests arrive *)
  now := 3.0;
  (match handle peer (film_request ~query_id:snap_qid ()) with
  | Message.Response r ->
      check int_ "snapshot level sees t=1.0 state" 2
        (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp");
  match handle peer (film_request ~query_id:repeat_qid ()) with
  | Message.Response r ->
      check int_ "repeatable level sees first-contact state" 3
        (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp"

(* ---- deferred updates + 2PC participant (§2.3) ---- *)

let add_film_request ~query_id name =
  {
    Message.module_uri = "films";
    location = Filmdb.module_at;
    method_ = "addFilm";
    arity = 2;
    updating = true;
    fragments = false;
    query_id;
    idem_key = None;
    calls = [ [ [ Xdm.str name ]; [ Xdm.str "Sean Connery" ] ] ];
  }

let count_films peer =
  let v = Database.snapshot peer.Peer.db in
  let store = Database.doc_exn v "filmDB.xml" in
  List.length
    (List.filter
       (fun n -> Store.kind n = Store.Elem
                 && (match Store.name n with Some q -> q.Qname.local = "film" | None -> false))
       (Store.descendants (Store.root store)))

let tx peer op q =
  Message.of_string
    (Peer.handle_raw peer (Message.to_string (Message.Tx_request (op, q))))

let test_rfu_applies_immediately () =
  let peer, _ = make_peer () in
  (match handle peer (add_film_request ~query_id:None "Immediate") with
  | Message.Response r -> check int_ "no results for updating call" 0
                            (List.length r.Message.results)
  | _ -> Alcotest.fail "resp");
  check int_ "applied (R_Fu)" 4 (count_films peer)

let test_rfu_prime_defers_until_commit () =
  let peer, _ = make_peer () in
  let q = qid "5.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q) "Deferred"));
  check int_ "not applied yet (R'_Fu)" 3 (count_films peer);
  (match tx peer Message.Prepare q with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "prepare");
  check int_ "still not applied after prepare" 3 (count_films peer);
  (match tx peer Message.Commit q with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "commit");
  check int_ "applied at commit" 4 (count_films peer)

let test_rollback_discards () =
  let peer, _ = make_peer () in
  let q = qid "6.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q) "Doomed"));
  ignore (tx peer Message.Rollback q);
  check int_ "discarded" 3 (count_films peer);
  (* after rollback the queryID is spent *)
  match handle peer (film_request ~query_id:q ()) with
  | Message.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault after rollback"

let test_prepare_conflict_detection () =
  let peer, _ = make_peer () in
  let q1 = qid "7.0" and q2 = qid "8.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q1) "One"));
  ignore (handle peer (add_film_request ~query_id:(Some q2) "Two"));
  (match tx peer Message.Prepare q1 with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "first prepare should succeed");
  (match tx peer Message.Prepare q2 with
  | Message.Tx_response { ok = false; _ } -> ()
  | _ -> Alcotest.fail "conflicting prepare should be refused");
  ignore (tx peer Message.Commit q1);
  ignore (tx peer Message.Rollback q2);
  check int_ "only one applied" 4 (count_films peer)

(* first committer wins: documents committed to after a repeatable query
   pinned its snapshot make that query's Prepare vote no, naming the
   document, so the commits made since are kept *)
let test_prepare_refuses_changed_snapshot () =
  let peer, _ = make_peer () in
  let q = qid "10.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q) "Deferred"));
  List.iter
    (fun name ->
      match handle peer (add_film_request ~query_id:None name) with
      | Message.Response _ -> ()
      | _ -> Alcotest.fail "addFilm")
    [ "A"; "B"; "C" ];
  check int_ "three writes" 6 (count_films peer);
  (match tx peer Message.Prepare q with
  | Message.Tx_response { ok = false; info } ->
      check string_ "names the document"
        "document changed since the snapshot: filmDB.xml" info
  | _ -> Alcotest.fail "prepare must vote no");
  ignore (tx peer Message.Rollback q);
  check int_ "no write lost" 6 (count_films peer)

(* a Commit for an entry whose Prepare voted no applies nothing *)
let test_commit_after_no_vote () =
  let peer, _ = make_peer () in
  let q = qid "11.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q) "Deferred"));
  List.iter
    (fun name -> ignore (handle peer (add_film_request ~query_id:None name)))
    [ "A"; "B"; "C" ];
  (match tx peer Message.Prepare q with
  | Message.Tx_response { ok = false; _ } -> ()
  | _ -> Alcotest.fail "prepare must vote no");
  (match tx peer Message.Commit q with
  | Message.Tx_response { ok = false; info } ->
      check string_ "refused" "not prepared" info
  | _ -> Alcotest.fail "commit must be refused");
  check int_ "no write lost" 6 (count_films peer)

(* a served updating function whose pending update list cannot be applied
   answers a Sender fault, not an exception out of the handler *)
let test_update_error_fault () =
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:"wipe"
    {|module namespace w = "wipe";
declare updating function w:wipe() { delete nodes root(doc("filmDB.xml")) };|};
  let req =
    { (add_film_request ~query_id:None "") with
      Message.module_uri = "wipe"; location = ""; method_ = "wipe"; arity = 0;
      calls = [ [] ] }
  in
  (match handle peer req with
  | Message.Fault { fault_code = `Sender; reason } ->
      check string_ "reason" "cannot delete the document root" reason
  | _ -> Alcotest.fail "expected a Sender fault");
  check int_ "nothing applied" 3 (count_films peer)

let test_read_only_participant_votes_yes () =
  let peer, _ = make_peer () in
  match tx peer Message.Prepare (qid "9.0") with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "read-only prepare"

(* ---- the kept history: snapshot too old, pinned snapshots ---- *)

(* [k] R_Fu inserts, one per tick of the peer's clock: more than the 128
   versions the history once kept, so the oldest ones are gone *)
let add_films peer now k =
  for i = 1 to k do
    now := !now +. 1.;
    let film = Printf.sprintf "Film %d" i in
    match handle peer (add_film_request ~query_id:None film) with
    | Message.Response _ -> ()
    | _ -> Alcotest.fail "addFilm"
  done

let snapshot_qid ts =
  { Message.host = "xrpc://origin"; timestamp = ts; timeout = 1000;
    level = Message.Snapshot }

let has_film peer name =
  let store = Database.doc_exn (Database.snapshot peer.Peer.db) "filmDB.xml" in
  List.exists
    (fun n -> Store.string_value n = name)
    (Store.descendants_named (Store.root store) (Qname.make "name"))

(* a snapshot-level request older than the kept history is refused, not
   answered from a newer version *)
let test_snapshot_too_old () =
  let peer, now = make_peer () in
  add_films peer now 130;
  (match handle peer (film_request ~query_id:(snapshot_qid "0.5") ()) with
  | Message.Fault { fault_code = `Sender; reason } ->
      check string_ "reason" "snapshot too old: 0.5" reason
  | Message.Response _ -> Alcotest.fail "answered from a newer version"
  | _ -> Alcotest.fail "expected a Sender fault");
  (* a timestamp inside the kept history still pins its version *)
  match handle peer (film_request ~query_id:(snapshot_qid "129.5") ()) with
  | Message.Response r ->
      check int_ "the version committed at 129" (2 + 129)
        (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp"

(* a snapshot timestamp that is not a decimal number of seconds is a
   malformed message, not "now" *)
let test_snapshot_timestamp_not_a_number () =
  let peer, _ = make_peer () in
  List.iter
    (fun ts ->
      match handle peer (film_request ~query_id:(snapshot_qid ts) ()) with
      | Message.Fault { fault_code = `Sender; reason } ->
          check bool_ ("malformed: " ^ reason) true
            (String.starts_with ~prefix:"malformed message" reason)
      | _ -> Alcotest.failf "snapshot timestamp %S accepted" ts)
    [ "yesterday"; "2007-09-23T10:00:00Z"; "nan"; "inf"; "1e9"; "0x1F"; "";
      "1_0"; "." ];
  (* repeatable read only keys on its timestamp *)
  match handle peer (film_request ~query_id:(qid "2007-09-23T10:00:00Z") ()) with
  | Message.Response _ -> ()
  | _ -> Alcotest.fail "repeatable queryID refused"

(* a repeatable-read query holds its own version: commits past the
   history's bound do not take it away *)
let test_repeatable_outlives_history () =
  let peer, now = make_peer () in
  let q = qid ~timeout:1000 "1.0" in
  ignore (handle peer (film_request ~query_id:q ()));
  add_films peer now 130;
  check bool_ "history truncated" true peer.Peer.db.Database.truncated;
  match handle peer (film_request ~query_id:q ()) with
  | Message.Response r ->
      check int_ "still the first snapshot" 2
        (List.length (List.hd r.Message.results))
  | _ -> Alcotest.fail "resp"

(* a prepared ∆ still commits after its snapshot left the history *)
let test_prepared_commits_after_eviction () =
  let peer, now = make_peer () in
  let q = qid ~timeout:1000 "1.0" in
  ignore (handle peer (add_film_request ~query_id:(Some q) "Prepared"));
  (match tx peer Message.Prepare q with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "prepare");
  add_films peer now 130;
  check bool_ "history truncated" true peer.Peer.db.Database.truncated;
  (match tx peer Message.Commit q with
  | Message.Tx_response { ok = true; _ } -> ()
  | _ -> Alcotest.fail "commit");
  check bool_ "the prepared film is in" true (has_film peer "Prepared")

(* ---- bulk hash join (§1 set-orientation / §4 Saxon) ---- *)

let test_bulk_hash_join_used_and_correct () =
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:Xrpc_workloads.Xmark.functions_ns
    ~location:Xrpc_workloads.Xmark.functions_at
    Xrpc_workloads.Xmark.functions_module;
  Database.add_doc_xml peer.Peer.db "persons.xml"
    (Xrpc_workloads.Xmark.persons ~count:20 ());
  let req ids =
    {
      Message.module_uri = Xrpc_workloads.Xmark.functions_ns;
      location = Xrpc_workloads.Xmark.functions_at;
      method_ = "getPerson";
      arity = 2;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls =
        List.map
          (fun i ->
            [ [ Xdm.str "persons.xml" ];
              [ Xdm.str (Printf.sprintf "person%d" i) ] ])
          ids;
    }
  in
  match handle peer (req [ 3; 7; 99; 0 ]) with
  | Message.Response r ->
      let sizes = List.map List.length r.Message.results in
      check (Alcotest.list int_) "hits and misses" [ 1; 1; 0; 1 ] sizes;
      (* result contents match the single-call (non-joined) plan *)
      (match (handle peer (req [ 7 ]), r.Message.results) with
      | Message.Response single, _ :: bulk7 :: _ ->
          check bool_ "join plan = scan plan" true
            (Xdm.deep_equal (List.hd single.Message.results) bulk7)
      | _ -> Alcotest.fail "single call")
  | _ -> Alcotest.fail "resp"

(* Q_B3, the remote selection of the Table 4 semi-join, keeps its
   one-scan hash join now that [//closed_auction[...]] parses as one
   descendant step: the recognizer still matches its body, and a 50-call
   bulk request answers call by call exactly like 50 single calls. *)
let test_q_b3_hash_join () =
  let q =
    {
      Xrpc_core.Strategies.local_doc = "persons.xml";
      remote_uri = "xrpc://y.example.org";
      remote_doc = "auctions.xml";
      module_ns = "b";
      module_at = "http://example.org/b.xq";
    }
  in
  let src = Xrpc_core.Strategies.functions_b q in
  let f =
    List.find_map
      (function
        | Xrpc_xquery.Ast.P_function f
          when f.Xrpc_xquery.Ast.fn_name.Qname.local = "Q_B3" ->
            Some f
        | _ -> None)
      (Xrpc_xquery.Parser.parse_prog src).Xrpc_xquery.Ast.prolog
    |> Option.get
  in
  (match
     Xrpc_peer.Bulk_opt.selection_pattern
       (List.map fst f.Xrpc_xquery.Ast.fn_params)
       (Option.get f.Xrpc_xquery.Ast.fn_body)
   with
  | Some (Xrpc_xquery.Ast.Path (_, Xrpc_xquery.Ast.Step (axis, _, [])), _, _)
    ->
      check bool_ "one descendant step" true
        (axis = Xrpc_xquery.Ast.Descendant)
  | _ -> Alcotest.fail "Q_B3 is not recognized as a selection");
  let peer, _ = make_peer () in
  Peer.register_module peer ~uri:q.module_ns ~location:q.module_at src;
  Database.add_doc_xml peer.Peer.db q.remote_doc
    (Xrpc_workloads.Xmark.auctions ~count:200 ~matches:6 ~persons_count:50 ());
  let req ids =
    {
      Message.module_uri = q.module_ns;
      location = q.module_at;
      method_ = "Q_B3";
      arity = 1;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls =
        List.map (fun i -> [ [ Xdm.str (Printf.sprintf "person%d" i) ] ]) ids;
    }
  in
  let results = function
    | Message.Response r -> r.Message.results
    | _ -> Alcotest.fail "expected a response"
  in
  let ids = List.init 50 Fun.id in
  let bulk = results (handle peer (req ids)) in
  let singles =
    List.map (fun i -> List.hd (results (handle peer (req [ i ])))) ids
  in
  check int_ "one answer per call" 50 (List.length bulk);
  check int_ "six matches" 6
    (List.length (List.filter (fun r -> r <> []) bulk));
  check bool_ "bulk = singles" true (List.for_all2 Xdm.deep_equal bulk singles)

(* a bulk request to a join-shaped function whose calls carry the wrong
   number of parameters is a Sender fault, not an exception out of the
   join planner *)
let test_bulk_wrong_parameter_count () =
  let peer, _ = make_peer () in
  let req = film_request ~actors:[ "Julie Andrews"; "Sean Connery" ] () in
  match
    handle peer
      { req with
        Message.calls = req.Message.calls @ [ [ [ Xdm.str "a" ]; [ Xdm.str "b" ] ] ] }
  with
  | Message.Fault { fault_code = `Sender; reason } ->
      check string_ "reason" "call has 2 parameters, expected 1" reason
  | _ -> Alcotest.fail "expected a Sender fault"

(* ---- Bulk RPC answers what N single calls answer ---- *)

let sel_xml = {|<r><a n="x">1</a><a n="y">2</a><a n="x">3</a><a n="z"/></r>|}

(* a peer holding sel.xml and a one-function module [uri] *)
let sel_peer ~uri decl =
  let peer = Peer.create "xrpc://bulk.example.org" in
  Database.add_doc_xml peer.Peer.db "sel.xml" sel_xml;
  Peer.register_module peer ~uri
    (Printf.sprintf "module namespace s = %S;\n%s;" uri decl);
  peer

let sel_request ~uri calls =
  {
    Message.module_uri = uri;
    location = "";
    method_ = "f";
    arity = (match calls with c :: _ -> List.length c | [] -> 1);
    updating = false;
    fragments = false;
    query_id = None;
    idem_key = None;
    calls;
  }

(* [calls] as one Bulk RPC and as one request each: [Ok] when the bulk
   reply is the single Responses, or a Fault where a single call faults *)
let bulk_vs_singles peer ~uri calls =
  let bulk = handle peer (sel_request ~uri calls) in
  let singles = List.map (fun c -> handle peer (sel_request ~uri [ c ])) calls in
  let show = function
    | Message.Response r ->
        String.concat " | " (List.map Xdm.to_display r.Message.results)
    | Message.Fault f -> "fault: " ^ f.Message.reason
    | _ -> "not a response"
  in
  let faults = List.filter (function Message.Fault _ -> true | _ -> false) singles in
  let ok =
    match (bulk, faults) with
    | Message.Fault _, _ :: _ -> true
    | Message.Response b, [] ->
        List.length b.Message.results = List.length singles
        && List.for_all2
             (fun r s ->
               match s with
               | Message.Response { results = [ s ]; _ } -> Xdm.deep_equal r s
               | _ -> false)
             b.Message.results singles
    | _ -> false
  in
  if ok then Ok bulk
  else
    Error
      (Printf.sprintf "bulk: %s\nsingles: %s" (show bulk)
         (String.concat "; " (List.map show singles)))

let expect_agree peer ~uri calls =
  match bulk_vs_singles peer ~uri calls with
  | Ok bulk -> bulk
  | Error m -> Alcotest.fail m

(* a two-item key probes each item: the single call's answer, not [] *)
let test_bulk_multi_item_key () =
  let uri = "sel-multi" in
  let peer = sel_peer ~uri "declare function s:f($k) { doc(\"sel.xml\")//a[@n = $k] }" in
  match
    expect_agree peer ~uri
      [ [ [ Xdm.str "x"; Xdm.str "y" ] ]; [ [ Xdm.str "z" ] ] ]
  with
  | Message.Response { results = [ xy; z ]; _ } ->
      check int_ "x and y match three" 3 (List.length xy);
      check int_ "z matches one" 1 (List.length z)
  | _ -> Alcotest.fail "expected two results"

(* an xs:integer key casts the untyped @n to a double: "x" faults *)
let test_bulk_integer_key () =
  let uri = "sel-int" in
  let peer = sel_peer ~uri "declare function s:f($k) { doc(\"sel.xml\")//a[@n = $k] }" in
  match expect_agree peer ~uri [ [ [ Xdm.int 5 ] ]; [ [ Xdm.str "x" ] ] ] with
  | Message.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

(* zero-or-one over two matches faults, as the single call does *)
let test_bulk_wrapper_checked () =
  let uri = "sel-one" in
  let peer =
    sel_peer ~uri
      "declare function s:f($k) { zero-or-one(doc(\"sel.xml\")//a[@n = $k]) }"
  in
  match expect_agree peer ~uri [ [ [ Xdm.str "x" ] ]; [ [ Xdm.str "y" ] ] ] with
  | Message.Fault { reason; _ } ->
      check string_ "FORG0003" "FORG0003" (String.sub reason 0 8)
  | _ -> Alcotest.fail "expected a fault"

(* Seeded bulk-vs-singles differential: random documents, selection
   functions (key paths, wrappers, parameter and return types, a second
   parameter) and keys of every kind.  Case i runs from seed
   BULK_SEED + i; with BULK_SEED set only that case runs.  QCHECK_LONG
   (the @fuzz alias) runs ten times the cases. *)
let bulk_cases =
  if Sys.getenv_opt "QCHECK_LONG" <> None then 10_000 else 1000

let bulk_case seed =
  let rs = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let values = [| "x"; "y"; "z"; "1"; "2.0"; "true"; "" |] in
  let attr name =
    if Random.State.int rs 3 = 0 then ""
    else Printf.sprintf " %s=%S" name (pick values)
  in
  let rec elem depth =
    let kids =
      if depth >= 3 then ""
      else
        String.concat ""
          (List.init (Random.State.int rs 3) (fun _ ->
               if Random.State.bool rs then
                 Printf.sprintf "<c%s%s/>" (attr "n") (attr "p:n")
               else elem (depth + 1)))
    in
    Printf.sprintf "<a%s%s>%s</a>" (attr "n") (attr "p:n") kids
  in
  let xml =
    Printf.sprintf "<r xmlns:p=\"urn:p\">%s</r>"
      (String.concat "" (List.init (1 + Random.State.int rs 4) (fun _ -> elem 0)))
  in
  let key = pick [| "@n"; "c/@n"; "./c/@n"; "c/c/@n"; "@p:n" |] in
  let step =
    pick [| "//a"; "/descendant-or-self::a"; "/r/descendant::a"; "//c" |]
  in
  let two = Random.State.int rs 4 = 0 in
  let pred =
    if Random.State.bool rs then Printf.sprintf "%s = $k" key
    else Printf.sprintf "$k = %s" key
  in
  let body =
    Printf.sprintf "doc(%s)%s[%s]" (if two then "$d" else "\"sel.xml\"") step pred
  in
  (* a quarter of the cases may fault: casting keys, wrappers, types *)
  let hostile = Random.State.int rs 4 = 0 in
  let body =
    match Random.State.int rs (if hostile then 4 else 20) with
    | 0 -> Printf.sprintf "zero-or-one(%s)" body
    | 1 -> Printf.sprintf "exactly-one(%s)" body
    | 2 -> Printf.sprintf "one-or-more(%s)" body
    | _ -> body
  in
  let ptype =
    pick
      (if hostile then [| ""; " as xs:string"; " as xs:integer" |]
       else [| ""; " as xs:string"; " as xs:string*" |])
  in
  let rtype =
    pick
      (if hostile then [| ""; " as element()?"; " as element(a)+" |]
       else [| ""; " as node()*" |])
  in
  let decl =
    Printf.sprintf
      "declare namespace p = \"urn:p\";\n\
       declare function s:f(%s$k%s)%s { %s }"
      (if two then "$d as xs:string, " else "")
      ptype rtype body
  in
  let item () =
    match Random.State.int rs (if hostile then 8 else 5) with
    | 0 ->
        Xdm.Node
          (Store.root
             (Store.shred (Xml_parse.document ("<v>" ^ pick values ^ "</v>"))))
    | 1 -> Xdm.Atomic (Xs.Untyped (pick values))
    | 5 -> Xdm.int (Random.State.int rs 3)
    | 6 -> Xdm.Atomic (Xs.Double 2.0)
    | 7 -> Xdm.bool true
    | _ -> Xdm.str (pick values)
  in
  (* a parameter declared with one item gets one but now and then *)
  let one = ptype = " as xs:string" || ptype = " as xs:integer" in
  let key_value () =
    match Random.State.int rs (if one then 40 else 6) with
    | 0 -> []
    | 1 -> [ item (); item () ]
    | 2 -> [ Xdm.str "x"; Xdm.str "x" ]
    | _ -> [ item () ]
  in
  let calls =
    List.init (2 + Random.State.int rs 4) (fun _ ->
        let d =
          if hostile && Random.State.bool rs then "other.xml" else "sel.xml"
        in
        (if two then [ [ Xdm.str d ] ] else []) @ [ key_value () ])
  in
  (xml, decl, calls)

let test_bulk_differential () =
  let seeds =
    match Option.bind (Sys.getenv_opt "BULK_SEED") int_of_string_opt with
    | Some s -> [ s ]
    | None -> List.init bulk_cases (fun i -> 7000 + i)
  in
  let faults = ref 0 in
  List.iter
    (fun seed ->
      let xml, decl, calls = bulk_case seed in
      let uri = Printf.sprintf "sel%d" seed in
      let peer = Peer.create "xrpc://bulk.example.org" in
      Database.add_doc_xml peer.Peer.db "sel.xml" xml;
      Database.add_doc_xml peer.Peer.db "other.xml" xml;
      Peer.register_module peer ~uri
        (Printf.sprintf "module namespace s = %S;\n%s;" uri decl);
      match bulk_vs_singles peer ~uri calls with
      | Ok (Message.Fault _) -> incr faults
      | Ok _ -> ()
      | Error m ->
          Alcotest.failf "%s\n%s\nreplay with: BULK_SEED=%d dune exec \
                          test/test_peer.exe -- test bulk-optimization"
            decl m seed)
    seeds;
  Printf.printf "%d of %d cases fault\n" !faults (List.length seeds)

let test_get_document_internal () =
  let peer, _ = make_peer () in
  let req =
    {
      Message.module_uri = Qname.ns_xrpc;
      location = "";
      method_ = "getDocument";
      arity = 1;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = [ [ [ Xdm.str "filmDB.xml" ] ] ];
    }
  in
  match handle peer req with
  | Message.Response { results = [ [ Xdm.Node n ] ]; _ } ->
      check bool_ "document node" true (Store.kind n = Store.Doc)
  | _ -> Alcotest.fail "expected document"

(* ------------------------------------------------------------------ *)
(* fn:doc of a missing document: err:FODC0002 on every path            *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let missing_module =
  {|module namespace m = "missing";
declare function m:count() { count(doc("missing.xml")//a) };|}

(* a served call of [m:count] fails as a typed Sender fault naming the
   error code and the URI *)
let expect_missing_fault what call =
  match call () with
  | r -> Alcotest.failf "%s: answered %s" what (Xdm.to_display r)
  | exception
      Xrpc_net.Xrpc_error.Error { kind = Xrpc_net.Xrpc_error.Fault `Sender; info; _ }
    ->
      check bool_ (what ^ ": error code") true (contains info "err:FODC0002");
      check bool_ (what ^ ": uri") true (contains info "missing.xml")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_missing_doc_shell () =
  let shell =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/xrpc_shell.exe"
  in
  let dir = Filename.temp_dir "xrpc-missing" "" in
  Out_channel.with_open_bin (Filename.concat dir "d.xml") (fun oc ->
      output_string oc "<doc><a>1</a></doc>");
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  Fun.protect ~finally:(fun () ->
      List.iter Sys.remove [ Filename.concat dir "d.xml"; out; err ];
      Sys.rmdir dir)
  @@ fun () ->
  let status =
    Sys.command
      (Printf.sprintf "echo %s | %s --data %s > %s 2> %s"
         (Filename.quote {|count(doc("missing.xml")//a)|})
         (Filename.quote shell) (Filename.quote dir) (Filename.quote out)
         (Filename.quote err))
  in
  let stderr = read_file err in
  check int_ "shell exits normally" 0 status;
  check bool_ "error line names the code" true
    (contains stderr "error: err:FODC0002");
  check bool_ "error line names the uri" true (contains stderr "missing.xml");
  check string_ "no result printed" "" (read_file out)

let test_missing_doc_http () =
  let module Server = Xrpc_core.Xrpc_server in
  let module Client = Xrpc_core.Xrpc_client in
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"missing" missing_module;
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  expect_missing_fault "over HTTP" (fun () ->
      Client.call (Client.connect_http ())
        ~dest:(Printf.sprintf "xrpc://127.0.0.1:%d" port)
        ~module_uri:"missing" ~fn:"count" [])

let test_missing_doc_simnet () =
  let module Cluster = Xrpc_core.Cluster in
  let cluster = Cluster.create ~names:[ "x"; "y" ] () in
  Cluster.register_module_everywhere cluster ~uri:"missing" missing_module;
  expect_missing_fault "over Simnet" (fun () ->
      Xrpc_core.Xrpc_client.call (Cluster.client cluster) ~dest:"xrpc://y"
        ~module_uri:"missing" ~fn:"count" [])

let () =
  Alcotest.run "peer"
    [
      ( "requests",
        [
          Alcotest.test_case "single call" `Quick test_single_call;
          Alcotest.test_case "bulk call" `Quick test_bulk_call;
          Alcotest.test_case "unknown module" `Quick test_unknown_module_fault;
          Alcotest.test_case "unknown function" `Quick test_unknown_function_fault;
          Alcotest.test_case "runtime error fault" `Quick
            test_runtime_error_becomes_fault;
          Alcotest.test_case "malformed message" `Quick test_malformed_message_fault;
          Alcotest.test_case "uncastable argument" `Quick
            test_uncastable_argument_fault;
          Alcotest.test_case "local query errors carry their code" `Quick
            test_query_error_codes;
          Alcotest.test_case "served error carries its code" `Quick
            test_served_error_code;
          Alcotest.test_case "bad character reference" `Quick
            test_bad_char_ref_fault;
          Alcotest.test_case "getDocument" `Quick test_get_document_internal;
          Alcotest.test_case "non-integer timeout or arity" `Quick
            test_bad_integer_attr_fault;
          Alcotest.test_case "nesting past the depth bound" `Quick
            test_deep_nesting_fault;
          Alcotest.test_case "one completion record per request" `Quick
            test_one_completion_record;
        ] );
      ( "function-cache",
        [
          Alcotest.test_case "hits" `Quick test_func_cache_hits;
          Alcotest.test_case "disabled" `Quick test_func_cache_disabled;
          Alcotest.test_case "compile count" `Quick test_func_cache_compile_count;
          Alcotest.test_case "invalidation" `Quick
            test_func_cache_invalidated_on_module_update;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "repeatable read" `Quick
            test_repeatable_read_pins_snapshot;
          Alcotest.test_case "timeout expiry" `Quick test_isolation_timeout_expiry;
          Alcotest.test_case "distinct snapshots" `Quick
            test_isolation_distinct_queries_distinct_snapshots;
          Alcotest.test_case "distributed snapshot isolation" `Quick
            test_snapshot_isolation_pins_query_timestamp;
        ] );
      ( "updates-2pc",
        [
          Alcotest.test_case "R_Fu immediate" `Quick test_rfu_applies_immediately;
          Alcotest.test_case "R'_Fu deferred" `Quick
            test_rfu_prime_defers_until_commit;
          Alcotest.test_case "rollback" `Quick test_rollback_discards;
          Alcotest.test_case "prepare conflict" `Quick
            test_prepare_conflict_detection;
          Alcotest.test_case "read-only participant" `Quick
            test_read_only_participant_votes_yes;
          Alcotest.test_case "prepare after a newer commit votes no" `Quick
            test_prepare_refuses_changed_snapshot;
          Alcotest.test_case "unappliable update is a Sender fault" `Quick
            test_update_error_fault;
          Alcotest.test_case "commit after a no vote applies nothing" `Quick
            test_commit_after_no_vote;
        ] );
      ( "history",
        [
          Alcotest.test_case "snapshot too old" `Quick test_snapshot_too_old;
          Alcotest.test_case "snapshot timestamp not a number" `Quick
            test_snapshot_timestamp_not_a_number;
          Alcotest.test_case "repeatable read outlives the history" `Quick
            test_repeatable_outlives_history;
          Alcotest.test_case "prepared commit after eviction" `Quick
            test_prepared_commits_after_eviction;
        ] );
      ( "missing-document",
        [
          Alcotest.test_case "shell prints an error line" `Quick
            test_missing_doc_shell;
          Alcotest.test_case "HTTP call gets a Sender fault" `Quick
            test_missing_doc_http;
          Alcotest.test_case "Simnet call gets a Sender fault" `Quick
            test_missing_doc_simnet;
        ] );
      ( "bulk-optimization",
        [
          Alcotest.test_case "hash join" `Quick test_bulk_hash_join_used_and_correct;
          Alcotest.test_case "Q_B3 stays a hash join" `Quick test_q_b3_hash_join;
          Alcotest.test_case "wrong parameter count is a Sender fault" `Quick
            test_bulk_wrong_parameter_count;
          Alcotest.test_case "two-item key probes each item" `Quick
            test_bulk_multi_item_key;
          Alcotest.test_case "integer key faults like a single call" `Quick
            test_bulk_integer_key;
          Alcotest.test_case "stripped wrapper still checked" `Quick
            test_bulk_wrapper_checked;
          Alcotest.test_case
            (Printf.sprintf "%d seeded bulk vs singles" bulk_cases)
            `Quick test_bulk_differential;
        ] );
    ]
