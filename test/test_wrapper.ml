(* Tests for the §4 XRPC wrapper: Figure-3 query generation, pure-XQuery
   n2s/s2n marshaling, bulk requests through the wrapper, per-request
   timing breakdown, join detection, and interop with a native peer. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Wrapper = Xrpc_peer.Wrapper
module Database = Xrpc_peer.Database
module Xmark = Xrpc_workloads.Xmark

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let make_wrapper ?(join_detect = false) () =
  let w = Wrapper.create ~join_detect "xrpc://saxon.example.org" in
  Wrapper.register_module w ~uri:Xmark.functions_ns
    ~location:Xmark.functions_at Xmark.functions_module;
  Database.add_doc_xml w.Wrapper.db "persons.xml" (Xmark.persons ~count:25 ());
  w

let get_person_request ids =
  {
    Message.module_uri = Xmark.functions_ns;
    location = Xmark.functions_at;
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

let handle w req =
  Message.of_string (Wrapper.handle_raw w (Message.to_string (Message.Request req)))

let test_generated_query_shape () =
  let q =
    Wrapper.generate_query ~module_uri:"functions"
      ~location:"http://example.org/functions.xq" ~method_:"getPerson" ~arity:2
      ~request_doc:"/tmp/request1.xml"
  in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length q && (String.sub q i n = sub || go (i + 1)) in
    go 0
  in
  (* Figure 3's structure *)
  check bool_ "imports function module" true
    (contains {|import module namespace func = "functions"|});
  check bool_ "iterates calls" true (contains "for $call in doc");
  check bool_ "param1" true (contains "w:n2s($call/xrpc:sequence[1])");
  check bool_ "param2" true (contains "w:n2s($call/xrpc:sequence[2])");
  check bool_ "marshals result" true
    (contains "return w:s2n(func:getPerson($param1, $param2))");
  check bool_ "response element" true (contains "<xrpc:response");
  (* it must also be valid XQuery *)
  ignore (Xrpc_xquery.Parser.parse_prog q)

let test_wrapper_answers_single_call () =
  let w = make_wrapper () in
  match handle w (get_person_request [ 7 ]) with
  | Message.Response r -> (
      check int_ "one result" 1 (List.length r.Message.results);
      match r.Message.results with
      | [ [ Xdm.Node n ] ] ->
          check bool_ "person element" true
            (match Store.name n with
            | Some q -> q.Qname.local = "person"
            | None -> false);
          let a = Store.attributes n in
          check string_ "right person" "person7"
            (Store.string_value (List.hd a))
      | _ -> Alcotest.fail "result shape")
  | Message.Fault f -> Alcotest.fail f.Message.reason
  | _ -> Alcotest.fail "kind"

let test_wrapper_bulk_call () =
  let w = make_wrapper () in
  match handle w (get_person_request [ 1; 99; 3 ]) with
  | Message.Response r ->
      check (Alcotest.list int_) "hit,miss,hit" [ 1; 0; 1 ]
        (List.map List.length r.Message.results)
  | Message.Fault f -> Alcotest.fail f.Message.reason
  | _ -> Alcotest.fail "kind"

let test_wrapper_atomic_results () =
  let w = make_wrapper () in
  Wrapper.register_module w ~uri:"test" ~location:"t.xq"
    Xrpc_workloads.Testmod.test_module;
  let req =
    {
      Message.module_uri = "test";
      location = "t.xq";
      method_ = "ping";
      arity = 1;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = [ [ [ Xdm.int 5 ] ]; [ [ Xdm.int 7 ] ] ];
    }
  in
  match handle w req with
  | Message.Response r ->
      (* n2s in pure XQuery must reconstruct xs:integer, and s2n must
         annotate it back *)
      check bool_ "integers preserved" true
        (List.map (fun s -> List.map Xdm.atomize_item s) r.Message.results
         = [ [ Xs.Integer 5 ]; [ Xs.Integer 7 ] ])
  | Message.Fault f -> Alcotest.fail f.Message.reason
  | _ -> Alcotest.fail "kind"

let test_wrapper_echo_void () =
  let w = make_wrapper () in
  Wrapper.register_module w ~uri:"test" ~location:"t.xq"
    Xrpc_workloads.Testmod.test_module;
  let req =
    {
      Message.module_uri = "test";
      location = "t.xq";
      method_ = "echoVoid";
      arity = 0;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      calls = List.init 10 (fun _ -> []);
    }
  in
  match handle w req with
  | Message.Response r ->
      check int_ "ten empty results" 10 (List.length r.Message.results);
      check bool_ "all empty" true (List.for_all (( = ) []) r.Message.results)
  | Message.Fault f -> Alcotest.fail f.Message.reason
  | _ -> Alcotest.fail "kind"

(* Table 3's columns are the wrapper's spans: one each per request *)
let test_wrapper_timings_recorded () =
  let w = make_wrapper () in
  let _, p =
    Xrpc_obs.Profile.profiled (fun () -> handle w (get_person_request [ 1 ]))
  in
  List.iter
    (fun phase ->
      match
        List.filter
          (fun (n : Xrpc_obs.Profile.node) -> n.Xrpc_obs.Profile.name = phase)
          (Xrpc_obs.Profile.nodes p)
      with
      | [ n ] -> check bool_ (phase ^ " > 0") true (n.Xrpc_obs.Profile.incl_ms > 0.)
      | ns -> Alcotest.failf "%d %s spans" (List.length ns) phase)
    [ "wrapper.treebuild"; "wrapper.compile"; "wrapper.exec" ]

let test_wrapper_fault_on_unknown_module () =
  let w = make_wrapper () in
  match handle w { (get_person_request [ 1 ]) with Message.module_uri = "zzz";
                   location = "zzz.xq" } with
  | Message.Fault f ->
      check bool_ "could not load module" true (String.length f.Message.reason > 0)
  | _ -> Alcotest.fail "expected fault"

(* [s] with its first [sub] replaced by [by] *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let expect_malformed what reply =
  match Message.of_string reply with
  | Message.Fault { fault_code = `Sender; reason } ->
      check bool_ (what ^ ": " ^ reason) true
        (String.starts_with ~prefix:"malformed message" reason)
  | _ -> Alcotest.failf "%s: expected a Sender fault" what

(* an arity that is not a number is a malformed message, not a Failure
   out of the handler *)
let test_wrapper_bad_arity () =
  let w = make_wrapper () in
  let body = Message.to_string (Message.Request (get_person_request [ 1 ])) in
  expect_malformed "arity=x"
    (Wrapper.handle_raw w (replace ~sub:{|arity="2"|} ~by:{|arity="x"|} body))

(* a getDocument parameter typed xs:integer whose text is not one is a
   malformed message, not a Protocol_error out of the handler *)
let test_wrapper_bad_get_document_integer () =
  let w = make_wrapper () in
  let body =
    Message.to_string
      (Message.Request
         { (get_person_request []) with
           Message.module_uri = Qname.ns_xrpc; location = "";
           method_ = "getDocument"; arity = 1;
           calls = [ [ [ Xdm.int 12345 ] ] ] })
  in
  expect_malformed "xs:integer abc"
    (Wrapper.handle_raw w (replace ~sub:">12345<" ~by:">abc<" body))

(* the wrapper serves behind the shared inbound path: a keyed request is
   executed once and replayed from the idempotency cache, and every
   request leaves a flight-recorder entry *)
let test_wrapper_shared_path () =
  let w = make_wrapper () in
  let idem = Xrpc_peer.Inbound.idem_cache w.Wrapper.inbound in
  let req = { (get_person_request [ 3 ]) with Message.idem_key = Some "k1" } in
  let first = Wrapper.handle_raw w (Message.to_string (Message.Request req)) in
  let replay = Wrapper.handle_raw w (Message.to_string (Message.Request req)) in
  check string_ "replay answers the same bytes" first replay;
  check int_ "one hit" 1 (Xrpc_peer.Lru.stats idem).Xrpc_peer.Lru.hits;
  match Xrpc_obs.Flight_recorder.recent () with
  | e :: _ ->
      check string_ "recorded" "functions:getPerson#2 (1 call)"
        e.Xrpc_obs.Flight_recorder.label;
      check bool_ "with its key" true
        (e.Xrpc_obs.Flight_recorder.idem_key = Some "k1")
  | [] -> Alcotest.fail "no flight-recorder entry"

let test_join_detection_equivalence () =
  (* with and without join detection, bulk getPerson answers agree *)
  let w1 = make_wrapper ~join_detect:false () in
  let w2 = make_wrapper ~join_detect:true () in
  let ids = [ 0; 5; 10; 99; 5; 23 ] in
  match (handle w1 (get_person_request ids), handle w2 (get_person_request ids)) with
  | Message.Response a, Message.Response b ->
      check bool_ "same answers" true
        (List.for_all2 Xdm.deep_equal a.Message.results b.Message.results)
  | _ -> Alcotest.fail "kind"

let test_join_detection_faster_shape () =
  (* the join plan evaluates the selection once, so exec time should not
     grow linearly with the number of calls; we assert the weaker, robust
     property that it handles a large bulk correctly *)
  let w = make_wrapper ~join_detect:true () in
  let ids = List.init 200 (fun i -> i mod 30) in
  match handle w (get_person_request ids) with
  | Message.Response r ->
      check int_ "200 results" 200 (List.length r.Message.results);
      check bool_ "all ids under 25 hit" true
        (List.for_all2
           (fun i res -> if i < 25 then List.length res = 1 else res = [])
           ids r.Message.results)
  | Message.Fault f -> Alcotest.fail f.Message.reason
  | _ -> Alcotest.fail "kind"

let test_selection_pattern_recognizer () =
  let parse_fn src =
    let prog = Xrpc_xquery.Parser.parse_prog src in
    List.find_map
      (function Xrpc_xquery.Ast.P_function f -> Some f | _ -> None)
      prog.Xrpc_xquery.Ast.prolog
    |> Option.get
  in
  let f =
    parse_fn
      {|module namespace m = "m";
declare function m:sel($d as xs:string, $k as xs:string) as node()*
{ doc($d)//person[@id = $k] };|}
  in
  let params = List.map fst f.Xrpc_xquery.Ast.fn_params in
  check bool_ "selection recognized" true
    (Xrpc_peer.Bulk_opt.selection_pattern params
       (Option.get f.Xrpc_xquery.Ast.fn_body)
     <> None);
  let g =
    parse_fn
      {|module namespace m = "m";
declare function m:notsel($d as xs:string) as node()*
{ doc($d)//person };|}
  in
  let gparams = List.map fst g.Xrpc_xquery.Ast.fn_params in
  check bool_ "non-selection rejected" true
    (Xrpc_peer.Bulk_opt.selection_pattern gparams
       (Option.get g.Xrpc_xquery.Ast.fn_body)
     = None)

(* interop: a native peer calls into the wrapper over the simulated net *)
let test_native_peer_calls_wrapper () =
  let cluster = Xrpc_core.Cluster.create ~names:[ "mdb" ] () in
  let mdb = Xrpc_core.Cluster.peer cluster "mdb" in
  let w = Xrpc_core.Cluster.add_wrapper cluster "saxon" in
  Wrapper.register_module w ~uri:Xmark.functions_ns ~location:Xmark.functions_at
    Xmark.functions_module;
  Database.add_doc_xml w.Wrapper.db "persons.xml" (Xmark.persons ~count:25 ());
  Xrpc_peer.Peer.register_module mdb ~uri:Xmark.functions_ns
    ~location:Xmark.functions_at Xmark.functions_module;
  let result =
    Xrpc_peer.Peer.query_seq mdb
      {|import module namespace func="functions" at "http://example.org/functions.xq";
        for $i in (1, 2, 3)
        return execute at {"xrpc://saxon"} {func:getPerson("persons.xml", concat("person", string($i)))}|}
  in
  check int_ "three persons" 3 (List.length result);
  (* and it went out as ONE bulk message pair *)
  check int_ "2 messages" 2
    (Xrpc_core.Cluster.stats cluster).Xrpc_net.Simnet.messages

let () =
  Alcotest.run "wrapper"
    [
      ( "generation",
        [
          Alcotest.test_case "Figure 3 shape" `Quick test_generated_query_shape;
        ] );
      ( "handling",
        [
          Alcotest.test_case "single call" `Quick test_wrapper_answers_single_call;
          Alcotest.test_case "bulk call" `Quick test_wrapper_bulk_call;
          Alcotest.test_case "atomic results typed" `Quick
            test_wrapper_atomic_results;
          Alcotest.test_case "echoVoid x10" `Quick test_wrapper_echo_void;
          Alcotest.test_case "timings" `Quick test_wrapper_timings_recorded;
          Alcotest.test_case "unknown module fault" `Quick
            test_wrapper_fault_on_unknown_module;
          Alcotest.test_case "arity x is a Sender fault" `Quick
            test_wrapper_bad_arity;
          Alcotest.test_case "getDocument xs:integer abc is a Sender fault"
            `Quick test_wrapper_bad_get_document_integer;
          Alcotest.test_case "idempotent replay and flight record" `Quick
            test_wrapper_shared_path;
        ] );
      ( "join-detection",
        [
          Alcotest.test_case "equivalence" `Quick test_join_detection_equivalence;
          Alcotest.test_case "large bulk" `Quick test_join_detection_faster_shape;
          Alcotest.test_case "pattern recognizer" `Quick
            test_selection_pattern_recognizer;
        ] );
      ( "interop",
        [
          Alcotest.test_case "native peer -> wrapper" `Quick
            test_native_peer_calls_wrapper;
        ] );
    ]
