(* The one inbound path against hostile requests: test/fuzz.ml's mutations
   of the requests the suites send, served by both engines behind it (the
   native peer and the §4 wrapper).  A case passes when the reply decodes
   as a Response or a Fault (a transactionResult for a transaction
   message); any exception out of the path is a program bug.  10k cases
   per engine under runtest, 100k under `dune build @fuzz`; a failure
   prints FUZZ_SEED=<n>, which replays that one case. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Peer = Xrpc_peer.Peer
module Wrapper = Xrpc_peer.Wrapper
module Database = Xrpc_peer.Database
module Trace = Xrpc_obs.Trace
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod
module Xmark = Xrpc_workloads.Xmark

let check = Alcotest.check

(* The requests the suites send: single and bulk calls of the film,
   test and XMark modules, an updating call, calls under repeatable and
   snapshot queryIDs, keyed, call-by-fragment and profiled
   requests, getDocument, the telemetry scrape and the four transaction
   messages. *)
let request_seeds =
  let request ?(updating = false) ?(fragments = false) ?query_id ?idem_key
      ?(location = "") ~module_uri ~fn calls =
    Message.Request
      { Message.module_uri; location; method_ = fn;
        arity = (match calls with c :: _ -> List.length c | [] -> 0);
        updating; fragments; query_id; idem_key; calls }
  in
  let qid ?(timestamp = "1.0") level =
    { Message.host = "xrpc://x"; timestamp; timeout = 30; level }
  in
  let films ?query_id ?idem_key actors =
    request ?query_id ?idem_key ~location:Filmdb.module_at
      ~module_uri:Filmdb.module_ns ~fn:"filmsByActor"
      (List.map (fun a -> [ [ Xdm.str a ] ]) actors)
  in
  let add_film ?query_id name =
    request ~updating:true ?query_id ~module_uri:Filmdb.module_ns
      ~fn:"addFilm" [ [ [ Xdm.str name ]; [ Xdm.str "Actor F" ] ] ]
  in
  let persons ids =
    request ~module_uri:Xmark.functions_ns ~location:Xmark.functions_at
      ~fn:"getPerson"
      (List.map
         (fun i ->
           [ [ Xdm.str "persons.xml" ];
             [ Xdm.str (Printf.sprintf "person%d" i) ] ])
         ids)
  in
  let tx ?timestamp op =
    Message.Tx_request (op, qid ?timestamp Message.Repeatable)
  in
  let profiled m = fst (Trace.collect (fun () -> Message.to_string m)) in
  Array.map Message.to_string
    [| persons [ 1; 99; 3 ];
       films [ "Sean Connery" ];
       films [ "Julie Andrews"; "Sean Connery"; "Gerard Depardieu" ];
       films ~query_id:(qid Message.Repeatable) [ "Sean Connery" ];
       films ~query_id:(qid Message.Snapshot) [ "Sean Connery" ];
       films ~idem_key:"xrpc://x/1" [ "Sean Connery" ];
       add_film "Fuzz";
       add_film ~query_id:(qid Message.Repeatable) "Deferred";
       request ~module_uri:Testmod.module_ns ~location:Testmod.module_at
         ~fn:"ping" (List.init 3 (fun i -> [ [ Xdm.int i ] ]));
       request ~module_uri:Testmod.module_ns ~fn:"echoVoid" [ []; [] ];
       request ~fragments:true ~module_uri:Testmod.module_ns ~fn:"echo"
         [ [ [ Xdm.str "x"; Xdm.int 7 ] ] ];
       request ~module_uri:Qname.ns_xrpc ~fn:"getDocument"
         [ [ [ Xdm.str "filmDB.xml" ] ] ];
       request ~module_uri:Qname.ns_xrpc ~fn:"telemetry" [ [] ];
       tx Message.Prepare; tx Message.Commit;
       tx ~timestamp:"2.0" Message.Rollback; tx Message.Status |]
  |> Fun.flip Array.append [| profiled (persons [ 2 ]) |]

(* Both engines hold the same modules and documents.  The peer's clock
   advances a second per served request, so the queryIDs the cases pin
   (30 s timeouts) expire instead of piling up. *)
let install ~register ~add_doc =
  register ~uri:Filmdb.module_ns ~location:Filmdb.module_at Filmdb.film_module;
  register ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  register ~uri:Xmark.functions_ns ~location:Xmark.functions_at
    Xmark.functions_module;
  add_doc "filmDB.xml" Filmdb.film_db_xml;
  add_doc "persons.xml" (Xmark.persons ~count:25 ())

let peer_engine =
  let now = ref 0. in
  let y = Peer.create ~clock:(fun () -> !now) "xrpc://y" in
  install
    ~register:(fun ~uri ~location src -> Peer.register_module y ~uri ~location src)
    ~add_doc:(Database.add_doc_xml y.Peer.db);
  fun body ->
    now := !now +. 1.;
    Peer.handle_raw y body

let wrapper_engine =
  let w = Wrapper.create ~join_detect:true "xrpc://w" in
  install
    ~register:(fun ~uri ~location src ->
      Wrapper.register_module w ~uri ~location src)
    ~add_doc:(Database.add_doc_xml w.Wrapper.db);
  Wrapper.handle_raw w

let answered serve body =
  match Message.of_reply ~dest:"xrpc://y" (serve body) with
  | Message.Response _ | Message.Fault _ | Message.Tx_response _ -> ()
  | _ -> failwith "the reply is a request"

let prop name serve =
  Fuzz.prop ~name ~seeds:request_seeds ~expected:(fun _ -> false)
    (answered serve)

(* every seed is served without a Fault by the peer, so the cases start
   from requests that reach the engines' real work *)
let test_seeds_answered () =
  Array.iteri
    (fun i body ->
      match Message.of_string (peer_engine body) with
      | Message.Fault f -> Alcotest.failf "seed %d: fault %s" i f.Message.reason
      | _ -> ())
    request_seeds;
  check Alcotest.bool "the wrapper answers the bulk getPerson seed" true
    (match Message.of_string (wrapper_engine request_seeds.(0)) with
    | Message.Response r -> List.length r.Message.results = 3
    | _ -> false)

let qcheck_quick t =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 27 |]) t

let () =
  Alcotest.run "inbound"
    [
      ( "fuzz",
        [
          Alcotest.test_case "request seeds are served" `Quick
            test_seeds_answered;
          qcheck_quick (prop "mutated request: the peer answers" peer_engine);
          qcheck_quick
            (prop "mutated request: the wrapper answers" wrapper_engine);
        ] );
    ]
