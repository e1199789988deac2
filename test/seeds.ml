(* The valid wire forms the decoder fuzzers start from (test/fuzz.ml
   mutates them): the requests the suites send, and the replies a serving
   peer writes.  test_inbound serves mutated requests, test_soap decodes
   mutated replies, and test_codec decodes both with the codec and with
   its oracle. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Peer = Xrpc_peer.Peer
module Trace = Xrpc_obs.Trace
module Filmdb = Xrpc_workloads.Filmdb
module Testmod = Xrpc_workloads.Testmod
module Xmark = Xrpc_workloads.Xmark

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

(* The seeds are replies a serving peer wrote: node and atomic results,
   a profiled reply carrying serverProfile, a plain one carrying
   dbVersion, an updating call's empty response, a Fault and
   two transactionResults; and one Fault no peer writes, whose Code value
   is shorter than its surrounding whitespace (once a decoder crash). *)
let padded_fault_code =
  {|<?xml version="1.0" encoding="utf-8"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Body><env:Fault><env:Code><env:Value>  ab  </env:Value></env:Code></env:Fault></env:Body></env:Envelope>|}

let reply_seeds =
  let y = Peer.create "xrpc://y" in
  Filmdb.install y ();
  Peer.register_module y ~uri:Testmod.module_ns ~location:Testmod.module_at
    Testmod.test_module;
  let request ?(profiled = false) ?(updating = false) ~module_uri ~fn calls =
    let msg =
      Message.Request
        { Message.module_uri; location = ""; method_ = fn;
          arity = (match calls with c :: _ -> List.length c | [] -> 0);
          updating; fragments = false; query_id = None; idem_key = None;
          calls }
    in
    if profiled then fst (Trace.collect (fun () -> Message.to_string msg))
    else Message.to_string msg
  in
  let films ?profiled () =
    request ?profiled ~module_uri:Filmdb.module_ns ~fn:"filmsByActor"
      [ [ [ Xdm.str "Sean Connery" ] ] ]
  in
  let qid =
    { Message.host = "xrpc://x"; timestamp = "1.0"; timeout = 30;
      level = Message.Repeatable }
  in
  let tx op = Message.to_string (Message.Tx_request (op, qid)) in
  Array.map (Peer.handle_raw y)
    [| films ~profiled:true ();
       films ();
       request ~module_uri:Testmod.module_ns ~fn:"ping"
         (List.init 3 (fun i -> [ [ Xdm.int i ] ]));
       request ~updating:true ~module_uri:Filmdb.module_ns ~fn:"addFilm"
         [ [ [ Xdm.str "Fuzz" ]; [ Xdm.str "Actor F" ] ] ];
       request ~module_uri:Testmod.module_ns ~fn:"noSuchFunction" [ [] ];
       tx Message.Status;
       tx Message.Commit |]
  |> Fun.flip Array.append [| padded_fault_code |]

