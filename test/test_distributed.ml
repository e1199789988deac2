(* End-to-end distributed query tests over the simulated network: the
   paper's Q1/Q2/Q3/Q6 examples, Bulk RPC message counting, parallel
   dispatch, nested XRPC calls, error propagation, data shipping,
   repeatable-read isolation across peers, distributed updates with 2PC,
   the §5 strategies, and the same flow over real HTTP. *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Strategies = Xrpc_core.Strategies
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Filmdb = Xrpc_workloads.Filmdb
module Xmark = Xrpc_workloads.Xmark
module Simnet = Xrpc_net.Simnet

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* standard three-peer film setup *)
let film_cluster () =
  let cluster =
    Cluster.create ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  Filmdb.install (Cluster.peer cluster "y.example.org") ();
  Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  (cluster, x)

let messages cluster = (Cluster.stats cluster).Simnet.messages

let test_q1 () =
  let cluster, x = film_cluster () in
  let r = Peer.query_seq x (Filmdb.q1 ~dest:"xrpc://y.example.org") in
  check string_ "paper's Q1 result"
    "<films><name>The Rock</name><name>Goldfinger</name></films>"
    (Xdm.to_display r);
  check int_ "single round trip" 2 (messages cluster)

let test_q2_bulk_one_message () =
  let cluster, x = film_cluster () in
  let r = Peer.query_seq x (Filmdb.q2 ~dest:"xrpc://y.example.org") in
  check string_ "Q2 result"
    "<films><name>The Rock</name><name>Goldfinger</name></films>"
    (Xdm.to_display r);
  (* two calls, ONE bulk request *)
  check int_ "bulk rpc" 2 (messages cluster)

(* :explain's per-site dispatch matches the bulkrpc spans a profiled run
   records, for Figure 1's Q2, Q3 and the Q6 return sequence *)
let test_explain_agrees_with_profile () =
  List.iter
    (fun mode ->
      List.iter
        (fun (iterations, query) ->
          let _, x = film_cluster () in
          x.Peer.config <- { x.Peer.config with Peer.rpc_mode = mode };
          ignore (Explain_check.agree x ~iterations query))
        [
          (2, Filmdb.q2 ~dest:"xrpc://y.example.org");
          (4, Filmdb.q3 ~dest1:"xrpc://y.example.org" ~dest2:"xrpc://z.example.org");
          (2, Filmdb.q6 ~dest:"xrpc://y.example.org");
        ])
    [ Xrpc_xquery.Context.Rpc_bulk; Xrpc_xquery.Context.Rpc_singles ]

(* :explain's index probes match the probes a profiled run records: Q7's
   client query probes persons.xml for its subset of ids; a numeric key
   is compared instead, and its step stays an index slice *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let q7_cluster () =
  let cluster = Cluster.create ~names:[ "x.example.org"; "y.example.org" ] () in
  let x = Cluster.peer cluster "x.example.org"
  and y = Cluster.peer cluster "y.example.org" in
  let q =
    { Strategies.local_doc = "persons.xml"; remote_uri = "xrpc://y.example.org";
      remote_doc = "auctions.xml"; module_ns = "functions_b";
      module_at = "http://example.org/b.xq" }
  in
  List.iter
    (fun p ->
      Peer.register_module p ~uri:q.Strategies.module_ns
        ~location:q.Strategies.module_at (Strategies.functions_b q))
    [ x; y ];
  Database.add_doc_xml x.Peer.db "persons.xml" (Xmark.persons ~count:20 ());
  Database.add_doc_xml y.Peer.db "auctions.xml"
    (Xmark.auctions ~count:40 ~matches:6 ~persons_count:20 ());
  x

let q7_client selection =
  Printf.sprintf
    {|import module namespace b = "functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person[%s]
let $ca := execute at {"xrpc://y.example.org"} { b:Q_B3(string($p/@id)) }
return if (empty($ca)) then () else <result>{$p, $ca/annotation}</result>|}
    selection

let test_explain_agrees_on_probes () =
  let x = q7_cluster () in
  let plan =
    Explain_check.agree x ~iterations:5
      ~lifted_probe:"attribute-value index probe (person, @id)"
      (q7_client {|@id = ("person1", "person3", "person5", "person7", "person9", "nobody")|})
  in
  check bool_ "the probe is printed" true
    (contains plan "attribute-value index probe (person, @id)");
  let income =
    Xdm.to_display
      (Peer.query_seq x {|string((doc("persons.xml")//person)[3]/profile/@income)|})
  in
  let iterations =
    int_of_string
      (Xdm.to_display
         (Peer.query_seq x
            (Printf.sprintf {|count(doc("persons.xml")//person[profile/@income = %s])|}
               income)))
  in
  let plan =
    Explain_check.agree x ~iterations
      (q7_client (Printf.sprintf "profile/@income = %s" income))
  in
  check bool_ "a numeric key is no probe" false
    (contains plan "attribute-value index probe");
  check bool_ "the step is an index slice" true
    (contains plan "element-name index slice (person)")

let test_q2_one_at_a_time () =
  let cluster, x = film_cluster () in
  x.Peer.config <- { x.Peer.config with Peer.rpc_mode = Xrpc_xquery.Context.Rpc_singles };
  let r = Peer.query_seq x (Filmdb.q2 ~dest:"xrpc://y.example.org") in
  check string_ "same result"
    "<films><name>The Rock</name><name>Goldfinger</name></films>"
    (Xdm.to_display r);
  check int_ "two round trips" 4 (messages cluster)

let test_q3_multiple_destinations () =
  let cluster, x = film_cluster () in
  let r =
    Peer.query_seq x
      (Filmdb.q3 ~dest1:"xrpc://y.example.org" ~dest2:"xrpc://z.example.org")
  in
  (* iteration order: (Julie,y)=∅ (Julie,z) (Sean,y) (Sean,z) *)
  check string_ "results stitched back in query order"
    "<films><name>Sound Of Music</name><name>The Princess Diaries</name><name>The Rock</name><name>Goldfinger</name><name>Dr. No</name></films>"
    (Xdm.to_display r);
  check int_ "one bulk per peer" 4 (messages cluster)

let test_q3_parallel_dispatch_charges_max () =
  let cluster, x = film_cluster () in
  Cluster.reset_clock cluster;
  ignore
    (Peer.query_seq x
       (Filmdb.q3 ~dest1:"xrpc://y.example.org" ~dest2:"xrpc://z.example.org"));
  let t_two_peers = Cluster.clock_ms cluster in
  Cluster.reset_clock cluster;
  ignore (Peer.query_seq x (Filmdb.q2 ~dest:"xrpc://y.example.org"));
  let t_one_peer = Cluster.clock_ms cluster in
  (* parallel dispatch: two peers cost at most ~1.5x one peer, not 2x *)
  check bool_ "parallelism" true (t_two_peers < t_one_peer *. 1.8)

let test_q6_out_of_order () =
  let cluster, x = film_cluster () in
  let r = Peer.query_seq x (Filmdb.q6 ~dest:"xrpc://y.example.org") in
  check string_ "Q6 stitched in query order"
    "<name>The Rock</name> <name>Goldfinger</name>" (Xdm.to_display r);
  (* two call SITES -> two bulk requests despite four calls *)
  check int_ "per-site batching" 4 (messages cluster)

let test_nested_xrpc () =
  (* x calls y; the function at y itself calls z (nested XRPC, §2.2) *)
  let cluster, x = film_cluster () in
  let relay =
    {|module namespace r = "relay";
import module namespace f = "films" at "http://x.example.org/film.xq";
declare function r:viaZ($actor as xs:string) as node()*
{ execute at {"xrpc://z.example.org"} {f:filmsByActor($actor)} };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"relay"
    ~location:"http://y.example.org/relay.xq" relay;
  let r =
    Peer.query_seq x
      {|import module namespace r = "relay" at "http://y.example.org/relay.xq";
        execute at {"xrpc://y.example.org"} {r:viaZ("Julie Andrews")}|}
  in
  check string_ "nested result"
    "<name>Sound Of Music</name> <name>The Princess Diaries</name>"
    (Xdm.to_display r);
  check int_ "two hops, four messages" 4 (messages cluster)

let test_nested_bulk_rpc () =
  (* a remote function whose body loops execute-at: the INNER loop must
     also go out as one Bulk RPC (nested loop-lifting) *)
  let cluster, x = film_cluster () in
  let relay =
    {|module namespace r = "relay";
import module namespace f = "films" at "http://x.example.org/film.xq";
declare function r:all($actors as xs:string*) as node()*
{ for $a in $actors
  return execute at {"xrpc://z.example.org"} {f:filmsByActor($a)} };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"relay"
    ~location:"http://y.example.org/relay.xq" relay;
  let r =
    Peer.query_seq x
      {|import module namespace r = "relay" at "http://y.example.org/relay.xq";
        execute at {"xrpc://y.example.org"}
        {r:all(("Julie Andrews", "Sean Connery", "Gerard Depardieu"))}|}
  in
  check int_ "three films found at z" 3 (List.length r);
  (* x->y (1 rq) + y->z (1 bulk rq of 3 calls) = 4 messages *)
  check int_ "inner loop bulked" 4 (messages cluster);
  check int_ "z served 3 calls in 1 request" 1
    (Cluster.peer cluster "z.example.org").Peer.requests_handled;
  check int_ "z calls" 3 (Cluster.peer cluster "z.example.org").Peer.calls_handled

let test_self_call () =
  (* a served function may execute at its OWN peer; the handler lock must
     be reentrant for this *)
  let cluster, x = film_cluster () in
  let selfy =
    {|module namespace s = "selfy";
import module namespace f = "films" at "http://x.example.org/film.xq";
declare function s:indirect($a as xs:string) as node()*
{ execute at {"xrpc://y.example.org"} {f:filmsByActor($a)} };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"selfy" ~location:"selfy.xq"
    selfy;
  let r =
    Peer.query_seq x
      {|import module namespace s = "selfy" at "selfy.xq";
        execute at {"xrpc://y.example.org"} {s:indirect("Sean Connery")}|}
  in
  check int_ "self-call answered" 2 (List.length r)

let test_zero_arity_and_empty_results () =
  let cluster, x = film_cluster () in
  ignore cluster;
  let m =
    {|module namespace z0 = "z0";
declare function z0:nothing() { () };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"z0" ~location:"z0.xq" m;
  let r =
    Peer.query_seq x
      {|import module namespace z0 = "z0" at "z0.xq";
        for $i in 1 to 4
        return execute at {"xrpc://y.example.org"} {z0:nothing()}|}
  in
  check int_ "all empty" 0 (List.length r)

let test_nested_peer_piggyback () =
  (* participating peers of nested calls propagate to the origin (§2.3) *)
  let cluster, x = film_cluster () in
  let relay =
    {|module namespace r = "relay";
import module namespace f = "films" at "http://x.example.org/film.xq";
declare function r:viaZ($actor as xs:string) as node()*
{ execute at {"xrpc://z.example.org"} {f:filmsByActor($actor)} };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"relay"
    ~location:"http://y.example.org/relay.xq" relay;
  let result =
    Peer.query x
      {|import module namespace r = "relay" at "http://y.example.org/relay.xq";
        execute at {"xrpc://y.example.org"} {r:viaZ("Julie Andrews")}|}
  in
  check bool_ "y is a participant" true
    (List.mem "xrpc://y.example.org" result.Peer.participants);
  check bool_ "z piggybacked through y" true
    (List.mem "xrpc://z.example.org" result.Peer.participants)

let test_remote_error_propagates () =
  let cluster, x = film_cluster () in
  (* calling an unknown function is caught STATICALLY at the origin, before
     any message is sent (XPST0017) *)
  (match
     Peer.query_seq x
       {|import module namespace f="films" at "http://x.example.org/film.xq";
        execute at {"xrpc://y.example.org"} {f:noSuchFunction("x")}|}
   with
  | exception Xrpc_xquery.Check.Static_error _ -> ()
  | _ -> Alcotest.fail "expected static error");
  check int_ "no message was sent" 0 (messages cluster);
  (* a RUNTIME error at the remote peer comes back as a SOAP fault and
     becomes a local dynamic error (§2.1) *)
  let failing =
    {|module namespace boom = "boom";
declare function boom:fail($x as xs:string) { error(concat("REMOTE: ", $x)) };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"boom" ~location:"boom.xq"
    failing;
  match
    Peer.query_seq x
      {|import module namespace boom = "boom" at "boom.xq";
        execute at {"xrpc://y.example.org"} {boom:fail("kaput")}|}
  with
  | exception Xrpc_xquery.Eval.Error m ->
      check bool_ "remote reason propagated" true
        (let sub = "kaput" in
         let n = String.length sub in
         let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "expected propagated fault"

let test_unknown_peer_error () =
  let _, x = film_cluster () in
  match
    Peer.query_seq x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
        execute at {"xrpc://nowhere.example.org"} {f:filmsByActor("A")}|}
  with
  | exception _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_data_shipping_doc () =
  let cluster, x = film_cluster () in
  let r =
    Peer.query_seq x {|count(doc("xrpc://y.example.org/filmDB.xml")//film)|}
  in
  check string_ "remote doc fetched" "3" (Xdm.to_display r);
  check int_ "one fetch" 2 (messages cluster);
  (* doc() is stable within a query: two references, one fetch *)
  Cluster.reset_stats cluster;
  ignore
    (Peer.query_seq x
       {|count(doc("xrpc://y.example.org/filmDB.xml")//film) +
         count(doc("xrpc://y.example.org/filmDB.xml")//name)|});
  check int_ "still one fetch" 2 (messages cluster)

let test_call_by_value_remote () =
  (* a node shipped as parameter arrives as its own fragment: the remote
     function cannot navigate to its former parent (§2.2) *)
  let cluster, x = film_cluster () in
  let m =
    {|module namespace cbv = "cbv";
declare function cbv:parentCount($n as node()) as xs:integer
{ count($n/..) };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"cbv" ~location:"cbv.xq" m;
  let r =
    Peer.query_seq x
      {|import module namespace cbv = "cbv" at "cbv.xq";
        let $local := <wrap><inner/></wrap>
        return execute at {"xrpc://y.example.org"} {cbv:parentCount(exactly-one($local/inner))}|}
  in
  check string_ "no parent at remote side" "0" (Xdm.to_display r)

let test_call_by_fragment_option () =
  (* the footnote-4 extension end-to-end: with the option on, a descendant
     parameter keeps its ancestor relationship at the remote peer *)
  let cluster, x = film_cluster () in
  let m =
    {|module namespace cbf = "cbf";
declare function cbf:related($anc as node(), $desc as node()) as xs:boolean
{ some $a in $desc/ancestor::* satisfies $a is $anc };|}
  in
  Cluster.register_module_everywhere cluster ~uri:"cbf" ~location:"cbf.xq" m;
  let query opt =
    Printf.sprintf
      {|import module namespace cbf = "cbf" at "cbf.xq";
%s
let $t := <wrap><inner><leaf/></inner></wrap>
return execute at {"xrpc://y.example.org"}
       {cbf:related(exactly-one($t/inner), exactly-one($t/inner/leaf))}|}
      opt
  in
  (* plain call-by-value: relationship destroyed *)
  check string_ "plain call-by-value" "false"
    (Xdm.to_display (Peer.query_seq x (query "")));
  (* call-by-fragment: relationship preserved *)
  check string_ "call-by-fragment" "true"
    (Xdm.to_display
       (Peer.query_seq x
          (query {|declare option xrpc:call-by-fragment "true";|})))

let test_repeatable_read_across_calls () =
  (* without isolation, two calls to the same peer may see different
     states; with repeatable isolation they must not (§2.2).  We simulate
     an interleaved writer with a nested updating call between two reads. *)
  let cluster, x = film_cluster () in
  let y = Cluster.peer cluster "y.example.org" in
  ignore y;
  let count_q isolation =
    Printf.sprintf
      {|import module namespace f="films" at "http://x.example.org/film.xq";
%s
let $before := count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})
let $ignored := execute at {"xrpc://z.example.org"} {f:actors()}
let $after := count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})
return ($before, $after)|}
      isolation
  in
  (* interleave a committed write at y between the two reads by hooking the
     z-peer handler *)
  let interleave () =
    let req =
      {
        Xrpc_soap.Message.module_uri = "films";
        location = Filmdb.module_at;
        method_ = "addFilm";
        arity = 2;
        updating = true;
        fragments = false;
        query_id = None;
        idem_key = None;
        calls = [ [ [ Xdm.str "Interleaved" ]; [ Xdm.str "Sean Connery" ] ] ];
      }
    in
    ignore
      (Peer.handle_raw y
         (Xrpc_soap.Message.to_string (Xrpc_soap.Message.Request req)))
  in
  let z_handler = Peer.handle_raw (Cluster.peer cluster "z.example.org") in
  Simnet.register (Cluster.net cluster) "xrpc://z.example.org" (fun body ->
      interleave ();
      z_handler body);
  (* no isolation: second read sees the interleaved film *)
  let r1 = Peer.query_seq x (count_q "") in
  check string_ "non-isolated sees new state" "2 3" (Xdm.to_display r1);
  (* repeatable: both reads see the same pinned snapshot *)
  let r2 =
    Peer.query_seq x (count_q {|declare option xrpc:isolation "repeatable";|})
  in
  check string_ "repeatable read" "3 3" (Xdm.to_display r2)

(* [declare option xrpc:timeout] obeys the wire's rule for a queryID
   timeout (a positive xs:nonNegativeInteger): a bad value is a local
   dynamic error naming the option, raised before any message is sent,
   rather than a fault from the remote peer or a silent default *)
let test_timeout_option_checked_locally () =
  let q timeout =
    Printf.sprintf
      {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
declare option xrpc:timeout "%s";
execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}|}
      timeout
  in
  List.iter
    (fun bad ->
      let cluster, x = film_cluster () in
      (match Peer.query_seq x (q bad) with
      | _ -> Alcotest.failf "timeout %S was accepted" bad
      | exception Xdm.Dynamic_error reason ->
          check bool_ (bad ^ ": the error names the option") true
            (String.starts_with ~prefix:"option xrpc:timeout" reason));
      check int_ (bad ^ ": no message sent") 0 (messages cluster))
    [ "abc"; "0"; "-5"; "0x1F" ];
  let cluster, x = film_cluster () in
  check string_ "\" +7 \" is accepted"
    "<name>The Rock</name> <name>Goldfinger</name>"
    (Xdm.to_display (Peer.query_seq x (q " +7 ")));
  check bool_ "and sent" true (messages cluster > 0)

let test_distributed_update_2pc () =
  let cluster, x = film_cluster () in
  let q =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("New", "Actor New")}|}
  in
  let result = Peer.query x q in
  check bool_ "committed" true result.Peer.committed;
  check int_ "two participants" 2 (List.length result.Peer.participants);
  let count peer_name =
    let p = Cluster.peer cluster peer_name in
    match Peer.query_seq p {|count(doc("filmDB.xml")//film)|} with
    | [ Xdm.Atomic (Xs.Integer n) ] -> n
    | _ -> -1
  in
  check int_ "y applied" 4 (count "y.example.org");
  check int_ "z applied" 4 (count "z.example.org")

let test_updating_without_isolation_applies_immediately () =
  let cluster, x = film_cluster () in
  ignore
    (Peer.query_seq x
       {|import module namespace f="films" at "http://x.example.org/film.xq";
         execute at {"xrpc://y.example.org"} {f:addFilm("Quick", "A")}|});
  let y = Cluster.peer cluster "y.example.org" in
  match Peer.query_seq y {|count(doc("filmDB.xml")//film)|} with
  | [ Xdm.Atomic (Xs.Integer 4) ] -> ()
  | r -> Alcotest.fail ("expected 4 films, got " ^ Xdm.to_display r)

let test_hoisting_loop_invariant_call () =
  let cluster, x = film_cluster () in
  let r =
    Peer.query_seq x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
        for $i in (1 to 10)
        let $a := execute at {"xrpc://y.example.org"} {f:actors()}
        return count($a)|}
  in
  check string_ "10 identical results" "2 2 2 2 2 2 2 2 2 2" (Xdm.to_display r);
  (* loop-invariant call in a batched clause: ONE message, one call *)
  check int_ "hoisted" 2 (messages cluster);
  check int_ "single call served" 1
    (Cluster.peer cluster "y.example.org").Peer.calls_handled;
  (* an execute-at buried inside a non-batchable return expression falls
     back to one RPC per iteration (it is not a clause body) *)
  Cluster.reset_stats cluster;
  ignore
    (Peer.query_seq x
       {|import module namespace f="films" at "http://x.example.org/film.xq";
         for $i in (1 to 5)
         return count(execute at {"xrpc://y.example.org"} {f:actors()})|});
  check int_ "non-batchable shape" 10 (messages cluster)

(* ---- failure injection ---- *)

let test_corrupted_response () =
  (* garbage on the wire must surface as a local error, not a crash *)
  let cluster, x = film_cluster () in
  Simnet.register (Cluster.net cluster) "xrpc://y.example.org" (fun _ ->
      "<<<not xml at all");
  match Peer.query_seq x (Filmdb.q1 ~dest:"xrpc://y.example.org") with
  | exception _ -> ()
  | r -> Alcotest.fail ("expected error, got " ^ Xdm.to_display r)

let test_peer_crash_mid_query () =
  let cluster, x = film_cluster () in
  Simnet.register (Cluster.net cluster) "xrpc://y.example.org" (fun _ ->
      failwith "peer crashed");
  match Peer.query_seq x (Filmdb.q2 ~dest:"xrpc://y.example.org") with
  | exception _ -> ()
  | _ -> Alcotest.fail "expected failure"

let test_2pc_abort_applies_nowhere () =
  (* if one participant cannot prepare, the coordinator must roll back and
     NO peer may apply its deferred updates *)
  let cluster, x = film_cluster () in
  let y = Cluster.peer cluster "y.example.org" in
  let z = Cluster.peer cluster "z.example.org" in
  (* block y: an earlier transaction holds the prepared state on filmDB *)
  let blocker =
    { Xrpc_soap.Message.host = "xrpc://blocker"; timestamp = "0.1";
      timeout = 1000; level = Xrpc_soap.Message.Repeatable }
  in
  let blocking_update =
    {
      Xrpc_soap.Message.module_uri = "films";
      location = Filmdb.module_at;
      method_ = "addFilm";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = Some blocker;
      idem_key = None;
      calls = [ [ [ Xdm.str "Blocker" ]; [ Xdm.str "B" ] ] ];
    }
  in
  ignore
    (Peer.handle_raw y
       (Xrpc_soap.Message.to_string (Xrpc_soap.Message.Request blocking_update)));
  ignore
    (Peer.handle_raw y
       (Xrpc_soap.Message.to_string
          (Xrpc_soap.Message.Tx_request (Xrpc_soap.Message.Prepare, blocker))));
  (* now a distributed update touching y and z must fail to commit *)
  let result =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("Doomed", "D")}|}
  in
  check bool_ "commit refused" false result.Peer.committed;
  let count p =
    match Peer.query_seq p {|count(doc("filmDB.xml")//film[name = "Doomed"])|} with
    | [ Xdm.Atomic (Xs.Integer n) ] -> n
    | _ -> -1
  in
  check int_ "y did not apply" 0 (count y);
  check int_ "z rolled back" 0 (count z)

let test_snapshot_isolation_end_to_end () =
  (* with xrpc:isolation "snapshot", both reads see the state as of the
     query's global timestamp even though a write commits in between (the
     shared simnet virtual clock models synchronized peer clocks) *)
  let cluster, x = film_cluster () in
  let y = Cluster.peer cluster "y.example.org" in
  let interleave () =
    let req =
      {
        Xrpc_soap.Message.module_uri = "films";
        location = Filmdb.module_at;
        method_ = "addFilm";
        arity = 2;
        updating = true;
        fragments = false;
        query_id = None;
        idem_key = None;
        calls = [ [ [ Xdm.str "Interleaved" ]; [ Xdm.str "Sean Connery" ] ] ];
      }
    in
    ignore
      (Peer.handle_raw y
         (Xrpc_soap.Message.to_string (Xrpc_soap.Message.Request req)))
  in
  let z_handler = Peer.handle_raw (Cluster.peer cluster "z.example.org") in
  Simnet.register (Cluster.net cluster) "xrpc://z.example.org" (fun body ->
      (* advance the shared clock past the query start, then commit *)
      (Cluster.net cluster).Simnet.clock_ms <-
        (Cluster.net cluster).Simnet.clock_ms +. 10_000.;
      interleave ();
      z_handler body);
  let q =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "snapshot";
let $ignored := execute at {"xrpc://z.example.org"} {f:actors()}
return count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})|}
  in
  (* y is contacted only AFTER the interleaved commit, but pins t_q *)
  check string_ "snapshot pins query start" "2"
    (Xdm.to_display (Peer.query_seq x q))

(* ---- §5 strategies over XMark ---- *)

let strategies_fixture () =
  let scale = Xmark.small_scale in
  let cluster = Cluster.create ~names:[ "A"; "B" ] () in
  let a = Cluster.peer cluster "A" and b = Cluster.peer cluster "B" in
  Database.add_doc_xml a.Peer.db "persons.xml"
    (Xmark.persons ~count:scale.Xmark.persons ());
  Database.add_doc_xml b.Peer.db "auctions.xml"
    (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
       ~persons_count:scale.Xmark.persons ());
  let q7 =
    {
      Strategies.local_doc = "persons.xml";
      remote_uri = "xrpc://B";
      remote_doc = "auctions.xml";
      module_ns = "functions_b";
      module_at = "http://example.org/b.xq";
    }
  in
  Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
    ~location:q7.Strategies.module_at (Strategies.functions_b q7);
  (cluster, a, q7)

let test_strategies_agree () =
  let cluster, a, q7 = strategies_fixture () in
  let run s = Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7 s) in
  let baseline = run Strategies.Data_shipping in
  check int_ "six matches" 6 (List.length baseline);
  List.iter
    (fun s ->
      Cluster.reset_stats cluster;
      let r = run s in
      check int_ (Strategies.name s ^ " count") (List.length baseline)
        (List.length r))
    [ Strategies.Predicate_pushdown; Strategies.Execution_relocation;
      Strategies.Distributed_semijoin ]

let test_semijoin_is_one_bulk_message () =
  let cluster, a, q7 = strategies_fixture () in
  Cluster.reset_stats cluster;
  ignore
    (Peer.query_seq a
       (Strategies.query ~local_uri:"xrpc://A" q7 Strategies.Distributed_semijoin));
  check int_ "one message pair for all probes" 2 (messages cluster)

let test_bytes_shipped_ordering () =
  let cluster, a, q7 = strategies_fixture () in
  let shipped s =
    Cluster.reset_stats cluster;
    ignore (Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7 s));
    let st = Cluster.stats cluster in
    st.Simnet.bytes_sent + st.Simnet.bytes_received
  in
  let ship = shipped Strategies.Data_shipping in
  let push = shipped Strategies.Predicate_pushdown in
  let semi = shipped Strategies.Distributed_semijoin in
  check bool_ "pushdown < data shipping" true (push < ship);
  check bool_ "semijoin < pushdown" true (semi < push)

(* ---- the same distributed query over REAL HTTP ---- *)

let test_q2_over_http () =
  let y = Peer.create "xrpc://127.0.0.1" in
  Filmdb.install y ();
  let server =
    Xrpc_net.Http.serve (fun ~path:_ body -> Peer.handle_raw y body)
  in
  Fun.protect
    ~finally:(fun () -> Xrpc_net.Http.shutdown server)
    (fun () ->
      let x = Peer.create "xrpc://client.local" in
      Peer.set_transport x (Xrpc_net.Http.transport ());
      Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
        Filmdb.film_module;
      let dest = Printf.sprintf "xrpc://127.0.0.1:%d" (Xrpc_net.Http.port server) in
      let r = Peer.query_seq x (Filmdb.q2 ~dest) in
      check string_ "Q2 over HTTP"
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
        (Xdm.to_display r);
      check int_ "one bulk request over the wire" 1 y.Peer.requests_handled)

let () =
  Alcotest.run "distributed"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "Q1" `Quick test_q1;
          Alcotest.test_case "Q2 bulk" `Quick test_q2_bulk_one_message;
          Alcotest.test_case "Q2 one-at-a-time" `Quick test_q2_one_at_a_time;
          Alcotest.test_case "Q3 multi-destination" `Quick
            test_q3_multiple_destinations;
          Alcotest.test_case "Q3 parallel dispatch" `Quick
            test_q3_parallel_dispatch_charges_max;
          Alcotest.test_case "Q6 out-of-order sites" `Quick test_q6_out_of_order;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "nested XRPC" `Quick test_nested_xrpc;
          Alcotest.test_case "nested Bulk RPC" `Quick test_nested_bulk_rpc;
          Alcotest.test_case ":explain agrees with :profile" `Quick
            test_explain_agrees_with_profile;
          Alcotest.test_case ":explain agrees on index probes" `Quick
            test_explain_agrees_on_probes;
          Alcotest.test_case "reentrant self-call" `Quick test_self_call;
          Alcotest.test_case "zero arity / empty results" `Quick
            test_zero_arity_and_empty_results;
          Alcotest.test_case "participant piggybacking" `Quick
            test_nested_peer_piggyback;
          Alcotest.test_case "remote error propagates" `Quick
            test_remote_error_propagates;
          Alcotest.test_case "unknown peer" `Quick test_unknown_peer_error;
          Alcotest.test_case "data shipping doc()" `Quick test_data_shipping_doc;
          Alcotest.test_case "call-by-value" `Quick test_call_by_value_remote;
          Alcotest.test_case "call-by-fragment option" `Quick
            test_call_by_fragment_option;
          Alcotest.test_case "repeatable read across calls" `Quick
            test_repeatable_read_across_calls;
          Alcotest.test_case "hoisted invariant call" `Quick
            test_hoisting_loop_invariant_call;
        ] );
      ( "updates",
        [
          Alcotest.test_case "timeout option checked locally" `Quick
            test_timeout_option_checked_locally;
          Alcotest.test_case "distributed 2PC" `Quick test_distributed_update_2pc;
          Alcotest.test_case "R_Fu immediate remote" `Quick
            test_updating_without_isolation_applies_immediately;
        ] );
      ( "failures",
        [
          Alcotest.test_case "corrupted response" `Quick test_corrupted_response;
          Alcotest.test_case "peer crash" `Quick test_peer_crash_mid_query;
          Alcotest.test_case "2PC abort applies nowhere" `Quick
            test_2pc_abort_applies_nowhere;
          Alcotest.test_case "snapshot isolation e2e" `Quick
            test_snapshot_isolation_end_to_end;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "all agree" `Quick test_strategies_agree;
          Alcotest.test_case "semi-join single message" `Quick
            test_semijoin_is_one_bulk_message;
          Alcotest.test_case "bytes ordering" `Quick test_bytes_shipped_ordering;
        ] );
      ( "http",
        [ Alcotest.test_case "Q2 over real HTTP" `Quick test_q2_over_http ] );
    ]
