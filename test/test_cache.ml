(* Plan-cache suite, and the freshness guarantees of served reads.

   Covers: canonical-key normalization (whitespace/comment insensitivity,
   literal-kind tagging, the direct-constructor raw fallback), the bounded
   LRU primitive, plan-cache reuse at a peer (same answer, fresh global
   bindings, module re-registration invalidates), and what a served read
   answers across a simulated cluster: it sees a committed R_Fu update, an
   update to one document moves only that document's version, a
   presumed-abort rollback changes nothing while the committed rerun is
   seen, a queryID-pinned read keeps its snapshot, and a seeded chaos
   sweep where every read equals the serving peer's committed state while
   distributed updates commit and abort around it.  Every served call
   executes: the peer keeps no answers.  Replay the chaos schedules with
   FAULT_SEED=<n> dune runtest. *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Lru = Xrpc_peer.Lru
module Metrics = Xrpc_obs.Metrics
module Normalize = Xrpc_xquery.Normalize
module Filmdb = Xrpc_workloads.Filmdb
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Message = Xrpc_soap.Message
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Canonical query text                                                *)
(* ------------------------------------------------------------------ *)

let test_canonical_insensitive () =
  let a = Normalize.canonical "1   +\n\t2 (: a comment :)" in
  let b = Normalize.canonical "1+2" in
  check string_ "whitespace and comments do not matter" b a;
  check bool_ "ordinary queries canonicalize" false (Normalize.is_raw a)

let test_canonical_literal_kinds () =
  (* 1, 1.0, 1e0 and "1" are four different queries; so is the name x1
     next to the literal 1 *)
  let keys =
    List.map Normalize.canonical [ "1"; "1.0"; "1e0"; {|"1"|}; "x1" ]
  in
  let distinct = List.sort_uniq compare keys in
  check int_ "literal kinds stay disjoint" (List.length keys)
    (List.length distinct)

let test_canonical_raw_fallback () =
  (* whitespace inside a direct constructor is semantic, so the lexer
     cannot canonicalize past it: the raw source is the key *)
  let a = Normalize.canonical "<a>1</a>" in
  check bool_ "constructors fall back to raw" true (Normalize.is_raw a);
  check bool_ "raw keys keep the exact spelling" true
    (a <> Normalize.canonical "<a> 1 </a>")

(* Property battery: the cache key is invariant under reformatting
   (whitespace and comments are free), and kind-tagged literals never
   collide — [3], [3.0], [3e0], ["3"] and the name [x3] each get their
   own plan. *)

let gen_token =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ "x"; "y"; "foo"; "item" ]);
        (3, map string_of_int (int_bound 999));
        (2, map (fun n -> string_of_int n ^ ".5") (int_bound 99));
        (2, map (fun n -> string_of_int n ^ "e2") (int_bound 99));
        ( 2,
          map
            (fun s -> "\"" ^ s ^ "\"")
            (string_size ~gen:(oneofl [ 'a'; 'b'; 'q'; 'z' ]) (int_range 0 6))
        );
        (3, oneofl [ "+"; "*"; "("; ")"; ","; "-" ]);
        (1, oneofl [ "$v"; "$w" ]);
      ])

let gen_sep = QCheck.Gen.oneofl [ " "; "  "; "\n"; "\t "; " (: c :) " ]

(* one token stream, two random spellings of it *)
let arbitrary_reformat_pair =
  QCheck.make
    ~print:(fun (a, b) -> a ^ "\n---\n" ^ b)
    QCheck.Gen.(
      map
        (fun triples ->
          let render pick =
            String.concat ""
              (List.concat_map (fun (t, s1, s2) -> [ t; pick s1 s2 ]) triples)
          in
          (render (fun a _ -> a), render (fun _ b -> b)))
        (list_size (int_range 1 8) (triple gen_token gen_sep gen_sep)))

let prop_canonical_reformat_invariant =
  QCheck.Test.make ~name:"reformatting never changes the key" ~count:300
    arbitrary_reformat_pair (fun (a, b) ->
      let ka = Normalize.canonical a and kb = Normalize.canonical b in
      ka = kb && (not (Normalize.is_raw ka)) && ka = Normalize.canonical a)

let prop_literal_kinds_never_collide =
  QCheck.Test.make ~name:"literal kinds never collide" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (n, m) ->
      let spellings v =
        let s = string_of_int v in
        [ s; s ^ ".0"; s ^ "e0"; "\"" ^ s ^ "\""; "x" ^ s ]
      in
      let keys = List.map Normalize.canonical (spellings n) in
      List.length (List.sort_uniq compare keys) = 5
      && (n = m
         || Normalize.canonical (string_of_int n)
            <> Normalize.canonical (string_of_int m)))

(* ------------------------------------------------------------------ *)
(* The LRU primitive                                                   *)
(* ------------------------------------------------------------------ *)

let test_lru_bounds_and_recency () =
  let lru = Lru.create ~capacity:2 "test.lru" in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  check (Alcotest.option int_) "a cached" (Some 1) (Lru.find lru "a");
  (* a was just used, so inserting c must evict b *)
  Lru.add lru "c" 3;
  check int_ "bounded" 2 (Lru.stats lru).Lru.size;
  check (Alcotest.option int_) "LRU victim gone" None (Lru.find lru "b");
  check (Alcotest.option int_) "recently used survives" (Some 1)
    (Lru.find lru "a");
  check int_ "one eviction" 1 (Lru.stats lru).Lru.evictions

let test_lru_disabled () =
  let lru = Lru.create ~capacity:2 "test.lru" in
  Lru.set_enabled lru false;
  Lru.add lru "a" 1;
  check (Alcotest.option int_) "disabled stores nothing" None
    (Lru.find lru "a");
  let made = ref 0 in
  let make () = incr made; 7 in
  ignore (Lru.find_or_add lru "a" make);
  ignore (Lru.find_or_add lru "a" make);
  check int_ "every find_or_add makes" 2 !made;
  let s = Lru.stats lru in
  check int_ "empty" 0 s.Lru.size;
  check int_ "no counter moved" 0 (s.Lru.hits + s.Lru.misses)

let test_lru_remove_if_vs_evictions () =
  (* remove_if is the invalidation primitive: its removals are counted
     as invalidations, never as capacity evictions *)
  let lru = Lru.create ~capacity:4 "test.lru" in
  List.iter (fun k -> Lru.add lru k 0) [ "a"; "b"; "c" ];
  let dropped = Lru.remove_if lru (fun k _ -> k <> "b") in
  check int_ "remove_if reports its victims" 2 dropped;
  check int_ "invalidations are not evictions" 0 (Lru.stats lru).Lru.evictions;
  check int_ "counted as invalidations" 2 (Lru.stats lru).Lru.invalidations;
  check int_ "survivor stays" 1 (Lru.stats lru).Lru.size;
  check (Alcotest.option int_) "survivor readable" (Some 0) (Lru.find lru "b");
  (* a later capacity eviction is counted exactly once *)
  List.iter (fun k -> Lru.add lru k 0) [ "d"; "e"; "f"; "g" ];
  check int_ "capacity eviction counted" 1 (Lru.stats lru).Lru.evictions

let test_lru_counters () =
  (* each event is counted once, in the instance and in its metric
     series *)
  let name = "test.lru_counters" in
  let series kind =
    int_of_float (Metrics.total (Metrics.counter (name ^ "." ^ kind)))
  in
  let lru = Lru.create ~capacity:2 name in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  ignore (Lru.find lru "a");
  ignore (Lru.find lru "z");
  Lru.add lru "c" 3;
  check (Alcotest.option int_) "an evicted entry is a miss" None
    (Lru.find lru "b");
  ignore (Lru.remove_if lru (fun k _ -> k = "a" || k = "c"));
  let s = Lru.stats lru in
  List.iter
    (fun (kind, n, want) ->
      check int_ kind want n;
      check int_ (kind ^ " series") want (series kind))
    [ ("hits", s.Lru.hits, 1); ("misses", s.Lru.misses, 2);
      ("evictions", s.Lru.evictions, 1);
      ("invalidations", s.Lru.invalidations, 2) ];
  check int_ "empty" 0 s.Lru.size

let test_lru_remove_if_multi () =
  (* remove_if collects its victims during the scan and removes them
     after: a predicate matching interleaved entries drops each exactly
     once and never disturbs the survivors *)
  let lru = Lru.create ~capacity:8 "test.lru" in
  for i = 1 to 6 do
    Lru.add lru (string_of_int i) i
  done;
  let dropped = Lru.remove_if lru (fun _ v -> v mod 2 = 0) in
  check int_ "three removed in one pass" 3 dropped;
  check int_ "three survivors" 3 (Lru.stats lru).Lru.size;
  List.iter
    (fun i ->
      check
        (Alcotest.option int_)
        (Printf.sprintf "entry %d" i)
        (if i mod 2 = 0 then None else Some i)
        (Lru.find lru (string_of_int i)))
    [ 1; 2; 3; 4; 5; 6 ];
  check int_ "second pass finds nothing" 0
    (Lru.remove_if lru (fun _ v -> v mod 2 = 0))

let test_lru_concurrent () =
  (* 8 threads mix lookups, inserts and invalidations on one small
     cache.  A value encodes its key and its writer (key * 100 +
     thread).  The bound holds throughout, every lookup is counted
     exactly once, and a lookup returns only a value added under its own
     key. *)
  let capacity = 8 in
  let lru = Lru.create ~capacity "test.lru_concurrent" in
  let lookups = Atomic.make 0 and wrong = Atomic.make 0 in
  let over = Atomic.make 0 in
  let worker id =
    let rng = Random.State.make [| id |] in
    for _ = 1 to 2000 do
      let k = Random.State.int rng 24 in
      (match Random.State.int rng 10 with
      | 0 -> ignore (Lru.remove_if lru (fun _ v -> v mod 100 = id))
      | 1 | 2 | 3 -> Lru.add lru (string_of_int k) ((k * 100) + id)
      | _ -> (
          Atomic.incr lookups;
          match Lru.find lru (string_of_int k) with
          | Some v when v / 100 <> k -> Atomic.incr wrong
          | _ -> ()));
      if (Lru.stats lru).Lru.size > capacity then Atomic.incr over;
      Thread.yield ()
    done
  in
  List.iter Thread.join (List.init 8 (Thread.create worker));
  let s = Lru.stats lru in
  check int_ "size never above capacity" 0 (Atomic.get over);
  check int_ "every lookup counted once" (Atomic.get lookups)
    (s.Lru.hits + s.Lru.misses);
  check int_ "no value under a foreign key" 0 (Atomic.get wrong);
  check bool_ "some lookups hit" true (s.Lru.hits > 0);
  check bool_ "some entries were invalidated" true (s.Lru.invalidations > 0)

(* ------------------------------------------------------------------ *)
(* Plan cache at a peer                                                *)
(* ------------------------------------------------------------------ *)

let plan_stats peer = (Peer.cache_stats peer).Peer.plan

let test_plan_cache_reuse () =
  let peer = Peer.create "xrpc://plan.local" in
  let a = Xdm.to_display (Peer.query_seq peer "for $v in (1 to 4) return $v * $v") in
  let b =
    Xdm.to_display
      (Peer.query_seq peer
         "for  $v  in (1 to 4) (: same plan :)\nreturn $v * $v")
  in
  check string_ "cached plan prints the same answer" a b;
  let s = plan_stats peer in
  check int_ "one compilation" 1 s.Lru.misses;
  check int_ "one plan-cache hit" 1 s.Lru.hits

let test_plan_cache_rebinds_globals () =
  (* prolog pass 2 (global variable binding) must re-run per execution:
     a cached plan may never pin the database state it was compiled
     against *)
  let peer = Peer.create "xrpc://plan.local" in
  Database.add_doc_xml peer.Peer.db "d.xml" "<n/>";
  let q = {|declare variable $c := count(doc("d.xml")//m); $c|} in
  check string_ "before the update" "0" (Xdm.to_display (Peer.query_seq peer q));
  ignore
    (Peer.query peer {|insert node <m/> into exactly-one(doc("d.xml")/n)|});
  check string_ "cached plan sees the new document" "1"
    (Xdm.to_display (Peer.query_seq peer q));
  check bool_ "second run really was a plan-cache hit" true
    ((plan_stats peer).Lru.hits >= 1)

let test_plan_cache_module_invalidation () =
  let peer = Peer.create "xrpc://plan.local" in
  let version n =
    Printf.sprintf
      {|module namespace m = "m";
declare function m:one() as xs:integer { %d };|}
      n
  in
  Peer.register_module peer ~uri:"m" ~location:"m.xq" (version 1);
  let q = {|import module namespace m = "m" at "m.xq"; m:one()|} in
  check string_ "v1 answer" "1" (Xdm.to_display (Peer.query_seq peer q));
  (* re-registering the module changes the code cached plans refer to *)
  Peer.register_module peer ~uri:"m" ~location:"m.xq" (version 2);
  check string_ "re-registration drops the stale plan" "2"
    (Xdm.to_display (Peer.query_seq peer q))

let test_explain_compiles_once () =
  (* the :explain fix: the shell renders plans via Peer.compiled_plan (the
     plan cache) instead of re-parsing, so explain-then-run compiles the
     query exactly once *)
  let peer = Peer.create "xrpc://plan.local" in
  let q = "for $v in (1 to 3) return $v + 1" in
  ignore (Peer.compiled_plan peer q);
  check int_ "explain compiled it" 1 (plan_stats peer).Lru.misses;
  ignore (Peer.query_seq peer q);
  let s = plan_stats peer in
  check int_ "the run did not recompile" 1 s.Lru.misses;
  check int_ "it hit the explained plan" 1 s.Lru.hits;
  (* a reformatted spelling of the same query reuses the plan too *)
  ignore (Peer.compiled_plan peer "for  $v in (1 to 3) (: same :)\nreturn $v + 1");
  check int_ "reformatted explain is a hit" 2 (plan_stats peer).Lru.hits

let test_plan_cache_concurrent_queries () =
  (* [Peer.query] runs outside the peer lock.  8 threads query one peer
     over 8 whitespace spellings of 100 queries: 800 distinct source
     texts overflow the 512-entry alias map while the 100 canonical plans
     fit the plan cache.  Every answer is right and every query is
     counted once, as a hit or a miss. *)
  let peer = Peer.create "xrpc://plan.local" in
  let spelling i j =
    Printf.sprintf "%s%d +%ssum(1 to 10)%s" (String.make j ' ') i
      (String.make (j + 1) ' ') (String.make (j mod 3) '\n')
  in
  let wrong = Atomic.make 0 in
  let worker t =
    for i = 0 to 99 do
      List.iter
        (fun j ->
          let got = Xdm.to_display (Peer.query_seq peer (spelling i j)) in
          if got <> string_of_int (i + 55) then Atomic.incr wrong;
          Thread.yield ())
        [ t; (t + 1) mod 8 ]
    done
  in
  List.iter Thread.join (List.init 8 (Thread.create worker));
  let s = plan_stats peer in
  check int_ "every answer right" 0 (Atomic.get wrong);
  check int_ "every query counted once" 1600 (s.Lru.hits + s.Lru.misses);
  check bool_ "the canonical plans were shared" true (s.Lru.hits >= 800)

(* ------------------------------------------------------------------ *)
(* What a served read answers                                          *)
(* ------------------------------------------------------------------ *)

let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

(* two peers: x originates, y serves the film database *)
let film_pair () =
  let cluster =
    Cluster.create ~config:sim_config
      ~names:[ "x.example.org"; "y.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  let y = Cluster.peer cluster "y.example.org" in
  Filmdb.install y ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  (cluster, x, y)

let films_by ?query_id client ~dest actor =
  Client.call client ~dest ?query_id ~module_uri:Filmdb.module_ns
    ~location:Filmdb.module_at ~fn:"filmsByActor"
    [ [ Xdm.str actor ] ]

(* the serving peer's committed state: the same function run at y over
   its current database, no message involved *)
let committed_films y =
  Xdm.to_display
    (Peer.query_seq y
       (Printf.sprintf
          {|import module namespace f="films" at %S;
f:filmsByActor("Sean Connery")|}
          Filmdb.module_at))

let test_update_then_read_invalidates () =
  (* a read after a committed remote update (rule R_Fu) sees it *)
  let cluster, x, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let before = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check string_ "a repeat answers the same" before
    (Xdm.to_display (films_by client ~dest "Sean Connery"));
  let r =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Fresh", "Sean Connery")}|}
  in
  check bool_ "update applied" true r.Peer.committed;
  let after = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check bool_ "the new film is visible" true (contains after "Fresh");
  check bool_ "it was not there before" false (contains before "Fresh");
  check string_ "the read is the committed state" (committed_films y) after

let test_version_vector_precision () =
  (* a commit moves the version of the documents it touched and of no
     other (2PC Prepare's first-committer-wins rule reads these), and a
     read of each document answers its current state *)
  let cluster =
    Cluster.create ~config:sim_config ~names:[ "x"; "y" ] ()
  in
  let y = Cluster.peer cluster "y" in
  Database.add_doc_xml y.Peer.db "a.xml" "<a>1</a>";
  Database.add_doc_xml y.Peer.db "b.xml" "<b>2</b>";
  Peer.register_module y ~uri:"m" ~location:"m.xq"
    {|module namespace m = "m";
declare function m:ra() as node()* { doc("a.xml") };
declare function m:rb() as node()* { doc("b.xml") };
declare updating function m:wa()
{ insert node <x/> into exactly-one(doc("a.xml")/a) };|};
  let client = Cluster.client cluster in
  let call fn =
    Xdm.to_display
      (Client.call client ~dest:"xrpc://y" ~module_uri:"m" ~location:"m.xq" ~fn [])
  in
  let version d = Database.doc_version (Database.snapshot y.Peer.db) d in
  let a0 = version "a.xml" and b0 = version "b.xml" in
  check string_ "a before" "<a>1</a>" (call "ra");
  check string_ "b before" "<b>2</b>" (call "rb");
  ignore
    (Client.call client ~dest:"xrpc://y" ~updating:true ~module_uri:"m"
       ~location:"m.xq" ~fn:"wa" []);
  check bool_ "a.xml's version moved" true (version "a.xml" > a0);
  check int_ "b.xml's version did not" b0 (version "b.xml");
  check string_ "b unchanged" "<b>2</b>" (call "rb");
  check string_ "a sees the update" "<a>1<x/></a>" (call "ra")

(* a transaction [qid] holding filmDB at y in the prepared state, as an
   earlier distributed update would, so a later one's Prepare votes no *)
let hold_prepared y qid =
  let update =
    {
      Message.module_uri = Filmdb.module_ns;
      location = Filmdb.module_at;
      method_ = "addFilm";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = Some qid;
      idem_key = None;
      calls = [ [ [ Xdm.str "Blocker" ]; [ Xdm.str "B" ] ] ];
    }
  in
  ignore (Peer.handle_raw y (Message.to_string (Message.Request update)));
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Prepare, qid))))

let release y qid =
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Rollback, qid))))

let blocker_qid timestamp =
  { Message.host = "xrpc://blocker"; timestamp; timeout = 1000;
    level = Message.Repeatable }

let test_aborted_2pc_does_not_invalidate () =
  (* deterministic presumed-abort schedule: a prepared blocker at y makes
     the distributed update abort — the rollback never reaches
     Database.commit, so a read answers what it answered before; after
     the blocker is rolled back, the rerun commits and a read sees it *)
  let cluster =
    Cluster.create ~config:sim_config
      ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  let y = Cluster.peer cluster "y.example.org" in
  Filmdb.install y ();
  Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let before = Xdm.to_display (films_by client ~dest "Sean Connery") in
  (* an earlier transaction holds the prepared state on filmDB at y *)
  let blocker = blocker_qid "0.1" in
  hold_prepared y blocker;
  let q_doomed =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("Doomed", "Sean Connery")}|}
  in
  let aborted = Peer.query x q_doomed in
  check bool_ "commit refused" false aborted.Peer.committed;
  check string_ "a read is unchanged by the abort" before
    (Xdm.to_display (films_by client ~dest "Sean Connery"));
  (* release the blocker; the rerun commits and is seen *)
  release y blocker;
  let committed = Peer.query x q_doomed in
  check bool_ "rerun commits" true committed.Peer.committed;
  let after = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check bool_ "the committed film is visible" true (contains after "Doomed");
  check string_ "the read is the committed state" (committed_films y) after

let test_query_id_bypasses_cache () =
  (* R'_Fr: a queryID-pinned read keeps the snapshot it pinned at first
     contact, while an unpinned read sees a later commit *)
  let cluster, x, _ = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let qid =
    { Message.host = "xrpc://x.example.org"; timestamp = "1.0";
      timeout = 1000; level = Message.Repeatable }
  in
  let pinned = Xdm.to_display (films_by client ~dest ~query_id:qid "Sean Connery") in
  let r =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Later", "Sean Connery")}|}
  in
  check bool_ "update applied" true r.Peer.committed;
  check string_ "the pinned read keeps its snapshot" pinned
    (Xdm.to_display (films_by client ~dest ~query_id:qid "Sean Connery"));
  check bool_ "an unpinned read sees the commit" true
    (contains (Xdm.to_display (films_by client ~dest "Sean Connery")) "Later")

let test_trace_events () =
  (* a repeated ad-hoc query records the plan cache's hit event *)
  let peer = Peer.create "xrpc://plan.local" in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      ignore (Peer.query_seq peer "2 + 2");
      ignore (Peer.query_seq peer "2 + 2");
      let events =
        List.concat_map
          (fun s -> List.map (fun e -> e.Trace.e_name) s.Trace.events)
          (Trace.spans ())
      in
      check bool_ "plan-cache-hit" true (List.mem "plan-cache-hit" events))

(* ------------------------------------------------------------------ *)
(* Seeded chaos: every read is the committed state                     *)
(* ------------------------------------------------------------------ *)

let chaos_policy =
  {
    Transport.timeout_ms = 1_000.;
    max_retries = 4;
    backoff_base_ms = 5.;
    backoff_cap_ms = 40.;
    backoff_jitter = 0.5;
    breaker_threshold = 0;
    breaker_cooldown_ms = 100.;
  }

let chaos_seeds () =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> List.init 8 (fun i -> 100 + i)

let replay_hint seed = Printf.sprintf "FAULT_SEED=%d dune runtest" seed

let test_chaos_cached_answers_consistent () =
  (* interleave reads with distributed 2PC updates under seeded faults;
     half the updates meet a transaction holding y prepared, so they
     abort (or, under loss, may fail before 2PC).  Each read that gets an answer must equal y's committed state when
     it was sent or when it returned, and must never show an update whose
     transaction aborted.  After the network recovers and in-doubt
     participants resolve, a read equals y's committed state exactly, and
     both participants' committed states show every update whose
     transaction committed and none that aborted. *)
  List.iter
    (fun seed ->
      let cluster =
        Cluster.create ~config:sim_config
          ~faults:(Simnet.chaos ~seed ~loss:0.1 ())
          ~policy:chaos_policy
          ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
      in
      let x = Cluster.peer cluster "x.example.org" in
      let y = Cluster.peer cluster "y.example.org" in
      let z = Cluster.peer cluster "z.example.org" in
      Filmdb.install y ();
      Filmdb.install z ~variant:`Z ();
      Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
        Filmdb.film_module;
      let client = Cluster.client cluster in
      let dest = "xrpc://y.example.org" in
      let rng = Random.State.make [| seed; 77 |] in
      let committed = ref [] and aborted = ref [] in
      let check_aborted_unseen what answer =
        List.iter
          (fun title ->
            if contains answer title then
              Alcotest.failf "seed %d: %s shows %s, whose transaction \
                              aborted\nreplay: %s"
                seed what title (replay_hint seed))
          !aborted
      in
      for step = 1 to 6 do
        if Random.State.int rng 3 = 0 then begin
          let title = Printf.sprintf "C%d-%d" seed step in
          let blocker = blocker_qid (Printf.sprintf "0.%d" step) in
          let blocked = Random.State.bool rng in
          if blocked then hold_prepared y blocker;
          (match
            Peer.query x
              (Printf.sprintf
                 {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm(%S, "Sean Connery")}|}
                 title)
          with
          | r when r.Peer.committed -> committed := title :: !committed
          | _ -> aborted := title :: !aborted
          | exception _ -> ());
          if blocked then release y blocker
        end
        else
          let before = committed_films y in
          match Xdm.to_display (films_by client ~dest "Sean Connery") with
          | exception _ -> ()
          | got ->
              let after = committed_films y in
              if got <> before && got <> after then
                Alcotest.failf
                  "seed %d step %d: read %s is neither committed state \
                   around it\nreplay: %s"
                  seed step got (replay_hint seed);
              check_aborted_unseen (Printf.sprintf "step %d's read" step) got
      done;
      (* network recovers; in-doubt participants learn the decision *)
      Cluster.clear_faults cluster;
      Simnet.sleep (Cluster.net cluster)
        (chaos_policy.Transport.breaker_cooldown_ms +. 1.);
      ignore (Cluster.resolve_in_doubt cluster);
      let got = Xdm.to_display (films_by client ~dest "Sean Connery") in
      let state = committed_films y in
      if got <> state then
        Alcotest.failf
          "seed %d: recovered read diverges from the committed state\n\
           read:      %s\ncommitted: %s\nreplay: %s"
          seed got state (replay_hint seed);
      List.iter
        (fun (name, state) ->
          check_aborted_unseen (name ^ "'s committed state") state;
          List.iter
            (fun title ->
              if not (contains state title) then
                Alcotest.failf "seed %d: committed %s is missing at %s\n\
                                replay: %s"
                  seed title name (replay_hint seed))
            !committed)
        [ ("y", got); ("z", committed_films z) ])
    (chaos_seeds ())

let () =
  Alcotest.run "cache"
    [
      ( "normalize",
        [
          Alcotest.test_case "whitespace-insensitive" `Quick
            test_canonical_insensitive;
          Alcotest.test_case "literal kinds disjoint" `Quick
            test_canonical_literal_kinds;
          Alcotest.test_case "constructor raw fallback" `Quick
            test_canonical_raw_fallback;
          QCheck_alcotest.to_alcotest prop_canonical_reformat_invariant;
          QCheck_alcotest.to_alcotest prop_literal_kinds_never_collide;
        ] );
      ( "lru",
        [
          Alcotest.test_case "bounds and recency" `Quick
            test_lru_bounds_and_recency;
          Alcotest.test_case "disabled" `Quick test_lru_disabled;
          Alcotest.test_case "remove_if is not an eviction" `Quick
            test_lru_remove_if_vs_evictions;
          Alcotest.test_case "counters" `Quick test_lru_counters;
          Alcotest.test_case "remove_if mid-scan" `Quick
            test_lru_remove_if_multi;
          Alcotest.test_case "concurrent find, add and remove_if" `Quick
            test_lru_concurrent;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "reuse, identical answers" `Quick
            test_plan_cache_reuse;
          Alcotest.test_case "globals rebound per run" `Quick
            test_plan_cache_rebinds_globals;
          Alcotest.test_case "module re-registration invalidates" `Quick
            test_plan_cache_module_invalidation;
          Alcotest.test_case "concurrent queries overflow the alias map"
            `Quick test_plan_cache_concurrent_queries;
          Alcotest.test_case "explain compiles once" `Quick
            test_explain_compiles_once;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "update-then-read invalidates" `Quick
            test_update_then_read_invalidates;
          Alcotest.test_case "version-vector precision" `Quick
            test_version_vector_precision;
          Alcotest.test_case "aborted 2PC does not invalidate" `Quick
            test_aborted_2pc_does_not_invalidate;
          Alcotest.test_case "queryID bypasses" `Quick
            test_query_id_bypasses_cache;
          Alcotest.test_case "trace events" `Quick test_trace_events;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "cached answers consistent under faults" `Quick
            test_chaos_cached_answers_consistent;
        ] );
    ]
