(* Two-level caching suite (plan cache + semantic result cache).

   Covers: canonical-key normalization (whitespace/comment insensitivity,
   literal-kind tagging, the direct-constructor raw fallback), the bounded
   LRU primitive, plan-cache reuse at a peer (same answer, fresh global
   bindings, module re-registration invalidates), and the semantic result
   cache across a simulated cluster: version-vector invalidation on
   committed updates, precision (an update to one document keeps entries
   that depend only on another), the deterministic aborted-2PC schedule
   (presumed abort must NOT invalidate — and the later committed rerun
   must), queryID bypass, the cache="off" escape hatch, serverProfile
   phase attribution (a warm repeat runs zero exec phases), trace events,
   and a seeded chaos sweep where cached answers must stay consistent with
   cache-off answers while distributed updates commit and abort around
   them.  Replay the chaos schedules with FAULT_SEED=<n> dune runtest.

   The result-cache key is checked against the canonical key it replaced
   (test/result_cache_ref.ml) on seeded near-equal call lists and on the
   requests the suites send (replay with KEY_SEED=<n>), and its admission
   rule — Bulk RPC answers on their second sighting, one-call answers at
   once — across commits, module re-registration, doorkeeper resets and
   8 threads. *)

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
     series; a lookup whose validity check fails drops the entry and
     counts as stale and as a miss *)
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
  check (Alcotest.option int_) "refused entry is a miss" None
    (Lru.find lru "c" ~valid:(fun v -> v <> 3));
  check (Alcotest.option int_) "and is gone" None (Lru.find lru "c");
  ignore (Lru.remove_if lru (fun k _ -> k = "a"));
  let s = Lru.stats lru in
  List.iter
    (fun (kind, n, want) ->
      check int_ kind want n;
      check int_ (kind ^ " series") want (series kind))
    [ ("hits", s.Lru.hits, 1); ("misses", s.Lru.misses, 3);
      ("evictions", s.Lru.evictions, 1); ("stale", s.Lru.stale, 1);
      ("invalidations", s.Lru.invalidations, 1) ];
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
  (* 8 threads mix validated lookups, inserts and invalidations on one
     small cache.  A value encodes its key and its writer (key * 100 +
     thread); entries from odd threads fail the validity check.  The
     bound holds throughout, every lookup is counted exactly once, and a
     lookup returns only a value added under its own key. *)
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
          match
            Lru.find lru (string_of_int k) ~valid:(fun v -> v mod 2 = 0)
          with
          | Some v when v / 100 <> k || v mod 2 <> 0 -> Atomic.incr wrong
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
  check bool_ "the validity check refused some entries" true (s.Lru.stale > 0)

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
(* Result cache across a cluster                                       *)
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

let result_stats peer = (Peer.cache_stats peer).Peer.result

let films_by ?cache ?query_id client ~dest actor =
  Client.call client ~dest ?cache ?query_id ~module_uri:Filmdb.module_ns
    ~location:Filmdb.module_at ~fn:"filmsByActor"
    [ [ Xdm.str actor ] ]

let test_result_cache_hit () =
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let a = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let b = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check string_ "repeat answers identically" a b;
  let s = result_stats y in
  check int_ "first call executed" 1 s.Lru.misses;
  check int_ "second was served from cache" 1 s.Lru.hits;
  check int_ "one entry" 1 s.Lru.size

let test_update_then_read_invalidates () =
  (* a committed remote update (rule R_Fu) must evict the dependent
     entry: the next read executes and sees the new film, identically to
     a cache=off read *)
  let cluster, x, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  ignore (films_by client ~dest "Sean Connery");
  ignore (films_by client ~dest "Sean Connery");
  check int_ "warm" 1 (result_stats y).Lru.hits;
  let r =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Fresh", "Sean Connery")}|}
  in
  check bool_ "update applied" true r.Peer.committed;
  check bool_ "commit evicted the dependent entry" true
    ((result_stats y).Lru.invalidations >= 1);
  let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "post-update cached == cache-off" off cached;
  check bool_ "the new film is visible" true (contains cached "Fresh")

let test_version_vector_precision () =
  (* entries are pinned per document: an update touching a.xml evicts
     only the entries that read a.xml *)
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
    Client.call client ~dest:"xrpc://y" ~module_uri:"m" ~location:"m.xq" ~fn []
  in
  ignore (call "ra");
  ignore (call "rb");
  check int_ "both entries cached" 2 (result_stats y).Lru.size;
  ignore
    (Client.call client ~dest:"xrpc://y" ~updating:true ~module_uri:"m"
       ~location:"m.xq" ~fn:"wa" []);
  check int_ "only the a.xml entry was evicted" 1
    (result_stats y).Lru.invalidations;
  check int_ "b.xml entry survives" 1 (result_stats y).Lru.size;
  let hits0 = (result_stats y).Lru.hits in
  ignore (call "rb");
  check int_ "b repeat still hits" (hits0 + 1) (result_stats y).Lru.hits;
  check string_ "a repeat re-executes and sees the update" "<a>1<x/></a>"
    (Xdm.to_display (call "ra"))

let test_aborted_2pc_does_not_invalidate () =
  (* deterministic presumed-abort schedule: a prepared blocker at y makes
     the distributed update abort — the rollback never reaches
     Database.commit, so the cache keeps its (still correct) entry; after
     the blocker is rolled back, the rerun commits and must invalidate *)
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
  let warm = Xdm.to_display (films_by client ~dest "Sean Connery") in
  ignore (films_by client ~dest "Sean Connery");
  check int_ "warm" 1 (result_stats y).Lru.hits;
  (* an earlier transaction holds the prepared state on filmDB at y *)
  let blocker =
    { Message.host = "xrpc://blocker"; timestamp = "0.1"; timeout = 1000;
      level = Message.Repeatable }
  in
  let blocking_update =
    {
      Message.module_uri = Filmdb.module_ns;
      location = Filmdb.module_at;
      method_ = "addFilm";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = Some blocker;
      idem_key = None;
      cache_ok = true;
      calls = [ [ [ Xdm.str "Blocker" ]; [ Xdm.str "B" ] ] ];
    }
  in
  ignore (Peer.handle_raw y (Message.to_string (Message.Request blocking_update)));
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Prepare, blocker))));
  let q_doomed =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("Doomed", "Sean Connery")}|}
  in
  let aborted = Peer.query x q_doomed in
  check bool_ "commit refused" false aborted.Peer.committed;
  check int_ "aborted 2PC invalidated nothing" 0
    (result_stats y).Lru.invalidations;
  let after_abort = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check string_ "cached answer unchanged by the abort" warm after_abort;
  check int_ "and it was still a cache hit" 2 (result_stats y).Lru.hits;
  check string_ "cache-off agrees" warm
    (Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery"));
  (* release the blocker; the rerun commits — and THAT invalidates *)
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Rollback, blocker))));
  let committed = Peer.query x q_doomed in
  check bool_ "rerun commits" true committed.Peer.committed;
  check bool_ "committed 2PC invalidates" true
    ((result_stats y).Lru.invalidations >= 1);
  let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "post-commit cached == cache-off" off cached;
  check bool_ "the committed film is visible" true (cached <> warm)

let test_query_id_bypasses_cache () =
  (* R'_Fr calls pin a snapshot that may diverge from the current
     version; they must not populate or consult the cache *)
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let qid =
    { Message.host = "xrpc://x.example.org"; timestamp = "1.0";
      timeout = 1000; level = Message.Repeatable }
  in
  ignore (films_by client ~dest ~query_id:qid "Sean Connery");
  ignore (films_by client ~dest ~query_id:qid "Sean Connery");
  let s = result_stats y in
  check int_ "no lookups" 0 (s.Lru.hits + s.Lru.misses);
  check int_ "no entries" 0 s.Lru.size

let test_cache_off_escape_hatch () =
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let warm = Xdm.to_display (films_by client ~dest "Sean Connery") in
  ignore (films_by client ~dest "Sean Connery");
  let hits0 = (result_stats y).Lru.hits in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "cache=off answers identically" warm off;
  check int_ "cache=off never consults the cache" hits0
    (result_stats y).Lru.hits;
  ignore (films_by client ~dest "Sean Connery");
  check int_ "back on" (hits0 + 1) (result_stats y).Lru.hits

let test_warm_repeat_runs_zero_exec_phases () =
  (* the acceptance check: serverProfile of a warm repeat shows the cache
     phase and NO exec phase at the serving peer *)
  let cluster, _, _ = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  ignore (films_by client ~dest "Sean Connery");
  let _, profile =
    Client.call_profiled client ~dest ~module_uri:Filmdb.module_ns
      ~location:Filmdb.module_at ~fn:"filmsByActor"
      [ [ Xdm.str "Sean Connery" ] ]
  in
  let phases =
    List.concat_map
      (fun (_, d) -> List.map fst d.Profile.d_remote)
      (Profile.dests profile)
  in
  check bool_ "cache phase present" true (List.mem "cache" phases);
  check bool_ "no exec phase" false (List.mem "exec" phases)

let test_trace_events () =
  let cluster, x, _ = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      ignore (Peer.query_seq x "2 + 2");
      ignore (Peer.query_seq x "2 + 2");
      ignore (films_by client ~dest "Sean Connery");
      ignore (films_by client ~dest "Sean Connery");
      let events =
        List.concat_map
          (fun s -> List.map (fun e -> e.Trace.e_name) s.Trace.events)
          (Trace.spans ())
      in
      List.iter
        (fun name ->
          check bool_ name true (List.mem name events))
        [ "plan-cache-hit"; "result-cache-hit"; "remote-cache-hit" ])

(* ------------------------------------------------------------------ *)
(* Result-cache key: the direct encoding vs the canonical oracle       *)
(* ------------------------------------------------------------------ *)

module Result_cache = Xrpc_peer.Result_cache

(* identity functions over a document: the suites' call shapes *)
let ids_module =
  {|module namespace i = "ids";
declare function i:id($x) { $x };
declare function i:pair($x, $y) { ($x, $y) };
declare function i:doc() { doc("d.xml") };
declare updating function i:touch() { insert node <t/> into exactly-one(doc("d.xml")/d) };|}

type request = {
  r_module : string;
  r_fn : string;
  r_arity : int;
  r_calls : Xdm.sequence list list;
}

let direct_key r =
  Result_cache.key ~module_uri:r.r_module ~fn:r.r_fn ~arity:r.r_arity
    ~calls:r.r_calls

let oracle_key r =
  Result_cache_ref.key ~module_uri:r.r_module ~fn:r.r_fn ~arity:r.r_arity
    ~calls:r.r_calls

(* [ref a = ref b] iff [key a = key b]; true when the pair is equal *)
let check_key_pair what a b =
  let oracle = oracle_key a = oracle_key b in
  let direct = direct_key a = direct_key b in
  if oracle <> direct then
    Alcotest.failf "%s: the oracle says %s, the direct key says %s\nkeys: %S\n  vs %S"
      what
      (if oracle then "equal" else "different")
      (if direct then "equal" else "different")
      (oracle_key a) (oracle_key b);
  oracle

let key_seed () =
  match Sys.getenv_opt "KEY_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 2026

(* every node kind, including element twins that serialize identically
   and text that holds NUL and \001 *)
let key_nodes =
  lazy
    (let q = Qname.make in
     let tree variant =
       Tree.Document
         [
           Tree.elem (q "r")
             ~attrs:[ Tree.attr (q "a") "1"; Tree.attr (q "b") ("x:" ^ variant) ]
             [
               Tree.elem (q "e") [ Tree.text "t" ];
               Tree.elem (q "e") [ Tree.text "t" ];
               Tree.elem (q "e") [ Tree.text ("t\001" ^ variant) ];
               Tree.elem (q ~prefix:"p" ~uri:"urn:p" "g")
                 ~attrs:[ Tree.attr (q ~prefix:"p" ~uri:"urn:p" "a") "\000" ]
                 [];
               Tree.text ("text" ^ variant);
               Tree.Comment "c";
               Tree.Pi { target = "pi"; data = "d" ^ variant };
             ];
         ]
     in
     List.concat_map
       (fun v ->
         let nodes = Store.descendant_or_self (Store.root (Store.shred (tree v))) in
         nodes @ List.concat_map Store.attributes nodes)
       [ "1"; "2" ]
     |> Array.of_list)

let key_strings =
  [| ""; "a"; "ab"; "1"; "12"; ":"; "1:"; ":1"; "a:1"; "\000"; "\001";
     "a\000"; "\000a"; "a\001b"; "1\0002"; "1:\0002"; "<e>t</e>"; "&"; " " |]

let key_floats = [| 0.; -0.; 1.; 1.5; 12.; 1e21; Float.infinity; Float.nan |]

let key_qnames =
  [| Qname.make "a"; Qname.make ~prefix:"p" ~uri:"urn:p" "a";
     Qname.make ~prefix:"p" ~uri:"urn:q" "a"; Qname.make ~prefix:"q" ~uri:"urn:p" "a" |]

let pick_a rng a = a.(Random.State.int rng (Array.length a))

let gen_key_string rng =
  if Random.State.bool rng then pick_a rng key_strings
  else
    String.init (Random.State.int rng 5) (fun _ ->
        pick_a rng [| 'a'; '1'; ':'; '\000'; '\001'; '<'; '&'; ' ' |])

let gen_atomic rng =
  let s () = gen_key_string rng and f () = pick_a rng key_floats in
  match Random.State.int rng 13 with
  | 0 -> Xs.String (s ())
  | 1 -> Xs.Boolean (Random.State.bool rng)
  | 2 -> Xs.Integer (Random.State.int rng 16 - 3)
  | 3 -> Xs.Decimal (f ())
  | 4 -> Xs.Double (f ())
  | 5 -> Xs.Float (f ())
  | 6 -> Xs.Untyped (s ())
  | 7 -> Xs.AnyURI (s ())
  | 8 -> Xs.QName (pick_a rng key_qnames)
  | 9 -> Xs.Date (s ())
  | 10 -> Xs.DateTime (s ())
  | 11 -> Xs.Time (s ())
  | _ -> Xs.Duration (s ())

let gen_item rng =
  if Random.State.int rng 10 < 7 then Xdm.Atomic (gen_atomic rng)
  else Xdm.Node (pick_a rng (Lazy.force key_nodes))

let gen_seq rng = List.init (Random.State.int rng 4) (fun _ -> gen_item rng)

let gen_request rng =
  let arity = Random.State.int rng 4 in
  {
    r_module = "m";
    r_fn = "f";
    r_arity = arity;
    r_calls =
      List.init (1 + Random.State.int rng 3) (fun _ ->
          List.init arity (fun _ -> gen_seq rng));
  }

(* the same value under a neighbouring type, or the same text one
   character longer *)
let near_atomic rng a =
  let text = Xs.to_string a in
  match Random.State.int rng 3 with
  | 0 -> Xs.String text
  | 1 -> Xs.Untyped text
  | _ -> Xs.String (text ^ String.make 1 (pick_a rng [| '\000'; '\001'; ':'; '1' |]))

(* [item]'s bytes inside a direct key: what a hostile string would have
   to embed to pass for an extra item *)
let item_encoding item =
  let k = Result_cache.key ~module_uri:"" ~fn:"" ~arity:1 ~calls:[ [ [ item ] ] ] in
  let header = String.length "\000#1\000\001" in
  String.sub k header (String.length k - header)

(* [x; y] spliced into one string whose text ends in [y]'s encoding *)
let splice x y = Xdm.str (Xdm.string_value x ^ item_encoding y)

(* [f] applied to one random item of the flattened request *)
let map_one_item rng f calls =
  let n =
    List.fold_left
      (fun acc params -> List.fold_left (fun acc s -> acc + List.length s) acc params)
      0 calls
  in
  if n = 0 then calls
  else
    let target = Random.State.int rng n and i = ref (-1) in
    List.map
      (List.map
         (List.map (fun item ->
              incr i;
              if !i = target then f item else item)))
      calls

(* a neighbour of [r]: most mutations keep the oracle key or change it
   by one item, one type, one character or one boundary *)
let mutate rng r =
  let calls = r.r_calls in
  let calls =
    match Random.State.int rng 8 with
    | 0 -> calls
    | 1 -> map_one_item rng (fun _ -> gen_item rng) calls
    | 2 ->
        map_one_item rng
          (function Xdm.Atomic a -> Xdm.Atomic (near_atomic rng a) | it -> it)
          calls
    | 3 ->
        (* a node for another node, often an identical twin *)
        map_one_item rng
          (function
            | Xdm.Node _ -> Xdm.Node (pick_a rng (Lazy.force key_nodes))
            | it -> it)
          calls
    | 4 -> (
        (* shift the first item of a parameter onto the end of the one
           before it: same items, another boundary *)
        let params = List.concat calls in
        let arr = Array.of_list params in
        let n = Array.length arr in
        if n < 2 then calls
        else
          let i = 1 + Random.State.int rng (n - 1) in
          match arr.(i) with
          | [] -> calls
          | x :: rest ->
              arr.(i - 1) <- arr.(i - 1) @ [ x ];
              arr.(i) <- rest;
              let a = r.r_arity in
              List.init (n / a) (fun c -> Array.to_list (Array.sub arr (c * a) a)))
    | 5 ->
        (* the first two items of a parameter spliced into one string *)
        List.map
          (List.map (function x :: y :: rest -> splice x y :: rest | seq -> seq))
          calls
    | 6 -> (
        (* one call fewer, or one call repeated *)
        match calls with
        | c :: rest when Random.State.bool rng -> c :: c :: rest
        | _ :: (_ :: _ as rest) -> rest
        | cs -> cs)
    | _ -> (gen_request rng).r_calls
  in
  { r with r_calls = calls }

let test_key_matches_oracle () =
  let seed = key_seed () in
  let rng = Random.State.make [| seed |] in
  let pairs = 12_000 in
  let equal = ref 0 in
  for i = 1 to pairs do
    let a = gen_request rng in
    let b = mutate rng a in
    if check_key_pair (Printf.sprintf "pair %d (replay: KEY_SEED=%d)" i seed) a b
    then incr equal
  done;
  (* the battery needs both outcomes in volume to mean anything *)
  if !equal < pairs / 10 || pairs - !equal < pairs / 10 then
    Alcotest.failf "%d of %d pairs equal: the mutations lost their mix"
      !equal pairs

(* a NUL or \001 inside a string never shifts a boundary, a string never
   passes for a typed value with the same text, and a string holding an
   item's encoding never passes for that item *)
let test_key_corners () =
  let req calls = { r_module = "m"; r_fn = "f"; r_arity = 2; r_calls = calls } in
  let s = Xdm.str in
  let pairs =
    [
      ([ [ [ s "a\001" ]; [ s "b" ] ] ], [ [ [ s "a" ]; [ s "\001b" ] ] ]);
      ([ [ [ s "a"; s "b" ]; [] ] ], [ [ [ s "a" ]; [ s "b" ] ] ]);
      ([ [ [ s "a\000" ]; [] ]; [ []; [] ] ], [ [ [ s "a" ]; [ s "\000" ] ]; [ []; [] ] ]);
      ([ [ [ s "1" ]; [] ] ], [ [ [ Xdm.int 1 ]; [] ] ]);
      ([ [ [ s "1" ]; [] ] ], [ [ [ Xdm.Atomic (Xs.Untyped "1") ]; [] ] ]);
      ([ [ [ s "1:a" ]; [] ] ], [ [ [ s "1"; s "a" ]; [] ] ]);
      ([ [ [ s "" ]; [] ] ], [ [ []; [] ] ]);
      ([ [ [ s "x"; s "y" ]; [] ] ], [ [ [ splice (s "x") (s "y") ]; [] ] ]);
      ([ [ [ s "1"; Xdm.int 2 ]; [] ] ], [ [ [ splice (s "1") (Xdm.int 2) ]; [] ] ]);
    ]
  in
  List.iteri
    (fun i (a, b) ->
      if check_key_pair (Printf.sprintf "corner %d" i) (req a) (req b) then
        Alcotest.failf "corner %d: distinct calls share a key" i)
    pairs

(* the requests the result-cache and differential suites send, captured
   on the wire at the serving peer: film lookups one at a time and in
   bulk, and the differential corner expressions as call arguments *)
let test_key_matches_oracle_on_suite_requests () =
  let cluster, x, y = film_pair () in
  Peer.register_module x ~uri:"ids" ~location:"ids.xq" ids_module;
  Peer.register_module y ~uri:"ids" ~location:"ids.xq" ids_module;
  let captured = ref [] in
  Simnet.register (Cluster.net cluster) "xrpc://y.example.org" (fun body ->
      (match Message.of_string body with
      | Message.Request r ->
          captured :=
            { r_module = r.Message.module_uri; r_fn = r.Message.method_;
              r_arity = r.Message.arity; r_calls = r.Message.calls }
            :: !captured
      | _ -> ());
      Peer.handle_raw y body);
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  List.iter
    (fun actor -> ignore (films_by client ~dest actor))
    [ "Sean Connery"; "Julie Andrews"; "Sean Connery"; "" ];
  ignore
    (Client.call_bulk client ~dest ~module_uri:Filmdb.module_ns
       ~location:Filmdb.module_at ~fn:"filmsByActor"
       [ [ [ Xdm.str "Sean Connery" ] ]; [ [ Xdm.str "Julie Andrews" ] ] ]);
  let films_import =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
|}
  and ids_import = {|import module namespace i="ids" at "ids.xq";
|} in
  ignore
    (Peer.query x
       (films_import
      ^ {|for $a in ("Sean Connery", "Julie Andrews", "Sean Connery")
return execute at {"xrpc://y.example.org"} {f:filmsByActor($a)}|}));
  List.iter
    (fun e ->
      List.iter
        (fun q -> ignore (Peer.query x (ids_import ^ q)))
        [
          Printf.sprintf {|execute at {"xrpc://y.example.org"} {i:id(%s)}|} e;
          Printf.sprintf
            {|for $v in %s return execute at {"xrpc://y.example.org"} {i:id($v)}|} e;
          Printf.sprintf
            {|execute at {"xrpc://y.example.org"} {i:pair(%s, (%s, "1"))}|} e e;
        ])
    [
      "(1, 2, 3)[2]"; "(1, 2)[5]"; "((10 to 14)[3], (5 to 4)[1])";
      "(for $v at $p in (7, 8, 9) return ($p, $v))";
      "(let $s := (2 to 5) return (count($s), $s[2]))";
      "(if (count(()) = 0) then (1, 2) else 3)";
      {|(<a b="1">t<!--c--></a>, <a b="1">t</a>/@b, comment {"c"}, "t", 1.5,
  xs:double(2))|};
      {|(<e>t</e>, <e>t</e>/text(), <e>t</e>/@*)|};
      {|document { <d>1</d> }|};
    ];
  let reqs = !captured in
  (* each call on its own is a request the suites send as well *)
  let reqs =
    reqs
    @ List.concat_map
        (fun r -> List.map (fun c -> { r with r_calls = [ c ] }) r.r_calls)
        reqs
  in
  if List.length reqs < 40 then
    Alcotest.failf "only %d requests captured" (List.length reqs);
  let equal = ref 0 in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && check_key_pair (Printf.sprintf "requests %d and %d" i j) a b
          then incr equal)
        reqs)
    reqs;
  check bool_ "some captured requests repeat" true (!equal > 0)

(* ------------------------------------------------------------------ *)
(* Result-cache admission: Bulk RPC entries on their second sighting   *)
(* ------------------------------------------------------------------ *)

(* one peer serving the ids module over d.xml, driven through raw SOAP *)
let ids_peer () =
  let p = Peer.create "xrpc://ids.local" in
  Database.add_doc_xml p.Peer.db "d.xml" "<d/>";
  Peer.register_module p ~uri:"ids" ~location:"ids.xq" ids_module;
  p

let ids_request ?(updating = false) fn calls =
  {
    Message.module_uri = "ids";
    location = "ids.xq";
    method_ = fn;
    arity = (match calls with c :: _ -> List.length c | [] -> 0);
    updating;
    fragments = false;
    query_id = None;
    idem_key = None;
    cache_ok = true;
    calls;
  }

let serve p req =
  match Message.of_string (Peer.handle_raw p (Message.to_string (Message.Request req))) with
  | Message.Response r -> r
  | Message.Fault f -> Alcotest.failf "fault: %s" f.Message.reason
  | _ -> Alcotest.fail "not a response"

let deferred p = (Peer.cache_stats p).Peer.result_deferred

let bulk_ids = ids_request "id" [ [ [ Xdm.int 1 ] ]; [ [ Xdm.int 2 ] ] ]

let test_admission_bulk_second_sighting () =
  let p = ids_peer () in
  let series = Metrics.counter "peer.result_cache.deferred" in
  let d0 = series.Metrics.count in
  let first = serve p bulk_ids in
  check bool_ "first: executed" false first.Message.cached;
  check int_ "first: not stored" 0 (result_stats p).Lru.size;
  check int_ "first: deferred" 1 (deferred p);
  check int_ "deferred counted once in the metric series" 1
    (series.Metrics.count - d0);
  let second = serve p bulk_ids in
  check bool_ "second: executed" false second.Message.cached;
  check int_ "second: stored" 1 (result_stats p).Lru.size;
  let third = serve p bulk_ids in
  check bool_ "third: a hit" true third.Message.cached;
  check string_ "same answers"
    (String.concat "|" (List.map Xdm.to_display first.Message.results))
    (String.concat "|" (List.map Xdm.to_display third.Message.results));
  let s = result_stats p in
  check int_ "two misses" 2 s.Lru.misses;
  check int_ "one hit" 1 s.Lru.hits;
  check int_ "still one deferral" 1 (deferred p)

let test_admission_single_first_miss () =
  let p = ids_peer () in
  ignore (serve p (ids_request "id" [ [ [ Xdm.int 1 ] ] ]));
  check int_ "stored on its first miss" 1 (result_stats p).Lru.size;
  check int_ "nothing deferred" 0 (deferred p);
  check bool_ "second: a hit" true
    (serve p (ids_request "id" [ [ [ Xdm.int 1 ] ] ])).Message.cached

let test_admission_restore_after_commit () =
  let p = ids_peer () in
  let bulk = ids_request "doc" [ []; [] ] in
  ignore (serve p bulk);
  ignore (serve p bulk);
  check int_ "stored on the second sighting" 1 (result_stats p).Lru.size;
  check bool_ "and hit" true (serve p bulk).Message.cached;
  ignore (serve p (ids_request ~updating:true "touch" [ [] ]));
  check int_ "the commit invalidated it" 1 (result_stats p).Lru.invalidations;
  check int_ "gone" 0 (result_stats p).Lru.size;
  let after = serve p bulk in
  check bool_ "next read executes" false after.Message.cached;
  check string_ "and sees the write" "<d><t/></d>"
    (Xdm.to_display (List.hd after.Message.results));
  check int_ "re-stored on that miss" 1 (result_stats p).Lru.size;
  check int_ "without a new deferral" 1 (deferred p);
  check bool_ "then hits" true (serve p bulk).Message.cached

let test_admission_module_prefix_eviction () =
  let p = ids_peer () in
  Peer.register_module p ~uri:"ids2" ~location:"ids2.xq"
    {|module namespace j = "ids2";
declare function j:id($x) { $x };|};
  let other = { bulk_ids with Message.module_uri = "ids2"; location = "ids2.xq" } in
  List.iter (fun r -> ignore (serve p r); ignore (serve p r)) [ bulk_ids; other ];
  ignore (serve p (ids_request "id" [ [ [ Xdm.int 7 ] ] ]));
  check int_ "three entries" 3 (result_stats p).Lru.size;
  Peer.register_module p ~uri:"ids" ~location:"ids.xq" ids_module;
  check int_ "both ids entries evicted" 2 (result_stats p).Lru.invalidations;
  check int_ "the ids2 entry survives" 1 (result_stats p).Lru.size;
  check bool_ "ids2 still hits" true (serve p other).Message.cached;
  check bool_ "the bulk ids entry re-stores at once (the doorkeeper remembers)"
    false (serve p bulk_ids).Message.cached;
  check bool_ "and hits" true (serve p bulk_ids).Message.cached

let bulk_key i =
  Result_cache.key ~module_uri:"m" ~fn:"f" ~arity:1
    ~calls:[ [ [ Xdm.int i ] ]; [ [ Xdm.int (-i) ] ] ]

let two_results = [ [ Xdm.int 1 ]; [ Xdm.int 2 ] ]

let test_admission_doorkeeper_bounded () =
  let t = Result_cache.create () in
  let n = (3 * Result_cache.doorkeeper_size) + 17 in
  for i = 1 to n do
    Result_cache.add t ~key:(bulk_key i) ~deps:[] two_results;
    let held = Hashtbl.length t.Result_cache.seen in
    if held > Result_cache.doorkeeper_size then
      Alcotest.failf "doorkeeper holds %d hashes after %d keys" held i
  done;
  check int_ "every first sighting deferred" n (Result_cache.deferred t);
  check int_ "nothing stored" 0 (Lru.stats t.Result_cache.lru).Lru.size;
  (* right after a reset a repeated key still gets in on its second miss *)
  Result_cache.add t ~key:(bulk_key n) ~deps:[] two_results;
  check int_ "the latest key admitted" 1 (Lru.stats t.Result_cache.lru).Lru.size

let test_admission_concurrent () =
  let t = Result_cache.create () in
  let keys = 40 and threads = 8 and rounds = 300 in
  let finds = Atomic.make 0 and wrong = Atomic.make 0 in
  let worker w =
    let rng = Random.State.make [| w |] in
    for _ = 1 to rounds do
      let key = bulk_key (Random.State.int rng keys) in
      Atomic.incr finds;
      match Result_cache.find t ~key ~doc_version:(fun _ -> 0) with
      | Some r -> if r <> two_results then Atomic.incr wrong
      | None -> Result_cache.add t ~key ~deps:[] two_results
    done
  in
  List.iter Thread.join (List.init threads (fun w -> Thread.create worker w));
  let s = Lru.stats t.Result_cache.lru in
  check int_ "every hit returned the stored answer" 0 (Atomic.get wrong);
  check int_ "every lookup counted once" (Atomic.get finds) (s.Lru.hits + s.Lru.misses);
  check int_ "one deferral per distinct key" keys (Result_cache.deferred t);
  check bool_ "no more entries than keys" true (s.Lru.size <= keys);
  check int_ "no evictions below capacity" 0 s.Lru.evictions;
  check bool_ "misses cover every deferral and store" true
    (s.Lru.misses >= keys + s.Lru.size)

(* ------------------------------------------------------------------ *)
(* Seeded chaos: caching never changes an answer                       *)
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
  (* interleave reads (cached, then cache=off) with distributed 2PC
     updates under seeded faults.  During the run a cached answer must
     match one of the uncached answers bracketing it; after the network
     recovers, cached and uncached answers must agree exactly — whatever
     mixture of commits and presumed-abort rollbacks the schedule
     produced.  And if nothing ever committed at y, its result cache must
     show zero invalidations: aborted transactions invalidate nothing. *)
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
      Filmdb.install y ();
      Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
      Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
        Filmdb.film_module;
      let client = Cluster.client cluster in
      let dest = "xrpc://y.example.org" in
      let rng = Random.State.make [| seed; 77 |] in
      let read ?cache () =
        try Some (Xdm.to_display (films_by client ~dest ?cache "Sean Connery"))
        with _ -> None
      in
      for step = 1 to 6 do
        if Random.State.int rng 3 = 0 then
          ignore
            (try
               (Peer.query x
                  (Printf.sprintf
                     {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("C%d-%d", "Sean Connery")}|}
                     seed step))
                 .Peer.committed
             with _ -> false)
        else
          let before = read ~cache:false () in
          let cached = read () in
          let after = read ~cache:false () in
          match cached with
          | None -> ()
          | Some c ->
              if Some c <> before && Some c <> after then
                Alcotest.failf
                  "seed %d step %d: cached answer %s matches neither \
                   bracketing uncached answer\nreplay: %s"
                  seed step c (replay_hint seed)
      done;
      (* network recovers: cached and uncached must agree exactly *)
      Cluster.clear_faults cluster;
      Simnet.sleep (Cluster.net cluster)
        (chaos_policy.Transport.breaker_cooldown_ms +. 1.);
      ignore (Cluster.resolve_in_doubt cluster);
      let off =
        Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery")
      in
      let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
      if cached <> off then
        Alcotest.failf
          "seed %d: recovered cached answer diverges\ncached:    %s\n\
           cache-off: %s\nreplay: %s"
          seed cached off (replay_hint seed);
      (* if y's database never changed, no commit ever fired its hook *)
      let baseline = not (contains off (Printf.sprintf "C%d-" seed)) in
      if baseline && (result_stats y).Lru.invalidations > 0 then
        Alcotest.failf
          "seed %d: no update committed at y, yet its cache was \
           invalidated\nreplay: %s"
          seed (replay_hint seed))
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
          Alcotest.test_case "hit on repeat" `Quick test_result_cache_hit;
          Alcotest.test_case "update-then-read invalidates" `Quick
            test_update_then_read_invalidates;
          Alcotest.test_case "version-vector precision" `Quick
            test_version_vector_precision;
          Alcotest.test_case "aborted 2PC does not invalidate" `Quick
            test_aborted_2pc_does_not_invalidate;
          Alcotest.test_case "queryID bypasses" `Quick
            test_query_id_bypasses_cache;
          Alcotest.test_case "cache=off escape hatch" `Quick
            test_cache_off_escape_hatch;
          Alcotest.test_case "warm repeat: zero exec phases" `Quick
            test_warm_repeat_runs_zero_exec_phases;
          Alcotest.test_case "trace events" `Quick test_trace_events;
        ] );
      ( "result-key",
        [
          Alcotest.test_case "12k seeded pairs vs the canonical oracle" `Quick
            test_key_matches_oracle;
          Alcotest.test_case "boundary and type corners" `Quick test_key_corners;
          Alcotest.test_case "the suites' requests vs the canonical oracle"
            `Quick test_key_matches_oracle_on_suite_requests;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bulk: stored on the second sighting" `Quick
            test_admission_bulk_second_sighting;
          Alcotest.test_case "one call: stored on the first miss" `Quick
            test_admission_single_first_miss;
          Alcotest.test_case "re-stored after a commit" `Quick
            test_admission_restore_after_commit;
          Alcotest.test_case "module re-registration evicts by prefix" `Quick
            test_admission_module_prefix_eviction;
          Alcotest.test_case "doorkeeper stays bounded" `Quick
            test_admission_doorkeeper_bounded;
          Alcotest.test_case "8 threads, overlapping bulk keys" `Quick
            test_admission_concurrent;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "cached answers consistent under faults" `Quick
            test_chaos_cached_answers_consistent;
        ] );
    ]
