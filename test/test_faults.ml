(* Chaos suite: deterministic fault injection over the simulated network.

   Every schedule is driven by one seeded PRNG on the virtual clock, so a
   failing run is replayed exactly with

     FAULT_SEED=<n> dune runtest

   The suite covers: the backoff/jitter schedule and the circuit breaker
   (pure unit tests on a fake clock), per-fault-kind injection coverage,
   bit-for-bit replay determinism, a ~100-seed atomicity sweep over
   distributed updating queries (2PC + in-doubt recovery must leave every
   peer all-or-nothing), the same sweep with the participants resolved
   through xrpc://shard/<key> routing, the exactly-once property under duplicate
   delivery (with its negative control: idempotency cache off), and the
   retries-off negative control (the same seeds that commit with retries
   demonstrably abort without them). *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Strategies = Xrpc_core.Strategies
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Xmark = Xrpc_workloads.Xmark
module Lru = Xrpc_peer.Lru
module Two_pc = Xrpc_peer.Two_pc
module Filmdb = Xrpc_workloads.Filmdb
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Message = Xrpc_soap.Message

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let float_ = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Backoff schedule (satellite: deterministic delays, cap, jitter)     *)
(* ------------------------------------------------------------------ *)

let pol =
  {
    Transport.default_policy with
    backoff_base_ms = 5.;
    backoff_cap_ms = 200.;
    backoff_jitter = 0.5;
  }

let test_backoff_exponential_capped () =
  (* rand = 1 keeps the full delay: pure exponential, clamped at the cap *)
  let d attempt = Transport.backoff_delay pol ~attempt ~rand:(fun () -> 1.) in
  List.iteri
    (fun attempt expected ->
      check float_
        (Printf.sprintf "attempt %d" attempt)
        expected (d attempt))
    [ 5.; 10.; 20.; 40.; 80.; 160.; 200.; 200. ]

let test_backoff_jitter_bounds () =
  (* jitter j randomizes the top fraction: delay ∈ [(1-j)·d, d] *)
  let lo = Transport.backoff_delay pol ~attempt:3 ~rand:(fun () -> 0.) in
  let hi = Transport.backoff_delay pol ~attempt:3 ~rand:(fun () -> 1.) in
  check float_ "floor is (1-j)·d" 20. lo;
  check float_ "ceiling is d" 40. hi;
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 100 do
    let d =
      Transport.backoff_delay pol ~attempt:3
        ~rand:(fun () -> Random.State.float rng 1.0)
    in
    if d < 20. || d > 40. then
      Alcotest.failf "jittered delay %.3f outside [20,40]" d
  done

let test_backoff_jitter_clamped () =
  (* out-of-range jitter values are clamped into [0,1] *)
  let crazy = { pol with backoff_jitter = 2. } in
  check float_ "jitter>1 behaves as 1" 0.
    (Transport.backoff_delay crazy ~attempt:0 ~rand:(fun () -> 0.));
  let none = { pol with backoff_jitter = -1. } in
  check float_ "jitter<0 behaves as 0" 5.
    (Transport.backoff_delay none ~attempt:0 ~rand:(fun () -> 0.5))

(* ------------------------------------------------------------------ *)
(* Circuit breaker on a fake clock (no real time anywhere)             *)
(* ------------------------------------------------------------------ *)

let breaker_fixture () =
  let t = ref 0. in
  let inner_calls = ref 0 in
  let failing = ref true in
  let inner =
    Transport.sequential (fun ~dest _body ->
        incr inner_calls;
        if !failing then
          Transport.error ~kind:Transport.Unreachable ~dest "down"
        else "pong")
  in
  let policy =
    {
      Transport.default_policy with
      max_retries = 0;
      breaker_threshold = 3;
      breaker_cooldown_ms = 100.;
    }
  in
  let p =
    Transport.with_policy ~policy
      ~now:(fun () -> !t)
      ~sleep:(fun d -> t := !t +. d)
      inner
  in
  (t, inner_calls, failing, p)

let expect_error f =
  match f () with
  | exception Transport.Error { kind; _ } -> kind
  | _ -> Alcotest.fail "expected a transport error"

let test_breaker_opens_and_fast_fails () =
  let _t, inner_calls, _failing, p = breaker_fixture () in
  let send () = (Transport.transport p).Transport.send ~dest:"d" "x" in
  for _ = 1 to 3 do
    check bool_ "unreachable" true (expect_error send = Transport.Unreachable)
  done;
  check bool_ "open after threshold" true
    (match Transport.breaker_state p "d" with
    | Transport.Open _ -> true
    | _ -> false);
  (* open circuit rejects locally without touching the wire *)
  check bool_ "fast fail" true (expect_error send = Transport.Circuit_open);
  check int_ "inner not called on fast fail" 3 !inner_calls;
  check int_ "fast fail counted" 1 (Transport.stats p).Transport.fast_fails

let test_breaker_half_open_then_reopens () =
  let t, inner_calls, _failing, p = breaker_fixture () in
  let send () = (Transport.transport p).Transport.send ~dest:"d" "x" in
  for _ = 1 to 3 do
    ignore (expect_error send)
  done;
  t := !t +. 100.;
  (* cooldown elapsed: one trial request goes through (half-open)... *)
  check bool_ "trial unreachable" true
    (expect_error send = Transport.Unreachable);
  check int_ "trial hit the wire" 4 !inner_calls;
  (* ...and its failure re-opens the circuit with a fresh cooldown *)
  check bool_ "re-opened" true (expect_error send = Transport.Circuit_open);
  check int_ "fast fail after reopen" 4 !inner_calls

let test_breaker_closes_on_success () =
  let t, _inner_calls, failing, p = breaker_fixture () in
  let send () = (Transport.transport p).Transport.send ~dest:"d" "x" in
  for _ = 1 to 3 do
    ignore (expect_error send)
  done;
  t := !t +. 100.;
  failing := false;
  check string_ "trial succeeds" "pong" (send ());
  check bool_ "closed again" true (Transport.breaker_state p "d" = Transport.Closed);
  check string_ "stays closed" "pong" (send ());
  check int_ "one open recorded" 1 (Transport.stats p).Transport.circuit_opens

let test_retry_until_success () =
  (* two failures then success: 3 attempts, 2 retries, backoff on the fake
     clock only *)
  let t = ref 0. in
  let left = ref 2 in
  let inner =
    Transport.sequential (fun ~dest _ ->
        if !left > 0 then begin
          decr left;
          Transport.error ~kind:Transport.Timeout ~dest "lost"
        end
        else "ok")
  in
  let p =
    Transport.with_policy
      ~policy:{ pol with max_retries = 3; backoff_jitter = 0. }
      ~now:(fun () -> !t)
      ~sleep:(fun d -> t := !t +. d)
      inner
  in
  check string_ "eventually ok" "ok" ((Transport.transport p).Transport.send ~dest:"d" "x");
  check int_ "attempts" 3 (Transport.stats p).Transport.attempts;
  check int_ "retries" 2 (Transport.stats p).Transport.retries;
  (* deterministic backoff with jitter off: 5 + 10 ms *)
  check float_ "slept exactly the schedule" 15. !t

(* ------------------------------------------------------------------ *)
(* Chaos clusters                                                      *)
(* ------------------------------------------------------------------ *)

(* determinism requires modeled time only: charge_cpu must be off *)
let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

let chaos_policy =
  {
    Transport.timeout_ms = 1_000.;
    max_retries = 4;
    backoff_base_ms = 5.;
    backoff_cap_ms = 40.;
    backoff_jitter = 0.5;
    breaker_threshold = 0 (* breaker covered by its own unit tests *);
    breaker_cooldown_ms = 100.;
  }

let names = [ "x.example.org"; "y.example.org"; "z.example.org" ]

let chaos_cluster ?faults ?policy () =
  let cluster = Cluster.create ~config:sim_config ?faults ?policy ~names () in
  let x = Cluster.peer cluster "x.example.org" in
  Filmdb.install (Cluster.peer cluster "y.example.org") ();
  Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  (cluster, x)

let q_2pc =
  {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("New", "Actor New")}|}

let count_film peer name =
  match
    Peer.query_seq peer
      (Printf.sprintf {|count(doc("filmDB.xml")//film[name = %S])|} name)
  with
  | [ Xdm.Atomic (Xs.Integer n) ] -> n
  | r -> Alcotest.failf "unexpected count result %s" (Xdm.to_display r)

(* ------------------------------------------------------------------ *)
(* Fault-kind coverage: one seeded schedule exercises every injector   *)
(* ------------------------------------------------------------------ *)

let test_fault_kinds_all_exercised () =
  let cluster, x =
    chaos_cluster
      ~faults:(Simnet.chaos ~seed:3 ~loss:0.15 ())
      ~policy:chaos_policy ()
  in
  (* q3 fans out to two peers in parallel — the reorderable shape *)
  for _ = 1 to 40 do
    (try
       ignore
         (Peer.query_seq x
            (Filmdb.q3 ~dest1:"xrpc://y.example.org"
               ~dest2:"xrpc://z.example.org"))
     with _ -> ())
  done;
  (* explicit controls: partition, heal, crash, restart *)
  Cluster.partition cluster [ "y.example.org" ];
  (try ignore (Peer.query_seq x (Filmdb.q1 ~dest:"xrpc://y.example.org"))
   with _ -> ());
  Cluster.heal cluster;
  Cluster.crash cluster "z.example.org";
  (try ignore (Peer.query_seq x (Filmdb.q1 ~dest:"xrpc://z.example.org"))
   with _ -> ());
  Cluster.restart cluster "z.example.org";
  ignore (Peer.query_seq x (Filmdb.q1 ~dest:"xrpc://z.example.org"));
  match Cluster.fault_stats cluster with
  | None -> Alcotest.fail "fault stats missing"
  | Some fs ->
      let nonzero what n =
        if n <= 0 then Alcotest.failf "fault kind never exercised: %s" what
      in
      nonzero "dropped request" fs.Simnet.dropped_requests;
      nonzero "dropped response" fs.Simnet.dropped_responses;
      nonzero "duplicate" fs.Simnet.duplicated;
      nonzero "delay" fs.Simnet.delayed;
      nonzero "reorder" fs.Simnet.reordered;
      nonzero "crash" fs.Simnet.crashes;
      nonzero "restart" fs.Simnet.restarts;
      nonzero "unreachable" fs.Simnet.unreachable

(* ------------------------------------------------------------------ *)
(* Replay determinism: same seed ⟹ bit-for-bit same run               *)
(* ------------------------------------------------------------------ *)

type trace = {
  clock : float;
  messages : int;
  bytes : int;
  faults : int * int * int * int * int * int * int * int;
  committed : bool;
  y_new : int;
  z_new : int;
  result : string;
}

let run_traced ~seed ~loss ~policy () =
  let cluster, x =
    chaos_cluster ~faults:(Simnet.chaos ~seed ~loss ()) ~policy ()
  in
  let committed, result =
    match Peer.query x q_2pc with
    | r -> (r.Peer.committed, Xdm.to_display r.Peer.value)
    | exception e -> (false, "error: " ^ Printexc.to_string e)
  in
  let clock = Cluster.clock_ms cluster in
  let stats = Cluster.stats cluster in
  let fs =
    match Cluster.fault_stats cluster with
    | Some f ->
        ( f.Simnet.dropped_requests, f.Simnet.dropped_responses,
          f.Simnet.duplicated, f.Simnet.delayed, f.Simnet.reordered,
          f.Simnet.crashes, f.Simnet.restarts, f.Simnet.unreachable )
    | None -> (0, 0, 0, 0, 0, 0, 0, 0)
  in
  (* network recovers: lift faults, let breakers cool, resolve in-doubt *)
  Cluster.clear_faults cluster;
  Simnet.sleep (Cluster.net cluster) (chaos_policy.Transport.breaker_cooldown_ms +. 1.);
  ignore (Cluster.resolve_in_doubt cluster);
  {
    clock;
    messages = stats.Simnet.messages;
    bytes = stats.Simnet.bytes_sent;
    faults = fs;
    committed;
    y_new = count_film (Cluster.peer cluster "y.example.org") "New";
    z_new = count_film (Cluster.peer cluster "z.example.org") "New";
    result;
  }

let test_replay_determinism () =
  (* a seed with a lively schedule, replayed: virtual-clock trace, message
     stats, fault stats and outcome must match bit for bit *)
  List.iter
    (fun seed ->
      let a = run_traced ~seed ~loss:0.05 ~policy:chaos_policy () in
      let b = run_traced ~seed ~loss:0.05 ~policy:chaos_policy () in
      if a <> b then
        Alcotest.failf "seed %d not reproducible (clock %.6f vs %.6f)" seed
          a.clock b.clock)
    [ 1; 7; 42; 1337 ]

(* ------------------------------------------------------------------ *)
(* Atomicity sweep: ~100 seeded schedules, all-or-nothing commits      *)
(* ------------------------------------------------------------------ *)

let replay_hint seed = Printf.sprintf "FAULT_SEED=%d dune runtest" seed

let chaos_seeds () =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> List.init 100 Fun.id

(* returns true iff the distributed update committed (after recovery) *)
let assert_atomic ~retries seed =
  let policy =
    if retries then chaos_policy else { chaos_policy with Transport.max_retries = 0 }
  in
  let t = run_traced ~seed ~loss:0.01 ~policy () in
  if t.y_new <> t.z_new then
    Alcotest.failf
      "seed %d violates atomicity: y=%d z=%d (committed=%b) — replay with: %s"
      seed t.y_new t.z_new t.committed (replay_hint seed);
  let expected = if t.committed then 1 else 0 in
  if t.y_new <> expected then
    Alcotest.failf
      "seed %d: coordinator says committed=%b but peers applied %d — replay with: %s"
      seed t.committed t.y_new (replay_hint seed);
  t.committed

let test_chaos_atomicity_sweep () =
  let seeds = chaos_seeds () in
  let committed =
    List.fold_left
      (fun n seed -> if assert_atomic ~retries:true seed then n + 1 else n)
      0 seeds
  in
  (* with retries, 1% loss must not stop the vast majority of commits *)
  if List.length seeds > 1 && committed * 10 < List.length seeds * 9 then
    Alcotest.failf "only %d/%d seeds committed with retries on" committed
      (List.length seeds)

(* ------------------------------------------------------------------ *)
(* Sharded 2PC: updates routed through xrpc://shard/<key>              *)
(* ------------------------------------------------------------------ *)

(* the same all-or-nothing sweep, but the two participants are virtual
   destinations the origin's shard router resolves mid-plan: a commit
   must land sh:put's <pending> marker on BOTH routed members, an abort
   on neither — ownership must never make atomicity leak *)

module Shard = Xrpc_peer.Shard
module Shardmod = Xrpc_workloads.Shardmod

let sharded_chaos_cluster ~seed () =
  let members = List.init 4 (fun i -> Printf.sprintf "s%d" i) in
  let cluster =
    Cluster.create ~config:sim_config
      ~faults:(Simnet.chaos ~seed ~loss:0.01 ())
      ~policy:chaos_policy
      ~names:("origin" :: members) ()
  in
  Cluster.register_module_everywhere cluster ~uri:Shardmod.module_ns
    ~location:Shardmod.module_at Shardmod.shard_module;
  let map =
    Shard.create ~replicas:1 (List.map (fun s -> "xrpc://" ^ s) members)
  in
  Cluster.set_shard_map cluster (Some map);
  Cluster.place_sharded cluster (Shardmod.records 12);
  (cluster, map, members)

(* two keys guaranteed to live on different members *)
let cross_shard_keys map =
  let keys = List.map fst (Shardmod.records 12) in
  let k1 = List.hd keys in
  let p1 = Shard.primary map k1 in
  let k2 = List.find (fun k -> Shard.primary map k <> p1) keys in
  (k1, k2)

let q_sharded_2pc k1 k2 =
  Printf.sprintf
    {|import module namespace sh="shard" at %S;
declare option xrpc:isolation "repeatable";
for $k in (%S, %S)
return execute at {concat("xrpc://shard/", $k)} {sh:put($k, "chaos")}|}
    Shardmod.module_at k1 k2

let count_pending cluster members key =
  List.fold_left
    (fun n m ->
      match
        Peer.query_seq (Cluster.peer cluster m)
          (Printf.sprintf {|count(doc("shard.xml")/*/pending[@key = %S])|} key)
      with
      | [ Xdm.Atomic (Xs.Integer n') ] -> n + n'
      | r -> Alcotest.failf "unexpected pending count %s" (Xdm.to_display r))
    0 members

let assert_sharded_atomic seed =
  let cluster, map, members = sharded_chaos_cluster ~seed () in
  let k1, k2 = cross_shard_keys map in
  let origin = Cluster.peer cluster "origin" in
  let committed =
    match Peer.query origin (q_sharded_2pc k1 k2) with
    | r -> r.Peer.committed
    | exception _ -> false
  in
  (* network recovers: lift faults, cool breakers, settle in-doubt *)
  Cluster.clear_faults cluster;
  Simnet.sleep (Cluster.net cluster)
    (chaos_policy.Transport.breaker_cooldown_ms +. 1.);
  ignore (Cluster.resolve_in_doubt cluster);
  let n1 = count_pending cluster members k1
  and n2 = count_pending cluster members k2 in
  if n1 <> n2 then
    Alcotest.failf
      "seed %d violates sharded atomicity: %s=%d %s=%d (committed=%b) — \
       replay with: %s"
      seed k1 n1 k2 n2 committed (replay_hint seed);
  let expected = if committed then 1 else 0 in
  if n1 <> expected then
    Alcotest.failf
      "seed %d: coordinator says committed=%b but shards applied %d — replay \
       with: %s"
      seed committed n1 (replay_hint seed);
  committed

let test_sharded_atomicity_sweep () =
  let seeds = chaos_seeds () in
  let committed =
    List.fold_left
      (fun n seed -> if assert_sharded_atomic seed then n + 1 else n)
      0 seeds
  in
  if List.length seeds > 1 && committed * 10 < List.length seeds * 9 then
    Alcotest.failf "only %d/%d sharded seeds committed with retries on"
      committed (List.length seeds)

let test_chaos_strategies () =
  (* the §5 distributed strategies under fault schedules: a run must
     either fail outright or return the exact fault-free answer — retried
     and duplicated requests never corrupt a result *)
  let scale = Xmark.small_scale in
  let q7 =
    {
      Strategies.local_doc = "persons.xml";
      remote_uri = "xrpc://B";
      remote_doc = "auctions.xml";
      module_ns = "functions_b";
      module_at = "http://example.org/b.xq";
    }
  in
  let strategies_cluster ?faults () =
    let cluster =
      Cluster.create ~config:sim_config ?faults ~policy:chaos_policy
        ~names:[ "A"; "B" ] ()
    in
    let a = Cluster.peer cluster "A" and b = Cluster.peer cluster "B" in
    Database.add_doc_xml a.Peer.db "persons.xml"
      (Xmark.persons ~count:scale.Xmark.persons ());
    Database.add_doc_xml b.Peer.db "auctions.xml"
      (Xmark.auctions ~count:scale.Xmark.auctions ~matches:scale.Xmark.matches
         ~persons_count:scale.Xmark.persons ());
    Cluster.register_module_everywhere cluster ~uri:q7.Strategies.module_ns
      ~location:q7.Strategies.module_at (Strategies.functions_b q7);
    (cluster, a)
  in
  let run a s = Peer.query_seq a (Strategies.query ~local_uri:"xrpc://A" q7 s) in
  let _, clean_a = strategies_cluster () in
  let baseline = Xdm.to_display (run clean_a Strategies.Distributed_semijoin) in
  let seeds =
    match Sys.getenv_opt "FAULT_SEED" with
    | Some s -> [ int_of_string (String.trim s) ]
    | None -> List.init 10 Fun.id
  in
  let ran = ref 0 and failed = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun s ->
          let _, a =
            strategies_cluster ~faults:(Simnet.chaos ~seed ~loss:0.02 ()) ()
          in
          match run a s with
          | r ->
              incr ran;
              if Xdm.to_display r <> baseline then
                Alcotest.failf
                  "seed %d corrupted a %s result under faults — replay with: %s"
                  seed (Strategies.name s) (replay_hint seed)
          | exception _ -> incr failed)
        Strategies.all)
    seeds;
  if List.length seeds > 1 && !ran = 0 then
    Alcotest.fail "every strategies run failed under 2% loss with retries on"

let test_chaos_negative_control () =
  (* the same seeds with retries disabled must show real aborts — proof
     the faults bite and the retry layer is what absorbs them.  Atomicity
     must hold either way. *)
  let seeds = chaos_seeds () in
  let aborts ~retries =
    List.fold_left
      (fun n seed -> if assert_atomic ~retries seed then n else n + 1)
      0 seeds
  in
  let without = aborts ~retries:false in
  let with_ = aborts ~retries:true in
  if List.length seeds > 1 then begin
    if without = 0 then
      Alcotest.fail "negative control: no seed aborted with retries disabled";
    if without <= with_ then
      Alcotest.failf
        "retries did not help: %d aborts without vs %d with" without with_
  end

(* ------------------------------------------------------------------ *)
(* Exactly-once under duplicate delivery                               *)
(* ------------------------------------------------------------------ *)

let dup_faults seed = { Simnet.no_faults with Simnet.fault_seed = seed; duplicate = 0.5 }

let add_films x n =
  for i = 1 to n do
    ignore
      (Peer.query_seq x
         (Printf.sprintf
            {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Dup %d", "A")}|}
            i))
  done

let film_db_display cluster =
  Xdm.to_display
    (Peer.query_seq (Cluster.peer cluster "y.example.org") {|doc("filmDB.xml")|})

let test_exactly_once_under_duplicates () =
  (* R_Fu applies remote updates per request (§2.2): duplicated delivery
     would double-apply them, unless replays hit the idempotency cache *)
  let faulty, fx = chaos_cluster ~faults:(dup_faults 7) () in
  add_films fx 10;
  let clean, cx = chaos_cluster () in
  add_films cx 10;
  (match Cluster.fault_stats faulty with
  | Some fs ->
      check bool_ "duplicates actually injected" true (fs.Simnet.duplicated > 0)
  | None -> Alcotest.fail "fault stats missing");
  check string_ "store identical to fault-free run" (film_db_display clean)
    (film_db_display faulty);
  let y = Cluster.peer faulty "y.example.org" in
  check bool_ "cache saw the replays" true
    ((Lru.stats y.Peer.idem_cache).Lru.hits > 0)

let test_exactly_once_needs_idem_cache () =
  (* negative control: with the cache disabled the same schedule
     double-applies at least one update *)
  let faulty, fx = chaos_cluster ~faults:(dup_faults 7) () in
  let y = Cluster.peer faulty "y.example.org" in
  Lru.set_enabled y.Peer.idem_cache false;
  add_films fx 10;
  let doubled = ref false in
  for i = 1 to 10 do
    if count_film y (Printf.sprintf "Dup %d" i) > 1 then doubled := true
  done;
  check bool_ "some update applied twice without the cache" true !doubled

let test_retry_does_not_reexecute () =
  (* a lost response forces a client retry of a request whose effects
     already happened; the replay must be served from the cache *)
  let cluster, x =
    chaos_cluster
      ~faults:{ Simnet.no_faults with Simnet.fault_seed = 5; drop = 0.2 }
      ~policy:chaos_policy ()
  in
  let y = Cluster.peer cluster "y.example.org" in
  for i = 1 to 20 do
    try
      ignore
        (Peer.query_seq x
           (Printf.sprintf
              {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Retry %d", "A")}|}
              i))
    with _ -> ()
  done;
  (match Cluster.fault_stats cluster with
  | Some fs ->
      check bool_ "responses were lost" true (fs.Simnet.dropped_responses > 0)
  | None -> Alcotest.fail "fault stats missing");
  for i = 1 to 20 do
    let n = count_film y (Printf.sprintf "Retry %d" i) in
    if n > 1 then
      Alcotest.failf "film %d applied %d times despite idempotency keys" i n
  done

(* ------------------------------------------------------------------ *)
(* Idempotency-cache boundaries: LRU order at capacity, replacement,   *)
(* and the at-least-once fallback once a key has been evicted          *)
(* ------------------------------------------------------------------ *)

let test_idem_lru_eviction_order () =
  let c = Lru.create ~capacity:3 "test.idem_cache" in
  Lru.add c "k1" "r1";
  Lru.add c "k2" "r2";
  Lru.add c "k3" "r3";
  check int_ "at capacity" 3 (Lru.stats c).Lru.size;
  (* touch k1: k2 becomes the least recently used *)
  check bool_ "k1 hit" true (Lru.find c "k1" = Some "r1");
  Lru.add c "k4" "r4";
  check int_ "still at capacity" 3 (Lru.stats c).Lru.size;
  check int_ "one eviction" 1 (Lru.stats c).Lru.evictions;
  check bool_ "LRU key k2 evicted" true (Lru.find c "k2" = None);
  check bool_ "k1 survived (recently used)" true
    (Lru.find c "k1" = Some "r1");
  check bool_ "k3 survived" true (Lru.find c "k3" = Some "r3");
  check bool_ "k4 present" true (Lru.find c "k4" = Some "r4")

let test_idem_replace_at_capacity () =
  let c = Lru.create ~capacity:2 "test.idem_cache" in
  Lru.add c "k1" "r1";
  Lru.add c "k2" "r2";
  (* replacing a key that is already cached must not evict anything,
     even with the cache exactly full *)
  Lru.add c "k1" "r1'";
  check int_ "no growth" 2 (Lru.stats c).Lru.size;
  check int_ "no eviction" 0 (Lru.stats c).Lru.evictions;
  check bool_ "replaced value served" true (Lru.find c "k1" = Some "r1'");
  check bool_ "other key untouched" true (Lru.find c "k2" = Some "r2")

(* a raw updating request carrying an explicit idempotency key *)
let add_film_request ~key name =
  Message.to_string
    (Message.Request
       {
         Message.module_uri = Filmdb.module_ns;
         location = Filmdb.module_at;
         method_ = "addFilm";
         arity = 2;
         updating = true;
         fragments = false;
         query_id = None;
         idem_key = Some key;
         calls = [ [ [ Xdm.str name ]; [ Xdm.str "Actor E" ] ] ];
       })

let test_idem_evicted_key_reexecutes () =
  (* regression: replaying a key the LRU has already evicted must fall
     back to at-least-once (re-execute and answer), never error.  The
     visible consequence — the update applies twice — is exactly the
     documented at-least-once semantics past the cache horizon. *)
  let cluster =
    Cluster.create ~config:sim_config
      ~peer_config:{ Peer.default_config with Peer.idem_capacity = 2 }
      ~names:[ "y.example.org" ] ()
  in
  let y = Cluster.peer cluster "y.example.org" in
  Filmdb.install y ();
  let expect_response what out =
    match Message.of_string out with
    | Message.Response _ -> ()
    | Message.Fault f -> Alcotest.failf "%s answered a fault: %s" what f.Message.reason
    | _ -> Alcotest.failf "%s: unexpected reply" what
  in
  let body = add_film_request ~key:"kA" "Evict Me" in
  expect_response "first execution" (Peer.handle_raw y body);
  check int_ "applied once" 1 (count_film y "Evict Me");
  (* replay while cached: served from the cache, not re-executed *)
  expect_response "cached replay" (Peer.handle_raw y body);
  check int_ "not re-applied while cached" 1 (count_film y "Evict Me");
  check bool_ "cache hit recorded" true ((Lru.stats y.Peer.idem_cache).Lru.hits > 0);
  (* two fresh keys flood the capacity-2 cache; kA is the LRU victim *)
  expect_response "flood 1" (Peer.handle_raw y (add_film_request ~key:"kB" "Other B"));
  expect_response "flood 2" (Peer.handle_raw y (add_film_request ~key:"kC" "Other C"));
  check int_ "kA evicted" 1 (Lru.stats y.Peer.idem_cache).Lru.evictions;
  (* replay after eviction: must re-execute, not fail *)
  expect_response "post-eviction replay" (Peer.handle_raw y body);
  check int_ "at-least-once fallback re-applied" 2 (count_film y "Evict Me")

(* ------------------------------------------------------------------ *)
(* 2PC decision phase (satellite: run_detailed must not swallow acks)  *)
(* ------------------------------------------------------------------ *)

let is_commit_msg body =
  match Message.of_string body with
  | Message.Tx_request (Message.Commit, _) -> true
  | _ -> false
  | exception _ -> false

let test_2pc_participant_misses_commit () =
  let cluster, x = chaos_cluster () in
  let y = Cluster.peer cluster "y.example.org" in
  let z = Cluster.peer cluster "z.example.org" in
  (* y votes yes, then every Commit to y is garbled on the wire *)
  let y_handler = Peer.handle_raw y in
  Simnet.register (Cluster.net cluster) "xrpc://y.example.org" (fun body ->
      if is_commit_msg body then "<<<line noise" else y_handler body);
  let r = Peer.query x q_2pc in
  check bool_ "coordinator committed" true r.Peer.committed;
  (* the decision acks must record exactly which participant is in doubt —
     this is the regression: run_detailed used to drop them *)
  (match r.Peer.tx with
  | None -> Alcotest.fail "expected a 2PC outcome"
  | Some o ->
      check int_ "two votes" 2 (List.length o.Two_pc.votes);
      check bool_ "all voted yes" true
        (List.for_all (fun v -> v.Two_pc.ok) o.Two_pc.votes);
      let ack p =
        List.find (fun v -> v.Two_pc.peer = p) o.Two_pc.decision_acks
      in
      check bool_ "z acked the commit" true (ack "xrpc://z.example.org").Two_pc.ok;
      check bool_ "y's ack failed" true
        (ack "xrpc://y.example.org").Two_pc.transport_failed);
  check int_ "z applied" 1 (count_film z "New");
  check int_ "y still in doubt" 0 (count_film y "New");
  (* wire recovers; y asks the coordinator and learns the commit *)
  Simnet.register (Cluster.net cluster) "xrpc://y.example.org" y_handler;
  let committed, aborted, in_doubt = Peer.resolve_in_doubt y in
  check int_ "recovered commit" 1 committed;
  check int_ "no aborts" 0 aborted;
  check int_ "nothing left in doubt" 0 in_doubt;
  check int_ "y applied after recovery" 1 (count_film y "New")

let test_status_unknown_means_abort () =
  (* presumed abort: a coordinator that never logged the decision answers
     "unknown", which participants must read as aborted *)
  let cluster, x = chaos_cluster () in
  ignore x;
  let y = Cluster.peer cluster "y.example.org" in
  let qid =
    { Message.host = "xrpc://x.example.org"; timestamp = "9.9"; timeout = 30;
      level = Message.Repeatable }
  in
  let v =
    Two_pc.status
      ~transport:(Option.get y.Peer.transport)
      ~dest:"xrpc://x.example.org" qid
  in
  check bool_ "not committed" false v.Two_pc.ok;
  check bool_ "a definite answer, not a transport failure" false
    v.Two_pc.transport_failed

let () =
  Alcotest.run "faults"
    [
      ( "backoff",
        [
          Alcotest.test_case "exponential, capped" `Quick
            test_backoff_exponential_capped;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
          Alcotest.test_case "jitter clamped" `Quick test_backoff_jitter_clamped;
          Alcotest.test_case "retry until success" `Quick test_retry_until_success;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens and fast-fails" `Quick
            test_breaker_opens_and_fast_fails;
          Alcotest.test_case "half-open reopens on failure" `Quick
            test_breaker_half_open_then_reopens;
          Alcotest.test_case "closes on success" `Quick
            test_breaker_closes_on_success;
        ] );
      ( "injection",
        [
          Alcotest.test_case "every fault kind exercised" `Quick
            test_fault_kinds_all_exercised;
          Alcotest.test_case "seeded replay is bit-for-bit" `Quick
            test_replay_determinism;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "atomicity sweep (100 seeds)" `Quick
            test_chaos_atomicity_sweep;
          Alcotest.test_case "sharded atomicity sweep (100 seeds)" `Quick
            test_sharded_atomicity_sweep;
          Alcotest.test_case "strategies return exact results" `Quick
            test_chaos_strategies;
          Alcotest.test_case "negative control: retries off" `Quick
            test_chaos_negative_control;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "duplicates do not double-apply" `Quick
            test_exactly_once_under_duplicates;
          Alcotest.test_case "negative control: cache off" `Quick
            test_exactly_once_needs_idem_cache;
          Alcotest.test_case "retries do not re-execute" `Quick
            test_retry_does_not_reexecute;
        ] );
      ( "idem-cache",
        [
          Alcotest.test_case "LRU eviction order at capacity" `Quick
            test_idem_lru_eviction_order;
          Alcotest.test_case "replacement does not evict" `Quick
            test_idem_replace_at_capacity;
          Alcotest.test_case "evicted key re-executes on replay" `Quick
            test_idem_evicted_key_reexecutes;
        ] );
      ( "two-pc",
        [
          Alcotest.test_case "participant misses Commit" `Quick
            test_2pc_participant_misses_commit;
          Alcotest.test_case "unknown status means abort" `Quick
            test_status_unknown_means_abort;
        ] );
    ]
