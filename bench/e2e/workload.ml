(* The four workloads: what the serving process loads, what the
   originating peers ask, and the oracle that checks every answer.
   Everything is derived from the run's seed; the program under test
   only ever sees the generated documents and query texts. *)

module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Xdm = Xrpc_xml.Xdm
module Xmark = Xrpc_workloads.Xmark
module Testmod = Xrpc_workloads.Testmod
module Strategies = Xrpc_core.Strategies

type kind = Point_rpc | Bulk_rpc | Q7_semijoin | Mixed_rw

type spec = {
  kind : kind;
  name : string;
  limit_ms : float;  (** latency limit L on the ladder's p95 *)
  rate : float;
      (** offered open-loop rate R (1/s): about a quarter of the
          closed-loop qps measured at the commit that introduced this
          benchmark, frozen so later commits are offered the same load *)
}

let specs =
  [
    { kind = Point_rpc; name = "point_rpc"; limit_ms = 5.; rate = 2600. };
    { kind = Bulk_rpc; name = "bulk_rpc"; limit_ms = 100.; rate = 22. };
    { kind = Q7_semijoin; name = "q7_semijoin"; limit_ms = 150.; rate = 14. };
    { kind = Mixed_rw; name = "mixed_rw"; limit_ms = 50.; rate = 55. };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ------------------------------------------------------------------ *)
(* Documents and modules                                               *)
(* ------------------------------------------------------------------ *)

let persons_count = function Q7_semijoin -> 250 | _ -> 1000
let auctions_count = 1000
let matches = 6
let hot_ids = 64
let q7_subset = 50
let bulk_calls = 1000
let write_share = 0.1

(* Xmark's generator keeps only the odd part of its seed *)
let persons_xml kind ~seed =
  Xmark.persons ~seed:((2 * seed) + 1) ~count:(persons_count kind) ()

let auctions_xml ~seed =
  Xmark.auctions ~seed:((2 * seed) + 1) ~count:auctions_count ~matches
    ~persons_count:(persons_count Q7_semijoin) ()

let persons_ns = "bench-persons"
let persons_at = "http://bench.example.org/persons.xq"

let persons_module =
  {|module namespace p = "bench-persons";
declare function p:name($pid as xs:string) as xs:string
{ string(doc("persons.xml")//person[@id = $pid]/name) };
declare updating function p:set($pid as xs:string, $v as xs:string)
{ replace value of node exactly-one(doc("persons.xml")//person[@id = $pid]/name)
  with $v };
|}

let q7 dest =
  {
    Strategies.local_doc = "persons.xml";
    remote_uri = dest;
    remote_doc = "auctions.xml";
    module_ns = "functions_b";
    module_at = "http://example.org/b.xq";
  }

(* what a serving peer (and its in-process twin) holds *)
let serving_peer kind ~seed =
  let peer = Peer.create "xrpc://bench-server" in
  (match kind with
  | Point_rpc | Mixed_rw ->
      Database.add_doc_xml peer.Peer.db "persons.xml" (persons_xml kind ~seed);
      Peer.register_module peer ~uri:persons_ns ~location:persons_at
        persons_module
  | Bulk_rpc ->
      Peer.register_module peer ~uri:Testmod.module_ns
        ~location:Testmod.module_at Testmod.test_module
  | Q7_semijoin ->
      let q = q7 "" in
      Database.add_doc_xml peer.Peer.db "auctions.xml" (auctions_xml ~seed);
      Peer.register_module peer ~uri:q.Strategies.module_ns
        ~location:q.Strategies.module_at (Strategies.functions_b q));
  peer

(* what an originating peer needs to compile (and, for Q7, run) queries *)
let install_client kind ~seed peer =
  match kind with
  | Point_rpc | Mixed_rw ->
      Peer.register_module peer ~uri:persons_ns ~location:persons_at
        persons_module
  | Bulk_rpc ->
      Peer.register_module peer ~uri:Testmod.module_ns
        ~location:Testmod.module_at Testmod.test_module
  | Q7_semijoin ->
      let q = q7 "" in
      Database.add_doc_xml peer.Peer.db "persons.xml" (persons_xml kind ~seed);
      Peer.register_module peer ~uri:q.Strategies.module_ns
        ~location:q.Strategies.module_at (Strategies.functions_b q)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let find_sub s ~from pat =
  let n = String.length s and m = String.length pat in
  let rec matches i j = j = m || (s.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec go i =
    if i + m > n then raise Not_found else if matches i 0 then i else go (i + 1)
  in
  go from

(* person names read straight off the generated text, not through the
   XQuery engine under test *)
let names_of_persons xml count =
  let pos = ref 0 in
  Array.init count (fun i ->
      let tag = Printf.sprintf "<person id=\"person%d\"><name>" i in
      let start = find_sub xml ~from:!pos tag + String.length tag in
      let stop = find_sub xml ~from:start "</name>" in
      pos := stop;
      String.sub xml start (stop - start))

let serialize_item item = Xdm.to_display [ item ]

(* Q7 over both documents on one peer: no RPC, no Bulk RPC, no hash-join
   rewrite.  Each result is keyed by its person's number. *)
let q7_oracle ~seed =
  let peer = Peer.create "xrpc://bench-oracle" in
  Database.add_doc_xml peer.Peer.db "persons.xml"
    (persons_xml Q7_semijoin ~seed);
  Database.add_doc_xml peer.Peer.db "auctions.xml" (auctions_xml ~seed);
  let results =
    Peer.query_seq peer
      {|for $p in doc("persons.xml")//person,
    $ca in doc("auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>|}
  in
  let prefix = "<result><person id=\"person" in
  List.map
    (fun item ->
      let s = serialize_item item in
      let start = find_sub s ~from:0 prefix + String.length prefix in
      let stop = String.index_from s start '"' in
      (int_of_string (String.sub s start (stop - start)), s))
    results

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type op = Read | Write

type query = { text : string; op : op; check : Xdm.sequence -> bool }

type state = {
  kind : kind;
  dest : string;
  seed : int;
  names : string array;
  hot : int array;
  oracle : (int * string) list;
  written : (int, string list) Hashtbl.t;
      (** every value a write may have stored, per person number *)
  lock : Mutex.t;
  mutable writes : int;
}

(* [k] distinct numbers below [n], in random order *)
let sample_distinct st ~n ~k =
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

let make_state kind ~seed ~dest =
  let st = Random.State.make [| seed; 0x40; 0x1d5 |] in
  let names =
    match kind with
    | Point_rpc | Mixed_rw ->
        names_of_persons (persons_xml kind ~seed) (persons_count kind)
    | _ -> [||]
  in
  {
    kind;
    dest;
    seed;
    names;
    hot = sample_distinct st ~n:(persons_count kind) ~k:hot_ids;
    oracle = (if kind = Q7_semijoin then q7_oracle ~seed else []);
    written = Hashtbl.create 64;
    lock = Mutex.create ();
    writes = 0;
  }

let strings seq = List.map Xdm.string_value seq

let read_query s pid =
  let initial = s.names.(pid) in
  {
    text =
      Printf.sprintf
        {|import module namespace p=%S at %S;
execute at {%S} {p:name("person%d")}|}
        persons_ns persons_at s.dest pid;
    op = Read;
    check =
      (fun v ->
        match strings v with
        | [ got ] ->
            got = initial
            ||
            (Mutex.lock s.lock;
             let ok =
               List.mem got
                 (Option.value ~default:[] (Hashtbl.find_opt s.written pid))
             in
             Mutex.unlock s.lock;
             ok)
        | _ -> false);
  }

(* the value is registered when the query is generated: it can only show
   up in a read if some write stored it *)
let write_query s pid =
  Mutex.lock s.lock;
  s.writes <- s.writes + 1;
  let v = Printf.sprintf "w%d-%d" s.seed s.writes in
  Hashtbl.replace s.written pid
    (v :: Option.value ~default:[] (Hashtbl.find_opt s.written pid));
  Mutex.unlock s.lock;
  {
    text =
      Printf.sprintf
        {|import module namespace p=%S at %S;
execute at {%S} {p:set("person%d", %S)}|}
        persons_ns persons_at s.dest pid v;
    op = Write;
    check = (fun v -> v = []);
  }

let bulk_query s k =
  {
    text =
      Printf.sprintf
        {|import module namespace t=%S at %S;
for $i in 1 to %d return execute at {%S} {t:ping($i + %d)}|}
        Testmod.module_ns Testmod.module_at bulk_calls s.dest k;
    op = Read;
    check =
      (fun v ->
        List.length v = bulk_calls
        && List.for_all2 ( = ) (strings v)
             (List.init bulk_calls (fun i -> string_of_int (k + i + 1))));
  }

let q7_query s subset =
  let q = q7 s.dest in
  let ids =
    Array.to_list subset |> List.sort compare
    |> List.map (Printf.sprintf "\"person%d\"")
    |> String.concat ", "
  in
  let expected =
    List.filter_map
      (fun (pid, r) -> if Array.mem pid subset then Some r else None)
      s.oracle
    |> List.sort compare
  in
  {
    text =
      Printf.sprintf
        {|import module namespace b = %S at %S;
for $p in doc(%S)//person[@id = (%s)]
let $ca := execute at {%S} { b:Q_B3(string($p/@id)) }
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>|}
        q.Strategies.module_ns q.Strategies.module_at q.Strategies.local_doc ids
        s.dest;
    op = Read;
    check = (fun v -> List.sort compare (List.map serialize_item v) = expected);
  }

(* the next query of a stream; [st] is the stream's own generator *)
let next s st =
  match s.kind with
  | Point_rpc -> read_query s s.hot.(Random.State.int st hot_ids)
  | Mixed_rw ->
      let pid = s.hot.(Random.State.int st hot_ids) in
      if Random.State.float st 1.0 < write_share then write_query s pid
      else read_query s pid
  | Bulk_rpc -> bulk_query s (Random.State.int st 1_000_000_000)
  | Q7_semijoin ->
      q7_query s
        (sample_distinct st ~n:(persons_count Q7_semijoin) ~k:q7_subset)
