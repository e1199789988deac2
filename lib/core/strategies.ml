(** Distributed query execution strategies expressed in XRPC — §5.

    The paper shows that XRPC is expressive enough to serve as the target
    language of a distributed query optimizer by hand-writing four plans
    for query Q7 (persons at peer A joined with closed auctions at peer B):

    - {e data shipping}: plain XQuery, [fn:doc("xrpc://B/auctions.xml")]
      pulls the whole remote document;
    - {e predicate pushdown}: a remote function returns only the
      closed_auction nodes;
    - {e execution relocation}: the whole join runs at B, which
      data-ships persons from A;
    - {e distributed semi-join}: a remote selection function is called
      once per person — under Bulk RPC a single message carrying all keys,
      i.e. the classical semi-join.

    Automatic rewriting is future work in the paper; like the paper we
    provide the plans themselves, parameterized by peer URIs and document
    names so they run on any workload with the same shape. *)

type q7 = {
  local_doc : string;  (** e.g. "persons.xml" (at the coordinating peer) *)
  remote_uri : string;  (** e.g. "xrpc://B" *)
  remote_doc : string;  (** e.g. "auctions.xml" *)
  module_ns : string;  (** namespace of the helper module at B *)
  module_at : string;  (** at-hint for the helper module *)
}

(** The helper module the paper calls [functions_b]: Q_B1 (predicate
    pushdown), Q_B2 (execution relocation), Q_B3 (semi-join probe). *)
let functions_b q =
  Printf.sprintf
    {|module namespace b = %S;
declare function b:Q_B1() as node()*
{ doc(%S)//closed_auction };
declare function b:Q_B2($personsURL as xs:string) as node()*
{ for $p in doc($personsURL)//person,
      $ca in doc(%S)//closed_auction
  where $p/@id = $ca/buyer/@person
  return <result>{$p, $ca/annotation}</result>
};
declare function b:Q_B3($pid as xs:string) as node()*
{ doc(%S)//closed_auction[./buyer/@person = $pid] };
|}
    q.module_ns q.remote_doc q.remote_doc q.remote_doc

(** Q7 as pure data shipping (the input a distributed optimizer would see). *)
let data_shipping q =
  Printf.sprintf
    {|for $p in doc(%S)//person,
    $ca in doc("%s/%s")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>|}
    q.local_doc q.remote_uri q.remote_doc

(** Q7_1: predicate pushdown — ship only the closed auctions. *)
let predicate_pushdown q =
  Printf.sprintf
    {|import module namespace b = %S at %S;
for $p in doc(%S)//person,
    $ca in execute at {%S} { b:Q_B1() }
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>|}
    q.module_ns q.module_at q.local_doc q.remote_uri

(** Q7_2: execution relocation — run everything at B. *)
let execution_relocation ~local_uri q =
  Printf.sprintf
    {|import module namespace b = %S at %S;
execute at {%S} { b:Q_B2("%s/%s") }|}
    q.module_ns q.module_at q.remote_uri local_uri q.local_doc

(** Q7_3: distributed semi-join — the XRPC call has a loop-dependent
    parameter; Bulk RPC turns the loop into one message of all keys. *)
let distributed_semijoin q =
  Printf.sprintf
    {|import module namespace b = %S at %S;
for $p in doc(%S)//person
let $ca := execute at {%S} { b:Q_B3(string($p/@id)) }
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>|}
    q.module_ns q.module_at q.local_doc q.remote_uri

type strategy = Data_shipping | Predicate_pushdown | Execution_relocation | Distributed_semijoin

let all = [ Data_shipping; Predicate_pushdown; Execution_relocation; Distributed_semijoin ]

let name = function
  | Data_shipping -> "data shipping"
  | Predicate_pushdown -> "predicate push-down"
  | Execution_relocation -> "execution relocation"
  | Distributed_semijoin -> "distributed semi-join"

(** Machine-friendly one-word tag (bench JSON keys). *)
let short_name = function
  | Data_shipping -> "datashipping"
  | Predicate_pushdown -> "pushdown"
  | Execution_relocation -> "relocation"
  | Distributed_semijoin -> "semijoin"

let query ~local_uri q = function
  | Data_shipping -> data_shipping q
  | Predicate_pushdown -> predicate_pushdown q
  | Execution_relocation -> execution_relocation ~local_uri q
  | Distributed_semijoin -> distributed_semijoin q
