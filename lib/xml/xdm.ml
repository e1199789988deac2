(** The XQuery Data Model: items and sequences.

    An item is either an atomic value ({!Xs.t}) or a node reference into a
    shredded {!Store}.  Sequences are flat item lists (XDM sequences never
    nest).  This module also hosts the XDM operations shared by the
    interpreter, the algebra engine, and the SOAP marshaler: atomization,
    effective boolean value, deep-equal, and document-order dedup. *)

type item = Atomic of Xs.t | Node of Store.node
type sequence = item list

exception Dynamic_error of string

let dyn_error fmt = Printf.ksprintf (fun s -> raise (Dynamic_error s)) fmt

(* fn:doc of a URI that names no available document *)
let no_such_document uri = dyn_error "err:FODC0002: no document %S" uri

let singleton i = [ i ]
let of_atom a = [ Atomic a ]
let of_node n = [ Node n ]
let str s = Atomic (Xs.String s)
let int i = Atomic (Xs.Integer i)
let bool b = Atomic (Xs.Boolean b)

(** [string_value item] — the XDM string value. *)
let string_value = function
  | Atomic a -> Xs.to_string a
  | Node n -> Store.string_value n

(** [atomize seq] — typed-value extraction.  Element/attribute/text content
    atomizes to [xs:untypedAtomic] (we run schema-less, like
    MonetDB/XQuery's default). *)
let atomize_item = function
  | Atomic a -> a
  | Node n -> Xs.Untyped (Store.string_value n)

let atomize seq = List.map atomize_item seq

(** Effective boolean value of a sequence per XPath 2.0 §2.4.3. *)
let ebv = function
  | [] -> false
  | [ Atomic a ] -> Xs.ebv a
  | Node _ :: _ -> true
  | _ -> dyn_error "FORG0006: invalid argument to effective boolean value"

(** Exactly-one atomic out of a sequence, with a caller-supplied role for
    the error message. *)
let one_atom ~what = function
  | [ i ] -> atomize_item i
  | [] -> dyn_error "empty sequence where one %s expected" what
  | _ -> dyn_error "more than one item where one %s expected" what

(** Exactly-one item out of a sequence. *)
let one_item ~what = function
  | [ i ] -> i
  | [] -> dyn_error "empty sequence where one %s expected" what
  | _ -> dyn_error "more than one item where one %s expected" what

let node_only = function
  | Node n -> n
  | Atomic a -> dyn_error "expected a node, got atomic %s" (Xs.to_string a)

(** Sort by document order and remove duplicate nodes — the implicit
    semantics of every XPath step result.  Input that one linear pass finds
    already strictly in document order is returned as is: a forward step
    from a single context node never sorts (the staircase property in its
    simplest form). *)
let doc_order_dedup nodes =
  let rec strictly_ordered = function
    | a :: (b :: _ as rest) ->
        Store.compare_nodes a b < 0 && strictly_ordered rest
    | _ -> true
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when Store.equal_nodes a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  if strictly_ordered nodes then nodes
  else dedup (List.sort Store.compare_nodes nodes)

(* one merge over both lists in document order, duplicates removed:
   the nodes in both ([~common:true]) or only in [a] *)
let merge_sets ~common a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> []
    | a, [] -> if common then [] else a
    | x :: a', y :: b' ->
        let c = Store.compare_nodes x y in
        if c < 0 then if common then go a' b else x :: go a' b
        else if c > 0 then go a b'
        else if common then x :: go a' b'
        else go a' b'
  in
  go (doc_order_dedup a) (doc_order_dedup b)

(** [intersect a b] and [except a b]: the XPath set operations on node
    lists, in document order without duplicates. *)
let intersect a b = merge_sets ~common:true a b

let except a b = merge_sets ~common:false a b

(** Structural deep-equal (ignores node identity), used by tests and
    [fn:deep-equal]. *)
let rec deep_equal (a : sequence) (b : sequence) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> item_equal x y && deep_equal xs ys
  | _ -> false

and item_equal x y =
  match (x, y) with
  | Atomic p, Atomic q -> ( try Xs.equal_values p q with Xs.Type_error _ -> false)
  | Node p, Node q -> (
      match (Store.kind p, Store.kind q) with
      | Store.Attr, Store.Attr ->
          let pa = Store.attr_tree p and qa = Store.attr_tree q in
          Qname.equal pa.Tree.name qa.Tree.name && pa.value = qa.value
      | Store.Attr, _ | _, Store.Attr -> false
      | _ -> Tree.equal (Store.to_tree p) (Store.to_tree q))
  | _ -> false

(** Render a sequence the way query results are shown to users: nodes are
    serialized, atomics printed in lexical form, items space-separated. *)
let to_display seq =
  String.concat " "
    (List.map
       (function
         | Atomic a -> Xs.to_string a
         | Node n -> (
             match Store.kind n with
             | Store.Attr ->
                 let a = Store.attr_tree n in
                 Printf.sprintf "%s=\"%s\"" (Qname.to_string a.Tree.name)
                   a.value
             | _ -> Serialize.to_string (Store.to_tree n)))
       seq)
