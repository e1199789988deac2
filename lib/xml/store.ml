(** Shredded document store — the pre/size/level encoding used by
    MonetDB/XQuery (§3 of the paper).

    A {!Tree.t} is shredded into pre-order arrays; a node is identified by
    [(doc_id, pre)].  All XPath axes are answered from the arrays:
    descendants of [pre] are the contiguous range [pre+1 .. pre+size.(pre)],
    parents come from the [parent] array, and [descendant::QName] is a
    binary-searched slice of a lazy element-name index, and [T[K = v]]
    a lookup in a lazy attribute-value index.  Attributes occupy
    their own pre slots (kind [Attr]) directly after their owner element,
    which keeps node identity uniform.  A store never changes; {!patch}
    makes a new version that rewrites values and names in place and shares
    every other column with the old one. *)

type kind = Doc | Elem | Attr | Txt | Comm | Pi

(* expanded names (uri, local) *)
module Name_map = Map.Make (struct
  type t = string * string

  let compare = Stdlib.compare
end)

(** A key path [c1/.../ck/@a]: child element names, then one attribute
    name.  [{ children = []; attr }] is [@attr]. *)
type key_path = { children : Qname.t list; attr : Qname.t }

(* an attribute-value index's key: element name, children, attribute,
   all as expanded names *)
module Value_key = Map.Make (struct
  type t = (string * string) * (string * string) list * (string * string)

  let compare = Stdlib.compare
end)

type t = {
  doc_id : int;  (** globally unique store id; also orders documents *)
  uri : string;  (** document URI, or "" for constructed fragments *)
  kind : kind array;
  name : Qname.t option array;  (** element/attribute/PI names *)
  value : string array;  (** text/comment/attr content; PI data *)
  parent : int array;  (** parent pre, -1 for the root *)
  size : int array;  (** number of descendants (incl. attributes) *)
  level : int array;
  names : int array Name_map.t Atomic.t;
      (** element-name index: each name's element pre ranks, in document
          order, added on the first search for that name *)
  values : (string, int array) Hashtbl.t Value_key.t Atomic.t;
      (** attribute-value index: for each element name and key path, each
          key value's element pre ranks, in document order, built on the
          first probe of that pair and never written after *)
  bytes : int;  (** heap bytes of the columns and the strings they hold *)
}

(** A node reference: a store plus a preorder rank within it. *)
type node = { store : t; pre : int }

let next_doc_id = Atomic.make 1

(* process-wide and race-free: two stores sharing an id would compare as
   one document, and dedup would drop distinct nodes *)
let fresh_doc_id () = Atomic.fetch_and_add next_doc_id 1

(* Heap sizes, counted arithmetically: a column is a block of one word per
   node, a string a header word plus its bytes padded to whole words, and
   a name a [Some] box (the [Qname.t] itself is shared with the tree). *)
let word = Sys.word_size / 8
let string_bytes s = word * ((String.length s / word) + 2)
let column_bytes n = word * (n + 1)
let name_box_bytes = 2 * word

(** [shred ?uri tree] builds a store for [tree] with a fresh [doc_id]. *)
let shred ?(uri = "") tree =
  let n = Tree.node_count tree in
  let kind = Array.make n Doc
  and name = Array.make n None
  and value = Array.make n ""
  and parent = Array.make n (-1)
  and size = Array.make n 0
  and level = Array.make n 0 in
  let next = ref 0 in
  let rec go par lev t =
    let pre = !next in
    incr next;
    parent.(pre) <- par;
    level.(pre) <- lev;
    (match t with
    | Tree.Document cs ->
        kind.(pre) <- Doc;
        List.iter (go pre (lev + 1)) cs
    | Tree.Element { name = nm; attrs; children } ->
        kind.(pre) <- Elem;
        name.(pre) <- Some nm;
        List.iter
          (fun (a : Tree.attr) ->
            let apre = !next in
            incr next;
            kind.(apre) <- Attr;
            name.(apre) <- Some a.name;
            value.(apre) <- a.value;
            parent.(apre) <- pre;
            level.(apre) <- lev + 1)
          attrs;
        List.iter (go pre (lev + 1)) children
    | Tree.Text s ->
        kind.(pre) <- Txt;
        value.(pre) <- s
    | Tree.Comment s ->
        kind.(pre) <- Comm;
        value.(pre) <- s
    | Tree.Pi { target; data } ->
        kind.(pre) <- Pi;
        name.(pre) <- Some (Qname.make target);
        value.(pre) <- data);
    size.(pre) <- !next - pre - 1
  in
  go (-1) 0 tree;
  let bytes = ref (6 * column_bytes n) in
  for pre = 0 to n - 1 do
    (match kind.(pre) with
    | Attr | Txt | Comm | Pi -> bytes := !bytes + string_bytes value.(pre)
    | Doc | Elem -> ());
    if name.(pre) <> None then bytes := !bytes + name_box_bytes
  done;
  { doc_id = fresh_doc_id (); uri; kind; name; value; parent; size; level;
    names = Atomic.make Name_map.empty; values = Atomic.make Value_key.empty;
    bytes = !bytes }

(** A write into one node's slot of the [value] or [name] column. *)
type edit = Value of string | Name of Qname.t

(** [patch s edits] is a new version of [s] with each [(pre, edit)]
    written in order (a later write to one slot wins), and the bytes it
    does not share with [s].  Only the [value] column is copied, plus
    [name] when an edit renames; [kind], [parent], [size] and [level] are
    [s]'s own arrays, and so is the element-name index unless an element
    is renamed, in which case the new store starts an empty one.  The
    attribute-value index is shared unless an edit renames a node or
    writes an attribute's value.  The
    caller keeps the node kinds intact: an element's value goes to its
    text child. *)
let patch s edits =
  let renames = List.exists (function _, Name _ -> true | _ -> false) edits in
  let renames_elem =
    List.exists (function pre, Name _ -> s.kind.(pre) = Elem | _ -> false) edits
  in
  let value = Array.copy s.value in
  let name = if renames then Array.copy s.name else s.name in
  let bytes = ref s.bytes and own = ref (column_bytes (Array.length value)) in
  if renames then own := !own + column_bytes (Array.length name);
  List.iter
    (fun (pre, edit) ->
      match edit with
      | Value v ->
          bytes := !bytes - string_bytes value.(pre) + string_bytes v;
          own := !own + string_bytes v;
          value.(pre) <- v
      | Name q ->
          own := !own + name_box_bytes;
          name.(pre) <- Some q)
    edits;
  let names = if renames_elem then Atomic.make Name_map.empty else s.names in
  let values =
    if renames || List.exists (fun (pre, _) -> s.kind.(pre) = Attr) edits then
      Atomic.make Value_key.empty
    else s.values
  in
  ( { s with doc_id = fresh_doc_id (); value; name; names; values;
      bytes = !bytes },
    !own )

let root store = { store; pre = 0 }
let node_count t = Array.length t.kind
let kind n = n.store.kind.(n.pre)
let name n = n.store.name.(n.pre)
let parent n =
  let p = n.store.parent.(n.pre) in
  if p < 0 then None else Some { n with pre = p }

(** Document order across stores: by [doc_id], then preorder rank. *)
let compare_nodes a b =
  match Int.compare a.store.doc_id b.store.doc_id with
  | 0 -> Int.compare a.pre b.pre
  | c -> c

let equal_nodes a b = compare_nodes a b = 0

(* ------------------------------------------------------------------ *)
(* Element-name index                                                  *)
(* ------------------------------------------------------------------ *)

(* the pre ranks of the elements named [q], in one pass *)
let elements_named s (q : Qname.t) =
  let named pre =
    s.kind.(pre) = Elem
    && match s.name.(pre) with Some q' -> Qname.equal q q' | None -> false
  in
  let rec collect pre acc =
    if pre < 0 then acc
    else collect (pre - 1) (if named pre then pre :: acc else acc)
  in
  Array.of_list (collect (Array.length s.kind - 1) [])

(* [add] a missing entry to the immutable map in [cell]: threads racing
   on one key each add an equal value, and none is lost *)
let rec publish cell add =
  let m = Atomic.get cell in
  if not (Atomic.compare_and_set cell m (add m)) then publish cell add

(* A store never changes after it is built, so an entry never goes
   stale; [patch] shares the index only while no element is renamed.
   Entries are added on first use, so [shred] and names never searched for
   pay nothing. *)
let pres_named s (q : Qname.t) =
  let key = (q.Qname.uri, q.Qname.local) in
  match Name_map.find_opt key (Atomic.get s.names) with
  | Some pres -> pres
  | None ->
      let pres = elements_named s q in
      publish s.names (Name_map.add key pres);
      pres

(* first position in the sorted [a] whose value is >= [x] *)
let lower_bound a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* the positions [lo, hi) of the sorted pre ranks [pres] that lie in [n]'s
   subtree, [n] itself included only [~or_self] *)
let subtree_range ~or_self n pres =
  ( lower_bound pres (if or_self then n.pre else n.pre + 1),
    lower_bound pres (n.pre + n.store.size.(n.pre) + 1) )

let nodes_of n pres lo hi =
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) ({ n with pre = pres.(i) } :: acc)
  in
  collect (hi - 1) []

(** [descendants_named ?or_self n q]: the element descendants of [n]
    named [q] ([n] too if [or_self] and it is one), in document order — a
    binary search for the slice [n.pre+1 .. n.pre+size] of [q]'s pre
    ranks. *)
let descendants_named ?(or_self = false) n (q : Qname.t) =
  let pres = pres_named n.store q in
  let lo, hi = subtree_range ~or_self n pres in
  nodes_of n pres lo hi

(** [has_named ~or_self n q]: [descendants_named ~or_self n q <> []]. *)
let has_named ~or_self n (q : Qname.t) =
  let lo, hi = subtree_range ~or_self n (pres_named n.store q) in
  lo < hi

(* ------------------------------------------------------------------ *)
(* Attribute-value index                                               *)
(* ------------------------------------------------------------------ *)

let expanded (q : Qname.t) = (q.Qname.uri, q.Qname.local)

let named_at s kind (q : Qname.t) pre =
  s.kind.(pre) = kind
  && match s.name.(pre) with Some q' -> Qname.equal q q' | None -> false

(* one pass over the columns from each element named [q]: the key values
   it reaches over [key], mapped to the elements that reach them *)
let elements_valued s (q : Qname.t) key =
  let acc = Hashtbl.create 64 in
  (* [owner]s arrive in document order: the head is the latest one *)
  let add v owner =
    match Hashtbl.find_opt acc v with
    | Some (p :: _) when p = owner -> ()
    | Some l -> Hashtbl.replace acc v (owner :: l)
    | None -> Hashtbl.replace acc v [ owner ]
  in
  let rec walk owner pre = function
    | [] ->
        let a = ref (pre + 1) in
        while !a < Array.length s.kind && s.kind.(!a) = Attr
              && s.parent.(!a) = pre do
          if named_at s Attr key.attr !a then add s.value.(!a) owner;
          incr a
        done
    | c :: rest ->
        (* the children of [pre]: each subtree skipped whole *)
        let child = ref (pre + 1) and stop = pre + s.size.(pre) in
        while !child <= stop do
          if named_at s Elem c !child then walk owner !child rest;
          child := !child + s.size.(!child) + 1
        done
  in
  Array.iter (fun pre -> walk pre pre key.children) (pres_named s q);
  let index = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter (fun v l -> Hashtbl.replace index v (Array.of_list (List.rev l))) acc;
  index

(* Built on the first probe of a (name, key path) pair and published like
   the element-name index; a table is complete before it is published
   and only read after, so threads and domains share it unlocked. *)
let value_index s (q : Qname.t) key =
  let k = (expanded q, List.map expanded key.children, expanded key.attr) in
  match Value_key.find_opt k (Atomic.get s.values) with
  | Some index -> index
  | None ->
      let index = elements_valued s q key in
      publish s.values (Value_key.add k index);
      index

(** [probe ~or_self n q key vs]: the elements named [q] in [n]'s subtree
    ([n] itself only if [or_self]) that reach one of the values [vs] over
    [key], in document order — what [descendant(-or-self)::q[key = vs]]
    selects when every item of [vs] compares as a string. *)
let probe ~or_self n (q : Qname.t) key vs =
  let index = value_index n.store q key in
  let slice v =
    match Hashtbl.find_opt index v with
    | None -> []
    | Some pres ->
        let lo, hi = subtree_range ~or_self n pres in
        nodes_of n pres lo hi
  in
  match vs with
  | [ v ] -> slice v
  | vs -> List.sort_uniq compare_nodes (List.concat_map slice vs)

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let is_attr n = kind n = Attr

(** Children (non-attribute nodes whose parent is [n]), in document order. *)
let children n =
  let s = n.store in
  let stop = n.pre + s.size.(n.pre) in
  let rec loop pre acc =
    if pre > stop then List.rev acc
    else
      let acc =
        if s.parent.(pre) = n.pre && s.kind.(pre) <> Attr then
          { n with pre } :: acc
        else acc
      in
      (* skip whole subtrees that are not direct children *)
      let pre' =
        if s.parent.(pre) = n.pre then pre + s.size.(pre) + 1 else pre + 1
      in
      loop pre' acc
  in
  loop (n.pre + 1) []

let attributes n =
  let s = n.store in
  let rec loop pre acc =
    if pre < Array.length s.kind && s.kind.(pre) = Attr
       && s.parent.(pre) = n.pre
    then loop (pre + 1) ({ n with pre } :: acc)
    else List.rev acc
  in
  if kind n = Elem then loop (n.pre + 1) [] else []

let descendants n =
  let s = n.store in
  let stop = n.pre + s.size.(n.pre) in
  let rec loop pre acc =
    if pre > stop then List.rev acc
    else
      let acc = if s.kind.(pre) <> Attr then { n with pre } :: acc else acc in
      loop (pre + 1) acc
  in
  loop (n.pre + 1) []

let descendant_or_self n =
  if kind n = Attr then [ n ] else n :: descendants n

let rec ancestors n =
  match parent n with None -> [] | Some p -> p :: ancestors p

let following_siblings n =
  match parent n with
  | None -> []
  | Some p -> List.filter (fun c -> c.pre > n.pre) (children p)

let preceding_siblings n =
  match parent n with
  | None -> []
  | Some p -> List.filter (fun c -> c.pre < n.pre) (children p)

let following n =
  let s = n.store in
  let start = n.pre + s.size.(n.pre) + 1 in
  let rec loop pre acc =
    if pre >= Array.length s.kind then List.rev acc
    else
      let acc = if s.kind.(pre) <> Attr then { n with pre } :: acc else acc in
      loop (pre + 1) acc
  in
  loop start []

let preceding n =
  (* O(log depth) ancestor test instead of List.mem over the ancestor list,
     keeping the axis linear in the scanned prefix even for deep documents *)
  let module IntSet = Set.Make (Int) in
  let ancs = IntSet.of_list (List.map (fun a -> a.pre) (ancestors n)) in
  let rec loop pre acc =
    if pre >= n.pre then List.rev acc
    else
      let acc =
        if n.store.kind.(pre) <> Attr && not (IntSet.mem pre ancs) then
          { n with pre } :: acc
        else acc
      in
      loop (pre + 1) acc
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(** XDM string value of a node. *)
let string_value n =
  let s = n.store in
  match s.kind.(n.pre) with
  | Txt | Comm | Attr -> s.value.(n.pre)
  | Pi -> s.value.(n.pre)
  | Doc | Elem ->
      let buf = Buffer.create 64 in
      let stop = n.pre + s.size.(n.pre) in
      for pre = n.pre to stop do
        if s.kind.(pre) = Txt then Buffer.add_string buf s.value.(pre)
      done;
      Buffer.contents buf

(** Reconstruct the immutable subtree rooted at [n] (used for call-by-value
    marshaling and for applying updates). *)
let rec to_tree n =
  let s = n.store in
  match s.kind.(n.pre) with
  | Txt -> Tree.Text s.value.(n.pre)
  | Comm -> Tree.Comment s.value.(n.pre)
  | Attr ->
      (* An attribute extracted on its own loses its owner; represent it as
         a single-attribute element is wrong, so expose via [attr_tree]. *)
      Tree.Text s.value.(n.pre)
  | Pi ->
      Tree.Pi
        {
          target = (match s.name.(n.pre) with Some q -> q.local | None -> "");
          data = s.value.(n.pre);
        }
  | Doc -> Tree.Document (List.map to_tree (children n))
  | Elem ->
      let nm = match s.name.(n.pre) with Some q -> q | None -> assert false in
      let attrs =
        List.map
          (fun a ->
            {
              Tree.name =
                (match a.store.name.(a.pre) with
                | Some q -> q
                | None -> assert false);
              value = a.store.value.(a.pre);
            })
          (attributes n)
      in
      Tree.Element { name = nm; attrs; children = List.map to_tree (children n) }

(** Attribute node as a [Tree.attr]; raises if [n] is not an attribute. *)
let attr_tree n =
  match (kind n, name n) with
  | Attr, Some q -> { Tree.name = q; value = n.store.value.(n.pre) }
  | _ -> invalid_arg "Store.attr_tree: not an attribute node"
