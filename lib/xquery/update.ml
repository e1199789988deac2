(** XQuery Update Facility: pending update lists and [applyUpdates].

    Updating expressions never mutate anything during evaluation; they emit
    {e update primitives} into a pending update list (PUL).  Only
    [applyUpdates] (invoked by the peer when a query — or, under isolation
    rule R'_Fu, a whole distributed transaction — finishes) turns a PUL into
    new document trees.  Because trees are immutable, "applying" a PUL means
    rebuilding the affected documents; unaffected documents share structure.

    Per the XQUF (and §2.3 of the paper), the order in which multiple
    updates hit the same node is non-deterministic, so PULs from different
    XRPC calls can simply be unioned. *)

open Xrpc_xml

type primitive =
  | Insert_into of Store.node * Tree.t list
  | Insert_first of Store.node * Tree.t list
  | Insert_before of Store.node * Tree.t list
  | Insert_after of Store.node * Tree.t list
  | Insert_attributes of Store.node * Tree.attr list
  | Delete_node of Store.node
  | Replace_node of Store.node * Tree.t list
  | Replace_attr of Store.node * Tree.attr list
  | Replace_value of Store.node * string
  | Rename of Store.node * Qname.t
  | Put of Tree.t * string  (** [fn:put]: store a document at a URI *)

type pul = primitive list

exception Update_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Update_error s)) fmt

let target_node = function
  | Insert_into (n, _) | Insert_first (n, _) | Insert_before (n, _)
  | Insert_after (n, _) | Insert_attributes (n, _) | Delete_node n
  | Replace_node (n, _) | Replace_attr (n, _) | Replace_value (n, _)
  | Rename (n, _) ->
      Some n
  | Put _ -> None

(* Per-node edit record accumulated before the rebuild. *)
type edits = {
  mutable ins_into : Tree.t list;
  mutable ins_first : Tree.t list;
  mutable ins_before : Tree.t list;
  mutable ins_after : Tree.t list;
  mutable ins_attrs : Tree.attr list;
  mutable deleted : bool;
  mutable replaced : Tree.t list option;
  mutable replaced_attr : Tree.attr list option;
  mutable new_value : string option;
  mutable new_name : Qname.t option;
}

let fresh_edits () =
  {
    ins_into = []; ins_first = []; ins_before = []; ins_after = [];
    ins_attrs = []; deleted = false; replaced = None; replaced_attr = None;
    new_value = None; new_name = None;
  }

(** [apply pul] computes the new document tree for every store touched by
    [pul].  Returns [(store, new_tree) list] for node-targeted edits and a
    list of [fn:put] documents as [(uri, tree) list]; the database layer
    commits both. *)
let apply (pul : pul) :
    (Store.t * Tree.t) list * (string * Tree.t) list =
  let puts =
    List.filter_map (function Put (t, uri) -> Some (uri, t) | _ -> None) pul
  in
  (* group primitives by store *)
  let by_store : (int, Store.t * (int, edits) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let edits_for (n : Store.node) =
    let store = n.Store.store in
    let _, tbl =
      match Hashtbl.find_opt by_store store.Store.doc_id with
      | Some entry -> entry
      | None ->
          let entry = (store, Hashtbl.create 8) in
          Hashtbl.add by_store store.Store.doc_id entry;
          entry
    in
    match Hashtbl.find_opt tbl n.Store.pre with
    | Some e -> e
    | None ->
        let e = fresh_edits () in
        Hashtbl.add tbl n.Store.pre e;
        e
  in
  List.iter
    (fun prim ->
      match prim with
      | Put _ -> ()
      | Insert_into (n, ts) ->
          let e = edits_for n in
          e.ins_into <- e.ins_into @ ts
      | Insert_first (n, ts) ->
          let e = edits_for n in
          e.ins_first <- e.ins_first @ ts
      | Insert_before (n, ts) ->
          let e = edits_for n in
          e.ins_before <- e.ins_before @ ts
      | Insert_after (n, ts) ->
          let e = edits_for n in
          e.ins_after <- e.ins_after @ ts
      | Insert_attributes (n, ats) ->
          let e = edits_for n in
          e.ins_attrs <- e.ins_attrs @ ats
      | Delete_node n -> (edits_for n).deleted <- true
      | Replace_node (n, ts) -> (edits_for n).replaced <- Some ts
      | Replace_attr (n, ats) -> (edits_for n).replaced_attr <- Some ats
      | Replace_value (n, v) -> (edits_for n).new_value <- Some v
      | Rename (n, q) -> (edits_for n).new_name <- Some q)
    pul;
  let rebuild_store (store : Store.t) tbl =
    let edits_of pre = Hashtbl.find_opt tbl pre in
    let rec rebuild (n : Store.node) : Tree.t list =
      let e = edits_of n.Store.pre in
      match e with
      | Some { deleted = true; _ } -> []
      | Some { replaced = Some ts; _ } -> ts
      | _ ->
          let e = Option.value ~default:(fresh_edits ()) e in
          let kids () =
            e.ins_first
            @ List.concat_map
                (fun c ->
                  let ce = edits_of c.Store.pre in
                  let before =
                    match ce with Some x -> x.ins_before | None -> []
                  in
                  let after =
                    match ce with Some x -> x.ins_after | None -> []
                  in
                  before @ rebuild c @ after)
                (Store.children n)
            @ e.ins_into
          in
          let node =
            match Store.kind n with
            | Store.Doc -> Tree.Document (kids ())
            | Store.Elem ->
                let name =
                  match (e.new_name, Store.name n) with
                  | Some q, _ -> q
                  | None, Some q -> q
                  | None, None -> assert false
                in
                let attrs =
                  List.concat_map
                    (fun a ->
                      match edits_of a.Store.pre with
                      | Some { deleted = true; _ } -> []
                      | Some { replaced_attr = Some ats; _ } -> ats
                      | ae ->
                          let base = Store.attr_tree a in
                          let base =
                            match ae with
                            | Some { new_value = Some v; _ } ->
                                { base with Tree.value = v }
                            | _ -> base
                          in
                          let base =
                            match ae with
                            | Some { new_name = Some q; _ } ->
                                { base with Tree.name = q }
                            | _ -> base
                          in
                          [ base ])
                    (Store.attributes n)
                  @ e.ins_attrs
                in
                (match e.new_value with
                | Some v -> Tree.Element { name; attrs; children = [ Tree.Text v ] }
                | None -> Tree.Element { name; attrs; children = kids () })
            | Store.Txt ->
                Tree.Text
                  (Option.value ~default:(Store.string_value n) e.new_value)
            | Store.Comm ->
                Tree.Comment
                  (Option.value ~default:(Store.string_value n) e.new_value)
            | Store.Pi ->
                let target =
                  match (e.new_name, Store.name n) with
                  | Some q, _ -> q.Qname.local
                  | None, Some q -> q.Qname.local
                  | None, None -> ""
                in
                Tree.Pi
                  {
                    target;
                    data =
                      Option.value ~default:(Store.string_value n) e.new_value;
                  }
            | Store.Attr ->
                (* handled by the owning element above *)
                assert false
          in
          [ node ]
    in
    match rebuild (Store.root store) with
    | [ t ] -> t
    | [] -> err "cannot delete the document root"
    | _ -> err "document root replaced by multiple nodes"
  in
  let docs =
    Hashtbl.fold
      (fun _ (store, tbl) acc ->
        (* ignore stores of constructed (non-database) fragments with no URI:
           still rebuild so the caller can decide *)
        (store, rebuild_store store tbl) :: acc)
      by_store []
  in
  (docs, puts)

(** [value_edits pul] — when [pul] changes values and names in place and
    nothing else, the column writes that turn each store it targets into
    what {!apply} and a re-shred would build; [None] when some primitive
    needs the rebuild.  In place means: [Replace_value] on a text,
    attribute, comment or processing-instruction node, or on an element
    whose only child is one text node (the write goes to that child), and
    [Rename] of an element, attribute or processing instruction.  Stores
    come in the order the PUL first targets them.  Repeated edits to one
    node resolve as in {!apply}: the last [Replace_value] and the last
    [Rename] win, and an element's new value overrides one given to its
    text child. *)
let value_edits (pul : pul) : (Store.t * (int * Store.edit) list) list option =
  let exception Rebuild in
  (* per store: value writes by pre, each marked when it comes through an
     element, and renames by pre *)
  let stores = ref [] in
  let writes (n : Store.node) =
    let s = n.Store.store in
    match List.assq_opt s !stores with
    | Some w -> w
    | None ->
        let w = (Hashtbl.create 4, Hashtbl.create 4) in
        stores := (s, w) :: !stores;
        w
  in
  let set_value n pre v ~via_elem =
    let values, _ = writes n in
    match Hashtbl.find_opt values pre with
    | Some (_, true) when not via_elem -> ()
    | _ -> Hashtbl.replace values pre (v, via_elem)
  in
  let rename n q =
    let _, names = writes n in
    Hashtbl.replace names n.Store.pre q
  in
  let edit prim =
    match prim with
    | Replace_value (n, v) -> (
        match Store.kind n with
        | Store.Txt | Store.Attr | Store.Comm | Store.Pi ->
            set_value n n.Store.pre v ~via_elem:false
        | Store.Elem -> (
            match Store.children n with
            | [ c ] when Store.kind c = Store.Txt ->
                set_value n c.Store.pre v ~via_elem:true
            | _ -> raise Rebuild)
        | Store.Doc -> raise Rebuild)
    | Rename (n, q) -> (
        match Store.kind n with
        | Store.Elem | Store.Attr -> rename n q
        | Store.Pi -> rename n (Qname.make q.Qname.local)
        | Store.Doc | Store.Txt | Store.Comm -> raise Rebuild)
    | _ -> raise Rebuild
  in
  match List.iter edit pul with
  | exception Rebuild -> None
  | () ->
      let by_pre tbl edit =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Hashtbl.fold (fun pre x acc -> (pre, edit x) :: acc) tbl [])
      in
      Some
        (List.rev_map
           (fun (store, (values, names)) ->
             ( store,
               by_pre values (fun (v, _) -> Store.Value v)
               @ by_pre names (fun q -> Store.Name q) ))
           !stores)

(** Human-readable PUL dump (used by tests and [fn:trace]). *)
let primitive_to_string = function
  | Insert_into (_, ts) -> Printf.sprintf "insert-into(%d nodes)" (List.length ts)
  | Insert_first (_, ts) -> Printf.sprintf "insert-first(%d nodes)" (List.length ts)
  | Insert_before (_, ts) -> Printf.sprintf "insert-before(%d nodes)" (List.length ts)
  | Insert_after (_, ts) -> Printf.sprintf "insert-after(%d nodes)" (List.length ts)
  | Insert_attributes (_, ats) -> Printf.sprintf "insert-attributes(%d)" (List.length ats)
  | Delete_node _ -> "delete"
  | Replace_node _ -> "replace-node"
  | Replace_attr _ -> "replace-attribute"
  | Replace_value (_, v) -> Printf.sprintf "replace-value(%S)" v
  | Rename (_, q) -> Printf.sprintf "rename(%s)" (Qname.to_string q)
  | Put (_, uri) -> Printf.sprintf "put(%s)" uri
