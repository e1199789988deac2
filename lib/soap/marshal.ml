(** Parameter marshaling for SOAP XRPC — the [s2n]/[n2s] functions of §2.2.

    [s2n] turns an XDM sequence into an [xrpc:sequence] element; [n2s]
    performs the inverse.  Crucially, [n2s] re-shreds every node-typed value
    into a {e fresh} store, which enforces the paper's call-by-value
    semantics: on the receiving side each node parameter is the root of its
    own XML fragment, so upward and sideways XPath axes yield empty results
    and ancestor/descendant relationships between separate parameters are
    destroyed (§2.2, "Call-by-Value"). *)

open Xrpc_xml

exception Marshal_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Marshal_error s)) fmt

let xrpc local = Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc local
let xsi local = Qname.make ~prefix:"xsi" ~uri:Qname.ns_xsi local

let wrap_item = function
    | Xdm.Atomic a ->
        Tree.elem (xrpc "atomic-value")
          ~attrs:
            [ Tree.attr (xsi "type") ("xs:" ^ Xs.type_name (Xs.type_of a)) ]
          [ Tree.Text (Xs.to_string a) ]
    | Xdm.Node n -> (
        match Store.kind n with
        | Store.Elem -> Tree.elem (xrpc "element") [ Store.to_tree n ]
        | Store.Doc ->
            Tree.elem (xrpc "document")
              (match Store.to_tree n with
              | Tree.Document cs -> cs
              | t -> [ t ])
        | Store.Txt -> Tree.elem (xrpc "text") [ Tree.Text (Store.string_value n) ]
        | Store.Comm ->
            Tree.elem (xrpc "comment") [ Tree.Text (Store.string_value n) ]
        | Store.Pi ->
            let target =
              match Store.name n with Some q -> Qname.to_string q | None -> ""
            in
            Tree.elem (xrpc "pi")
              ~attrs:[ Tree.attr (Qname.make "target") target ]
              [ Tree.Text (Store.string_value n) ]
        | Store.Attr ->
            let a = Store.attr_tree n in
            Tree.elem (xrpc "attribute") ~attrs:[ a ] [])

(** [s2n seq] — sequence-to-node: the SOAP representation of [seq]. *)
let s2n (seq : Xdm.sequence) : Tree.t =
  Tree.elem (xrpc "sequence") (List.map wrap_item seq)

(** Call-by-fragment marshaling — the protocol extension sketched in
    footnote 4 of the paper.  Within one call, a node parameter that is a
    descendant-or-self of an {e earlier, fully serialized} node parameter
    is sent as a reference [<xrpc:element xrpc:nodeid="Δpre"
    xrpc:param="p" xrpc:item="i"/>] instead of being re-serialized.  On
    the receiving side the reference resolves {e into the same fragment},
    so ancestor/descendant relationships between parameters — destroyed by
    plain call-by-value — are preserved, and the SOAP message shrinks. *)
let s2n_call ?(fragments = false) (params : Xdm.sequence list) : Tree.t list =
  if not fragments then List.map s2n params
  else begin
    (* nodes already serialized in full, with their (param, item) slot *)
    let serialized : (Store.node * int * int) list ref = ref [] in
    let covering (n : Store.node) =
      List.find_opt
        (fun ((anc : Store.node), _, _) ->
          anc.Store.store.Store.doc_id = n.Store.store.Store.doc_id
          && anc.Store.pre <= n.Store.pre
          && n.Store.pre
             <= anc.Store.pre + anc.Store.store.Store.size.(anc.Store.pre))
        !serialized
    in
    List.mapi
      (fun pi seq ->
        Tree.elem (xrpc "sequence")
          (List.mapi
             (fun ii item ->
               match item with
               | Xdm.Node n when Store.kind n = Store.Elem -> (
                   match covering n with
                   | Some (anc, api, aii) ->
                       Tree.elem (xrpc "element")
                         ~attrs:
                           [
                             Tree.attr (xrpc "nodeid")
                               (string_of_int (n.Store.pre - anc.Store.pre));
                             Tree.attr (xrpc "param") (string_of_int api);
                             Tree.attr (xrpc "item") (string_of_int aii);
                           ]
                         []
                   | None ->
                       serialized := (n, pi, ii) :: !serialized;
                       wrap_item item)
               | item -> wrap_item item)
             seq))
      params
  end

(** [n2s node_tree] — node-to-sequence: parse an [xrpc:sequence] element
    back into an XDM sequence, constructing each node value as a separate
    fragment (fresh store). *)
let n2s (t : Tree.t) : Xdm.sequence =
  let unwrap_child = function
    | Tree.Element { name; attrs; children } when name.Qname.uri = Qname.ns_xrpc
      -> (
        match name.Qname.local with
        | "atomic-value" ->
            let typ =
              match
                List.find_opt
                  (fun (a : Tree.attr) ->
                    a.name.Qname.local = "type"
                    && (a.name.Qname.uri = Qname.ns_xsi || a.name.Qname.uri = ""))
                  attrs
              with
              | None -> Xs.TUntypedAtomic
              | Some a -> (
                  let _, local = Qname.split a.value in
                  match Xs.type_of_name local with
                  | Some t -> t
                  | None -> Xs.TUntypedAtomic)
            in
            (* a lexical form its type rejects is a malformed message *)
            (match Xs.of_string typ (Tree.string_value (Tree.Document children)) with
            | v -> Xdm.Atomic v
            | exception Xs.Type_error m -> err "xrpc:atomic-value: %s" m)
        | "element" -> (
            match
              List.find_opt
                (function Tree.Element _ -> true | _ -> false)
                children
            with
            | Some e ->
                let store = Store.shred e in
                Xdm.Node (Store.root store)
            | None -> err "xrpc:element without element child")
        | "document" ->
            let store = Store.shred (Tree.Document children) in
            Xdm.Node (Store.root store)
        | "text" ->
            let store = Store.shred (Tree.Text (Tree.string_value (Tree.Document children))) in
            Xdm.Node (Store.root store)
        | "comment" ->
            let store = Store.shred (Tree.Comment (Tree.string_value (Tree.Document children))) in
            Xdm.Node (Store.root store)
        | "pi" ->
            let target =
              match
                List.find_opt
                  (fun (a : Tree.attr) -> a.name.Qname.local = "target")
                  attrs
              with
              | Some a -> a.value
              | None -> ""
            in
            let store =
              Store.shred
                (Tree.Pi { target; data = Tree.string_value (Tree.Document children) })
            in
            Xdm.Node (Store.root store)
        | "attribute" -> (
            match attrs with
            | a :: _ ->
                (* An attribute node needs an owner element in the store;
                   shred a carrier element and return its attribute. *)
                let store =
                  Store.shred (Tree.elem (xrpc "attr-carrier") ~attrs:[ a ] [])
                in
                let owner = Store.root store in
                (match Store.attributes owner with
                | at :: _ -> Xdm.Node at
                | [] -> err "attribute carrier lost its attribute")
            | [] -> err "xrpc:attribute without attribute")
        | other -> err "unexpected xrpc:%s in sequence" other)
    | Tree.Text s when String.trim s = "" ->
        err "whitespace"
    | _ -> err "unexpected content in xrpc:sequence"
  in
  match t with
  | Tree.Element { name; children; _ }
    when name.Qname.uri = Qname.ns_xrpc && name.Qname.local = "sequence" ->
      List.filter_map
        (fun c ->
          match c with
          | Tree.Text s when String.trim s = "" -> None
          | c -> Some (unwrap_child c))
        children
  | _ -> err "expected xrpc:sequence element"

let get_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

(* an [xrpc:nodeid] reference into an earlier parameter *)
let is_ref = function
  | Tree.Element { name; attrs; _ } ->
      name.Qname.uri = Qname.ns_xrpc
      && name.Qname.local = "element"
      && get_attr attrs "nodeid" <> None
  | _ -> false

(* the call-by-fragment decoder: references resolve into the fragments of
   their fully-serialized ancestors *)
let n2s_refs (seq_trees : Tree.t list) : Xdm.sequence list =
  let children_of = function
    | Tree.Element { name; children; _ }
      when name.Qname.uri = Qname.ns_xrpc && name.Qname.local = "sequence" ->
        List.filter
          (function Tree.Text s -> String.trim s <> "" | _ -> true)
          children
    | _ -> err "expected xrpc:sequence element"
  in
  let specs =
    List.map
      (fun t ->
        List.map
          (fun c ->
            match c with
            | Tree.Element { attrs; _ } when is_ref c ->
                let geti what =
                  match get_attr attrs what with
                  | Some v -> ( try int_of_string v with _ -> err "bad %s" what)
                  | None -> err "nodeid reference missing %s" what
                in
                `Ref (geti "param", geti "item", geti "nodeid")
            | c -> `Plain c)
          (children_of t))
      seq_trees
  in
  (* pass 1: plain items *)
  let table : (int * int, Xdm.item) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun pi items ->
      List.iteri
        (fun ii spec ->
          match spec with
          | `Plain c ->
              let seq = n2s (Tree.elem (xrpc "sequence") [ c ]) in
              (match seq with
              | [ item ] -> Hashtbl.replace table (pi, ii) item
              | _ -> err "single item expected")
          | `Ref _ -> ())
        items)
    specs;
  (* pass 2: resolve references into their ancestors' fragments *)
  List.mapi
    (fun pi items ->
      List.mapi
        (fun ii spec ->
          match spec with
          | `Plain _ -> Hashtbl.find table (pi, ii)
          | `Ref (rp, ri, delta) -> (
              match Hashtbl.find_opt table (rp, ri) with
              | Some (Xdm.Node ({ Store.store; pre } as base)) ->
                  (* the reference must name a node of the shipped
                     fragment: base itself or one of its descendants *)
                  if delta < 0 || delta > store.Store.size.(pre) then
                    err "nodeid offset %d out of range" delta
                  else Xdm.Node { base with Store.pre = pre + delta }
              | Some (Xdm.Atomic _) -> err "nodeid reference to atomic parameter"
              | None -> err "nodeid reference to unknown parameter (%d,%d)" rp ri))
        items)
    specs

(** [n2s_call seqs] — unmarshal all parameter sequences of one call,
    resolving any [xrpc:nodeid] references (footnote-4 extension) into the
    fragments of their fully-serialized ancestors.  Without references
    (every call not sent by fragment) this is exactly mapping {!n2s}. *)
let n2s_call (seq_trees : Tree.t list) : Xdm.sequence list =
  let has_refs = function
    | Tree.Element { children; _ } -> List.exists is_ref children
    | _ -> false
  in
  if List.exists has_refs seq_trees then n2s_refs seq_trees
  else List.map n2s seq_trees
