(** Parameter marshaling for SOAP XRPC — the [s2n]/[n2s] functions of §2.2.

    [add_sequence] writes an XDM sequence as an [xrpc:sequence] element;
    [read_sequence] performs the inverse, reading the element off the
    envelope's {!Xml_parse.cursor}.  Neither builds an envelope tree:
    atomic values are written and read in place, and only a node value is
    a tree, because it is serialized from or shredded into a store.
    Crucially, [read_sequence] re-shreds every node-typed value into a
    {e fresh} store, which enforces the paper's call-by-value semantics:
    on the receiving side each node parameter is the root of its own XML
    fragment, so upward and sideways XPath axes yield empty results and
    ancestor/descendant relationships between separate parameters are
    destroyed (§2.2, "Call-by-Value"). *)

open Xrpc_xml

exception Marshal_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Marshal_error s)) fmt

(* An xs:nonNegativeInteger (XRPC.xsd): surrounding whitespace, an
   optional "+", then at most 9 ASCII digits.  [int_of_string] alone
   would also take "-3", "0x1F" and "1_0". *)
let nat s =
  let t = String.trim s in
  let d =
    if t <> "" && t.[0] = '+' then String.sub t 1 (String.length t - 1) else t
  in
  if
    d <> "" && String.length d <= 9
    && String.for_all (function '0' .. '9' -> true | _ -> false) d
  then Some (int_of_string d)
  else None

(* a received value, bounded for an error message *)
let clip s = if String.length s > 20 then String.sub s 0 20 ^ "..." else s

let xrpc local = Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc local

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(** The bindings every SOAP XRPC envelope declares on its root; a node
    value is serialized inside them. *)
let scope =
  [ ("xrpc", Qname.ns_xrpc); ("env", Qname.ns_env); ("xs", Qname.ns_xs);
    ("xsi", Qname.ns_xsi) ]

let add_tree buf t = Serialize.to_buffer ~scope buf t

(* [<xrpc:tag>text</xrpc:tag>], the text escaped *)
let add_text_elem buf tag text =
  Buffer.add_string buf "<xrpc:";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>';
  Serialize.add_escaped_text buf text;
  Buffer.add_string buf "</xrpc:";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

let add_item buf = function
  | Xdm.Atomic a ->
      Buffer.add_string buf "<xrpc:atomic-value xsi:type=\"xs:";
      Buffer.add_string buf (Xs.type_name (Xs.type_of a));
      Buffer.add_string buf "\">";
      Serialize.add_escaped_text buf (Xs.to_string a);
      Buffer.add_string buf "</xrpc:atomic-value>"
  | Xdm.Node n -> (
      match Store.kind n with
      | Store.Elem ->
          Buffer.add_string buf "<xrpc:element>";
          add_tree buf (Store.to_tree n);
          Buffer.add_string buf "</xrpc:element>"
      | Store.Doc -> (
          match Store.children n with
          | [] -> Buffer.add_string buf "<xrpc:document/>"
          | _ ->
              Buffer.add_string buf "<xrpc:document>";
              add_tree buf (Store.to_tree n);
              Buffer.add_string buf "</xrpc:document>")
      | Store.Txt -> add_text_elem buf "text" (Store.string_value n)
      | Store.Comm -> add_text_elem buf "comment" (Store.string_value n)
      | Store.Pi ->
          let target =
            match Store.name n with Some q -> Qname.to_string q | None -> ""
          in
          Buffer.add_string buf "<xrpc:pi target=\"";
          Serialize.add_escaped_attr buf target;
          Buffer.add_string buf "\">";
          Serialize.add_escaped_text buf (Store.string_value n);
          Buffer.add_string buf "</xrpc:pi>"
      | Store.Attr ->
          (* the attribute may need its own namespace declaration *)
          add_tree buf
            (Tree.elem (xrpc "attribute") ~attrs:[ Store.attr_tree n ] []))

let rec add_items buf = function
  | [] -> ()
  | item :: rest ->
      add_item buf item;
      add_items buf rest

(** [add_sequence buf seq] — sequence-to-node: the SOAP representation of
    [seq], an [xrpc:sequence] element, appended to [buf]. *)
let add_sequence buf (seq : Xdm.sequence) =
  match seq with
  | [] -> Buffer.add_string buf "<xrpc:sequence/>"
  | _ ->
      Buffer.add_string buf "<xrpc:sequence>";
      add_items buf seq;
      Buffer.add_string buf "</xrpc:sequence>"

(** Call-by-fragment marshaling — the protocol extension sketched in
    footnote 4 of the paper.  Within one call, a node parameter that is a
    descendant-or-self of an {e earlier, fully serialized} node parameter
    is sent as a reference [<xrpc:element xrpc:nodeid="Δpre"
    xrpc:param="p" xrpc:item="i"/>] instead of being re-serialized.  On
    the receiving side the reference resolves {e into the same fragment},
    so ancestor/descendant relationships between parameters — destroyed by
    plain call-by-value — are preserved, and the SOAP message shrinks. *)
let add_fragment_params buf (params : Xdm.sequence list) =
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
  List.iteri
    (fun pi seq ->
      match seq with
      | [] -> Buffer.add_string buf "<xrpc:sequence/>"
      | _ ->
          Buffer.add_string buf "<xrpc:sequence>";
          List.iteri
            (fun ii item ->
              match item with
              | Xdm.Node n when Store.kind n = Store.Elem -> (
                  match covering n with
                  | Some (anc, api, aii) ->
                      Printf.bprintf buf
                        "<xrpc:element xrpc:nodeid=\"%d\" xrpc:param=\"%d\" \
                         xrpc:item=\"%d\"/>"
                        (n.Store.pre - anc.Store.pre) api aii
                  | None ->
                      serialized := (n, pi, ii) :: !serialized;
                      add_item buf item)
              | item -> add_item buf item)
            seq;
          Buffer.add_string buf "</xrpc:sequence>")
    params

(** [add_params buf params] — the parameter sequences of one call, in
    order; with [fragments], by {!add_fragment_params}. *)
let add_params ?(fragments = false) buf (params : Xdm.sequence list) =
  if fragments then add_fragment_params buf params
  else List.iter (add_sequence buf) params

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let is_xrpc c local =
  let q = Xml_parse.name c in
  String.equal q.Qname.local local && String.equal q.Qname.uri Qname.ns_xrpc

let shredded tree = Xdm.Node (Store.root (Store.shred tree))
let xsi_type_ns uri = String.equal uri Qname.ns_xsi || uri = ""

(* At the [Start] of an item element: its value, read through its
   [End]. *)
let read_item c =
  if not (String.equal (Xml_parse.name c).Qname.uri Qname.ns_xrpc) then
    err "unexpected content in xrpc:sequence";
  match Xml_parse.local c with
  | "atomic-value" -> (
      let typ =
        match Xml_parse.attr_where c "type" xsi_type_ns with
        | None -> Xs.TUntypedAtomic
        | Some v -> (
            let _, local = Qname.split v in
            match Xs.type_of_name local with
            | Some t -> t
            | None -> Xs.TUntypedAtomic)
      in
      (* a lexical form its type rejects is a malformed message *)
      match Xs.of_string typ (Xml_parse.text_content c) with
      | v -> Xdm.Atomic v
      | exception Xs.Type_error m -> err "xrpc:atomic-value: %s" m)
  | "element" ->
      (* the first element child; text, comments and further elements
         are read and dropped *)
      let rec first found =
        match Xml_parse.next c with
        | Xml_parse.End | Xml_parse.Eof -> found
        | Xml_parse.Start -> (
            match found with
            | None -> first (Some (Xml_parse.element c))
            | Some _ ->
                Xml_parse.skip c;
                first found)
        | Xml_parse.Text | Xml_parse.Comment | Xml_parse.Pi -> first found
      in
      (match first None with
      | Some e -> shredded e
      | None -> err "xrpc:element without element child")
  | "document" -> shredded (Tree.Document (Xml_parse.content c))
  | "text" -> shredded (Tree.Text (Xml_parse.text_content c))
  | "comment" -> shredded (Tree.Comment (Xml_parse.text_content c))
  | "pi" ->
      let target = Option.value ~default:"" (Xml_parse.attr c "target") in
      shredded (Tree.Pi { target; data = Xml_parse.text_content c })
  | "attribute" -> (
      match Xml_parse.attrs c with
      | a :: _ -> (
          Xml_parse.skip c;
          (* An attribute node needs an owner element in the store;
             shred a carrier element and return its attribute. *)
          let store =
            Store.shred (Tree.elem (xrpc "attr-carrier") ~attrs:[ a ] [])
          in
          match Store.attributes (Store.root store) with
          | at :: _ -> Xdm.Node at
          | [] -> err "attribute carrier lost its attribute")
      | [] -> err "xrpc:attribute without attribute")
  | other -> err "unexpected xrpc:%s in sequence" other

(* an [xrpc:nodeid] reference into an earlier parameter *)
type reference = {
  at_param : int;
  at_item : int;
  param : int;
  item : int;
  delta : int;
}

let ref_attr c what =
  match Xml_parse.attr c what with
  | None -> err "nodeid reference missing %s" what
  | Some v -> (
      match nat v with
      | Some n -> n
      | None -> err "%s is not a non-negative integer: %S" what (clip v))

(* the item a reference holds until it is resolved; no decoded item is
   physically equal to it *)
let placeholder = Xdm.Atomic (Xs.Untyped "")

(* the items of the sequence whose [Start] was read, through its [End].
   In a call ([refs] is the call's), an [xrpc:nodeid] reference is added
   to [refs], and the item list holds {!placeholder} for it. *)
let rec read_items c ~in_call refs pi ii acc =
  match Xml_parse.next c with
  | Xml_parse.End | Xml_parse.Eof -> List.rev acc
  | Xml_parse.Start ->
      let item =
        if in_call && is_xrpc c "element" && Xml_parse.attr c "nodeid" <> None
        then (
          let r =
            {
              at_param = pi;
              at_item = ii;
              param = ref_attr c "param";
              item = ref_attr c "item";
              delta = ref_attr c "nodeid";
            }
          in
          Xml_parse.skip c;
          refs := r :: !refs;
          placeholder)
        else read_item c
      in
      read_items c ~in_call refs pi (ii + 1) (item :: acc)
  | Xml_parse.Text when String.trim (Xml_parse.text c) = "" ->
      read_items c ~in_call refs pi ii acc
  | Xml_parse.Text | Xml_parse.Comment | Xml_parse.Pi ->
      err "unexpected content in xrpc:sequence"

(* outside a call, nothing is added to it *)
let no_refs : reference list ref = ref []

let check_sequence c =
  if not (is_xrpc c "sequence") then err "expected xrpc:sequence element"

(** [read_sequence c] — node-to-sequence: at the [Start] of an
    [xrpc:sequence] element, its XDM sequence, read through its [End],
    each node value a separate fragment (fresh store). *)
let read_sequence c =
  check_sequence c;
  read_items c ~in_call:false no_refs 0 0 []

(* resolve references into the fragments of their fully serialized
   ancestors: a reference names a plain item of the call (not another
   reference), and a node of its fragment *)
let resolve (refs : reference list) (params : Xdm.sequence list) =
  let items = Array.of_list (List.map Array.of_list params) in
  (* the reference slots, marked before any is resolved *)
  let is_ref = Array.map (Array.map (fun item -> item == placeholder)) items in
  let base r =
    if
      r.param < Array.length items
      && r.item < Array.length items.(r.param)
      && not is_ref.(r.param).(r.item)
    then Some items.(r.param).(r.item)
    else None
  in
  List.iter
    (fun r ->
      items.(r.at_param).(r.at_item) <-
        (match base r with
        | Some (Xdm.Node ({ Store.store; pre } as b)) ->
            (* the reference must name a node of the shipped fragment:
               base itself or one of its descendants *)
            if r.delta > store.Store.size.(pre) then
              err "nodeid offset %d out of range" r.delta
            else Xdm.Node { b with Store.pre = pre + r.delta }
        | Some (Xdm.Atomic _) -> err "nodeid reference to atomic parameter"
        | None ->
            err "nodeid reference to unknown parameter (%d,%d)" r.param r.item))
    refs;
  Array.to_list (Array.map Array.to_list items)

let rec read_params c refs pi acc =
  match Xml_parse.next c with
  | Xml_parse.End | Xml_parse.Eof -> List.rev acc
  | Xml_parse.Start ->
      check_sequence c;
      let seq = read_items c ~in_call:true refs pi 0 [] in
      read_params c refs (pi + 1) (seq :: acc)
  | Xml_parse.Text | Xml_parse.Comment | Xml_parse.Pi -> read_params c refs pi acc

(** [read_call c] — at the [Start] of an [xrpc:call] element, its
    parameter sequences, read through its [End].  Each element child is
    one [xrpc:sequence]; [xrpc:nodeid] references (footnote-4 extension)
    resolve into the fragments of their fully serialized ancestors. *)
let read_call c =
  let refs = ref [] in
  let params = read_params c refs 0 [] in
  match !refs with [] -> params | refs -> resolve refs params
