(* Test-only oracle: the XML serializer as it stood before the in-place
   rewrite of Xrpc_xml.Serialize, kept verbatim so the differential
   battery in test_codec can compare byte for byte.  Nothing under lib/
   links this module. *)

open Xrpc_xml

(** XML serialization of {!Tree.t} values.

    Used for SOAP XRPC messages on the wire and for query result output.
    Escaping follows the XML spec; attribute values additionally escape
    quotes.  The serializer guarantees {e namespace well-formedness}: a
    [Qname] carries its resolved URI, and any prefix binding not already
    in scope (either inherited or present as an explicit [xmlns]
    attribute) is re-declared on the element that needs it — the parser
    consumes [xmlns] attributes into scoping information, so this is what
    makes parse → serialize round-trips stable for namespaced documents. *)

let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* prefix -> uri bindings in scope, innermost first *)
let lookup env prefix = List.assoc_opt prefix env

let rec write ?(indent = false) ?(depth = 0) ~ns_env buf t =
  let pad () =
    if indent then (
      if depth > 0 || Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' '))
  in
  match t with
  | Tree.Document cs -> List.iter (write ~indent ~depth ~ns_env buf) cs
  | Tree.Text s -> Buffer.add_string buf (escape_text s)
  | Tree.Comment s ->
      pad ();
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s;
      Buffer.add_string buf "-->"
  | Tree.Pi { target; data } ->
      pad ();
      Buffer.add_string buf "<?";
      Buffer.add_string buf target;
      if data <> "" then (
        Buffer.add_char buf ' ';
        Buffer.add_string buf data);
      Buffer.add_string buf "?>"
  | Tree.Element { name; attrs; children } ->
      pad ();
      (* bindings declared explicitly as xmlns attributes on this element *)
      let explicit =
        List.filter_map
          (fun (a : Tree.attr) ->
            if a.name.Qname.prefix = "xmlns" then Some (a.name.Qname.local, a.value)
            else if a.name.Qname.prefix = "" && a.name.Qname.local = "xmlns" then
              Some ("", a.value)
            else None)
          attrs
      in
      let env = explicit @ ns_env in
      (* bindings required by the element and attribute names *)
      let needed =
        (name.Qname.prefix, name.Qname.uri)
        :: List.filter_map
             (fun (a : Tree.attr) ->
               if a.name.Qname.prefix <> "" && a.name.Qname.prefix <> "xmlns"
                  && a.name.Qname.uri <> ""
               then Some (a.name.Qname.prefix, a.name.Qname.uri)
               else None)
             attrs
      in
      let missing_env =
        List.fold_left
          (fun (missing, env) (prefix, uri) ->
            if prefix = "xml" || List.mem_assoc prefix missing then (missing, env)
            else
              match (lookup env prefix, uri) with
              | Some bound, uri when bound = uri -> (missing, env)
              | None, "" -> (missing, env)
              | _, uri when prefix = "" && uri = "" ->
                  (* un-bind an inherited default namespace *)
                  (("", "") :: missing, ("", "") :: env)
              | _ -> ((prefix, uri) :: missing, (prefix, uri) :: env)
          )
          ([], env) needed
      in
      let missing = List.rev (fst missing_env) and env = snd missing_env in
      Buffer.add_char buf '<';
      Buffer.add_string buf (Qname.to_string name);
      List.iter
        (fun (prefix, uri) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf
            (if prefix = "" then "xmlns" else "xmlns:" ^ prefix);
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_attr uri);
          Buffer.add_char buf '"')
        missing;
      List.iter
        (fun (a : Tree.attr) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Qname.to_string a.name);
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_attr a.value);
          Buffer.add_char buf '"')
        attrs;
      if children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let only_text =
          List.for_all (function Tree.Text _ -> true | _ -> false) children
        in
        List.iter
          (write ~indent:(indent && not only_text) ~depth:(depth + 1) ~ns_env:env
             buf)
          children;
        if indent && not only_text then (
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (2 * depth) ' '));
        Buffer.add_string buf "</";
        Buffer.add_string buf (Qname.to_string name);
        Buffer.add_char buf '>'
      end

(** [to_buffer buf t] serializes a tree (no XML declaration) straight
    into [buf] — the streaming hook for servers that serialize responses
    into a reused per-connection output buffer instead of materializing
    an intermediate string. *)
let to_buffer ?(indent = false) buf t =
  write ~indent ~ns_env:[ ("xml", Qname.ns_xml) ] buf t

(** [to_string t] serializes a tree without an XML declaration. *)
let to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  to_buffer ~indent buf t;
  Buffer.contents buf

let xml_declaration = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"

(** [document_to_buffer buf t] — {!to_buffer} with the UTF-8 XML
    declaration prepended, the on-the-wire form of SOAP XRPC messages. *)
let document_to_buffer ?(indent = false) buf t =
  Buffer.add_string buf xml_declaration;
  to_buffer ~indent buf t

(** [document_to_string t] prepends the UTF-8 XML declaration, as SOAP XRPC
    messages in the paper do. *)
let document_to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  document_to_buffer ~indent buf t;
  Buffer.contents buf
