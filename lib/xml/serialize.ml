(* Everything is written in place into the target buffer: escaping
   copies unescaped runs with [Buffer.add_substring], names go out as
   prefix, [':'] and local part, and an element whose names are all bound
   in the inherited scope (the common case below a SOAP envelope) skips
   the binding computation altogether. *)

(* [s.[start .. i)] is copied verbatim once an escape or the end is hit *)
let rec escape_from ~attr buf s start i =
  if i >= String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | '<' -> escape_with ~attr buf s start i "&lt;"
    | '&' -> escape_with ~attr buf s start i "&amp;"
    | '>' when not attr -> escape_with ~attr buf s start i "&gt;"
    | '"' when attr -> escape_with ~attr buf s start i "&quot;"
    | _ -> escape_from ~attr buf s start (i + 1)

and escape_with ~attr buf s start i entity =
  Buffer.add_substring buf s start (i - start);
  Buffer.add_string buf entity;
  escape_from ~attr buf s (i + 1) (i + 1)

let add_escaped_text buf s = escape_from ~attr:false buf s 0 0
let add_escaped_attr buf s = escape_from ~attr:true buf s 0 0

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped_attr buf s;
  Buffer.contents buf

let add_qname buf (q : Qname.t) =
  if String.length q.prefix > 0 then (
    Buffer.add_string buf q.prefix;
    Buffer.add_char buf ':');
  Buffer.add_string buf q.local

(* [env] holds the prefix -> URI bindings in scope, innermost first: the
   binding [q] needs is already there, nothing to declare *)
let rec in_scope env (q : Qname.t) =
  match env with
  | [] -> q.uri = "" || q.prefix = "xml"
  | (p, uri) :: rest ->
      if String.equal p q.prefix then String.equal uri q.uri || q.prefix = "xml"
      else in_scope rest q

let is_xmlns (a : Tree.attr) =
  a.name.Qname.prefix = "xmlns"
  || (a.name.Qname.prefix = "" && a.name.Qname.local = "xmlns")

(* attribute names that need a binding: prefixed, not xmlns, with a URI *)
let needs_binding (a : Tree.attr) =
  a.name.Qname.prefix <> "" && a.name.Qname.prefix <> "xmlns"
  && a.name.Qname.uri <> ""

let rec attrs_in_scope env = function
  | [] -> true
  | (a : Tree.attr) :: rest ->
      ((not (needs_binding a)) || in_scope env a.name) && attrs_in_scope env rest

(* The general case: the declarations an element must carry and the scope
   its children inherit. *)
let bindings ~ns_env name attrs =
  (* bindings declared explicitly as xmlns attributes on this element *)
  let explicit =
    List.filter_map
      (fun (a : Tree.attr) ->
        if not (is_xmlns a) then None
        else if a.name.Qname.prefix = "xmlns" then Some (a.name.Qname.local, a.value)
        else Some ("", a.value))
      attrs
  in
  let env = explicit @ ns_env in
  (* bindings required by the element and attribute names *)
  let needed =
    (name.Qname.prefix, name.Qname.uri)
    :: List.filter_map
         (fun (a : Tree.attr) ->
           if needs_binding a then Some (a.name.Qname.prefix, a.name.Qname.uri)
           else None)
         attrs
  in
  let missing, env =
    List.fold_left
      (fun (missing, env) (prefix, uri) ->
        if prefix = "xml" || List.mem_assoc prefix missing then (missing, env)
        else
          match (List.assoc_opt prefix env, uri) with
          | Some bound, uri when bound = uri -> (missing, env)
          | None, "" -> (missing, env)
          | _, uri when prefix = "" && uri = "" ->
              (* un-bind an inherited default namespace *)
              (("", "") :: missing, ("", "") :: env)
          | _ -> ((prefix, uri) :: missing, (prefix, uri) :: env))
      ([], env) needed
  in
  (List.rev missing, env)

let add_attribute buf name value =
  Buffer.add_char buf ' ';
  add_qname buf name;
  Buffer.add_string buf "=\"";
  add_escaped_attr buf value;
  Buffer.add_char buf '"'

let rec add_attrs buf = function
  | [] -> ()
  | (a : Tree.attr) :: rest ->
      add_attribute buf a.name a.value;
      add_attrs buf rest

let pad ~indent ~depth buf =
  if indent then (
    if depth > 0 || Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * depth) ' '))

let rec write_node ~indent ~depth ~ns_env buf t =
  match t with
  | Tree.Document cs -> write_children ~indent ~depth ~ns_env buf cs
  | Tree.Text s -> add_escaped_text buf s
  | Tree.Comment s ->
      pad ~indent ~depth buf;
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s;
      Buffer.add_string buf "-->"
  | Tree.Pi { target; data } ->
      pad ~indent ~depth buf;
      Buffer.add_string buf "<?";
      Buffer.add_string buf target;
      if data <> "" then (
        Buffer.add_char buf ' ';
        Buffer.add_string buf data);
      Buffer.add_string buf "?>"
  | Tree.Element { name; attrs; children } ->
      pad ~indent ~depth buf;
      Buffer.add_char buf '<';
      add_qname buf name;
      let env =
        if
          in_scope ns_env name
          && attrs_in_scope ns_env attrs
          && not (List.exists is_xmlns attrs)
        then ns_env
        else
          let missing, env = bindings ~ns_env name attrs in
          List.iter
            (fun (prefix, uri) ->
              add_attribute buf
                (if prefix = "" then Qname.make "xmlns"
                 else Qname.make ~prefix:"xmlns" prefix)
                uri)
            missing;
          env
      in
      add_attrs buf attrs;
      match children with
      | [] -> Buffer.add_string buf "/>"
      | _ ->
          Buffer.add_char buf '>';
          let nested =
            indent
            && not
                 (List.for_all
                    (function Tree.Text _ -> true | _ -> false)
                    children)
          in
          write_children ~indent:nested ~depth:(depth + 1) ~ns_env:env buf
            children;
          if nested then (
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (2 * depth) ' '));
          Buffer.add_string buf "</";
          add_qname buf name;
          Buffer.add_char buf '>'

and write_children ~indent ~depth ~ns_env buf = function
  | [] -> ()
  | c :: rest ->
      write_node ~indent ~depth ~ns_env buf c;
      write_children ~indent ~depth ~ns_env buf rest

let to_buffer ?(indent = false) ?(scope = []) buf t =
  write_node ~indent ~depth:0 ~ns_env:(scope @ [ ("xml", Qname.ns_xml) ]) buf t

let to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  to_buffer ~indent buf t;
  Buffer.contents buf

let xml_declaration = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"

let document_to_buffer ?(indent = false) buf t =
  Buffer.add_string buf xml_declaration;
  to_buffer ~indent buf t

let document_to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  document_to_buffer ~indent buf t;
  Buffer.contents buf
