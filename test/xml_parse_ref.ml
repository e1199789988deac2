(* Test-only oracle: the XML parser as it stood before the allocation-free
   rewrite of Xrpc_xml.Xml_parse, kept verbatim so the differential
   battery in test_codec can compare the two.  Nothing under lib/ links
   this module. *)

open Xrpc_xml

(** A small, dependency-free XML 1.0 parser.

    Supports elements, attributes, namespaces (with prefix scoping), text,
    CDATA, comments, processing instructions, an XML declaration, DOCTYPE
    skipping, and the five predefined entities plus numeric character
    references.  This is sufficient for SOAP XRPC messages, XQuery module
    sources served as documents, and the XMark-style workload documents. *)

exception Parse_error of string

type state = {
  src : string;
  mutable pos : int;
  lim : int;  (** parse window end: the document is [src.[start .. lim)] *)
  mutable ns_stack : (string * string) list list;
      (** prefix -> uri bindings, innermost scope first *)
  preserve_space : bool;
}

let error st fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "%s at offset %d" m st.pos)))
    fmt

let peek st = if st.pos < st.lim then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.lim && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st "expected %S" s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while st.pos < st.lim && is_space st.src.[st.pos] do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let read_ncname st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> advance st
  | _ -> error st "expected name");
  while
    st.pos < st.lim && is_name_char st.src.[st.pos]
  do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let read_qname_lexical st =
  let a = read_ncname st in
  if peek st = Some ':' then (
    advance st;
    let b = read_ncname st in
    (a, b))
  else ("", a)

(* Entity and character-reference expansion. *)
let expand_ref st =
  expect st "&";
  if looking_at st "#" then (
    advance st;
    let hex = looking_at st "x" in
    if hex then advance st;
    let start = st.pos in
    while st.pos < st.lim && st.src.[st.pos] <> ';' do
      advance st
    done;
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string ((if hex then "0x" else "") ^ digits)
      with _ -> error st "bad character reference"
    in
    (* UTF-8 encode *)
    let b = Buffer.create 4 in
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then (
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
    else if code < 0x10000 then (
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
    else (
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))));
    Buffer.contents b)
  else
    let name = read_ncname st in
    expect st ";";
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | e -> error st "unknown entity &%s;" e

let read_attr_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
        advance st;
        q
    | _ -> error st "expected attribute value"
  in
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated attribute value"
    | Some c when c = quote -> advance st
    | Some '&' ->
        Buffer.add_string buf (expand_ref st);
        loop ()
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let lookup_ns st prefix =
  let rec find = function
    | [] ->
        if prefix = "" then ""
        else if prefix = "xml" then Qname.ns_xml
        else error st "unbound namespace prefix %S" prefix
    | scope :: rest -> (
        match List.assoc_opt prefix scope with
        | Some uri -> uri
        | None -> find rest)
  in
  find st.ns_stack

let rec skip_misc st =
  skip_space st;
  if looking_at st "<!--" then (
    skip_comment st;
    skip_misc st)
  else if looking_at st "<?" then (
    ignore (read_pi st);
    skip_misc st)
  else if looking_at st "<!DOCTYPE" then (
    skip_doctype st;
    skip_misc st)

and skip_comment st =
  expect st "<!--";
  match
    let rec find i =
      if i + 3 > st.lim then None
      else if String.sub st.src i 3 = "-->" then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | Some i -> st.pos <- i + 3
  | None -> error st "unterminated comment"

and read_comment st =
  expect st "<!--";
  let start = st.pos in
  let rec find i =
    if i + 3 > st.lim then error st "unterminated comment"
    else if String.sub st.src i 3 = "-->" then i
    else find (i + 1)
  in
  let stop = find st.pos in
  st.pos <- stop + 3;
  Tree.Comment (String.sub st.src start (stop - start))

and read_pi st =
  expect st "<?";
  let target = read_ncname st in
  skip_space st;
  let start = st.pos in
  let rec find i =
    if i + 2 > st.lim then error st "unterminated PI"
    else if String.sub st.src i 2 = "?>" then i
    else find (i + 1)
  in
  let stop = find st.pos in
  st.pos <- stop + 2;
  Tree.Pi { target; data = String.sub st.src start (stop - start) }

and skip_doctype st =
  expect st "<!DOCTYPE";
  let depth = ref 1 in
  while !depth > 0 do
    match peek st with
    | None -> error st "unterminated DOCTYPE"
    | Some '<' ->
        incr depth;
        advance st
    | Some '>' ->
        decr depth;
        advance st
    | Some _ -> advance st
  done

let read_text st =
  let buf = Buffer.create 32 in
  let rec loop () =
    if looking_at st "<![CDATA[" then (
      st.pos <- st.pos + 9;
      let rec find i =
        if i + 3 > st.lim then error st "unterminated CDATA"
        else if String.sub st.src i 3 = "]]>" then i
        else find (i + 1)
      in
      let stop = find st.pos in
      Buffer.add_string buf (String.sub st.src st.pos (stop - st.pos));
      st.pos <- stop + 3;
      loop ())
    else
      match peek st with
      | None | Some '<' -> ()
      | Some '&' ->
          Buffer.add_string buf (expand_ref st);
          loop ()
      | Some c ->
          advance st;
          Buffer.add_char buf c;
          loop ()
  in
  loop ();
  Buffer.contents buf

let rec read_element st =
  expect st "<";
  let prefix, local = read_qname_lexical st in
  (* First pass over attributes collects namespace declarations. *)
  let raw_attrs = ref [] in
  let ns_decls = ref [] in
  let rec attrs () =
    skip_space st;
    match peek st with
    | Some c when is_name_start c ->
        let apfx, alocal = read_qname_lexical st in
        skip_space st;
        expect st "=";
        skip_space st;
        let v = read_attr_value st in
        (if apfx = "xmlns" then ns_decls := (alocal, v) :: !ns_decls
         else if apfx = "" && alocal = "xmlns" then
           ns_decls := ("", v) :: !ns_decls
         else raw_attrs := (apfx, alocal, v) :: !raw_attrs);
        attrs ()
    | _ -> ()
  in
  attrs ();
  st.ns_stack <- !ns_decls :: st.ns_stack;
  let name = Qname.make ~prefix ~uri:(lookup_ns st prefix) local in
  let attrs =
    List.rev_map
      (fun (apfx, alocal, v) ->
        let uri = if apfx = "" then "" else lookup_ns st apfx in
        { Tree.name = Qname.make ~prefix:apfx ~uri alocal; value = v })
      !raw_attrs
  in
  skip_space st;
  let node =
    if looking_at st "/>" then (
      expect st "/>";
      Tree.Element { name; attrs; children = [] })
    else (
      expect st ">";
      let children = read_content st in
      expect st "</";
      let cpfx, clocal = read_qname_lexical st in
      if cpfx <> prefix || clocal <> local then
        error st "mismatched end tag </%s:%s>, expected </%s>" cpfx clocal
          (Qname.to_string name);
      skip_space st;
      expect st ">";
      Tree.Element { name; attrs; children })
  in
  st.ns_stack <- List.tl st.ns_stack;
  node

and read_content st =
  let rec loop acc =
    if looking_at st "</" then List.rev acc
    else if looking_at st "<!--" then loop (read_comment st :: acc)
    else if looking_at st "<?" then loop (read_pi st :: acc)
    else if peek st = Some '<' && not (looking_at st "<![CDATA[") then
      loop (read_element st :: acc)
    else if peek st = None then List.rev acc
    else
      let t = read_text st in
      let keep =
        st.preserve_space || String.exists (fun c -> not (is_space c)) t
      in
      if t = "" then loop acc
      else if keep then loop (Tree.Text t :: acc)
      else loop acc
  in
  loop []

(** [document s] parses a complete XML document into a [Tree.Document].
    Ignorable (all-whitespace) text is dropped unless [preserve_space]. *)
let document ?(preserve_space = false) s =
  let st =
    { src = s; pos = 0; lim = String.length s; ns_stack = []; preserve_space }
  in
  if looking_at st "<?xml" then (
    ignore (read_pi st));
  skip_misc st;
  let root = read_element st in
  skip_misc st;
  Tree.Document [ root ]

(** [document_sub s ~pos ~len] parses the document occupying the window
    [s.[pos .. pos+len)] — the streaming hook for servers whose network
    buffer holds the envelope embedded in a larger byte stream: no
    substring is ever materialized. *)
let document_sub ?(preserve_space = false) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xml_parse.document_sub";
  let st = { src = s; pos; lim = pos + len; ns_stack = []; preserve_space } in
  if looking_at st "<?xml" then (
    ignore (read_pi st));
  skip_misc st;
  let root = read_element st in
  skip_misc st;
  Tree.Document [ root ]

(** [fragment s] parses mixed content (zero or more nodes, no declaration). *)
let fragment ?(preserve_space = true) s =
  let st =
    { src = s; pos = 0; lim = String.length s; ns_stack = []; preserve_space }
  in
  read_content st
