(* One scanner, read as a pull cursor: [next] moves to the next event
   and leaves its data in the state, so an event allocates nothing but
   what a consumer keeps.  Lookahead compares bytes in place, a text or
   attribute run becomes one [String.sub] (a scratch buffer is used only
   when an entity or CDATA section breaks the run), every distinct
   lexical name is allocated once per document in a name table that also
   caches its resolved [Qname.t], and a start tag's attributes stay raw
   until a consumer asks for them resolved.  [document] and [fragment]
   are the tree-building consumers. *)

exception Parse_error of string

type event = Start | End | Text | Comment | Pi | Eof

(* One distinct lexical name ("p:l" or "l") of the document being parsed.
   [qname] caches the last resolution; it is reused while the prefix keeps
   resolving to the same URI. *)
type name = {
  lex : string;
  prefix : string;
  local : string;
  declares : string option;
      (** as an attribute name: the prefix an [xmlns] attribute binds *)
  mutable qname : Qname.t;
}

type state = {
  src : string;
  mutable pos : int;
  lim : int;  (** parse window end: the document is [src.[start .. lim)] *)
  mutable ns_stack : (string * string) list list;
      (** prefix -> uri bindings, innermost scope first; an element pushes
          a scope only when it declares a namespace *)
  preserve_space : bool;
  scratch : Buffer.t;  (** text with entities or CDATA, one run at a time *)
  mutable names : name list array;  (** hash buckets, power-of-two size *)
  mutable n_names : int;
  mutable depth : int;  (** open elements *)
  fragment : bool;  (** mixed content without a root element *)
  mutable phase : int;
      (** a document's: 0 before the root, 1 from its start tag, 2 at
          the end; a fragment's: 2 at the end *)
  mutable open_tags : int array;
      (** per open element, innermost last: its name's offset *)
  mutable open_info : int array;
      (** per open element: its name's length * 2, + 1 if it pushed a
          namespace scope *)
  mutable empty_pending : bool;
      (** the last [Start] was an empty-element tag: its [End] is next *)
  mutable el_qname : Qname.t;  (** [Start]: the element's resolved name *)
  mutable el_raw : (name * string) list;
      (** [Start]: the attributes, last first, [xmlns] ones included *)
  mutable data : string;  (** [Text], [Comment], [Pi]: the data *)
  mutable target : string;  (** [Pi]: the target *)
}

(* Elements nest at most this deep.  The suites' deepest document or
   envelope nests 11 elements; without a bound, a hostile body of nested
   start tags recurses once per tag. *)
let max_depth = 2048

(* A start tag carries at most this many attributes, namespace
   declarations not counted (they bind prefixes rather than make
   attribute nodes, and their duplicate check is linear).  The suites'
   widest tag has a handful. *)
let max_attributes = 1024

let error st fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "%s at offset %d" m st.pos)))
    fmt

(* the name table's "not found", told apart by address: a lookup that
   misses allocates nothing *)
let no_name =
  { lex = ""; prefix = ""; local = ""; declares = None; qname = Qname.make "" }

let make_state ?(fragment = false) ~preserve_space src ~pos ~lim =
  {
    src;
    pos;
    lim;
    ns_stack = [];
    preserve_space;
    scratch = Buffer.create 64;
    names = Array.make 64 [];
    n_names = 0;
    depth = 0;
    fragment;
    phase = 0;
    open_tags = Array.make 16 0;
    open_info = Array.make 16 0;
    empty_pending = false;
    el_qname = no_name.qname;
    el_raw = [];
    data = "";
    target = "";
  }

(* [src.[i+k .. i+n)] spells [s.[k .. n)] *)
let rec same_from src i s k n =
  k = n
  || String.unsafe_get src (i + k) = String.unsafe_get s k
     && same_from src i s (k + 1) n

(* [at st i s]: the window holds [s] at offset [i] *)
let at st i s =
  let n = String.length s in
  i + n <= st.lim && same_from st.src i s 0 n

(* the byte at [i], or NUL past the window (NUL is never valid XML) *)
let byte st i = if i < st.lim then String.unsafe_get st.src i else '\000'

let expect st s =
  if at st st.pos s then st.pos <- st.pos + String.length s
  else error st "expected %S" s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while st.pos < st.lim && is_space (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let skip_ncname st =
  if not (is_name_start (byte st st.pos)) then error st "expected name";
  st.pos <- st.pos + 1;
  while st.pos < st.lim && is_name_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let read_ncname st =
  let start = st.pos in
  skip_ncname st;
  String.sub st.src start (st.pos - start)

(* ------------------------------------------------------------------ *)
(* The per-document name table                                         *)
(* ------------------------------------------------------------------ *)

let rec hash_span src i stop h =
  if i >= stop then h
  else
    hash_span src (i + 1) stop
      (((h * 31) + Char.code (String.unsafe_get src i)) land max_int)

let rec find_name src start len = function
  | [] -> no_name
  | e :: rest ->
      if String.length e.lex = len && same_from src start e.lex 0 len then e
      else find_name src start len rest

let grow_names st =
  let old = st.names in
  let size = 2 * Array.length old in
  let names = Array.make size [] in
  Array.iter
    (List.iter (fun e ->
         let len = String.length e.lex in
         let b = hash_span e.lex 0 len 0 land (size - 1) in
         names.(b) <- e :: names.(b)))
    old;
  st.names <- names

(* The table doubles before its chains average two names, so a longer
   chain means colliding hashes, which a hostile document can craft.
   Past [max_chain] a name is still parsed, just not shared: every lookup
   stays bounded. *)
let max_chain = 8

(* the table entry for the lexical name [src.[start .. stop)], whose
   colon (if any) is at [colon] *)
let intern st start stop colon =
  let len = stop - start in
  let b = hash_span st.src start stop 0 land (Array.length st.names - 1) in
  let e = find_name st.src start len st.names.(b) in
  if e != no_name then e
  else
    let lex = String.sub st.src start len in
    let prefix, local =
      if colon < 0 then ("", lex)
      else
        ( String.sub lex 0 (colon - start),
          String.sub lex (colon - start + 1) (stop - colon - 1) )
    in
    let declares =
      if prefix = "xmlns" then Some local
      else if lex = "xmlns" then Some ""
      else None
    in
    let e = { lex; prefix; local; declares; qname = Qname.make ~prefix local } in
    if List.compare_length_with st.names.(b) max_chain < 0 then (
      st.names.(b) <- e :: st.names.(b);
      st.n_names <- st.n_names + 1;
      if st.n_names > 2 * Array.length st.names then grow_names st);
    e

(* a lexical QName: NCName, optionally ':' NCName *)
let read_name st =
  let start = st.pos in
  skip_ncname st;
  if byte st st.pos = ':' then (
    let colon = st.pos in
    st.pos <- st.pos + 1;
    skip_ncname st;
    intern st start st.pos colon)
  else intern st start st.pos (-1)

let qname_of (n : name) uri =
  if String.equal n.qname.Qname.uri uri then n.qname
  else
    let q = Qname.make ~prefix:n.prefix ~uri n.local in
    n.qname <- q;
    q

(* ------------------------------------------------------------------ *)
(* Character data                                                      *)
(* ------------------------------------------------------------------ *)

(* XML 1.0 production [2] Char *)
let is_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

let add_utf8 b code =
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
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))

let digit_value ~hex c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' when hex -> Char.code c - 87
  | 'A' .. 'F' when hex -> Char.code c - 55
  | _ -> -1

(* longer than any spelling of U+10FFFF short of padding with zeros *)
let max_ref_digits = 12

(* [&#N;] or [&#xH;] at [st.pos + 2] (past "&#"): only decimal or
   lower-case-x hex digits, bounded in count, naming an XML Char *)
let expand_char_ref st buf =
  st.pos <- st.pos + 2;
  let hex = byte st st.pos = 'x' in
  if hex then st.pos <- st.pos + 1;
  let base = if hex then 16 else 10 in
  let start = st.pos in
  let code = ref 0 in
  while digit_value ~hex (byte st st.pos) >= 0 do
    if st.pos - start >= max_ref_digits then
      error st "character reference too long";
    code := (!code * base) + digit_value ~hex (byte st st.pos);
    st.pos <- st.pos + 1
  done;
  if st.pos = start || byte st st.pos <> ';' then
    error st "bad character reference";
  if not (is_xml_char !code) then
    error st "character reference &#%d; is not an XML character" !code;
  st.pos <- st.pos + 1;
  add_utf8 buf !code

(* an entity or character reference at [st.pos], expanded into [buf] *)
let expand_ref st buf =
  if byte st (st.pos + 1) = '#' then expand_char_ref st buf
  else (
    st.pos <- st.pos + 1;
    let start = st.pos in
    skip_ncname st;
    let len = st.pos - start in
    let is s = len = String.length s && at st start s in
    let c =
      if is "lt" then '<'
      else if is "gt" then '>'
      else if is "amp" then '&'
      else if is "apos" then '\''
      else if is "quot" then '"'
      else error st "unknown entity &%s;" (String.sub st.src start len)
    in
    expect st ";";
    Buffer.add_char buf c)

(* the end of the run of plain bytes from [i]: the first [stop] or ['&'],
   or the window end *)
let rec run_end st i stop =
  if i >= st.lim then i
  else
    match String.unsafe_get st.src i with
    | '&' -> i
    | c when c = stop -> i
    | _ -> run_end st (i + 1) stop

let read_attr_value st =
  let quote = byte st st.pos in
  if quote <> '"' && quote <> '\'' then error st "expected attribute value";
  st.pos <- st.pos + 1;
  let start = st.pos in
  st.pos <- run_end st start quote;
  if byte st st.pos = quote && st.pos < st.lim then (
    let v = String.sub st.src start (st.pos - start) in
    st.pos <- st.pos + 1;
    v)
  else (
    (* an entity broke the run: assemble the rest in the scratch buffer *)
    let buf = st.scratch in
    Buffer.clear buf;
    Buffer.add_substring buf st.src start (st.pos - start);
    let rec loop () =
      if st.pos >= st.lim then error st "unterminated attribute value"
      else if String.unsafe_get st.src st.pos = quote then st.pos <- st.pos + 1
      else if String.unsafe_get st.src st.pos = '&' then (
        expand_ref st buf;
        loop ())
      else (
        let s = st.pos in
        st.pos <- run_end st s quote;
        Buffer.add_substring buf st.src s (st.pos - s);
        loop ())
    in
    loop ();
    Buffer.contents buf)

let rec lookup_scope st prefix scopes = function
  | (p, uri) :: rest ->
      if String.equal p prefix then uri else lookup_scope st prefix scopes rest
  | [] -> (
      match scopes with
      | scope :: outer -> lookup_scope st prefix outer scope
      | [] ->
          if prefix = "" then ""
          else if prefix = "xml" then Qname.ns_xml
          else error st "unbound namespace prefix %S" prefix)

let lookup_ns st prefix = lookup_scope st prefix st.ns_stack []

(* the offset of [s] at or after [i] *)
let rec find_from st i s what =
  if i + String.length s > st.lim then error st "unterminated %s" what
  else if at st i s then i
  else find_from st (i + 1) s what

let read_comment st =
  expect st "<!--";
  let start = st.pos in
  let stop = find_from st start "-->" "comment" in
  st.pos <- stop + 3;
  st.data <- String.sub st.src start (stop - start)

let read_pi st =
  expect st "<?";
  let target = read_ncname st in
  skip_space st;
  let start = st.pos in
  let stop = find_from st start "?>" "PI" in
  st.pos <- stop + 2;
  st.target <- target;
  st.data <- String.sub st.src start (stop - start)

let skip_doctype st =
  expect st "<!DOCTYPE";
  let depth = ref 1 in
  while !depth > 0 do
    if st.pos >= st.lim then error st "unterminated DOCTYPE";
    (match String.unsafe_get st.src st.pos with
    | '<' -> incr depth
    | '>' -> decr depth
    | _ -> ());
    st.pos <- st.pos + 1
  done

(* whitespace, comments and PIs; before the root also a DOCTYPE *)
let rec skip_misc ~doctype st =
  skip_space st;
  if at st st.pos "<!--" then (
    st.pos <- find_from st (st.pos + 4) "-->" "comment" + 3;
    skip_misc ~doctype st)
  else if at st st.pos "<?" then (
    read_pi st;
    skip_misc ~doctype st)
  else if doctype && at st st.pos "<!DOCTYPE" then (
    skip_doctype st;
    skip_misc ~doctype st)

let cdata_open = "<![CDATA["

(* Character data up to the next markup other than CDATA.  Returns [""]
   for text the tree drops: empty, or all whitespace without
   [preserve_space]. *)
let rec all_space src i stop =
  i >= stop || (is_space (String.unsafe_get src i) && all_space src (i + 1) stop)

let read_text st =
  let start = st.pos in
  let stop = run_end st start '<' in
  st.pos <- stop;
  if stop >= st.lim || (byte st stop = '<' && not (at st stop cdata_open)) then
    if st.preserve_space || not (all_space st.src start stop) then
      String.sub st.src start (stop - start)
    else ""
  else (
    let buf = st.scratch in
    Buffer.clear buf;
    Buffer.add_substring buf st.src start (stop - start);
    let rec loop () =
      if st.pos >= st.lim then ()
      else if at st st.pos cdata_open then (
        let s = st.pos + String.length cdata_open in
        let e = find_from st s "]]>" "CDATA" in
        Buffer.add_substring buf st.src s (e - s);
        st.pos <- e + 3;
        loop ())
      else
        match String.unsafe_get st.src st.pos with
        | '<' -> ()
        | '&' ->
            expand_ref st buf;
            loop ()
        | _ ->
            let s = st.pos in
            st.pos <- run_end st s '<';
            Buffer.add_substring buf st.src s (st.pos - s);
            loop ()
    in
    loop ();
    let t = Buffer.contents buf in
    if st.preserve_space || String.exists (fun c -> not (is_space c)) t then t
    else "")

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)
(* ------------------------------------------------------------------ *)

(* the attributes of a start tag, last first, [xmlns] ones included;
   [count] of them are not namespace declarations *)
let rec read_attrs st count acc =
  skip_space st;
  if not (is_name_start (byte st st.pos)) then acc
  else
    let n = read_name st in
    let count = if n.declares = None then count + 1 else count in
    if count > max_attributes then
      error st "more than %d attributes on one start tag" max_attributes;
    skip_space st;
    expect st "=";
    skip_space st;
    let v = read_attr_value st in
    read_attrs st count ((n, v) :: acc)

(* the namespace declarations among [raw], in document order *)
let rec ns_decls acc = function
  | [] -> acc
  | (n, v) :: rest -> (
      match n.declares with
      | None -> ns_decls acc rest
      | Some p -> ns_decls ((p, v) :: acc) rest)

(* [dup] the first of [l] to repeat a key: pairwise ([same]) for the
   usual handful, hashed ([key]) beyond that.  The callbacks close over
   nothing, so the check allocates only past the handful. *)
let check_unique st ~same ~key ~dup l =
  match l with
  | [] | [ _ ] -> ()
  | _ when List.compare_length_with l 16 <= 0 ->
      let rec pairwise = function
        | [] -> ()
        | x :: rest ->
            if List.exists (same x) rest then dup st x;
            pairwise rest
      in
      pairwise l
  | _ ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun x ->
          let k = key x in
          if Hashtbl.mem seen k then dup st x;
          Hashtbl.add seen k ())
        l

(* the namespace URI of an attribute name: none without a prefix *)
let attr_uri st n = if n.prefix = "" then "" else lookup_ns st n.prefix

(* the other attributes, resolved, in document order *)
let rec resolve_attrs st acc = function
  | [] -> acc
  | (n, v) :: rest -> (
      match n.declares with
      | Some _ -> resolve_attrs st acc rest
      | None ->
          resolve_attrs st
            ({ Tree.name = qname_of n (attr_uri st n); value = v } :: acc)
            rest)

(* the number of attributes in [raw], namespace declarations not
   counted, resolving each one's prefix (an unbound one raises) *)
let rec count_bound st n = function
  | [] -> n
  | ((a, _) : name * string) :: rest ->
      if a.declares = None then (
        ignore (attr_uri st a);
        count_bound st (n + 1) rest)
      else count_bound st n rest

(* Every attribute prefix is bound, and no two attributes share an
   expanded name (XML 1.0 WFC "Unique Att Spec").  The raw list is
   resolved into a new one only when there are two attributes to
   compare. *)
let check_attrs st raw =
  if count_bound st 0 raw > 1 then
    check_unique st (resolve_attrs st [] raw)
      ~same:(fun (a : Tree.attr) (b : Tree.attr) -> Qname.equal a.name b.name)
      ~key:(fun (a : Tree.attr) -> (a.name.Qname.uri, a.name.Qname.local))
      ~dup:(fun st (a : Tree.attr) ->
        error st "duplicate attribute %s" (Qname.expanded a.name))

(* the end tag must spell the start tag's name, [src.[start .. start+len)] *)
let rec same_bytes src a b k len =
  k = len
  || String.unsafe_get src (a + k) = String.unsafe_get src (b + k)
     && same_bytes src a b (k + 1) len

let read_end_tag st start len =
  expect st "</";
  let p = st.pos in
  let next = byte st (p + len) in
  if
    p + len <= st.lim
    && same_bytes st.src start p 0 len
    && not (is_name_char next || next = ':')
  then st.pos <- p + len
  else
    error st "mismatched end tag, expected </%s>" (String.sub st.src start len);
  skip_space st;
  expect st ">"

(* ------------------------------------------------------------------ *)
(* The cursor                                                          *)
(* ------------------------------------------------------------------ *)

let push_open st tag len scoped =
  let d = st.depth in
  if d >= Array.length st.open_tags then (
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 d;
      b
    in
    st.open_tags <- grow st.open_tags;
    st.open_info <- grow st.open_info);
  st.open_tags.(d) <- tag;
  st.open_info.(d) <- (len lsl 1) lor if scoped then 1 else 0;
  st.depth <- d + 1

let pop_open st =
  let d = st.depth - 1 in
  if st.open_info.(d) land 1 = 1 then st.ns_stack <- List.tl st.ns_stack;
  st.depth <- d

(* a start tag at [st.pos] *)
let open_element st =
  if st.depth >= max_depth then
    error st "elements nested deeper than %d" max_depth;
  expect st "<";
  let tag = st.pos in
  let n = read_name st in
  let tag_len = st.pos - tag in
  let raw = read_attrs st 0 [] in
  let decls = ns_decls [] raw in
  check_unique st decls
    ~same:(fun (p, _) (q, _) -> String.equal p q)
    ~key:fst
    ~dup:(fun st (p, _) ->
      error st "duplicate namespace declaration %S"
        (if p = "" then "xmlns" else "xmlns:" ^ p));
  let scoped = match decls with [] -> false | _ -> true in
  if scoped then st.ns_stack <- decls :: st.ns_stack;
  st.el_qname <- qname_of n (lookup_ns st n.prefix);
  st.el_raw <- raw;
  check_attrs st raw;
  push_open st tag tag_len scoped;
  if at st st.pos "/>" then (
    st.pos <- st.pos + 2;
    st.empty_pending <- true)
  else expect st ">";
  Start

let close_element st =
  let d = st.depth - 1 in
  read_end_tag st st.open_tags.(d) (st.open_info.(d) lsr 1);
  pop_open st;
  End

(* inside an element, or anywhere in a fragment *)
let rec content_event st =
  if st.pos >= st.lim then
    if st.depth = 0 then (
      st.phase <- 2;
      Eof)
    else close_element st
  else if String.unsafe_get st.src st.pos <> '<' || at st st.pos cdata_open then (
    match read_text st with
    | "" -> content_event st
    | t ->
        st.data <- t;
        Text)
  else
    match byte st (st.pos + 1) with
    | '/' ->
        if st.depth = 0 then (
          st.phase <- 2;
          Eof)
        else close_element st
    | '?' ->
        read_pi st;
        Pi
    | '!' when at st st.pos "<!--" ->
        read_comment st;
        Comment
    | _ -> open_element st

let next st =
  if st.empty_pending then (
    st.empty_pending <- false;
    pop_open st;
    End)
  else if st.depth > 0 then content_event st
  else if st.phase = 2 then Eof
  else if st.fragment then content_event st
  else if st.phase = 0 then (
    if at st st.pos "<?xml" then read_pi st;
    skip_misc ~doctype:true st;
    st.phase <- 1;
    open_element st)
  else (
    skip_misc ~doctype:false st;
    if st.pos < st.lim then error st "content after the root element";
    st.phase <- 2;
    Eof)

type cursor = state

let cursor ?(preserve_space = false) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xml_parse.cursor";
  make_state ~preserve_space s ~pos ~lim:(pos + len)

let name st = st.el_qname
let local st = st.el_qname.Qname.local
let text st = st.data
let attrs st = resolve_attrs st [] st.el_raw

let attr_where st local ns =
  let rec last found = function
    | [] -> found
    | ((n, v) : name * string) :: rest ->
        last
          (if n.declares = None && String.equal n.local local && ns (attr_uri st n)
           then Some v
           else found)
          rest
  in
  last None st.el_raw

let attr st local = attr_where st local (fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)
(* ------------------------------------------------------------------ *)

let rec element st =
  let name = st.el_qname in
  let attrs = attrs st in
  Tree.Element { name; attrs; children = children st [] }

and children st acc =
  match next st with
  | End | Eof -> List.rev acc
  | Start ->
      let e = element st in
      children st (e :: acc)
  | Text -> children st (Tree.Text st.data :: acc)
  | Comment -> children st (Tree.Comment st.data :: acc)
  | Pi -> children st (Tree.Pi { target = st.target; data = st.data } :: acc)

let content st = children st []

let rec skip_from st d =
  match next st with
  | End -> if d > 0 then skip_from st (d - 1)
  | Start -> skip_from st (d + 1)
  | Eof -> ()
  | Text | Comment | Pi -> skip_from st d

let skip st = skip_from st 0

(* the pieces in reverse order, joined once: a run of text broken by
   comments or child elements costs its length, not its square *)
let rec text_from st d acc =
  match next st with
  | End -> if d = 0 then acc else text_from st (d - 1) acc
  | Eof -> acc
  | Start -> text_from st (d + 1) acc
  | Text -> text_from st d (st.data :: acc)
  | Comment | Pi -> text_from st d acc

let text_content st =
  match text_from st 0 [] with
  | [] -> ""
  | [ s ] -> s
  | pieces -> String.concat "" (List.rev pieces)

let parse_document st =
  ignore (next st);
  let root = element st in
  ignore (next st);
  Tree.Document [ root ]

let document ?(preserve_space = false) s =
  parse_document (make_state ~preserve_space s ~pos:0 ~lim:(String.length s))

let document_sub ?(preserve_space = false) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xml_parse.document_sub";
  parse_document (make_state ~preserve_space s ~pos ~lim:(pos + len))

let fragment ?(preserve_space = true) s =
  content
    (make_state ~fragment:true ~preserve_space s ~pos:0
       ~lim:(String.length s))
