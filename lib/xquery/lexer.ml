(** Hand-written tokenizer for the XQuery subset.

    XQuery keywords are context-sensitive, so the lexer emits plain names
    and lets the recursive-descent parser decide.  Direct element
    constructors are not tokenized here at all: the parser detects a [<] in
    primary-expression position, rewinds to the token's source offset, and
    parses the constructor at character level (see {!Parser}). *)

type token =
  | Name of string * string  (** prefix (possibly ""), local *)
  | Star_colon of string  (** [*:local] *)
  | Ns_star of string  (** [prefix:*] *)
  | Int_lit of int
  | Dec_lit of float
  | Dbl_lit of float
  | Str_lit of string
  | Var of string * string  (** [$prefix:local] *)
  | Sym of string
  | Eof

exception Lex_error of string

type t = {
  src : string;
  mutable pos : int;
  mutable tok : token;  (** current lookahead *)
  mutable tok_start : int;  (** source offset where [tok] begins *)
}

let error fmt = Printf.ksprintf (fun s -> raise (Lex_error s)) fmt

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_digit c = c >= '0' && c <= '9'

let peek_at lx k =
  if lx.pos + k < String.length lx.src then Some lx.src.[lx.pos + k] else None

let peek lx = peek_at lx 0

(* [src.[i] = c], false past the end: the scanner's lookahead without
   allocating an option per character *)
let char_is lx i c = i < String.length lx.src && lx.src.[i] = c

(* skip whitespace and (: nested comments :) *)
let rec skip_trivia lx =
  let src = lx.src and len = String.length lx.src in
  while lx.pos < len && is_space src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  if char_is lx lx.pos '(' && char_is lx (lx.pos + 1) ':' then begin
    lx.pos <- lx.pos + 2;
    let depth = ref 1 in
    while !depth > 0 do
      if lx.pos >= len then error "unterminated comment"
      else if src.[lx.pos] = '(' && char_is lx (lx.pos + 1) ':' then (
        depth := !depth + 1;
        lx.pos <- lx.pos + 2)
      else if src.[lx.pos] = ':' && char_is lx (lx.pos + 1) ')' then (
        depth := !depth - 1;
        lx.pos <- lx.pos + 2)
      else lx.pos <- lx.pos + 1
    done;
    skip_trivia lx
  end

let read_ncname lx =
  let start = lx.pos in
  if lx.pos < String.length lx.src && is_name_start lx.src.[lx.pos] then
    lx.pos <- lx.pos + 1
  else error "expected name at offset %d" lx.pos;
  while lx.pos < String.length lx.src && is_name_char lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  String.sub lx.src start (lx.pos - start)

(* the general case: doubled quotes and entity references *)
let read_string_lit_escaped lx quote =
  lx.pos <- lx.pos + 1;
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek lx with
    | None -> error "unterminated string literal"
    | Some c when c = quote ->
        lx.pos <- lx.pos + 1;
        (* doubled quote = escaped quote *)
        if peek lx = Some quote then (
          Buffer.add_char buf quote;
          lx.pos <- lx.pos + 1;
          loop ())
    | Some '&' ->
        (* predefined entity references in string literals *)
        let stop =
          match String.index_from_opt lx.src lx.pos ';' with
          | Some i -> i
          | None -> error "unterminated entity reference"
        in
        let ent = String.sub lx.src (lx.pos + 1) (stop - lx.pos - 1) in
        Buffer.add_string buf
          (match ent with
          | "lt" -> "<"
          | "gt" -> ">"
          | "amp" -> "&"
          | "quot" -> "\""
          | "apos" -> "'"
          | e -> error "unknown entity &%s;" e);
        lx.pos <- stop + 1;
        loop ()
    | Some c ->
        Buffer.add_char buf c;
        lx.pos <- lx.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* a literal with neither a doubled quote nor an entity reference is its
   source bytes *)
let read_string_lit lx quote =
  let src = lx.src and len = String.length lx.src in
  let rec close i =
    if i >= len then None
    else
      let c = src.[i] in
      if c = quote then if char_is lx (i + 1) quote then None else Some i
      else if c = '&' then None
      else close (i + 1)
  in
  match close (lx.pos + 1) with
  | Some stop ->
      let s = String.sub src (lx.pos + 1) (stop - lx.pos - 1) in
      lx.pos <- stop + 1;
      s
  | None -> read_string_lit_escaped lx quote

let read_number lx =
  let start = lx.pos in
  while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  let has_dot =
    peek lx = Some '.'
    && match peek_at lx 1 with Some c -> is_digit c | None -> false
  in
  if has_dot then (
    lx.pos <- lx.pos + 1;
    while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
      lx.pos <- lx.pos + 1
    done);
  let has_exp =
    match peek lx with Some ('e' | 'E') -> true | _ -> false
  in
  if has_exp then begin
    lx.pos <- lx.pos + 1;
    (match peek lx with
    | Some ('+' | '-') -> lx.pos <- lx.pos + 1
    | _ -> ());
    while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
      lx.pos <- lx.pos + 1
    done
  end;
  let s = String.sub lx.src start (lx.pos - start) in
  if has_exp then Dbl_lit (float_of_string s)
  else if has_dot then Dec_lit (float_of_string s)
  else Int_lit (int_of_string s)

(* the two-character symbols: ":=" "!=" "<=" ">=" "<<" ">>" "//" ".."
   "::" *)
let two_char_sym c d =
  match (c, d) with
  | ':', '=' -> Some ":="
  | '!', '=' -> Some "!="
  | '<', '=' -> Some "<="
  | '>', '=' -> Some ">="
  | '<', '<' -> Some "<<"
  | '>', '>' -> Some ">>"
  | '/', '/' -> Some "//"
  | '.', '.' -> Some ".."
  | ':', ':' -> Some "::"
  | _ -> None

(* one-character symbols, spelled once *)
let one_char_syms = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let scan lx =
  skip_trivia lx;
  lx.tok_start <- lx.pos;
  let src = lx.src and len = String.length lx.src in
  let is_name_start_at i = i < len && is_name_start src.[i] in
  if lx.pos >= len then Eof
  else
    match src.[lx.pos] with
    | c when is_digit c -> read_number lx
    | '.' when lx.pos + 1 < len && is_digit src.[lx.pos + 1] -> read_number lx
    | ('"' | '\'') as q -> Str_lit (read_string_lit lx q)
    | '$' ->
        lx.pos <- lx.pos + 1;
        skip_trivia lx;
        let a = read_ncname lx in
        if char_is lx lx.pos ':' && not (char_is lx (lx.pos + 1) ':') then (
          lx.pos <- lx.pos + 1;
          let b = read_ncname lx in
          Var (a, b))
        else Var ("", a)
    | '*' when char_is lx (lx.pos + 1) ':' && is_name_start_at (lx.pos + 2) ->
        lx.pos <- lx.pos + 2;
        Star_colon (read_ncname lx)
    | c when is_name_start c ->
        let a = read_ncname lx in
        if
          char_is lx lx.pos ':'
          && (not (char_is lx (lx.pos + 1) ':'))
          && not (char_is lx (lx.pos + 1) '=')
        then
          if char_is lx (lx.pos + 1) '*' then (
            lx.pos <- lx.pos + 2;
            Ns_star a)
          else if is_name_start_at (lx.pos + 1) then (
            lx.pos <- lx.pos + 1;
            let b = read_ncname lx in
            Name (a, b))
          else Name ("", a)
        else Name ("", a)
    | c -> (
        match
          if lx.pos + 1 < len then two_char_sym c src.[lx.pos + 1] else None
        with
        | Some two ->
            lx.pos <- lx.pos + 2;
            Sym two
        | None ->
            lx.pos <- lx.pos + 1;
            Sym one_char_syms.(Char.code c))

let make src =
  let lx = { src; pos = 0; tok = Eof; tok_start = 0 } in
  lx.tok <- scan lx;
  lx

(** Advance to the next token. *)
let next lx = lx.tok <- scan lx

(** Rewind the stream so the current token's first character is unread —
    used by the parser to hand direct constructors to a char-level parser. *)
let rewind_to_token lx = lx.pos <- lx.tok_start

(** Re-prime the lookahead after external char-level parsing moved [pos]. *)
let reprime lx = lx.tok <- scan lx

let token_to_string = function
  | Name ("", l) -> l
  | Name (p, l) -> p ^ ":" ^ l
  | Star_colon l -> "*:" ^ l
  | Ns_star p -> p ^ ":*"
  | Int_lit i -> string_of_int i
  | Dec_lit f | Dbl_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "%S" s
  | Var ("", l) -> "$" ^ l
  | Var (p, l) -> "$" ^ p ^ ":" ^ l
  | Sym s -> s
  | Eof -> "<eof>"
