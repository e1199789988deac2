(** Canonical query text with its string literals lifted — the plan-cache
    key (§3.3).

    Two sources that differ only in whitespace or [(: comments :)] should
    share one cached plan, so the key is the token stream re-rendered in a
    single canonical spelling: tokens separated by one space, literals
    kind-tagged so [3], [3.0] and [3e0] (integer, decimal, double — all of
    which print alike through OCaml floats) can never collide with each
    other or with a name.

    Two sources that differ only in the string literals of their body
    should share one plan too, the way a served function's plan serves
    every call whatever its parameters.  The same pass that renders the
    key {e lifts} each such literal out of the program: the key spells it
    [#s], the lifted text spells it as the reserved external variable
    [$xrpc:lit-N] (numbered from 1 in source order), and its value is
    bound to that variable at run time.  A literal stays in the text where
    something reads it before run time:
    - everything in the prolog (namespaces, import hints, options, module
      and global-variable declarations);
    - the argument of [fn:doc] / [fn:collection], and anything inside an
      [execute at {…}] destination, which the plan's site analysis and
      [:explain] name;
    - a [collation "…"] and a [processing-instruction("…")] test, where a
      literal is grammar, not an expression.
    Numeric literals are never lifted (positional predicates and
    {!Eval.value_probe}'s non-string rule read them), and a source that
    already spells a reserved name ([…:lit-]) lifts nothing.  The plan
    cache still checks each lifted program against the unlifted parse
    before it keeps it, so no rule here can change an answer.

    Direct element constructors are the one construct the lexer cannot
    see through: the parser hands [<name ...] to a character-level parser
    in which interior whitespace is {e semantic} ([<a> 1 </a>] and
    [<a>1</a>] are different queries, yet they lex to the same token
    stream).  From the first [<] that is immediately followed by a
    constructor-looking character, the key is the raw source text — the
    tokens before it are still canonical and lifted, the rest must match
    byte for byte.  The raw part is prefixed so it can never collide with
    a canonical rendering (which contains no NUL); a source that does not
    lex is keyed on its raw text as a whole. *)

open Xrpc_xml

let raw_prefix = "raw\000"

let render buf tok =
  let add = Buffer.add_string buf in
  match tok with
  | Lexer.Name ("", l) -> add l
  | Lexer.Name (p, l) -> add p; add ":"; add l
  | Lexer.Star_colon l -> add "*:"; add l
  | Lexer.Ns_star p -> add p; add ":*"
  (* '#' cannot start or continue a name, so a kind tag built on it keeps
     numeric literals disjoint from names and from each other *)
  | Lexer.Int_lit i -> add "#"; add (string_of_int i)
  | Lexer.Dec_lit f -> add "#d"; add (string_of_float f)
  | Lexer.Dbl_lit f -> add "#e"; add (string_of_float f)
  | Lexer.Str_lit s -> add (Printf.sprintf "%S" s)
  | Lexer.Var ("", l) -> add "$"; add l
  | Lexer.Var (p, l) -> add "$"; add p; add ":"; add l
  | Lexer.Sym s -> add s
  | Lexer.Eof -> ()

(* the key's spelling of a lifted literal: a kind tag, like the numbers' *)
let lifted_tag = "#s"

(* Is this [Sym "<"] plausibly the start of a direct constructor?  The
   char right after the '<' decides: a name-start character (element
   constructor), '!' (comment/CDATA) or '?' (processing instruction).
   Comparisons are written with space or a non-name operand after '<', so
   ordinary queries do not trip this. *)
let constructor_suspect (lx : Lexer.t) =
  let next = lx.Lexer.tok_start + 1 in
  next < String.length lx.Lexer.src
  &&
  match lx.Lexer.src.[next] with
  | '!' | '?' -> true
  | c -> Lexer.is_name_start c

(** The reserved external variable the [n]th lifted literal becomes
    ([n] from 1): [$xrpc:lit-n]. *)
let literal_var n =
  Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc ("lit-" ^ string_of_int n)

(* the lifted text's spelling of the [n]th lifted literal, the first
   ones spelled once; spaces keep the variable from running into its
   neighbours *)
let spellings = Array.init 128 (fun i -> Printf.sprintf " $xrpc:lit-%d " (i + 1))

let spelling n =
  if n <= Array.length spellings then spellings.(n - 1)
  else Printf.sprintf " $xrpc:lit-%d " n

(* every spelling of a reserved name contains this: a variable QName has
   no space around its colon *)
let reserved = ":lit-"

let mentions_reserved src =
  let n = String.length reserved in
  let rec at i j = j = n || (src.[i + j] = reserved.[j] && at i (j + 1)) in
  let rec from i =
    match String.index_from_opt src i ':' with
    | Some i -> (i + n <= String.length src && at i 0) || from (i + 1)
    | None -> false
  in
  from 0

type lifted = {
  key : string;  (** the plan-cache key *)
  literals : string array;
      (** the values of [$xrpc:lit-1], [$xrpc:lit-2], … in order *)
  text : string;
      (** the source with each lifted literal spelled as its variable
          (the source itself when nothing was lifted) *)
}

(* where the pass is: at the start of a prolog statement (or of the body),
   inside a prolog declaration, or in the body *)
type place = Statement | Declaration | Body

let is_name names = function
  | Lexer.Name (_, l) -> List.mem l names
  | _ -> false

(* a literal the grammar reads, or a document name the site analysis
   reads, given the two tokens before it *)
let kept_literal ~prev ~prev2 =
  match prev with
  | Lexer.Sym "(" -> is_name [ "doc"; "collection"; "processing-instruction" ] prev2
  | prev -> is_name [ "collation" ] prev

(** [lift source] — the key, the lifted literals and the lifted text of
    [source], in one lexer pass. *)
let lift (source : string) : lifted =
  let n = String.length source in
  let may_lift = not (mentions_reserved source) in
  let key = Buffer.create n and text = Buffer.create n in
  let literals = ref [] and lifted = ref 0 and copied = ref 0 in
  let place = ref Statement in
  (* brace depth, and the depth an [execute at] destination opened at *)
  let depth = ref 0 and dest = ref (-1) in
  let lx = Lexer.make source in
  let rec loop ~prev ~prev2 =
    let tok = lx.Lexer.tok in
    (* a one-character symbol as a char: no string comparison per test *)
    let sym =
      match tok with
      | Lexer.Sym s when String.length s = 1 -> s.[0]
      | _ -> '\000'
    in
    match tok with
    | Lexer.Eof -> ()
    | _ when sym = '<' && constructor_suspect lx ->
        Buffer.add_string key raw_prefix;
        Buffer.add_substring key source lx.Lexer.tok_start
          (n - lx.Lexer.tok_start)
    | _ ->
        (match !place with
        | Statement -> (
            match tok with
            | Lexer.Name ("", ("declare" | "import" | "module" | "xquery")) ->
                place := Declaration
            | _ -> place := Body)
        | Declaration -> if sym = ';' then place := Statement
        | Body -> ());
        if sym = '{' then (
          if !dest < 0 && is_name [ "at" ] prev && is_name [ "execute" ] prev2
          then dest := !depth;
          incr depth)
        else if sym = '}' then (
          decr depth;
          if !depth = !dest then dest := -1);
        if Buffer.length key > 0 then Buffer.add_char key ' ';
        (match tok with
        | Lexer.Str_lit s
          when may_lift && !place == Body && !dest < 0
               && not (kept_literal ~prev ~prev2) ->
            incr lifted;
            literals := s :: !literals;
            Buffer.add_string key lifted_tag;
            Buffer.add_substring text source !copied
              (lx.Lexer.tok_start - !copied);
            Buffer.add_string text (spelling !lifted);
            copied := lx.Lexer.pos
        | tok -> render key tok);
        Lexer.next lx;
        loop ~prev:tok ~prev2:prev
  in
  match loop ~prev:Lexer.Eof ~prev2:Lexer.Eof with
  | () ->
      let text =
        if !lifted = 0 then source
        else (
          Buffer.add_substring text source !copied (n - !copied);
          Buffer.contents text)
      in
      {
        key = Buffer.contents key;
        literals = Array.of_list (List.rev !literals);
        text;
      }
  | exception Lexer.Lex_error _ ->
      { key = raw_prefix ^ source; literals = [||]; text = source }

(** [canonical source] — the cache key for [source] ({!lift}'s key). *)
let canonical (source : string) : string = (lift source).key

(** Did [canonical] key any of the source on its raw text? (Exposed for
    tests/stats.)  A canonical rendering holds no NUL; the raw part starts
    with one. *)
let is_raw key = String.contains key '\000'

(* the map keys of the first lifted variables, spelled once *)
let literal_keys = Array.init 128 (fun i -> Context.var_key (literal_var (i + 1)))

let literal_key n =
  if n <= Array.length literal_keys then literal_keys.(n - 1)
  else Context.var_key (literal_var n)

(** [bind_literals ctx literals] binds [$xrpc:lit-N] to the [N]th value. *)
let bind_literals (ctx : Context.t) (literals : string array) : Context.t =
  if literals = [||] then ctx
  else
    let vars = ref ctx.Context.vars in
    Array.iteri
      (fun i v -> vars := Context.Var_map.add (literal_key (i + 1)) [ Xdm.str v ] !vars)
      literals;
    { ctx with Context.vars = !vars }

(** [substitute literals prog] — [prog] with each [$xrpc:lit-N] replaced
    by the [N]th literal: for a sound lift, the unlifted parse. *)
let substitute (literals : string array) (prog : Ast.prog) : Ast.prog =
  let value (q : Qname.t) =
    match String.split_on_char '-' q.Qname.local with
    | [ "lit"; i ] -> (
        match int_of_string_opt i with
        | Some i when i >= 1 && i <= Array.length literals && literal_var i = q
          ->
            Some literals.(i - 1)
        | _ -> None)
    | _ -> None
  in
  let rec sub (e : Ast.expr) =
    match e with
    | Ast.Var q -> (
        match value q with
        | Some s -> Ast.Literal (Xs.String s)
        | None -> e)
    | e -> Ast.map_sub_exprs sub e
  in
  {
    prog with
    Ast.prolog =
      List.map
        (function
          | Ast.P_var (v, e) -> Ast.P_var (v, sub e)
          | Ast.P_function f ->
              Ast.P_function { f with Ast.fn_body = Option.map sub f.Ast.fn_body }
          | d -> d)
        prog.Ast.prolog;
    body = Option.map sub prog.Ast.body;
  }
