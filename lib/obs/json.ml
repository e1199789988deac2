(* The one JSON value and its one printer.  Every JSON body the program
   emits (the monitoring routes' [.json] forms, trace exports, profiles)
   is built as a [t] and printed here, so quoting and number format are
   decided once:

   - output is compact: no whitespace between tokens;
   - [Int] prints as an integer, a finite [Num] as the shortest decimal
     that reads back as the same float (integral values without a
     fraction), and NaN or an infinity as [null], since JSON has no
     token for them;
   - a string escapes the double quote, the backslash and every byte
     below 0x20; other bytes pass through, so UTF-8 stays UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* The shortest decimal that reads back as the finite float [f]; the
   telemetry wire prints its numbers with it too. *)
let finite_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

let add_num buf f =
  Buffer.add_string buf
    (if Float.is_finite f then finite_to_string f else "null")

let add_str buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_seq buf l r f items =
  Buffer.add_char buf l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      f x)
    items;
  Buffer.add_char buf r

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> add_num buf f
  | Str s -> add_str buf s
  | Arr items -> add_seq buf '[' ']' (add buf) items
  | Obj members ->
      add_seq buf '{' '}'
        (fun (k, v) ->
          add_str buf k;
          Buffer.add_char buf ':';
          add buf v)
        members

let to_string v =
  let buf = Buffer.create 1024 in
  add buf v;
  Buffer.contents buf

(* optional string members, omitted when they carry nothing *)
let opt_str k = function Some s -> [ (k, Str s) ] | None -> []
let nonempty k s = if s = "" then [] else [ (k, Str s) ]
