(* A strict JSON reader for tests: RFC 8259 grammar, no leading zeros,
   no raw control bytes in strings, no trailing garbage, no repeated
   member key.  Every JSON body the program emits must read back through
   it, as the {!Xrpc_obs.Json.t} it was printed from (a number without
   fraction or exponent reads as [Int]); the lookups below then replace
   whitespace-sensitive substring checks. *)

module Json = Xrpc_obs.Json

exception Bad_json of string

let parse s : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos else bad (Printf.sprintf "expected %c" c)
  in
  let lit w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v)
    else bad ("expected " ^ w)
  in
  let hex4 () =
    if !pos + 4 > n then bad "short \\u escape";
    let h = String.sub s !pos 4 in
    if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) h)
    then bad "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> incr pos; Buffer.add_char buf c
          | Some 'b' -> incr pos; Buffer.add_char buf '\b'
          | Some 'f' -> incr pos; Buffer.add_char buf '\012'
          | Some 'n' -> incr pos; Buffer.add_char buf '\n'
          | Some 'r' -> incr pos; Buffer.add_char buf '\r'
          | Some 't' -> incr pos; Buffer.add_char buf '\t'
          | Some 'u' ->
              incr pos;
              Buffer.add_utf_8_uchar buf (Uchar.of_int (hex4 ()))
          | _ -> bad "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> bad "control byte in string"
      | Some c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d then bad "expected digit"
    in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let frac = peek () = Some '.' in
    if frac then (incr pos; digits ());
    let exp = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exp then begin
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if frac || exp then Json.Num (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Json.Int i
      | None -> Json.Num (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (incr pos; Json.Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = string_ () in
              if List.mem_assoc k acc then bad ("repeated key " ^ k);
              skip_ws ();
              expect ':';
              let acc = (k, value ()) :: acc in
              match peek () with
              | Some ',' -> incr pos; members acc
              | _ -> expect '}'; Json.Obj (List.rev acc)
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (incr pos; Json.Arr [])
          else
            let rec elements acc =
              let acc = value () :: acc in
              match peek () with
              | Some ',' -> incr pos; elements acc
              | _ -> expect ']'; Json.Arr (List.rev acc)
            in
            elements []
      | Some '"' -> Json.Str (string_ ())
      | Some 't' -> lit "true" (Json.Bool true)
      | Some 'f' -> lit "false" (Json.Bool false)
      | Some 'n' -> lit "null" Json.Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> bad "expected a JSON value"
    in
    skip_ws ();
    v
  in
  let v = value () in
  if !pos <> n then bad "trailing garbage";
  v

(* [parse], failing the current test with the offending body *)
let parse_ok what s =
  match parse s with
  | v -> v
  | exception Bad_json msg -> Alcotest.failf "%s: invalid JSON (%s):\n%s" what msg s

(* -- lookups ------------------------------------------------------- *)

let show v = Json.to_string v

let member k = function
  | Json.Obj kvs as v -> (
      match List.assoc_opt k kvs with
      | Some x -> x
      | None -> Alcotest.failf "no member %S in %s" k (show v))
  | v -> Alcotest.failf "member %S of a non-object %s" k (show v)

(* [get v ["a"; "b"]] is v.a.b *)
let get v path = List.fold_left (fun v k -> member k v) v path
let has k = function Json.Obj kvs -> List.mem_assoc k kvs | _ -> false

let keys = function
  | Json.Obj kvs -> List.map fst kvs
  | v -> Alcotest.failf "keys of a non-object %s" (show v)

let items = function
  | Json.Arr l -> l
  | v -> Alcotest.failf "not an array: %s" (show v)

let num = function
  | Json.Int i -> float_of_int i
  | Json.Num f -> f
  | v -> Alcotest.failf "not a number: %s" (show v)

let str = function
  | Json.Str s -> s
  | v -> Alcotest.failf "not a string: %s" (show v)

let bool = function
  | Json.Bool b -> b
  | v -> Alcotest.failf "not a boolean: %s" (show v)
