(** XML Schema atomic values — the atomic half of the XQuery Data Model.

    XRPC marshals atomic values with an [xsi:type] annotation (§2.1 of the
    paper), so every value carries its dynamic type and knows its canonical
    lexical form.  The subset implemented here covers every type the paper's
    queries and the XRPC protocol schema exercise, plus the usual numeric
    tower with XPath 2.0 promotion rules. *)

type typ =
  | TString
  | TBoolean
  | TInteger
  | TDecimal
  | TDouble
  | TFloat
  | TUntypedAtomic
  | TAnyURI
  | TQName
  | TDate
  | TDateTime
  | TTime
  | TDuration

type t =
  | String of string
  | Boolean of bool
  | Integer of int
  | Decimal of float
  | Double of float
  | Float of float
  | Untyped of string
  | AnyURI of string
  | QName of Qname.t
  | Date of string
  | DateTime of string
  | Time of string
  | Duration of string

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let type_of = function
  | String _ -> TString
  | Boolean _ -> TBoolean
  | Integer _ -> TInteger
  | Decimal _ -> TDecimal
  | Double _ -> TDouble
  | Float _ -> TFloat
  | Untyped _ -> TUntypedAtomic
  | AnyURI _ -> TAnyURI
  | QName _ -> TQName
  | Date _ -> TDate
  | DateTime _ -> TDateTime
  | Time _ -> TTime
  | Duration _ -> TDuration

(** Local name of the type within the [xs:] namespace, as used in
    [xsi:type] attributes of SOAP XRPC messages. *)
let type_name = function
  | TString -> "string"
  | TBoolean -> "boolean"
  | TInteger -> "integer"
  | TDecimal -> "decimal"
  | TDouble -> "double"
  | TFloat -> "float"
  | TUntypedAtomic -> "untypedAtomic"
  | TAnyURI -> "anyURI"
  | TQName -> "QName"
  | TDate -> "date"
  | TDateTime -> "dateTime"
  | TTime -> "time"
  | TDuration -> "duration"

let type_of_name = function
  | "string" -> Some TString
  | "boolean" -> Some TBoolean
  | "integer" | "int" | "long" | "short" | "byte" | "nonNegativeInteger"
  | "positiveInteger" | "negativeInteger" | "nonPositiveInteger"
  | "unsignedInt" | "unsignedLong" | "unsignedShort" | "unsignedByte" ->
      Some TInteger
  | "decimal" -> Some TDecimal
  | "double" -> Some TDouble
  | "float" -> Some TFloat
  | "untypedAtomic" | "anySimpleType" | "anyAtomicType" -> Some TUntypedAtomic
  | "anyURI" -> Some TAnyURI
  | "QName" -> Some TQName
  | "date" -> Some TDate
  | "dateTime" -> Some TDateTime
  | "time" -> Some TTime
  | "duration" | "dayTimeDuration" | "yearMonthDuration" -> Some TDuration
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Lexical forms                                                       *)
(* ------------------------------------------------------------------ *)

(** Canonical float printing per XML Schema: integral doubles print without
    exponent, NaN/INF use schema spellings. *)
let float_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    s

let to_string = function
  | String s | Untyped s | AnyURI s -> s
  | Boolean b -> if b then "true" else "false"
  | Integer i -> string_of_int i
  | Decimal f | Double f | Float f -> float_to_string f
  | QName q -> Qname.to_string q
  | Date s | DateTime s | Time s | Duration s -> s

let parse_bool s =
  match String.trim s with
  | "true" | "1" -> true
  | "false" | "0" -> false
  | s -> type_error "FORG0001: cannot cast %S to xs:boolean" s

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> type_error "FORG0001: cannot cast %S to xs:integer" s

let parse_float s =
  match String.trim s with
  | "INF" | "+INF" -> Float.infinity
  | "-INF" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> type_error "FORG0001: cannot cast %S to xs:double" s)

(** [of_string typ lexical] parses a lexical form into a typed value; raises
    {!Type_error} on an invalid lexical form. *)
let of_string typ s =
  match typ with
  | TString -> String s
  | TBoolean -> Boolean (parse_bool s)
  | TInteger -> Integer (parse_int s)
  | TDecimal -> Decimal (parse_float s)
  | TDouble -> Double (parse_float s)
  | TFloat -> Float (parse_float s)
  | TUntypedAtomic -> Untyped s
  | TAnyURI -> AnyURI (String.trim s)
  | TQName ->
      let prefix, local = Qname.split (String.trim s) in
      QName (Qname.make ~prefix local)
  | TDate -> Date (String.trim s)
  | TDateTime -> DateTime (String.trim s)
  | TTime -> Time (String.trim s)
  | TDuration -> Duration (String.trim s)

(* ------------------------------------------------------------------ *)
(* Numeric tower                                                       *)
(* ------------------------------------------------------------------ *)

let is_numeric = function
  | Integer _ | Decimal _ | Double _ | Float _ -> true
  | _ -> false

(** Numeric value as a float, also accepting untyped atomics (which XPath
    promotes to xs:double). *)
let to_float = function
  | Integer i -> float_of_int i
  | Decimal f | Double f | Float f -> f
  | Untyped s -> parse_float s
  | v -> type_error "XPTY0004: not a number: %s" (to_string v)

(** Result type of a binary arithmetic op under XPath promotion. *)
let promote a b =
  match (a, b) with
  | (Double _ | Untyped _), _ | _, (Double _ | Untyped _) -> TDouble
  | Float _, _ | _, Float _ -> TFloat
  | Decimal _, _ | _, Decimal _ -> TDecimal
  | _ -> TInteger

let of_promoted typ f =
  match typ with
  | TInteger -> Integer (int_of_float f)
  | TDecimal -> Decimal f
  | TFloat -> Float f
  | _ -> Double f

let arith op a b =
  let t = promote a b in
  let x = to_float a and y = to_float b in
  match op with
  | `Add -> of_promoted t (x +. y)
  | `Sub -> of_promoted t (x -. y)
  | `Mul -> of_promoted t (x *. y)
  | `Div -> (
      match t with
      | TInteger ->
          if y = 0. then type_error "FOAR0001: division by zero" else Decimal (x /. y)
      | _ -> of_promoted t (x /. y))
  | `Idiv ->
      if y = 0. then type_error "FOAR0001: integer division by zero"
      else Integer (int_of_float (Float.trunc (x /. y)))
  | `Mod ->
      if y = 0. && t = TInteger then type_error "FOAR0001: modulo by zero"
      else of_promoted t (Float.rem x y)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(** Seconds since epoch-0 for an ISO-8601 date/dateTime/time lexical form
    (proleptic, ignoring leap seconds); respects Z / ±HH:MM offsets. *)
let temporal_key s =
  let s = String.trim s in
  let num start len =
    try float_of_string (String.sub s start len) with _ -> 0.
  in
  let days_from_civil y m d =
    (* Howard Hinnant's algorithm, fine for comparisons *)
    let y = if m <= 2 then y - 1 else y in
    let era = (if y >= 0 then y else y - 399) / 400 in
    let yoe = y - (era * 400) in
    let mp = (m + 9) mod 12 in
    let doy = ((153 * mp) + 2) / 5 + d - 1 in
    let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
    float_of_int ((era * 146097) + doe - 719468)
  in
  let date_part, time_part =
    if String.length s >= 10 && s.[4] = '-' then
      ( days_from_civil
          (int_of_float (num 0 4))
          (int_of_float (num 5 2))
          (int_of_float (num 8 2))
        *. 86400.,
        if String.length s > 10 && s.[10] = 'T' then
          String.sub s 11 (String.length s - 11)
        else "" )
    else (0., s)
  in
  let tod, tz =
    if time_part = "" then (0., 0.)
    else
      (* split off timezone suffix *)
      let tz_pos =
        let rec find i =
          if i >= String.length time_part then None
          else
            match time_part.[i] with
            | 'Z' | '+' -> Some i
            | '-' when i > 0 -> Some i
            | _ -> find (i + 1)
        in
        find 0
      in
      let core, tzs =
        match tz_pos with
        | Some i ->
            ( String.sub time_part 0 i,
              String.sub time_part i (String.length time_part - i) )
        | None -> (time_part, "")
      in
      let part i len =
        if String.length core >= i + len then
          try float_of_string (String.sub core i len) with _ -> 0.
        else 0.
      in
      let seconds =
        if String.length core > 6 then
          try float_of_string (String.sub core 6 (String.length core - 6))
          with _ -> 0.
        else 0.
      in
      let tod = (part 0 2 *. 3600.) +. (part 3 2 *. 60.) +. seconds in
      let tz =
        match tzs with
        | "" | "Z" -> 0.
        | t when String.length t >= 6 ->
            let sign = if t.[0] = '-' then -1. else 1. in
            let h = try float_of_string (String.sub t 1 2) with _ -> 0. in
            let m = try float_of_string (String.sub t 4 2) with _ -> 0. in
            sign *. ((h *. 3600.) +. (m *. 60.))
        | _ -> 0.
      in
      (tod, tz)
  in
  date_part +. tod -. tz

let is_temporal = function
  | Date _ | DateTime _ | Time _ -> true
  | _ -> false

(** Value comparison per XPath 2.0: numerics compare numerically (with
    untyped promoted to double against numerics), dates/times on the
    timeline (timezone-aware), strings by codepoint.
    Returns a negative/zero/positive integer. *)
let compare_values a b =
  match (a, b) with
  | Boolean x, Boolean y -> Bool.compare x y
  | _ when is_numeric a || is_numeric b ->
      Float.compare (to_float a) (to_float b)
  | _ when is_temporal a && is_temporal b ->
      Float.compare (temporal_key (to_string a)) (temporal_key (to_string b))
  | QName x, QName y ->
      if Qname.equal x y then 0 else Qname.compare x y
  | _ -> String.compare (to_string a) (to_string b)

let equal_values a b = compare_values a b = 0

(** Untyped-vs-typed coercion for general comparisons: an untyped operand is
    cast to the other operand's type (double if both untyped are compared to
    numerics; string otherwise). *)
let coerce_general a b =
  match (a, b) with
  | Untyped s, t when is_numeric t -> (Double (parse_float s), t)
  | t, Untyped s when is_numeric t -> (t, Double (parse_float s))
  | Untyped s, Boolean _ -> (Boolean (parse_bool s), b)
  | Boolean _, Untyped s -> (a, Boolean (parse_bool s))
  | _ -> (a, b)

(** Effective boolean value of a single atomic. *)
let ebv = function
  | Boolean b -> b
  | String s | Untyped s | AnyURI s -> s <> ""
  | Integer i -> i <> 0
  | Decimal f | Double f | Float f -> f <> 0. && not (Float.is_nan f)
  | v -> type_error "FORG0006: no effective boolean value for %s" (to_string v)

(* ------------------------------------------------------------------ *)
(* Casting                                                             *)
(* ------------------------------------------------------------------ *)

(** [cast v typ] implements "cast as" for the supported subset. *)
let cast v typ =
  match (v, typ) with
  | v, t when type_of v = t -> v
  | Integer i, (TDecimal | TDouble | TFloat) ->
      of_promoted typ (float_of_int i)
  | (Decimal f | Double f | Float f), TInteger -> Integer (int_of_float f)
  | (Decimal f | Double f), TDouble -> Double f
  | (Double f | Float f), TDecimal -> Decimal f
  | (Decimal f | Double f), TFloat -> Float f
  | Boolean b, (TDouble | TDecimal | TFloat) ->
      of_promoted typ (if b then 1. else 0.)
  | Boolean b, TInteger -> Integer (if b then 1 else 0)
  | v, t -> of_string t (to_string v)

let pp fmt v =
  Format.fprintf fmt "xs:%s(%s)" (type_name (type_of v)) (to_string v)
