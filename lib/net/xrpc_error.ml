(** The failure vocabulary shared by every layer that can fail on behalf
    of a remote peer: the transports ({!Transport}, {!Http}, {!Simnet}),
    the peer request handler and the 2PC coordinator.

    Historically {!Transport} owned a typed error and peers spoke in free
    SOAP-fault strings; unifying them means a transport failure observed
    by a {e serving} peer (a hosted function whose own [execute at] timed
    out) survives the SOAP hop back to the client as the same typed value:
    [to_soap_fault] renders an error into a (fault-code, reason) pair and
    [of_soap_fault] parses it back, round-tripping exactly. *)

type kind =
  | Timeout  (** no (complete) response within the request timeout *)
  | Unreachable  (** connection refused, peer down or partitioned away *)
  | Circuit_open  (** rejected locally: the destination's breaker is open *)
  | Protocol of string  (** transport-level garbage (bad status line, ...) *)
  | Fault of [ `Sender | `Receiver ]
      (** an application-level SOAP fault raised by the serving peer *)

type t = { kind : kind; dest : string; info : string }

exception Error of t

let error ~kind ~dest fmt =
  Printf.ksprintf (fun info -> raise (Error { kind; dest; info })) fmt

let kind_name = function
  | Timeout -> "timeout"
  | Unreachable -> "unreachable"
  | Circuit_open -> "circuit-open"
  | Protocol _ -> "protocol"
  | Fault `Sender -> "fault"
  | Fault `Receiver -> "fault"

let to_string { kind; dest; info } =
  let k =
    match kind with
    | Protocol d when d <> "" -> "protocol (" ^ d ^ ")"
    | k -> kind_name k
  in
  if dest = "" then Printf.sprintf "%s: %s" k info
  else Printf.sprintf "%s to %s: %s" k dest info

(* [Printexc.to_string] of an [Error] names its kind, destination and
   info, wherever it is printed (a /clusterz reason, a 2PC vote) *)
let () =
  Printexc.register_printer (function Error e -> Some (to_string e) | _ -> None)

(* ------------------------------------------------------------------ *)
(* SOAP fault round trip                                               *)
(* ------------------------------------------------------------------ *)

(* Wire shape of a transport-kind error inside a SOAP fault reason:
     [KIND @DEST] INFO
   with KIND one of timeout | unreachable | circuit-open |
   protocol/DETAIL.  Application faults carry their reason untouched. *)

let kind_tag = function
  | Timeout -> "timeout"
  | Unreachable -> "unreachable"
  | Circuit_open -> "circuit-open"
  | Protocol d -> "protocol/" ^ d
  | Fault _ -> ""

(** Render as a SOAP (fault-code, reason) pair.  Transport-kind errors
    become [`Receiver] faults (the failure happened on the serving side's
    infrastructure) with a parseable reason prefix; application faults
    keep their own code and reason. *)
let to_soap_fault e =
  match e.kind with
  | Fault code -> (code, e.info)
  | k -> (`Receiver, Printf.sprintf "[%s @%s] %s" (kind_tag k) e.dest e.info)

let kind_of_tag tag =
  if tag = "timeout" then Some Timeout
  else if tag = "unreachable" then Some Unreachable
  else if tag = "circuit-open" then Some Circuit_open
  else if String.length tag >= 9 && String.sub tag 0 9 = "protocol/" then
    Some (Protocol (String.sub tag 9 (String.length tag - 9)))
  else None

(** Parse a SOAP fault back into the typed error.  Reasons carrying the
    [to_soap_fault] prefix decode to their original transport kind;
    anything else is an application [Fault].  [dest] is the peer the
    fault came from, used when the reason does not embed one. *)
let of_soap_fault ?(dest = "") ~code reason =
  let fallback () = { kind = Fault code; dest; info = reason } in
  if String.length reason < 2 || reason.[0] <> '[' then fallback ()
  else
    match String.index_opt reason ']' with
    | None -> fallback ()
    | Some close -> (
        let inside = String.sub reason 1 (close - 1) in
        match String.index_opt inside '@' with
        | Some at when at >= 1 && inside.[at - 1] = ' ' -> (
            let tag = String.sub inside 0 (at - 1) in
            let d = String.sub inside (at + 1) (String.length inside - at - 1) in
            match kind_of_tag tag with
            | Some kind ->
                let info =
                  let after = close + 1 in
                  let after =
                    if after < String.length reason && reason.[after] = ' '
                    then after + 1
                    else after
                  in
                  String.sub reason after (String.length reason - after)
                in
                { kind; dest = d; info }
            | None -> fallback ())
        | _ -> fallback ())
