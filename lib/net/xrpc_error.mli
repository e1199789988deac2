(** The typed failure vocabulary shared by {!Transport}, {!Http},
    {!Simnet}, the peer request handler and the 2PC coordinator, with a
    lossless embedding into SOAP faults. *)

type kind =
  | Timeout  (** no (complete) response within the request timeout *)
  | Unreachable  (** connection refused, peer down or partitioned away *)
  | Circuit_open  (** rejected locally: the destination's breaker is open *)
  | Protocol of string  (** transport-level garbage (bad status line, ...) *)
  | Fault of [ `Sender | `Receiver ]
      (** an application-level SOAP fault raised by the serving peer *)

type t = { kind : kind; dest : string; info : string }

exception Error of t

val error : kind:kind -> dest:string -> ('a, unit, string, 'b) format4 -> 'a
(** [error ~kind ~dest fmt ...] raises {!Error} with a formatted info. *)

val kind_name : kind -> string
val to_string : t -> string
(** Also registered with [Printexc]: [Printexc.to_string (Error e)] is
    [to_string e]. *)

val to_soap_fault : t -> [ `Sender | `Receiver ] * string
(** Render as a SOAP (fault-code, reason) pair.  Transport-kind errors
    become [`Receiver] faults with a parseable reason prefix. *)

val of_soap_fault :
  ?dest:string -> code:[ `Sender | `Receiver ] -> string -> t
(** Parse a SOAP fault reason back; round-trips [to_soap_fault] exactly.
    Reasons without the prefix decode to [Fault code] from [dest]. *)
