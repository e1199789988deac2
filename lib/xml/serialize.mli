(** XML serialization of {!Tree.t} values.

    Used for SOAP XRPC messages on the wire and for query result output.
    Escaping follows the XML spec; attribute values additionally escape
    quotes.  The serializer guarantees {e namespace well-formedness}: a
    [Qname] carries its resolved URI, and any prefix binding not already
    in scope (either inherited or present as an explicit [xmlns]
    attribute) is re-declared on the element that needs it — the parser
    consumes [xmlns] attributes into scoping information, so this is what
    makes parse → serialize round-trips stable for namespaced documents. *)

val escape_attr : string -> string
(** [escape_attr s] escapes less-than, ampersand and double quote for a
    double-quoted attribute value. *)

val add_escaped_text : Buffer.t -> string -> unit
(** [add_escaped_text buf s] appends [s] as character data: less-than,
    ampersand and greater-than escaped, unescaped runs copied in place. *)

val add_escaped_attr : Buffer.t -> string -> unit
(** [add_escaped_attr buf s] appends [s] as a double-quoted attribute
    value's content: less-than, ampersand and double quote escaped. *)

val to_buffer :
  ?indent:bool -> ?scope:(string * string) list -> Buffer.t -> Tree.t -> unit
(** [to_buffer buf t] serializes a tree (no XML declaration) straight
    into [buf] — the streaming hook for servers that serialize responses
    into a reused per-connection output buffer instead of materializing
    an intermediate string.  [scope] lists the (prefix, URI) bindings
    already declared around the point [t] is written at (none by
    default): [t] declares only the bindings it needs beyond them, as if
    it were serialized as a descendant of the element declaring them. *)

val to_string : ?indent:bool -> Tree.t -> string
(** [to_string t] serializes a tree without an XML declaration. *)

val xml_declaration : string

val document_to_buffer : ?indent:bool -> Buffer.t -> Tree.t -> unit
(** [document_to_buffer buf t] — {!to_buffer} with the UTF-8 XML
    declaration prepended, the on-the-wire form of SOAP XRPC messages. *)

val document_to_string : ?indent:bool -> Tree.t -> string
(** [document_to_string t] prepends the UTF-8 XML declaration, as SOAP XRPC
    messages in the paper do. *)
