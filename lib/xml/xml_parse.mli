(** A small, dependency-free XML 1.0 parser.

    Supports elements, attributes, namespaces (with prefix scoping), text,
    CDATA, comments, processing instructions, an XML declaration, DOCTYPE
    skipping, and the five predefined entities plus numeric character
    references.  This is sufficient for SOAP XRPC messages, XQuery module
    sources served as documents, and the XMark-style workload documents.

    Input that is not well-formed raises {!Parse_error}, never another
    exception: among others an unbound prefix, a mismatched end tag, a
    duplicate attribute (by expanded name) or namespace declaration,
    anything but whitespace, comments and PIs after the root element, and
    a character reference that is not [&#N;] / [&#xH;] naming an XML
    [Char], elements nested deeper than {!max_depth}, and a start tag
    with more than {!max_attributes} attributes. *)

exception Parse_error of string

val max_depth : int
(** The deepest element nesting accepted (2048). *)

val max_attributes : int
(** The most attributes accepted on one start tag (1024).  Namespace
    declarations do not count: they bind prefixes rather than make
    attribute nodes.  The next attribute raises {!Parse_error} at its
    offset, before any duplicate check. *)

val document : ?preserve_space:bool -> string -> Tree.t
(** [document s] parses a complete XML document into a [Tree.Document].
    Ignorable (all-whitespace) text is dropped unless [preserve_space]. *)

val document_sub : ?preserve_space:bool -> string -> pos:int -> len:int -> Tree.t
(** [document_sub s ~pos ~len] parses the document occupying the window
    [s.[pos .. pos+len)] — the streaming hook for servers whose network
    buffer holds the envelope embedded in a larger byte stream: no
    substring is ever materialized. *)

val fragment : ?preserve_space:bool -> string -> Tree.t list
(** [fragment s] parses mixed content (zero or more nodes, no declaration);
    whitespace is kept unless [preserve_space] is [false]. *)

(** {1 The pull cursor}

    The one scanner behind {!document}, {!document_sub} and {!fragment},
    for consumers that decode a document without building its tree (the
    SOAP codec).  {!next} moves to the next event; the event's data is
    read with the accessors below until the following {!next}.  An event
    allocates nothing a consumer does not ask for.  The cursor checks
    everything {!document} checks, as it goes: a document that is not
    well-formed raises {!Parse_error} from the {!next} that reaches the
    fault, at the latest from the one that returns [Eof]. *)

type cursor

type event =
  | Start  (** a start tag, or an empty-element tag (its [End] follows) *)
  | End  (** the end of the innermost open element *)
  | Text  (** character data; all-whitespace runs are skipped unless
              [preserve_space] *)
  | Comment
  | Pi
  | Eof  (** after the root element and what may follow it *)

val cursor : ?preserve_space:bool -> string -> pos:int -> len:int -> cursor
(** A cursor over the document in the window [s.[pos .. pos+len)]; its
    first event is the root's [Start]. *)

val next : cursor -> event

val name : cursor -> Qname.t
(** At [Start]: the element's resolved name. *)

val local : cursor -> string
(** At [Start]: the element's local name. *)

val attr : cursor -> string -> string option
(** At [Start]: the value of the first attribute (in document order,
    namespace declarations excluded) with this local name. *)

val attr_where : cursor -> string -> (string -> bool) -> string option
(** [attr_where c local ns]: like {!attr}, among the attributes whose
    namespace URI ([""] for none) satisfies [ns]. *)

val attrs : cursor -> Tree.attr list
(** At [Start]: the resolved attributes, in document order. *)

val text : cursor -> string
(** At [Text], [Comment] or [Pi]: the data. *)

val element : cursor -> Tree.t
(** At [Start]: the element and its content as a tree, read through its
    [End]. *)

val content : cursor -> Tree.t list
(** At [Start]: the element's children as trees, read through its
    [End]. *)

val skip : cursor -> unit
(** At [Start]: read through the element's [End]. *)

val text_content : cursor -> string
(** At [Start]: the element's string value (its descendant text, in
    order), read through its [End]. *)
