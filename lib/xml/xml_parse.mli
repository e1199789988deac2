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
