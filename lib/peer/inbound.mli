(** The serving site's one inbound path — the mirror of {!Outbound}.
    Every XRPC request a site answers goes through here, whichever
    engine answers it: the native {!Peer} or the §4 {!Wrapper}.  One set
    of rules:

    - the envelope is decoded once, with
      {!Xrpc_soap.Message.of_string_server}, out of the caller's body
      window; the engine gets the decoded message and the same window,
      and only a request each of whose calls carries [arity] parameters;
    - requests are served one at a time under a reentrant lock (an
      engine's isolation tables and database versions are not otherwise
      synchronized); the holder's thread re-enters, so a served function
      may [execute at] its own site;
    - a request whose [idemKey] was already answered is served from the
      idempotency cache without re-executing; a successful reply is
      remembered under its key, a Fault is not (a failed request had no
      effects, so a retry may run it again);
    - the request runs inside one [peer.handle] span under the caller's
      propagated trace context; its spans are collected when someone
      will read them (a [profile] flag, a trace context, tracing on), and
      a reply the path serializes then carries the [serverProfile]
      phases: the parse time and the root's [peer.*] / [wrapper.*] spans;
    - a reply is serialized once, into the caller's output buffer; bytes
      an engine serialized itself are copied as they are;
    - every failure a request can cause becomes a SOAP Fault, by one
      table: {!Peer_error}, dynamic, cast, evaluation, module-loading and
      update errors are Sender faults with their own reason; a malformed message,
      a module's syntax or static errors, an expired queryID and a
      snapshot older than the kept history are Sender faults whose reason
      names the kind; an {!Xrpc_net.Xrpc_error.Error} of a served
      function's own dispatch keeps its kind and destination.  An
      exception outside the table is a program bug: it propagates once it
      is recorded;
    - each request ends in one {!Xrpc_obs.Flight_recorder.complete}
      record (metrics, SLO tables, flight recorder). *)

exception Peer_error of string
(** A request the serving engine refuses (unknown function, wrong
    parameter count, a client-side query error): a Sender Fault with this
    reason. *)

type t

val default_idem_capacity : int
(** 256 keys: {!Peer.default_config}'s and every wrapper's. *)

val create : scope:string -> idem_capacity:int -> t
(** [scope] is the site's URI: it names the SLO scope, the flight-recorder
    entries and the [peer.handle] span.  [idem_capacity] bounds the
    idempotency cache; an evicted key falls back to at-least-once. *)

val idem_cache : t -> string Lru.t
(** The serialized replies of keyed requests. *)

type reply =
  | Reply of Xrpc_soap.Message.t  (** serialized by the path *)
  | Serialized of string  (** an envelope the engine built itself *)

type engine =
  Xrpc_soap.Message.t -> body:string -> pos:int -> len:int -> reply
(** Answers one decoded message; [body.[pos .. pos+len)] is its envelope
    on the wire.  Raises to fail the request. *)

val serve_into : t -> engine -> ?pos:int -> ?len:int -> string -> Buffer.t -> unit
(** Serve the request in [body.[pos .. pos+len)] (default: all of
    [body]), appending the reply to the buffer. *)

val serve : t -> engine -> string -> string
(** [serve_into] on a whole body, returning the reply. *)

val response :
  ?db_version:int -> peers:string list ->
  Xrpc_soap.Message.request -> Xrpc_xml.Xdm.sequence list -> Xrpc_soap.Message.t
(** The Response to a request: one result sequence per call. *)

val is_get_document : Xrpc_soap.Message.request -> bool
(** The built-in [xrpc:getDocument] call behind [fn:doc("xrpc://…")]. *)

val get_document :
  self:string -> Database.version -> Xrpc_soap.Message.request ->
  Xrpc_soap.Message.t
(** Its answer: per call, the root of the document its one parameter
    names in [version].  A missing document is a dynamic error. *)
