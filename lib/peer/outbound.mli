(** The originating site's one outgoing-message path — the stub code the
    paper's Pathfinder generates (§3).  Every XRPC message a site sends
    goes through here: [execute at] Bulk RPC, the [getDocument] fetch of
    data shipping (§5, Q7), the 2PC control messages (§2.3) and the
    [Xrpc_client] façade's calls.  One set of rules:

    - a message is serialized inside its [rpc] span ([rpc.parallel] for a
      fan-out), so a traced envelope's parent span is that span and a
      transport retry resends the same logical parent;
    - a request without an idempotency key gets [origin/N] from this
      path's one counter.  [getDocument] fetches and transaction messages
      carry none: a keyed fetch would park whole documents in the serving
      peer's idempotency cache;
    - every message adds to the profile's per-destination [msgs],
      [calls], [bytes_out] and [bytes_in] attributes;
    - every reply is decoded with {!Xrpc_soap.Message.of_reply} (the
      serving peer's [serverProfile] phases), and a [Response]'s [cached]
      flag and database version feed the [remote-cache-hit] event and the
      [client.remote_cache_hits{dest}] / [client.remote_db_version{dest}]
      series.

    Transport failures propagate as {!Xrpc_net.Xrpc_error.Error}. *)

type t

val create : origin:string -> Xrpc_net.Transport.t -> t
(** [origin] names the sending site in its idempotency keys; two paths
    that may reach the same peer need distinct origins. *)

val send : t -> dest:string -> Xrpc_soap.Message.t -> Xrpc_soap.Message.t
(** Send a message as it is (no key added) and decode the reply: the path
    of 2PC control messages. *)

val call :
  t -> dest:string -> Xrpc_soap.Message.request -> Xrpc_soap.Message.t
(** One request, stamped with a fresh idempotency key unless it has one. *)

val call_parallel :
  t -> (string * Xrpc_soap.Message.request) list -> Xrpc_soap.Message.t list
(** Several keyed requests through the transport's [send_parallel]; the
    replies in input order. *)

val fetch_document : t -> string -> Xrpc_xml.Store.t
(** [fn:doc("xrpc://host/path")]: fetch the whole document from its peer
    with the built-in [getDocument] call (unkeyed).  A fault, or a reply
    that is not one document node, raises {!Xrpc_xml.Xdm.Dynamic_error}
    naming the URI. *)
