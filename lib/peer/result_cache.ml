(** Semantic result cache — memoized answers for read-only remote calls.

    A non-updating, non-isolated XRPC call (rule R_Fr) is a pure function
    of (module, function, arguments, the versions of the documents it
    read).  The serving peer therefore caches the result sequences keyed
    on the call signature plus canonicalized arguments, and pins each
    entry to the {e per-document version vector} observed during
    execution ({!Database.doc_version}).  A later lookup re-validates the
    vector against the current database version: any document rebuilt
    since makes the entry stale.

    Invalidation is belt and braces:
    - eagerly, through the {!Database.on_commit} hook — a committed XQUF
      update (local R_Fu apply, or the Commit leg of 2PC) evicts exactly
      the entries that depend on a touched document.  A presumed-abort
      Rollback never reaches [Database.commit], so an aborted distributed
      transaction invalidates nothing — by construction;
    - lazily, through the version-vector check at hit time, which catches
      entries created against databases the hook never saw.

    Only calls that stayed local are cacheable: an execution that fetched
    a remote document (data shipping) or dispatched [execute at] depends
    on state this peer cannot version, so it is never stored.  Entries
    whose calls pin a queryID (R'_Fr) bypass the cache entirely — their
    snapshot may legitimately diverge from the current version.

    One {!Lru} instance, counted as [peer.result_cache.*]. *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal

type entry = {
  results : Xdm.sequence list;  (** one result sequence per call *)
  deps : (string * int) list;
      (** document-version vector: every document the execution read,
          with its {!Database.doc_version} at execution time *)
}

type t = entry Lru.t

let create () : t = Lru.create ~capacity:512 "peer.result_cache"

(* The key embeds the module URI first, NUL-separated, so module
   re-registration can invalidate by prefix; arguments are canonicalized
   through the SOAP sequence marshalling (typed atomics, structural
   nodes), so two calls with structurally equal arguments share a key
   however they were produced. *)
let key ~module_uri ~fn ~arity ~(calls : Xdm.sequence list list) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf module_uri;
  Buffer.add_char buf '\000';
  Buffer.add_string buf fn;
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int arity);
  List.iter
    (fun params ->
      Buffer.add_char buf '\000';
      List.iter
        (fun seq ->
          Buffer.add_char buf '\001';
          Buffer.add_string buf (Serialize.to_string (Marshal.s2n seq)))
        params)
    calls;
  Buffer.contents buf

(** [find t ~key ~doc_version] — the cached result sequences, provided
    every dependency still has the version it was executed against
    ([doc_version] reads the current database and takes no lock, so it
    may run inside the cache's critical section).  A version mismatch
    drops the entry and counts as stale and a miss. *)
let find (t : t) ~key ~(doc_version : string -> int) : Xdm.sequence list option =
  Lru.find t key ~valid:(fun e ->
      List.for_all (fun (d, v) -> doc_version d = v) e.deps)
  |> Option.map (fun e -> e.results)

let add (t : t) ~key ~deps results = Lru.add t key { results; deps }

(** Evict every entry depending on one of [docs] (the commit hook). *)
let invalidate_docs (t : t) docs =
  Lru.remove_if t (fun _ e -> List.exists (fun (d, _) -> List.mem d docs) e.deps)

(** Evict every entry for calls into [module_uri] (module re-registration
    changed the code behind them). *)
let invalidate_module (t : t) module_uri =
  let prefix = module_uri ^ "\000" in
  Lru.remove_if t (fun k _ -> String.starts_with ~prefix k)
