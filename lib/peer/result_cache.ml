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

    Admission.  A one-call request is stored on its first miss.  A Bulk
    RPC request (more than one call) is stored only on the second miss of
    its key: the first one records the key's hash in a bounded
    {e doorkeeper} set (TinyLFU's first stage) and is counted as
    [peer.result_cache.deferred].  Bulk traffic with fresh parameters
    (the Table 2 shape) thus never pays for storing answers no one asks
    for again, while a repeated bulk read is cached from its second
    execution on.  The doorkeeper is reset wholesale when full and
    survives commit and module invalidation on purpose: it records that a
    key is asked for repeatedly, which a write does not change, so a
    repeated bulk read evicted by a commit is re-stored on its next miss.
    A hash collision only admits an entry early; answers still come from
    full-key equality in the {!Lru}.

    One {!Lru} instance, counted as [peer.result_cache.*]. *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal
module Metrics = Xrpc_obs.Metrics

type entry = {
  results : Xdm.sequence list;  (** one result sequence per call *)
  deps : (string * int) list;
      (** document-version vector: every document the execution read,
          with its {!Database.doc_version} at execution time *)
}

(* multi-call key hashes remembered before the doorkeeper resets *)
let doorkeeper_size = 4096

type t = {
  lru : entry Lru.t;
  seen : (int, unit) Hashtbl.t;
      (** doorkeeper: hashes of the multi-call keys missed once *)
  seen_lock : Mutex.t;  (** guards [seen] and [deferred] *)
  mutable deferred : int;  (** multi-call entries not stored on first miss *)
  deferred_series : Metrics.counter;
}

let create () : t =
  {
    lru = Lru.create ~capacity:512 "peer.result_cache";
    seen = Hashtbl.create 64;
    seen_lock = Mutex.create ();
    deferred = 0;
    deferred_series = Metrics.counter "peer.result_cache.deferred";
  }

(* [<length>:<bytes>]: the length prefix makes a field self-delimiting,
   whatever bytes it holds *)
let add_field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

(* An atomic is its [xsi:type] name and its text, the information its
   [xrpc:atomic-value] carries on the wire; a node is its SOAP
   serialization.  The tags keep the two kinds apart. *)
let add_item buf = function
  | Xdm.Atomic a ->
      Buffer.add_char buf 'a';
      add_field buf (Xs.type_name (Xs.type_of a));
      add_field buf (Xs.to_string a)
  | Xdm.Node _ as item ->
      Buffer.add_char buf 'n';
      add_field buf (Serialize.to_string (Marshal.s2n [ item ]))

(* The key embeds the module URI first, NUL-separated, so module
   re-registration can invalidate by prefix.  Each call starts with a
   NUL, each parameter with a \001, and each item is tagged and
   length-prefixed, so two calls with structurally equal arguments share
   a key however they were produced, and any other two do not. *)
let key ~module_uri ~fn ~arity ~(calls : Xdm.sequence list list) =
  let buf = Buffer.create 256 in
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
          List.iter (add_item buf) seq)
        params)
    calls;
  Buffer.contents buf

(** [find t ~key ~doc_version] — the cached result sequences, provided
    every dependency still has the version it was executed against
    ([doc_version] reads the current database and takes no lock, so it
    may run inside the cache's critical section).  A version mismatch
    drops the entry and counts as stale and a miss. *)
let find (t : t) ~key ~(doc_version : string -> int) : Xdm.sequence list option =
  Lru.find t.lru key ~valid:(fun e ->
      List.for_all (fun (d, v) -> doc_version d = v) e.deps)
  |> Option.map (fun e -> e.results)

(* whether [key] was missed before; a first sighting is remembered and
   counted as deferred *)
let seen_before t key =
  let h = Hashtbl.hash key in
  Mutex.protect t.seen_lock @@ fun () ->
  Hashtbl.mem t.seen h
  || begin
       if Hashtbl.length t.seen >= doorkeeper_size then Hashtbl.reset t.seen;
       Hashtbl.replace t.seen h ();
       t.deferred <- t.deferred + 1;
       Metrics.incr t.deferred_series;
       false
     end

(** Store [results] (one sequence per call) under [key] — at once for a
    one-call request, on the second miss of [key] for a Bulk RPC one. *)
let add (t : t) ~key ~deps results =
  let admit =
    match results with
    | [] | [ _ ] -> true
    | _ -> Lru.enabled t.lru && seen_before t key
  in
  if admit then Lru.add t.lru key { results; deps }

(** Multi-call entries whose admission was deferred so far. *)
let deferred t = Mutex.protect t.seen_lock (fun () -> t.deferred)

(** Drop every entry and forget every sighting. *)
let clear t =
  Lru.clear t.lru;
  Mutex.protect t.seen_lock (fun () -> Hashtbl.reset t.seen)

(** Evict every entry depending on one of [docs] (the commit hook). *)
let invalidate_docs (t : t) docs =
  Lru.remove_if t.lru (fun _ e ->
      List.exists (fun (d, _) -> List.mem d docs) e.deps)

(** Evict every entry for calls into [module_uri] (module re-registration
    changed the code behind them). *)
let invalidate_module (t : t) module_uri =
  let prefix = module_uri ^ "\000" in
  Lru.remove_if t.lru (fun k _ -> String.starts_with ~prefix k)
