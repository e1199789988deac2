(** Versioned XML document database.

    Documents are immutable shredded stores, so a database {e version} is
    just a map from document name to store, and taking a snapshot is free —
    the moral equivalent of MonetDB/XQuery's shadow-paging snapshots that
    the paper relies on for repeatable-read isolation (§2.2).  Committing a
    pending update list produces a fresh version; older snapshots held by
    in-flight queries keep reading their own version.  Like a shadow-paged
    commit, one that only changes values copies just the column it writes
    ({!Store.patch}) and shares the rest of the store with its
    predecessor. *)

open Xrpc_xml
module Update = Xrpc_xquery.Update

module Doc_map = Map.Make (String)

type version = {
  docs : Store.t Doc_map.t;
  version_no : int;
  doc_versions : int Doc_map.t;
      (** the [version_no] at which each document was last (re)loaded
          or rebuilt — what 2PC Prepare's first-committer-wins rule
          compares between a query's snapshot and the current version *)
  bytes : int;  (** {!Store.bytes} summed over [docs] *)
  own_bytes : int;
      (** the bytes of the stores this version built that it does not
          share with the version before it: all of a shredded store, the
          copied column(s) and new strings of a patched one *)
}

type t = {
  mutable current : version;
  mutable history : (float * version) list;
      (** recent versions with their commit timestamps, newest first —
          enables the distributed snapshot isolation of §2.2 ("all peers
          use the same timestamp t_q") *)
  mutable truncated : bool;  (** [remember] has dropped a version *)
  clock : unit -> float;
}

(* The history keeps old versions while the bytes they do not share add up
   to at most this many times the current version's bytes: a handful of
   full rebuilds, or many value-only commits.  A query pinned to a dropped
   version keeps it alive itself; only [version_at] needs the history. *)
let history_factor = 4

let create ?(clock = Unix.gettimeofday) () =
  {
    current =
      { docs = Doc_map.empty; version_no = 0; doc_versions = Doc_map.empty;
        bytes = 0; own_bytes = 0 };
    history = [];
    truncated = false;
    clock;
  }

let remember db =
  let budget = history_factor * db.current.bytes in
  let rec keep spent = function
    | [] -> []
    | ((_, v) as entry) :: older ->
        let spent = spent + v.own_bytes in
        if spent > budget then begin
          db.truncated <- true;
          []
        end
        else entry :: keep spent older
  in
  db.history <- (db.clock (), db.current) :: keep 0 db.history

(* Install [stores] — each [(name, store, own bytes)], a later one for a
   name winning — as the next version. *)
let install db stores =
  let docs, own_bytes, touched =
    List.fold_left
      (fun (docs, own, touched) (name, store, bytes) ->
        (Doc_map.add name store docs, own + bytes, name :: touched))
      (db.current.docs, 0, []) stores
  in
  let touched = List.sort_uniq String.compare touched in
  let version_no = db.current.version_no + 1 in
  let doc_versions =
    List.fold_left
      (fun dv name -> Doc_map.add name version_no dv)
      db.current.doc_versions touched
  in
  let bytes = Doc_map.fold (fun _ s acc -> acc + s.Store.bytes) docs 0 in
  db.current <- { docs; version_no; doc_versions; bytes; own_bytes };
  remember db

(** [add_doc db name tree] loads (or replaces) a document. *)
let add_doc db name tree =
  let store = Store.shred ~uri:name tree in
  install db [ (name, store, store.Store.bytes) ]

let add_doc_xml db name xml = add_doc db name (Xml_parse.document xml)

let snapshot db = db.current

(** [version_at db t] — the newest version committed at or before [t];
    [None] when [t] predates the oldest kept version and older ones have
    been dropped (the oldest version, if nothing was ever dropped). *)
let version_at db t =
  let rec find = function
    | [] -> Some db.current
    | [ (time, v) ] -> if time <= t || not db.truncated then Some v else None
    | (time, v) :: rest -> if time <= t then Some v else find rest
  in
  find db.history

let doc (v : version) name =
  match Doc_map.find_opt name v.docs with
  | Some s -> Some s
  | None ->
      (* tolerate a leading slash or "./": paper examples use bare names *)
      let trimmed =
        if String.length name > 0 && name.[0] = '/' then
          String.sub name 1 (String.length name - 1)
        else name
      in
      Doc_map.find_opt trimmed v.docs

let doc_exn v name =
  match doc v name with Some s -> s | None -> Xdm.no_such_document name

(** [doc_version v name] — the version at which [name] was last rebuilt
    (0 for a document this version does not know, tolerating the same
    leading-slash variation as {!doc}). *)
let doc_version (v : version) name =
  match Doc_map.find_opt name v.doc_versions with
  | Some n -> n
  | None ->
      let trimmed =
        if String.length name > 0 && name.[0] = '/' then
          String.sub name 1 (String.length name - 1)
        else name
      in
      Option.value ~default:0 (Doc_map.find_opt trimmed v.doc_versions)

let doc_names (v : version) = List.map fst (Doc_map.bindings v.docs)

(* Documents are matched by the URI recorded in their store at shred
   time.  A store built against an older version is still committed by
   name (last-committer-wins, which matches the paper's non-deterministic
   update order); stores without a URI (constructed fragments) are
   skipped — their effects are invisible by definition. *)
let named (store : Store.t) = store.Store.uri <> ""

(** [rebuild db pul] commits [pul] by rebuilding every document it touches
    ({!Update.apply}, then {!Store.shred}) and storing its [fn:put]
    documents.  {!commit} takes this path for every PUL that is not
    value-only; it is also the oracle the value-only path is tested
    against. *)
let rebuild db (pul : Update.pul) =
  let updated_docs, puts = Update.apply pul in
  let shred (name, tree) =
    let store = Store.shred ~uri:name tree in
    (name, store, store.Store.bytes)
  in
  install db
    (List.filter_map
       (fun (store, tree) ->
         if named store then Some (shred (store.Store.uri, tree)) else None)
       updated_docs
    @ List.map shred puts)

(** [commit db pul] applies a pending update list as the next version.  A
    PUL that only changes values and names in place ({!Update.value_edits})
    patches each touched store's value (and name) column and shares the
    rest; any other is {!rebuild}'s. *)
let commit db (pul : Update.pul) =
  if pul <> [] then
    match Update.value_edits pul with
    | None -> rebuild db pul
    | Some edits ->
        install db
          (List.filter_map
             (fun (store, writes) ->
               if named store then
                 let patched, own = Store.patch store writes in
                 Some (store.Store.uri, patched, own)
               else None)
             edits)

(** Document names a PUL touches (used for 2PC conflict detection). *)
let touched_docs (pul : Update.pul) =
  List.sort_uniq String.compare
    (List.filter_map
       (fun prim ->
         match Update.target_node prim with
         | Some n when n.Store.store.Store.uri <> "" ->
             Some n.Store.store.Store.uri
         | _ -> (
             match prim with Update.Put (_, uri) -> Some uri | _ -> None))
       pul)
