(** Versioned XML document database.

    Documents are immutable shredded stores, so a database {e version} is
    just a map from document name to store, and taking a snapshot is free —
    the moral equivalent of MonetDB/XQuery's shadow-paging snapshots that
    the paper relies on for repeatable-read isolation (§2.2).  Committing a
    pending update list produces a fresh version; older snapshots held by
    in-flight queries keep reading their own version. *)

open Xrpc_xml
module Update = Xrpc_xquery.Update

module Doc_map = Map.Make (String)

type version = {
  docs : Store.t Doc_map.t;
  version_no : int;
  doc_versions : int Doc_map.t;
      (** per-document version vector: the [version_no] at which each
          document was last (re)loaded or rebuilt — what the semantic
          result cache pins its entries to, so an update to one document
          invalidates exactly the results that read it *)
}

type t = {
  mutable current : version;
  mutable history : (float * version) list;
      (** recent versions with their commit timestamps, newest first —
          enables the distributed snapshot isolation of §2.2 ("all peers
          use the same timestamp t_q") *)
  clock : unit -> float;
  mutable on_commit : (string list -> unit) list;
      (** fired after every version bump with the touched document names
          (commits {e and} [add_doc] loads, never rollbacks — a presumed-
          abort 2PC rollback releases the isolation entry without ever
          reaching here, which is exactly the invalidation contract) *)
}

let history_limit = 128

let create ?(clock = Unix.gettimeofday) () =
  {
    current = { docs = Doc_map.empty; version_no = 0; doc_versions = Doc_map.empty };
    history = [];
    clock;
    on_commit = [];
  }

(** Register an invalidation hook; hooks run newest-first, after the new
    version is installed. *)
let on_commit db f = db.on_commit <- f :: db.on_commit

let fire_hooks db touched =
  if touched <> [] then List.iter (fun f -> f touched) db.on_commit

let remember db =
  db.history <- (db.clock (), db.current) :: db.history;
  if List.length db.history > history_limit then
    db.history <-
      List.filteri (fun i _ -> i < history_limit) db.history

(** [add_doc db name tree] loads (or replaces) a document. *)
let add_doc db name tree =
  let store = Store.shred ~uri:name tree in
  let version_no = db.current.version_no + 1 in
  db.current <-
    {
      docs = Doc_map.add name store db.current.docs;
      version_no;
      doc_versions = Doc_map.add name version_no db.current.doc_versions;
    };
  remember db;
  fire_hooks db [ name ]

let add_doc_xml db name xml = add_doc db name (Xml_parse.document xml)

let snapshot db = db.current

(** [version_at db t] — the newest version committed at or before [t]
    (the oldest known version if [t] predates the history). *)
let version_at db t =
  let rec find = function
    | [] -> db.current
    | [ (_, v) ] -> v
    | (time, v) :: rest -> if time <= t then v else find rest
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

(** [commit db pul] applies a pending update list: every touched document
    is rebuilt, [fn:put] documents are stored.  Documents are matched by
    the URI recorded in their store at shred time.  Updates to stores not
    in this database (e.g. constructed fragments) are ignored — their
    effects are invisible by definition. *)
let commit db (pul : Update.pul) =
  if pul = [] then ()
  else begin
  let updated_docs, puts = Update.apply pul in
  let touched = ref [] in
  let docs =
    List.fold_left
      (fun docs (store, tree) ->
        let name = store.Store.uri in
        match Doc_map.find_opt name docs with
        | Some current when current.Store.doc_id = store.Store.doc_id ->
            touched := name :: !touched;
            Doc_map.add name (Store.shred ~uri:name tree) docs
        | Some _ | None ->
            (* snapshot-based update: the PUL was built against an older
               version; still apply it by name (last-committer-wins, which
               matches the paper's non-deterministic update order) *)
            if name = "" then docs
            else begin
              touched := name :: !touched;
              Doc_map.add name (Store.shred ~uri:name tree) docs
            end)
      db.current.docs updated_docs
  in
  let docs =
    List.fold_left
      (fun docs (uri, tree) ->
        touched := uri :: !touched;
        Doc_map.add uri (Store.shred ~uri tree) docs)
      docs puts
  in
  let touched = List.sort_uniq String.compare !touched in
  let version_no = db.current.version_no + 1 in
  let doc_versions =
    List.fold_left
      (fun dv name -> Doc_map.add name version_no dv)
      db.current.doc_versions touched
  in
  db.current <- { docs; version_no; doc_versions };
  remember db;
  fire_hooks db touched
  end

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
