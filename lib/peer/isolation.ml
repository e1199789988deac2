(** Repeatable-read isolation state, keyed by queryID (§2.2).

    When an XRPC request carries a [queryID], the peer pins the database
    version seen by the {e first} request of that query and serves every
    later request of the same query from it.  Each entry also accumulates
    the pending update lists of updating calls (rule R'_Fu) until 2PC
    commits or the timeout expires.  Expired queryIDs are remembered so
    that late requests get an error rather than silently reading a fresh
    state — per the paper, per originating host only the latest expiry
    needs retention; we keep a bounded table. *)

module Message = Xrpc_soap.Message
module Update = Xrpc_xquery.Update

type entry = {
  query_id : Message.query_id;
  snapshot : Database.version;
  expires_at : float;  (** absolute time on this peer's clock, seconds *)
  mutable pul : Update.pul;  (** accumulated ∆s, unioned (unordered) *)
  mutable prepared : bool;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  expired : (string, unit) Hashtbl.t;
  clock : unit -> float;  (** injectable for virtual time *)
}

exception Expired of string

(** A snapshot-level request whose timestamp predates the versions the
    database still keeps; carries the queryID's timestamp. *)
exception Snapshot_too_old of string

let create ?(clock = Unix.gettimeofday) () =
  { entries = Hashtbl.create 16; expired = Hashtbl.create 16; clock }

let sweep t =
  let now = t.clock () in
  (* a prepared entry is in its 2PC uncertainty window: the participant
     voted yes and must hold the logged ∆ until the coordinator's decision
     arrives (or is fetched via in-doubt recovery) — never expire it *)
  let dead =
    Hashtbl.fold
      (fun key e acc ->
        if now > e.expires_at && not e.prepared then key :: acc else acc)
      t.entries []
  in
  List.iter
    (fun key ->
      Hashtbl.remove t.entries key;
      Hashtbl.replace t.expired key ())
    dead

(** [pin t qid db] returns the snapshot for [qid], creating it from the
    database's current version on the query's first request.  Raises
    {!Expired} for a request arriving after the timeout, and
    {!Snapshot_too_old} for a snapshot-level first request older than the
    kept history. *)
let pin t (qid : Message.query_id) (db : Database.t) : entry =
  sweep t;
  let key = Message.query_id_key qid in
  if Hashtbl.mem t.expired key then raise (Expired key);
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      (* Repeatable: pin the state at first contact; Snapshot: pin the
         state as of the query's global timestamp (distributed snapshot
         isolation — meaningful when peer clocks are synchronized, which
         the simulated network's shared virtual clock models) *)
      let snapshot =
        match qid.Message.level with
        | Message.Repeatable -> Database.snapshot db
        | Message.Snapshot -> (
            match Database.version_at db (Message.snapshot_time qid) with
            | Some v -> v
            | None -> raise (Snapshot_too_old qid.Message.timestamp))
      in
      let e =
        {
          query_id = qid;
          snapshot;
          expires_at = t.clock () +. float_of_int qid.Message.timeout;
          pul = [];
          prepared = false;
        }
      in
      Hashtbl.replace t.entries key e;
      e

let find t (qid : Message.query_id) =
  sweep t;
  let key = Message.query_id_key qid in
  if Hashtbl.mem t.expired key then raise (Expired key);
  Hashtbl.find_opt t.entries key

(** Drop an entry (after commit or rollback), remembering it as spent. *)
let release t (qid : Message.query_id) =
  let key = Message.query_id_key qid in
  Hashtbl.remove t.entries key;
  Hashtbl.replace t.expired key ()

let live_count t =
  sweep t;
  Hashtbl.length t.entries
