(** Two-phase-commit coordinator, in the style of WS-AtomicTransaction
    (§2.3), hardened to {e presumed abort}.

    The paper deliberately keeps 2PC out of the XRPC protocol proper and
    relies on the web-service transaction standard; we model that standard
    with Prepare/Commit/Rollback/Status SOAP messages on the same channel.
    The query-originating peer is the coordinator: it learns the full
    participant list from the peer lists piggybacked on XRPC responses,
    asks every participant to prepare (logging its pending update lists),
    and commits only on a unanimous yes vote.

    Fault story (presumed abort):
    - a transport failure during prepare is a [no] vote, never an
      exception — an unreachable participant cannot have promised anything;
    - the decision is handed to [on_decision] {e before} the decision
      phase, so the coordinator's log survives lost Commit messages;
    - decision-phase sends are retried ([decision_retries], on top of
      whatever retries the policy-wrapped transport already performs) and
      their acks are collected into the outcome instead of being dropped;
    - a participant that prepared but missed the decision later asks the
      coordinator with a [Status] message ({!status}); an unknown
      transaction means "aborted". *)

module Message = Xrpc_soap.Message
module Transport = Xrpc_net.Transport
module Executor = Xrpc_net.Executor
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace

type vote = {
  peer : string;
  ok : bool;
  info : string;
  transport_failed : bool;
      (** the vote is a locally synthesized [no]: the peer never answered *)
}

type outcome = {
  committed : bool;
  votes : vote list;  (** prepare-phase votes *)
  decision_acks : vote list;
      (** final ack per participant for the Commit/Rollback phase; a
          failed ack means that participant is in doubt and will resolve
          via [Status] recovery *)
}

(* [transport] is the coordinator's (or participant's) outgoing path *)
let tx transport ~dest op qid =
  let vote ?(transport_failed = false) ok info =
    { peer = dest; ok; info; transport_failed }
  in
  match Outbound.send transport ~dest (Message.Tx_request (op, qid)) with
  | Message.Tx_response { ok; info } -> vote ok info
  | Message.Fault f -> vote false f.Message.reason
  | _ -> vote false "malformed transaction reply"
  | exception (Transport.Error _ as e) ->
      vote ~transport_failed:true false (Printexc.to_string e)
  | exception Message.Protocol_error m
  | exception Xrpc_xml.Xml_parse.Parse_error m ->
      vote ~transport_failed:true false ("garbled transaction reply: " ^ m)

(** In-doubt recovery probe: ask [dest] (the coordinator) whether [qid]
    committed.  [ok = true] means committed; anything else — including an
    unknown transaction — means aborted (presumed abort). *)
let status ~transport ~dest qid = tx transport ~dest Message.Status qid

(** [run_detailed ~transport qid participants] drives the full protocol
    and reports per-peer votes and decision acks.  [on_decision] fires
    once, after the votes are in and before any decision message is sent —
    the coordinator's "log the decision to stable storage" step. *)
let m_commits = Metrics.counter "twopc.commits"
let m_aborts = Metrics.counter "twopc.aborts"

(** [executor] fans the prepare and decision broadcasts out to all
    participants concurrently; the default sequential executor keeps the
    historical in-order behaviour (and chaos-schedule determinism). *)
let run_detailed ?(decision_retries = 3) ?(on_decision = fun _ -> ())
    ?(executor = Executor.sequential) ~transport (qid : Message.query_id)
    (participants : string list) : outcome =
  Trace.with_span ~detail:(Message.query_id_key qid) "2pc" @@ fun () ->
  let votes =
    Trace.with_span "2pc.prepare" @@ fun () ->
    Executor.map_list executor
      (fun dest ->
        let v = tx transport ~dest Message.Prepare qid in
        Trace.event ~detail:(dest ^ (if v.ok then " yes" else " no"))
          (if v.ok then "vote-yes" else "vote-no");
        v)
      participants
  in
  let all_ok = List.for_all (fun v -> v.ok) votes in
  on_decision all_ok;
  Metrics.incr (if all_ok then m_commits else m_aborts);
  let second = if all_ok then Message.Commit else Message.Rollback in
  let decide dest =
    let rec go attempt =
      let v = tx transport ~dest second qid in
      if v.transport_failed && attempt < decision_retries then go (attempt + 1)
      else v
    in
    go 0
  in
  let decision_acks =
    Trace.with_span
      ~detail:(if all_ok then "commit" else "rollback")
      "2pc.decision"
    @@ fun () -> Executor.map_list executor decide participants
  in
  { committed = all_ok; votes; decision_acks }

let run ~transport qid participants =
  (run_detailed ~transport qid participants).committed
