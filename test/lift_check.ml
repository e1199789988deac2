(* Lifted against unlifted: the plan cache lifts each body string literal
   of a query out as an external variable ($xrpc:lit-N) and binds its
   value at run time.  [create docs] makes two peers over the same
   documents: [lifted] keeps plans, so its queries compile lifted and
   queries that differ only in literals share one plan; its twin
   [unlifted] has plan caching off, so it compiles every query exactly
   as written.  [agree t q] runs [q] on both and fails unless they give
   the same answer, or the same error with the same W3C code and message.
   [share t] is the number of queries so far whose plan lifted a
   literal, so a battery can say it was not vacuous. *)

open Xrpc_xml
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database

type t = {
  lifted : Peer.t;
  unlifted : Peer.t;
  mutable runs : int;
  mutable lifted_runs : int;
}

let create ?(modules = []) docs =
  let peer name =
    let p = Peer.create name in
    List.iter (fun (uri, xml) -> Database.add_doc_xml p.Peer.db uri xml) docs;
    List.iter
      (fun (uri, location, source) ->
        Peer.register_module p ~uri ~location source)
      modules;
    p
  in
  let unlifted = peer "xrpc://unlifted.local" in
  Peer.set_plan_caching unlifted false;
  { lifted = peer "xrpc://lifted.local"; unlifted; runs = 0; lifted_runs = 0 }

(* an error as its W3C code and message, whatever carries it *)
let describe = function
  | Xrpc_xquery.Check.Static_error errs ->
      "static: "
      ^ String.concat "; " (List.map Xrpc_xquery.Check.error_to_string errs)
  | Xdm.Dynamic_error m -> "dynamic: " ^ m
  | e -> Printexc.to_string e

let outcome peer q =
  match Peer.query_seq peer q with
  | v -> Ok (Xdm.to_display v)
  | exception e -> Error (describe e)

let show = function Ok s -> Printf.sprintf "%S" s | Error m -> "error " ^ m

(* [Ok ()] or the divergence, for the caller to report with its replay
   line *)
let agree t q =
  let a = outcome t.lifted q and b = outcome t.unlifted q in
  t.runs <- t.runs + 1;
  (match Peer.lifted_plan t.lifted q with
  | _, [||] -> ()
  | _ -> t.lifted_runs <- t.lifted_runs + 1
  | exception _ -> ());
  if a = b then Ok ()
  else
    Error
      (Printf.sprintf "lifted and unlifted runs diverge\nquery:    %s\nlifted:   %s\nunlifted: %s"
         q (show a) (show b))

let share t = (t.lifted_runs, t.runs)
