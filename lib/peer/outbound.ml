(* The one outgoing-message path; the rules it enforces are in the
   interface. *)

open Xrpc_xml
module Message = Xrpc_soap.Message
module Transport = Xrpc_net.Transport
module Xrpc_uri = Xrpc_net.Xrpc_uri
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

type t = {
  transport : Transport.t;
  origin : string;  (** identity stamped into idempotency keys *)
  seq : int Atomic.t;
}

let create ~origin transport = { transport; origin; seq = Atomic.make 0 }

let keyed t (req : Message.request) =
  match req.Message.idem_key with
  | Some _ -> req
  | None ->
      let n = Atomic.fetch_and_add t.seq 1 + 1 in
      { req with Message.idem_key = Some (t.origin ^ "/" ^ string_of_int n) }

let encode ~dest msg =
  let body = Message.to_string msg in
  if Trace.recording () then begin
    Trace.add (Profile.dest_attr "msgs" dest) 1.;
    (match msg with
    | Message.Request r ->
        Trace.add (Profile.dest_attr "calls" dest)
          (float_of_int (List.length r.Message.calls))
    | _ -> ());
    Trace.add (Profile.dest_attr "bytes_out" dest)
      (float_of_int (String.length body))
  end;
  body

(* resolved per reply (a registry lookup), noise next to a round trip *)
let m_cache_hits dest =
  Metrics.counter
    (Metrics.with_labels "client.remote_cache_hits" [ ("dest", dest) ])

let m_db_version dest =
  Metrics.gauge
    (Metrics.with_labels "client.remote_db_version" [ ("dest", dest) ])

let decode ~dest raw =
  if Trace.recording () then
    Trace.add (Profile.dest_attr "bytes_in" dest)
      (float_of_int (String.length raw));
  let m = Message.of_reply ~dest raw in
  (match m with
  | Message.Response r ->
      if r.Message.cached then begin
        Metrics.incr (m_cache_hits dest);
        Trace.event ~detail:dest "remote-cache-hit"
      end;
      Option.iter
        (fun v -> Metrics.set (m_db_version dest) (float_of_int v))
        r.Message.db_version
  | _ -> ());
  m

let send t ~dest msg =
  Trace.with_span ~detail:dest "rpc" @@ fun () ->
  decode ~dest (t.transport.Transport.send ~dest (encode ~dest msg))

let call t ~dest req = send t ~dest (Message.Request (keyed t req))

let call_parallel t reqs =
  Trace.with_span
    ~detail:(string_of_int (List.length reqs) ^ " peers")
    "rpc.parallel"
  @@ fun () ->
  let bodies =
    List.map
      (fun (dest, req) -> (dest, encode ~dest (Message.Request (keyed t req))))
      reqs
  in
  List.map2
    (fun (dest, _) raw -> decode ~dest raw)
    reqs
    (t.transport.Transport.send_parallel bodies)

let fetch_document t uri_str : Store.t =
  let uri = Xrpc_uri.parse uri_str in
  let request =
    {
      Message.module_uri = Qname.ns_xrpc;
      location = "";
      method_ = "getDocument";
      arity = 1;
      updating = false;
      fragments = false;
      query_id = None;
      idem_key = None;
      cache_ok = true;
      calls = [ [ [ Xdm.str uri.Xrpc_uri.path ] ] ];
    }
  in
  let fail reason = Xdm.dyn_error "fn:doc(%s): %s" uri_str reason in
  match
    send t ~dest:("xrpc://" ^ Xrpc_uri.peer_key uri) (Message.Request request)
  with
  | Message.Response { results = [ [ Xdm.Node n ] ]; _ } -> n.Store.store
  | Message.Fault f -> fail f.Message.reason
  | _ -> fail "malformed response"
