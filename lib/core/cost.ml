(** Cost-based choice between the §5 distributed execution strategies.

    The paper evaluates four hand-written plans for query Q7 (Section 6,
    Tables 2–4) and shows which one wins as selectivity, document sizes and
    network latency vary; picking between them automatically is left as
    future work.  This module is that picker.  The cost of a plan is the
    paper's three-term sum:

    {v  cost = #messages × latency  +  bytes / bandwidth  +  per-peer CPU  v}

    - Table 2's term: message count.  Bulk RPC sends [2] messages for a
      whole loop where one-at-a-time RPC sends [2N]; the per-strategy
      message counts below are the paper's (data shipping and predicate
      pushdown are one round trip, execution relocation triggers a nested
      [getDocument] round trip back to the coordinator, the distributed
      semi-join is one Bulk RPC round trip).
    - Table 3's term: bytes on the wire, divided by bandwidth.  Seeded from
      live statistics (a profile's per-destination bytes, document
      sizes, observed selectivities).
    - Table 4's term: per-peer CPU (compile / tree-build / execute phases,
      as reported by [serverProfile] and the wrapper phase counters).

    The model is pure: [bench/optimizer_bench] and [test_optimizer] check
    that its choice is the measured fastest strategy. *)

module Simnet = Xrpc_net.Simnet
module Eval = Xrpc_xquery.Eval
module Runner = Xrpc_xquery.Runner
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module Qname = Xrpc_xml.Qname

(* ------------------------------------------------------------------ *)
(* Model inputs                                                        *)
(* ------------------------------------------------------------------ *)

(** Network parameters — the latency/bandwidth columns of Tables 2–3. *)
type net = {
  latency_ms : float;  (** one-way latency per message *)
  bandwidth_bytes_per_ms : float;
}

let net_of_simnet (c : Simnet.config) =
  {
    latency_ms = c.Simnet.latency_ms;
    bandwidth_bytes_per_ms = c.Simnet.bandwidth_bytes_per_ms;
  }

let default_net = net_of_simnet Simnet.default_config

(** Per-peer CPU parameters — Table 4's phase costs, normalized to unit
    work so they scale with the site statistics.  [zero_cpu] matches the
    [charge_cpu = false] simulator configuration used by the deterministic
    benches, where measured time is network time only. *)
type cpu = {
  compile_ms : float;  (** per remote compilation *)
  xml_ms_per_byte : float;  (** shredding/tree-build cost *)
  exec_ms_per_row : float;  (** join/selection cost per processed row *)
}

let zero_cpu = { compile_ms = 0.; xml_ms_per_byte = 0.; exec_ms_per_row = 0. }

(** Statistics describing one [execute at] site (Q7-shaped: an outer loop
    at the coordinator joined against a remote document).  These are what
    the live profiler and the probing client measure. *)
type site = {
  outer_rows : int;  (** N — loop iterations at the coordinator (persons) *)
  key_bytes : int;  (** serialized bytes per semi-join key parameter *)
  local_doc_bytes : int;  (** coordinator document (shipped by relocation) *)
  remote_doc_bytes : int;  (** remote document (shipped by data shipping) *)
  remote_rows : int;  (** candidate rows at the remote peer *)
  match_rows : int;  (** join result cardinality *)
  result_bytes : int;  (** serialized bytes of the final result *)
  pushdown_rows : int;  (** rows returned by the pushdown function *)
  pushdown_bytes : int;  (** bytes shipped by the pushdown function *)
  msg_overhead_bytes : int;  (** SOAP envelope overhead per message *)
}

(** Envelope overhead of an XRPC request/response as serialized by
    [Marshal] — measured once on an empty call, rounded. *)
let default_msg_overhead = 512

let default_site =
  {
    outer_rows = 0;
    key_bytes = 24;
    local_doc_bytes = 0;
    remote_doc_bytes = 0;
    remote_rows = 0;
    match_rows = 0;
    result_bytes = 0;
    pushdown_rows = 0;
    pushdown_bytes = 0;
    msg_overhead_bytes = default_msg_overhead;
  }

(* ------------------------------------------------------------------ *)
(* The estimator                                                       *)
(* ------------------------------------------------------------------ *)

type cost = {
  strategy : Strategies.strategy;
  messages : int;
  bytes_out : int;  (** coordinator -> remote *)
  bytes_in : int;  (** remote -> coordinator *)
  network_ms : float;
  cpu_ms : float;
}

let total c = c.network_ms +. c.cpu_ms

let network_ms_of net ~messages ~bytes =
  (float_of_int messages *. net.latency_ms)
  +. (float_of_int bytes /. net.bandwidth_bytes_per_ms)

(** Estimate one strategy's cost for [site] under [net]/[cpu].

    Message counts and payloads per strategy (Q7 shapes, §5/§6):
    - {e data shipping}: 2 messages; the whole remote document comes in.
    - {e predicate pushdown}: 2 messages; only the selected nodes come in.
    - {e execution relocation}: 4 messages — the relocated call plus the
      remote peer's nested [getDocument] back to the coordinator; the
      local document goes out, the final result comes in.
    - {e distributed semi-join}: 2 messages (Bulk RPC lifts the
      loop-dependent call into one message); all N keys go out, the
      matching rows come in (estimated from the pushdown payload scaled
      by observed selectivity). *)
let estimate net cpu site strategy =
  let ovh = site.msg_overhead_bytes in
  let messages, bytes_out, bytes_in, cpu_ms =
    match strategy with
    | Strategies.Data_shipping ->
        let parse = cpu.xml_ms_per_byte *. float_of_int site.remote_doc_bytes in
        let exec =
          cpu.exec_ms_per_row
          *. float_of_int (site.outer_rows + site.remote_rows)
        in
        (2, ovh, site.remote_doc_bytes + ovh, parse +. exec)
    | Strategies.Predicate_pushdown ->
        let remote_exec = cpu.exec_ms_per_row *. float_of_int site.remote_rows in
        let parse = cpu.xml_ms_per_byte *. float_of_int site.pushdown_bytes in
        let local_exec =
          cpu.exec_ms_per_row
          *. float_of_int (site.outer_rows + site.pushdown_rows)
        in
        ( 2,
          ovh,
          site.pushdown_bytes + ovh,
          cpu.compile_ms +. remote_exec +. parse +. local_exec )
    | Strategies.Execution_relocation ->
        let parse = cpu.xml_ms_per_byte *. float_of_int site.local_doc_bytes in
        let exec =
          cpu.exec_ms_per_row
          *. float_of_int (site.outer_rows + site.remote_rows)
        in
        ( 4,
          site.local_doc_bytes + (2 * ovh),
          site.result_bytes + (2 * ovh),
          cpu.compile_ms +. parse +. exec )
    | Strategies.Distributed_semijoin ->
        let keys_out = site.outer_rows * site.key_bytes in
        (* matching rows shipped back: [match_rows] rows at the average row
           size observed in the pushdown payload.  (The [pushdown_rows]
           denominator is a selectivity ratio, so cost is monotone in every
           additive statistic — rows, bytes, latency — as Tables 2–4
           require, while staying responsive to row width.) *)
        let match_bytes =
          if site.pushdown_rows <= 0 then site.pushdown_bytes
          else site.pushdown_bytes * site.match_rows / site.pushdown_rows
        in
        let remote_exec =
          cpu.exec_ms_per_row
          *. float_of_int (site.outer_rows + site.match_rows)
        in
        ( 2,
          keys_out + ovh,
          match_bytes + ovh,
          cpu.compile_ms +. remote_exec
          +. (cpu.xml_ms_per_byte *. float_of_int match_bytes) )
  in
  let bytes = bytes_out + bytes_in in
  {
    strategy;
    messages;
    bytes_out;
    bytes_in;
    network_ms = network_ms_of net ~messages ~bytes;
    cpu_ms;
  }

(** Table 2 — Bulk RPC vs one-at-a-time RPC for the same loop: returns
    [(bulk_ms, singles_ms)] for [ncalls] iterations shipping
    [bytes_per_call] each.  Bulk is one round trip carrying all calls;
    one-at-a-time pays the round trip (and envelope) per call. *)
let estimate_rpc net ?(overhead = default_msg_overhead) ~ncalls
    ~bytes_per_call () =
  let ncalls = max 1 ncalls in
  let bulk =
    network_ms_of net ~messages:2
      ~bytes:((ncalls * bytes_per_call) + (2 * overhead))
  in
  let singles =
    network_ms_of net ~messages:(2 * ncalls)
      ~bytes:(ncalls * (bytes_per_call + (2 * overhead)))
  in
  (bulk, singles)

(* ------------------------------------------------------------------ *)
(* Choosing                                                            *)
(* ------------------------------------------------------------------ *)

type decision = {
  chosen : cost;
  ranked : cost list;  (** all strategies, cheapest first *)
}

(** Rank all four strategies for [site] and pick the cheapest. *)
let choose net cpu site =
  let ranked =
    List.stable_sort
      (fun a b -> compare (total a) (total b))
      (List.map (estimate net cpu site) Strategies.all)
  in
  { chosen = List.hd ranked; ranked }

(** [:explain]: what {!Eval} will do with [prog] when run in [rpc_mode],
    without running it ([funcs]: the compiled plan's function registry).
    For each [execute at] site ({!Runner.execute_sites}): the span
    [:profile] records for it, its dispatch and the Table-2 bulk vs
    one-at-a-time estimate for a nominal 100-iteration loop.  Then the
    form of each path step ({!Eval.indexed_step}), and the value each
    lifted literal ([literals], in the plan cache's [$xrpc:lit-N] order)
    is bound to. *)
let explain_plan ?funcs ?(literals = [||]) ~rpc_mode (prog : Xast.prog) =
  match prog.Xast.body with
  | None -> "(library module — no query body to explain)\n"
  | Some body ->
      let buf = Buffer.create 512 in
      let line fmt =
        Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
      in
      let plural n = if n = 1 then "" else "s" in
      let sites = Runner.execute_sites ~rpc_mode ?funcs prog in
      line "plan (rpc mode %s): %d execute-at site%s"
        (Xctx.rpc_mode_name rpc_mode) (List.length sites)
        (plural (List.length sites));
      List.iteri
        (fun i (s : Runner.execute_site) ->
          let fn =
            Printf.sprintf "%s/%d" (Qname.to_string s.site_fn) s.site_arity
          in
          let dest = s.site_dest in
          line "site %d: %s at %s%s%s" (i + 1) fn
            (Option.value dest ~default:"<dynamic>")
            (if s.site_in_loop then " [in loop]" else "")
            (if s.site_loop_dependent then " [loop-dependent]" else "");
          line "   span %s — %s"
            (match s.site_dispatch with
            | Runner.Hoisted -> "rpc"
            | _ -> Eval.bulk_span)
            (match s.site_dispatch with
            | Runner.Bulk ->
                "one Bulk RPC per destination over all iterations of its FLWOR"
            | Runner.Hoisted ->
                "hoisted to one call (loop-invariant, not updating; when the \
                 loop has >= 2 iterations)"
            | Runner.Per_iteration -> "one call per iteration"
            | Runner.Single when s.site_in_loop ->
                "a single call: its loop-invariant clause runs once for all \
                 iterations"
            | Runner.Single -> "a single call outside any loop");
          let ncalls = 100 in
          let bulk, singles =
            estimate_rpc default_net ~ncalls ~bytes_per_call:128 ()
          in
          line
            "   table2 %s%s: @%d iters bulk=%.3fms one-at-a-time=%.3fms (%.1fx)"
            fn
            (match dest with Some d -> " -> " ^ d | None -> "")
            ncalls bulk singles
            (if bulk > 0. then singles /. bulk else 1.))
        sites;
      let rec steps (e : Xast.expr) =
        let line form = Printf.sprintf "   %s — %s" (Xast.expr_to_string e) form in
        match e with
        | Xast.Step (axis, test, preds) -> (
            match Eval.value_probe axis test preds with
            | Some p ->
                (* the key path is read from the index, not stepped *)
                line (Eval.probe_label p)
                :: List.concat_map steps (p.Eval.operand :: p.Eval.rest)
            | None ->
                line
                  (match Eval.indexed_step axis test with
                  | Some q ->
                      "element-name index slice (" ^ Qname.to_string q ^ ")"
                  | None -> "axis scan")
                :: List.concat_map steps preds)
        | _ ->
            List.concat_map steps
              (Xast.focus_sub_exprs e @ Xast.item_sub_exprs e)
      in
      (match steps body with
      | [] -> ()
      | ls ->
          line "path steps:";
          List.iter (line "%s") ls);
      if literals <> [||] then begin
        line "lifted literals:";
        Array.iteri
          (fun i v ->
            line "   $%s := %S"
              (Qname.to_string (Xrpc_xquery.Normalize.literal_var (i + 1)))
              v)
          literals
      end;
      Buffer.contents buf
