(* Differential battery: the loop-lifted algebra backend (Looplift) vs the
   direct interpreter (Eval) over a seeded generator of core-subset XQuery —
   FLWOR over sequences (for/at/let/where), integer arithmetic, general
   comparisons (as where/if conditions), ranges, count(), and positional
   predicates.  Both engines must print the identical result for every
   generated query.

   500 cases run in @runtest.  The whole battery is re-seedable:

     DIFF_SEED=<n> dune runtest

   regenerates all 500 cases from base seed <n>; a failure message carries
   the base seed, the case index and the query text, so any failing case
   replays exactly.

   The generator deliberately stays inside the subset both engines define
   the same way.  Known, documented divergences it avoids:
     - comparison over an EMPTY operand: Eval's general comparison yields
       false, the lifted plan yields the empty sequence — identical as a
       where/if condition (EBV false), different as a returned value, so
       comparisons appear only in condition position;
     - arithmetic over non-singletons: both engines error, but with
       different exceptions, so operands are tracked for singleton-ness;
     - division/modulo by zero: divisors are non-zero literals. *)

open Xrpc_xml
module Looplift = Xrpc_algebra.Looplift
module Parser = Xrpc_xquery.Parser
module Runner = Xrpc_xquery.Runner

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

type gen_env = {
  rng : Random.State.t;
  singles : string list;  (* variables bound to singleton integers *)
  seqs : string list;  (* variables bound to arbitrary sequences *)
  mutable fresh : int;
}

let fresh_var st =
  let v = Printf.sprintf "v%d" st.fresh in
  st.fresh <- st.fresh + 1;
  v

let pick st l = List.nth l (Random.State.int st.rng (List.length l))

let weighted st choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  let rec go n = function
    | [] -> assert false
    | (w, c) :: rest -> if n < w then c else go (n - w) rest
  in
  go (Random.State.int st.rng total) choices

(* a singleton-integer expression *)
let rec gen_int st depth =
  let leaf () =
    match st.singles with
    | [] -> string_of_int (Random.State.int st.rng 10)
    | vs ->
        if Random.State.bool st.rng then "$" ^ pick st vs
        else string_of_int (Random.State.int st.rng 10)
  in
  if depth <= 0 then leaf ()
  else
    weighted st
      [
        (3, leaf);
        ( 3,
          fun () ->
            let op = pick st [ "+"; "-"; "*" ] in
            Printf.sprintf "(%s %s %s)" (gen_int st (depth - 1)) op
              (gen_int st (depth - 1)) );
        ( 1,
          fun () ->
            (* non-zero literal divisor keeps both engines error-free *)
            let op = pick st [ "idiv"; "mod" ] in
            Printf.sprintf "(%s %s %d)" (gen_int st (depth - 1)) op
              (1 + Random.State.int st.rng 4) );
        (2, fun () -> Printf.sprintf "count(%s)" (gen_seq st (depth - 1)));
        ( 1,
          fun () ->
            Printf.sprintf "(if %s then %s else %s)" (gen_cond st (depth - 1))
              (gen_int st (depth - 1)) (gen_int st (depth - 1)) );
      ]
      ()

(* a comparison usable as an EBV condition *)
and gen_cond st depth =
  let op = pick st [ "="; "!="; "<"; "<="; ">"; ">=" ] in
  Printf.sprintf "(%s %s %s)" (gen_int st depth) op (gen_int st depth)

(* an arbitrary (possibly empty, possibly long) sequence expression *)
and gen_seq st depth =
  if depth <= 0 then
    weighted st
      [
        (5, fun () -> gen_int st 0);
        (1, fun () -> "()");
        ( 2,
          fun () ->
            let lo = Random.State.int st.rng 6 in
            (* hi may undershoot lo: empty ranges are part of the subset
               (clamped at 0 — a negative literal would parse as unary
               minus, which the lifted plan does not support) *)
            Printf.sprintf "(%d to %d)" lo
              (max 0 (lo - 1 + Random.State.int st.rng 5)) );
        ( 2,
          fun () ->
            match st.seqs with
            | [] -> gen_int st 0
            | vs -> "$" ^ pick st vs );
      ]
      ()
  else
    weighted st
      [
        (3, fun () -> gen_int st depth);
        ( 2,
          fun () ->
            Printf.sprintf "(%s, %s)" (gen_seq st (depth - 1))
              (gen_seq st (depth - 1)) );
        ( 2,
          fun () ->
            (* positional predicate: literal index, sometimes out of range
               (0 or past the end) — both engines must yield empty *)
            Printf.sprintf "(%s)[%d]" (gen_seq st (depth - 1))
              (Random.State.int st.rng 6) );
        ( 4,
          fun () ->
            let v = fresh_var st in
            let posv =
              if Random.State.int st.rng 3 = 0 then Some (fresh_var st) else None
            in
            let inner =
              {
                st with
                singles =
                  (v :: (match posv with Some p -> [ p ] | None -> []))
                  @ st.singles;
              }
            in
            let where =
              if Random.State.int st.rng 3 = 0 then
                " where " ^ gen_cond inner (depth - 1)
              else ""
            in
            Printf.sprintf "(for $%s%s in %s%s return %s)" v
              (match posv with Some p -> " at $" ^ p | None -> "")
              (gen_seq st (depth - 1))
              where
              (gen_seq inner (depth - 1)) );
        ( 2,
          fun () ->
            let v = fresh_var st in
            let bound_single = Random.State.bool st.rng in
            let bound =
              if bound_single then gen_int st (depth - 1)
              else gen_seq st (depth - 1)
            in
            let inner =
              if bound_single then { st with singles = v :: st.singles }
              else { st with seqs = v :: st.seqs }
            in
            Printf.sprintf "(let $%s := %s return %s)" v bound
              (gen_seq inner (depth - 1)) );
        ( 1,
          fun () ->
            Printf.sprintf "(if %s then %s else %s)" (gen_cond st (depth - 1))
              (gen_seq st (depth - 1)) (gen_seq st (depth - 1)) );
      ]
      ()

let gen_query ~base ~case =
  let st =
    { rng = Random.State.make [| base; case |]; singles = []; seqs = [];
      fresh = 0 }
  in
  gen_seq st 3

(* ------------------------------------------------------------------ *)
(* The two engines                                                     *)
(* ------------------------------------------------------------------ *)

let resolver ~uri:_ ~location:_ = failwith "no modules in differential tests"
let no_network ~dest:_ _ = failwith "no network in differential tests"

let run_eval q = Xdm.to_display (fst (Runner.run ~resolver q))

let run_looplift q =
  let e = Parser.parse_expression q in
  let env = Looplift.make_env ~call:no_network () in
  Xdm.to_display (Looplift.run env e)

let base_seed () =
  match Sys.getenv_opt "DIFF_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 2026

let check_case ~base ~case q =
  let lifted =
    try Ok (run_looplift q) with
    | Looplift.Unsupported m -> Error (Printf.sprintf "Unsupported: %s" m)
    | e -> Error (Printexc.to_string e)
  in
  let interp =
    try Ok (run_eval q) with e -> Error (Printexc.to_string e)
  in
  match (lifted, interp) with
  | Ok a, Ok b when a = b -> ()
  | _ ->
      let show = function Ok s -> Printf.sprintf "%S" s | Error m -> m in
      Alcotest.failf
        "engines diverge on case %d of base seed %d\n\
         query:      %s\n\
         looplift:   %s\n\
         interpreter: %s\n\
         replay the battery with: DIFF_SEED=%d dune runtest"
        case base q (show lifted) (show interp) base

let test_differential_battery () =
  let base = base_seed () in
  for case = 0 to 499 do
    check_case ~base ~case (gen_query ~base ~case)
  done

(* Handwritten pin-downs of the corners the generator relies on. *)
let test_differential_corners () =
  let base = base_seed () in
  List.iteri
    (fun i q -> check_case ~base ~case:(-(i + 1)) q)
    [
      "(1, 2, 3)[2]";
      "(1, 2)[5]";
      "(1, 2)[0]";
      "((10 to 14)[3], (5 to 4)[1])";
      "(for $v at $p in (7, 8, 9) return ($p, $v))";
      "(for $v in (1 to 4) where $v mod 2 = 0 return $v * $v)";
      "(let $s := (2 to 5) return (count($s), $s[2]))";
      "(for $a in (1 to 3) return for $b in (1 to $a) return ($a * 10 + $b))";
      "(if (count(()) = 0) then (1, 2) else 3)";
      "count((for $v in (1 to 5) return (1 to $v))[7])";
    ]

(* Eval vs the caching peer path: the same generated queries, run twice
   each through one Peer with its plan cache on (second run is a plan-
   cache hit) against a fresh interpreter run as the reference — cached
   plans and their per-execution global rebinding may never change an
   answer.  Cases 500..699 keep the seeds disjoint from the Looplift
   battery above.

   The battery runs once per [Peer.config.rpc_mode] (bulk, singles):
   these queries have no [execute at], so the dispatch mode must be a
   strict no-op on answers. *)
let cached_peer_battery mode () =
  let base = base_seed () in
  let peer =
    Xrpc_peer.Peer.create
      ~config:{ Xrpc_peer.Peer.default_config with rpc_mode = mode }
      "xrpc://diff.local"
  in
  let mode = Xrpc_xquery.Context.rpc_mode_name mode in
  for case = 500 to 699 do
    let q = gen_query ~base ~case in
    let reference = try Ok (run_eval q) with e -> Error (Printexc.to_string e) in
    let via_peer () =
      try Ok (Xdm.to_display (Xrpc_peer.Peer.query_seq peer q))
      with e -> Error (Printexc.to_string e)
    in
    let first = via_peer () in
    let second = via_peer () in
    let agrees = function
      | Ok d -> reference = Ok d
      | Error _ -> ( match reference with Ok _ -> false | Error _ -> true)
    in
    if not (agrees first && agrees second) then
      let show = function Ok s -> Printf.sprintf "%S" s | Error m -> m in
      Alcotest.failf
        "cached peer (rpc mode %S) diverges on case %d of base seed %d\n\
         query:       %s\n\
         interpreter: %s\n\
         first run:   %s\n\
         cached run:  %s\n\
         replay the battery with: DIFF_SEED=%d dune runtest"
        mode case base q (show reference) (show first) (show second) base
  done;
  let stats = (Xrpc_peer.Peer.cache_stats peer).Xrpc_peer.Peer.plan in
  if stats.Xrpc_peer.Lru.hits < 200 then
    Alcotest.failf "rpc mode %S: expected >= 200 plan-cache hits, saw %d"
      mode stats.Xrpc_peer.Lru.hits

(* every generated query (cases 0..699) and corner, lifted and unlifted:
   the plan cache's literal lifting never changes an answer or an error *)
let test_lifted () =
  let base = base_seed () in
  let t = Lift_check.create [] in
  let check_one case q =
    match Lift_check.agree t q with
    | Ok () -> ()
    | Error m ->
        Alcotest.failf "%s\ncase %d; replay the battery with: DIFF_SEED=%d dune runtest"
          m case base
  in
  for case = 0 to 699 do
    check_one case (gen_query ~base ~case)
  done;
  List.iteri
    (fun i q -> check_one (-(i + 1)) q)
    [ {|concat("a", "b")|}; {|("x", "y")[2]|}; {|string-length("lifted")|} ]

(* the battery is itself deterministic: same base seed, same 500 queries *)
let test_generator_deterministic () =
  let base = base_seed () in
  for case = 0 to 499 do
    let a = gen_query ~base ~case and b = gen_query ~base ~case in
    if a <> b then Alcotest.failf "case %d not deterministic" case
  done

let () =
  Alcotest.run "diff"
    [
      ( "eval-vs-looplift",
        [
          Alcotest.test_case "corner cases" `Quick test_differential_corners;
          Alcotest.test_case "500 seeded queries" `Quick
            test_differential_battery;
          Alcotest.test_case "200 queries, Eval vs cached peer (bulk)" `Quick
            (cached_peer_battery Xrpc_xquery.Context.Rpc_bulk);
          Alcotest.test_case "200 queries, Eval vs cached peer (singles)"
            `Quick
            (cached_peer_battery Xrpc_xquery.Context.Rpc_singles);
          Alcotest.test_case "generator determinism" `Quick
            test_generator_deterministic;
          Alcotest.test_case "700 queries, lifted = unlifted" `Quick
            test_lifted;
        ] );
    ]
