(** Compiled-plan cache for ad-hoc queries (§3.3, extended).

    The module cache only covers module plans; every ad-hoc [Peer.query]
    still paid parse + prolog + static check on each run.  This cache
    keeps the {e static} half of compilation — the parsed program, the
    function registry built by prolog pass 1 (imports included), the
    recorded options and import list — under the
    {!Xrpc_xquery.Normalize.lift} key of the source text: its canonical
    token stream with each body string literal lifted out as an external
    variable [$xrpc:lit-N].  A query that differs from a cached one only
    in whitespace, comments or those literals skips straight to execution,
    with the literals it spells bound to the lifted variables — the way a
    served function's plan serves every call whatever its parameters.
    Global-variable binding (prolog pass 2) is database-dependent and
    deliberately {e not} cached: it re-runs per execution via
    {!Xrpc_xquery.Runner.bind_globals}, which is what keeps a cached plan
    coherent with a database that changed under it.

    A lifted program is kept only if putting its literals back gives the
    unlifted parse; otherwise (a literal the grammar reads that the
    lifter's rules missed, say) the query is cached unlifted, under its
    exact text.

    One {!Lru} instance, counted as [peer.plan_cache.*]: one lookup per
    query. *)

module Normalize = Xrpc_xquery.Normalize
module Parser = Xrpc_xquery.Parser
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module Trace = Xrpc_obs.Trace

type compiled = {
  prog : Xast.prog;
  funcs : (Xctx.func_key, Xctx.func) Hashtbl.t;
      (** shared by every execution of this plan — prolog pass 1 is the
          only writer, so post-compile the table is read-only *)
  options : (string * string) list;  (** [declare option] values *)
  imports : (string * string) list;  (** module uri -> at-hint *)
}

let capacity = 128

type t = {
  lru : compiled Lru.t;
  by_source : (string, string * string array) Hashtbl.t;
      (** exact source text -> its key and the values of its lifted
          literals.  Repeat queries usually arrive byte-identical; this
          fast path skips re-lexing the whole source on every lookup,
          which would otherwise cost a sizable fraction of the parse it
          exists to avoid.  Other sources fall through to
          {!Normalize.lift}. *)
  alias_lock : Mutex.t;  (** guards [by_source]: [Peer.query] runs unlocked *)
}

let create () =
  {
    lru = Lru.create ~capacity "peer.plan_cache";
    by_source = Hashtbl.create 64;
    alias_lock = Mutex.create ();
  }

(* the alias table is bounded loosely: 4x the LRU capacity; overflow just
   resets the fast path, never correctness.  Lifting runs outside the
   lock. *)
let alias t source =
  Mutex.protect t.alias_lock (fun () -> Hashtbl.find_opt t.by_source source)

let remember t source entry =
  Mutex.protect t.alias_lock (fun () ->
      if Hashtbl.length t.by_source >= 4 * capacity then
        Hashtbl.reset t.by_source;
      Hashtbl.replace t.by_source source entry)

let parse source =
  Trace.with_span "client.parse" @@ fun () -> Parser.parse_prog source

(* A miss: the key, the literals and the program to compile.  The
   unlifted parse runs first, so a query that does not parse fails with
   its own error; a lifted program that does not give it back is
   dropped. *)
let program (l : Normalize.lifted) source =
  if Array.length l.Normalize.literals = 0 then
    (l.Normalize.key, [||], parse source)
  else
    let unlifted = parse source in
    match Parser.parse_prog l.Normalize.text with
    | lifted when Normalize.substitute l.Normalize.literals lifted = unlifted
      ->
        (l.Normalize.key, l.Normalize.literals, lifted)
    (* any failure of the lifted text only means it cannot be lifted *)
    | _ | (exception _) -> (Normalize.raw_prefix ^ source, [||], unlifted)

(** [find_or_compile t source ~compile] — the cached plan for [source],
    the values of its lifted literals (bind them with
    {!Normalize.bind_literals}) and whether the plan came from the cache.
    [compile prog ~literals] runs prolog pass 1 and the static check with
    the lifted variables in scope.  A [compile] that raises caches
    nothing (the error propagates and the next attempt recompiles).  With
    the cache disabled, the source is compiled unlifted every time and no
    counters move. *)
let find_or_compile t (source : string)
    ~(compile : Xast.prog -> literals:string array -> compiled) :
    compiled * string array * bool =
  if not (Lru.enabled t.lru) then (compile (parse source) ~literals:[||], [||], false)
  else
    let known = alias t source in
    let lifted = lazy (Normalize.lift source) in
    let key, literals =
      match known with
      | Some entry -> entry
      | None ->
          let l = Lazy.force lifted in
          (l.Normalize.key, l.Normalize.literals)
    in
    match Lru.find t.lru key with
    | Some c ->
        if known = None then remember t source (key, literals);
        (c, literals, true)
    | None ->
        let key, literals, prog = program (Lazy.force lifted) source in
        let c = compile prog ~literals in
        Lru.add t.lru key c;
        remember t source (key, literals);
        (c, literals, false)
