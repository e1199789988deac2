(** Compiled-plan cache for ad-hoc queries (§3.3, extended).

    The module cache only covers module plans; every ad-hoc [Peer.query]
    still paid parse + prolog + static check on each run.  This cache
    keys the {e static} half of compilation — the parsed program, the
    function registry built by prolog pass 1 (imports included), the
    recorded options and import list — on the
    {!Xrpc_xquery.Normalize.canonical} form of the source text, so a
    repeated query (modulo whitespace and comments) skips straight to
    execution.  Global-variable binding (prolog pass 2) is database-
    dependent and deliberately {e not} cached: it re-runs per execution
    via {!Xrpc_xquery.Runner.bind_globals}, which is what keeps a cached
    plan coherent with a database that changed under it.

    One {!Lru} instance, counted as [peer.plan_cache.*]. *)

module Normalize = Xrpc_xquery.Normalize
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context

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
  by_source : (string, string) Hashtbl.t;
      (** exact source text -> canonical key.  Repeat queries usually
          arrive byte-identical; this fast path skips re-lexing the whole
          source for canonicalization on every lookup, which would
          otherwise cost a sizable fraction of the parse it exists to
          avoid.  Sources differing only in whitespace/comments miss here
          and fall through to {!Normalize.canonical}. *)
  alias_lock : Mutex.t;  (** guards [by_source]: [Peer.query] runs unlocked *)
}

let create () =
  {
    lru = Lru.create ~capacity "peer.plan_cache";
    by_source = Hashtbl.create 64;
    alias_lock = Mutex.create ();
  }

(* the alias table is bounded loosely: distinct spellings of the same
   canonical query are rare, so 4x the LRU capacity is plenty; overflow
   just resets the fast path, never correctness.  Canonicalization runs
   outside the lock. *)
let canonical_key t source =
  match
    Mutex.protect t.alias_lock (fun () -> Hashtbl.find_opt t.by_source source)
  with
  | Some key -> key
  | None ->
      let key = Normalize.canonical source in
      Mutex.protect t.alias_lock (fun () ->
          if Hashtbl.length t.by_source >= 4 * capacity then
            Hashtbl.reset t.by_source;
          Hashtbl.replace t.by_source source key);
      key

(** [find_or_compile t source ~compile] — the cached plan for [source],
    with a flag saying whether it was served from the cache.  A [compile]
    that raises caches nothing (the error propagates and the next attempt
    recompiles).  With the cache disabled, [compile] runs every time and
    no counters move — so hit and miss paths stay byte-identical in
    behavior, which the differential tests rely on. *)
let find_or_compile t (source : string) ~(compile : unit -> compiled) :
    compiled * bool =
  if not (Lru.enabled t.lru) then (compile (), false)
  else Lru.find_or_add t.lru (canonical_key t source) compile
