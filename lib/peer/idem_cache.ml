(** Idempotent-response cache — exactly-once semantics over an
    at-least-once transport.

    Retried and duplicated XRPC requests must not re-execute updating
    functions (rule R_Fu applies pending update lists {e per request}), so
    a peer remembers the serialized response of every request that carried
    an [idemKey], in a bounded LRU next to the {!Func_cache}.  A replay
    with a known key is answered from the cache without touching the
    engine.  Faults are deliberately {e not} cached: a request that failed
    produced no side effects, so re-executing it on retry is both safe and
    the only way a transient error can heal.

    All operations are thread-safe: the HTTP server runs handlers on a
    pool of worker threads, so lookups and inserts race without the
    internal mutex. *)

type entry = { response : string; mutable last_used : int }

type t = {
  mutable enabled : bool;
  capacity : int;
  entries : (string, entry) Hashtbl.t;
  mutable tick : int;  (** logical time for LRU recency *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ?(enabled = true) ?(capacity = 256) () =
  {
    enabled;
    capacity = max 1 capacity;
    entries = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  if not t.enabled then None
  else
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries key with
    | Some e ->
        t.tick <- t.tick + 1;
        e.last_used <- t.tick;
        t.hits <- t.hits + 1;
        Some e.response
    | None ->
        t.misses <- t.misses + 1;
        None

(* evict the least-recently-used entry; a linear scan is fine at the
   capacities involved (hundreds), and only runs once the cache is full *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.entries key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t key response =
  if t.enabled then
    locked t @@ fun () ->
    if (not (Hashtbl.mem t.entries key)) && Hashtbl.length t.entries >= t.capacity
    then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.entries key { response; last_used = t.tick }

let size t = locked t @@ fun () -> Hashtbl.length t.entries
let clear t = locked t @@ fun () -> Hashtbl.reset t.entries
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
