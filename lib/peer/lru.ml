(** Bounded LRU table — the one cache implementation of the peer: the
    plan, module and idempotency caches are each an instance.

    Every operation is one critical section of the instance's mutex: a
    lookup, an insert together with its eviction, an invalidation pass.
    Each event is counted once, in the instance's own counters (read with
    {!stats}) and in the process-wide {!Xrpc_obs.Metrics} series
    [<name>.hits], [.misses], [.evictions] and [.invalidations], shared by
    every instance created under the same [name].  A disabled instance
    stores nothing and moves no counter.

    The linear eviction scan is deliberate: at the capacities involved
    (hundreds to a few thousand entries) it costs microseconds, only runs
    once the cache is full, and needs no auxiliary ordering structure that
    every hit would have to maintain. *)

module Metrics = Xrpc_obs.Metrics

type 'a entry = { value : 'a; mutable last_used : int }

(* one kind of cache event: this instance's count and the named series *)
type event = { mutable n : int; series : Metrics.counter }

type 'a t = {
  mutable enabled : bool;
  capacity : int;
  entries : (string, 'a entry) Hashtbl.t;
  mutable tick : int;  (** logical time for LRU recency *)
  hits : event;
  misses : event;
  evictions : event;  (** capacity evictions only *)
  invalidations : event;  (** entries dropped by {!remove_if} *)
  lock : Mutex.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
  enabled : bool;
}

(** [create ~capacity name] — [capacity] is clamped to at least 1;
    [name] prefixes the instance's metric series. *)
let create ~capacity name : 'a t =
  let event kind = { n = 0; series = Metrics.counter (name ^ "." ^ kind) } in
  {
    enabled = true;
    capacity = max 1 capacity;
    entries = Hashtbl.create 64;
    tick = 0;
    hits = event "hits";
    misses = event "misses";
    evictions = event "evictions";
    invalidations = event "invalidations";
    lock = Mutex.create ();
  }

let count e k =
  e.n <- e.n + k;
  Metrics.incr_by e.series k

(** The value cached under [key], refreshing its recency. *)
let find (t : 'a t) key : 'a option =
  Mutex.protect t.lock @@ fun () ->
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.entries key with
    | Some e ->
        t.tick <- t.tick + 1;
        e.last_used <- t.tick;
        count t.hits 1;
        Some e.value
    | None ->
        count t.misses 1;
        None

let evict_lru (t : _ t) =
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
      count t.evictions 1
  | None -> ()

(** Remember [value], evicting the least-recently-used entry when the
    cache is full.  Replacing an existing key never evicts. *)
let add (t : 'a t) key (value : 'a) =
  Mutex.protect t.lock @@ fun () ->
  if t.enabled then begin
    if (not (Hashtbl.mem t.entries key)) && Hashtbl.length t.entries >= t.capacity
    then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.entries key { value; last_used = t.tick }
  end

(** [find_or_add t key make] — the value for [key] and whether it was a
    hit.  On a miss [make ()] runs outside the lock and its result is
    added; a [make] that raises caches nothing. *)
let find_or_add t key make =
  match find t key with
  | Some v -> (v, true)
  | None ->
      let v = make () in
      add t key v;
      (v, false)

(** [remove_if t p] drops every entry satisfying [p key value] and
    returns how many were dropped, counted as invalidations (not
    evictions). *)
let remove_if (t : 'a t) p =
  Mutex.protect t.lock @@ fun () ->
  let victims =
    Hashtbl.fold
      (fun key e acc -> if p key e.value then key :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) victims;
  let n = List.length victims in
  count t.invalidations n;
  n

let clear (t : _ t) = Mutex.protect t.lock @@ fun () -> Hashtbl.reset t.entries
let set_enabled (t : _ t) b = t.enabled <- b
let enabled (t : _ t) = t.enabled

let stats (t : _ t) : stats =
  Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits.n;
    misses = t.misses.n;
    evictions = t.evictions.n;
    invalidations = t.invalidations.n;
    size = Hashtbl.length t.entries;
    capacity = t.capacity;
    enabled = t.enabled;
  }
