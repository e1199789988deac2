(** Consistent-hash shard map: document/record keys onto peers.

    The ring is the classic consistent-hashing construction (the DXQ
    query-network / Dynamo shape): every member is hashed onto the ring at
    [vnodes] points ("virtual nodes"), a key belongs to the first member
    point at or clockwise after its own hash, and the key's {e replica
    set} is the first [replicas] {e distinct} members found walking
    clockwise from there.  Virtual nodes are what bound the load skew
    (≈ O(√(1/vnodes)) relative deviation) and what make rebalancing
    minimal: a joining member only takes over the ring arcs its own
    vnodes land on (~K/N of the keys), and a leaving member's arcs fall
    to their clockwise successors — no unrelated key moves.

    The structure is mutable ([add]/[remove] are peer join/leave) and
    mutex-guarded; every topology change bumps [version] so routers and
    caches can notice staleness.  Hashing is FNV-1a (64-bit, folded to
    62 bits) — deterministic across processes and OCaml versions, unlike
    [Hashtbl.hash], so a shard map rebuilt from the same member list
    places every key identically. *)

type t = {
  mutable ring : (int * string) array;  (** (point, member), sorted *)
  mutable members : string list;  (** in join order *)
  replicas : int;  (** copies per key, incl. the primary *)
  vnodes : int;  (** ring points per member *)
  mutable version : int;  (** bumped on every join/leave *)
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* FNV-1a, 64-bit offset basis / prime, folded into OCaml's positive int
   range.  Stable across runs — never replace with Hashtbl.hash.

   FNV's multiply only carries entropy upward, so on short keys the high
   bits barely avalanche ("k1" and "k2" share their top ~40 bits) — ring
   points sorted by those bits would collapse into a few giant arcs and
   one member would own most of the keyspace.  A splitmix64-style
   finalizer fixes the spread while staying just as deterministic. *)
let fnv1a (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  let x = ref !h in
  x := Int64.mul (Int64.logxor !x (Int64.shift_right_logical !x 30))
         0xbf58476d1ce4e5b9L;
  x := Int64.mul (Int64.logxor !x (Int64.shift_right_logical !x 27))
         0x94d049bb133111ebL;
  x := Int64.logxor !x (Int64.shift_right_logical !x 31);
  Int64.to_int (Int64.shift_right_logical !x 2)

let point_of member i = fnv1a (Printf.sprintf "%s#%d" member i)

let build_ring ~vnodes members =
  let points =
    List.concat_map
      (fun m -> List.init vnodes (fun i -> (point_of m i, m)))
      members
  in
  let ring = Array.of_list points in
  Array.sort compare ring;
  ring

let default_replicas = 2
let default_vnodes = 64

let create ?(replicas = default_replicas) ?(vnodes = default_vnodes) members =
  if replicas < 1 then invalid_arg "Shard.create: replicas < 1";
  if vnodes < 1 then invalid_arg "Shard.create: vnodes < 1";
  if members = [] then invalid_arg "Shard.create: no members";
  {
    ring = build_ring ~vnodes members;
    members;
    replicas;
    vnodes;
    version = 1;
    lock = Mutex.create ();
  }

let members t = locked t (fun () -> t.members)
let replicas t = t.replicas
let vnodes t = t.vnodes
let version t = locked t (fun () -> t.version)

let add t member =
  locked t (fun () ->
      if not (List.mem member t.members) then begin
        t.members <- t.members @ [ member ];
        t.ring <- build_ring ~vnodes:t.vnodes t.members;
        t.version <- t.version + 1
      end)

let remove t member =
  locked t (fun () ->
      if List.mem member t.members then begin
        t.members <- List.filter (fun m -> m <> member) t.members;
        if t.members = [] then invalid_arg "Shard.remove: last member";
        t.ring <- build_ring ~vnodes:t.vnodes t.members;
        t.version <- t.version + 1
      end)

(* index of the first ring point with point >= h (wrapping) *)
let successor ring h =
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

(** The first [n] distinct members clockwise from [key]'s hash — the
    replica set, primary first.  [n] is clamped to the member count. *)
let replica_set_n t n key =
  locked t (fun () ->
      let ring = t.ring in
      let len = Array.length ring in
      let n = min n (List.length t.members) in
      let start = successor ring (fnv1a key) in
      let out = ref [] and found = ref 0 and i = ref 0 in
      while !found < n && !i < len do
        let _, m = ring.((start + !i) mod len) in
        if not (List.mem m !out) then begin
          out := m :: !out;
          incr found
        end;
        incr i
      done;
      List.rev !out)

let replica_set t key = replica_set_n t t.replicas key

let primary t key =
  match replica_set_n t 1 key with
  | m :: _ -> m
  | [] -> invalid_arg "Shard.primary: empty ring"

(** [holders t key] — every member that stores a copy of [key] (the
    replica set; an alias that reads better at call sites that ask "who
    can answer for this key"). *)
let holders = replica_set

(* ------------------------------------------------------------------ *)
(* Placement analysis (property tests, :shards, rebalance planning)    *)
(* ------------------------------------------------------------------ *)

(** [assignment t keys] — keys grouped by primary member, every member
    present (possibly with [[]]), in member join order. *)
let assignment t keys =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let m = primary t k in
      Hashtbl.replace tbl m (k :: (try Hashtbl.find tbl m with Not_found -> [])))
    keys;
  List.map
    (fun m -> (m, List.rev (try Hashtbl.find tbl m with Not_found -> [])))
    (members t)

(** Max/min primary-load ratio over [keys] ([infinity] when some member
    owns nothing — the balance property tests bound this). *)
let load_ratio t keys =
  let loads = List.map (fun (_, ks) -> List.length ks) (assignment t keys) in
  match loads with
  | [] -> 1.
  | l :: ls ->
      let mx = List.fold_left max l ls and mn = List.fold_left min l ls in
      if mn = 0 then infinity else float_of_int mx /. float_of_int mn

(** [moved_keys ~before ~after keys] — keys whose primary differs between
    two placements (remapping-minimality tests compare this to K/N). *)
let moved_keys ~before ~after keys =
  List.filter (fun k -> before k <> after k) keys

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let describe ?(keys = []) t =
  let buf = Buffer.create 256 in
  locked t (fun () ->
      Printf.bprintf buf
        "shard map v%d: %d member(s), %d-way replication, %d vnodes/member \
         (%d ring points)\n"
        t.version (List.length t.members) t.replicas t.vnodes
        (Array.length t.ring));
  (match keys with
  | [] ->
      List.iter (fun m -> Printf.bprintf buf "  %s\n" m) (members t)
  | keys ->
      List.iter
        (fun (m, ks) ->
          Printf.bprintf buf "  %-28s %4d key(s)\n" m (List.length ks))
        (assignment t keys);
      let r = load_ratio t keys in
      if r <> infinity then
        Printf.bprintf buf "  load ratio (max/min): %.2f\n" r);
  Buffer.contents buf

let to_json ?(keys = []) t =
  let module Json = Xrpc_obs.Json in
  let members =
    match keys with
    | [] -> List.map (fun m -> Json.Obj [ ("member", Json.Str m) ]) (members t)
    | keys ->
        List.map
          (fun (m, ks) ->
            Json.Obj [ ("member", Json.Str m); ("keys", Json.Int (List.length ks)) ])
          (assignment t keys)
  in
  locked t (fun () ->
      Json.Obj
        [ ("version", Json.Int t.version); ("replicas", Json.Int t.replicas);
          ("vnodes", Json.Int t.vnodes); ("members", Json.Arr members) ])
