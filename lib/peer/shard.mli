(** Consistent-hash shard map: document/record keys onto peers.

    A mutable, mutex-guarded hash ring with virtual nodes and N-way
    replication.  [add]/[remove] are peer join/leave; every topology
    change bumps [version].  Hashing is FNV-1a — deterministic across
    processes, so a map rebuilt from the same member list places every
    key identically. *)

type t

val create : ?replicas:int -> ?vnodes:int -> string list -> t
(** [create members] — [replicas] copies per key including the primary
    (default 2), [vnodes] ring points per member (default 64, the load-
    skew bound).  Raises [Invalid_argument] on an empty member list. *)

val default_replicas : int
val default_vnodes : int

val members : t -> string list
(** Members in join order. *)

val replicas : t -> int
val vnodes : t -> int

val version : t -> int
(** Bumped on every [add]/[remove]; routers compare it to notice a
    topology change. *)

val add : t -> string -> unit
(** Peer join: hash the member onto the ring (no-op if present).  Only
    keys on arcs the new vnodes land on change primary — ~K/N of them. *)

val remove : t -> string -> unit
(** Peer leave: drop the member's vnodes; its arcs fall to their
    clockwise successors.  Raises on removing the last member. *)

val primary : t -> string -> string
(** The key's owner: first member clockwise from the key's hash. *)

val replica_set : t -> string -> string list
(** The first [replicas] distinct members clockwise from the key's hash,
    primary first. *)

val replica_set_n : t -> int -> string -> string list
(** [replica_set] with an explicit count (clamped to the member count). *)

val holders : t -> string -> string list
(** Alias of {!replica_set}: every member storing a copy of the key. *)

val assignment : t -> string list -> (string * string list) list
(** Keys grouped by primary member, every member present, join order. *)

val load_ratio : t -> string list -> float
(** Max/min primary-load ratio over the given keys ([infinity] when a
    member owns none). *)

val moved_keys :
  before:(string -> string) -> after:(string -> string) -> string list ->
  string list
(** Keys whose primary differs between two placements (the remapping-
    minimality property compares this count to K/N). *)

val fnv1a : string -> int
(** The ring's hash (FNV-1a 64-bit folded positive) — exposed for tests. *)

val describe : ?keys:string list -> t -> string
(** Human rendering ([:shards]); with [keys], per-member load and the
    max/min ratio. *)

val to_json : ?keys:string list -> t -> Xrpc_obs.Json.t
(** The same ring as a JSON value ([/shardz.json]). *)
