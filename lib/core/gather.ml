(** Scatter-gather result assembly.

    A sharded query fans out over the members of a {!Xrpc_peer.Shard} ring
    and gets back one partial sequence per leg.  Each partial row is a
    [<part owner=".." seq="N">] element: [seq] is the record's global
    sequence number assigned at placement time, [owner] the primary that
    was asked for it.  Replication and failover mean the same part can
    come back from several legs (broadcast fallback, over-query during a
    rebalance), so the gather merge must be idempotent: dedup by [seq],
    order by [seq].  The copies from the earliest leg that delivered a
    part win, so the result is deterministic for any leg multiset: adding
    a redundant replica's answer cannot change it. *)

open Xrpc_xml

(** The [@seq] tag of a part element: a non-negative decimal integer.  Any
    other value (a sign, a hex or octal prefix, overflow) leaves the item
    untagged. *)
let seq_of (item : Xdm.item) : int option =
  match item with
  | Xdm.Atomic _ -> None
  | Xdm.Node n ->
      List.find_map
        (fun a ->
          match Store.name a with
          | Some q when q.Qname.local = "seq" ->
              let v = String.trim (Store.string_value a) in
              if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v
              then int_of_string_opt v
              else None
          | _ -> None)
        (Store.attributes n)

type key = Tagged of int | Untagged of string

(** Merge partial leg results into one deduped, seq-ordered sequence.

    Untagged items dedup by content and follow the tagged ones in order of
    first appearance, so a merge of plain values still drops exact
    re-deliveries and keeps a deterministic order.  Tagged and untagged
    items never collide. *)
let merge (partials : Xdm.sequence list) : Xdm.sequence =
  let key_of item =
    match seq_of item with
    | Some s -> Tagged s
    | None -> (
        match item with
        | Xdm.Atomic a -> Untagged ("a\x00" ^ Xs.to_string a)
        | Xdm.Node _ -> Untagged ("n\x00" ^ Xdm.to_display [ item ]))
  in
  (* each key's first leg, and its rank in order of first appearance *)
  let first : (key, int * int) Hashtbl.t = Hashtbl.create 64 in
  let kept = ref [] and row = ref 0 in
  List.iteri
    (fun leg items ->
      List.iter
        (fun item ->
          let key = key_of item in
          let first_leg, rank =
            match Hashtbl.find_opt first key with
            | Some f -> f
            | None ->
                let f = (leg, Hashtbl.length first) in
                Hashtbl.add first key f;
                f
          in
          (if first_leg = leg then
             let order =
               match key with
               | Tagged s -> (0, s, !row)
               | Untagged _ -> (1, rank, !row)
             in
             kept := (order, item) :: !kept);
          incr row)
        items)
    partials;
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !kept)
