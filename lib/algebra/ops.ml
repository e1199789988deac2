(** The relational algebra generated by Pathfinder — Table 1 of the paper.

    {v
    σ_a          select all rows with column a = true
    π_{a:b,...}  project and possibly rename (no duplicate removal)
    δ            duplicate elimination
    ⊎            disjoint union
    ⋈_{a=b}      equi-join
    ρ_{b:<a..>/p} row numbering (DENSE_RANK), partitioned by p
    [literal]    literal table
    v}

    Each operator is its textbook row-at-a-time definition (nested-loop ⋈,
    δ by scanning the retained rows, ρ by a search in the sorted distinct
    keys of the row's partition).  Nothing in the runtime evaluates this
    algebra: it reproduces Figures 1-2 and is the oracle {!Looplift} is
    checked against, so it is written for obviousness, not speed. *)

open Xrpc_xml

(** σ_a — keep rows whose boolean column [a] is true. *)
let select t a =
  let i = Table.col_index t a in
  Table.make (Table.col_names t)
    (List.filter
       (fun r ->
         match List.nth r i with
         | Table.Item (Xdm.Atomic (Xs.Boolean b)) -> b
         | Table.Int n -> n <> 0
         | c -> Xdm.ebv [ Table.item_cell c ])
       (Table.rows t))

(** [select_eq t a v] — the common σ(item=value) shorthand used in
    Figure 2's [σ_{item=p}(dst)]. *)
let select_eq t a v =
  let i = Table.col_index t a in
  Table.make (Table.col_names t)
    (List.filter (fun r -> Table.cell_equal (List.nth r i) v) (Table.rows t))

(** π_{a1:b1,...} — project columns [b_i], renaming to [a_i].  No duplicate
    removal, per Table 1. *)
let project t (spec : (string * string) list) =
  let idxs = List.map (fun (_, b) -> Table.col_index t b) spec in
  Table.make
    (List.map fst spec)
    (List.map (fun r -> List.map (fun i -> List.nth r i) idxs) (Table.rows t))

(** δ — duplicate elimination; first occurrence kept, order preserved. *)
let distinct t =
  let rec dedup seen = function
    | [] -> List.rev seen
    | r :: rest ->
        if List.exists (fun s -> List.for_all2 Table.cell_equal s r) seen then
          dedup seen rest
        else dedup (r :: seen) rest
  in
  Table.make (Table.col_names t) (dedup [] (Table.rows t))

(** ⊎ — disjoint union (same schema; caller guarantees disjointness). *)
let union a b =
  if Table.col_names a <> Table.col_names b then
    Table.err "union of incompatible schemas";
  Table.make (Table.col_names a) (Table.rows a @ Table.rows b)

(** ⋈_{a=b} — nested-loop equi-join; result columns are [a]'s then [b]'s
    (columns of [b] that clash with [a] get a ["'"] suffix, as in the
    paper's [iterp = iterp] joins).  Rows come in [a]'s order, then [b]'s
    within each row of [a]. *)
let equi_join a ca b cb =
  let ia = Table.col_index a ca and ib = Table.col_index b cb in
  let cols_a = Table.col_names a in
  let cols_b =
    List.map (fun c -> if List.mem c cols_a then c ^ "'" else c)
      (Table.col_names b)
  in
  let rows_b = Table.rows b in
  Table.make (cols_a @ cols_b)
    (List.concat_map
       (fun ra ->
         List.filter_map
           (fun rb ->
             if Table.cell_equal (List.nth ra ia) (List.nth rb ib) then
               Some (ra @ rb)
             else None)
           rows_b)
       (Table.rows a))

(** ρ_{b:<a1,...,an>/p} — row numbering (DENSE_RANK): order by [a1..an],
    number consecutively from 1 within each partition of [p]; rows keep
    their original order. *)
let rank t ~new_col ~order_by ?partition () =
  let order_idx = List.map (Table.col_index t) order_by in
  let part_idx = Option.map (Table.col_index t) partition in
  let key r = List.map (fun i -> List.nth r i) order_idx in
  let part r =
    match part_idx with Some i -> Some (List.nth r i) | None -> None
  in
  let cmp_keys ka kb =
    let rec go = function
      | [] -> 0
      | (x, y) :: rest -> (
          match Table.cell_compare x y with 0 -> go rest | c -> c)
    in
    go (List.combine ka kb)
  in
  let trows = Table.rows t in
  let parts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let p = part r in
      let existing = try Hashtbl.find parts p with Not_found -> [] in
      Hashtbl.replace parts p (key r :: existing))
    trows;
  let rank_of =
    Hashtbl.fold
      (fun p keys acc ->
        let sorted = List.sort_uniq cmp_keys keys in
        (p, sorted) :: acc)
      parts []
  in
  let rows =
    List.map
      (fun r ->
        let p = part r in
        let sorted = List.assoc p rank_of in
        let k = key r in
        let rec find i = function
          | [] -> Table.err "rank: key not found"
          | k' :: rest -> if cmp_keys k k' = 0 then i else find (i + 1) rest
        in
        r @ [ Table.Int (find 1 sorted) ])
      trows
  in
  Table.make (Table.col_names t @ [ new_col ]) rows

(** Literal table constructor (the [table] operator of Table 1). *)
let literal cols rows = Table.make cols rows

(** Merge-union on [iter] — the order-preserving ⊎ used to reassemble Bulk
    RPC results (Figure 1's final step): a stable sort on (iter, pos). *)
let merge_union_on_iter tables =
  match tables with
  | [] -> Table.empty [ "iter"; "pos"; "item" ]
  | t :: _ ->
      let all = List.concat_map Table.rows tables in
      let ii = Table.col_index t "iter" and pi = Table.col_index t "pos" in
      let rows =
        List.stable_sort
          (fun a b ->
            match
              Int.compare
                (Table.int_cell (List.nth a ii))
                (Table.int_cell (List.nth b ii))
            with
            | 0 ->
                Int.compare
                  (Table.int_cell (List.nth a pi))
                  (Table.int_cell (List.nth b pi))
            | c -> c)
          all
      in
      Table.make (Table.col_names t) rows
