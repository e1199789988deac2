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

    Kernels run set-at-a-time over the columnar {!Table.t}: δ is hash-based
    dedup, ⋈ is a build/probe hash join, ρ is sort-then-scan, and the
    order-preserving merge ⊎ is decorate–sort–undecorate.  Hash lookups use
    the conservative {!Table.cell_key} and re-check candidates with
    {!Table.cell_equal}, so results match the row-at-a-time definitions in
    {!Ops_reference} (the test oracle) exactly — see "Algebra kernel
    complexity" in DESIGN.md for the per-operator bounds. *)

open Xrpc_xml
module Metrics = Xrpc_obs.Metrics
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

(* Per-operator telemetry: call counters are always on (one field
   increment); latency histograms sample the injectable trace clock and
   are gated on Trace recording so the disabled-path cost stays at ~0%. *)
let m_select_n = Metrics.counter "ops.select"
let m_project_n = Metrics.counter "ops.project"
let m_distinct_n = Metrics.counter "ops.distinct"
let m_union_n = Metrics.counter "ops.union"
let m_join_n = Metrics.counter "ops.equi_join"
let m_rank_n = Metrics.counter "ops.rank"
let m_merge_n = Metrics.counter "ops.merge_union"
let m_select_ms = Metrics.histogram "ops.select_ms"
let m_distinct_ms = Metrics.histogram "ops.distinct_ms"
let m_join_ms = Metrics.histogram "ops.equi_join_ms"
let m_rank_ms = Metrics.histogram "ops.rank_ms"
let m_merge_ms = Metrics.histogram "ops.merge_union_ms"

(* [timed counter histogram op rows_in f] — the counter always ticks;
   while anything records, the histogram samples the clock and the
   operator's calls/rows-in/rows-out/wall-time are summed into the
   innermost open span (the plan node a profile folds them into).
   [rows_in] is a thunk so the off path never touches a cardinality. *)
let timed c h op rows_in f =
  Metrics.incr c;
  if not (Trace.recording ()) then f ()
  else begin
    let t0 = Trace.now_ms () in
    let r = f () in
    let dt = Trace.now_ms () -. t0 in
    Metrics.observe h dt;
    Trace.add (Profile.op_attr "calls" op) 1.;
    Trace.add (Profile.op_attr "rows_in" op) (float_of_int (rows_in ()));
    Trace.add (Profile.op_attr "rows_out" op)
      (float_of_int (Table.cardinality r));
    Trace.add (Profile.op_attr "ms" op) dt;
    r
  end

(* growable index buffer for join/dedup results *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
end

(** σ_a — keep rows whose boolean column [a] is true. *)
let select t a =
  timed m_select_n m_select_ms "select" (fun () -> Table.cardinality t)
  @@ fun () ->
  let col = Table.col t a in
  Table.filter_rows t (fun r ->
      match col.(r) with
      | Table.Item (Xdm.Atomic (Xs.Boolean b)) -> b
      | Table.Int n -> n <> 0
      | c -> Xdm.ebv [ Table.item_cell c ])

(** [select_eq t a v] — the common σ(item=value) shorthand used in
    Figure 2's [σ_{item=p}(dst)]. *)
let select_eq t a v =
  timed m_select_n m_select_ms "select_eq" (fun () -> Table.cardinality t)
  @@ fun () ->
  let col = Table.col t a in
  Table.filter_rows t (fun r -> Table.cell_equal col.(r) v)

(** π_{a1:b1,...} — project columns [b_i], renaming to [a_i].  No duplicate
    removal, per Table 1.  O(#columns): the column arrays are shared. *)
let project t (spec : (string * string) list) =
  Metrics.incr m_project_n;
  Table.of_cols (List.map fst spec)
    (Array.of_list (List.map (fun (_, b) -> Table.col t b) spec))

(** δ — duplicate elimination (hash-based; first occurrence kept, order
    preserved). *)
let distinct t =
  timed m_distinct_n m_distinct_ms "distinct" (fun () -> Table.cardinality t)
  @@ fun () ->
  let n = Table.cardinality t in
  let data = Table.columns t in
  let ncols = Array.length data in
  let row_eq r s =
    let rec go i =
      i >= ncols || (Table.cell_equal data.(i).(r) data.(i).(s) && go (i + 1))
    in
    go 0
  in
  (* row key → retained representatives with that key; key collisions are
     resolved by re-checking with cell_equal *)
  let seen = Hashtbl.create ((2 * n) + 1) in
  let keep = Ibuf.create () in
  for r = 0 to n - 1 do
    let k = Table.row_key t r in
    let reps = try Hashtbl.find seen k with Not_found -> [] in
    if not (List.exists (row_eq r) reps) then begin
      Hashtbl.replace seen k (r :: reps);
      Ibuf.push keep r
    end
  done;
  Table.select_rows t (Ibuf.to_array keep)

(** ⊎ — disjoint union (same schema; caller guarantees disjointness). *)
let union a b =
  Metrics.incr m_union_n;
  if Table.col_names a <> Table.col_names b then
    Table.err "union of incompatible schemas";
  Table.vconcat [ a; b ]

(** ⋈_{a=b} — build/probe hash join; result columns are [a]'s then [b]'s
    (columns of [b] that clash with [a] get a ["'"] suffix, as in the
    paper's [iterp = iterp] joins).  Row order matches the reference nested
    loop: [a]'s row order, then [b]'s within each probe. *)
let equi_join a ca b cb =
  timed m_join_n m_join_ms "equi_join"
    (fun () -> Table.cardinality a + Table.cardinality b)
  @@ fun () ->
  let acol = Table.col a ca and bcol = Table.col b cb in
  let na = Table.cardinality a and nb = Table.cardinality b in
  (* build side: key → row indices of b, ascending *)
  let buckets = Hashtbl.create ((2 * nb) + 1) in
  for r = nb - 1 downto 0 do
    let k = Table.cell_key bcol.(r) in
    let prev = try Hashtbl.find buckets k with Not_found -> [] in
    Hashtbl.replace buckets k (r :: prev)
  done;
  let pa = Ibuf.create () and pb = Ibuf.create () in
  for ra = 0 to na - 1 do
    match Hashtbl.find_opt buckets (Table.cell_key acol.(ra)) with
    | None -> ()
    | Some rbs ->
        List.iter
          (fun rb ->
            if Table.cell_equal acol.(ra) bcol.(rb) then begin
              Ibuf.push pa ra;
              Ibuf.push pb rb
            end)
          rbs
  done;
  let pa = Ibuf.to_array pa and pb = Ibuf.to_array pb in
  let n = Array.length pa in
  let cols_a = Table.col_names a in
  let cols_b =
    List.map (fun c -> if List.mem c cols_a then c ^ "'" else c)
      (Table.col_names b)
  in
  let take cols idx =
    Array.map (fun colarr -> Array.init n (fun j -> colarr.(idx.(j)))) cols
  in
  Table.of_cols (cols_a @ cols_b)
    (Array.append (take (Table.columns a) pa) (take (Table.columns b) pb))

(** ρ_{b:<a1,...,an>/p} — row numbering (DENSE_RANK): order by [a1..an],
    number consecutively from 1 within each partition of [p].  Sort-then-
    scan per partition, O(n log n); rows keep their original order and the
    input columns are shared. *)
let rank t ~new_col ~order_by ?partition () =
  timed m_rank_n m_rank_ms "rank" (fun () -> Table.cardinality t)
  @@ fun () ->
  let n = Table.cardinality t in
  let ocols = Array.of_list (List.map (Table.col t) order_by) in
  let cmp_order r s =
    let rec go i =
      if i >= Array.length ocols then 0
      else
        match Table.cell_compare ocols.(i).(r) ocols.(i).(s) with
        | 0 -> go (i + 1)
        | c -> c
    in
    go 0
  in
  let ranks = Array.make n 0 in
  let rank_group idxs =
    Array.sort cmp_order idxs;
    let rk = ref 0 in
    Array.iteri
      (fun j r ->
        if j = 0 || cmp_order idxs.(j - 1) r <> 0 then incr rk;
        ranks.(r) <- !rk)
      idxs
  in
  (match partition with
  | None -> rank_group (Array.init n (fun i -> i))
  | Some p ->
      (* group partitions by structural equality of the partition cell,
         like the reference's polymorphic Hashtbl *)
      let pcol = Table.col t p in
      let groups = Hashtbl.create 64 in
      for r = n - 1 downto 0 do
        let prev = try Hashtbl.find groups pcol.(r) with Not_found -> [] in
        Hashtbl.replace groups pcol.(r) (r :: prev)
      done;
      Hashtbl.iter (fun _ rs -> rank_group (Array.of_list rs)) groups);
  Table.of_cols
    (Table.col_names t @ [ new_col ])
    (Array.append (Table.columns t)
       [| Array.map (fun r -> Table.Int r) ranks |])

(** Literal table constructor (the [table] operator of Table 1). *)
let literal cols rows = Table.make cols rows

(** Merge-union on [iter] — the order-preserving ⊎ used to reassemble Bulk
    RPC results (Figure 1's final step).  Decorate–sort–undecorate: the
    (iter, pos) keys are extracted once, so the comparator never touches a
    row list. *)
let merge_union_on_iter tables =
  timed m_merge_n m_merge_ms "merge_union"
    (fun () ->
      List.fold_left (fun acc t -> acc + Table.cardinality t) 0 tables)
  @@ fun () ->
  match tables with
  | [] -> Table.empty [ "iter"; "pos"; "item" ]
  | _ :: _ ->
      let big = Table.vconcat tables in
      let icol = Table.col big "iter" and pcol = Table.col big "pos" in
      let n = Table.cardinality big in
      let key =
        Array.init n (fun r -> (Table.int_cell icol.(r), Table.int_cell pcol.(r)))
      in
      let idx = Array.init n (fun i -> i) in
      (* the row-index tiebreak makes the unstable sort stable *)
      Array.sort
        (fun x y ->
          let ix, px = key.(x) and iy, py = key.(y) in
          match Int.compare ix iy with
          | 0 -> ( match Int.compare px py with 0 -> Int.compare x y | c -> c)
          | c -> c)
        idx;
      Table.select_rows big idx
