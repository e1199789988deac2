(* Statistics shared by the benchmark and the compare tool: percentiles
   with their sample counts, quartile spreads, the seeded Poisson
   schedule, span self time, and the layer attribution of one query. *)

let sorted_array samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* nearest-rank: the smallest sample with at least [p] of all samples at
   or below it.  The 1e-9 keeps 0.99 *. 1000. from rounding up a rank. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p - 1)

(* samples strictly above the [p] percentile *)
let beyond n p = if n = 0 then 0 else n - rank n p

let median l = percentile (sorted_array l) 0.5

(* Python's statistics.quantiles(values, n=4) (method "exclusive", with
   the clamping of Python >= 3.11) *)
let quartiles values =
  let d = sorted_array values in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* interquartile range as a share of the median *)
let relative_iqr values =
  let q1, q2, q3 = quartiles values in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Baseline runs [a] against candidate runs [b] for one metric, whose
   median may worsen by [bound] (a share of the baseline median).  A
   spread wider than the bound on either side leaves the metric
   unresolved, unless every candidate run beats every baseline run. *)
let verdict ~lower_is_better ~bound a b =
  let _, ma, _ = quartiles a and _, mb, _ = quartiles b in
  let beats y x = if lower_is_better then y < x else y > x in
  let worse_by =
    (if lower_is_better then mb -. ma else ma -. mb) /. Float.max (Float.abs ma) 1e-12
  in
  let spread = Float.max (relative_iqr a) (relative_iqr b) in
  if spread > bound then
    if List.for_all (fun y -> List.for_all (beats y) a) b then Better else Unresolved
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Same

(* Arrival offsets (seconds from the start) of a Poisson process at
   [rate] per second: exponential gaps from a generator seeded only by
   [seed], so one seed always replays the same schedule. *)
let poisson_schedule ~seed ~rate ~n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. (-.log (1. -. Random.State.float st 1.0) /. rate);
      !t)

(* number of schedule entries at or before [x] (the schedule is sorted) *)
let count_due schedule x =
  let lo = ref 0 and hi = ref (Array.length schedule) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if schedule.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* A span's self time: its duration minus the part of it that its
   children cover (children clipped to the parent, overlaps counted
   once). *)
let self_time (s, e) children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a s and b = Float.min b e in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. b -. a, b) else (acc, reach))
      (0., s) clipped
  in
  e -. s -. covered

(* Where one traced query's wall time went.  [wall], [self] (the query
   span minus what its rpc spans cover) and [rpc] are measured spans;
   [handle] and the four codec times are replays; the remainder is what
   no layer claims: client eval plus Bulk RPC assembly, which no public
   function boundary separates. *)
type layers = {
  wall : float;
  compile : float;  (** cold compile time x plan-cache miss share *)
  client_encode : float;
  client_decode : float;
  remainder : float;
  server_core : float;  (** rpc - twin handle: sockets, loop, executor, lock *)
  peer_decode : float;
  peer_encode : float;
  peer_exec : float;  (** twin handle - peer decode - peer encode *)
}

let attribute ~wall ~self ~rpc ~handle ~compile ~client_encode ~client_decode
    ~peer_decode ~peer_encode =
  {
    wall;
    compile;
    client_encode;
    client_decode;
    remainder = self -. client_encode -. client_decode -. compile;
    server_core = rpc -. handle;
    peer_decode;
    peer_encode;
    peer_exec = handle -. peer_decode -. peer_encode;
  }

let layer_sum l =
  l.compile +. l.client_encode +. l.client_decode +. l.remainder
  +. l.server_core +. l.peer_decode +. l.peer_encode +. l.peer_exec

(* The layers must add up to the wall they were carved from: they do
   exactly when the rpc spans lie inside the query span and never
   overlap, so this catches a recorder that misplaces or double-counts
   spans. *)
let sums_to_wall ?(tolerance = 0.01) l =
  Float.abs (layer_sum l -. l.wall) <= tolerance *. Float.abs l.wall
