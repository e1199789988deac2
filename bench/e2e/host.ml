(* Host speed probe.  On a shared host the CPU speed this machine gets
   drifts by tens of percent over minutes (neighbours on the same cores
   and caches), and every wall-clock metric drifts with it.  The probe is
   a fixed kernel of the bench's own, with no allocation and no code of
   the program under test; its time next to a run's metrics tells a slow
   host from a slow change. *)

let scratch = Bytes.make (128 * 1024) '\001'

(* ~4 ms of integer work over a buffer that stays in cache *)
let kernel () =
  let acc = ref 0x9e37 in
  let words = Bytes.length scratch / 2 in
  for pass = 1 to 24 do
    for i = 0 to words - 1 do
      let v = Bytes.get_uint16_le scratch (2 * i) in
      acc := ((!acc * 31) + v + pass) land 0xffffff;
      Bytes.set_uint16_le scratch (2 * i) (!acc land 0xffff)
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* milliseconds one run of the kernel took *)
let probe () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.
