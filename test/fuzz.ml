(* Mutation fuzzing of wire decoders, shared by the suites that fuzz one.
   A case starts from one of a decoder's valid wire forms (its seeds) and
   applies one to five seeded mutations: truncate, flip a bit, splice in
   a slice of a seed, duplicate a line or drop one.  A failing case
   prints FUZZ_SEED=<n>; with FUZZ_SEED set, a property runs just that
   case. *)

let mutate ~seeds rng w =
  let n = String.length w in
  let pos () = Random.State.int rng (n + 1) in
  let lines () = String.split_on_char '\n' w in
  let pick l = Random.State.int rng (max 1 (List.length l)) in
  match Random.State.int rng 5 with
  | 0 -> String.sub w 0 (pos ())
  | 1 when n > 0 ->
      let b = Bytes.of_string w in
      let i = Random.State.int rng n in
      Bytes.set b i
        (Char.chr (Char.code w.[i] lxor (1 lsl Random.State.int rng 8)));
      Bytes.to_string b
  | 2 ->
      let src = seeds.(Random.State.int rng (Array.length seeds)) in
      let a = Random.State.int rng (String.length src + 1) in
      let len = Random.State.int rng (String.length src - a + 1) in
      let at = pos () in
      String.sub w 0 at ^ String.sub src a len ^ String.sub w at (n - at)
  | 3 ->
      let ls = lines () in
      let k = pick ls in
      String.concat "\n"
        (List.concat
           (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) ls))
  | _ ->
      let ls = lines () in
      let k = pick ls in
      String.concat "\n" (List.filteri (fun i _ -> i <> k) ls)

let replay_seed = Option.bind (Sys.getenv_opt "FUZZ_SEED") int_of_string_opt

(* 10k cases under runtest; QCheck's QCHECK_LONG (the @fuzz alias) runs
   100k.  A case passes when [decode] returns or raises an exception
   [expected] accepts; any other exception is a decoder bug. *)
let prop ~name ~seeds ~expected decode =
  let case seed =
    let rng = Random.State.make [| seed |] in
    let w = ref seeds.(Random.State.int rng (Array.length seeds)) in
    for _ = 0 to Random.State.int rng 4 do
      w := mutate ~seeds rng !w
    done;
    match decode !w with
    | () -> true
    | exception e when expected e -> true
    | exception e ->
        QCheck.Test.fail_reportf "FUZZ_SEED=%d: %s escaped on %S" seed
          (Printexc.to_string e) !w
  in
  QCheck.Test.make ~name
    ~count:(if replay_seed = None then 10_000 else 1)
    ~long_factor:10
    (QCheck.make
       ~print:(Printf.sprintf "FUZZ_SEED=%d")
       (match replay_seed with
       | Some s -> QCheck.Gen.return s
       | None -> QCheck.Gen.int_bound 0x3FFF_FFFF))
    case
