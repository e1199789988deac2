(* `e2e.exe --selftest`: the benchmark's own arithmetic, checked without
   sockets or serving processes (the runtest rule in ./dune). *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "selftest FAIL: %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let percentiles () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..1000" (Stats.percentile a 0.5 = 500.);
  check "p99 of 1..1000" (Stats.percentile a 0.99 = 990.);
  check "p100 is the max" (Stats.percentile a 1.0 = 1000.);
  check "ten samples beyond p99 of 1000" (Stats.beyond 1000 0.99 = 10);
  check "two beyond p99 of 200" (Stats.beyond 200 0.99 = 2);
  check "none beyond p99 of 5" (Stats.beyond 5 0.99 = 0);
  check "empty percentile is nan" (Float.is_nan (Stats.percentile [||] 0.5));
  check "single sample" (Stats.percentile [| 7. |] 0.99 = 7.);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "python quartiles" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  check "relative iqr" (close (Stats.relative_iqr [ 1.; 2.; 3.; 4.; 5. ]) (3. /. 3.))

let verdicts () =
  let v ?(lower = true) a b = Stats.verdict ~lower_is_better:lower ~bound:0.05 a b in
  let base = [ 10.; 10.1; 9.9 ] in
  check "same within the bound" (v base [ 10.2; 10.3; 10.1 ] = Stats.Same);
  check "worse beyond the bound" (v base [ 11.; 11.1; 10.9 ] = Stats.Worse);
  check "better beyond the bound" (v base [ 9.; 9.1; 8.9 ] = Stats.Better);
  check "higher-is-better flips the sign" (v ~lower:false base [ 11.; 11.1; 10.9 ] = Stats.Better);
  check "wide spread is unresolved" (v base [ 8.; 10.5; 13. ] = Stats.Unresolved);
  check "wide spread but every run better"
    (v [ 10.; 12.; 14. ] [ 5.; 7.; 9. ] = Stats.Better)

let schedules () =
  let a = Stats.poisson_schedule ~seed:7 ~rate:100. ~n:10_000 in
  let b = Stats.poisson_schedule ~seed:7 ~rate:100. ~n:10_000 in
  let c = Stats.poisson_schedule ~seed:8 ~rate:100. ~n:10_000 in
  check "one seed replays one schedule" (a = b);
  check "another seed, another schedule" (a <> c);
  check "schedule is increasing"
    (Array.for_all Fun.id (Array.init 9_999 (fun i -> a.(i + 1) > a.(i))));
  let mean_gap = a.(9_999) /. 10_000. in
  check "mean gap ~ 1/rate" (Float.abs (mean_gap -. 0.01) < 0.001);
  check "count_due" (Stats.count_due [| 1.; 2.; 3. |] 2. = 2);
  check "count_due before start" (Stats.count_due [| 1.; 2. |] 0.5 = 0)

let spans () =
  check "self time with overlapping and clipped children"
    (close (Stats.self_time (0., 10.) [ (1., 3.); (2., 5.); (8., 12.) ]) 4.);
  check "self time without children" (close (Stats.self_time (2., 5.) []) 3.);
  check "child outside the parent" (close (Stats.self_time (0., 1.) [ (2., 3.) ]) 1.);
  (* a 20 ms query with rpc spans [3, 10) and [12, 17) *)
  let rpcs = [ (3., 10.); (12., 17.) ] in
  let self = Stats.self_time (0., 20.) rpcs in
  let l =
    Stats.attribute ~wall:20. ~self ~rpc:12. ~handle:9. ~compile:0.5
      ~client_encode:1.5 ~client_decode:2. ~peer_decode:3. ~peer_encode:1.
  in
  check "remainder = self - encode - decode - compile"
    (close l.Stats.remainder (8. -. 1.5 -. 2. -. 0.5));
  check "server core = rpc - handle" (close l.Stats.server_core 3.);
  check "peer exec = handle - codecs" (close l.Stats.peer_exec 5.);
  check "layers sum to wall" (Stats.sums_to_wall l);
  (* the same rpc recorded twice covers no more of the query, but
     counts twice in rpc: the sum no longer matches the wall *)
  let twice = Stats.self_time (0., 20.) ((3., 10.) :: rpcs) in
  check "a double-counted span is caught"
    (not
       (Stats.sums_to_wall
          (Stats.attribute ~wall:20. ~self:twice ~rpc:19. ~handle:9. ~compile:0.5
             ~client_encode:1.5 ~client_decode:2. ~peer_decode:3. ~peer_encode:1.)))

let json () =
  let v =
    Json.Obj
      [
        ("header", Json.Obj [ ("commit", Json.Str "abc\"\\\n"); ("nproc", Json.Num 2.) ]);
        ( "workloads",
          Json.Obj
            [
              ( "bulk_rpc",
                Json.Obj
                  [
                    ( "end_to_end",
                      Json.Obj
                        [
                          ( "closed_p50_ms",
                            Json.Obj
                              [ ("value", Json.Num 11.734512345678901); ("unit", Json.Str "ms") ]
                          );
                        ] );
                    ("ladder", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-0.25) ]);
                  ] );
            ] );
      ]
  in
  check "results.json round-trips" (Json.of_string (Json.to_string ~indent:true v) = v);
  check "compact form round-trips" (Json.of_string (Json.to_string v) = v);
  check "every digit kept"
    (Json.to_string (Json.Num 0.1) = "0.1" && Json.to_string (Json.Num 1e-7) = "1e-07");
  check "non-finite becomes null" (Json.to_string (Json.Num nan) = "null");
  check "trailing garbage rejected"
    (match Json.of_string "{} x" with _ -> false | exception Json.Parse_error _ -> true)

let run () =
  percentiles ();
  verdicts ();
  schedules ();
  spans ();
  json ();
  if !failures = 0 then print_endline "selftest: ok";
  !failures = 0
