(* compare.exe [--bench BENCHMARK.json] A.json... -- B.json...

   Compares two sets of results.json files (A = baseline, B = candidate)
   metric by metric: for every workload present in both sets and every
   end-to-end metric BENCHMARK.json names, the median across each set is
   judged against that metric's bound.  Prints better / same / worse /
   unresolved per (workload, metric) and exits 1 on any worse. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench, args =
    match args with
    | "--bench" :: path :: rest -> (path, rest)
    | rest -> ("BENCHMARK.json", rest)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: compare.exe [--bench BENCHMARK.json] A.json... -- B.json...";
    exit 2
  end;
  let metrics =
    Json.to_list (Json.member "end_to_end" (Json.read_file bench))
    |> List.map (fun m ->
           ( Json.to_str (Json.member "name" m),
             Json.to_str (Json.member "better" m) = "lower",
             Json.to_num (Json.member "bound" m) ))
  in
  let load files = List.map (fun f -> Json.member "workloads" (Json.read_file f)) files in
  let a = load a_files and b = load b_files in
  let values runs workload metric =
    List.filter_map
      (fun run ->
        match
          Json.member "value" (Json.member metric (Json.member "end_to_end" (Json.member workload run)))
        with
        | Json.Num v -> Some v
        | _ -> None)
      runs
  in
  let workloads =
    List.concat_map (fun run -> List.map fst (Json.to_assoc run)) (a @ b)
    |> List.sort_uniq compare
  in
  let worse = ref 0 in
  Printf.printf "%-12s %-16s %12s %12s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, lower_is_better, bound) ->
          match (values a w name, values b w name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let v = Stats.verdict ~lower_is_better ~bound va vb in
              if v = Stats.Worse then incr worse;
              let _, ma, _ = Stats.quartiles va and _, mb, _ = Stats.quartiles vb in
              Printf.printf "%-12s %-16s %12.4f %12.4f %+7.1f%% %6.1f%%  %s\n" w name ma mb
                (100. *. (mb -. ma) /. ma)
                (100. *. bound) (Stats.verdict_name v))
        metrics)
    workloads;
  if !worse > 0 then exit 1
