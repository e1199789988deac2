(* Dispatch-engine benchmark: wall-clock speedup of parallel multi-peer
   fan-out over sequential, on real HTTP.

   N loopback HTTP servers each charge a fixed service time per request
   (a stand-in for remote query execution + WAN latency, which
   independent servers overlap across peers).  One fan-out
   round sends one request to every peer and waits for all responses:
   sequentially that costs ~N x service_ms, through a pool executor it
   should cost ~service_ms + overhead.  The §3.2 claim this preserves:
   parallel dispatch charges the maximum completion time across peers,
   not the sum.

   Writes BENCH_dispatch.json with `--json`; `--quick` trims rounds. *)

module Http = Xrpc_net.Http
module Executor = Xrpc_net.Executor
module Transport = Xrpc_net.Transport

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_out = Array.exists (( = ) "--json") Sys.argv

let service_ms = 25.
let rounds = if quick then 3 else 7
let peer_counts = [ 2; 4; 8 ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let with_servers n f =
  let servers =
    List.init n (fun _ ->
        Http.serve (fun ~path:_ body ->
            Thread.delay (service_ms /. 1000.);
            body))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Http.shutdown servers)
    (fun () ->
      f
        (List.map
           (fun s -> Printf.sprintf "xrpc://127.0.0.1:%d" (Http.port s))
           servers))

(* median wall-clock ms for one fan-out round over [dests] *)
let measure ~executor dests =
  let transport = Http.transport ~executor ~keep_alive:true () in
  let bodies i = List.map (fun d -> (d, "ping" ^ string_of_int i)) dests in
  (* warm-up: open (and pool) every connection, fill caches *)
  ignore (transport.Transport.send_parallel (bodies 0));
  median
    (List.init rounds (fun i ->
         let t0 = Unix.gettimeofday () in
         let rs = transport.Transport.send_parallel (bodies (i + 1)) in
         let dt = (Unix.gettimeofday () -. t0) *. 1000. in
         List.iter2
           (fun (_, sent) got -> if sent <> got then failwith "bad echo")
           (bodies (i + 1)) rs;
         dt))

type row = { peers : int; seq_ms : float; par_ms : float; speedup : float }

let () =
  Printf.printf "dispatch fan-out: %g ms service time per request, %d rounds\n"
    service_ms rounds;
  Printf.printf "%6s  %10s  %10s  %8s\n" "peers" "seq ms" "pool ms" "speedup";
  let rows =
    List.map
      (fun n ->
        with_servers n (fun dests ->
            let seq_ms = measure ~executor:Executor.sequential dests in
            let pool = Executor.pool n in
            let par_ms = measure ~executor:pool dests in
            Executor.shutdown pool;
            let speedup = seq_ms /. par_ms in
            Printf.printf "%6d  %10.2f  %10.2f  %7.2fx\n%!" n seq_ms par_ms
              speedup;
            { peers = n; seq_ms; par_ms; speedup }))
      peer_counts
  in
  (* the PR's acceptance bar: >= 2x at 4 peers *)
  (match List.find_opt (fun r -> r.peers = 4) rows with
  | Some r when r.speedup < 2. ->
      Printf.eprintf "FAIL: 4-peer speedup %.2fx below the 2x bar\n" r.speedup;
      exit 1
  | _ -> ());
  if json_out then
    write_file "BENCH_dispatch.json"
      (Printf.sprintf
         "{\n  \"service_ms\": %g,\n  \"rounds\": %d,\n  \"fan_out\": {\n%s\n  }\n}\n"
         service_ms rounds
         (String.concat ",\n"
            (List.map
               (fun r ->
                 Printf.sprintf
                   "    \"%d\": { \"sequential_ms\": %.2f, \"pool_ms\": %.2f, \"speedup\": %.2f }"
                   r.peers r.seq_ms r.par_ms r.speedup)
               rows)))
