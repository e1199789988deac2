(* The serving process: this executable re-run with [--serve], hosting
   one workload's peer behind a real [Xrpc_server] on loopback.  The
   bench talks to it only over HTTP, reads its CPU time and peak RSS
   from /proc, and stops it by closing its stdin. *)

module Xrpc_server = Xrpc_core.Xrpc_server

(* child side: load, serve, report the port, serve until stdin closes *)
let serve (spec : Workload.spec) ~seed =
  let peer = Workload.serving_peer spec.Workload.kind ~seed in
  let server =
    Xrpc_server.create ~config:(Xrpc_server.config ~port:0 ()) peer
  in
  let port = Xrpc_server.start server in
  Printf.printf "ready %d\n%!" port;
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Xrpc_server.stop server

type t = {
  pid : int;
  port : int;
  to_child : out_channel;
  from_child : in_channel;
  setup_s : float;  (** spawn until the port was reported *)
}

let live : t list ref = ref []

let dest t = Printf.sprintf "xrpc://127.0.0.1:%d" t.port

let reap ?(grace_s = 10.) pid =
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop t =
  if List.memq t !live then begin
    live := List.filter (fun x -> x != t) !live;
    close_out_noerr t.to_child;
    reap t.pid;
    close_in_noerr t.from_child
  end

let stop_all () = List.iter stop !live

let spawn (spec : Workload.spec) ~seed =
  let t0 = Unix.gettimeofday () in
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--serve"; spec.Workload.name; "--seed";
        string_of_int seed;
      |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let to_child = Unix.out_channel_of_descr to_child in
  let from_child_ic = Unix.in_channel_of_descr from_child in
  let fail msg =
    close_out_noerr to_child;
    reap ~grace_s:1. pid;
    close_in_noerr from_child_ic;
    failwith ("serving process: " ^ msg)
  in
  match Unix.select [ from_child ] [] [] 120. with
  | [], _, _ -> fail "not ready after 120 s"
  | _ -> (
      match input_line from_child_ic with
      | exception End_of_file -> fail "exited before reporting its port"
      | line -> (
          match Scanf.sscanf_opt line "ready %d" Fun.id with
          | None -> fail ("unexpected line " ^ line)
          | Some port ->
              let t =
                {
                  pid;
                  port;
                  to_child;
                  from_child = from_child_ic;
                  setup_s = Unix.gettimeofday () -. t0;
                }
              in
              live := t :: !live;
              t))

(* ------------------------------------------------------------------ *)
(* /proc readings                                                      *)
(* ------------------------------------------------------------------ *)

let read_proc path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  with Sys_error _ -> ""

(* user + system CPU seconds (USER_HZ = 100 on Linux) *)
let cpu_s t =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" t.pid) in
  match String.rindex_opt stat ')' with
  | None -> nan
  | Some i -> (
      let fields =
        String.split_on_char ' '
          (String.trim (String.sub stat (i + 1) (String.length stat - i - 1)))
      in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s ->
          float_of_int (int_of_string u + int_of_string s) /. 100.
      | _ -> nan)

(* peak resident set (VmHWM) in MB *)
let peak_rss_mb t =
  let status = read_proc (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.
      | None -> acc)
    nan
    (String.split_on_char '\n' status)

(* The serving peer's own /metrics.json, fetched the way any monitoring
   client would; read once before and once after the traced run. *)
let server_metrics t =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  let req =
    "GET /metrics.json HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
  in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Buffer.create 16384 and chunk = Bytes.create 16384 in
  let rec read () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read ()
  in
  read ();
  let s = Buffer.contents buf in
  let body = Workload.find_sub s ~from:0 "\r\n\r\n" + 4 in
  Json.of_string (String.sub s body (String.length s - body))

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
