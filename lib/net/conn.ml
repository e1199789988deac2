(** One HTTP/1.1 connection: the message codec both directions share.

    A connection owns a growable input buffer that bytes are read into as
    they arrive, an incremental HTTP/1.1 parser that consumes that buffer
    without ever copying it (the SOAP body is handed to the protocol layer
    as a [(src, pos, len)] window over the very bytes the socket
    delivered), and an iovec-style output queue — a list of (source,
    offset, length) slices pointing at reused buffers — drained with
    gathered writes.  Nothing here touches a socket except {!read_step}
    and {!write_step}; the parser itself is pure buffer manipulation,
    which is what makes it unit-testable byte-by-byte.

    The server ({!Evloop}) and the client ({!Http}) run the same framing:
    header block, strict Content-Length, Connection, body, under the same
    {!max_header_bytes} / {!max_body_bytes} caps.  Only the start line
    depends on the {!role}: a server reads "METHOD TARGET VERSION", a
    client reads "VERSION STATUS REASON".

    Server states: [Reading] (wait for input, feed the parser) →
    [Executing] (a worker thread runs the handler; the event loop leaves
    the connection alone, which is also what freezes the input buffer and
    makes the zero-copy body window safe) → [Writing] (wait for output,
    drain the slice queue) → back to [Reading] on keep-alive, with
    leftover pipelined bytes compacted to the front and every buffer
    reused.  A client connection only ever alternates [Writing] (the
    request) and [Reading] (the response) on a blocking socket. *)

(* hard caps: a request line / header block / body larger than these is
   a protocol error and closes the connection *)
let max_header_bytes = 1 lsl 20
let max_body_bytes = 1 lsl 26

type parse_state =
  | P_line  (** accumulating the start line *)
  | P_headers  (** accumulating header lines *)
  | P_body  (** headers done; waiting for [clen] body bytes *)
  | P_dispatched  (** a full message has been handed out *)

type role =
  | Server  (** parses requests: method + target *)
  | Client  (** parses responses: version + status *)

type state = Reading | Executing | Writing | Closed

(* One pending write: [len - off] bytes of [src] starting at [off].
   Sources are the connection's reused response buffers (or a canned
   string for 503s), so a response is never flattened into one big
   intermediate string. *)
type slice = { src : slice_src; mutable off : int; len : int }
and slice_src = Sstr of string | Sbuf of Buffer.t

type t = {
  fd : Unix.file_descr;
  role : role;
  mutable state : state;
  mutable inbuf : Bytes.t;
  mutable in_len : int;  (** valid bytes in [inbuf] *)
  mutable scan : int;  (** parser cursor (never rescans) *)
  mutable pstate : parse_state;
  (* current message, filled in by the parser *)
  mutable meth : string;  (** server: request method *)
  mutable path : string;  (** server: request target *)
  mutable status : int;  (** client: response status code *)
  mutable conn_close : bool;
      (** the peer closes the connection after this message *)
  mutable clen : int;  (** Content-Length; -1 while headers lack one *)
  mutable body_off : int;  (** body start in [inbuf] *)
  (* outgoing message: both buffers are cleared and reused per message *)
  out_head : Buffer.t;
  out_body : Buffer.t;
  mutable out : slice list;
  mutable close_after : bool;
  mutable rejected : bool;  (** a 503 turn-away, not a served connection *)
  mutable watched : int;
      (** readiness interest last registered with epoll for this fd
          (1 = read, 2 = write, 0 = parked); -1 = not registered.  Owned
          by the event loop; unused on client connections. *)
}

let create ~role fd =
  {
    fd;
    role;
    state = Reading;
    inbuf = Bytes.create 4096;
    in_len = 0;
    scan = 0;
    pstate = P_line;
    meth = "";
    path = "";
    status = 0;
    conn_close = false;
    clen = 0;
    body_off = 0;
    out_head = Buffer.create 256;
    out_body = Buffer.create 1024;
    out = [];
    close_after = false;
    rejected = false;
    watched = -1;
  }

(* ------------------------------------------------------------------ *)
(* Incremental message parsing                                         *)
(* ------------------------------------------------------------------ *)

(* index of the next '\n' in [b.[from .. upto)], bounded by the valid
   region (bytes past [upto] are stale garbage from earlier messages) *)
let find_nl b from upto =
  let rec go i =
    if i >= upto then None
    else if Bytes.unsafe_get b i = '\n' then Some i
    else go (i + 1)
  in
  go from

(* the line [start..nl), with a trailing '\r' stripped *)
let line_at b start nl =
  let stop = if nl > start && Bytes.get b (nl - 1) = '\r' then nl - 1 else nl in
  Bytes.sub_string b start (stop - start)

let is_digits s = s <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') s

(* A Content-Length value is ASCII decimal digits and nothing else: no
   sign, no [0x]/[0o] prefix, no [_] separators (all of which
   [int_of_string] would accept).  -1 when malformed.  Ten or more
   digits already exceed [max_body_bytes], so they saturate just above
   it instead of overflowing. *)
let parse_content_length v =
  if not (is_digits v) then -1
  else if String.length v > 9 then max_body_bytes + 1
  else int_of_string v

(* The role-specific part of the codec: the start line.  HTTP/1.0
   defaults to close, 1.1 to keep-alive. *)
let start_line c line =
  match (c.role, String.split_on_char ' ' line) with
  | Server, meth :: path :: rest ->
      c.meth <- meth;
      c.path <- path;
      c.conn_close <- rest = [ "HTTP/1.0" ];
      true
  | Client, version :: code :: _
    when String.starts_with ~prefix:"HTTP/" version
         && String.length code = 3 && is_digits code ->
      c.status <- int_of_string code;
      c.conn_close <- version = "HTTP/1.0";
      true
  | _ -> false

type fed = Need_more | Request | Bad of string

(** Feed the parser whatever bytes have accumulated.  Returns [Request]
    exactly once per message (a request on a server connection, a
    response on a client one); resumes mid-line, mid-headers or mid-body
    on the next call. *)
let rec feed c =
  match c.pstate with
  | P_dispatched -> Need_more
  | P_line -> (
      match find_nl c.inbuf c.scan c.in_len with
      | None ->
          if c.in_len - c.scan > max_header_bytes then Bad "start line too long"
          else Need_more
      | Some nl ->
          let line = line_at c.inbuf c.scan nl in
          c.scan <- nl + 1;
          if line = "" then feed c (* tolerate blank lines between messages *)
          else if start_line c line then begin
            c.clen <- -1;
            c.pstate <- P_headers;
            feed c
          end
          else Bad ("malformed start line " ^ line))
  | P_headers -> (
      match find_nl c.inbuf c.scan c.in_len with
      | None ->
          if c.in_len - c.scan > max_header_bytes then Bad "headers too long"
          else Need_more
      | Some nl ->
          let line = line_at c.inbuf c.scan nl in
          c.scan <- nl + 1;
          if line = "" then end_of_headers c
          else
            match header c line with
            | None -> feed c
            | Some bad -> Bad bad)
  | P_body ->
      if c.in_len - c.body_off >= c.clen then begin
        c.pstate <- P_dispatched;
        c.scan <- c.body_off + c.clen;
        Request
      end
      else Need_more

(* one header line; [Some reason] rejects the message *)
and header c line =
  match String.index_opt line ':' with
  | None -> None
  | Some i -> (
      let k = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let v =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      match k with
      | "content-length" ->
          let n = parse_content_length v in
          if n < 0 then Some ("bad Content-Length " ^ v)
          else if c.clen >= 0 && c.clen <> n then
            Some "conflicting Content-Length headers"
          else begin
            c.clen <- n;
            None
          end
      | "connection" ->
          (match String.lowercase_ascii v with
          | "close" -> c.conn_close <- true
          | "keep-alive" -> c.conn_close <- false
          | _ -> ());
          None
      | _ -> None)

(* A request without Content-Length has an empty body (GET); a response
   must announce its length — we never frame by connection close. *)
and end_of_headers c =
  c.body_off <- c.scan;
  if c.clen < 0 && c.role = Client then Bad "response without Content-Length"
  else begin
    if c.clen < 0 then c.clen <- 0;
    if c.clen > max_body_bytes then Bad "body too large"
    else begin
      c.pstate <- P_body;
      feed c
    end
  end

(** Drop the message just handled, slide any pipelined bytes after it to
    the front of the (kept, reused) input buffer, and go back to parsing.
    Both output buffers are cleared but keep their storage. *)
let reset_for_next c =
  let consumed = c.body_off + c.clen in
  let remaining = c.in_len - consumed in
  if remaining > 0 then Bytes.blit c.inbuf consumed c.inbuf 0 remaining;
  c.in_len <- remaining;
  c.scan <- 0;
  c.pstate <- P_line;
  c.clen <- 0;
  c.body_off <- 0;
  c.out <- [];
  Buffer.clear c.out_head;
  Buffer.clear c.out_body;
  c.state <- Reading

(* ------------------------------------------------------------------ *)
(* Socket I/O                                                          *)
(* ------------------------------------------------------------------ *)

let grow_inbuf c need =
  let cap = Bytes.length c.inbuf in
  if need > cap then begin
    let cap' = max need (cap * 2) in
    let b = Bytes.create cap' in
    Bytes.blit c.inbuf 0 b 0 c.in_len;
    c.inbuf <- b
  end

type read_result = Read_some | Read_blocked | Read_eof

(** One read into the input buffer.  Pre-sizes the buffer to hold the
    announced body so a large message never reallocates mid-read.
    [Read_blocked] means EAGAIN: nothing ready on a non-blocking socket,
    or the receive timeout expired on a blocking one.  A reset reads as
    [Read_eof]. *)
let rec read_step c =
  (match c.pstate with
  | P_body -> grow_inbuf c (c.body_off + c.clen)
  | _ -> if c.in_len = Bytes.length c.inbuf then grow_inbuf c (c.in_len + 1));
  let room = Bytes.length c.inbuf - c.in_len in
  match Unix.read c.fd c.inbuf c.in_len room with
  | 0 -> Read_eof
  | n ->
      c.in_len <- c.in_len + n;
      Read_some
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_step c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Read_blocked
  | exception Unix.Unix_error (_, _, _) -> Read_eof

(* Queue [out_head] + [body] as the output: the framing headers both
   directions send close the head, and head and body stay two slices —
   they are never concatenated. *)
let queue_message c ~content_type ~close body =
  let h = c.out_head in
  let len =
    match body with Sstr s -> String.length s | Sbuf b -> Buffer.length b
  in
  Buffer.add_string h "\r\nContent-Type: ";
  Buffer.add_string h content_type;
  Buffer.add_string h "\r\nContent-Length: ";
  Buffer.add_string h (string_of_int len);
  Buffer.add_string h "\r\nConnection: ";
  Buffer.add_string h (if close then "close" else "keep-alive");
  Buffer.add_string h "\r\n\r\n";
  c.out <-
    [
      { src = Sbuf h; off = 0; len = Buffer.length h };
      { src = body; off = 0; len };
    ];
  c.close_after <- close;
  c.state <- Writing

let soap_content_type = "application/soap+xml; charset=utf-8"

(** Queue a response: status line + headers assembled in the reused
    header buffer, body already sitting in [out_body] (the handler wrote
    it there directly). *)
let set_response ?(content_type = soap_content_type) c ~status ~close =
  Buffer.clear c.out_head;
  Buffer.add_string c.out_head "HTTP/1.1 ";
  Buffer.add_string c.out_head status;
  queue_message c ~content_type ~close (Sbuf c.out_body)

(** Queue a SOAP POST of [body] (client side); the body is sent straight
    from the caller's string. *)
let set_request c ~path ~host ~close body =
  Buffer.clear c.out_head;
  Buffer.add_string c.out_head "POST ";
  Buffer.add_string c.out_head path;
  Buffer.add_string c.out_head " HTTP/1.1\r\nHost: ";
  Buffer.add_string c.out_head host;
  queue_message c ~content_type:soap_content_type ~close (Sstr body)

type write_result = Write_done | Write_blocked | Write_closed

(** Drain as much of the output queue as the socket accepts.  The slice
    list is {e gathered} writev-style through [scratch] (one reused
    [Bytes.t]; the event loop shares one across all its connections):
    header and body slices are coalesced into a single [write(2)] — so a
    message up to the scratch size is one syscall and one TCP segment,
    not one per slice.  [Write_blocked] means EAGAIN (socket buffer full,
    or a blocking socket's send timeout expired); a peer that vanished
    mid-message surfaces as [Write_closed]. *)
let rec write_step ~scratch c =
  (* consume [n] written bytes off the front of the slice list *)
  let rec advance n = function
    | [] -> []
    | sl :: rest ->
        let take = min n (sl.len - sl.off) in
        sl.off <- sl.off + take;
        if sl.off >= sl.len then advance (n - take) rest else sl :: rest
  in
  let rec go () =
    match c.out with
    | [] -> Write_done
    | slices ->
        let filled = ref 0 in
        List.iter
          (fun sl ->
            let k = min (sl.len - sl.off) (Bytes.length scratch - !filled) in
            if k > 0 then begin
              (match sl.src with
              | Sstr s -> Bytes.blit_string s sl.off scratch !filled k
              | Sbuf b -> Buffer.blit b sl.off scratch !filled k);
              filled := !filled + k
            end)
          slices;
        if !filled = 0 then begin
          c.out <- [];
          Write_done
        end
        else
          let n = Unix.write c.fd scratch 0 !filled in
          c.out <- advance n slices;
          (* a short write means the socket buffer is full: wait for
             writability rather than eat a guaranteed EAGAIN *)
          if n < !filled then Write_blocked else go ()
  in
  try go () with
  | Unix.Unix_error (Unix.EINTR, _, _) -> write_step ~scratch c
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Write_blocked
  | Unix.Unix_error (_, _, _) -> Write_closed

let close c =
  c.state <- Closed;
  c.out <- [];
  try Unix.close c.fd with Unix.Unix_error _ -> ()
