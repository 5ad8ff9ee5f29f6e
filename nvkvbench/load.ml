(* Non-blocking wire connections driven from one process.  A connection
   owns one dedup slot ([client]) and its sequence counter, and has at most
   one request outstanding: [closed_loop] multiplexes several such
   connections with [select], sending a connection's next request only
   after its previous answer arrived.  Blocking one-at-a-time calls use
   [Net.Client]. *)

module Wire = Net.Wire

type conn = {
  index : int;
  client : int;
  fd : Unix.file_descr;
  mutable seq : int;  (** sequence number of the outstanding (or last) request *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable op : Wire.op;  (** the outstanding (or last) request *)
  mutable sent_ns : int;
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let connect ?(seq = 0) ~index ~client addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with exn ->
     Unix.close fd;
     raise exn);
  {
    index;
    client;
    fd;
    seq;
    rbuf = Bytes.create 4096;
    rlen = 0;
    op = Wire.Ping;
    sent_ns = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd buf off len =
  if len > 0 then
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)

(* Send [op] under a fresh sequence number. *)
let send c op =
  c.seq <- c.seq + 1;
  let frame = Wire.encode_request { Wire.client = c.client; seq = c.seq; op } in
  c.op <- op;
  c.sent_ns <- Proc.now_ns ();
  write_all c.fd frame 0 (Bytes.length frame)

let chunk = Bytes.create 65536

(* Read once from [c]; [`Eof] when the peer closed. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
      if Bytes.length c.rbuf < c.rlen + n then begin
        let bigger = Bytes.create (2 * (c.rlen + n)) in
        Bytes.blit c.rbuf 0 bigger 0 c.rlen;
        c.rbuf <- bigger
      end;
      Bytes.blit chunk 0 c.rbuf c.rlen n;
      c.rlen <- c.rlen + n;
      `Data
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Data
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

let take_response c =
  match Wire.decode_response c.rbuf ~len:c.rlen with
  | Wire.Complete (resp, used) ->
      Bytes.blit c.rbuf used c.rbuf 0 (c.rlen - used);
      c.rlen <- c.rlen - used;
      if resp.Wire.client <> c.client || resp.Wire.seq <> c.seq then
        fail "connection %d: answer for (%d,%d), expected (%d,%d)" c.index
          resp.Wire.client resp.Wire.seq c.client c.seq;
      Some resp.Wire.result
  | Wire.Incomplete -> None
  | Wire.Broken e -> fail "connection %d: %s" c.index (Format.asprintf "%a" Wire.pp_error e)

(* Closed loop over [conns] while [go t] holds for the monotonic time [t]
   of the latest answer: [next c] gives the connection's next request
   ([None] = this connection is done), and [answer c op result ns] sees
   every answer with its latency.  Returns when no request is
   outstanding. *)
let closed_loop conns ~go ~next ~answer =
  let outstanding = Hashtbl.create 8 in
  let issue c =
    match next c with
    | Some op ->
        send c op;
        Hashtbl.replace outstanding c.fd c
    | None -> ()
  in
  List.iter issue conns;
  while Hashtbl.length outstanding > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) outstanding [] in
    match Unix.select fds [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let c = Hashtbl.find outstanding fd in
            (match fill c with
            | `Eof -> fail "connection %d: server closed the connection" c.index
            | `Data -> ());
            match take_response c with
            | None -> ()
            | Some result ->
                let t = Proc.now_ns () in
                Hashtbl.remove outstanding fd;
                answer c c.op result (t - c.sent_ns);
                if go t then issue c)
          readable
  done
