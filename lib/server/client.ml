type t = {
  fd : Unix.file_descr;
  mutable next_id : int64;
  mutable closed : bool;
  (* per-request deadline: every rpc must complete within this budget or
     the connection is closed and the call fails with [Timeout] *)
  deadline_ms : float option;
}

exception Io_error of string
exception Undecodable of string
exception Timed_out of string

let fail fmt = Printf.ksprintf (fun s -> raise (Io_error s)) fmt

type error =
  | Overloaded of string
  | Read_only of string
  | Conflict of string
  | Server of string
  | Invalid of string
  | Io of string
  | Timeout of string
  | Partial of { missing : int list; msg : string }
  | Unexpected of string

let error_to_string = function
  | Overloaded m -> "overloaded: " ^ m
  | Read_only m -> "read-only: " ^ m
  | Conflict m -> "transaction conflict: " ^ m
  | Server m -> m
  | Invalid m -> "invalid request: " ^ m
  | Io m -> "i/o: " ^ m
  | Timeout m -> "timeout: " ^ m
  | Partial { missing; msg } ->
      Printf.sprintf "partial result (shards [%s] missing): %s"
        (String.concat "," (List.map string_of_int missing))
        msg
  | Unexpected m -> "unexpected response: " ^ m

(* Overload clears when the server drains; transport hiccups (connection
   refused during a restart, reset mid-frame) clear when it comes back;
   a timeout may be a hung server or a partition that heals. A typed
   [Server], [Read_only] or [Invalid] answer is a verdict, not
   weather — retrying it would re-run a request the server already
   refused. *)
let retryable = function
  | Overloaded _ | Io _ | Timeout _ -> true
  | Read_only _ | Server _ | Invalid _ | Conflict _ | Partial _
  | Unexpected _ ->
      (* A partial answer means a shard stayed unreachable through the
         router's own failover attempts: an immediate retry would just
         burn the deadline again. The caller decides whether partial
         data is acceptable. *)
      false

(* A timed-out connection is unusable: the response may still arrive
   later and would answer the wrong request. Close before raising. *)
let timeout_fail t fmt =
  Printf.ksprintf
    (fun s ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.close t.fd with Unix.Unix_error _ -> ())
      end;
      raise (Timed_out s))
    fmt

(* Wait until [t.fd] is ready for [dir], or the absolute [deadline]
   passes; called only when a non-blocking read or write would block.
   In a reactor fiber the wait parks the fiber; on a plain thread it
   is a poll(2) wait, which works on fds past FD_SETSIZE (e.g. in a
   process holding thousands of connections). [deadline = None] (a
   blocking socket, which never reports EAGAIN) returns at once;
   [Some infinity] waits without bound. *)
let wait_ready t deadline dir =
  match deadline with
  | None -> ()
  | Some dl when dl = Float.infinity ->
      ignore (Reactor.await_fd t.fd dir ~timeout:(-1.))
  | Some dl ->
      let rec loop () =
        let remain = dl -. Unix.gettimeofday () in
        if remain <= 0. then timeout_fail t "request deadline expired";
        (* An interrupted wait reports not-ready; re-check the clock and
           re-enter rather than failing early. *)
        if not (Reactor.await_fd t.fd dir ~timeout:remain) then loop ()
      in
      loop ()

let connect ?(host = "127.0.0.1") ?deadline_ms ~port () =
  (* Before the socket exists, so a bad host leaks nothing. *)
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> Unix.ADDR_INET (a, port)
    | exception Failure _ -> fail "bad host %S: not a numeric address" host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let cleanup () = try Unix.close fd with Unix.Unix_error _ -> () in
  (match deadline_ms with
  | None -> (
      try Unix.connect fd addr
      with Unix.Unix_error (e, _, _) ->
        cleanup ();
        fail "connect %s:%d: %s" host port (Unix.error_message e))
  | Some ms -> (
      (* Bounded connect: non-blocking connect, wait for writability,
         then read the socket error out. A dead-but-routing host would
         otherwise hold us in the kernel's SYN retry loop. The socket
         stays non-blocking: a later read or write that would block
         waits for readiness instead, and a fiber must never block its
         thread. *)
      Unix.set_nonblock fd;
      try Unix.connect fd addr with
      | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
          match Reactor.await_fd fd `Write ~timeout:(ms /. 1000.) with
          | true -> (
              match Unix.getsockopt_error fd with
              | None -> ()
              | Some e ->
                  cleanup ();
                  fail "connect %s:%d: %s" host port (Unix.error_message e))
          | false ->
              cleanup ();
              raise
                (Timed_out
                   (Printf.sprintf "connect %s:%d: deadline expired" host port))
          )
      | Unix.Unix_error (e, _, _) ->
          cleanup ();
          fail "connect %s:%d: %s" host port (Unix.error_message e)));
  { fd; next_id = 1L; closed = false; deadline_ms }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all t deadline buf =
  let len = Bytes.length buf in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write t.fd buf !sent (len - !sent) with
    | 0 -> fail "connection closed while writing"
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_ready t deadline `Write
    | exception Unix.Unix_error (e, _, _) ->
        fail "write: %s" (Unix.error_message e)
  done

let read_exact t deadline buf off len =
  let got = ref 0 in
  while !got < len do
    match Unix.read t.fd buf (off + !got) (len - !got) with
    | 0 -> fail "connection closed by server"
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_ready t deadline `Read
    | exception Unix.Unix_error (e, _, _) ->
        fail "read: %s" (Unix.error_message e)
  done

let read_frame ?deadline t =
  let header = Bytes.create 4 in
  read_exact t deadline header 0 4;
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  if len < 0 || len > Protocol.max_payload then begin
    (* There is no way to find the next frame boundary in garbage: the
       byte stream is beyond recovery, so close rather than desync. *)
    close t;
    fail "bad frame length %d from server" len
  end;
  let payload = Bytes.create len in
  read_exact t deadline payload 0 len;
  Protocol.decode_response payload

let deadline_of t =
  Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) t.deadline_ms

let send_frame t deadline req =
  if t.closed then fail "client is closed";
  let id = t.next_id in
  t.next_id <- Int64.add t.next_id 1L;
  write_all t deadline (Protocol.encode_request ~id req);
  id

let rpc t req =
  let deadline = deadline_of t in
  let id = send_frame t deadline req in
  match read_frame ?deadline t with
  | Error e ->
      (* The frame was well-delimited, so the stream is still in sync:
         a response we cannot decode (say, an op added after this
         client was built) rejects this one call with a typed error and
         leaves the connection usable. *)
      raise (Undecodable (Protocol.error_to_string e))
  | Ok (rid, resp) ->
      (* id 0 is the server's out-of-band admission rejection (or an
         idle goodbye racing the request). *)
      if rid <> id && rid <> 0L then
        fail "response id %Ld for request %Ld" rid id;
      resp

let send t req = ignore (send_frame t (deadline_of t) req)

let recv t =
  if t.closed then fail "client is closed";
  match read_frame ~deadline:Float.infinity t with
  | Ok (_, resp) -> resp
  | Error e -> raise (Undecodable (Protocol.error_to_string e))

let rpc_result t req =
  match rpc t req with
  | resp -> Ok resp
  | exception Io_error m -> Result.Error (Io m)
  | exception Timed_out m -> Result.Error (Timeout m)
  | exception Undecodable m ->
      Result.Error (Unexpected ("undecodable response: " ^ m))

(* Map every non-success response shape onto the typed error; [of_ok]
   extracts the expected success payload or rejects the shape. *)
let typed t req of_ok =
  match rpc_result t req with
  | Result.Error _ as e -> e
  | Ok (Protocol.Error m) -> Result.Error (Server m)
  | Ok (Protocol.Invalid m) -> Result.Error (Invalid m)
  | Ok (Protocol.Overloaded m) -> Result.Error (Overloaded m)
  | Ok (Protocol.Read_only m) -> Result.Error (Read_only m)
  | Ok (Protocol.Conflict m) -> Result.Error (Conflict m)
  | Ok (Protocol.Partial { missing; msg }) ->
      Result.Error (Partial { missing; msg })
  | Ok (Protocol.Goodbye m) ->
      Result.Error (Io ("server closed the connection: " ^ m))
  | Ok resp -> of_ok resp

(* ---------------- typed conveniences ---------------- *)

let ping t =
  typed t Protocol.Ping (function
    | Protocol.Ack _ -> Ok ()
    | _ -> Result.Error (Unexpected "to ping"))

let insert t ?id ivl =
  typed t
    (Protocol.Insert
       { lower = Interval.Ivl.lower ivl; upper = Interval.Ivl.upper ivl; id })
    (function
      | Protocol.Ack msg -> (
          match
            int_of_string_opt
              (List.hd (List.rev (String.split_on_char ' ' msg)))
          with
          | Some n -> Ok n
          | None -> Result.Error (Unexpected ("unparseable ack: " ^ msg)))
      | _ -> Result.Error (Unexpected "to insert"))

let intersect t ivl =
  typed t
    (Protocol.Intersect
       { lower = Interval.Ivl.lower ivl; upper = Interval.Ivl.upper ivl })
    (function
      | Protocol.Rows { rows; _ } ->
          Ok (List.map (fun r -> (Interval.Ivl.make r.(0) r.(1), r.(2))) rows)
      | _ -> Result.Error (Unexpected "to intersect"))

let sql t text =
  typed t (Protocol.Sql text) (function
    | (Protocol.Ack _ | Protocol.Rows _) as r -> Ok r
    | _ -> Result.Error (Unexpected "to sql"))

let server_stats t =
  typed t Protocol.Stats (function
    | Protocol.Stats_reply s -> Ok s
    | _ -> Result.Error (Unexpected "to stats"))

let metrics t =
  typed t Protocol.Metrics (function
    | Protocol.Ack doc -> Ok doc
    | _ -> Result.Error (Unexpected "to metrics"))

let begin_txn t =
  typed t Protocol.Begin (function
    | Protocol.Ack _ -> Ok ()
    | _ -> Result.Error (Unexpected "to begin"))

let commit t =
  typed t Protocol.Commit (function
    | Protocol.Ack msg -> (
        (* "committed lsn N" / "committed (group commit batch of k) lsn
           N": the trailing token is the durable-log LSN the failover
           client carries for read-your-writes. Non-durable servers say
           "committed lsn 0". *)
        match
          int_of_string_opt (List.hd (List.rev (String.split_on_char ' ' msg)))
        with
        | Some lsn -> Ok lsn
        | None -> Ok 0)
    | _ -> Result.Error (Unexpected "to commit"))

let shard_map t =
  typed t Protocol.Shard_map_req (function
    | Protocol.Shard_map entries -> Ok entries
    | _ -> Result.Error (Unexpected "to shard_map"))

let repl_status t =
  typed t Protocol.Repl_status (function
    | Protocol.Repl_state { role; durable_lsn; applied_lsn } ->
        Ok (role, durable_lsn, applied_lsn)
    | _ -> Result.Error (Unexpected "to repl_status"))

let rollback t =
  typed t Protocol.Rollback (function
    | Protocol.Ack _ -> Ok ()
    | _ -> Result.Error (Unexpected "to rollback"))

let prepare t ~name sql =
  typed t (Protocol.Prepare { name; sql }) (function
    | Protocol.Ack _ -> Ok ()
    | _ -> Result.Error (Unexpected "to prepare"))

let execute t ~name params =
  typed t (Protocol.Execute { name; params }) (function
    | (Protocol.Ack _ | Protocol.Rows _) as r -> Ok r
    | _ -> Result.Error (Unexpected "to execute"))

let close_stmt t name =
  typed t (Protocol.Close_stmt name) (function
    | Protocol.Ack _ -> Ok ()
    | _ -> Result.Error (Unexpected "to close"))

let explain t ?(analyze = false) target =
  typed t (Protocol.Explain { analyze; target }) (function
    | Protocol.Ack text -> Ok text
    | _ -> Result.Error (Unexpected "to explain"))

(* ---------------- bounded retry with backoff ---------------- *)

type backoff = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  seed : int;
}

let default_backoff =
  { attempts = 5; base_delay = 0.05; max_delay = 1.0; jitter = 0.5; seed = 0 }

(* splitmix64, inlined — lib/server cannot depend on lib/workload, and
   the jitter stream must be deterministic under a given seed so tests
   replay. *)
let mix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (* uniform float in [0, 1) from the top 53 bits *)
  Int64.to_float (Int64.shift_right_logical z 11) *. (1. /. 9007199254740992.)

let retry ?(backoff = default_backoff) f =
  let state = ref (Int64.of_int backoff.seed) in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Result.Error e when retryable e && attempt < backoff.attempts ->
        (* Exponential growth, capped, with jitter pulling the sleep
           down into [(1 - jitter) * d, d] so a thundering herd of
           clients doesn't re-arrive in lockstep. *)
        let d =
          Float.min backoff.max_delay
            (backoff.base_delay *. Float.pow 2. (float_of_int (attempt - 1)))
        in
        let d = d *. (1. -. (backoff.jitter *. mix state)) in
        if d > 0. then Unix.sleepf d;
        go (attempt + 1)
    | Result.Error _ as e -> e
  in
  go 1
