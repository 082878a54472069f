type chunk = { data : bytes; mutable off : int }

type flush = Drained | Pending | Peer_gone

type t = {
  w_fd : Unix.file_descr;
  hw : int;
  q : chunk Queue.t;
  mutable buffered : int;
  mutable progress_at : float; (* last successful write / drain instant *)
  mutable max_buffered : int;
}

let default_high_water = 4 * 1024 * 1024

let create ?(high_water = default_high_water) ~now fd =
  {
    w_fd = fd;
    hw = high_water;
    q = Queue.create ();
    buffered = 0;
    progress_at = now;
    max_buffered = 0;
  }

let fd t = t.w_fd
let high_water t = t.hw
let pending_bytes t = t.buffered
let has_pending t = t.buffered > 0
let max_buffered t = t.max_buffered

let push t frame =
  (* An empty chunk would never be popped: write of 0 bytes returns 0,
     which [flush] reads as "socket full". *)
  if Bytes.length frame > 0 then Queue.add { data = frame; off = 0 } t.q;
  t.buffered <- t.buffered + Bytes.length frame;
  if t.buffered > t.max_buffered then t.max_buffered <- t.buffered;
  t.buffered <= t.hw

let rec flush t ~now =
  match Queue.peek_opt t.q with
  | None ->
      t.progress_at <- now;
      Drained
  | Some c -> (
      let len = Bytes.length c.data - c.off in
      match Unix.write t.w_fd c.data c.off len with
      | 0 -> Pending
      | n ->
          t.buffered <- t.buffered - n;
          t.progress_at <- now;
          if n = len then begin
            ignore (Queue.pop t.q);
            flush t ~now
          end
          else begin
            c.off <- c.off + n;
            Pending
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t ~now
      | exception Unix.Unix_error _ -> Peer_gone)

let stalled_for t ~now =
  if t.buffered = 0 then 0. else max 0. (now -. t.progress_at)
