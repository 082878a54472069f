type flush = Drained | Pending | Peer_gone

(* The bytes owed are [buf.[off .. len - 1]]: a partial write moves
   [off], a push appends at [len]. *)
type t = {
  w_fd : Unix.file_descr;
  hw : int;
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable progress_at : float; (* last successful write / drain instant *)
  mutable max_buffered : int;
}

let default_high_water = 4 * 1024 * 1024

(* The first buffer's size, and the size past which a drained buffer is
   released. *)
let initial = 4096
let release_above = 65536

let create ?(high_water = default_high_water) ~now fd =
  {
    w_fd = fd;
    hw = high_water;
    buf = Bytes.empty;
    off = 0;
    len = 0;
    progress_at = now;
    max_buffered = 0;
  }

let fd t = t.w_fd
let high_water t = t.hw
let pending_bytes t = t.len - t.off
let has_pending t = t.len > t.off
let max_buffered t = t.max_buffered
let capacity t = Bytes.length t.buf

(* Room for [n] more bytes at [len]: compact the owed bytes to offset 0
   when that frees at least half the buffer, else double. *)
let reserve t n =
  if t.len + n > Bytes.length t.buf then begin
    let owed = t.len - t.off in
    if owed + n <= Bytes.length t.buf / 2 then
      Bytes.blit t.buf t.off t.buf 0 owed
    else begin
      let buf =
        Bytes.create (max (owed + n) (max initial (2 * Bytes.length t.buf)))
      in
      Bytes.blit t.buf t.off buf 0 owed;
      t.buf <- buf
    end;
    t.off <- 0;
    t.len <- owed
  end

let appended t n =
  t.len <- t.len + n;
  let owed = t.len - t.off in
  if owed > t.max_buffered then t.max_buffered <- owed;
  owed <= t.hw

let write t n fill =
  reserve t n;
  fill t.buf t.len;
  appended t n

let push t frame =
  let n = Bytes.length frame in
  reserve t n;
  Bytes.blit frame 0 t.buf t.len n;
  appended t n

let drained t ~now =
  t.off <- 0;
  t.len <- 0;
  if Bytes.length t.buf > release_above then t.buf <- Bytes.empty;
  t.progress_at <- now;
  Drained

let rec flush t ~now =
  let owed = t.len - t.off in
  if owed = 0 then drained t ~now
  else
    match Unix.write t.w_fd t.buf t.off owed with
    | 0 -> Pending
    | n ->
        t.off <- t.off + n;
        t.progress_at <- now;
        if n = owed then drained t ~now else Pending
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Pending
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t ~now
    | exception Unix.Unix_error _ -> Peer_gone

let stalled_for t ~now =
  if t.len = t.off then 0. else max 0. (now -. t.progress_at)
