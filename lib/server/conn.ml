type t = {
  reactor : Reactor.t;
  fd : Unix.file_descr;
  wr : Reactor.Writer.t;
  framer : Protocol.Framer.t;
  mutable closing : bool;
  mutable force_close : bool;
  mutable cut_off : bool;
  mutable lingering : bool;
  mutable dead : bool;
  mutable last_active : float;
  mutable idle_timeout : float;
  mutable stall_timer : Reactor.timer option;
  mutable idle_timer : Reactor.timer option;
  mutable on_cut_off : unit -> bool;
  mutable on_close : unit -> unit;
}

(* How long a lingering close waits for the peer's EOF. *)
let linger_grace = 5.0

(* A peer whose socket accepts nothing for this long while output is
   pending is gone in all but name. *)
let stall_grace = 5.0

let listen ~host ~port ~backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd backlog;
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, bound)

(* Read away unread inbound bytes before close(2): with data still in
   the receive queue the kernel answers the close with RST, which
   destroys any frame still in flight to the peer. Bounded — a peer
   still spraying bytes gets the reset it earned. The bytes land in
   [framer], which serves nothing more. *)
let hang_up framer fd =
  let rec drain n =
    if n > 0 then
      match Protocol.Framer.discard framer fd with
      | 0 -> ()
      | _ -> drain (n - 1)
      | exception Unix.Unix_error _ -> ()
  in
  drain 16;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* One typed Overloaded frame, then the door. The socket is fresh
   (blocking) and the frame small, but a single write may still be
   short — a truncated frame would be undecodable — so loop until the
   whole frame is out. *)
let reject fd reason =
  let frame = Protocol.encode_response ~id:0L (Protocol.Overloaded reason) in
  let len = Bytes.length frame in
  let rec write_all off =
    if off < len then
      match Unix.write fd frame off (len - off) with
      | 0 -> ()
      | n -> write_all (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error _ -> ()
  in
  write_all 0;
  Unix.set_nonblock fd;
  hang_up (Protocol.Framer.create ()) fd

(* Drain the whole backlog: with thousands of clients dialling at once,
   one accept per readiness wakeup would leave most of the burst
   waiting a full loop turn each. *)
let rec accept lfd ~admit f =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _peer ->
      (match admit () with
      | Some reason -> reject fd reason
      | None ->
          Unix.set_nonblock fd;
          f fd);
      accept lfd ~admit f

let create r ?high_water ?(idle_timeout = 0.) fd =
  let now = Unix.gettimeofday () in
  {
    reactor = r;
    fd;
    wr = Reactor.Writer.create ?high_water ~now fd;
    framer = Protocol.Framer.create ();
    closing = false;
    force_close = false;
    cut_off = false;
    lingering = false;
    dead = false;
    last_active = now;
    idle_timeout;
    stall_timer = None;
    idle_timer = None;
    on_cut_off = (fun () -> true);
    on_close = ignore;
  }

let cancel c = Option.iter (Reactor.cancel c.reactor)

let close c =
  if not c.dead then begin
    c.dead <- true;
    cancel c c.stall_timer;
    cancel c c.idle_timer;
    Reactor.deregister c.reactor c.fd;
    hang_up c.framer c.fd;
    c.on_close ()
  end

(* Shut the write side once everything owed is out, then keep reading
   (and discarding) until the peer's EOF or the grace runs out. *)
let linger c =
  c.lingering <- true;
  match Unix.shutdown c.fd Unix.SHUTDOWN_SEND with
  | () ->
      Reactor.set_read_interest c.reactor c.fd true;
      ignore (Reactor.after c.reactor linger_grace (fun () -> close c))
  | exception Unix.Unix_error _ -> close c

let maybe_close c =
  if not c.dead then
    if c.force_close then close c
    else if
      c.closing && (not c.lingering) && not (Reactor.Writer.has_pending c.wr)
    then linger c

(* The deadlines are lazy: a read or a drain touches no timer. A timer
   that fires checks the real condition and re-arms for the time left
   when its deadline has moved. *)
let stall_limit c =
  if c.idle_timeout > 0. then c.idle_timeout else stall_grace

let rec arm_stall c delay =
  c.stall_timer <- Some (Reactor.after c.reactor delay (fun () -> on_stall c))

and on_stall c =
  c.stall_timer <- None;
  if (not c.dead) && Reactor.Writer.has_pending c.wr then begin
    let stalled =
      Reactor.Writer.stalled_for c.wr ~now:(Unix.gettimeofday ())
    in
    if stalled >= stall_limit c then begin
      c.force_close <- true;
      maybe_close c
    end
    else arm_stall c (stall_limit c -. stalled)
  end

(* A dead connection's fd number may already belong to a newer one. *)
let flush c =
  if not c.dead then begin
    if Reactor.Writer.has_pending c.wr then begin
      match Reactor.Writer.flush c.wr ~now:(Unix.gettimeofday ()) with
      | Reactor.Writer.Drained | Reactor.Writer.Pending -> ()
      | Reactor.Writer.Peer_gone -> c.force_close <- true
    end;
    let pending = Reactor.Writer.has_pending c.wr in
    if pending && c.stall_timer = None then arm_stall c (stall_limit c);
    (* Write interest on an idle socket would spin the loop. *)
    Reactor.set_write_interest c.reactor c.fd pending
  end

(* A [Rows] answer is written straight into the output buffer, at its
   exact size; any other frame is small and pushed as built. *)
let buffer c ~id = function
  | Protocol.Rows { columns; rows } ->
      Reactor.Writer.write c.wr
        (Protocol.rows_size columns rows)
        (fun b off -> Protocol.write_rows b off ~id columns rows)
  | resp -> Reactor.Writer.push c.wr (Protocol.encode_response ~id resp)

(* A consumer whose buffer bursts the high-water mark is slower than the
   server for longer than the bound can absorb: it gets one typed
   Overloaded frame, allowed past the mark so the close is explicable
   on the wire, and the connection closes once — and only if — it
   drains what was already owed. *)
let send c ~id resp =
  if not (c.dead || c.force_close || c.cut_off || c.lingering) then
    if (not (buffer c ~id resp)) && c.on_cut_off () then begin
      c.cut_off <- true;
      c.closing <- true;
      ignore
        (Reactor.Writer.push c.wr
           (Protocol.encode_response ~id:0L
              (Protocol.Overloaded
                 (Printf.sprintf
                    "slow consumer: write buffer over %d bytes, closing"
                    (Reactor.Writer.high_water c.wr)))))
    end

let reply c ~id resp =
  send c ~id resp;
  flush c;
  maybe_close c

(* A leaked client — connected, silent, holding a seat — gets a typed
   goodbye and the door. A connection with output pending is still
   being served; its stall deadline covers a peer that stopped
   reading. *)
let rec arm_idle c delay =
  c.idle_timer <- Some (Reactor.after c.reactor delay (fun () -> on_idle c))

and on_idle c =
  c.idle_timer <- None;
  if not (c.dead || c.closing || c.idle_timeout <= 0.) then
    if Reactor.Writer.has_pending c.wr then arm_idle c c.idle_timeout
    else
      let left = c.last_active +. c.idle_timeout -. Unix.gettimeofday () in
      if left > 0. then arm_idle c left
      else begin
        c.closing <- true;
        reply c ~id:0L
          (Protocol.Goodbye
             (Printf.sprintf "idle for %.0fs, closing" c.idle_timeout))
      end

(* Reads land in the connection's own framer, so nothing read is shared
   between the reactor threads of one process and nothing is allocated
   per read. A closing connection discards what it reads: that keeps
   the receive queue empty, so the eventual close delivers the final
   frame instead of an RST. *)
let read c on_data =
  match
    if c.closing then Protocol.Framer.discard c.framer c.fd
    else Protocol.Framer.read c.framer c.fd
  with
  | 0 ->
      (* The peer sends nothing more but may still read what it is
         owed. *)
      if Reactor.Writer.has_pending c.wr then begin
        c.closing <- true;
        Reactor.set_read_interest c.reactor c.fd false
      end
      else close c
  | _ when c.closing -> ()
  | _ ->
      c.last_active <- Unix.gettimeofday ();
      on_data ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> close c

let serve c ?(on_cut_off = fun () -> true) ?(on_close = ignore) on_data =
  c.on_cut_off <- on_cut_off;
  c.on_close <- on_close;
  Reactor.register c.reactor c.fd
    ~readable:(fun () -> read c on_data)
    ~writable:(fun () ->
      flush c;
      maybe_close c)
    ();
  Reactor.set_write_interest c.reactor c.fd false;
  if c.idle_timeout > 0. then arm_idle c c.idle_timeout

let frames c on_request () =
  let rec next () =
    if not (c.closing || c.dead) then
      match Protocol.Framer.next c.framer with
      | Ok None -> ()
      | Ok (Some payload) ->
          (match Protocol.decode_request payload with
          | Ok (id, req) -> on_request id req
          | Result.Error err ->
              reply c ~id:0L (Protocol.Error (Protocol.error_to_string err)));
          next ()
      | Result.Error err ->
          (* A length prefix beyond the payload cap: the byte stream is
             beyond recovery. Answer, then close once the answer
             drains. *)
          c.closing <- true;
          reply c ~id:0L (Protocol.Error (Protocol.error_to_string err))
  in
  next ()
