(* Seeded in-process network chaos proxy.

   Sits between a client and one server endpoint and forwards traffic
   both ways, except at explicitly scheduled points: every client ->
   server protocol frame (u32-BE length prefix + payload, the wire
   format of [Server.Protocol]) is counted, and when the running frame
   index hits an entry of the schedule the attached fault fires —
   delay, drop, duplication, truncation, a timed partition, or killing
   the backend via a caller-supplied thunk. Frame alignment is what
   makes injections deterministic and reproducible: "drop op 7" means
   exactly the 8th request frame of the run, every run.

   The proxy deliberately knows nothing about the protocol beyond the
   length prefix (this library sits BELOW the server in the build
   graph), so it can never mask a framing bug by "helpfully" repairing
   one: a truncated frame goes out truncated, byte for byte.

   One reactor of its own, no threads of its own — callers run [run]
   in a thread and [stop] wakes it through a self-pipe. The listen
   socket, each link's two sockets and the pipe are registered fds; a
   partition's end and each delayed frame's release are timers. *)

type fault =
  | Delay of float
  | Drop
  | Duplicate
  | Truncate of int
  | Partition of float
  | Kill

let fault_name = function
  | Delay _ -> "delay"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Truncate _ -> "truncate"
  | Partition _ -> "partition"
  | Kill -> "kill"

type link = {
  cfd : Unix.file_descr;  (* client side *)
  sfd : Unix.file_descr;  (* server side *)
  acc : Buffer.t;  (* client->server bytes pending frame extraction *)
  held : (bool ref * string) Queue.t;  (* released?, frame; FIFO *)
  mutable live : bool;
}

type t = {
  r : Reactor.t;
  listen_fd : Unix.file_descr;
  port : int;
  target : string * int;
  schedule : (int, fault) Hashtbl.t;
  on_kill : unit -> unit;
  mutable links : link list;
  mutable frames : int;  (* client->server frames seen = next op index *)
  mutable fired : (int * fault) list;  (* injections that ran, newest first *)
  mutable heal : Reactor.timer option;  (* a partition's end *)
  mutable stopping : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let port t = t.port
let fired t = List.rev t.fired

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_link t link =
  if link.live then begin
    link.live <- false;
    Reactor.deregister t.r link.cfd;
    Reactor.deregister t.r link.sfd;
    close_quiet link.cfd;
    close_quiet link.sfd
  end;
  t.links <- List.filter (fun l -> l != link) t.links

let close_all_links t = List.iter (close_link t) t.links

(* Write a whole buffer, blocking the proxy's thread while the peer's
   window is full; a peer that vanished mid-write just ends the link
   (exactly what a dying TCP connection does). *)
let write_all t link fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | 0 -> close_link t link
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Reactor.wait_fd fd `Write ~timeout:(-1.));
          go off
      | exception Unix.Unix_error _ -> close_link t link
  in
  go 0

(* Forward the held frames that are released, in order: a frame held
   behind a delayed one goes out right after it. *)
let release t link =
  while
    link.live
    && (not (Queue.is_empty link.held))
    && !(fst (Queue.peek link.held))
  do
    write_all t link link.sfd (snd (Queue.pop link.held))
  done

(* One complete client->server frame: consult the schedule at the
   current op index and forward, mangle or suppress accordingly. *)
let handle_frame t link frame =
  let idx = t.frames in
  t.frames <- t.frames + 1;
  let forward () =
    (* Queue behind any held frames so per-link order never inverts. *)
    if Queue.is_empty link.held then write_all t link link.sfd frame
    else Queue.push (ref true, frame) link.held
  in
  match Hashtbl.find_opt t.schedule idx with
  | None -> forward ()
  | Some fault ->
      t.fired <- (idx, fault) :: t.fired;
      (match fault with
      | Delay s ->
          let released = ref false in
          Queue.push (released, frame) link.held;
          ignore
            (Reactor.after t.r s (fun () ->
                 released := true;
                 release t link))
      | Drop -> ()
      | Duplicate ->
          forward ();
          forward ()
      | Truncate n ->
          let cut = min n (String.length frame) in
          write_all t link link.sfd (String.sub frame 0 cut);
          close_link t link
      | Partition s ->
          close_all_links t;
          Reactor.set_read_interest t.r t.listen_fd false;
          Option.iter (Reactor.cancel t.r) t.heal;
          t.heal <-
            Some
              (Reactor.after t.r s (fun () ->
                   t.heal <- None;
                   Reactor.set_read_interest t.r t.listen_fd true))
      | Kill ->
          t.on_kill ();
          close_link t link)

(* Peel every complete frame off the client->server bytes. *)
let rec frames_in t link =
  let len = Buffer.length link.acc in
  if link.live && len >= 4 then begin
    let flen = Int32.to_int (String.get_int32_be (Buffer.sub link.acc 0 4) 0) in
    if flen < 0 then (* garbage; sever like a real middlebox *)
      close_link t link
    else if len >= 4 + flen then begin
      let frame = Buffer.sub link.acc 0 (4 + flen) in
      let rest = Buffer.sub link.acc (4 + flen) (len - 4 - flen) in
      Buffer.clear link.acc;
      Buffer.add_string link.acc rest;
      handle_frame t link frame;
      frames_in t link
    end
  end

(* One read from either side of a link. Server bytes go back verbatim:
   faults model the network the CLIENT traverses; response-side chaos
   is already covered by the request side severing links mid-exchange. *)
let pump t link fd =
  let buf = Bytes.create 8192 in
  match Unix.read fd buf 0 8192 with
  | 0 -> close_link t link
  | n when fd == link.cfd ->
      Buffer.add_subbytes link.acc buf 0 n;
      frames_in t link
  | n -> write_all t link link.cfd (Bytes.sub_string buf 0 n)
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error _ -> close_link t link

(* Link sockets are non-blocking, so a readiness report that outlived
   its socket (the number reused by a new link in the same turn) reads
   nothing instead of blocking the loop. *)
let accept t =
  match Unix.accept t.listen_fd with
  | cfd, _ -> (
      let host, port = t.target in
      let sfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
      with
      | () ->
          let link =
            { cfd; sfd; acc = Buffer.create 256; held = Queue.create ();
              live = true }
          in
          List.iter
            (fun fd ->
              Unix.set_nonblock fd;
              Reactor.register t.r fd ~readable:(fun () -> pump t link fd) ())
            [ cfd; sfd ];
          t.links <- link :: t.links
      | exception _ ->
          (* Backend unreachable (killed primary): refuse the client
             the way a dead host would — immediate close. *)
          close_quiet sfd;
          close_quiet cfd)
  | exception Unix.Unix_error _ -> ()

let create ~target ~schedule ?(on_kill = fun () -> ()) () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 16;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (i, f) -> Hashtbl.replace tbl i f) schedule;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      r = Reactor.create ();
      listen_fd;
      port;
      target;
      schedule = tbl;
      on_kill;
      links = [];
      frames = 0;
      fired = [];
      heal = None;
      stopping = false;
      wake_r;
      wake_w;
    }
  in
  Reactor.register t.r listen_fd ~readable:(fun () -> accept t) ();
  let drain () =
    try ignore (Unix.read wake_r (Bytes.create 16) 0 16)
    with Unix.Unix_error _ -> ()
  in
  Reactor.register t.r wake_r ~readable:drain ();
  t

let run t =
  while not t.stopping do
    Reactor.run_once t.r
  done;
  close_all_links t;
  close_quiet t.listen_fd;
  close_quiet t.wake_r;
  close_quiet t.wake_w

let stop t =
  t.stopping <- true;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()
