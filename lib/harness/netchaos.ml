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

   Single select(2) loop, no threads of its own — callers run [run] in
   a thread and [stop] wakes it through a self-pipe. *)

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
  mutable pending : (float * string) list;  (* due-at, frame; FIFO *)
  mutable live : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  target : string * int;
  schedule : (int, fault) Hashtbl.t;
  on_kill : unit -> unit;
  mutable links : link list;
  mutable frames : int;  (* client->server frames seen = next op index *)
  mutable fired : (int * fault) list;  (* injections that ran, newest first *)
  mutable refuse_until : float;  (* partition: no conns before this *)
  mutable stopping : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ~target ~schedule ?(on_kill = fun () -> ()) () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 16;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (i, f) -> Hashtbl.replace tbl i f) schedule;
  let wake_r, wake_w = Unix.pipe () in
  {
    listen_fd;
    port;
    target;
    schedule = tbl;
    on_kill;
    links = [];
    frames = 0;
    fired = [];
    refuse_until = 0.;
    stopping = false;
    wake_r;
    wake_w;
  }

let port t = t.port
let fired t = List.rev t.fired

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_link t link =
  if link.live then begin
    link.live <- false;
    close_quiet link.cfd;
    close_quiet link.sfd
  end;
  t.links <- List.filter (fun l -> l != link) t.links

let close_all_links t = List.iter (close_link t) t.links

(* Blocking write of a whole buffer; a peer that vanished mid-write
   just ends the link (exactly what a dying TCP connection does). *)
let write_all t link fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let sent = ref 0 in
  try
    while !sent < len do
      match Unix.write fd b !sent (len - !sent) with
      | 0 -> raise Exit
      | n -> sent := !sent + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  with Exit | Unix.Unix_error _ -> close_link t link

let flush_pending t link now =
  let rec go () =
    match link.pending with
    | (due, frame) :: rest when due <= now && link.live ->
        link.pending <- rest;
        write_all t link link.sfd frame;
        go ()
    | _ -> ()
  in
  go ()

(* One complete client->server frame: consult the schedule at the
   current op index and forward, mangle or suppress accordingly. *)
let handle_frame t link frame =
  let idx = t.frames in
  t.frames <- t.frames + 1;
  let now = Unix.gettimeofday () in
  let forward () =
    (* Queue behind any delayed frames so per-link order never
       inverts; the flusher stops at the first not-yet-due frame. *)
    match link.pending with
    | [] -> write_all t link link.sfd frame
    | _ -> link.pending <- link.pending @ [ (now, frame) ]
  in
  match Hashtbl.find_opt t.schedule idx with
  | None -> forward ()
  | Some fault ->
      t.fired <- (idx, fault) :: t.fired;
      (match fault with
      | Delay s -> link.pending <- link.pending @ [ (now +. s, frame) ]
      | Drop -> ()
      | Duplicate ->
          forward ();
          forward ()
      | Truncate n ->
          let cut = min n (String.length frame) in
          write_all t link link.sfd (String.sub frame 0 cut);
          close_link t link
      | Partition s ->
          t.refuse_until <- now +. s;
          close_all_links t
      | Kill ->
          t.on_kill ();
          close_link t link)

(* Client bytes: accumulate, then peel off every complete frame. *)
let pump_client t link =
  let buf = Bytes.create 8192 in
  match Unix.read link.cfd buf 0 8192 with
  | 0 -> close_link t link
  | n ->
      Buffer.add_subbytes link.acc buf 0 n;
      let continue = ref true in
      while !continue && link.live do
        let len = Buffer.length link.acc in
        if len < 4 then continue := false
        else begin
          let hdr = Buffer.sub link.acc 0 4 in
          let flen = Int32.to_int (Bytes.get_int32_be (Bytes.of_string hdr) 0)
          in
          if flen < 0 then (* garbage; sever like a real middlebox *)
            close_link t link
          else if len < 4 + flen then continue := false
          else begin
            let frame = Buffer.sub link.acc 0 (4 + flen) in
            let rest = Buffer.sub link.acc (4 + flen) (len - 4 - flen) in
            Buffer.clear link.acc;
            Buffer.add_string link.acc rest;
            handle_frame t link frame
          end
        end
      done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_link t link

(* Server bytes go back verbatim: faults model the network the CLIENT
   traverses; response-side chaos is already covered by the request
   side severing links mid-exchange. *)
let pump_server t link =
  let buf = Bytes.create 8192 in
  match Unix.read link.sfd buf 0 8192 with
  | 0 -> close_link t link
  | n -> write_all t link link.cfd (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_link t link

let accept t now =
  match Unix.accept t.listen_fd with
  | cfd, _ ->
      if now < t.refuse_until then close_quiet cfd
      else begin
        let host, port = t.target in
        match
          let sfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.connect sfd
               (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
           with e ->
             close_quiet sfd;
             raise e);
          sfd
        with
        | sfd ->
            t.links <-
              { cfd; sfd; acc = Buffer.create 256; pending = []; live = true }
              :: t.links
        | exception _ ->
            (* Backend unreachable (killed primary): refuse the client
               the way a dead host would — immediate close. *)
            close_quiet cfd
      end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> ()

let run t =
  while not t.stopping do
    let now = Unix.gettimeofday () in
    let reads =
      t.wake_r
      :: (if now >= t.refuse_until then [ t.listen_fd ] else [])
      @ List.concat_map (fun l -> [ l.cfd; l.sfd ]) t.links
    in
    (match Unix.select reads [] [] 0.02 with
    | ready, _, _ ->
        if List.mem t.wake_r ready then begin
          let b = Bytes.create 16 in
          ignore (try Unix.read t.wake_r b 0 16 with Unix.Unix_error _ -> 0)
        end;
        if List.mem t.listen_fd ready then accept t now;
        List.iter
          (fun l ->
            if l.live && List.mem l.cfd ready then pump_client t l;
            if l.live && List.mem l.sfd ready then pump_server t l)
          t.links
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = Unix.gettimeofday () in
    List.iter (fun l -> flush_pending t l now) t.links
  done;
  close_all_links t;
  close_quiet t.listen_fd;
  close_quiet t.wake_r;
  close_quiet t.wake_w

let stop t =
  t.stopping <- true;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()
