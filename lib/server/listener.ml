type t = {
  reactor : Reactor.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable stopping : bool;
}

let create ~host ~port ~metrics_port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd, bound_port = Conn.listen ~host ~port ~backlog:128 in
  let metrics_fd, metrics_bound_port =
    match metrics_port with
    | None -> (None, 0)
    | Some p ->
        let fd, bp = Conn.listen ~host ~port:p ~backlog:16 in
        (Some fd, bp)
  in
  let stop_r, stop_w = Unix.pipe () in
  { reactor = Reactor.create (); listen_fd; bound_port; metrics_fd;
    metrics_bound_port; stop_r; stop_w; stopping = false }

let reactor t = t.reactor
let port t = t.bound_port
let metrics_port t = t.metrics_bound_port
let stopping t = t.stopping

let stop t =
  try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let release t = close_quietly t.listen_fd

let serve t ~max_sessions ~stats ~metrics_doc ~accept ~drain =
  let r = t.reactor in
  let admit () =
    if Server_stats.sessions stats < max_sessions then None
    else begin
      Server_stats.overloaded stats;
      Some (Printf.sprintf "server at session limit (%d)" max_sessions)
    end
  in
  Unix.set_nonblock t.listen_fd;
  Reactor.register r t.listen_fd
    ~readable:(fun () ->
      Conn.accept t.listen_fd ~admit (fun fd ->
          Server_stats.session_opened stats;
          accept fd))
    ();
  let http =
    Option.map
      (fun fd -> Http_endpoint.attach r ~fd ~doc:metrics_doc)
      t.metrics_fd
  in
  Reactor.register r t.stop_r
    ~readable:(fun () ->
      (try ignore (Unix.read t.stop_r (Bytes.create 16) 0 16)
       with Unix.Unix_error _ -> ());
      t.stopping <- true;
      (* Connections ready in this turn are still served; new ones are
         not accepted. *)
      Reactor.set_read_interest r t.listen_fd false;
      Option.iter Http_endpoint.stop_accepting http)
    ();
  while not t.stopping do
    Reactor.run_once r
  done;
  drain ();
  Reactor.deregister r t.listen_fd;
  Option.iter Http_endpoint.close_all http;
  List.iter close_quietly
    ([ t.listen_fd; t.stop_r; t.stop_w ] @ Option.to_list t.metrics_fd)
