module D = Server.Dispatcher

type node = { disp : D.t; thread : Thread.t }

let start config sh =
  let disp = D.create ~config:{ config with port = 0 } sh in
  { disp; thread = Thread.create D.serve disp }

let stop n =
  D.stop n.disp;
  Thread.join n.thread

let port n = D.port n.disp

type proc = { pid : int; port : int }

let in_child ~stop serve =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop ()));
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  serve ();
  Unix._exit 0

let fork ?(config = D.default_config) slices =
  let disps =
    List.map
      (fun slice ->
        let sh = Server.Session.shared () in
        Server.Session.preload_ids sh slice;
        D.create ~config:{ config with port = 0 } sh)
      slices
  in
  (* unflushed output would be written once per process *)
  flush stdout;
  flush stderr;
  let procs =
    List.map
      (fun disp ->
        match Unix.fork () with
        | 0 ->
            List.iter (fun d -> if d != disp then D.release_listener d) disps;
            in_child ~stop:(fun () -> D.stop disp) (fun () -> D.serve disp)
        | pid -> { pid; port = D.port disp })
      disps
  in
  List.iter D.release_listener disps;
  procs

let fork_router config ~map =
  let r = Server.Router.create { config with port = 0 } ~map in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      in_child
        ~stop:(fun () -> Server.Router.stop r)
        (fun () -> Server.Router.serve r)
  | pid -> { pid; port = Server.Router.port r }

let kill ?(signal = Sys.sigterm) p =
  (try Unix.kill p.pid signal with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ()

type words = {
  minor : float;
  major : float;
  answer : Server.Protocol.response;
}

let wire_words sh req ~reps =
  let r = Reactor.create () in
  let fd, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.set_nonblock peer;
  let c = Server.Conn.create r fd in
  let session = Server.Session.create sh in
  Server.Conn.serve c
    (Server.Conn.frames c (fun id req ->
         Server.Conn.reply c ~id (Server.Session.handle session req)));
  let frame = Server.Protocol.encode_request ~id:1L req in
  let buf = ref (Bytes.create 65536) in
  (* One request, and its reply read into [buf]; the reply's length.
     The reactor turns only when the reply has not fully arrived. *)
  let round () =
    if Unix.write peer frame 0 (Bytes.length frame) <> Bytes.length frame
    then failwith "Testbed.wire_words: short request write";
    let got = ref 0 in
    let want () =
      if !got < 4 then max_int else 4 + Int32.to_int (Bytes.get_int32_be !buf 0)
    in
    while !got < want () do
      if !got >= 4 && want () > Bytes.length !buf then begin
        let b = Bytes.create (want ()) in
        Bytes.blit !buf 0 b 0 !got;
        buf := b
      end;
      match Unix.read peer !buf !got (Bytes.length !buf - !got) with
      | 0 -> failwith "Testbed.wire_words: the server hung up"
      | n -> got := !got + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Reactor.run_once ~max_timeout:1. r
    done;
    !got
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Conn.close c;
      Unix.close peer)
    (fun () ->
      let n = round () in
      let answer =
        match Server.Protocol.decode_response (Bytes.sub !buf 4 (n - 4)) with
        | Ok (_, resp) -> resp
        | Error e -> failwith (Server.Protocol.error_to_string e)
      in
      for _ = 1 to 100 do
        ignore (round ())
      done;
      Gc.minor ();
      let minor0, _, major0 = Gc.counters () in
      for _ = 1 to reps do
        ignore (round ())
      done;
      let minor1, _, major1 = Gc.counters () in
      let per w = w /. float_of_int reps in
      { minor = per (minor1 -. minor0); major = per (major1 -. major0); answer })

let describe = function
  | Server.Protocol.Ack m -> "ack: " ^ m
  | Server.Protocol.Rows _ -> "rows"
  | Server.Protocol.Error m -> "error: " ^ m
  | Server.Protocol.Invalid m -> "invalid: " ^ m
  | Server.Protocol.Overloaded m -> "overloaded: " ^ m
  | Server.Protocol.Partial { missing; msg } ->
      Printf.sprintf "partial (%d missing): %s" (List.length missing) msg
  | _ -> "unexpected response"

let slice data (lo, hi) =
  let out = ref [] in
  Array.iteri
    (fun id ivl ->
      if Interval.Ivl.lower ivl <= hi && Interval.Ivl.upper ivl >= lo then
        out := (id, ivl) :: !out)
    data;
  Array.of_list (List.rev !out)

let applied ~port =
  match Server.Client.connect ~deadline_ms:1000. ~port () with
  | c ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          match Server.Client.repl_status c with
          | Ok (_, _, applied) -> Some applied
          | Error _ -> None)
  | exception _ -> None

let wait_applied ?(timeout = 5.) ~port lsn =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match applied ~port with
    | Some a when a >= lsn -> Some (Unix.gettimeofday () -. t0)
    | _ when Unix.gettimeofday () -. t0 > timeout -> None
    | _ ->
        Thread.delay 0.002;
        go ()
  in
  go ()
