(* One-shot HTTP/1.0 exposition endpoint served directly on a reactor.

   Replaces the dispatcher's inline blocking metrics handler and the
   router's thread-per-scrape listener: every scrape is now a plain
   reactor connection ({!Conn}) — accept, wait for the first request
   bytes (or one second of silence, matching the old SO_RCVTIMEO
   behaviour), write the document through a buffered writer, close
   once drained, or at the connection's stall deadline. A scraper that
   connects and says nothing costs one idle fd, never a thread and
   never a blocked loop. The first read answers and starts the close,
   so the connection discards whatever else it reads: its framer never
   grows past its first 4 KB. *)

type hconn = {
  c : Conn.t;
  mutable responded : bool;
  mutable htimer : Reactor.timer option;
}

type t = {
  r : Reactor.t;
  lfd : Unix.file_descr;
  doc : unit -> string;
  mutable conns : hconn list;
}

(* Answer even a silent scraper after this long (the old receive
   timeout). *)
let silent_after = 1.0

let cancel_timer t hc =
  Option.iter (Reactor.cancel t.r) hc.htimer;
  hc.htimer <- None

let respond t hc =
  if not (hc.responded || hc.c.dead) then begin
    hc.responded <- true;
    let body = t.doc () in
    let resp =
      Printf.sprintf
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4\r\n\
         Content-Length: %d\r\n\
         Connection: close\r\n\
         \r\n\
         %s"
        (String.length body) body
    in
    ignore (Reactor.Writer.push hc.c.wr (Bytes.of_string resp));
    hc.c.closing <- true;
    cancel_timer t hc;
    Conn.flush hc.c;
    Conn.maybe_close hc.c
  end

let accept_scrapes t =
  Conn.accept t.lfd ~admit:(fun () -> None) (fun fd ->
      let hc = { c = Conn.create t.r fd; responded = false; htimer = None } in
      t.conns <- hc :: t.conns;
      Conn.serve hc.c
        ~on_close:(fun () ->
          cancel_timer t hc;
          t.conns <- List.filter (fun c -> c != hc) t.conns)
        (fun () -> respond t hc);
      hc.htimer <-
        Some (Reactor.after t.r silent_after (fun () -> respond t hc)))

let attach r ~fd ~doc =
  Unix.set_nonblock fd;
  let t = { r; lfd = fd; doc; conns = [] } in
  Reactor.register r fd ~readable:(fun () -> accept_scrapes t) ();
  t

let stop_accepting t = Reactor.set_read_interest t.r t.lfd false

let close_all t =
  Reactor.deregister t.r t.lfd;
  List.iter (fun hc -> Conn.close hc.c) t.conns
