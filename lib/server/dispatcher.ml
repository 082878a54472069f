type config = {
  host : string;
  port : int;
  max_sessions : int;
  group_commit : float;
  idle_timeout : float;
  metrics_port : int option;
  slow_query_ms : float;
  replica_of : (string * int) option;
      (* run as a hot standby tailing this primary's journal stream *)
  write_high_water : int;
      (* per-connection output buffer bound; crossing it is backpressure *)
}

let default_config =
  { host = "127.0.0.1"; port = 7468; max_sessions = 64; group_commit = 0.;
    idle_timeout = 0.; metrics_port = None; slow_query_ms = 0.;
    replica_of = None; write_high_water = 4 * 1024 * 1024 }

type conn = {
  io : Conn.t;
  session : Session.t;
  mutable repl_from : int option;
      (* Some lsn: this connection subscribed to the journal stream and
         the next frame shipped to it starts at [lsn] *)
  mutable repl_id : int64;  (* request id the frames answer under *)
  mutable repl_acked : int;  (* highest Repl_ack received *)
}

(* The replica's link back to its primary: one [Client] connection
   carrying the Repl_subscribe and the frame stream, followed by a
   fiber on the dispatcher's reactor (follow_upstream). *)
type upstream = {
  uhost : string;
  uport : int;
  engine : Replica.t;
  mutable client : Client.t option;  (* the latest link; closed when done *)
}

(* A COMMIT whose Ack is owed: staged in the open window until its
   batch is forced, then held until every live subscriber has applied
   past its LSN (semi-synchronous replication). *)
type owed = {
  conn : conn;
  id : int64;
  t0 : float;  (* before the apply: the commit's latency starts here *)
  apply_io : int;  (* device I/Os of the apply; the force's share adds on *)
  mutable ack : (int * Protocol.response) option;
      (* [Some (lsn, Ack)] once the batch is forced *)
}

type t = {
  cfg : config;
  sh : Session.shared;
  st : Server_stats.t;
  l : Listener.t;
  reactor : Reactor.t;  (* the listener's *)
  mutable conns : conn list;
  mutable subs : conn list;  (* the conns with [repl_from <> None] *)
  mutable owed : owed list;
      (* newest first; the unforced ones — the open window — are a
         prefix, since a force covers everything staged before it *)
  mutable commit_timer : Reactor.timer option;  (* window-close timer *)
  upstream : upstream option;  (* Some _ iff cfg.replica_of is set *)
}

let create ?(config = default_config) sh =
  let l =
    Listener.create ~host:config.host ~port:config.port
      ~metrics_port:config.metrics_port
  in
  (* Slow-query logging reports the request's trace tree, so the tracer
     must be on for the spans to exist. *)
  if config.slow_query_ms > 0. then Obs.Trace.set_enabled true;
  let upstream =
    match config.replica_of with
    | None -> None
    | Some (uhost, uport) ->
        if not (Session.durable sh) then
          invalid_arg "Dispatcher.create: a replica must be durable";
        (* A standby never accepts local mutations: every write must
           arrive through the journal stream, or primary and replica
           histories fork. Session.reload carries the flag across
           applied batches. *)
        Relation.Catalog.degrade (Session.catalog sh)
          (Printf.sprintf "replica of %s:%d (serving reads only)" uhost
             uport);
        Some
          { uhost; uport; engine = Replica.create (); client = None }
  in
  {
    cfg = config;
    sh;
    st = Server_stats.create ~now:(Unix.gettimeofday ());
    l;
    reactor = Listener.reactor l;
    conns = [];
    subs = [];
    owed = [];
    commit_timer = None;
    upstream;
  }

let port t = Listener.port t.l
let reactor t = t.reactor
let metrics_port t = Listener.metrics_port t.l
let stats t = t.st
let shared t = t.sh

let subscribers t = List.filter (fun c -> not c.io.closing) t.subs

let metrics_doc t =
  let repl =
    match t.upstream with
    | Some u ->
        Some
          {
            Metrics.r_role = "replica";
            r_lag_bytes = Replica.lag_bytes u.engine;
            r_applied_lsn = Replica.applied_lsn u.engine;
            r_durable_lsn = Replica.primary_lsn u.engine;
            r_subscribers = 0;
          }
    | None ->
        if Session.durable t.sh then
          let lsn = Session.durable_lsn_shared t.sh in
          Some
            {
              Metrics.r_role = "primary";
              r_lag_bytes = 0;
              r_applied_lsn = lsn;
              r_durable_lsn = lsn;
              r_subscribers = List.length (subscribers t);
            }
        else None
  in
  Metrics.render ?repl ~now:(Unix.gettimeofday ()) ~stats:t.st
    ~cat:(Session.catalog t.sh) ~memtier:(Session.memtier t.sh)
    ~txns:(Session.txns t.sh) ()

let stop t = Listener.stop t.l
let release_listener t = Listener.release t.l

(* ---------------- output ---------------- *)

(* The high-water cut-off closes the connection, so the rest of its
   input is never decoded. Replication subscribers are exempt: shipping
   is flow-controlled in [pump_replication], and a standby that stops
   draining is closed at its stall deadline ({!Conn}): it would hold
   the semi-sync ack floor down, and it resubscribes from its applied
   LSN on reconnect, losing nothing. *)
let cut_off t conn () =
  conn.repl_from = None
  && begin
       Server_stats.overloaded t.st;
       true
     end

(* ---------------- replication fan-out (primary side) ---------------- *)

(* Ship newly durable journal bytes to every subscriber, chunked well
   under the frame payload cap. Bytes go out in LSN order on each
   connection, so a subscriber's stream is always a contiguous prefix.
   Shipping is flow-controlled by the subscriber's bounded writer: a
   standby that stops draining keeps its cursor parked (and is
   closed at its stall deadline) instead of growing an
   unbounded buffer or wedging the loop — other subscribers and the
   semi-sync ack path continue unimpeded. *)
let repl_chunk_bytes = 1 lsl 20

let pump_replication t =
  match Relation.Catalog.journal (Session.catalog t.sh) with
  | None -> ()
  | Some j ->
      let dur = Storage.Journal.durable_lsn j in
      List.iter
        (fun conn ->
          match conn.repl_from with
          | Some cur when cur < dur && not conn.io.closing ->
              let cursor = ref cur in
              while
                !cursor < dur
                && Reactor.Writer.pending_bytes conn.io.wr
                   < Reactor.Writer.high_water conn.io.wr
              do
                let payload =
                  Storage.Journal.stream_from ~max_bytes:repl_chunk_bytes j
                    !cursor
                in
                Conn.send conn.io ~id:conn.repl_id
                  (Protocol.Repl_frame
                     { lsn = !cursor;
                       payload = Bytes.unsafe_to_string payload });
                cursor := !cursor + Bytes.length payload
              done;
              conn.repl_from <- Some !cursor;
              Conn.flush conn.io;
              Conn.maybe_close conn.io
          | _ -> ())
        t.subs

(* ---------------- owed commit Acks ---------------- *)

(* Write a forced COMMIT's Ack with [write] ({!Conn.reply} or
   {!Conn.send}). *)
let answer write o =
  match o.ack with Some (_, resp) -> write o.conn.io ~id:o.id resp | None -> ()

(* Answer every owed Ack whose batch is forced and whose LSN every live
   subscriber has acknowledged applying. With no subscribers left the
   floor is +inf: every forced Ack goes out (asynchronous fallback — a
   dead standby must not wedge the primary's commits forever). The
   write is durable locally before its Ack waits here, so a primary
   crash between force and Ack loses nothing a client was told was
   committed, and a replica promoted after a primary kill holds every
   acked write. *)
let release_acks t =
  if t.owed <> [] then begin
    let floor =
      List.fold_left (fun acc c -> min acc c.repl_acked) max_int (subscribers t)
    in
    let ready, still =
      List.partition
        (fun o ->
          match o.ack with Some (lsn, _) -> lsn <= floor | None -> false)
        t.owed
    in
    t.owed <- still;
    List.iter (answer Conn.reply) (List.rev ready)
  end

let device_stats t =
  Storage.Block_device.Stats.get
    (Relation.Catalog.device (Session.catalog t.sh))

(* Physical I/Os so far, read as before/after deltas (never reset). *)
let device_io t =
  let s = device_stats t in
  s.Storage.Block_device.Stats.reads + s.Storage.Block_device.Stats.writes

(* ---------------- group-commit window ---------------- *)

let window_open t =
  match t.owed with { ack = None; _ } :: _ -> true | _ -> false

let clear_commit_timer t =
  match t.commit_timer with
  | Some tm ->
      Reactor.cancel t.reactor tm;
      t.commit_timer <- None
  | None -> ()

(* Close the group-commit window: one marker and one log force cover
   every staged COMMIT. Each is recorded with its latency from before
   its apply and its apply's I/O plus a share of the force's, and its
   Ack is released as the subscribers allow. No requester was answered
   before this point, so a crash inside the window loses nothing a
   client was told is durable. *)
let close_window t =
  if window_open t then begin
    clear_commit_timer t;
    let io0 = device_io t in
    let forced = Session.commit_force_shared t.sh in
    let io = device_io t - io0 in
    let staged = List.filter (fun o -> o.ack = None) t.owed in
    let count = List.length staged in
    let share = io / count in
    let now = Unix.gettimeofday () in
    let lsn = Session.durable_lsn_shared t.sh in
    let ack =
      match forced with
      | Error frame -> frame
      | Ok batch when t.cfg.group_commit > 0. ->
          Protocol.Ack
            (Printf.sprintf "committed (group commit batch of %d) lsn %d" batch
               lsn)
      | Ok _ -> Protocol.Ack (Printf.sprintf "committed lsn %d" lsn)
    in
    (* newest first: the oldest carries the division's remainder *)
    List.iteri
      (fun i o ->
        let io = if i = count - 1 then io - (share * (count - 1)) else share in
        Server_stats.record t.st ~op:"commit" ~seconds:(now -. o.t0)
          ~io:(o.apply_io + io);
        o.ack <- Some (lsn, ack))
      staged;
    release_acks t
  end

(* Runs after every executed request and every window close. The
   window's deadline is a timer; this is the early close — as soon as
   no live session holds buffered writes, no further COMMIT can join
   the batch and waiting only delays the acknowledgements (the
   commit-siblings rule). Then ship whatever the force or a buffer-pool
   write-back made durable. *)
let settle t =
  let writing c =
    (not c.io.closing) && Session.has_pending_writes c.session
  in
  if window_open t && not (List.exists writing t.conns) then close_window t;
  pump_replication t

(* ---------------- connection lifecycle ---------------- *)

(* Conn closed the socket: forget everything the connection held. *)
let forget t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.subs <- List.filter (fun c -> c != conn) t.subs;
  (* Acks owed to the dead connection are owed to nobody, and the
     latency of its staged COMMITs must not pollute the histogram. A
     staged intent is already applied and must still be forced — if no
     live staging remains to carry the window, force it now rather than
     leaving acknowledged-to-nobody writes hanging on a deadline that
     was just cleared. *)
  let staged = window_open t in
  t.owed <- List.filter (fun o -> o.conn != conn) t.owed;
  if staged && not (window_open t) then begin
    clear_commit_timer t;
    ignore (Session.commit_force_shared t.sh);
    pump_replication t
  end;
  Session.close conn.session;
  Server_stats.session_closed t.st;
  (* A dead subscriber no longer holds the ack floor down; recompute
     it over the survivors (or release everything if none remain). *)
  if conn.repl_from <> None then release_acks t

(* ---------------- execution ---------------- *)

(* Slow-query logging must never stall the event loop: the span tree is
   rendered under a byte cap (a pathological plan can hold thousands of
   spans) and written best-effort — if stderr's pipe is full (a wedged
   log collector), the entry is dropped and counted rather than parking
   every session behind a blocking write. *)
let slow_query_max_bytes = 4096
let slow_queries_dropped = ref 0

let log_slow_query t ~seconds sp =
  let doc =
    Printf.sprintf "[slow query] %.1f ms (threshold %.1f ms)\n%s"
      (seconds *. 1000.) t.cfg.slow_query_ms
      (Obs.Trace.render ~max_bytes:slow_query_max_bytes sp)
  in
  let writable =
    try Reactor.wait_fd Unix.stderr `Write ~timeout:0.
    with _ -> false
  in
  if not writable then incr slow_queries_dropped
  else
    (* One capped write; a short write (the pipe filled mid-entry) loses
       the tail of this entry only, never progress. *)
    match Unix.write_substring Unix.stderr doc 0 (String.length doc) with
    | _ -> ()
    | exception Unix.Unix_error _ -> incr slow_queries_dropped

(* The replication ops live in the dispatcher, not the session: they
   concern connections and the shared journal, never a session's
   transaction. *)
let handle_repl t conn id req =
  match req with
  | Protocol.Repl_subscribe { from_lsn } -> (
      if t.upstream <> None then
        Conn.reply conn.io ~id
          (Protocol.Error "this server is a replica; subscribe to the primary")
      else
        match Relation.Catalog.journal (Session.catalog t.sh) with
        | None ->
            Conn.reply conn.io ~id
              (Protocol.Error "replication requires a durable server")
        | Some j ->
            let base = Storage.Journal.base_lsn j in
            let dur = Storage.Journal.durable_lsn j in
            if from_lsn < base || from_lsn > dur then
              Conn.reply conn.io ~id
                (Protocol.Invalid
                   (Printf.sprintf
                      "from_lsn %d outside retained log [%d, %d]" from_lsn
                      base dur))
            else begin
              if conn.repl_from = None then begin
                t.subs <- conn :: t.subs;
                (* a subscriber sends nothing for long stretches on an
                   idle primary: no idle deadline, the standard stall
                   grace *)
                conn.io.idle_timeout <- 0.
              end;
              conn.repl_from <- Some from_lsn;
              conn.repl_id <- id;
              conn.repl_acked <- from_lsn;
              Conn.reply conn.io ~id
                (Protocol.Repl_state
                   { role = Protocol.Primary; durable_lsn = dur;
                     applied_lsn = dur })
            end)
  | Protocol.Repl_ack { lsn } ->
      (* Fire-and-forget: no response frame. Only meaningful from a
         subscribed connection; raising the floor may free parked
         commit Acks. *)
      if conn.repl_from <> None && lsn > conn.repl_acked then begin
        conn.repl_acked <- lsn;
        release_acks t
      end
  | Protocol.Repl_status ->
      let state =
        match t.upstream with
        | Some u ->
            Protocol.Repl_state
              { role = Protocol.Replica;
                durable_lsn = Replica.primary_lsn u.engine;
                applied_lsn = Replica.applied_lsn u.engine }
        | None ->
            let lsn = Session.durable_lsn_shared t.sh in
            Protocol.Repl_state
              { role = Protocol.Primary; durable_lsn = lsn;
                applied_lsn = lsn }
      in
      Conn.reply conn.io ~id state
  | Protocol.Shard_map_req ->
      (* An unsharded server is a degenerate one-shard cluster: a single
         range covering the whole interval space. Clients discover
         topology the same way against rikitd and the router. *)
      Conn.reply conn.io ~id
        (Protocol.Shard_map
           [ { Protocol.shard_lo = min_int; shard_hi = max_int;
               endpoints = [ (t.cfg.host, port t) ] } ])
  | _ -> assert false

(* Apply and stage a COMMIT, owing its Ack to the window's close. At
   window 0 the window closes — one force — before the request returns;
   otherwise the first COMMIT into it arms the deadline. A refusal
   (Conflict, Read_only, Error) staged nothing and is answered now. *)
let commit t conn id ~t0 ~io0 =
  match Session.stage_commit conn.session with
  | Error resp -> Some resp
  | Ok () ->
      t.owed <-
        { conn; id; t0; apply_io = device_io t - io0; ack = None } :: t.owed;
      if t.cfg.group_commit = 0. then close_window t
      else if t.commit_timer = None then
        t.commit_timer <-
          Some
            (Reactor.after t.reactor t.cfg.group_commit (fun () ->
                 t.commit_timer <- None;
                 close_window t;
                 settle t));
      None

let execute t conn id req =
  match req with
  | Protocol.Repl_subscribe _ | Protocol.Repl_ack _ | Protocol.Repl_status
  | Protocol.Shard_map_req ->
      handle_repl t conn id req
  | req ->
      (* A rollback must not outrun COMMITs already staged ahead of it:
         force the open batch first, then let it run. *)
      if req = Protocol.Rollback then close_window t;
      let op = Protocol.request_op_name req in
      let t0 = Unix.gettimeofday () and io0 = device_io t in
      let resp, span =
        match req with
        | Protocol.Stats ->
            ( Some
                (Protocol.Stats_reply
                   (Server_stats.snapshot t.st ~now:t0 ~io:(device_stats t))),
              None )
        | Protocol.Metrics -> (Some (Protocol.Ack (metrics_doc t)), None)
        | req ->
            (* The root span of the request's trace tree; [traced]
               returns it only when tracing is enabled. *)
            Obs.Trace.traced ~info:op "request" (fun () ->
                match req with
                | Protocol.Commit -> commit t conn id ~t0 ~io0
                | req -> Some (Session.handle conn.session req))
      in
      let seconds = Unix.gettimeofday () -. t0 in
      (* an owed COMMIT is recorded when its window closes *)
      Option.iter
        (fun resp ->
          Server_stats.record t.st ~op ~seconds ~io:(device_io t - io0);
          Conn.reply conn.io ~id resp)
        resp;
      match span with
      | Some sp
        when t.cfg.slow_query_ms > 0.
             && seconds *. 1000. >= t.cfg.slow_query_ms ->
          log_slow_query t ~seconds sp
      | _ -> ()

(* Each request runs in the [Conn.frames] callback that decoded it. *)
let on_request t conn id req =
  execute t conn id req;
  settle t

let accept t fd =
  let io =
    Conn.create t.reactor ~high_water:t.cfg.write_high_water
      ~idle_timeout:t.cfg.idle_timeout fd
  in
  let conn =
    { io; session = Session.create t.sh; repl_from = None; repl_id = 0L;
      repl_acked = 0 }
  in
  t.conns <- conn :: t.conns;
  Conn.serve io ~on_cut_off:(cut_off t conn)
    ~on_close:(fun () -> forget t conn)
    (Conn.frames io (on_request t conn))

(* ---------------- the upstream link (replica side) ---------------- *)

let retry_delay = 0.2

(* Follow the primary until the server stops: dial, subscribe from the
   LSN applied so far, apply the frames and acknowledge each applied
   batch. A transport error, a gap or a refused subscription hangs up,
   pauses and redials; a record half-received when a link died is
   refetched (Replica.reset drops the buffered tail), so a torn frame
   never desyncs the apply position. A fiber on the dispatcher's
   reactor: every wait parks it, so an unresponsive primary costs the
   loop nothing. *)
let follow_upstream t u =
  let rec stream c =
    match Client.recv c with
    | Protocol.Repl_state { durable_lsn; _ } ->
        Replica.note_primary u.engine durable_lsn;
        stream c
    | Protocol.Repl_frame { lsn; payload } -> (
        let device = Relation.Catalog.device (Session.catalog t.sh) in
        match Replica.feed u.engine device ~lsn payload with
        | Ok 0 -> stream c
        | Ok _batches ->
            (* Rebind catalog and tree handles so readers see the new
               batches, then release the primary's semi-sync acks. *)
            Session.reload t.sh;
            Client.send c
              (Protocol.Repl_ack { lsn = Replica.applied_lsn u.engine });
            stream c
        | Result.Error msg ->
            Printf.eprintf
              "rikitd: replication stream broken (%s), redialling\n%!" msg)
    | Protocol.Error m | Protocol.Invalid m ->
        Printf.eprintf "rikitd: primary refused subscription: %s\n%!" m
    | _ -> stream c
  in
  while not (Listener.stopping t.l) do
    (try
       let c =
         Client.connect ~host:u.uhost ~deadline_ms:250. ~port:u.uport ()
       in
       u.client <- Some c;
       Client.send c
         (Protocol.Repl_subscribe { from_lsn = Replica.reset u.engine });
       stream c
     with Client.Io_error _ | Client.Timed_out _ | Client.Undecodable _
        | Unix.Unix_error _ -> ());
    Option.iter Client.close u.client;
    if not (Listener.stopping t.l) then Reactor.sleep retry_delay
  done

(* ---------------- the loop ---------------- *)

(* After the last turn every request decoded has been answered or
   staged: force the open window, ship it, send every owed Ack as-is
   (their writes are durable locally and the stream to any subscriber
   was just pumped), push the last bytes out (sockets willing) and
   close. *)
let drain t =
  close_window t;
  pump_replication t;
  List.iter (answer Conn.send) (List.rev t.owed);
  t.owed <- [];
  List.iter
    (fun conn ->
      Conn.flush conn.io;
      Conn.close conn.io)
    t.conns

let serve t =
  (* A served request leaves next to nothing on the major heap: what
     the major GC collects is the data in flight that each minor
     collection promotes, and the heap grows by the space overhead's
     allowance of it before a cycle frees any. So little is promoted
     that collecting at 40 (OCaml 5 defaults to 120) costs no measured
     throughput, and it holds a hot-point server's peak RSS about 7 %
     lower than 80 does. Set here, after the preload. *)
  Gc.set { (Gc.get ()) with space_overhead = 40 };
  Option.iter
    (fun u -> Reactor.spawn t.reactor (fun () -> follow_upstream t u))
    t.upstream;
  Listener.serve t.l ~max_sessions:t.cfg.max_sessions ~stats:t.st
    ~metrics_doc:(fun () -> metrics_doc t)
    ~accept:(accept t)
    ~drain:(fun () -> drain t);
  (* A follower parked mid-wait is abandoned with the loop. *)
  Option.iter (fun u -> Option.iter Client.close u.client) t.upstream;
  Session.flush_shared t.sh
