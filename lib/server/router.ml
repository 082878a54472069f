(* The router tier: the structural fix for head-of-line blocking.

   The interval space is partitioned into contiguous ranges along the
   RI-tree's virtual backbone (split points are backbone node values,
   so an interval strictly inside a shard's range forks inside that
   shard's subtree forest — the paper's natural partition points). One
   rikitd process serves each range; the router fans queries out to the
   shards whose ranges overlap the query extent and merges the streams.
   A multi-second scan then pins one shard process while every other
   shard — and the router itself — keeps answering.

   Placement rule: an interval is stored on EVERY shard whose range its
   extent overlaps (boundary spanners are replicated, identified by
   their (lower, upper, id) triple at merge). Correctness of
   scatter-gather follows from ranges partitioning the integer line: a
   match m of a query with bounding extent E satisfies m ∩ E ≠ ∅, and
   the shard owning any point of m ∩ E both stores m and is a fan-out
   target.

   Concurrency: ONE OS thread. The reactor owns every client socket
   (framing, buffered writes, backpressure, metrics scrapes), and each
   request that talks to a shard runs as a reactor fiber
   ({!Reactor.spawn}) that parks on every shard wait — connect,
   response, failover pause. Each connection's requests execute one at
   a time in arrival order (at most one fiber per connection; the rest
   queue), while a scatter runs its legs as sibling fibers
   ({!Reactor.all}), so a slow or black-holed shard delays only the
   connections waiting on it. Each connection keeps one {!Failover}
   leg per shard — per-request deadlines, endpoint rotation towards a
   standby, and per-shard read-your-writes LSN tokens all come from
   that machinery. A shard that stays unreachable through failover
   degrades the answer to a typed [Partial] frame, never a hang. *)

(* ---------------- the shard map ---------------- *)

module Map = struct
  type t = {
    ranges : (int * int) array;  (* inclusive, contiguous, ascending *)
    eps : (string * int) list array;
  }

  let floor_pow2 n =
    let rec go p = if p * 2 <= n then go (p * 2) else p in
    go 1

  (* Split points aligned to the virtual backbone: every cut is a
     multiple of a power-of-two granularity g, i.e. a backbone node
     value at level log2 g (Backbone.level), chosen nearest to the
     equal-width ideal so uniform load stays balanced even when
     [domain_max + 1] is not a power of two. *)
  let backbone_cuts ~domain_max ~shards =
    if shards < 1 then invalid_arg "Router.Map.backbone_cuts: shards < 1";
    if domain_max < 1 then invalid_arg "Router.Map.backbone_cuts: domain_max < 1";
    let span = domain_max + 1 in
    let g = floor_pow2 (max 1 (span / (2 * shards))) in
    let cuts = ref [] in
    for i = shards - 1 downto 1 do
      let ideal = i * span / shards in
      let cut = (ideal + (g / 2)) / g * g in
      let cut = max 1 (min cut domain_max) in
      cuts := cut :: !cuts
    done;
    let rec ascending last = function
      | [] -> []
      | c :: tl -> if c > last then c :: ascending c tl else ascending last tl
    in
    ascending min_int !cuts

  let create ~cuts ~endpoints =
    let k = List.length endpoints in
    if k = 0 then invalid_arg "Router.Map.create: no shards";
    if List.length cuts <> k - 1 then
      invalid_arg "Router.Map.create: need exactly one cut per shard boundary";
    ignore
      (List.fold_left
         (fun prev c ->
           if c <= prev then
             invalid_arg "Router.Map.create: cuts must be strictly increasing";
           c)
         min_int cuts);
    let cuts_a = Array.of_list cuts in
    let ranges =
      Array.init k (fun i ->
          let lo = if i = 0 then min_int else cuts_a.(i - 1) in
          let hi = if i = k - 1 then max_int else cuts_a.(i) - 1 in
          (lo, hi))
    in
    { ranges; eps = Array.of_list endpoints }

  let shards t = Array.length t.ranges
  let range t i = t.ranges.(i)
  let endpoints t i = t.eps.(i)

  let entries t =
    Array.to_list
      (Array.mapi
         (fun i (lo, hi) ->
           { Protocol.shard_lo = lo; shard_hi = hi; endpoints = t.eps.(i) })
         t.ranges)

  (* Shard indices whose ranges overlap [lower, upper], ascending. The
     ranges are contiguous, so this is always a consecutive run. *)
  let targets t ~lower ~upper =
    let out = ref [] in
    Array.iteri
      (fun i (lo, hi) -> if lower <= hi && upper >= lo then out := i :: !out)
      t.ranges;
    List.rev !out

  let owner t point =
    let rec go i =
      if i >= Array.length t.ranges - 1 then Array.length t.ranges - 1
      else
        let _, hi = t.ranges.(i) in
        if point <= hi then i else go (i + 1)
    in
    go 0

  (* Conservative bounding extent for the stored matches of an Allen
     query [q] (matches m satisfy [holds r m q], stored first): the
     eleven intersection-implying relations force m to overlap q, while
     Before/Meets (m ends at or before q's start) and After/Met_by
     (m starts at or after q's end) bound m to one side. [None] means
     no interval can match (the extent is empty at the domain edge). *)
  let allen_extent r ~lower ~upper =
    match r with
    | Interval.Allen.Before ->
        if lower = min_int then None else Some (min_int, lower - 1)
    | Interval.Allen.Meets -> Some (min_int, lower)
    | Interval.Allen.After ->
        if upper = max_int then None else Some (upper + 1, max_int)
    | Interval.Allen.Met_by -> Some (upper, max_int)
    | _ -> Some (lower, upper)

  (* Merge scattered result sets: replicated boundary spanners come back
     from several shards as identical (lower, upper, id) triples — keep
     one — and the union is re-sorted so the merged answer is
     deterministic regardless of shard arrival order. *)
  let merge_rows lists =
    let seen = Hashtbl.create 256 in
    let keep (row : int array) =
      if Array.length row < 3 then true
      else begin
        let key = (row.(0), row.(1), row.(2)) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end
      end
    in
    let rows = List.concat_map (List.filter keep) lists in
    List.sort
      (fun (a : int array) (b : int array) ->
        if Array.length a < 3 || Array.length b < 3 then compare a b
        else compare (a.(0), a.(1), a.(2)) (b.(0), b.(1), b.(2)))
      rows
end

(* ---------------- the router server ---------------- *)

type config = {
  host : string;
  port : int;  (* 0 binds an ephemeral port; see [port] *)
  max_sessions : int;
  shard_deadline_ms : float;
      (* per-request budget for each shard leg; a partitioned shard
         surfaces as a typed Partial after at most roughly this long *)
  metrics_port : int option;
}

let default_config =
  { host = "127.0.0.1"; port = 7654; max_sessions = 64;
    shard_deadline_ms = 15_000.; metrics_port = None }

(* ---------------- per-connection state ---------------- *)

type conn = {
  io : Conn.t;
  legs : Failover.t option array;  (* lazily dialled, one per shard *)
  begun : bool array;  (* leg has an open BEGIN on its shard session *)
  mutable in_txn : bool;
  jobs : (int64 * Protocol.request) Queue.t;
      (* decoded requests waiting their turn *)
  mutable inflight : bool;  (* a fiber owns this connection's head job *)
}

type t = {
  cfg : config;
  map : Map.t;
  l : Listener.t;
  reactor : Reactor.t;  (* the listener's *)
  st : Server_stats.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable orphans : conn list;
      (* closed while their job's fiber still holds the legs *)
  shard_lsn : int array;
      (* highest commit LSN acked per shard, router-global: a fresh
         connection's legs are seeded with these so read-your-writes
         holds across clients that observe each other's commits *)
  shard_rpcs : int array;
  shard_errors : int array;
  mutable partials : int;
}

let create cfg ~map =
  let l =
    Listener.create ~host:cfg.host ~port:cfg.port
      ~metrics_port:cfg.metrics_port
  in
  let k = Map.shards map in
  {
    cfg;
    map;
    l;
    reactor = Listener.reactor l;
    st = Server_stats.create ~now:(Unix.gettimeofday ());
    conns = Hashtbl.create 64;
    orphans = [];
    shard_lsn = Array.make k 0;
    shard_rpcs = Array.make k 0;
    shard_errors = Array.make k 0;
    partials = 0;
  }

let port t = Listener.port t.l
let reactor t = t.reactor
let metrics_port t = Listener.metrics_port t.l
let stats t = t.st
let map t = t.map
let stop t = Listener.stop t.l

let metrics_doc t =
  let shards =
    Array.init (Map.shards t.map) (fun i ->
        let lo, hi = Map.range t.map i in
        { Metrics.s_lo = lo; s_hi = hi;
          s_endpoints = Map.endpoints t.map i;
          s_lsn = t.shard_lsn.(i);
          s_rpcs = t.shard_rpcs.(i);
          s_errors = t.shard_errors.(i) })
  in
  Metrics.render_router ~now:(Unix.gettimeofday ()) ~stats:t.st ~shards
    ~partials:t.partials ()

(* ---------------- shard legs (job fibers) ---------------- *)

(* The connection's leg to shard [i], dialled lazily. A fresh leg is
   seeded with the router-global LSN token for that shard, so even a
   brand-new connection only adopts an endpoint that has applied every
   commit the router ever acked there. Only the fiber running the
   connection's in-flight job touches its legs — a scatter's sibling
   fibers each touch only their own shard's. *)
let leg t conn i =
  match conn.legs.(i) with
  | Some l -> l
  | None ->
      let l =
        Failover.create ~deadline_ms:t.cfg.shard_deadline_ms
          ~endpoints:(Map.endpoints t.map i) ()
      in
      Failover.note_lsn l t.shard_lsn.(i);
      conn.legs.(i) <- Some l;
      l

(* An open client transaction pins each shard's snapshot lazily, at the
   transaction's first touch of that shard (documented semantics: the
   per-shard snapshots are taken at first use, not all at BEGIN). *)
let ensure_begun conn l i =
  if conn.in_txn && not conn.begun.(i) then
    match Failover.begin_txn l with
    | Ok () ->
        conn.begun.(i) <- true;
        Ok ()
    | Result.Error _ as e -> e
  else Ok ()

let note_shard_result t i ok =
  t.shard_rpcs.(i) <- t.shard_rpcs.(i) + 1;
  if not ok then t.shard_errors.(i) <- t.shard_errors.(i) + 1

let record_shard t i ~seconds =
  Server_stats.record t.st ~op:(Printf.sprintf "shard:%d" i) ~seconds ~io:0

(* One RPC to shard [i] on this connection's leg, with per-shard
   latency recorded under op "shard:<i>". Reads retry across the
   shard's endpoints; mutations keep Failover's contract — a mid-flight
   transport death is ambiguous and comes back as the typed error. *)
let shard_rpc t conn i ~mutation req =
  let t0 = Unix.gettimeofday () in
  let l = leg t conn i in
  let res =
    match ensure_begun conn l i with
    | Result.Error _ as e -> e
    | Ok () ->
        let run = if mutation then Failover.mutate else Failover.read in
        run l (fun c -> Client.rpc_result c req)
  in
  record_shard t i ~seconds:(Unix.gettimeofday () -. t0);
  note_shard_result t i (Result.is_ok res);
  res

(* Commit this connection's transaction on shard [i]; the leg notes the
   ack LSN and the router lifts it into the global per-shard token. *)
let shard_commit t conn i =
  let t0 = Unix.gettimeofday () in
  let l = leg t conn i in
  let res = Failover.commit l in
  record_shard t i ~seconds:(Unix.gettimeofday () -. t0);
  (match res with
  | Ok lsn -> if lsn > t.shard_lsn.(i) then t.shard_lsn.(i) <- lsn
  | Result.Error _ -> ());
  note_shard_result t i (Result.is_ok res);
  res

let count_partial t = t.partials <- t.partials + 1

(* Map a leg's typed error back onto the wire. Transport-level failures
   (the shard stayed unreachable through failover) become the typed
   partial-result frame; semantic verdicts pass through unchanged. *)
let response_of_error t missing e =
  match (e : Client.error) with
  | Client.Io m | Client.Timeout m ->
      count_partial t;
      Protocol.Partial { missing; msg = m }
  | Client.Server m -> Protocol.Error m
  | Client.Invalid m -> Protocol.Invalid m
  | Client.Overloaded m -> Protocol.Overloaded m
  | Client.Read_only m -> Protocol.Read_only m
  | Client.Conflict m -> Protocol.Conflict m
  | Client.Partial { missing; msg } -> Protocol.Partial { missing; msg }
  | Client.Unexpected m -> Protocol.Error m

(* Scatter a read to every target shard at once: each leg is a sibling
   fiber under the ordinary {!Failover.read} retry contract, so a slow
   or dead shard delays only this connection's merge. *)
let scatter t conn targets req =
  Reactor.all
    (List.map
       (fun i () -> (i, shard_rpc t conn i ~mutation:false req))
       targets)

let default_columns = [ "lower"; "upper"; "id" ]

(* Gather scattered query answers into one response. Precedence: a
   semantic verdict from any shard (Error/Invalid/...) is forwarded
   first — it is deterministic and would have been the single-node
   answer; then unreachable shards degrade the answer to Partial; only
   a full sweep merges. *)
let gather_query t conn req extent =
  match extent with
  | None -> Protocol.Rows { columns = default_columns; rows = [] }
  | Some (lo, hi) -> (
      let targets = Map.targets t.map ~lower:lo ~upper:hi in
      let results = scatter t conn targets req in
      let verdict =
        List.find_map
          (function
            | _, Ok (Protocol.Rows _) -> None
            | _, Ok r -> Some r
            | _ -> None)
          results
      in
      match verdict with
      | Some r -> r
      | None -> (
          let missing =
            List.filter_map
              (function i, Result.Error _ -> Some i | _ -> None)
              results
          in
          match missing with
          | _ :: _ ->
              let msg =
                List.find_map
                  (function
                    | _, Result.Error e -> Some (Client.error_to_string e)
                    | _ -> None)
                  results
                |> Option.value ~default:"shard unreachable"
              in
              count_partial t;
              Protocol.Partial { missing; msg }
          | [] ->
              let columns =
                List.find_map
                  (function
                    | _, Ok (Protocol.Rows { columns; _ }) -> Some columns
                    | _ -> None)
                  results
                |> Option.value ~default:default_columns
              in
              let rows =
                List.filter_map
                  (function
                    | _, Ok (Protocol.Rows { rows; _ }) -> Some rows
                    | _ -> None)
                  results
              in
              (* A fan-out-1 query cannot see a spanner twice — forward
                 the shard's rows verbatim instead of paying the dedup
                 hash on the common (range-local) case. *)
              match rows with
              | [ only ] -> Protocol.Rows { columns; rows = only }
              | _ -> Protocol.Rows { columns; rows = Map.merge_rows rows }))

let trailing_int msg =
  int_of_string_opt (List.hd (List.rev (String.split_on_char ' ' msg)))

(* Insert: the owning shard (the first whose range the extent overlaps)
   assigns the id, then the row is replicated to every other
   overlapping shard under that id — so replicas of one logical row
   carry one identity and collapse at merge time. *)
let handle_insert t conn ~lower ~upper ~id:iid =
  let targets = Map.targets t.map ~lower ~upper in
  let own = List.hd targets in
  let req = Protocol.Insert { lower; upper; id = iid } in
  match shard_rpc t conn own ~mutation:true req with
  | Result.Error e -> response_of_error t [ own ] e
  | Ok (Protocol.Ack msg as ack) -> (
      let rest = List.tl targets in
      if rest = [] then ack
      else
        let assigned =
          match iid with Some v -> Some v | None -> trailing_int msg
        in
        match assigned with
        | None -> Protocol.Error ("unparseable insert ack from owner: " ^ msg)
        | Some aid ->
            let replica = Protocol.Insert { lower; upper; id = Some aid } in
            let missing =
              List.filter_map
                (fun i ->
                  match shard_rpc t conn i ~mutation:true replica with
                  | Ok (Protocol.Ack _) -> None
                  | Ok _ | Result.Error _ -> Some i)
                rest
            in
            if missing = [] then ack
            else begin
              count_partial t;
              Protocol.Partial
                { missing;
                  msg =
                    Printf.sprintf
                      "inserted id %d on the owning shard but not every \
                       boundary shard"
                      aid }
            end)
  | Ok other -> other

let handle_delete t conn ~lower ~upper ~id:iid =
  let targets = Map.targets t.map ~lower ~upper in
  let req = Protocol.Delete { lower; upper; id = iid } in
  let results =
    List.map (fun i -> (i, shard_rpc t conn i ~mutation:true req)) targets
  in
  match results with
  | [] -> Protocol.Invalid "no shard covers the interval"
  | (own, own_res) :: rest -> (
      match own_res with
      | Result.Error e -> response_of_error t [ own ] e
      | Ok own_resp ->
          let missing =
            List.filter_map
              (function i, Result.Error _ -> Some i | _ -> None)
              rest
          in
          if missing = [] then own_resp
          else begin
            count_partial t;
            Protocol.Partial
              { missing;
                msg = "deleted on the owning shard but not every boundary shard"
              }
          end)

(* COMMIT/ROLLBACK fan to every leg this connection ever dialled: a leg
   holds that shard's session (its implicit transaction and any BEGUN
   snapshot), and closing the transaction on an untouched shard is
   harmless. The legs run as sibling fibers, as a scatter's do, so a
   COMMIT waits for its slowest shard (a standby's ack included), not
   for the sum; results come back in leg order, so the answer does not
   depend on which shard finished first. Cross-shard commits are NOT
   atomic — each shard commits independently (first-committer-wins
   locally); a Conflict or an unreachable shard after others committed
   is reported as-is. *)
let dialled_legs t conn =
  List.filter_map
    (fun i -> if conn.legs.(i) <> None then Some i else None)
    (List.init (Map.shards t.map) Fun.id)

(* Run [f i] on every dialled leg at once; [(i, result)] in leg order. *)
let on_legs t conn f =
  Reactor.all (List.map (fun i () -> (i, f i)) (dialled_legs t conn))

let handle_commit t conn =
  let results = on_legs t conn (shard_commit t conn) in
  conn.in_txn <- false;
  Array.fill conn.begun 0 (Array.length conn.begun) false;
  let conflict =
    List.find_map
      (function _, Result.Error (Client.Conflict m) -> Some m | _ -> None)
      results
  in
  match conflict with
  | Some m -> Protocol.Conflict m
  | None -> (
      let missing =
        List.filter_map
          (function i, Result.Error _ -> Some i | _ -> None)
          results
      in
      match missing with
      | _ :: _ ->
          count_partial t;
          Protocol.Partial
            { missing; msg = "commit not acknowledged by every shard" }
      | [] ->
          let lsn =
            List.fold_left
              (fun acc -> function _, Ok l -> max acc l | _ -> acc)
              0 results
          in
          Protocol.Ack (Printf.sprintf "committed lsn %d" lsn))

let handle_rollback t conn =
  let results = on_legs t conn (fun i -> Failover.rollback (leg t conn i)) in
  conn.in_txn <- false;
  Array.fill conn.begun 0 (Array.length conn.begun) false;
  let missing =
    List.filter_map (function i, Result.Error _ -> Some i | _ -> None) results
  in
  if missing = [] then Protocol.Ack "rolled back"
  else begin
    count_partial t;
    Protocol.Partial { missing; msg = "rollback not acknowledged by every shard" }
  end

(* ---------------- request execution ---------------- *)

let unsupported = "not supported by the router; connect to a shard directly"

let invalid_interval lower upper =
  Protocol.Invalid (Printf.sprintf "empty interval [%d, %d]" lower upper)

let do_begin conn =
  if conn.in_txn then Protocol.Invalid "transaction already in progress"
  else begin
    conn.in_txn <- true;
    Protocol.Ack "begin"
  end

(* Run one request to completion — in the connection's job fiber,
   which owns conn state and legs for the duration. Returns the frame
   to send, if any. *)
let execute t conn id req =
  let t0 = Unix.gettimeofday () in
  let resp =
    match req with
    | Protocol.Repl_ack _ -> None  (* fire-and-forget *)
    | Protocol.Begin -> Some (do_begin conn)
    | Protocol.Commit -> Some (handle_commit t conn)
    | Protocol.Rollback -> Some (handle_rollback t conn)
    | Protocol.Intersect { lower; upper } ->
        Some
          (if lower > upper then invalid_interval lower upper
           else gather_query t conn req (Some (lower, upper)))
    | Protocol.Allen { relation; lower; upper } ->
        Some
          (if lower > upper then invalid_interval lower upper
           else gather_query t conn req (Map.allen_extent relation ~lower ~upper))
    | Protocol.Insert { lower; upper; id = iid } ->
        Some
          (if lower > upper then invalid_interval lower upper
           else handle_insert t conn ~lower ~upper ~id:iid)
    | Protocol.Delete { lower; upper; id = iid } ->
        Some
          (if lower > upper then invalid_interval lower upper
           else handle_delete t conn ~lower ~upper ~id:iid)
    | Protocol.Ping -> Some (Protocol.Ack "pong")
    | Protocol.Shard_map_req -> Some (Protocol.Shard_map (Map.entries t.map))
    | Protocol.Stats ->
        Some
          (Protocol.Stats_reply
             (Server_stats.snapshot t.st ~now:(Unix.gettimeofday ())
                ~io:{ Storage.Block_device.Stats.reads = 0; writes = 0 }))
    | Protocol.Metrics -> Some (Protocol.Ack (metrics_doc t))
    | Protocol.Sql _ | Protocol.Prepare _ | Protocol.Execute _
    | Protocol.Close_stmt _ | Protocol.Explain _ ->
        Some (Protocol.Error unsupported)
    | Protocol.Repl_subscribe _ | Protocol.Repl_status ->
        Some (Protocol.Error "replication ops are not supported by the router")
  in
  Server_stats.record t.st ~op:(Protocol.request_op_name req)
    ~seconds:(Unix.gettimeofday () -. t0) ~io:0;
  Option.map (fun r -> (id, r)) resp

(* ---------------- reactor side ---------------- *)

(* A client may pipeline this many requests beyond the in-flight one
   before admission control cuts it off. *)
let max_pipeline = 256

let close_legs conn =
  Array.iter (function Some l -> Failover.close l | None -> ()) conn.legs

(* Conn closed the socket. A fiber may still be running this
   connection's job and using its legs — then leg teardown waits for
   its delivery. *)
let forget t conn =
  Hashtbl.remove t.conns conn.io.fd;
  Server_stats.session_closed t.st;
  if conn.inflight then t.orphans <- conn :: t.orphans else close_legs conn

(* The high-water cut-off drops the connection's waiting requests. *)
let cut_off t conn () =
  Server_stats.overloaded t.st;
  Queue.clear conn.jobs;
  true

(* Run the job as a fiber: it parks on every shard wait and ends by
   delivering its response, then starts the connection's next waiting
   request. *)
let rec start_job t conn id req =
  conn.inflight <- true;
  Reactor.spawn t.reactor (fun () ->
      let resp =
        try execute t conn id req
        with e -> Some (id, Protocol.Error ("router: " ^ Printexc.to_string e))
      in
      deliver t conn resp)

and next_job t conn =
  if
    not (conn.inflight || conn.io.dead || conn.io.closing
        || Queue.is_empty conn.jobs)
  then begin
    let id, req = Queue.pop conn.jobs in
    start_job t conn id req
  end

(* Send the response (if the client is still there), or release the
   legs of a client that left mid-request. *)
and deliver t conn resp =
  conn.inflight <- false;
  if conn.io.dead then begin
    t.orphans <- List.filter (( != ) conn) t.orphans;
    close_legs conn
  end
  else begin
    Option.iter (fun (id, r) -> Conn.reply conn.io ~id r) resp;
    next_job t conn
  end

(* Every request runs as its connection's next job; one that needs no
   shard is answered before [spawn] returns. *)
let on_request t conn id req =
  if Queue.length conn.jobs >= max_pipeline then begin
    Queue.clear conn.jobs;
    conn.io.closing <- true;
    Server_stats.overloaded t.st;
    Conn.reply conn.io ~id:0L
      (Protocol.Overloaded
         (Printf.sprintf "pipeline limit (%d requests) exceeded" max_pipeline))
  end
  else begin
    Queue.push (id, req) conn.jobs;
    next_job t conn
  end

let accept t fd =
  let io = Conn.create t.reactor fd in
  let conn =
    { io;
      legs = Array.make (Map.shards t.map) None;
      begun = Array.make (Map.shards t.map) false;
      in_txn = false;
      jobs = Queue.create ();
      inflight = false }
  in
  Hashtbl.replace t.conns fd conn;
  Conn.serve io ~on_cut_off:(cut_off t conn)
    ~on_close:(fun () -> forget t conn)
    (Conn.frames io (on_request t conn))

(* Fibers still parked on a shard are abandoned with the reactor;
   closing made their connections orphans, whose legs go now. *)
let drain t =
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> Conn.close c.io) conns;
  List.iter close_legs t.orphans;
  t.orphans <- []

let serve t =
  Listener.serve t.l ~max_sessions:t.cfg.max_sessions ~stats:t.st
    ~metrics_doc:(fun () -> metrics_doc t)
    ~accept:(accept t) ~drain:(fun () -> drain t)
