(* The drivers that measure live servers over real sockets: MVCC commit
   throughput, replication, sharded scatter-gather, and connection
   scaling of the reactor core. Each returns its record and acceptance
   checks to [Main]. *)

module R = Harness.Report
module D = Server.Dispatcher
module C = Server.Client
module P = Server.Protocol
module Dist = Workload.Distribution

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ C.error_to_string e)

(* An in-process durable server for [f port sh]. *)
let with_server ?(preload = [||]) config f =
  let sh = Server.Session.shared ~durable:true () in
  if Array.length preload > 0 then Server.Session.preload sh preload;
  let node = Testbed.start config sh in
  Fun.protect ~finally:(fun () -> Testbed.stop node)
    (fun () -> f (Testbed.port node) sh)

(* Log forces so far: one per closed group-commit window. *)
let commit_batches sh =
  Storage.Buffer_pool.commit_batches
    (Relation.Catalog.pool (Server.Session.catalog sh))

(* [(commits per second, commits per forced batch)] of [run ()], which
   returns the commits it made. *)
let commit_rate sh run =
  let b0 = commit_batches sh and t0 = Unix.gettimeofday () in
  let committed = run () in
  let wall = Unix.gettimeofday () -. t0 in
  let batches = commit_batches sh - b0 in
  ( float_of_int committed /. wall,
    float_of_int committed /. float_of_int (max 1 batches) )

(* One client running [txns] transactions of [writes] inserts + COMMIT;
   returns the number of committed transactions. [on_commit] gets each
   COMMIT's round trip in seconds. *)
let txn_writer ?(on_commit = ignore) ~port ~txns ~writes ~base () =
  let c = C.connect ~port () in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      let committed = ref 0 in
      for t = 0 to txns - 1 do
        for w = 0 to writes - 1 do
          let lo = base + (t * writes) + w in
          ignore (ok_or_fail "insert" (C.insert c (Interval.Ivl.make lo (lo + 10))))
        done;
        let t0 = Unix.gettimeofday () in
        ignore (ok_or_fail "commit" (C.commit c));
        on_commit (Unix.gettimeofday () -. t0);
        incr committed
      done;
      !committed)

(* ---- txn: MVCC multi-writer throughput and conflict behaviour ----

   Three phases against live in-process servers:

   1. Serialized baseline — the only safe discipline before per-session
      write sets: one writer at a time, every COMMIT forced on its own.
   2. Multi-writer — concurrent sessions buffering independent write
      sets, COMMITs validated per session and staged into a
      group-commit window. The headline is multi/serial throughput;
      commits per forced batch (1 at window 0) is its deterministic
      side: how many COMMITs one log force carried.
   3. Contention — every session buffers a delete of the SAME row, all
      commit: exactly one wins per round, the rest get the typed
      [Conflict] frame (first-committer-wins), never a silent no-op. *)

let sessions = 8
let writes_per_txn = 4

let txn_config ~sessions ~group_commit =
  { D.default_config with
    max_sessions = sessions + 2; group_commit }

let txn_serial ~txns_per =
  with_server (txn_config ~sessions:1 ~group_commit:0.) (fun port sh ->
      commit_rate sh (fun () ->
          txn_writer ~port ~txns:(sessions * txns_per) ~writes:writes_per_txn
            ~base:0 ()))

let txn_multi ~txns_per =
  with_server (txn_config ~sessions ~group_commit:0.002) (fun port sh ->
      commit_rate sh (fun () ->
          let results = Array.make sessions 0 in
          let threads =
            List.init sessions (fun i ->
                Thread.create
                  (fun () ->
                    results.(i) <-
                      txn_writer ~port ~txns:txns_per ~writes:writes_per_txn
                        ~base:(i * txns_per * writes_per_txn * 2) ())
                  ())
          in
          List.iter Thread.join threads;
          Array.fold_left ( + ) 0 results))

(* Rows 0..rounds-1 preloaded committed; round r: every session buffers
   DELETE of row r, then every session commits in turn. *)
let txn_contention ~rounds =
  let preload =
    Array.init rounds (fun i -> Interval.Ivl.make (i * 100) ((i * 100) + 50))
  in
  with_server ~preload (txn_config ~sessions ~group_commit:0.) (fun port _ ->
      let clients = Array.init sessions (fun _ -> C.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Array.iter C.close clients)
        (fun () ->
          let commits = ref 0 and conflicts = ref 0 in
          for r = 0 to rounds - 1 do
            Array.iter
              (fun c ->
                match
                  C.rpc c
                    (P.Delete { lower = r * 100; upper = (r * 100) + 50; id = r })
                with
                | P.Ack _ -> ()
                | _ -> failwith "contention: delete refused")
              clients;
            Array.iter
              (fun c ->
                incr commits;
                match C.commit c with
                | Ok _ -> ()
                | Error (C.Conflict _ as e) ->
                    (* must be a verdict, not something a client retries *)
                    if C.retryable e then
                      failwith "Conflict classified retryable";
                    incr conflicts
                | Error e -> failwith ("commit: " ^ C.error_to_string e))
              clients
          done;
          (!commits, !conflicts)))

let txn ~tiny =
  let txns_per = if tiny then 25 else 150 in
  let rounds = if tiny then 10 else 50 in
  let serial_tps, serial_batch = txn_serial ~txns_per in
  let multi_tps, multi_batch = txn_multi ~txns_per in
  let commits, conflicts = txn_contention ~rounds in
  ( R.Obj
      [ ("sessions", R.Int sessions); ("writes_per_txn", R.Int writes_per_txn);
        ("txns", R.Int (sessions * txns_per));
        ("serial_tps", R.Float serial_tps); ("multi_tps", R.Float multi_tps);
        ("speedup", R.Float (multi_tps /. Float.max 1e-9 serial_tps));
        ("commits_per_batch",
         R.Obj
           [ ("serial", R.Float serial_batch);
             ("multi", R.Float multi_batch) ]);
        ("conflict",
         R.Obj
           [ ("rounds", R.Int rounds); ("commits", R.Int commits);
             ("conflicts", R.Int conflicts);
             ("conflict_rate",
              R.Float (float_of_int conflicts /. float_of_int (max 1 commits)))
           ]) ],
    [] )

(* ---- commit: what one 4-insert COMMIT costs and what it logs ----

   The [mixed-disk] writer in process, without sockets: a durable
   covering D1 n = 35 000 bulk preload, then four D1-shaped inserts and
   a COMMIT, over and over. Each commit is timed in its two halves —
   the MVCC apply ([Txn.commit], which writes the rows into the pages)
   and the pool commit ([Buffer_pool.commit]: log every dirty page,
   append the marker, force) — in process CPU time. Afterwards the
   journal's bytes since the preload are parsed to count what each
   commit logged. *)

let commit_inserts = 4

(* The records a log stream holds, by kind: full Writes, Writes of a
   fresh (all-zero) page, plain Deltas, Deltas with a move. *)
let record_kinds log =
  List.fold_left
    (fun (w, fw, d, md) (r, _) ->
      match r with
      | Storage.Journal.Write { before; _ } ->
          if Storage.Mem.is_zero before then (w, fw + 1, d, md)
          else (w + 1, fw, d, md)
      | Storage.Journal.Delta { move = None; _ } -> (w, fw, d + 1, md)
      | Storage.Journal.Delta { move = Some _; _ } -> (w, fw, d, md + 1)
      | Storage.Journal.Commit -> (w, fw, d, md))
    (0, 0, 0, 0)
    (Storage.Journal.parse log ~len:(Bytes.length log))

let commit ~tiny =
  let n = 35_000 and commits = if tiny then 100 else 1_000 in
  let sh = Server.Session.shared ~durable:true () in
  let (), preload_s =
    Harness.Measure.wall (fun () ->
        Server.Session.preload sh (Dist.generate ~seed:1 Dist.D1 ~n ~d:2000))
  in
  let j = Option.get (Relation.Catalog.journal (Server.Session.catalog sh)) in
  let s = Server.Session.create sh in
  let rng = Workload.Prng.create ~seed:7 in
  let insert () =
    let dm = Dist.domain_max in
    let lower = Workload.Prng.int rng (dm + 1) in
    let upper = min dm (lower + Workload.Prng.int rng 4001) in
    match Server.Session.handle s (P.Insert { lower; upper; id = None }) with
    | P.Ack _ -> ()
    | _ -> failwith "commit bench: insert refused"
  in
  let apply_us = Array.make commits 0. and pool_us = Array.make commits 0. in
  let lsn0 = Storage.Journal.durable_lsn j
  and bytes0 = Storage.Journal.byte_size j in
  for i = 0 to commits - 1 do
    ignore (Server.Session.handle s P.Begin);
    for _ = 1 to commit_inserts do
      insert ()
    done;
    let staged, apply_s =
      Harness.Measure.wall (fun () -> Server.Session.stage_commit s)
    in
    if staged <> Ok () then failwith "commit bench: conflict";
    let _, pool_s =
      Harness.Measure.wall (fun () -> Server.Session.commit_force_shared sh)
    in
    apply_us.(i) <- 1e6 *. apply_s;
    pool_us.(i) <- 1e6 *. pool_s
  done;
  let per x = float_of_int x /. float_of_int commits in
  (* to 0.1 us: the CPU clock's float noise is not a measurement *)
  let us xs =
    let r x = R.Float (Float.round (10. *. x) /. 10.) in
    R.Obj
      [ ("mean", r (Array.fold_left ( +. ) 0. xs /. float_of_int commits));
        ("p50", r (Harness.Measure.percentile xs 0.5));
        ("p90", r (Harness.Measure.percentile xs 0.9)) ]
  in
  let w, fw, d, md = record_kinds (Storage.Journal.stream_from j lsn0) in
  let bytes = per (Storage.Journal.durable_lsn j - lsn0) in
  ( R.Obj
      [ ("n", R.Int n); ("commits", R.Int commits);
        ("inserts_per_commit", R.Int commit_inserts);
        ("preload_s", R.Float (Float.round (1000. *. preload_s) /. 1000.));
        ("apply_us", us apply_us); ("pool_commit_us", us pool_us);
        ("pages_per_commit", R.Float (per (w + fw + d + md)));
        ("records_per_commit",
         R.Obj
           [ ("write", R.Float (per w)); ("fresh_write", R.Float (per fw));
             ("delta", R.Float (per d)); ("move_delta", R.Float (per md)) ]);
        ("bytes_per_commit", R.Float bytes);
        ("payload_bytes_per_commit",
         R.Float (per (Storage.Journal.byte_size j - bytes0))) ],
    [ ("moves_logged", md > 0);
      ("bytes_per_commit_le_2004", bytes <= 2004.) ] )

(* ---- replica: replication lag, failover time, read scale-out ----

   The primary holds a D1 n = 10 000 relation (a routed-mixed shard's
   size) before its semi-synchronous standby subscribes, so what a
   standby does per applied batch is measured at a realistic size: the
   load phase reports the COMMIT round trip a standby's ack gates, and
   the standby's physical block reads per batch it applied (the replay
   itself plus the reload that rebinds its handles). *)

let repl_config ?replica_of () =
  { D.default_config with max_sessions = 16; group_commit = 0.002; replica_of }

let repl_node ?replica_of () =
  Testbed.start (repl_config ?replica_of ()) (Server.Session.shared ~durable:true ())

let replica_preload = 10_000

(* (durable, applied) LSNs of the server on [port]. *)
let repl_status_of ~port =
  let c = C.connect ~deadline_ms:1000. ~port () in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      let _, durable, applied = ok_or_fail "repl status" (C.repl_status c) in
      (durable, applied))

(* One sample of the server on [port]'s metrics document. *)
let metric_of ~port name =
  let c = C.connect ~deadline_ms:1000. ~port () in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      let prefix = name ^ " " in
      match
        List.find_opt (String.starts_with ~prefix)
          (String.split_on_char '\n' (ok_or_fail "metrics" (C.metrics c)))
      with
      | Some l ->
          int_of_string
            (String.sub l (String.length prefix)
               (String.length l - String.length prefix))
      | None -> failwith ("no metric " ^ name))

let replica ~tiny =
  let txns = if tiny then 60 else 400 in
  let reads = if tiny then 400 else 2000 in
  let primary_sh = Server.Session.shared ~durable:true () in
  Server.Session.preload primary_sh
    (Dist.generate ~seed:1 Dist.D1 ~n:replica_preload ~d:2_000);
  let primary = Testbed.start (repl_config ()) primary_sh in
  let pport = Testbed.port primary in
  let standby = repl_node ~replica_of:("127.0.0.1", pport) () in
  let rport = Testbed.port standby in
  (* settle the subscription (the standby replays the preload) before
     measuring anything *)
  let c0 = C.connect ~port:pport () in
  (match (C.insert c0 (Interval.Ivl.make 0 1), C.commit c0) with
  | Ok _, Ok lsn -> ignore (Testbed.wait_applied ~timeout:30. ~port:rport lsn)
  | _ -> failwith "settle write failed");
  C.close c0;
  let reads0 = metric_of ~port:rport "rikit_device_reads_total" in
  let batches0 = commit_batches primary_sh in
  (* load phase: sample replica lag while a writer streams commits *)
  let lag_samples = ref [] in
  let loading = ref true in
  let sampler =
    Thread.create
      (fun () ->
        while !loading do
          (try
             let durable, applied = repl_status_of ~port:rport in
             lag_samples := max 0 (durable - applied) :: !lag_samples
           with _ -> ());
          Thread.delay 0.005
        done)
      ()
  in
  let commit_s = ref [] in
  let t0 = Unix.gettimeofday () in
  let committed =
    txn_writer
      ~on_commit:(fun s -> commit_s := s :: !commit_s)
      ~port:pport ~txns ~writes:writes_per_txn ~base:1000 ()
  in
  let load_wall = Unix.gettimeofday () -. t0 in
  loading := false;
  Thread.join sampler;
  let lag_max = List.fold_left max 0 !lag_samples in
  let lag_mean =
    match !lag_samples with
    | [] -> 0.
    | l ->
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let durable_lsn, _ = repl_status_of ~port:pport in
  ignore (Testbed.wait_applied ~timeout:30. ~port:rport durable_lsn);
  let batches = commit_batches primary_sh - batches0 in
  let reads_per_batch =
    float_of_int (metric_of ~port:rport "rikit_device_reads_total" - reads0)
    /. float_of_int (max 1 batches)
  in
  let commit_ms p =
    1000. *. Harness.Measure.percentile (Array.of_list !commit_s) p
  in
  (* late joiner: a second replica replays the whole history *)
  let joiner = repl_node ~replica_of:("127.0.0.1", pport) () in
  let catchup =
    Testbed.wait_applied ~timeout:30. ~port:(Testbed.port joiner) durable_lsn
  in
  (* read throughput: primary alone, then the same reads split across
     primary + replica *)
  let read_burst ~port n =
    let c = C.connect ~port () in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        for i = 0 to n - 1 do
          let lo = 1000 + (i mod 500) in
          ignore (ok_or_fail "read" (C.intersect c (Interval.Ivl.make lo (lo + 20))))
        done)
  in
  let t0 = Unix.gettimeofday () in
  read_burst ~port:pport reads;
  let primary_rps = float_of_int reads /. (Unix.gettimeofday () -. t0) in
  let t0 = Unix.gettimeofday () in
  let half = Thread.create (fun () -> read_burst ~port:rport (reads / 2)) () in
  read_burst ~port:pport (reads - (reads / 2));
  Thread.join half;
  let scaled_rps = float_of_int reads /. (Unix.gettimeofday () -. t0) in
  (* failover: kill the primary, time the first successful read on the
     standby through the failover client *)
  let f =
    Server.Failover.create ~deadline_ms:500.
      ~endpoints:[ ("127.0.0.1", pport); ("127.0.0.1", rport) ]
      ()
  in
  ignore (ok_or_fail "read" (Server.Failover.intersect f (Interval.Ivl.make 1000 1020)));
  Server.Failover.note_lsn f durable_lsn;
  Testbed.stop primary;
  let t0 = Unix.gettimeofday () in
  let failover_deadline = t0 +. 10. in
  let rec first_read () =
    match Server.Failover.intersect f (Interval.Ivl.make 1000 1020) with
    | Ok _ -> Some (Unix.gettimeofday () -. t0)
    | Error _ when Unix.gettimeofday () < failover_deadline ->
        Thread.delay 0.01;
        first_read ()
    | Error _ -> None
  in
  let failover = first_read () in
  Server.Failover.close f;
  Testbed.stop standby;
  Testbed.stop joiner;
  let ms = function Some s -> s *. 1000. | None -> -1. in
  ( R.Obj
      [ ("preload_n", R.Int replica_preload);
        ("txns", R.Int committed); ("writes_per_txn", R.Int writes_per_txn);
        ("load_tps", R.Float (float_of_int committed /. load_wall));
        ("commit_ms",
         R.Obj [ ("p50", R.Float (commit_ms 0.5)); ("p99", R.Float (commit_ms 0.99)) ]);
        ("standby_batches", R.Int batches);
        ("standby_reads_per_batch", R.Float reads_per_batch);
        ("durable_lsn", R.Int durable_lsn);
        ("steady_lag_bytes",
         R.Obj [ ("max", R.Int lag_max); ("mean", R.Float lag_mean) ]);
        ("late_join_catchup_ms", R.Float (ms catchup));
        ("reads",
         R.Obj
           [ ("primary_rps", R.Float primary_rps);
             ("with_replica_rps", R.Float scaled_rps) ]);
        ("failover_ms", R.Float (ms failover)) ],
    [ ("caught_up", catchup <> None); ("failover_ok", failover <> None);
      ("standby_reads_per_batch_le_16", reads_per_batch <= 16.) ] )

(* ---- shard: scatter-gather scale-out under head-of-line load ---- *)

type shard_load = {
  mutable smalls : int;  (* small queries completed *)
  mutable fats : int;  (* fat scans completed *)
  mutable pings : float list;  (* ping round-trip seconds *)
  mutable error : string option;
}

(* Drive one topology for [window] seconds: [fat_clients] run
   back-to-back fat scans over [fat_range] (a one-shard hotspot),
   [small_clients] cycle through range-local small queries, and a
   sampler measures PING round-trips — the head-of-line probe. *)
let drive_topology ~port ~window ~fat_range ~fat_clients ~small_clients
    ~queries =
  let load = { smalls = 0; fats = 0; pings = []; error = None } in
  let mu = Mutex.create () in
  let note f = Mutex.lock mu; f (); Mutex.unlock mu in
  let stop = ref false in
  let fail m = note (fun () -> if load.error = None then load.error <- Some m) in
  (* one client connection running [step] until the window closes *)
  let client step () =
    try
      let c = C.connect ~port () in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          while not !stop do
            step c
          done)
    with C.Io_error m -> fail m
  in
  let query what ivl on_rows c =
    match
      C.rpc_result c
        (P.Intersect
           { lower = Interval.Ivl.lower ivl; upper = Interval.Ivl.upper ivl })
    with
    | Ok (P.Rows _) -> note on_rows
    | Ok r -> fail (what ^ ": unexpected " ^ Testbed.describe r)
    | Error e -> fail (C.error_to_string e)
  in
  let fat =
    query "fat scan" (Interval.Ivl.make (fst fat_range) (snd fat_range))
      (fun () -> load.fats <- load.fats + 1)
  in
  let small i =
    let j = ref (i * 7) in
    fun c ->
      let q = queries.(!j mod Array.length queries) in
      incr j;
      query "small query" q (fun () -> load.smalls <- load.smalls + 1) c
  in
  let ping c =
    let t0 = Unix.gettimeofday () in
    (match C.ping c with
    | Ok () ->
        let dt = Unix.gettimeofday () -. t0 in
        note (fun () -> load.pings <- dt :: load.pings)
    | Error e -> fail (C.error_to_string e));
    Thread.delay 0.005
  in
  let threads =
    List.init fat_clients (fun _ -> Thread.create (client fat) ())
    @ List.init small_clients (fun i -> Thread.create (client (small i)) ())
    @ [ Thread.create (client ping) () ]
  in
  Thread.delay window;
  stop := true;
  List.iter Thread.join threads;
  load

let ping_ms pings p =
  match pings with
  | [] -> 0.
  | l -> 1000. *. Harness.Measure.percentile (Array.of_list l) p

let shard ~tiny =
  let n = if tiny then 10_000 else 60_000 in
  let seed = 42 in
  let shards = 4 in
  let window = if tiny then 2.0 else 6.0 in
  let fat_clients = 2 in
  let small_clients = 4 in
  let domain_max = Dist.domain_max in
  let data = Dist.generate ~seed Dist.D1 ~n ~d:2000 in
  let cuts = Server.Router.Map.backbone_cuts ~domain_max ~shards in
  let dummy_eps = List.init shards (fun _ -> [ ("127.0.0.1", 1) ]) in
  let geometry = Server.Router.Map.create ~cuts ~endpoints:dummy_eps in
  (* Small queries confined inside one shard's range each (fan-out 1),
     round-robin across shards; the hotspot is shard 0's whole range. *)
  let queries =
    let per = 256 in
    let batches =
      List.init shards (fun i ->
          let lo, hi = Server.Router.Map.range geometry i in
          Workload.Query_gen.queries_within ~seed:(seed + i)
            ~range:(max 0 lo, min domain_max hi)
            ~count:per ~len:64 ())
    in
    Array.init (shards * per) (fun j ->
        (List.nth batches (j mod shards)).(j / shards))
  in
  let fat_range =
    let lo, hi = Server.Router.Map.range geometry 0 in
    (max 0 lo, min domain_max hi)
  in
  let drive port =
    drive_topology ~port ~window ~fat_range ~fat_clients ~small_clients
      ~queries
  in
  (* ---- topology A: one process holds everything ---- *)
  let single = Testbed.fork [ Array.mapi (fun i x -> (i, x)) data ] in
  Thread.delay 0.3;
  let single_load = drive (List.hd single).port in
  List.iter Testbed.kill single;
  (* ---- topology B: four shard processes behind a router ---- *)
  let procs =
    Testbed.fork
      (List.init shards (fun i ->
           Testbed.slice data (Server.Router.Map.range geometry i)))
  in
  Thread.delay 0.3;
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:
        (List.map (fun (p : Testbed.proc) -> [ ("127.0.0.1", p.port) ]) procs)
  in
  let router =
    Server.Router.create { Server.Router.default_config with port = 0 } ~map
  in
  let router_thread = Thread.create Server.Router.serve router in
  let sharded_load = drive (Server.Router.port router) in
  Server.Router.stop router;
  Thread.join router_thread;
  List.iter Testbed.kill procs;
  let qps l = float_of_int l.smalls /. window in
  let single_qps = qps single_load and sharded_qps = qps sharded_load in
  let speedup = if single_qps > 0. then sharded_qps /. single_qps else 0. in
  let topology l =
    R.Obj
      ([ ("small_qps", R.Float (qps l)); ("fat_scans", R.Int l.fats);
         ("ping_ms",
          R.Obj
            [ ("p50", R.Float (ping_ms l.pings 0.5));
              ("p99", R.Float (ping_ms l.pings 0.99));
              ("max", R.Float (ping_ms l.pings 1.0)) ]) ]
      @ Option.fold ~none:[] ~some:(fun m -> [ ("error", R.String m) ]) l.error)
  in
  let need = if tiny then 2.0 else 3.0 in
  ( R.Obj
      [ ("kind", R.String "D1"); ("n", R.Int n); ("shards", R.Int shards);
        ("window_s", R.Float window);
        ("hotspot", R.List [ R.Int (fst fat_range); R.Int (snd fat_range) ]);
        ("single", topology single_load); ("sharded", topology sharded_load);
        ("speedup", R.Float speedup); ("speedup_needed", R.Float need) ],
    [ ("speedup_ok", speedup >= need);
      ("hol_ok", ping_ms sharded_load.pings 0.99 < 50.) ] )

(* ---- reactor: connection scaling on the event core ----

   One daemon, a sweep of concurrent live connections, and three
   numbers per level — ping throughput, ping p99, and the server's
   OS-thread count read from /proc/<pid>/status. The thread count must
   stay flat across the sweep (the reactor multiplexes every socket;
   nothing spawns per connection), and every opened connection must
   actually be served. Before the sweep, the words one served request
   allocates: at most 64 on the major heap, or the driver fails. *)

(* The integer after [prefix] on the first line of [path] that starts
   with it, or [default]. *)
let proc_field path prefix ~default =
  let k = String.length prefix in
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > k && String.sub line 0 k = prefix ->
              Scanf.sscanf (String.sub line k (String.length line - k)) " %d"
                Fun.id
          | _ -> go ()
          | exception End_of_file -> default
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ | End_of_file -> default

let proc_threads pid =
  proc_field (Printf.sprintf "/proc/%d/status" pid) "Threads:" ~default:0

(* Soft fd limit of this process (the connecting side holds one fd per
   live connection, same as the daemon). *)
let fd_soft_limit () =
  proc_field "/proc/self/limits" "Max open files" ~default:max_int

type conn_level = {
  conns : int;  (* requested *)
  connected : int;
  served : int;  (* connections whose ping round-tripped *)
  qps : float;
  p50_ms : float;
  p99_ms : float;
  threads : int;
}

(* Open [n] connections, ping every one (served check), then measure a
   burst of round-robin pings across them for throughput/latency, and
   read the daemon's thread count while all [n] are live. *)
let drive_level ~pid ~port n =
  let conns =
    Array.init n (fun _ ->
        try Some (C.connect ~deadline_ms:15_000. ~port ())
        with C.Io_error _ | C.Timed_out _ -> None)
  in
  let live = Array.of_list (List.filter_map Fun.id (Array.to_list conns)) in
  let served =
    Array.fold_left
      (fun a c -> match C.ping c with Ok () -> a + 1 | Error _ -> a)
      0 live
  in
  let shots = if Array.length live = 0 then 0 else min 20_000 (4 * n) in
  let lats = Array.make (max shots 1) 0. in
  let t0 = Unix.gettimeofday () in
  for i = 0 to shots - 1 do
    let c = live.(i mod Array.length live) in
    let s = Unix.gettimeofday () in
    (match C.ping c with Ok () -> () | Error _ -> ());
    lats.(i) <- Unix.gettimeofday () -. s
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let threads = proc_threads pid in
  Array.iter C.close live;
  { conns = n;
    connected = Array.length live;
    served;
    qps = (if elapsed > 0. then float_of_int shots /. elapsed else 0.);
    p50_ms = 1000. *. Harness.Measure.percentile lats 0.5;
    p99_ms = 1000. *. Harness.Measure.percentile lats 0.99;
    threads }

let level_json ?scatter_ok l =
  R.Obj
    ([ ("conns", R.Int l.conns); ("connected", R.Int l.connected);
       ("served", R.Int l.served); ("qps", R.Float l.qps);
       ("p50_ms", R.Float l.p50_ms); ("p99_ms", R.Float l.p99_ms);
       ("threads", R.Int l.threads) ]
    @ Option.fold ~none:[] ~some:(fun ok -> [ ("scatter_ok", R.Bool ok) ])
        scatter_ok)

(* Minor and major words per request served through a [Conn], for a
   PING, a point Intersect and an Intersect of at least 150 rows
   (Testbed.wire_words). *)
let wire_requests =
  [ ("ping", P.Ping, 0);
    ("point_intersect", P.Intersect { lower = 500_000; upper = 500_000 }, 1);
    ("wide_intersect", P.Intersect { lower = 500_000; upper = 600_000 }, 150) ]

let wire_major_bound = 64.

let wire_words data =
  let sh = Server.Session.shared () in
  Server.Session.preload sh data;
  List.map
    (fun (name, req, min_rows) ->
      let w = Testbed.wire_words sh req ~reps:2000 in
      let rows =
        match w.answer with P.Rows { rows; _ } -> List.length rows | _ -> 0
      in
      (name, w, rows >= min_rows, rows))
    wire_requests

(* wait for a forked daemon to start accepting *)
let rec await_up ?(tries = 50) port =
  match C.connect ~deadline_ms:2000. ~port () with
  | c -> C.close c
  | exception (C.Io_error _ | C.Timed_out _) when tries > 0 ->
      Thread.delay 0.1;
      await_up ~tries:(tries - 1) port

let reactor ~tiny =
  let fd_limit = fd_soft_limit () in
  let headroom = 192 in
  let levels =
    let all = if tiny then [ 2048 ] else [ 100; 500; 1000; 2000; 5000 ] in
    List.filter (fun n -> n + headroom <= fd_limit) all
  in
  if levels = [] then
    failwith
      (Printf.sprintf
         "fd soft limit %d too low for any sweep level (raise it with \
          `ulimit -n`)"
         fd_limit);
  let top = List.fold_left max 0 levels in
  let data = Dist.generate ~seed:42 Dist.D1 ~n:2000 ~d:2000 in
  let wire = wire_words data in
  let daemon =
    List.hd
      (Testbed.fork
         ~config:
           { D.default_config with max_sessions = top + 64; idle_timeout = 0. }
         [ Array.mapi (fun i x -> (i, x)) data ])
  in
  await_up daemon.port;
  let results =
    List.map (fun n -> drive_level ~pid:daemon.pid ~port:daemon.port n) levels
  in
  Testbed.kill daemon;
  (* ---- router phase: thread flatness under many idle clients ---- *)
  let domain_max = Dist.domain_max in
  let cuts = Server.Router.Map.backbone_cuts ~domain_max ~shards:2 in
  let geometry =
    Server.Router.Map.create ~cuts
      ~endpoints:[ [ ("127.0.0.1", 1) ]; [ ("127.0.0.1", 1) ] ]
  in
  let shard_procs =
    Testbed.fork
      (List.init 2 (fun i ->
           Testbed.slice data (Server.Router.Map.range geometry i)))
  in
  Thread.delay 0.3;
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:
        (List.map
           (fun (p : Testbed.proc) -> [ ("127.0.0.1", p.port) ])
           shard_procs)
  in
  let router_levels =
    let lo = 100 and hi = min top 2000 in
    if tiny then [ lo; hi ] else [ lo; 1000; hi ]
  in
  let rtop = List.fold_left max 0 router_levels in
  let router =
    Testbed.fork_router
      { Server.Router.default_config with max_sessions = rtop + 64 }
      ~map
  in
  await_up router.port;
  let router_results =
    List.map
      (fun n ->
        let r = drive_level ~pid:router.pid ~port:router.port n in
        (* a scatter across both shards must also work under full load *)
        let scatter_ok =
          let c = C.connect ~deadline_ms:15_000. ~port:router.port () in
          Fun.protect
            ~finally:(fun () -> C.close c)
            (fun () ->
              match
                C.rpc_result c (P.Intersect { lower = 0; upper = domain_max })
              with
              | Ok (P.Rows _) -> true
              | _ -> false)
        in
        (r, scatter_ok))
      router_levels
  in
  Testbed.kill router;
  List.iter Testbed.kill shard_procs;
  let flat ls =
    match List.map (fun l -> l.threads) ls with
    | [] -> true
    | t0 :: _ as ts ->
        List.for_all (fun t -> abs (t - t0) <= 1) ts
        && List.for_all (fun t -> t > 0 && t <= 16) ts
  in
  ( R.Obj
      [ ("fd_limit", R.Int (if fd_limit = max_int then -1 else fd_limit));
        ("dispatcher", R.List (List.map level_json results));
        ("router",
         R.List
           (List.map
              (fun (l, scatter_ok) -> level_json ~scatter_ok l)
              router_results));
        ("wire",
         R.Obj
           (List.map
              (fun (name, (w : Testbed.words), _, rows) ->
                ( name,
                  R.Obj
                    [ ("rows", R.Int rows);
                      ("minor_words_per_request", R.Float w.minor);
                      ("major_words_per_request", R.Float w.major) ] ))
              wire)) ],
    [ ("served_ok",
       List.for_all (fun l -> l.connected = l.conns && l.served = l.conns)
         results);
      ("top_level_ok", top >= 2000);
      ("threads_flat", flat results);
      ("router_threads_flat", flat (List.map fst router_results));
      ("router_served_ok",
       List.for_all (fun (l, sc) -> l.served = l.conns && sc) router_results);
      ("wire_major_words_per_request_le_64",
       List.for_all
         (fun (_, (w : Testbed.words), rows_ok, _) ->
           rows_ok && w.major <= wire_major_bound)
         wire) ] )
