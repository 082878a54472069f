(* Integration tests for rikitd's serving path: a live dispatcher on an
   ephemeral loopback port, driven by real sockets — concurrent
   clients, admission control at the session limit, framing
   errors on the wire, and durable commit/rollback/restart. *)

module P = Server.Protocol
module D = Server.Dispatcher
module S = Server.Session
module C = Server.Client

let check = Alcotest.check

let config ?(max_sessions = 8) ?(group_commit = 0.) ?(idle_timeout = 0.)
    ?metrics_port ?(slow_query_ms = 0.) ?replica_of ?write_high_water () =
  let write_high_water =
    match write_high_water with
    | Some hw -> hw
    | None -> D.default_config.write_high_water
  in
  { D.host = "127.0.0.1"; port = 0; max_sessions; group_commit; idle_timeout;
    metrics_port; slow_query_ms; replica_of; write_high_water }

(* Start a dispatcher on an ephemeral port; run [f port]; always stop
   the loop and join its thread. *)
let with_server ?config:(cfg = config ()) ?device ?(durable = false)
    ?cache_blocks ?(hot_tier_mb = 0) ?(preload = [||]) f =
  let sh = S.shared ?device ~durable ?cache_blocks ~hot_tier_mb () in
  if Array.length preload > 0 then S.preload sh preload;
  let disp = D.create ~config:cfg sh in
  let thread = Thread.create (fun () -> D.serve disp) () in
  let result =
    try Ok (f (D.port disp) sh disp) with e -> Error e
  in
  D.stop disp;
  Thread.join thread;
  match result with Ok v -> v | Error e -> raise e

let with_client port f =
  let c = C.connect ~port () in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

(* unwrap a typed client result, failing the test on any error *)
let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client error: %s" (C.error_to_string e)

let ping c = ok (C.ping c)
let intersect c q = List.map snd (ok (C.intersect c q))

let dataset = Workload.Distribution.generate ~seed:7 Workload.Distribution.D1 ~n:2000 ~d:2000

let brute_force q =
  let hits = ref [] in
  Array.iteri
    (fun id ivl -> if Interval.Ivl.intersects ivl q then hits := id :: !hits)
    dataset;
  List.sort compare !hits

(* ---- basic request/response over a live socket ---- *)

let test_basic_ops () =
  with_server ~preload:dataset (fun port _sh _disp ->
      with_client port (fun c ->
          ping c;
          (* intersection answers match a brute-force scan *)
          let q = Interval.Ivl.make 100_000 110_000 in
          let got = List.sort compare (intersect c q) in
          check (Alcotest.list Alcotest.int) "intersect" (brute_force q) got;
          (* typed insert/delete *)
          (match C.insert c ~id:999_999 (Interval.Ivl.make 5 6) with
          | Ok id -> check Alcotest.int "assigned id" 999_999 id
          | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
          let got =
            intersect c (Interval.Ivl.point 5)
            |> List.filter (fun id -> id = 999_999)
          in
          check (Alcotest.list Alcotest.int) "inserted visible" [ 999_999 ] got;
          (match C.rpc c (P.Delete { lower = 5; upper = 6; id = 999_999 }) with
          | P.Ack _ -> ()
          | r -> Alcotest.failf "delete failed: %s"
                   (match r with P.Error m -> m | _ -> "?"));
          (* SQL through the per-session engine *)
          (match C.sql c "CREATE TABLE t (a, b)" with
          | Ok (P.Ack _) -> ()
          | _ -> Alcotest.fail "create table");
          (match C.sql c "INSERT INTO t VALUES (1, 2)" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "insert row: %s" (C.error_to_string e));
          (match C.sql c "SELECT a, b FROM t" with
          | Ok (P.Rows { rows = [ [| 1; 2 |] ]; _ }) -> ()
          | Ok _ -> Alcotest.fail "wrong rows"
          | Error e -> Alcotest.failf "select: %s" (C.error_to_string e));
          (* SQL errors come back typed, session survives *)
          (match C.sql c "SELECT nope FROM missing" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "bad SQL succeeded");
          ping c))

let test_allen_query () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          let q = Interval.Ivl.make 200_000 201_000 in
          match C.rpc c (P.Allen { relation = Interval.Allen.During;
                                   lower = 200_000; upper = 201_000 }) with
          | P.Rows { rows; _ } ->
              let expected =
                Array.to_list dataset
                |> List.filteri (fun _ ivl ->
                       Interval.Allen.holds Interval.Allen.During ivl q)
                |> List.length
              in
              check Alcotest.int "during count" expected (List.length rows)
          | _ -> Alcotest.fail "allen query failed"))

(* ---- stats ---- *)

let test_stats_surface () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          ping c;
          ignore (intersect c (Interval.Ivl.make 0 50_000));
          let s = ok (C.server_stats c) in
          check Alcotest.bool "uptime" true (s.P.uptime_s >= 0.0);
          check Alcotest.int "sessions" 1 s.P.sessions;
          check Alcotest.bool "requests counted" true (s.P.total_requests >= 2);
          let ops = List.map (fun (o : P.op_stat) -> o.P.op) s.P.ops in
          check Alcotest.bool "intersect op present" true
            (List.mem "intersect" ops);
          check Alcotest.bool "ping op present" true (List.mem "ping" ops);
          let inter =
            List.find (fun (o : P.op_stat) -> o.P.op = "intersect") s.P.ops
          in
          check Alcotest.bool "latency percentiles ordered" true
            (inter.P.p50_us <= inter.P.p95_us
            && inter.P.p95_us <= inter.P.p99_us);
          (* the preload flush alone guarantees physical writes; reads
             may be zero while the whole dataset fits in the cache *)
          check Alcotest.bool "io accounted" true
            (s.P.io_reads + s.P.io_writes > 0)))

(* ---- admission control ---- *)

let test_session_limit () =
  with_server ~config:(config ~max_sessions:2 ()) (fun port _ disp ->
      let c1 = C.connect ~port () in
      let c2 = C.connect ~port () in
      Fun.protect
        ~finally:(fun () -> C.close c1; C.close c2)
        (fun () ->
          ping c1;
          ping c2;
          (* the third connection must get a typed Overloaded, not a
             hang or a hard close *)
          let c3 = C.connect ~port () in
          Fun.protect
            ~finally:(fun () -> C.close c3)
            (fun () ->
              match C.rpc c3 P.Ping with
              | P.Overloaded _ -> ()
              | _ -> Alcotest.fail "third session admitted past the limit");
          (* the admitted sessions keep working *)
          ping c1;
          ping c2;
          let s =
            Server.Server_stats.snapshot (D.stats disp)
              ~now:(Unix.gettimeofday ())
              ~io:{ Storage.Block_device.Stats.reads = 0; writes = 0 }
          in
          check Alcotest.bool "rejection counted" true
            (s.P.overload_rejections >= 1);
          (* a slot frees up once a session closes *)
          C.close c1;
          (* the server notices the close on its next loop round *)
          let rec retry n =
            let c4 = C.connect ~port () in
            match C.rpc c4 P.Ping with
            | P.Ack _ -> C.close c4
            | P.Overloaded _ when n > 0 ->
                C.close c4;
                Thread.delay 0.05;
                retry (n - 1)
            | _ -> C.close c4; Alcotest.fail "freed slot not reusable"
          in
          retry 40))

(* ---- wire-level degradation ---- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_read_frame fd =
  let header = Bytes.create 4 in
  let rec exact buf off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then failwith "eof";
      exact buf (off + n) (len - n)
    end
  in
  exact header 0 4;
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  let payload = Bytes.create len in
  exact payload 0 len;
  payload

(* The raw-socket cases run against both servers: [serve f] starts one
   on an ephemeral port and runs [f port]. *)
let dispatcher f = with_server (fun port _ _ -> f port)

(* A router over one shard that is never dialled: none of these cases
   needs a shard. *)
let router_config = { Server.Router.default_config with port = 0 }
let lone_shard =
  Server.Router.Map.create ~cuts:[] ~endpoints:[ [ ("127.0.0.1", 1) ] ]

let with_router f =
  let r = Server.Router.create router_config ~map:lone_shard in
  let thread = Thread.create Server.Router.serve r in
  Fun.protect
    ~finally:(fun () ->
      Server.Router.stop r;
      Thread.join thread)
    (fun () -> f r)

let router f = with_router (fun r -> f (Server.Router.port r))

let test_malformed_payload_gets_typed_error serve () =
  serve (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* well-framed payload, unknown opcode 0x7f *)
          let payload = Bytes.make 9 '\000' in
          Bytes.set_uint8 payload 8 0x7f;
          let frame = Bytes.create (4 + 9) in
          Bytes.set_int32_be frame 0 9l;
          Bytes.blit payload 0 frame 4 9;
          ignore (Unix.write fd frame 0 (Bytes.length frame));
          (match P.decode_response (raw_read_frame fd) with
          | Ok (0L, P.Error _) -> ()
          | _ -> Alcotest.fail "expected typed error with id 0");
          (* the connection survives a malformed payload *)
          let ping = P.encode_request ~id:9L P.Ping in
          ignore (Unix.write fd ping 0 (Bytes.length ping));
          match P.decode_response (raw_read_frame fd) with
          | Ok (9L, P.Ack _) -> ()
          | _ -> Alcotest.fail "connection did not survive"))

let test_oversized_frame_closes_connection serve () =
  serve (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.create 4 in
          Bytes.set_int32_be b 0 (Int32.of_int (P.max_payload + 1));
          ignore (Unix.write fd b 0 4);
          (* a typed error first ... *)
          (match P.decode_response (raw_read_frame fd) with
          | Ok (0L, P.Error _) -> ()
          | _ -> Alcotest.fail "expected typed error before close");
          (* ... then the server hangs up (framing is unrecoverable) *)
          match Unix.read fd (Bytes.create 1) 0 1 with
          | 0 -> ()
          | _ -> Alcotest.fail "server kept a desynced connection open"
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()))

(* A router must outlive a peer that hangs up mid-write, exactly like
   the dispatcher: creating one leaves SIGPIPE ignored. *)
let test_router_ignores_sigpipe () =
  let before = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe before)
    (fun () ->
      router (fun _ ->
          match Sys.signal Sys.sigpipe Sys.Signal_ignore with
          | Sys.Signal_ignore -> ()
          | _ -> Alcotest.fail "router left SIGPIPE at its default"))

(* ---- concurrency ---- *)

let test_concurrent_clients () =
  with_server ~preload:dataset (fun port _ _ ->
      let clients = 6 and per_client = 25 in
      let errors = Array.make clients None in
      let threads =
        List.init clients (fun ci ->
            Thread.create
              (fun () ->
                try
                  with_client port (fun c ->
                      for i = 0 to per_client - 1 do
                        let base = ((ci * per_client) + i) * 400 in
                        let q = Interval.Ivl.make base (base + 5000) in
                        let got = List.sort compare (intersect c q) in
                        if got <> brute_force q then
                          failwith "wrong intersection result"
                      done)
                with e -> errors.(ci) <- Some (Printexc.to_string e))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun ci -> function
          | Some m -> Alcotest.failf "client %d: %s" ci m
          | None -> ())
        errors)

(* ---- sessions: counters and private collections ---- *)

let test_session_isolation () =
  with_server (fun port _ _ ->
      with_client port (fun c1 ->
          with_client port (fun c2 ->
              (* DDL is shared state; transient engine sessions are not *)
              (match C.sql c1 "CREATE TABLE shared_t (x)" with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "ddl: %s" (C.error_to_string e));
              (match C.sql c2 "INSERT INTO shared_t VALUES (42)" with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "dml other session: %s" (C.error_to_string e));
              (* uncommitted writes are private to c2's transaction *)
              (match C.sql c1 "SELECT x FROM shared_t" with
              | Ok (P.Rows { rows = []; _ }) -> ()
              | Ok _ -> Alcotest.fail "uncommitted row leaked across sessions"
              | Error e -> Alcotest.failf "select: %s" (C.error_to_string e));
              ignore (ok (C.commit c2) : int);
              match C.sql c1 "SELECT x FROM shared_t" with
              | Ok (P.Rows { rows = [ [| 42 |] ]; _ }) -> ()
              | Ok _ -> Alcotest.fail "committed row not visible"
              | Error e -> Alcotest.failf "select: %s" (C.error_to_string e))))

(* ---- durability: commit, rollback, restart ---- *)

(* ROLLBACK is a per-session write-set discard, so it works — and is
   typed — on non-durable servers too (it used to answer a generic,
   retry-tempting [Error]). *)
let test_rollback_non_durable () =
  with_server (fun port _ _ ->
      with_client port (fun c ->
          (match C.insert c ~id:5 (Interval.Ivl.make 1 9) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
          (match C.rpc c P.Rollback with
          | P.Ack _ -> ()
          | P.Error m -> Alcotest.failf "generic error, not Ack: %s" m
          | _ -> Alcotest.fail "rollback on a non-durable server");
          check (Alcotest.list Alcotest.int) "write set discarded" []
            (intersect c (Interval.Ivl.make 1 9));
          (* the typed transaction errors are verdicts, never retried *)
          check Alcotest.bool "conflict not retryable" false
            (C.retryable (C.Conflict "lost the race"));
          check Alcotest.bool "invalid not retryable" false
            (C.retryable (C.Invalid "nested begin"))))

(* Two live sessions: A's uncommitted writes are invisible to B and its
   ROLLBACK discards only A's write set — B's committed data, prepared
   statements and the shared hot tier all survive. *)
let test_two_session_rollback_isolation () =
  with_server ~hot_tier_mb:8 ~preload:dataset (fun port sh _ ->
      with_client port (fun a ->
          with_client port (fun b ->
              (* warm the hot tier so we can prove ROLLBACK spares it *)
              ignore (intersect b (Interval.Ivl.make 0 1000));
              let tier_before = Exec.Memtier.stats (S.memtier sh) in
              ok
                (C.prepare b ~name:"probe"
                   "SELECT id FROM intervals WHERE lower <= :hi AND upper                     >= :lo");
              (* A inserts, uncommitted; B inserts and commits *)
              (match C.insert a ~id:777_001 (Interval.Ivl.make 42 43) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "a insert: %s" (C.error_to_string e));
              (match C.insert b ~id:777_002 (Interval.Ivl.make 42 43) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "b insert: %s" (C.error_to_string e));
              ignore (ok (C.commit b) : int);
              (* A still sees both: B's is committed, its own overlays *)
              let seen_by_a =
                intersect a (Interval.Ivl.make 42 43)
                |> List.filter (fun id -> id >= 777_000)
                |> List.sort compare
              in
              check (Alcotest.list Alcotest.int) "a sees committed + own"
                [ 777_001; 777_002 ] seen_by_a;
              ok (C.rollback a);
              (* B's committed row survives, A's is gone — in both
                 sessions *)
              List.iter
                (fun c ->
                  let got =
                    intersect c (Interval.Ivl.make 42 43)
                    |> List.filter (fun id -> id >= 777_000)
                  in
                  check (Alcotest.list Alcotest.int) "only b's row remains"
                    [ 777_002 ] got)
                [ a; b ];
              (* B's prepared statement still executes *)
              (match ok (C.execute b ~name:"probe" [ 43; 42 ]) with
              | P.Rows { rows; _ } ->
                  check Alcotest.bool "prepared survives" true
                    (List.exists (fun r -> r.(0) = 777_002) rows)
              | _ -> Alcotest.fail "prepared statement lost");
              (* the hot tier was NOT globally invalidated by the
                 rollback: no invalidation beyond what B's commit (a
                 genuine mutation) caused, and none attributable to A *)
              let tier_after = Exec.Memtier.stats (S.memtier sh) in
              check Alcotest.bool "rollback did not nuke the tier" true
                (tier_after.Exec.Memtier.s_invalidations
                 <= tier_before.Exec.Memtier.s_invalidations + 1))))

(* First-committer-wins: two sessions delete the same committed row;
   the second COMMIT answers the typed Conflict frame. *)
let test_write_write_conflict () =
  with_server (fun port _ _ ->
      with_client port (fun a ->
          with_client port (fun b ->
              (match C.insert a ~id:9 (Interval.Ivl.make 100 200) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
              ignore (ok (C.commit a) : int);
              let del c =
                C.rpc c (P.Delete { lower = 100; upper = 200; id = 9 })
              in
              (match (del a, del b) with
              | P.Ack _, P.Ack _ -> ()
              | _ -> Alcotest.fail "both deletes should buffer");
              ignore (ok (C.commit a) : int);
              (match C.commit b with
              | Error (C.Conflict _ as e) ->
                  check Alcotest.bool "conflict not retryable" false
                    (C.retryable e)
              | Ok _ -> Alcotest.fail "second committer won"
              | Error e ->
                  Alcotest.failf "wrong error shape: %s" (C.error_to_string e));
              (* the loser's session is alive with a fresh transaction *)
              ping b;
              check (Alcotest.list Alcotest.int) "row deleted once" []
                (intersect b (Interval.Ivl.make 100 200)))))

(* BEGIN pins the snapshot: reads are stable across a concurrent
   commit, and a second BEGIN is the typed Invalid. *)
let test_begin_snapshot_stability () =
  with_server (fun port _ _ ->
      with_client port (fun a ->
          with_client port (fun b ->
              (match C.insert a ~id:1 (Interval.Ivl.make 10 20) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
              ignore (ok (C.commit a) : int);
              ok (C.begin_txn b);
              (match C.begin_txn b with
              | Error (C.Invalid _) -> ()
              | Ok () -> Alcotest.fail "nested BEGIN accepted"
              | Error e ->
                  Alcotest.failf "wrong error shape: %s" (C.error_to_string e));
              check (Alcotest.list Alcotest.int) "pinned read" [ 1 ]
                (intersect b (Interval.Ivl.make 10 20));
              (match C.insert a ~id:2 (Interval.Ivl.make 10 20) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "insert 2: %s" (C.error_to_string e));
              ignore (ok (C.commit a) : int);
              (* b's pinned snapshot predates a's second commit *)
              check (Alcotest.list Alcotest.int) "stable across commit" [ 1 ]
                (intersect b (Interval.Ivl.make 10 20));
              ignore (ok (C.commit b) : int);
              (* a fresh implicit transaction reads the latest state *)
              check (Alcotest.list Alcotest.int) "fresh snapshot"
                [ 1; 2 ]
                (List.sort compare (intersect b (Interval.Ivl.make 10 20))))))

let test_commit_rollback () =
  with_server ~durable:true (fun port _ _ ->
      with_client port (fun c ->
          (match C.insert c ~id:1 (Interval.Ivl.make 10 20) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
          (match C.rpc c P.Commit with
          | P.Ack _ -> ()
          | _ -> Alcotest.fail "commit");
          (match C.insert c ~id:2 (Interval.Ivl.make 10 20) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "insert 2: %s" (C.error_to_string e));
          (match C.rpc c P.Rollback with
          | P.Ack _ -> ()
          | r ->
              Alcotest.failf "rollback: %s"
                (match r with P.Error m -> m | _ -> "?"));
          (* committed row survives, uncommitted row is gone *)
          let ids = List.sort compare (intersect c (Interval.Ivl.make 10 20)) in
          check (Alcotest.list Alcotest.int) "rollback boundary" [ 1 ] ids;
          (* the session keeps serving after the handle swap *)
          ping c;
          match C.sql c "SELECT node FROM intervals" with
          | Ok (P.Rows { rows; _ }) -> check Alcotest.int "sql after rollback" 1 (List.length rows)
          | _ -> Alcotest.fail "sql after rollback"))

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_group_commit_window () =
  (* a 20 ms group-commit window: COMMITs are staged, acknowledged only
     when the batch is forced, and both are durable afterwards *)
  with_server ~durable:true ~config:(config ~group_commit:0.02 ())
    (fun port _sh _disp ->
      let acks = Array.make 2 None in
      let worker i =
        with_client port (fun c ->
            (match C.insert c ~id:(100 + i) (Interval.Ivl.make 10 20) with
            | Ok _ -> ()
            | Error e -> failwith (C.error_to_string e));
            match C.rpc c P.Commit with
            | P.Ack m -> acks.(i) <- Some m
            | _ -> ())
      in
      let threads = Array.init 2 (fun i -> Thread.create worker i) in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i ack ->
          match ack with
          | Some m ->
              check Alcotest.bool
                (Printf.sprintf "client %d acked from a batch" i)
                true
                (contains m "group commit")
          | None -> Alcotest.failf "client %d: commit not acknowledged" i)
        acks;
      (* a later session's rollback cannot touch the acknowledged
         batch — both staged-and-acknowledged commits stay visible *)
      with_client port (fun c ->
          (match C.rpc c P.Rollback with
          | P.Ack _ -> ()
          | _ -> Alcotest.fail "rollback");
          let ids = List.sort compare (intersect c (Interval.Ivl.make 10 20)) in
          check (Alcotest.list Alcotest.int) "both commits durable"
            [ 100; 101 ] ids))

(* A client that stages a COMMIT into an open group-commit window and
   disconnects before the flush: the staged journal intent must still
   be forced (the MVCC apply already happened), the dead connection
   must be purged from the window rather than holding the 5 s deadline,
   and the commit must be durable. *)
let test_disconnect_between_stage_and_force () =
  with_server ~durable:true ~config:(config ~group_commit:5.0 ())
    (fun port sh _disp ->
      (* a sibling session holding an uncommitted write keeps the
         group-commit window open (commit-siblings rule) — without it
         the staged COMMIT below would be flushed immediately and the
         disconnect purge would never be exercised *)
      let sibling = C.connect ~port () in
      (match C.insert sibling (Interval.Ivl.make 1 2) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sibling insert: %s" (C.error_to_string e));
      let fd = raw_connect port in
      let send frame = ignore (Unix.write fd frame 0 (Bytes.length frame)) in
      send
        (P.encode_request ~id:1L
           (P.Insert { lower = 7; upper = 8; id = Some 321 }));
      (match P.decode_response (raw_read_frame fd) with
      | Ok (1L, P.Ack _) -> ()
      | _ -> Alcotest.fail "insert not acked");
      (* stage the COMMIT, then hang up without waiting for the Ack
         (which is owed only at the window flush, 5 s away) *)
      send (P.encode_request ~id:2L P.Commit);
      (* give the dispatcher a beat to stage it before the close *)
      Thread.delay 0.1;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* the close must purge the window and force the staged intent
         long before the 5 s deadline *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec wait () =
        if Relation.Catalog.pending_commits (S.catalog sh) = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "staged commit still pending after disconnect"
        else begin
          Thread.delay 0.02;
          wait ()
        end
      in
      wait ();
      (* the write is applied and durable: visible to a fresh session;
         the sibling's uncommitted insert stays invisible *)
      with_client port (fun c ->
          check (Alcotest.list Alcotest.int) "orphaned commit applied"
            [ 321 ]
            (intersect c (Interval.Ivl.make 7 8)));
      C.close sibling)

(* Regression: a catalog swap (a standby's [reload] after every
   replicated batch, a primary's [reopen]) rebuilt the session's SQL
   engine and dropped its prepared statements, so the next EXECUTE
   answered "unknown prepared statement". The engine is rebound
   instead, and the statement recompiles against the new handles. *)
let test_prepared_survive_catalog_swap () =
  let sh = S.shared ~durable:true () in
  S.preload sh dataset;
  let s = S.create sh in
  let q = Interval.Ivl.make 100_000 101_000 in
  let params = [ Interval.Ivl.upper q; Interval.Ivl.lower q ] in
  let expect what want =
    match S.handle s (P.Execute { name = "q"; params }) with
    | P.Rows { rows; _ } ->
        check (Alcotest.list Alcotest.int) what want
          (List.sort compare (List.map (fun r -> r.(0)) rows))
    | P.Error m -> Alcotest.failf "%s: %s" what m
    | _ -> Alcotest.failf "%s: EXECUTE did not return rows" what
  in
  let sql = "SELECT id FROM intervals WHERE lower <= :hi AND upper >= :lo" in
  (match S.handle s (P.Prepare { name = "q"; sql }) with
  | P.Ack _ -> ()
  | _ -> Alcotest.fail "prepare");
  let before = brute_force q in
  check Alcotest.bool "the query has answers" true (before <> []);
  expect "before the swap" before;
  S.flush_shared sh;
  S.reload sh;
  expect "after reload" before;
  (* a write committed after the swap reaches the recompiled plan *)
  (match
     S.handle s (P.Insert { lower = 100_500; upper = 100_600; id = Some 5_000 })
   with
  | P.Ack _ -> ()
  | _ -> Alcotest.fail "insert");
  (match S.handle s P.Commit with P.Ack _ -> () | _ -> Alcotest.fail "commit");
  let after = List.sort compare (5_000 :: before) in
  expect "a write after reload" after;
  S.flush_shared sh;
  S.reopen sh;
  expect "after reopen" after

let test_graceful_shutdown_no_data_loss () =
  (* insert + commit through the wire, stop the server (which
     checkpoints), then reopen the database from persistent storage —
     the in-process equivalent of a daemon restart *)
  let sh = S.shared ~durable:true () in
  let disp = D.create ~config:(config ()) sh in
  let thread = Thread.create (fun () -> D.serve disp) () in
  with_client (D.port disp) (fun c ->
      (match C.insert c ~id:77 (Interval.Ivl.make 1000 2000) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
      match C.rpc c P.Commit with
      | P.Ack _ -> ()
      | _ -> Alcotest.fail "commit");
  D.stop disp;
  Thread.join thread;
  S.reopen sh;
  let ids =
    Exec.Planner.intersecting_ids (S.tree sh) (Interval.Ivl.make 1500 1500)
  in
  check (Alcotest.list Alcotest.int) "row survived restart" [ 77 ] ids

(* ---- robustness: idle reaping and degraded read-only mode ---- *)

let test_idle_timeout_reaps () =
  with_server ~config:(config ~idle_timeout:0.2 ()) (fun port _ _ ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ping = P.encode_request ~id:1L P.Ping in
          ignore (Unix.write fd ping 0 (Bytes.length ping));
          (match P.decode_response (raw_read_frame fd) with
          | Ok (1L, P.Ack _) -> ()
          | _ -> Alcotest.fail "ping before idling");
          (* sit idle past the timeout: the server sends a typed Goodbye
             (request id 0, like its other unsolicited frames), then
             hangs up *)
          (match P.decode_response (raw_read_frame fd) with
          | Ok (0L, P.Goodbye _) -> ()
          | _ -> Alcotest.fail "expected a typed Goodbye frame");
          match Unix.read fd (Bytes.create 1) 0 1 with
          | 0 -> ()
          | _ -> Alcotest.fail "connection stayed open after Goodbye"
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()))

(* Push every page to disk, then flip one bit in each non-zero block
   behind the server's back. *)
let corrupt_every_block sh =
  let cat = S.catalog sh in
  Relation.Catalog.drop_cache cat;
  let dev = Relation.Catalog.device cat in
  let buf = Bytes.create (Storage.Block_device.block_size dev) in
  for b = 0 to Storage.Block_device.allocated dev - 1 do
    Storage.Block_device.read dev b buf;
    if Bytes.exists (fun ch -> ch <> '\000') buf then begin
      Bytes.set_uint8 buf 0 (Bytes.get_uint8 buf 0 lxor 0x01);
      Storage.Block_device.write dev b buf
    end
  done

let test_corruption_degrades_to_read_only () =
  with_server ~durable:true (fun port sh _ ->
      with_client port (fun c ->
          for i = 1 to 50 do
            match C.insert c ~id:i (Interval.Ivl.make (i * 10) ((i * 10) + 5)) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e)
          done;
          (match C.rpc c P.Commit with
          | P.Ack _ -> ()
          | _ -> Alcotest.fail "commit");
          corrupt_every_block sh;
          (* the poisoned read comes back typed, not as a crash *)
          (match C.intersect c (Interval.Ivl.make 0 1000) with
          | Error (C.Server m) ->
              check Alcotest.bool "names the corruption" true
                (contains m "corrupt")
          | Ok _ -> Alcotest.fail "read served from a corrupt page"
          | Error e ->
              Alcotest.failf "wrong error shape: %s" (C.error_to_string e));
          (* now degraded: mutations refused typed, the connection and
             its read path keep serving *)
          (match C.insert c ~id:999 (Interval.Ivl.make 1 2) with
          | Error (C.Read_only _) -> ()
          | Ok _ -> Alcotest.fail "mutation admitted in degraded mode"
          | Error e ->
              Alcotest.failf "wrong refusal shape: %s" (C.error_to_string e));
          ping c))

(* A COMMIT whose apply faults a corrupt page answers the typed
   corruption error and degrades the server, whatever the group-commit
   window: the next mutation is refused [Read_only]. *)
let test_corrupt_commit_degrades window () =
  with_server ~durable:true ~preload:dataset
    ~config:(config ~group_commit:window ())
    (fun port sh _ ->
      with_client port (fun c ->
          for i = 1 to 20 do
            let lower = i * 997 in
            match
              C.insert c ~id:(5000 + i) (Interval.Ivl.make lower (lower + 40))
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e)
          done;
          corrupt_every_block sh;
          (match C.rpc c P.Commit with
          | P.Error m ->
              check Alcotest.bool "names the corruption" true
                (contains m "corrupt")
          | _ -> Alcotest.fail "commit over a corrupt page not an Error");
          match C.insert c ~id:999 (Interval.Ivl.make 1 2) with
          | Error (C.Read_only _) -> ()
          | Ok _ -> Alcotest.fail "mutation admitted after a corrupt commit"
          | Error e ->
              Alcotest.failf "wrong refusal shape: %s" (C.error_to_string e)))

(* A COMMIT's recorded I/O covers its apply and its force at every
   window. The pool is smaller than the preload, so each apply faults
   pages in and writes dirty ones back; one writer means every window
   closes with a batch of one, so both runs must count the same I/O. *)
let test_commit_io_every_window () =
  let commit_io window =
    with_server ~durable:true ~cache_blocks:16 ~preload:dataset
      ~config:(config ~group_commit:window ())
      (fun port _ _ ->
        with_client port (fun c ->
            let rng = Random.State.make [| 11 |] in
            for _ = 1 to 10 do
              for _ = 1 to 4 do
                let lower = Random.State.int rng 1_000_000 in
                match C.insert c (Interval.Ivl.make lower (lower + 500)) with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e)
              done;
              ignore (ok (C.commit c))
            done;
            let s = ok (C.server_stats c) in
            let o =
              List.find (fun (o : P.op_stat) -> o.P.op = "commit") s.P.ops
            in
            check Alcotest.int "commits recorded" 10 o.P.count;
            o.P.total_io))
  in
  let sync = commit_io 0. in
  check Alcotest.bool "the applies fault pages" true (sync > 0);
  check Alcotest.int "commit I/O at a 20 ms window" sync (commit_io 0.02)

(* ---- observability ---- *)

(* Regression: an empty interval used to escape the session as a bare
   [Failure], which the dispatcher rendered as a generic (retryable)
   server Error. It is the client's bug: the response must be the typed
   Invalid, and the session must keep serving. *)
let test_invalid_interval_keeps_session () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          (match C.rpc c (P.Intersect { lower = 9; upper = 3 }) with
          | P.Invalid m ->
              check Alcotest.bool "names the bounds" true
                (contains m "9" && contains m "3")
          | P.Error m -> Alcotest.failf "generic error, not Invalid: %s" m
          | _ -> Alcotest.fail "empty interval accepted");
          (* the typed client cannot even build an empty Ivl, so drive
             the insert through the raw rpc as a hand-rolled frame *)
          (match C.rpc c (P.Insert { lower = 5; upper = 2; id = None }) with
          | P.Invalid _ -> ()
          | _ -> Alcotest.fail "empty insert not flagged Invalid");
          (* connection and session still fully usable *)
          ping c;
          let q = Interval.Ivl.make 100_000 110_000 in
          check (Alcotest.list Alcotest.int) "intersect after invalid"
            (brute_force q)
            (List.sort compare (intersect c q))))

let test_metrics_wire_op () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          ping c;
          ignore (intersect c (Interval.Ivl.make 0 50_000));
          let doc = ok (C.metrics c) in
          List.iter
            (fun family ->
              check Alcotest.bool family true (contains doc family))
            [ "rikit_uptime_seconds"; "rikit_requests_total";
              "rikit_op_latency_us_bucket"; "rikit_op_latency_us_count";
              "rikit_pool_hit_rate"; "rikit_sessions" ];
          (* the intersect we just ran is visible in its op family *)
          check Alcotest.bool "intersect op labelled" true
            (contains doc "op=\"intersect\"")))

(* The value of the unlabelled sample [name] in an exposition. *)
let sample doc name =
  let prefix = name ^ " " in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' doc)
  with
  | Some l ->
      float_of_string
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
  | None -> Alcotest.failf "no %s sample" name

let test_metrics_gc_counters () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          let counters =
            [ "rikit_gc_minor_words_total"; "rikit_gc_promoted_words_total";
              "rikit_gc_major_words_total";
              "rikit_gc_major_collections_total" ]
          in
          let read () =
            let doc = ok (C.metrics c) in
            check Alcotest.bool "heap size reported" true
              (sample doc "rikit_gc_heap_words" > 0.);
            List.map (sample doc) counters
          in
          let before = read () in
          for _ = 1 to 50 do
            ignore (intersect c (Interval.Ivl.make 0 50_000))
          done;
          Gc.full_major ();
          let after = read () in
          List.iter2
            (fun name (b, a) ->
              check Alcotest.bool
                (Printf.sprintf "%s never decreases (%.0f -> %.0f)" name b a)
                true (a >= b))
            counters (List.combine before after);
          check Alcotest.bool "the requests allocated" true
            (List.hd after > List.hd before)))

let test_metrics_http_endpoint () =
  with_server ~config:(config ~metrics_port:0 ()) ~preload:dataset
    (fun port _ disp ->
      let mport = D.metrics_port disp in
      check Alcotest.bool "ephemeral port bound" true (mport > 0);
      with_client port (fun c ->
          ping c;
          ignore (intersect c (Interval.Ivl.make 0 10_000)));
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let body =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
            let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
            ignore (Unix.write fd req 0 (Bytes.length req));
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
            in
            drain ();
            Buffer.contents buf)
      in
      check Alcotest.bool "HTTP 200" true (contains body "200 OK");
      check Alcotest.bool "prometheus content type" true
        (contains body "text/plain; version=0.0.4");
      List.iter
        (fun family ->
          check Alcotest.bool family true (contains body family))
        [ "rikit_op_latency_us_bucket"; "rikit_pool_hit_rate";
          "rikit_requests_total" ])

(* ---- prepared statements over the wire (protocol v4) ---- *)

let test_prepare_execute_close () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          ok
            (C.prepare c ~name:"q"
               "SELECT id FROM intervals WHERE lower <= :hi AND upper >= :lo");
          let run lo hi =
            match ok (C.execute c ~name:"q" [ hi; lo ]) with
            | P.Rows { rows; _ } ->
                List.sort compare (List.map (fun r -> r.(0)) rows)
            | _ -> Alcotest.fail "execute did not return rows"
          in
          (* EXECUTE answers exactly what the typed intersect op does;
             params bind in first-appearance order (:hi then :lo) *)
          let q = Interval.Ivl.make 100_000 110_000 in
          check (Alcotest.list Alcotest.int) "execute = brute force"
            (brute_force q)
            (run (Interval.Ivl.lower q) (Interval.Ivl.upper q));
          (* repeated EXECUTE hits the session plan cache *)
          let q2 = Interval.Ivl.make 150_000 152_000 in
          check (Alcotest.list Alcotest.int) "second execute"
            (brute_force q2)
            (run (Interval.Ivl.lower q2) (Interval.Ivl.upper q2));
          (* arity mismatch is a typed error, session survives *)
          (match C.execute c ~name:"q" [ 1 ] with
          | Error (C.Server m) ->
              check Alcotest.bool "mentions arity" true
                (contains m "parameters")
          | _ -> Alcotest.fail "arity mismatch accepted");
          (* unknown name is a typed error *)
          (match C.execute c ~name:"nope" [] with
          | Error (C.Server _) -> ()
          | _ -> Alcotest.fail "unknown statement accepted");
          ok (C.close_stmt c "q");
          (match C.execute c ~name:"q" [ 1; 2 ] with
          | Error (C.Server _) -> ()
          | _ -> Alcotest.fail "closed statement still executes");
          ping c))

let test_prepared_mutation_respects_read_only () =
  with_server ~preload:dataset (fun port sh _ ->
      with_client port (fun c ->
          (match C.sql c "CREATE TABLE pt (a)" with
          | Ok (P.Ack _) -> ()
          | _ -> Alcotest.fail "create table");
          ok (C.prepare c ~name:"ins" "INSERT INTO pt VALUES (:v)");
          ok (C.prepare c ~name:"rd" "SELECT a FROM pt");
          (match ok (C.execute c ~name:"ins" [ 1 ]) with
          | P.Ack _ -> ()
          | _ -> Alcotest.fail "insert execute");
          (* degrade the shared catalog: prepared mutations must be
             refused, prepared reads keep serving *)
          Relation.Catalog.degrade (S.catalog sh) "test";
          (match C.execute c ~name:"ins" [ 2 ] with
          | Error (C.Read_only _) -> ()
          | _ -> Alcotest.fail "prepared INSERT ran on a degraded server");
          match ok (C.execute c ~name:"rd" []) with
          | P.Rows { rows = [ [| 1 |] ]; _ } -> ()
          | _ -> Alcotest.fail "prepared SELECT refused on a degraded server"))

(* An integer literal beyond the native range is the client's lex
   error, typed with its position, not a bare [int_of_string] failure. *)
let test_literal_out_of_range () =
  let sess = S.create (S.shared ()) in
  List.iter
    (fun (sql, pos) ->
      match S.handle sess (P.Sql sql) with
      | P.Error m ->
          check Alcotest.string sql
            (Printf.sprintf "lex error at %d: integer literal out of range" pos)
            m
      | _ -> Alcotest.failf "%s: expected a lex error" sql)
    [ ("SELECT id FROM intervals WHERE id = 9999999999999999999", 36);
      ("SELECT id FROM intervals WHERE id > -4611686018427387904", 37) ]

let test_explain_wire_op () =
  with_server ~preload:dataset (fun port _ _ ->
      with_client port (fun c ->
          (* all three targets answer with a rendered plan; ANALYZE adds
             the measured footer. SQL text and the typed intersect op
             render through the same plan vocabulary. *)
          let sql_plan =
            ok
              (C.explain c
                 (P.Explain_sql
                    "SELECT lower, upper, id FROM intervals WHERE lower <= \
                     110000 AND upper >= 100000"))
          in
          check Alcotest.bool "sql plan rendered" true
            (contains sql_plan "SELECT STATEMENT");
          (* the SQL intersection predicate runs the Fig. 9 plan, not a
             heap scan *)
          List.iter
            (fun fragment ->
              check Alcotest.bool fragment true (contains sql_plan fragment))
            [ "UNION-ALL"; "INTERVALS_UPPER"; "INTERVALS_LOWER" ];
          check Alcotest.bool "no heap scan" false
            (contains sql_plan "TABLE ACCESS FULL");
          let typed_plan =
            ok (C.explain c (P.Explain_intersect { lower = 100_000; upper = 110_000 }))
          in
          List.iter
            (fun fragment ->
              check Alcotest.bool fragment true (contains typed_plan fragment))
            [ "SELECT STATEMENT"; "UNION-ALL"; "COLLECTION ITERATOR";
              "INDEX RANGE SCAN"; "PREDICTED" ];
          let analyzed =
            ok
              (C.explain c ~analyze:true
                 (P.Explain_intersect { lower = 100_000; upper = 110_000 }))
          in
          check Alcotest.bool "actual footer" true (contains analyzed "ACTUAL");
          let allen =
            ok
              (C.explain c
                 (P.Explain_allen
                    { relation = Interval.Allen.During; lower = 1; upper = 9 }))
          in
          check Alcotest.bool "allen plan rendered" true
            (contains allen "SELECT STATEMENT")))

(* A response the client cannot decode (an op this client build does
   not know) must reject that one call with a typed, non-retryable
   error and leave the connection in sync — not raise, not desync.
   Simulated with a raw loopback "server from the future" that answers
   the first request with a well-delimited unknown-opcode frame and
   then behaves normally. *)
(* There is no name resolution: a host name is refused with the typed
   transport error before any socket exists, so the next socket gets the
   number a socket opened and closed just before the call had. *)
let test_bad_host_typed_no_leak () =
  let probe () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.close fd;
    fd
  in
  let before = probe () in
  (match C.connect ~host:"localhost" ~port:7468 () with
  | c ->
      C.close c;
      Alcotest.fail "connected to a host name"
  | exception C.Io_error _ -> ());
  check Alcotest.bool "no fd leaked" true (probe () = before)

let test_unknown_op_typed_error_no_desync () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let server_thread =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept srv in
        let answer bytes = ignore (Unix.write fd bytes 0 (Bytes.length bytes)) in
        let eat () = ignore (Unix.read fd (Bytes.create 4096) 0 4096) in
        (* first request: well-delimited frame with an unknown opcode *)
        eat ();
        let bogus = Bytes.create 13 in
        Bytes.set_int32_be bogus 0 9l;
        Bytes.set_int64_be bogus 4 1L;
        Bytes.set_uint8 bogus 12 0x6f;
        answer bogus;
        (* second request: a normal Ack, proving the stream is intact *)
        eat ();
        answer (P.encode_response ~id:2L (P.Ack "pong"));
        Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server_thread;
      try Unix.close srv with Unix.Unix_error _ -> ())
    (fun () ->
      let c = C.connect ~port () in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          (match C.rpc_result c P.Ping with
          | Error (C.Unexpected m) ->
              check Alcotest.bool "names the decode failure" true
                (contains m "opcode" || contains m "undecodable");
              check Alcotest.bool "not retryable" false
                (C.retryable (C.Unexpected m))
          | Ok _ -> Alcotest.fail "undecodable response accepted"
          | Error e ->
              Alcotest.failf "wrong error class: %s" (C.error_to_string e));
          (* the very same connection keeps working *)
          match C.rpc_result c P.Ping with
          | Ok (P.Ack _) -> ()
          | _ -> Alcotest.fail "connection desynced after unknown op"))

(* An unsharded rikitd answers SHARD_MAP as a degenerate one-shard
   cluster: a single range covering all of interval space, pointing
   back at itself — so a router-aware client can bootstrap against
   either server shape with the same handshake. *)
let test_shard_map_degenerate () =
  with_server (fun port _ _ ->
      with_client port (fun c ->
          match ok (C.rpc_result c P.Shard_map_req) with
          | P.Shard_map [ e ] ->
              check Alcotest.int "covers from the left edge" min_int
                e.P.shard_lo;
              check Alcotest.int "covers to the right edge" max_int
                e.P.shard_hi;
              check Alcotest.bool "points back at itself" true
                (e.P.endpoints = [ ("127.0.0.1", port) ])
          | P.Shard_map entries ->
              Alcotest.failf "expected one entry, got %d"
                (List.length entries)
          | _ -> Alcotest.fail "unexpected response to SHARD_MAP"))

(* ---- backpressure: a consumer that stops reading ---- *)

(* A client pipelines fat queries and stops reading. The server's write
   buffer crosses the (deliberately tiny) high-water mark on the first
   fat response: the remaining requests are dropped, one typed
   Overloaded frame is queued past the mark, and the connection closes
   once the client drains what it was owed — while every other client
   keeps getting served. *)
let test_slow_consumer_backpressure () =
  with_server
    ~config:(config ~write_high_water:32_768 ())
    ~preload:dataset
    (fun port _ _ ->
      let stalled = raw_connect port in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close stalled with Unix.Unix_error _ -> ())
        (fun () ->
          let fat =
            P.Intersect { lower = 0; upper = Workload.Distribution.domain_max }
          in
          for i = 1 to 200 do
            let f = P.encode_request ~id:(Int64.of_int i) fat in
            ignore (Unix.write stalled f 0 (Bytes.length f))
          done;
          (* while it is wedged, the loop serves everyone else *)
          let c = C.connect ~deadline_ms:5000. ~port () in
          Fun.protect
            ~finally:(fun () -> C.close c)
            (fun () ->
              for _ = 1 to 20 do
                ping c
              done;
              let q = Interval.Ivl.make 100_000 110_000 in
              check (Alcotest.list Alcotest.int) "other clients still answered"
                (brute_force q)
                (List.sort compare (intersect c q)));
          (* resume reading: the owed frames, the typed cut-off, EOF *)
          Unix.setsockopt_float stalled Unix.SO_RCVTIMEO 10.;
          let rows = ref 0 and overloaded = ref 0 and eof = ref false in
          (try
             while not !eof do
               match P.decode_response (raw_read_frame stalled) with
               | Ok (_, P.Overloaded _) -> incr overloaded
               | Ok (_, P.Rows _) -> incr rows
               | Ok _ | Error _ -> ()
             done
           with
          | Failure _ -> eof := true
          | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              eof := true);
          check Alcotest.bool "typed Overloaded frame rode out" true
            (!overloaded = 1);
          check Alcotest.bool "server hung up after the cut-off" true !eof;
          check Alcotest.bool "unanswered requests were dropped" true
            (!rows < 10)))

(* A consumer that stops reading while its answers are pending is
   closed at its stall deadline, which is the idle timeout when one is
   set (5 s otherwise). The high-water mark is far above what is owed,
   so no cut-off intervenes, and the pending output keeps the idle
   deadline from firing. *)
let test_stall_deadline () =
  with_server
    ~config:(config ~idle_timeout:0.3 ~write_high_water:(1 lsl 30) ())
    ~preload:dataset
    (fun port _ disp ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let fat =
            P.Intersect { lower = 0; upper = Workload.Distribution.domain_max }
          in
          let asked = 200 in
          for i = 1 to asked do
            let f = P.encode_request ~id:(Int64.of_int i) fat in
            ignore (Unix.write fd f 0 (Bytes.length f))
          done;
          let sessions () = Server.Server_stats.sessions (D.stats disp) in
          let wait_until ok =
            let t0 = Unix.gettimeofday () in
            while (not (ok ())) && Unix.gettimeofday () -. t0 < 10. do
              Unix.sleepf 0.01
            done
          in
          (* the connect completes before the server accepts *)
          wait_until (fun () -> sessions () = 1);
          let t0 = Unix.gettimeofday () in
          wait_until (fun () -> sessions () = 0);
          let waited = Unix.gettimeofday () -. t0 in
          check Alcotest.int "stalled connection closed" 0 (sessions ());
          if waited >= 3. then
            Alcotest.failf "closed after %.2f s, not at the 0.3 s deadline"
              waited;
          (* what the kernel still held arrives, then EOF: the
             connection was cut, not answered in full, and not told it
             was idle *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let rows = ref 0 in
          (try
             while true do
               match P.decode_response (raw_read_frame fd) with
               | Ok (_, P.Rows _) -> incr rows
               | Ok (_, P.Goodbye _) -> Alcotest.fail "told it was idle"
               | Ok _ -> Alcotest.fail "unexpected frame"
               | Error _ -> Alcotest.fail "undecodable frame"
             done
           with
          | Failure _ -> ()
          | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
          check Alcotest.bool "answers were cut off" true (!rows < asked)))

(* Once the last request is answered, an idle server holds no timer:
   its deadlines belong to connections that owe output or have an idle
   timeout, and the loop arms none of its own. *)
let test_idle_dispatcher_no_timer () =
  with_server (fun port _ disp ->
      with_client port (fun c ->
          ping c;
          check Alcotest.int "pending timers" 0
            (Reactor.timer_count (D.reactor disp))))

let test_idle_router_no_timer () =
  with_router (fun r ->
      with_client (Server.Router.port r) (fun c ->
          ping c;
          check Alcotest.int "pending timers" 0
            (Reactor.timer_count (Server.Router.reactor r))))

(* A device fault in the window's force answers the COMMIT with the
   typed frame a request gets for that fault, and the server degrades
   to read-only: the batch is applied but not durable. The loop and
   the connection survive. *)
(* Once on an empty database and once on a preloaded one: the preload
   builds its catalog on the faulty device too. *)
let test_force_fault_degrades () =
  List.iter
    (fun preload ->
      let f = Storage.Faulty_device.create (Storage.Block_device.create ()) in
      with_server ~device:(Storage.Faulty_device.device f) ~preload
        (fun port _ _ ->
          let c = C.connect ~deadline_ms:5000. ~port () in
          Fun.protect ~finally:(fun () -> C.close c) (fun () ->
              (match C.insert c ~id:1 (Interval.Ivl.make 10 20) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "insert: %s" (C.error_to_string e));
              Storage.Faulty_device.schedule_write_fault f
                ~at:(Storage.Faulty_device.writes_done f)
                Storage.Faulty_device.Fail;
              (match C.rpc c P.Commit with
              | P.Error m ->
                  check Alcotest.bool "names the I/O error" true
                    (contains m "I/O error")
              | _ -> Alcotest.fail "expected a typed Error for the commit");
              ping c;
              match C.insert c ~id:2 (Interval.Ivl.make 30 40) with
              | Error (C.Read_only _) -> ()
              | Ok _ -> Alcotest.fail "mutation admitted after a failed force"
              | Error e ->
                  Alcotest.failf "wrong error shape: %s" (C.error_to_string e))))
    [ [||]; Array.sub dataset 0 200 ]

let raw_suite =
  [
    ( "ops",
      [
        ("basic request/response", test_basic_ops);
        ("allen over the wire", test_allen_query);
        ("stats surface", test_stats_surface);
        ("prepare/execute/close", test_prepare_execute_close);
        ("prepared mutation vs read-only",
         test_prepared_mutation_respects_read_only);
        ("explain wire op", test_explain_wire_op);
        ("shard map of an unsharded server", test_shard_map_degenerate);
      ] );
    ( "admission",
      [
        ("session limit", test_session_limit);
      ] );
    ( "wire",
      [
        ("malformed payload",
         test_malformed_payload_gets_typed_error dispatcher);
        ("oversized frame", test_oversized_frame_closes_connection dispatcher);
        ("malformed payload, router",
         test_malformed_payload_gets_typed_error router);
        ("oversized frame, router",
         test_oversized_frame_closes_connection router);
        ("router ignores SIGPIPE", test_router_ignores_sigpipe);
        ("unknown op: typed error, no desync",
         test_unknown_op_typed_error_no_desync);
        ("bad host: typed error, no fd leak", test_bad_host_typed_no_leak);
      ] );
    ( "concurrency",
      [
        ("parallel clients", test_concurrent_clients);
        ("slow consumer backpressure", test_slow_consumer_backpressure);
        ("stalled consumer closed at its deadline", test_stall_deadline);
      ] );
    ( "observability",
      [
        ("invalid interval keeps session", test_invalid_interval_keeps_session);
        ("GC counters exposed, never decrease", test_metrics_gc_counters);
        ("out-of-range literal is a lex error", test_literal_out_of_range);
        ("metrics wire op", test_metrics_wire_op);
        ("metrics http endpoint", test_metrics_http_endpoint);
      ] );
    ( "robustness",
      [
        ("idle timeout reaps sessions", test_idle_timeout_reaps);
        ("corruption degrades to read-only",
         test_corruption_degrades_to_read_only);
        ("corrupt commit degrades, window 0",
         test_corrupt_commit_degrades 0.);
        ("corrupt commit degrades, window 20 ms",
         test_corrupt_commit_degrades 0.02);
        ("force fault answers typed, degrades", test_force_fault_degrades);
        ("idle dispatcher holds no timer", test_idle_dispatcher_no_timer);
        ("idle router holds no timer", test_idle_router_no_timer);
      ] );
    ( "sessions",
      [
        ("shared tables", test_session_isolation);
        ("two-session rollback isolation", test_two_session_rollback_isolation);
        ("write-write conflict", test_write_write_conflict);
        ("begin pins the snapshot", test_begin_snapshot_stability);
      ] );
    ( "durability",
      [
        ("rollback works non-durable, typed", test_rollback_non_durable);
        ("commit/rollback boundary", test_commit_rollback);
        ("disconnect between stage and force",
         test_disconnect_between_stage_and_force);
        ("group-commit window", test_group_commit_window);
        ("commit I/O at every window", test_commit_io_every_window);
        ("graceful shutdown, no data loss",
         test_graceful_shutdown_no_data_loss);
        ("prepared statements survive a catalog swap",
         test_prepared_survive_catalog_swap);
      ] );
  ]

(* The live suite is registered twice, under the "[poll]" and "[select]"
   tags it carried when it ran once per readiness backend, so test names
   stay stable. There is one backend now and both passes run on it: the
   second repeats every case against a fresh server after the whole
   first pass, so state leaking from one server to the next in a
   process shows up. *)
let () =
  let pass tag =
    List.map
      (fun (group, tests) ->
        ( Printf.sprintf "%s [%s]" group tag,
          List.map
            (fun (name, f) -> Alcotest.test_case name `Quick f)
            tests ))
      raw_suite
  in
  Alcotest.run "server" (pass "poll" @ pass "select")
