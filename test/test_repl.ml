(* Live replication and failover: a primary and a hot-standby replica
   as two real dispatchers on loopback, journal frames on real sockets.

   Covers: full-history catch-up of a late-joining replica, the
   semi-synchronous ack contract (a committed write is readable on the
   replica the moment the client's COMMIT returns, with no sleep),
   read-only enforcement on the standby, client failover after a
   primary kill with zero acked-write loss, and — at the unit level —
   that the replica apply engine is insensitive to how the byte stream
   is chopped into frames (every split point, torn tails, reconnect
   resume) and refuses gaps. *)

module P = Server.Protocol
module D = Server.Dispatcher
module S = Server.Session
module C = Server.Client
module F = Server.Failover
module R = Server.Replica

let check = Alcotest.check

let start_node ?(group_commit = 0.) ?replica_of () =
  Testbed.start
    { D.default_config with max_sessions = 32; group_commit; replica_of }
    (S.shared ~durable:true ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (C.error_to_string e)

(* Block until the node on [port] has applied through [lsn]. *)
let wait_applied ~port lsn =
  if Testbed.wait_applied ~port lsn = None then
    Alcotest.failf "replica on port %d stuck below lsn %d" port lsn

let ivl lo up = Interval.Ivl.make lo up

let insert_committed c ~lo ~up =
  let id = ok (C.insert c (ivl lo up)) in
  let lsn = ok (C.commit c) in
  (id, lsn)

let ids_of pairs =
  List.sort_uniq compare (List.map (fun (_, id) -> id) pairs)

(* ---- replica catch-up, reads, read-only ---- *)

let test_catchup () =
  let primary = start_node () in
  Fun.protect ~finally:(fun () -> Testbed.stop primary) @@ fun () ->
  let c = C.connect ~port:(Testbed.port primary) () in
  let lsn = ref 0 in
  for i = 0 to 29 do
    let _, l = insert_committed c ~lo:(i * 10) ~up:((i * 10) + 5) in
    lsn := l
  done;
  (* The replica joins late: it must replay the whole retained history
     (no snapshot transfer — every page image travels the journal). *)
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  wait_applied ~port:(Testbed.port replica) !lsn;
  let rc = C.connect ~port:(Testbed.port replica) () in
  let rows = ok (C.intersect rc (ivl 0 2000)) in
  check Alcotest.int "replica serves all committed rows" 30
    (List.length (ids_of rows));
  (* the standby refuses mutations with the typed frame *)
  (match C.insert rc (ivl 1 2) with
  | Error (C.Read_only _) -> ()
  | Ok _ -> Alcotest.fail "replica accepted a mutation"
  | Error e ->
      Alcotest.failf "expected Read_only, got %s" (C.error_to_string e));
  (* roles over the wire *)
  let role_p, _, _ = ok (C.repl_status c) in
  let role_r, _, _ = ok (C.repl_status rc) in
  check Alcotest.bool "primary role" true (role_p = P.Primary);
  check Alcotest.bool "replica role" true (role_r = P.Replica);
  C.close rc;
  C.close c

(* ---- the semi-synchronous contract: no sleep between commit-ack and
   replica read ---- *)

let test_semi_sync () =
  let primary = start_node () in
  Fun.protect ~finally:(fun () -> Testbed.stop primary) @@ fun () ->
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let c = C.connect ~port:(Testbed.port primary) () in
  (* settle the subscription first: one committed write, wait it out *)
  let _, l0 = insert_committed c ~lo:1 ~up:2 in
  wait_applied ~port:(Testbed.port replica) l0;
  let rc = C.connect ~port:(Testbed.port replica) () in
  for i = 1 to 20 do
    let id, _ = insert_committed c ~lo:(100 + i) ~up:(200 + i) in
    (* the ack was held until the replica applied the batch, so the row
       must be on the standby RIGHT NOW *)
    let rows = ok (C.intersect rc (ivl (100 + i) (100 + i))) in
    if not (List.exists (fun (_, rid) -> rid = id) rows) then
      Alcotest.failf "write %d acked but invisible on the replica" id
  done;
  C.close rc;
  C.close c

(* ---- a standby's counters run on across applied batches ----

   Every applied batch reopens the standby's catalog. The reopened
   catalog keeps the pool, so the pool's hit, miss and eviction
   counters (and every other [_total] family) never go backwards on a
   standby that serves reads between commits. *)

(* Every [_total] sample of a metrics document: (series, value). *)
let totals doc =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
            let series = String.sub line 0 i in
            let name =
              match String.index_opt series '{' with
              | Some j -> String.sub series 0 j
              | None -> series
            in
            if String.ends_with ~suffix:"_total" name then
              Some
                ( series,
                  float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1)) )
            else None)
    (String.split_on_char '\n' doc)

let test_standby_counters_monotone () =
  let primary = start_node () in
  Fun.protect ~finally:(fun () -> Testbed.stop primary) @@ fun () ->
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let c = C.connect ~port:(Testbed.port primary) () in
  for i = 0 to 9 do
    ignore (insert_committed c ~lo:(i * 10) ~up:((i * 10) + 5))
  done;
  let _, lsn = insert_committed c ~lo:1 ~up:2 in
  wait_applied ~port:(Testbed.port replica) lsn;
  let rc = C.connect ~port:(Testbed.port replica) () in
  for i = 0 to 19 do
    ignore (ok (C.intersect rc (ivl 0 (100 + i))))
  done;
  let scrape () = totals (ok (C.metrics rc)) in
  let prev = ref (scrape ()) in
  check Alcotest.bool "pool hits scraped" true
    (List.assoc_opt "rikit_pool_hits_total" !prev <> None);
  for k = 1 to 3 do
    (* semi-sync: the ack means the standby applied (and reloaded) *)
    ignore (insert_committed c ~lo:(500 + k) ~up:(600 + k));
    ignore (ok (C.intersect rc (ivl 500 500)));
    let now = scrape () in
    List.iter
      (fun (series, v0) ->
        match List.assoc_opt series now with
        | Some v when v < v0 ->
            Alcotest.failf "%s fell from %.0f to %.0f after commit %d" series
              v0 v k
        | Some _ -> ()
        | None -> Alcotest.failf "%s vanished after commit %d" series k)
      !prev;
    prev := now
  done;
  C.close rc;
  C.close c

(* ---- group-commit batches replicate too ---- *)

let test_group_commit_repl () =
  let primary = start_node ~group_commit:0.002 () in
  Fun.protect ~finally:(fun () -> Testbed.stop primary) @@ fun () ->
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let c = C.connect ~port:(Testbed.port primary) () in
  let lsn = ref 0 in
  for i = 0 to 19 do
    let _, l = insert_committed c ~lo:i ~up:(i + 1) in
    lsn := l
  done;
  wait_applied ~port:(Testbed.port replica) !lsn;
  let rc = C.connect ~port:(Testbed.port replica) () in
  let rows = ok (C.intersect rc (ivl 0 2000)) in
  check Alcotest.int "all group-committed rows on the replica" 20
    (List.length (ids_of rows));
  C.close rc;
  C.close c

(* ---- kill the primary: the failover client follows, nothing acked is
   lost ---- *)

let test_failover () =
  let primary = start_node () in
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let f =
    F.create ~deadline_ms:500.
      ~endpoints:
        [ ("127.0.0.1", Testbed.port primary);
          ("127.0.0.1", Testbed.port replica) ]
      ()
  in
  Fun.protect ~finally:(fun () -> F.close f) @@ fun () ->
  (* Settle the subscription: until the replica is attached, commits
     fall back to asynchronous acks (nobody to wait for) and the
     zero-loss guarantee cannot hold. One committed write waited out on
     the standby proves the semi-sync path is engaged. *)
  let id0 = ok (F.insert f (ivl 0 1)) in
  let l0 = ok (F.commit f) in
  wait_applied ~port:(Testbed.port replica) l0;
  let acked = ref [ id0 ] in
  for i = 0 to 14 do
    let id = ok (F.insert f (ivl (i * 7) ((i * 7) + 3))) in
    ignore (ok (F.commit f));
    acked := id :: !acked
  done;
  (* the node dies *)
  Testbed.stop primary;
  (* reads keep working: the client rotates to the standby, and its
     read-your-writes token makes every acked write visible there *)
  let rows = ok (F.intersect f (ivl 0 2000)) in
  let got = ids_of rows in
  List.iter
    (fun id ->
      if not (List.mem id got) then
        Alcotest.failf "acked write id %d lost after failover" id)
    !acked;
  check Alcotest.bool "client rotated endpoints" true (F.failovers f > 0);
  (* mutations are refused (typed) until a primary is back *)
  (match F.insert f (ivl 1 2) with
  | Error (C.Read_only _ | C.Timeout _ | C.Io _) -> ()
  | Ok _ -> Alcotest.fail "mutation accepted with no primary"
  | Error e ->
      Alcotest.failf "expected Read_only, got %s" (C.error_to_string e))

(* ---- the standby's link to its primary, faulted and out of order ---- *)

module N = Harness.Netchaos

(* A chaos proxy carries the standby's side of the link: the subscribe
   is frame 0, every later frame is an ack (or a resubscribe after a
   redial). A partition severs the link and holds redials off for
   0.5 s; a truncated ack tears a frame and cuts the link again. The
   primary commits throughout, so both faults land while the stream is
   live. Once healed, the standby holds everything the primary made
   durable and answers the same rows. *)
let test_faulted_link () =
  let primary = start_node () in
  Fun.protect ~finally:(fun () -> Testbed.stop primary) @@ fun () ->
  let proxy =
    N.create
      ~target:("127.0.0.1", Testbed.port primary)
      ~schedule:[ (3, N.Partition 0.5); (9, N.Truncate 6) ]
      ()
  in
  let proxy_thread = Thread.create N.run proxy in
  Fun.protect ~finally:(fun () ->
      N.stop proxy;
      Thread.join proxy_thread)
  @@ fun () ->
  let replica = start_node ~replica_of:("127.0.0.1", N.port proxy) () in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let c = C.connect ~port:(Testbed.port primary) () in
  let i = ref 0 in
  let deadline = Unix.gettimeofday () +. 10. in
  while List.length (N.fired proxy) < 2 && Unix.gettimeofday () < deadline do
    ignore (insert_committed c ~lo:(!i * 10) ~up:((!i * 10) + 5));
    incr i;
    Thread.delay 0.01
  done;
  check Alcotest.int "both faults fired" 2 (List.length (N.fired proxy));
  for k = !i to !i + 4 do
    ignore (insert_committed c ~lo:(k * 10) ~up:((k * 10) + 5))
  done;
  let _, durable, _ = ok (C.repl_status c) in
  wait_applied ~port:(Testbed.port replica) durable;
  let rc = C.connect ~port:(Testbed.port replica) () in
  let everything = ivl 0 max_int in
  let rows = ids_of (ok (C.intersect c everything)) in
  check Alcotest.int "every commit on the primary" (!i + 5) (List.length rows);
  check
    Alcotest.(list int)
    "standby rows = primary rows" rows
    (ids_of (ok (C.intersect rc everything)));
  C.close rc;
  C.close c

(* A port nothing listens on yet. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  port

(* Start order does not matter: a standby whose primary is not up yet
   serves (it answers pings and says it is a replica) while it redials,
   and follows the primary once one listens on that port. *)
let test_standby_first () =
  let pport = free_port () in
  let replica = start_node ~replica_of:("127.0.0.1", pport) () in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  Thread.delay 0.5;
  let rc = C.connect ~deadline_ms:1000. ~port:(Testbed.port replica) () in
  ok (C.ping rc);
  let role, _, _ = ok (C.repl_status rc) in
  check Alcotest.bool "replica role before any primary" true
    (role = P.Replica);
  let primary =
    D.create
      ~config:{ D.default_config with port = pport; max_sessions = 32 }
      (S.shared ~durable:true ())
  in
  let serving = Thread.create D.serve primary in
  Fun.protect ~finally:(fun () ->
      D.stop primary;
      Thread.join serving)
  @@ fun () ->
  let c = C.connect ~port:pport () in
  let id, lsn = insert_committed c ~lo:40 ~up:50 in
  wait_applied ~port:(Testbed.port replica) lsn;
  check Alcotest.(list int) "the commit reached the standby" [ id ]
    (ids_of (ok (C.intersect rc (ivl 40 50))));
  C.close rc;
  C.close c

(* With its primary gone the standby is in its redial cycle; stopping
   it must not wait that cycle out. *)
let test_prompt_stop () =
  let primary = start_node () in
  let replica =
    start_node ~replica_of:("127.0.0.1", Testbed.port primary) ()
  in
  let c = C.connect ~port:(Testbed.port primary) () in
  let _, lsn = insert_committed c ~lo:1 ~up:2 in
  wait_applied ~port:(Testbed.port replica) lsn;
  C.close c;
  Testbed.stop primary;
  Thread.delay 0.3;
  let t0 = Unix.gettimeofday () in
  Testbed.stop replica;
  let took = Unix.gettimeofday () -. t0 in
  if took >= 1.0 then Alcotest.failf "standby took %.2f s to stop" took

(* ---- apply engine: frame-chop insensitivity, torn tails, gaps ---- *)

(* Real journal bytes from a real primary: a handful of committed
   inserts, then the durable stream. *)
let journal_bytes () =
  let sh = S.shared ~durable:true () in
  let sess = S.create sh in
  for i = 0 to 9 do
    (match
       S.handle sess
         (P.Insert { lower = i * 3; upper = (i * 3) + 2; id = None })
     with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "insert refused");
    match S.handle sess P.Commit with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "commit refused"
  done;
  let j = Option.get (Relation.Catalog.journal (S.catalog sh)) in
  let data = Storage.Journal.stream_from j 0 in
  let bs = Storage.Block_device.block_size (Relation.Catalog.device (S.catalog sh)) in
  (Bytes.unsafe_to_string data, bs)

let device_image d =
  let bs = Storage.Block_device.block_size d in
  let n = Storage.Block_device.allocated d in
  let buf = Bytes.create bs in
  String.concat ""
    (List.init n (fun i ->
         Storage.Block_device.read d i buf;
         Bytes.to_string buf))

let test_apply_chop () =
  let stream, bs = journal_bytes () in
  let len = String.length stream in
  Alcotest.(check bool) "stream non-empty" true (len > 0);
  (* reference: the whole stream in one frame *)
  let dev_ref = Storage.Block_device.create ~block_size:bs () in
  let eng_ref = R.create () in
  (match R.feed eng_ref dev_ref ~lsn:0 stream with
  | Ok n ->
      (* ten explicit commits, plus whatever genesis batches the
         catalog itself committed *)
      Alcotest.(check bool) "at least ten batches" true (n >= 10)
  | Error e -> Alcotest.fail e);
  check Alcotest.int "fully applied" len (R.applied_lsn eng_ref);
  (* same stream, one byte per frame: every possible torn-record
     boundary is exercised; the engine must end in the same state *)
  let dev_b = Storage.Block_device.create ~block_size:bs () in
  let eng_b = R.create () in
  String.iteri
    (fun i ch ->
      match R.feed eng_b dev_b ~lsn:i (String.make 1 ch) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "byte %d: %s" i e)
    stream;
  check Alcotest.int "byte-fed applied_lsn" (R.applied_lsn eng_ref)
    (R.applied_lsn eng_b);
  check Alcotest.int "byte-fed batches" (R.batches eng_ref) (R.batches eng_b);
  check Alcotest.int "byte-fed records" (R.records eng_ref) (R.records eng_b);
  check Alcotest.string "device images identical" (device_image dev_ref)
    (device_image dev_b);
  (* a gap is refused, state unchanged *)
  (match R.feed eng_b dev_b ~lsn:(len + 7) "xx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gap accepted");
  check Alcotest.int "gap did not move applied" (R.applied_lsn eng_ref)
    (R.applied_lsn eng_b)

let test_apply_reconnect () =
  let stream, bs = journal_bytes () in
  let len = String.length stream in
  let dev = Storage.Block_device.create ~block_size:bs () in
  let eng = R.create () in
  (* half a stream, cut mid-record almost surely *)
  let cut = len / 2 in
  (match R.feed eng dev ~lsn:0 (String.sub stream 0 cut) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let applied = R.applied_lsn eng in
  Alcotest.(check bool) "partial apply stops at a batch boundary" true
    (applied <= cut);
  (* the link drops: buffered torn tail is discarded, we resubscribe
     from the applied offset and refetch — no desync, same final image *)
  let resume = R.reset eng in
  check Alcotest.int "resume at applied" applied resume;
  (match
     R.feed eng dev ~lsn:resume (String.sub stream resume (len - resume))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "caught up after reconnect" len (R.applied_lsn eng);
  let dev_ref = Storage.Block_device.create ~block_size:bs () in
  let eng_ref = R.create () in
  ignore (R.feed eng_ref dev_ref ~lsn:0 stream);
  check Alcotest.string "reconnected image identical" (device_image dev_ref)
    (device_image dev)


(* A standby that joins mid-epoch: it applied a prefix of the stream,
   then a fresh engine subscribes from that non-zero LSN and receives
   batches made mostly of deltas against pages the standby already
   holds, some of them the moves of B+-tree leaf inserts. Its device
   must end byte-identical to the primary's once the primary
   checkpoints. *)
let test_apply_mid_epoch_resume () =
  let sh = S.shared ~durable:true () in
  let sess = S.create sh in
  (* scattered bounds, so that leaf inserts land mid-page and shift *)
  let insert_commit i =
    let lower = i * 37 mod 500 in
    (match
       S.handle sess (P.Insert { lower; upper = lower + 20; id = None })
     with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "insert refused");
    match S.handle sess P.Commit with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "commit refused"
  in
  for i = 0 to 9 do
    insert_commit i
  done;
  let cat = S.catalog sh in
  let j = Option.get (Relation.Catalog.journal cat) in
  let primary = Relation.Catalog.device cat in
  let dev =
    Storage.Block_device.create
      ~block_size:(Storage.Block_device.block_size primary) ()
  in
  let resume = Storage.Journal.durable_lsn j in
  (match
     R.feed (R.create ()) dev ~lsn:0
       (Bytes.to_string (Storage.Journal.stream_from j 0))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  for i = 10 to 69 do
    insert_commit i
  done;
  let tail = Bytes.to_string (Storage.Journal.stream_from j resume) in
  let writes, deltas, moves =
    List.fold_left
      (fun (w, d, m) (r, _) ->
        match r with
        | Storage.Journal.Write _ -> (w + 1, d, m)
        | Storage.Journal.Delta { move; _ } ->
            (w, d + 1, if move = None then m else m + 1)
        | Storage.Journal.Commit -> (w, d, m))
      (0, 0, 0)
      (Storage.Journal.parse (Bytes.of_string tail) ~len:(String.length tail))
  in
  Alcotest.(check bool)
    (Printf.sprintf "delta-heavy tail (%d writes, %d deltas, %d moves)" writes
       deltas moves)
    true
    (resume > 0 && deltas > 4 * writes && moves > 0);
  let eng = R.create ~from_lsn:resume () in
  let step = 97 in
  let rec go off =
    if off < String.length tail then begin
      let n = min step (String.length tail - off) in
      (match R.feed eng dev ~lsn:(resume + off) (String.sub tail off n) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      go (off + n)
    end
  in
  go 0;
  check Alcotest.int "caught up" (Storage.Journal.durable_lsn j)
    (R.applied_lsn eng);
  Relation.Catalog.checkpoint cat;
  check Alcotest.string "standby image = checkpointed primary image"
    (device_image primary) (device_image dev)

(* The preload bulk-builds the relation and commits it as one batch. A
   standby subscribing from LSN 0 replays that batch and the commits on
   top of it, and its device ends byte-identical to the primary's. *)
let test_apply_bulk_preload () =
  let sh = S.shared ~durable:true () in
  S.preload sh
    (Workload.Distribution.generate ~seed:3 Workload.Distribution.D1
       ~n:3_000 ~d:2_000);
  let sess = S.create sh in
  for i = 0 to 19 do
    (match
       S.handle sess
         (P.Insert { lower = i * 11; upper = (i * 11) + 30; id = None })
     with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "insert refused");
    match S.handle sess P.Commit with
    | P.Ack _ -> ()
    | _ -> Alcotest.fail "commit refused"
  done;
  let cat = S.catalog sh in
  let j = Option.get (Relation.Catalog.journal cat) in
  let primary = Relation.Catalog.device cat in
  let dev =
    Storage.Block_device.create
      ~block_size:(Storage.Block_device.block_size primary) ()
  in
  let eng = R.create () in
  let stream = Bytes.to_string (Storage.Journal.stream_from j 0) in
  let step = 4_093 in
  let rec go off =
    if off < String.length stream then begin
      let n = min step (String.length stream - off) in
      (match R.feed eng dev ~lsn:off (String.sub stream off n) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      go (off + n)
    end
  in
  go 0;
  check Alcotest.int "caught up" (Storage.Journal.durable_lsn j)
    (R.applied_lsn eng);
  Relation.Catalog.checkpoint cat;
  check Alcotest.string "standby image = checkpointed primary image"
    (device_image primary) (device_image dev)

(* ---- what a standby's reload reads ----

   [Session.reload] is what a standby runs per applied batch. It reads
   the dictionary and each structure's meta page and leaves the tables
   alone, so its block count does not grow with the relation; and it
   keeps the relation's statistics, so the first read after it is a
   plain index probe, not an analyze scan. Measured on a durable
   covering D1 relation: 7 blocks per reload at n = 1 000, 10 000 and
   35 000 (23, 166 and 563 when each reopened heap walked its chain),
   and 22 blocks for a reload and a point Intersect at n = 10 000 (181
   with the walk and a fresh analyze after it). *)

let d1_shared n =
  let sh = S.shared ~durable:true () in
  S.preload sh
    (Workload.Distribution.generate ~seed:1 Workload.Distribution.D1 ~n
       ~d:2_000);
  S.flush_shared sh;
  sh

(* Device blocks [f ()] reads. The device outlives a reload. *)
let reads_of sh f =
  let dev = Relation.Catalog.device (S.catalog sh) in
  Storage.Block_device.Stats.reset dev;
  f ();
  (Storage.Block_device.Stats.get dev).Storage.Block_device.Stats.reads

let test_reload_reads_flat () =
  let reads n =
    let sh = d1_shared n in
    reads_of sh (fun () -> S.reload sh)
  in
  let small = reads 1_000 and large = reads 10_000 in
  check Alcotest.int "same blocks at n = 1 000 and 10 000" small large;
  if large > 8 then Alcotest.failf "reload read %d blocks, bound 8" large

let test_reload_keeps_stats () =
  let sh = d1_shared 10_000 in
  let s = S.create sh in
  let intersect lower upper =
    match S.handle s (P.Intersect { lower; upper }) with
    | P.Rows _ -> ()
    | r -> Alcotest.failf "Intersect answered %s" (Testbed.describe r)
  in
  intersect 500_000 503_000;
  S.flush_shared sh;
  let reads =
    reads_of sh (fun () ->
        S.reload sh;
        intersect 700_000 700_000)
  in
  if reads > 32 then
    Alcotest.failf "reload + point Intersect read %d blocks, bound 32" reads

let () =
  Alcotest.run "repl"
    [
      ( "live",
        [
          Alcotest.test_case "late replica catches up; read-only" `Quick
            test_catchup;
          Alcotest.test_case "semi-sync: acked implies applied" `Quick
            test_semi_sync;
          Alcotest.test_case "group-commit batches replicate" `Quick
            test_group_commit_repl;
          Alcotest.test_case "primary kill: failover, zero acked loss"
            `Quick test_failover;
          Alcotest.test_case "faulted standby link converges" `Quick
            test_faulted_link;
          Alcotest.test_case "standby started before its primary" `Quick
            test_standby_first;
          Alcotest.test_case "standby stops promptly, primary gone" `Quick
            test_prompt_stop;
          Alcotest.test_case "standby counters never decrease" `Quick
            test_standby_counters_monotone;
        ] );
      ( "apply",
        [
          Alcotest.test_case "frame chopping never desyncs" `Quick
            test_apply_chop;
          Alcotest.test_case "torn tail + resubscribe = same image" `Quick
            test_apply_reconnect;
          Alcotest.test_case "mid-epoch resume applies deltas" `Quick
            test_apply_mid_epoch_resume;
          Alcotest.test_case "bulk preload replays from LSN 0" `Quick
            test_apply_bulk_preload;
        ] );
      ( "reload",
        [
          Alcotest.test_case "reload reads <= 8 blocks, flat in n" `Quick
            test_reload_reads_flat;
          Alcotest.test_case "reload + point read <= 32 blocks" `Quick
            test_reload_keeps_stats;
        ] );
    ]
