(* Wire-protocol codec: round-trips for every frame type, and the
   guarantee that truncated / oversized / garbage input decodes to a
   typed error — an exception must never escape into the dispatcher. *)

module P = Server.Protocol

let check = Alcotest.check

(* strip the length prefix off a full frame *)
let payload_of frame = Bytes.sub frame 4 (Bytes.length frame - 4)

let sample_requests =
  [
    P.Sql "SELECT * FROM intervals WHERE node = :n";
    P.Sql "";
    P.Insert { lower = -5; upper = 1 lsl 19; id = None };
    P.Insert { lower = 0; upper = 0; id = Some 123456789 };
    P.Delete { lower = min_int / 4; upper = max_int / 4; id = 7 };
    P.Intersect { lower = 10; upper = 20 };
    P.Allen { relation = Interval.Allen.During; lower = 3; upper = 9 };
    P.Begin;
    P.Commit;
    P.Rollback;
    P.Stats;
    P.Ping;
    P.Metrics;
    P.Prepare { name = "q1"; sql = "SELECT id FROM t WHERE lower <= :x" };
    P.Prepare { name = ""; sql = "" };
    P.Execute { name = "q1"; params = [ 1; -2; max_int / 4 ] };
    P.Execute { name = "q1"; params = [] };
    P.Close_stmt "q1";
    P.Explain { analyze = false; target = P.Explain_sql "SELECT 1" };
    P.Explain
      { analyze = true; target = P.Explain_intersect { lower = 3; upper = 9 } };
    P.Explain
      {
        analyze = true;
        target =
          P.Explain_allen
            { relation = Interval.Allen.Meets; lower = 0; upper = 5 };
      };
    (* v6 replication ops *)
    P.Repl_subscribe { from_lsn = 0 };
    P.Repl_subscribe { from_lsn = 123456789 };
    P.Repl_ack { lsn = 0 };
    P.Repl_ack { lsn = max_int / 4 };
    P.Repl_status;
    (* v7 sharding ops *)
    P.Shard_map_req;
  ]

let sample_stats =
  {
    P.uptime_s = 12.75;
    sessions = 3;
    peak_sessions = 9;
    total_requests = 1234;
    overload_rejections = 5;
    queue_depth = 2;
    peak_queue_depth = 17;
    io_reads = 4096;
    io_writes = 512;
    ops =
      [
        { P.op = "intersect"; count = 1000; total_io = 16000; p50_us = 180;
          p95_us = 350; p99_us = 900; max_us = 4300 };
        { P.op = "sql"; count = 3; total_io = 12; p50_us = 45; p95_us = 60;
          p99_us = 60; max_us = 61 };
      ];
  }

let sample_responses =
  [
    P.Ack "pong";
    P.Ack "";
    P.Rows { columns = []; rows = [] };
    P.Rows
      {
        columns = [ "lower"; "upper"; "id" ];
        rows = [ [| 1; 2; 3 |]; [| -9; 0; 42 |]; [||] ];
      };
    P.Error "no such table";
    P.Overloaded "server at session limit (64)";
    P.Read_only "server is read-only: corrupt page 7";
    P.Goodbye "idle for 30s, closing";
    P.Invalid "empty interval [9, 3]";
    P.Conflict "write-write conflict on intervals";
    P.Stats_reply sample_stats;
    P.Stats_reply { sample_stats with ops = [] };
    (* v6 replication frames *)
    P.Repl_frame { lsn = 0; payload = "" };
    P.Repl_frame
      { lsn = 4096; payload = String.init 257 (fun i -> Char.chr (i land 0xff)) };
    P.Repl_state { role = P.Primary; durable_lsn = 8192; applied_lsn = 8192 };
    P.Repl_state { role = P.Replica; durable_lsn = 8192; applied_lsn = 4096 };
    (* v7 sharding frames *)
    P.Shard_map
      [ { P.shard_lo = min_int; shard_hi = max_int;
          endpoints = [ ("127.0.0.1", 7654) ] } ];
    P.Shard_map
      [ { P.shard_lo = min_int; shard_hi = 499_999;
          endpoints = [ ("127.0.0.1", 7654); ("10.0.0.2", 7654) ] };
        { P.shard_lo = 500_000; shard_hi = max_int; endpoints = [] } ];
    P.Shard_map [];
    P.Partial { missing = [ 2 ]; msg = "shard 2 unreachable" };
    P.Partial { missing = [ 0; 1; 3 ]; msg = "" };
  ]

let req_testable =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (P.request_op_name r))
    ( = )

let resp_label = function
  | P.Ack _ -> "ack"
  | P.Rows _ -> "rows"
  | P.Error _ -> "error"
  | P.Overloaded _ -> "overloaded"
  | P.Read_only _ -> "read_only"
  | P.Goodbye _ -> "goodbye"
  | P.Invalid _ -> "invalid"
  | P.Conflict _ -> "conflict"
  | P.Stats_reply _ -> "stats"
  | P.Repl_frame _ -> "repl_frame"
  | P.Repl_state _ -> "repl_state"
  | P.Shard_map _ -> "shard_map"
  | P.Partial _ -> "partial"

let resp_testable =
  Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (resp_label r)) ( = )

(* ---- round trips ---- *)

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      let id = Int64.of_int ((i * 7919) + 1) in
      match P.decode_request (payload_of (P.encode_request ~id req)) with
      | Ok (id', req') ->
          check Alcotest.int64 "id" id id';
          check req_testable "request" req req'
      | Error e -> Alcotest.failf "decode failed: %s" (P.error_to_string e))
    sample_requests

let test_protocol_version () =
  (* v7 added the sharding ops (shard map, partial results) *)
  check Alcotest.int "version" 7 P.version

let test_explain_targets_roundtrip () =
  let targets =
    P.Explain_sql "EXPLAIN me"
    :: P.Explain_intersect { lower = -4; upper = 4 }
    :: List.map
         (fun rel -> P.Explain_allen { relation = rel; lower = 1; upper = 2 })
         Interval.Allen.all
  in
  List.iter
    (fun target ->
      List.iter
        (fun analyze ->
          let req = P.Explain { analyze; target } in
          match P.decode_request (payload_of (P.encode_request ~id:3L req)) with
          | Ok (_, req') -> check req_testable "explain" req req'
          | Error e -> Alcotest.failf "decode failed: %s" (P.error_to_string e))
        [ false; true ])
    targets

let test_bad_explain_bytes () =
  (* a syntactically well-framed Explain with a bad analyze flag or an
     unknown target tag must be Malformed, not an exception or a guess *)
  let frame ~flag ~tag =
    let b = Buffer.create 16 in
    Buffer.add_int64_be b 1L;
    Buffer.add_uint8 b 0x0e (* Explain *);
    Buffer.add_uint8 b flag;
    Buffer.add_uint8 b tag;
    Buffer.add_int32_be b 1l;
    Buffer.add_string b "x";
    Buffer.to_bytes b
  in
  (match P.decode_request (frame ~flag:7 ~tag:0) with
  | Error (P.Malformed _) -> ()
  | _ -> Alcotest.fail "bad analyze flag accepted");
  match P.decode_request (frame ~flag:1 ~tag:9) with
  | Error (P.Malformed _ | P.Truncated) -> ()
  | _ -> Alcotest.fail "unknown explain target tag accepted"

let test_all_allen_relations_roundtrip () =
  List.iter
    (fun rel ->
      let req = P.Allen { relation = rel; lower = 1; upper = 2 } in
      match P.decode_request (payload_of (P.encode_request ~id:1L req)) with
      | Ok (_, req') -> check req_testable "allen" req req'
      | Error e -> Alcotest.failf "decode failed: %s" (P.error_to_string e))
    Interval.Allen.all

let test_response_roundtrip () =
  List.iteri
    (fun i resp ->
      let id = Int64.of_int (i + 100) in
      match P.decode_response (payload_of (P.encode_response ~id resp)) with
      | Ok (id', resp') ->
          check Alcotest.int64 "id" id id';
          check resp_testable "response" resp resp'
      | Error e -> Alcotest.failf "decode failed: %s" (P.error_to_string e))
    sample_responses

(* ---- degraded input ---- *)

let all_payloads () =
  List.map (fun r -> payload_of (P.encode_request ~id:99L r)) sample_requests
  @ List.map (fun r -> payload_of (P.encode_response ~id:99L r)) sample_responses

let test_truncated_payloads () =
  (* every strict prefix of every valid payload must yield a typed
     error, not an exception and not a bogus success *)
  List.iter
    (fun payload ->
      for len = 0 to Bytes.length payload - 1 do
        let prefix = Bytes.sub payload 0 len in
        (match P.decode_request prefix with
        | Ok _ when len >= 9 -> ()
            (* a prefix that happens to be a complete shorter frame is
               impossible here: trailing bytes are rejected, so Ok
               means the opcode body legitimately parsed — only the
               9-byte header-only ops (commit/ping/...) qualify *)
        | Ok _ -> Alcotest.fail "truncated request decoded"
        | Error (P.Truncated | P.Malformed _) -> ()
        | Error (P.Oversized _) -> Alcotest.fail "prefix flagged oversized");
        match P.decode_response prefix with
        | Ok _ when len >= 9 -> ()
        | Ok _ -> Alcotest.fail "truncated response decoded"
        | Error (P.Truncated | P.Malformed _) -> ()
        | Error (P.Oversized _) -> Alcotest.fail "prefix flagged oversized"
      done)
    (all_payloads ())

let test_trailing_bytes_rejected () =
  List.iter
    (fun payload ->
      let padded = Bytes.cat payload (Bytes.make 3 'x') in
      match P.decode_request padded with
      | Ok _ -> Alcotest.fail "payload with trailing junk decoded"
      | Error (P.Malformed _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (P.error_to_string e))
    (List.map (fun r -> payload_of (P.encode_request ~id:5L r)) sample_requests)

let test_unknown_opcode () =
  let b = Bytes.make 9 '\000' in
  Bytes.set_uint8 b 8 0x7f;
  (match P.decode_request b with
  | Error (P.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown request opcode accepted");
  match P.decode_response b with
  | Error (P.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown response opcode accepted"

let test_garbage_never_raises () =
  let prng = Workload.Prng.create ~seed:2024 in
  for _ = 1 to 2000 do
    let len = Workload.Prng.int prng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Workload.Prng.int prng 256)) in
    (match P.decode_request b with Ok _ | Error _ -> ());
    match P.decode_response b with Ok _ | Error _ -> ()
  done

let test_huge_declared_string () =
  (* a plausible header followed by a string length pointing far past
     the frame: must be Malformed/Truncated, not an allocation blowup *)
  let b = Buffer.create 32 in
  Buffer.add_int64_be b 1L;
  Buffer.add_uint8 b 0x01 (* Sql *);
  Buffer.add_int32_be b 0x7fff_ffffl;
  Buffer.add_string b "abc";
  match P.decode_request (Buffer.to_bytes b) with
  | Error (P.Malformed _ | P.Truncated) -> ()
  | Ok _ -> Alcotest.fail "absurd string length decoded"
  | Error e -> Alcotest.failf "unexpected error: %s" (P.error_to_string e)

(* ---- framer ---- *)

(* Bytes reach a framer only from a socket. [through_socket chunks k]
   writes each chunk into a socketpair and reads it out with
   [P.Framer.read], handing each [P.Framer.next] result that is not
   [Ok None] to [k] as soon as it is complete; [k] returns [false] to
   stop, as a connection stops at a framing error. Chunks must fit the
   socket's buffer. Returns the framer. *)
let through_socket chunks k =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock r;
  let f = P.Framer.create () in
  let live = ref true in
  let rec drain () =
    if !live then
      match P.Framer.next f with
      | Ok None -> ()
      | res -> if k res then drain () else live := false
  in
  let rec pull () =
    if !live then
      match P.Framer.read f r with
      | 0 -> ()
      | _ ->
          drain ();
          pull ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () ->
      List.iter
        (fun chunk ->
          if !live then begin
            let n = Unix.write w chunk 0 (Bytes.length chunk) in
            assert (n = Bytes.length chunk);
            pull ()
          end)
        chunks);
  f

(* [stream] cut into pieces of [size] bytes. *)
let pieces size stream =
  let len = Bytes.length stream in
  List.init ((len + size - 1) / size) (fun i ->
      Bytes.sub stream (i * size) (min size (len - (i * size))))

let test_framer_reassembly () =
  let frames =
    [ P.encode_request ~id:1L P.Ping;
      P.encode_request ~id:2L (P.Sql "SELECT 1");
      P.encode_request ~id:3L (P.Intersect { lower = 1; upper = 2 }) ]
  in
  let stream = Bytes.concat Bytes.empty frames in
  let seen = ref [] in
  (* dribble the stream in one byte at a time *)
  let f =
    through_socket (pieces 1 stream) (function
      | Ok (Some payload) -> (
          match P.decode_request payload with
          | Ok (id, _) ->
              seen := id :: !seen;
              true
          | Error e -> Alcotest.failf "bad frame: %s" (P.error_to_string e))
      | Ok None -> true
      | Error e -> Alcotest.failf "framer error: %s" (P.error_to_string e))
  in
  check (Alcotest.list Alcotest.int64) "all frames surfaced" [ 1L; 2L; 3L ]
    (List.rev !seen);
  check Alcotest.int "nothing left over" 0 (P.Framer.buffered f)

(* Count the payloads of [chunks]; any framing error fails. *)
let count_frames chunks =
  let n = ref 0 in
  let f =
    through_socket chunks (function
      | Ok _ ->
          incr n;
          true
      | Error e -> Alcotest.failf "framer error: %s" (P.error_to_string e))
  in
  (f, !n)

let test_framer_batch_feed () =
  let frames =
    List.init 10 (fun i -> P.encode_request ~id:(Int64.of_int i) P.Ping)
  in
  let _, n = count_frames [ Bytes.concat Bytes.empty frames ] in
  check Alcotest.int "ten frames" 10 n

(* A pipelined burst drains in time linear in its size. When each
   [next] shifted the whole unread tail down, the copying grew with the
   square of the burst: 80 000 PINGs fed in one chunk took about
   1 000 ms, against about 5 ms through a socketpair in 64 KB writes now
   (dev build, 2 shared vCPUs), so the bound sits at least 10x from
   either side. *)
let burst_frames = 80_000
let burst_bound_ms = 50.

let test_framer_burst_linear () =
  let ping = P.encode_request ~id:1L P.Ping in
  let stream =
    Bytes.concat Bytes.empty (List.init burst_frames (fun _ -> ping))
  in
  let chunks = pieces 65536 stream in
  let t0 = Unix.gettimeofday () in
  let f, n = count_frames chunks in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check Alcotest.int "every frame" burst_frames n;
  check Alcotest.int "nothing left over" 0 (P.Framer.buffered f);
  check Alcotest.int "the buffer never grew" 4096 (P.Framer.capacity f);
  if ms >= burst_bound_ms then
    Alcotest.failf "%d frames took %.1f ms (bound %.0f ms)" burst_frames ms
      burst_bound_ms

(* A frame larger than the buffer grows it to the frame's size, and the
   drained buffer, past 64 KB, shrinks back. *)
let test_framer_large_frame () =
  let sizes = ref [] in
  let sql n = P.encode_request ~id:1L (P.Sql (String.make n 'x')) in
  let check_sql n = function
    | Ok (Some payload) -> (
        match P.decode_request payload with
        | Ok (_, P.Sql s) ->
            sizes := String.length s :: !sizes;
            String.length s = n
        | _ -> Alcotest.fail "large frame decoded wrong")
    | _ -> Alcotest.fail "framer error"
  in
  let f = through_socket (pieces 65536 (sql 10_000)) (check_sql 10_000) in
  check Alcotest.int "grown to the frame" (4 + 8 + 1 + 4 + 10_000)
    (P.Framer.capacity f);
  let f = through_socket (pieces 65536 (sql 100_000)) (check_sql 100_000) in
  check (Alcotest.list Alcotest.int) "both surfaced" [ 100_000; 10_000 ]
    !sizes;
  check Alcotest.int "past 64 KB, shrunk once drained" 4096
    (P.Framer.capacity f)

(* An HTTP request line reads as a length prefix past [max_payload]:
   [next] refuses it, and [discard] reads any amount of HTTP without
   growing the buffer. *)
let test_framer_http_dropped () =
  let http = Bytes.of_string "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n" in
  let oversized = ref false in
  let f =
    through_socket [ http ] (function
      | Error (P.Oversized _) ->
          oversized := true;
          false
      | _ -> Alcotest.fail "HTTP bytes framed")
  in
  check Alcotest.bool "HTTP is an oversized frame" true !oversized;
  check Alcotest.int "held, not grown" 4096 (P.Framer.capacity f);
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () ->
      let f = P.Framer.create () in
      let burst = Bytes.concat Bytes.empty (List.init 1000 (fun _ -> http)) in
      ignore (Unix.write w burst 0 (Bytes.length burst));
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      let rec drop n =
        match P.Framer.discard f r with 0 -> n | k -> drop (n + k)
      in
      check Alcotest.int "every byte read" (Bytes.length burst) (drop 0);
      check Alcotest.int "nothing held" 0 (P.Framer.buffered f);
      check Alcotest.int "never grown" 4096 (P.Framer.capacity f))

(* Fuzz the whole input path the way a hostile or broken peer would:
   seeded random bytes, truncated valid streams, and valid streams with
   mutated bytes, fed through a Framer in random-size chunks. The framer
   and codec must never raise — every payload surfaced decodes to Ok or
   a typed error, and a framing error (oversized prefix) is terminal for
   that framer, exactly as the dispatcher treats it. *)
let test_framer_fuzz () =
  let prng = Workload.Prng.create ~seed:7321 in
  let valid_stream () =
    let frames =
      List.init
        (1 + Workload.Prng.int prng 5)
        (fun i ->
          let reqs = Array.of_list sample_requests in
          P.encode_request
            ~id:(Int64.of_int (i + 1))
            reqs.(Workload.Prng.int prng (Array.length reqs)))
    in
    Bytes.concat Bytes.empty frames
  in
  let drive stream =
    let rec chunks pos =
      if pos >= Bytes.length stream then []
      else
        let n = min (1 + Workload.Prng.int prng 17) (Bytes.length stream - pos) in
        Bytes.sub stream pos n :: chunks (pos + n)
    in
    ignore
      (through_socket (chunks 0) (function
        | Ok None -> true
        | Ok (Some payload) -> (
            match P.decode_request payload with Ok _ | Error _ -> true)
        (* desynced beyond recovery: connection closes *)
        | Error _ -> false))
  in
  for _ = 1 to 200 do
    (* pure noise *)
    let len = Workload.Prng.int prng 160 in
    drive (Bytes.init len (fun _ -> Char.chr (Workload.Prng.int prng 256)));
    (* truncated valid stream *)
    let s = valid_stream () in
    drive (Bytes.sub s 0 (Workload.Prng.int prng (Bytes.length s + 1)));
    (* valid stream with a few mutated bytes *)
    let s = valid_stream () in
    for _ = 0 to 2 do
      let i = Workload.Prng.int prng (Bytes.length s) in
      Bytes.set_uint8 s i (Workload.Prng.int prng 256)
    done;
    drive s
  done

let test_framer_oversized () =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (P.max_payload + 1));
  let seen = ref None in
  ignore
    (through_socket [ b ] (fun res ->
         seen := Some res;
         false));
  match !seen with
  | Some (Error (P.Oversized n)) ->
      check Alcotest.int "length" (P.max_payload + 1) n
  | _ -> Alcotest.fail "oversized prefix accepted"

(* ---- Rows: the sized encoder writes the Buffer encoder's bytes ----

   A [Rows] frame is written into one [Bytes] of the frame's size. The
   reference below is the [Buffer] encoder it replaced, kept verbatim in
   substance: a length placeholder, the id, the opcode, the columns,
   then each row's arity and cells, and the prefix patched last. *)

let buffer_rows_frame ~id columns rows =
  let b = Buffer.create 64 in
  let u32 v = Buffer.add_int32_be b (Int32.of_int v) in
  u32 0;
  Buffer.add_int64_be b id;
  Buffer.add_uint8 b 0x82;
  u32 (List.length columns);
  List.iter
    (fun c ->
      u32 (String.length c);
      Buffer.add_string b c)
    columns;
  u32 (List.length rows);
  List.iter
    (fun r ->
      u32 (Array.length r);
      Array.iter (fun v -> Buffer.add_int64_be b (Int64.of_int v)) r)
    rows;
  let bytes = Buffer.to_bytes b in
  Bytes.set_int32_be bytes 0 (Int32.of_int (Bytes.length bytes - 4));
  bytes

(* The sized frame equals the reference, its prefix is its length
   minus 4, and it decodes back to the answer. *)
let rows_frame_ok ~id columns rows =
  let frame = P.encode_response ~id (P.Rows { columns; rows }) in
  Bytes.equal frame (buffer_rows_frame ~id columns rows)
  && Int32.to_int (Bytes.get_int32_be frame 0) = Bytes.length frame - 4
  &&
  match P.decode_response (payload_of frame) with
  | Ok (id', P.Rows r) -> id' = id && r.columns = columns && r.rows = rows
  | Ok _ | Error _ -> false

let rows_arb =
  let open QCheck.Gen in
  let cell =
    frequency [ (1, return min_int); (1, return max_int); (6, int) ]
  in
  let column = string_size ~gen:printable (int_range 0 12) in
  QCheck.make
    (triple (map Int64.of_int int)
       (list_size (int_range 0 5) column)
       (list_size (int_range 0 40) (array_size (int_range 0 6) cell)))

let prop_rows_frame =
  QCheck.Test.make ~count:300 ~name:"Rows frame = Buffer encoder's bytes"
    rows_arb (fun (id, columns, rows) -> rows_frame_ok ~id columns rows)

let test_rows_frame_edges () =
  let ok label columns rows =
    check Alcotest.bool label true (rows_frame_ok ~id:77L columns rows)
  in
  ok "empty answer" [ "id" ] [];
  ok "no columns, no rows" [] [];
  ok "zero columns" [] [ [||]; [||] ];
  ok "extreme cells" [ "lower"; "upper" ]
    [ [| min_int; max_int |]; [| max_int; min_int |]; [| 0; -1 |] ];
  ok "10 000 rows" [ "lower"; "upper"; "id" ]
    (List.init 10_000 (fun i -> [| i - 5_000; (i * 7919) - max_int; i |]))

let () =
  Alcotest.run "protocol"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "version is 7" `Quick test_protocol_version;
          Alcotest.test_case "requests" `Quick test_request_roundtrip;
          Alcotest.test_case "allen relations" `Quick
            test_all_allen_relations_roundtrip;
          Alcotest.test_case "explain targets" `Quick
            test_explain_targets_roundtrip;
          Alcotest.test_case "responses" `Quick test_response_roundtrip;
          Alcotest.test_case "Rows frame edges" `Quick test_rows_frame_edges;
          QCheck_alcotest.to_alcotest prop_rows_frame;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "truncated payloads" `Quick test_truncated_payloads;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
          Alcotest.test_case "garbage never raises" `Quick
            test_garbage_never_raises;
          Alcotest.test_case "huge declared string" `Quick
            test_huge_declared_string;
          Alcotest.test_case "bad explain bytes" `Quick test_bad_explain_bytes;
        ] );
      ( "framer",
        [
          Alcotest.test_case "byte-by-byte reassembly" `Quick
            test_framer_reassembly;
          Alcotest.test_case "batch feed" `Quick test_framer_batch_feed;
          Alcotest.test_case "80 000-frame burst under 50 ms" `Quick
            test_framer_burst_linear;
          Alcotest.test_case "oversized prefix" `Quick test_framer_oversized;
          Alcotest.test_case "frame larger than the buffer" `Quick
            test_framer_large_frame;
          Alcotest.test_case "HTTP bytes dropped" `Quick
            test_framer_http_dropped;
          Alcotest.test_case "fuzz: noise, truncation, mutation" `Quick
            test_framer_fuzz;
        ] );
    ]
