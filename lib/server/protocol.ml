let version = 7
let max_payload = 4 * 1024 * 1024

type explain_target =
  | Explain_sql of string
  | Explain_intersect of { lower : int; upper : int }
  | Explain_allen of {
      relation : Interval.Allen.relation;
      lower : int;
      upper : int;
    }

type request =
  | Sql of string
  | Insert of { lower : int; upper : int; id : int option }
  | Delete of { lower : int; upper : int; id : int }
  | Intersect of { lower : int; upper : int }
  | Allen of { relation : Interval.Allen.relation; lower : int; upper : int }
  | Begin
  | Commit
  | Rollback
  | Stats
  | Ping
  | Metrics
  | Prepare of { name : string; sql : string }
  | Execute of { name : string; params : int list }
  | Close_stmt of string
  | Explain of { analyze : bool; target : explain_target }
  | Repl_subscribe of { from_lsn : int }
  | Repl_ack of { lsn : int }
  | Repl_status
  | Shard_map_req

let request_op_name = function
  | Sql _ -> "sql"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Intersect _ -> "intersect"
  | Allen _ -> "allen"
  | Begin -> "begin"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Stats -> "stats"
  | Ping -> "ping"
  | Metrics -> "metrics"
  | Prepare _ -> "prepare"
  | Execute _ -> "execute"
  | Close_stmt _ -> "close"
  | Explain _ -> "explain"
  | Repl_subscribe _ -> "repl_subscribe"
  | Repl_ack _ -> "repl_ack"
  | Repl_status -> "repl_status"
  | Shard_map_req -> "shard_map"

type op_stat = {
  op : string;
  count : int;
  total_io : int;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  max_us : int;
}

type stats = {
  uptime_s : float;
  sessions : int;
  peak_sessions : int;
  total_requests : int;
  overload_rejections : int;
  queue_depth : int;
  peak_queue_depth : int;
  io_reads : int;
  io_writes : int;
  ops : op_stat list;
}

type role = Primary | Replica

type shard_entry = {
  shard_lo : int;  (** inclusive lower bound of the shard's range *)
  shard_hi : int;  (** inclusive upper bound *)
  endpoints : (string * int) list;  (** host, port — first is preferred *)
}

type response =
  | Ack of string
  | Rows of { columns : string list; rows : int array list }
  | Error of string
  | Overloaded of string
  | Stats_reply of stats
  | Read_only of string
  | Goodbye of string
  | Invalid of string
      (* the request was well-formed on the wire but semantically
         invalid (e.g. an empty interval); the session stays usable *)
  | Conflict of string
      (* the transaction lost a write-write race at commit and was
         aborted; non-retryable as-is — the client must re-run the
         transaction against the new state *)
  | Repl_frame of { lsn : int; payload : string }
      (* a slice of the primary's durable journal: [payload] holds the
         serialized bytes [lsn, lsn + length payload) of the log stream *)
  | Repl_state of { role : role; durable_lsn : int; applied_lsn : int }
  | Shard_map of shard_entry list
      (* the serving topology: contiguous interval-space ranges and the
         endpoints that own them; a plain rikitd answers with a single
         entry covering the whole space *)
  | Partial of { missing : int list; msg : string }
      (* a scatter-gather answer is incomplete: the listed shard indices
         could not be reached within the deadline; non-retryable as-is *)

type error =
  | Truncated
  | Oversized of int
  | Malformed of string

let error_to_string = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Malformed m -> "malformed frame: " ^ m

(* ---------------- encoding primitives ---------------- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_be b v
let put_int b v = put_i64 b (Int64.of_int v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* ---------------- decoding primitives ----------------

   A cursor over one payload. The [Short] exception is internal: it is
   caught at the decode entry points and mapped to the typed
   [Truncated] error, so no exception ever escapes the codec. *)

exception Short
exception Bad of string

type cursor = { buf : Bytes.t; mutable pos : int }

let need c n = if c.pos + n > Bytes.length c.buf then raise Short

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Bad "negative length");
  v

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_be c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c =
  let v = get_i64 c in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then raise (Bad "integer out of native range");
  i

let get_string c =
  let n = get_u32 c in
  if n > max_payload then raise (Bad "string length exceeds frame bound");
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_list c get =
  let n = get_u32 c in
  (* Each element consumes at least one byte; a count beyond the
     remaining bytes is garbage, not merely truncated. *)
  if n > Bytes.length c.buf - c.pos then raise (Bad "list count exceeds frame");
  List.init n (fun _ -> get c)

let get_row c =
  let n = get_u32 c in
  if n > (Bytes.length c.buf - c.pos + 7) / 8 then
    raise (Bad "row arity exceeds frame");
  Array.init n (fun _ -> get_int c)

let finish c v =
  if c.pos <> Bytes.length c.buf then raise (Bad "trailing bytes");
  v

(* ---------------- opcodes ---------------- *)

let op_sql = 0x01
let op_insert = 0x02
let op_delete = 0x03
let op_intersect = 0x04
let op_allen = 0x05
let op_commit = 0x06
let op_rollback = 0x07
let op_stats = 0x08
let op_ping = 0x09
let op_metrics = 0x0a
let op_prepare = 0x0b
let op_execute = 0x0c
let op_close_stmt = 0x0d
let op_explain = 0x0e
let op_begin = 0x0f
let op_repl_subscribe = 0x10
let op_repl_ack = 0x11
let op_repl_status = 0x12
let op_shard_map_req = 0x13
let op_ack = 0x81
let op_rows = 0x82
let op_error = 0x83
let op_overloaded = 0x84
let op_stats_reply = 0x85
let op_read_only = 0x86
let op_goodbye = 0x87
let op_invalid = 0x88
let op_conflict = 0x89
let op_repl_frame = 0x8a
let op_repl_state = 0x8b
let op_shard_map = 0x8c
let op_partial = 0x8d

(* ---------------- frames ---------------- *)

let frame payload_writer =
  let b = Buffer.create 64 in
  put_u32 b 0 (* placeholder *);
  payload_writer b;
  let bytes = Buffer.to_bytes b in
  Bytes.set_int32_be bytes 0 (Int32.of_int (Bytes.length bytes - 4));
  bytes

let encode_request ~id req =
  frame (fun b ->
      put_i64 b id;
      match req with
      | Sql text ->
          put_u8 b op_sql;
          put_string b text
      | Insert { lower; upper; id = iid } ->
          put_u8 b op_insert;
          put_int b lower;
          put_int b upper;
          (match iid with
          | None -> put_u8 b 0
          | Some v ->
              put_u8 b 1;
              put_int b v)
      | Delete { lower; upper; id = iid } ->
          put_u8 b op_delete;
          put_int b lower;
          put_int b upper;
          put_int b iid
      | Intersect { lower; upper } ->
          put_u8 b op_intersect;
          put_int b lower;
          put_int b upper
      | Allen { relation; lower; upper } ->
          put_u8 b op_allen;
          put_string b (Interval.Allen.to_string relation);
          put_int b lower;
          put_int b upper
      | Begin -> put_u8 b op_begin
      | Commit -> put_u8 b op_commit
      | Rollback -> put_u8 b op_rollback
      | Stats -> put_u8 b op_stats
      | Ping -> put_u8 b op_ping
      | Metrics -> put_u8 b op_metrics
      | Prepare { name; sql } ->
          put_u8 b op_prepare;
          put_string b name;
          put_string b sql
      | Execute { name; params } ->
          put_u8 b op_execute;
          put_string b name;
          put_u32 b (List.length params);
          List.iter (put_int b) params
      | Close_stmt name ->
          put_u8 b op_close_stmt;
          put_string b name
      | Explain { analyze; target } -> (
          put_u8 b op_explain;
          put_u8 b (if analyze then 1 else 0);
          match target with
          | Explain_sql text ->
              put_u8 b 0;
              put_string b text
          | Explain_intersect { lower; upper } ->
              put_u8 b 1;
              put_int b lower;
              put_int b upper
          | Explain_allen { relation; lower; upper } ->
              put_u8 b 2;
              put_string b (Interval.Allen.to_string relation);
              put_int b lower;
              put_int b upper)
      | Repl_subscribe { from_lsn } ->
          put_u8 b op_repl_subscribe;
          put_int b from_lsn
      | Repl_ack { lsn } ->
          put_u8 b op_repl_ack;
          put_int b lsn
      | Repl_status -> put_u8 b op_repl_status
      | Shard_map_req -> put_u8 b op_shard_map_req)

(* A [Rows] answer, the large one, is written at exactly the frame's
   size: the bytes [frame] would give, without a buffer that grows from
   64 bytes and boxes each cell. [rows_size] is the size pass,
   [write_rows] the write pass, into a buffer the caller sized. *)
let rows_size columns rows =
  List.fold_left (fun n c -> n + 4 + String.length c) (4 + 8 + 1 + 4) columns
  + List.fold_left (fun n (r : int array) -> n + 4 + (8 * Array.length r)) 4
      rows

let write_rows b off ~id columns rows =
  let pos = ref off in
  let u32 v =
    Bytes.set_int32_be b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  Bytes.set_int64_be b (off + 4) id;
  Bytes.set_uint8 b (off + 12) op_rows;
  pos := off + 13;
  u32 (List.length columns);
  List.iter
    (fun c ->
      u32 (String.length c);
      Bytes.blit_string c 0 b !pos (String.length c);
      pos := !pos + String.length c)
    columns;
  u32 (List.length rows);
  List.iter
    (fun (r : int array) ->
      u32 (Array.length r);
      for i = 0 to Array.length r - 1 do
        Bytes.set_int64_be b (!pos + (8 * i)) (Int64.of_int r.(i))
      done;
      pos := !pos + (8 * Array.length r))
    rows;
  Bytes.set_int32_be b off (Int32.of_int (!pos - off - 4))

let encode_rows ~id columns rows =
  let b = Bytes.create (rows_size columns rows) in
  write_rows b 0 ~id columns rows;
  b

let encode_response ~id resp =
  match resp with
  | Rows { columns; rows } -> encode_rows ~id columns rows
  | _ ->
      frame (fun b ->
          put_i64 b id;
          match resp with
          | Rows _ -> assert false (* [encode_rows] *)
          | Ack msg ->
              put_u8 b op_ack;
              put_string b msg
          | Error msg ->
              put_u8 b op_error;
              put_string b msg
          | Overloaded msg ->
              put_u8 b op_overloaded;
              put_string b msg
          | Read_only msg ->
              put_u8 b op_read_only;
              put_string b msg
          | Goodbye msg ->
              put_u8 b op_goodbye;
              put_string b msg
          | Invalid msg ->
              put_u8 b op_invalid;
              put_string b msg
          | Conflict msg ->
              put_u8 b op_conflict;
              put_string b msg
          | Repl_frame { lsn; payload } ->
              put_u8 b op_repl_frame;
              put_int b lsn;
              put_string b payload
          | Repl_state { role; durable_lsn; applied_lsn } ->
              put_u8 b op_repl_state;
              put_u8 b (match role with Primary -> 0 | Replica -> 1);
              put_int b durable_lsn;
              put_int b applied_lsn
          | Shard_map entries ->
              put_u8 b op_shard_map;
              put_u32 b (List.length entries);
              List.iter
                (fun e ->
                  put_int b e.shard_lo;
                  put_int b e.shard_hi;
                  put_u32 b (List.length e.endpoints);
                  List.iter
                    (fun (host, port) ->
                      put_string b host;
                      put_u32 b port)
                    e.endpoints)
                entries
          | Partial { missing; msg } ->
              put_u8 b op_partial;
              put_u32 b (List.length missing);
              List.iter (put_u32 b) missing;
              put_string b msg
          | Stats_reply s ->
              put_u8 b op_stats_reply;
              put_i64 b (Int64.bits_of_float s.uptime_s);
              put_int b s.sessions;
              put_int b s.peak_sessions;
              put_int b s.total_requests;
              put_int b s.overload_rejections;
              put_int b s.queue_depth;
              put_int b s.peak_queue_depth;
              put_int b s.io_reads;
              put_int b s.io_writes;
              put_u32 b (List.length s.ops);
              List.iter
                (fun o ->
                  put_string b o.op;
                  put_int b o.count;
                  put_int b o.total_io;
                  put_int b o.p50_us;
                  put_int b o.p95_us;
                  put_int b o.p99_us;
                  put_int b o.max_us)
                s.ops)

let decode body payload =
  if Bytes.length payload > max_payload then
    Result.Error (Oversized (Bytes.length payload))
  else
    let c = { buf = payload; pos = 0 } in
    match
      let id = get_i64 c in
      let opcode = get_u8 c in
      (id, finish c (body c opcode))
    with
    | v -> Ok v
    | exception Short -> Result.Error Truncated
    | exception Bad m -> Result.Error (Malformed m)

let decode_request payload =
  decode
    (fun c opcode ->
      if opcode = op_sql then Sql (get_string c)
      else if opcode = op_insert then
        let lower = get_int c in
        let upper = get_int c in
        let iid =
          match get_u8 c with
          | 0 -> None
          | 1 -> Some (get_int c)
          | t -> raise (Bad (Printf.sprintf "bad option tag %d" t))
        in
        Insert { lower; upper; id = iid }
      else if opcode = op_delete then
        let lower = get_int c in
        let upper = get_int c in
        let iid = get_int c in
        Delete { lower; upper; id = iid }
      else if opcode = op_intersect then
        let lower = get_int c in
        let upper = get_int c in
        Intersect { lower; upper }
      else if opcode = op_allen then
        let name = get_string c in
        let relation =
          match Interval.Allen.of_string name with
          | Some r -> r
          | None -> raise (Bad (Printf.sprintf "unknown Allen relation %S" name))
        in
        let lower = get_int c in
        let upper = get_int c in
        Allen { relation; lower; upper }
      else if opcode = op_begin then Begin
      else if opcode = op_commit then Commit
      else if opcode = op_rollback then Rollback
      else if opcode = op_stats then Stats
      else if opcode = op_ping then Ping
      else if opcode = op_metrics then Metrics
      else if opcode = op_prepare then
        let name = get_string c in
        let sql = get_string c in
        Prepare { name; sql }
      else if opcode = op_execute then
        let name = get_string c in
        let params = get_list c get_int in
        Execute { name; params }
      else if opcode = op_close_stmt then Close_stmt (get_string c)
      else if opcode = op_explain then
        let analyze =
          match get_u8 c with
          | 0 -> false
          | 1 -> true
          | t -> raise (Bad (Printf.sprintf "bad analyze flag %d" t))
        in
        let target =
          match get_u8 c with
          | 0 -> Explain_sql (get_string c)
          | 1 ->
              let lower = get_int c in
              let upper = get_int c in
              Explain_intersect { lower; upper }
          | 2 ->
              let name = get_string c in
              let relation =
                match Interval.Allen.of_string name with
                | Some r -> r
                | None ->
                    raise
                      (Bad (Printf.sprintf "unknown Allen relation %S" name))
              in
              let lower = get_int c in
              let upper = get_int c in
              Explain_allen { relation; lower; upper }
          | t -> raise (Bad (Printf.sprintf "bad explain target tag %d" t))
        in
        Explain { analyze; target }
      else if opcode = op_repl_subscribe then
        let from_lsn = get_int c in
        if from_lsn < 0 then raise (Bad "negative lsn");
        Repl_subscribe { from_lsn }
      else if opcode = op_repl_ack then
        let lsn = get_int c in
        if lsn < 0 then raise (Bad "negative lsn");
        Repl_ack { lsn }
      else if opcode = op_repl_status then Repl_status
      else if opcode = op_shard_map_req then Shard_map_req
      else raise (Bad (Printf.sprintf "unknown request opcode 0x%02x" opcode)))
    payload

let decode_response payload =
  decode
    (fun c opcode ->
      if opcode = op_ack then Ack (get_string c)
      else if opcode = op_rows then
        let columns = get_list c get_string in
        let rows = get_list c get_row in
        Rows { columns; rows }
      else if opcode = op_error then Error (get_string c)
      else if opcode = op_overloaded then Overloaded (get_string c)
      else if opcode = op_read_only then Read_only (get_string c)
      else if opcode = op_goodbye then Goodbye (get_string c)
      else if opcode = op_invalid then Invalid (get_string c)
      else if opcode = op_conflict then Conflict (get_string c)
      else if opcode = op_repl_frame then
        let lsn = get_int c in
        if lsn < 0 then raise (Bad "negative lsn");
        let payload = get_string c in
        Repl_frame { lsn; payload }
      else if opcode = op_repl_state then
        let role =
          match get_u8 c with
          | 0 -> Primary
          | 1 -> Replica
          | t -> raise (Bad (Printf.sprintf "bad role tag %d" t))
        in
        let durable_lsn = get_int c in
        let applied_lsn = get_int c in
        if durable_lsn < 0 || applied_lsn < 0 then raise (Bad "negative lsn");
        Repl_state { role; durable_lsn; applied_lsn }
      else if opcode = op_shard_map then
        let entries =
          get_list c (fun c ->
              let shard_lo = get_int c in
              let shard_hi = get_int c in
              if shard_lo > shard_hi then raise (Bad "empty shard range");
              let endpoints =
                get_list c (fun c ->
                    let host = get_string c in
                    let port = get_u32 c in
                    if port > 0xffff then raise (Bad "port out of range");
                    (host, port))
              in
              { shard_lo; shard_hi; endpoints })
        in
        Shard_map entries
      else if opcode = op_partial then
        let missing = get_list c get_u32 in
        let msg = get_string c in
        Partial { missing; msg }
      else if opcode = op_stats_reply then
        let uptime_s = Int64.float_of_bits (get_i64 c) in
        let sessions = get_int c in
        let peak_sessions = get_int c in
        let total_requests = get_int c in
        let overload_rejections = get_int c in
        let queue_depth = get_int c in
        let peak_queue_depth = get_int c in
        let io_reads = get_int c in
        let io_writes = get_int c in
        let ops =
          get_list c (fun c ->
              let op = get_string c in
              let count = get_int c in
              let total_io = get_int c in
              let p50_us = get_int c in
              let p95_us = get_int c in
              let p99_us = get_int c in
              let max_us = get_int c in
              { op; count; total_io; p50_us; p95_us; p99_us; max_us })
        in
        Stats_reply
          {
            uptime_s;
            sessions;
            peak_sessions;
            total_requests;
            overload_rejections;
            queue_depth;
            peak_queue_depth;
            io_reads;
            io_writes;
            ops;
          }
      else raise (Bad (Printf.sprintf "unknown response opcode 0x%02x" opcode)))
    payload

(* ---------------- frame splitting ---------------- *)

module Framer = struct
  (* The unread bytes are [data.[pos .. len - 1]]. A socket read lands
     in the free tail [data.[len ..]] after at most one compaction of
     the unread bytes to offset 0; [next] only moves [pos], so draining
     a pipelined burst of k frames copies the unread tail once, not k
     times. The buffer grows only for a frame larger than itself (the
     caller drains every complete frame between reads), and once
     drained a buffer past [shrink_above] shrinks back. *)
  type t = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

  let initial = 4096
  let shrink_above = 65536

  let create () = { data = Bytes.create initial; pos = 0; len = 0 }
  let buffered t = t.len - t.pos
  let capacity t = Bytes.length t.data

  (* The pending frame's declared length, when its prefix is in. *)
  let declared t =
    if t.len - t.pos < 4 then None
    else Some (Int32.to_int (Bytes.get_int32_be t.data t.pos))

  (* Compact the unread bytes to offset 0; a full buffer then doubles,
     up to the pending frame's size, so a length prefix alone never
     allocates more than twice the bytes that arrived. *)
  let read t fd =
    let held = t.len - t.pos in
    if t.pos > 0 then begin
      Bytes.blit t.data t.pos t.data 0 held;
      t.pos <- 0;
      t.len <- held
    end;
    if held = Bytes.length t.data then begin
      let need =
        match declared t with
        | Some d when d >= 0 && d <= max_payload -> 4 + d
        | _ -> held + 1
      in
      let data = Bytes.create (max (held + 1) (min need (2 * held))) in
      Bytes.blit t.data 0 data 0 held;
      t.data <- data
    end;
    let n = Unix.read fd t.data t.len (Bytes.length t.data - t.len) in
    t.len <- t.len + n;
    n

  let discard t fd =
    t.pos <- 0;
    t.len <- 0;
    Unix.read fd t.data 0 (Bytes.length t.data)

  let next t =
    match declared t with
    | None -> Ok None
    | Some d when d < 0 || d > max_payload -> Result.Error (Oversized d)
    | Some d when t.len - t.pos < 4 + d -> Ok None
    | Some d ->
        let payload = Bytes.sub t.data (t.pos + 4) d in
        t.pos <- t.pos + 4 + d;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0;
          if Bytes.length t.data > shrink_above then
            t.data <- Bytes.create initial
        end;
        Ok (Some payload)
end
