(** The rikitd wire protocol.

    Transport-agnostic, length-prefixed binary frames. A frame on the
    wire is

    {v
    | u32 payload length (big endian) | payload |
    v}

    and a payload is

    {v
    | u64 request id | u8 opcode | opcode-specific body |
    v}

    The codec is pure [Bytes] level — encoding returns a complete frame,
    decoding consumes a payload — so it is unit-testable without
    sockets. Decoding NEVER raises: malformed, truncated, or oversized
    input yields a typed {!error}, which the dispatcher turns into a
    typed {!const-Error} response instead of a dropped connection.

    Integers travel as 64-bit big-endian two's complement; strings and
    byte blobs as a u32 length followed by the raw bytes. The protocol
    is versioned ({!version}); the client sends no handshake — frames
    are self-describing — so version only changes when the frame layout
    does. *)

val version : int
(** Protocol version, bumped on any incompatible frame-layout change. *)

val max_payload : int
(** Upper bound on a frame payload in bytes. A declared length above
    this decodes to [Oversized] (a defence against garbage prefixes
    allocating gigabytes). *)

(** {2 Requests} *)

type explain_target =
  | Explain_sql of string  (** any statement text *)
  | Explain_intersect of { lower : int; upper : int }
      (** the typed intersection op's plan *)
  | Explain_allen of {
      relation : Interval.Allen.relation;
      lower : int;
      upper : int;
    }  (** the typed Allen op's plan *)

type request =
  | Sql of string
      (** One SQL statement for the session's {!Sqlfront.Engine}. *)
  | Insert of { lower : int; upper : int; id : int option }
      (** Register an interval in the server's RI-tree; the response
          carries the assigned id. *)
  | Delete of { lower : int; upper : int; id : int }
  | Intersect of { lower : int; upper : int }
      (** Intersection query; responds with [(lower, upper, id)] rows. *)
  | Allen of { relation : Interval.Allen.relation; lower : int; upper : int }
      (** Topological query for one Allen relation. *)
  | Begin
      (** Start an explicit transaction: pins the session's snapshot so
          reads are stable until COMMIT/ROLLBACK. Outside an explicit
          transaction every statement runs in its own read-committed
          implicit transaction. *)
  | Commit
      (** Validate and apply this session's write set (MVCC
          first-committer-wins); on durable servers also a journal
          force / group-commit stage. Answered with [Conflict] when a
          buffered write lost a race to a concurrent commit. *)
  | Rollback
      (** Discard this session's write set only; every other session's
          committed and in-flight work is untouched. *)
  | Stats  (** Ask for the server's {!stats} snapshot. *)
  | Ping
  | Metrics
      (** Ask for the Prometheus-style text exposition (same document
          the [--metrics-port] HTTP endpoint serves); answered with an
          [Ack] carrying the text. *)
  | Prepare of { name : string; sql : string }
      (** Parse and plan [sql] once under [name] in this session;
          answered with an [Ack] carrying the parameter count. *)
  | Execute of { name : string; params : int list }
      (** Run a prepared statement with positional parameters (bound to
          the statement's host variables in first-appearance order). *)
  | Close_stmt of string  (** Discard a prepared statement. *)
  | Explain of { analyze : bool; target : explain_target }
      (** EXPLAIN [ANALYZE] for a SQL text or a typed op; answered with
          an [Ack] carrying the rendered plan (the same renderer and
          cost annotations as SQL EXPLAIN). *)
  | Repl_subscribe of { from_lsn : int }
      (** Subscribe this connection to the primary's durable journal
          stream, starting at byte-offset LSN [from_lsn]. Answered with
          one [Repl_state] frame (confirming the primary's role and
          durable LSN), then a stream of [Repl_frame]s under the same
          request id, pushed after every commit force. The connection
          becomes a replication feed; the subscriber has no idle
          deadline. [Invalid] if [from_lsn] falls outside the
          retained log; [Error] on a non-durable or replica server. *)
  | Repl_ack of { lsn : int }
      (** Fire-and-forget: the subscriber has durably applied the log up
          to byte [lsn]. No response frame — the primary uses these to
          release semi-synchronously parked COMMIT acknowledgements. *)
  | Repl_status
      (** Ask for this server's replication position; answered with
          [Repl_state]. On a primary [applied_lsn = durable_lsn]; on a
          replica [durable_lsn] is the primary's last-heard durable LSN
          (so [durable_lsn - applied_lsn] is the lag in bytes). *)
  | Shard_map_req
      (** Ask for the serving topology; answered with [Shard_map]. A
          router reports one entry per shard; a plain rikitd reports a
          single entry covering the whole interval space, so clients
          can discover topology uniformly. *)

val request_op_name : request -> string
(** Short lowercase tag ("sql", "insert", ...) used as the latency
    histogram key. *)

(** {2 Responses} *)

type op_stat = {
  op : string;
  count : int;
  total_io : int;   (** physical blocks read + written servicing this op *)
  p50_us : int;     (** latency percentiles in microseconds *)
  p95_us : int;
  p99_us : int;
  max_us : int;
}

type stats = {
  uptime_s : float;
  sessions : int;           (** currently connected *)
  peak_sessions : int;
  total_requests : int;
  overload_rejections : int;
  queue_depth : int;
      (** requests parsed but not yet executed: always 0 since each
          request runs where it is decoded; kept for the frame layout *)
  peak_queue_depth : int;
  io_reads : int;           (** device counters since server start *)
  io_writes : int;
  ops : op_stat list;
}

type role = Primary | Replica

type shard_entry = {
  shard_lo : int;
      (** inclusive lower bound of the shard's interval-space range
          ([min_int] on the leftmost shard) *)
  shard_hi : int;  (** inclusive upper bound ([max_int] on the rightmost) *)
  endpoints : (string * int) list;
      (** (host, port) serving this range; first is preferred, the rest
          are failover standbys *)
}

type response =
  | Ack of string  (** acknowledgement for DDL/DML, commit, ping, ... *)
  | Rows of { columns : string list; rows : int array list }
  | Error of string
      (** The statement failed; the session survives and the connection
          stays open. *)
  | Overloaded of string
      (** Admission control rejected the connection or request. *)
  | Stats_reply of stats
  | Read_only of string
      (** The server is in degraded read-only mode (corruption was
          detected); the mutation was rejected but reads keep serving. *)
  | Goodbye of string
      (** The server is closing this connection deliberately — idle
          timeout or shutdown — not an error. Sent with request id 0. *)
  | Invalid of string
      (** The request was well-formed on the wire but semantically
          invalid — e.g. an empty interval with [lower > upper]. A
          client bug, distinct from {!const-Error} (server-side failure);
          the session survives and the connection stays open. *)
  | Conflict of string
      (** The session's transaction lost a write-write race at COMMIT
          and was aborted (first-committer-wins). Non-retryable as-is:
          the client must re-read and re-run the transaction against
          the new state. The session survives with a fresh
          transaction. *)
  | Repl_frame of { lsn : int; payload : string }
      (** A slice of the primary's durable journal: [payload] holds the
          serialized log bytes [lsn, lsn + length payload). Slices are
          contiguous per subscription; chunked below {!max_payload}. *)
  | Repl_state of { role : role; durable_lsn : int; applied_lsn : int }
      (** Replication position (see {!const-Repl_status}). Also the
          confirmation frame for {!const-Repl_subscribe}. *)
  | Shard_map of shard_entry list
      (** The serving topology, in range order. Ranges are contiguous
          and cover the whole interval space; an interval is stored on
          every shard whose range its extent overlaps, so any query can
          be answered by fanning out to the overlapping ranges. *)
  | Partial of { missing : int list; msg : string }
      (** A scatter-gather answer is incomplete: the shards at the
          listed indices could not be reached within the deadline
          (after endpoint failover). Typed so a degraded cluster
          answers deterministically instead of hanging; non-retryable
          as-is — the client decides whether a partial answer is
          acceptable. *)

(** {2 Codec} *)

type error =
  | Truncated  (** well-formed prefix, but the payload ends early *)
  | Oversized of int  (** declared payload length exceeds {!max_payload} *)
  | Malformed of string  (** unknown opcode, negative length, trailing junk *)

val error_to_string : error -> string

val encode_request : id:int64 -> request -> Bytes.t
(** The complete frame, length prefix included. *)

val encode_response : id:int64 -> response -> Bytes.t

val rows_size : string list -> int array list -> int
(** The byte size of the [Rows] frame for these columns and rows,
    length prefix included. *)

val write_rows :
  Bytes.t -> int -> id:int64 -> string list -> int array list -> unit
(** [write_rows b off ~id columns rows] writes the [Rows] frame, the
    bytes {!encode_response} gives, into [b] from [off]; [b] must hold
    {!rows_size} bytes there. A connection writes its answers straight
    into its output buffer this way. *)

val decode_request : Bytes.t -> (int64 * request, error) result
(** Decode one payload (the frame with its length prefix stripped). *)

val decode_response : Bytes.t -> (int64 * response, error) result

(** {2 Frame splitting}

    A [Framer] is one connection's inbound buffer: socket reads land in
    it, and it yields complete payloads. It starts at 4 KB, grows only
    for a frame larger than itself, and once drained a buffer past 64 KB
    shrinks back, so a served request allocates no read buffer. *)

module Framer : sig
  type t

  val create : unit -> t

  val read : t -> Unix.file_descr -> int
  (** [read t fd] reads what [fd] has, up to the free room, into the
      buffer, after at most one compaction of the unread bytes. The
      caller takes every complete payload with {!next} between reads,
      so a full buffer holds part of a frame larger than itself: it
      then doubles, up to that frame's declared size. The count read;
      [0] at end of stream.
      @raise Unix.Unix_error as {!Unix.read} does. *)

  val discard : t -> Unix.file_descr -> int
  (** [discard t fd] drops every unread byte, then reads from [fd] into
      the buffer and drops that too: a connection that serves nothing
      more (or speaks HTTP) reads its peer away without growing the
      buffer. The count read; [0] at end of stream.
      @raise Unix.Unix_error as {!Unix.read} does. *)

  val next : t -> (Bytes.t option, error) result
  (** The next complete payload, [None] when more bytes are needed, or
      [Error (Oversized _)] when the pending length prefix exceeds
      {!max_payload} (the connection is beyond recovery — close it). *)

  val buffered : t -> int
  (** Bytes held but not yet returned. *)

  val capacity : t -> int
  (** The buffer's size in bytes. *)
end
