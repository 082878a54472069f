(** Blocking client for the rikitd wire protocol.

    One TCP connection, one outstanding request at a time: {!rpc}
    assigns a fresh request id, writes the frame, and blocks until the
    matching response arrives. An admission-control rejection at accept
    time (the server's [Overloaded] frame with request id 0) is
    returned as the response of whatever call observes it.

    Every typed convenience returns a [('a, error) result] — transport
    failures, admission rejections, degraded-mode refusals and
    server-side errors all come back as typed {!error} values, never
    exceptions. {!retryable} says which of them are worth retrying, and
    {!retry} does so with bounded exponential backoff and jitter. Only
    the low-level {!rpc} raises ({!Io_error}, transport only). A
    response stream (a primary's frames to its standby) is read with
    {!send} and {!recv}. In a reactor fiber every wait parks the fiber. *)

type t

exception Io_error of string

exception Timed_out of string
(** A per-request deadline ({!connect}'s [?deadline_ms]) expired. The
    connection was closed before raising: a response arriving after its
    deadline would answer the wrong request. Only the low-level {!rpc}
    and {!send} raise it; the typed conveniences fold it into
    {!Timeout}. *)

exception Undecodable of string
(** The server answered with a well-delimited frame this client cannot
    decode (e.g. an op added after it was built). The stream is still in
    sync — the connection stays open and later calls keep working. Only
    the low-level {!rpc} and {!recv} raise it; the typed conveniences
    fold it into {!Unexpected}. *)

(** Why a call failed. *)
type error =
  | Overloaded of string  (** admission control; transient *)
  | Read_only of string
      (** the server is in degraded read-only mode; mutations will keep
          failing until the operator repairs the image *)
  | Conflict of string
      (** the transaction lost a write-write race at COMMIT and was
          aborted; retrying the COMMIT verbatim cannot succeed — the
          whole transaction must be re-run, so this is non-retryable *)
  | Server of string  (** the typed [Error] response; not transient *)
  | Invalid of string
      (** the typed [Invalid] response — the request itself was
          semantically wrong (e.g. an empty interval); fix the call,
          don't retry it *)
  | Io of string  (** transport failure; transient *)
  | Timeout of string
      (** the per-request deadline expired — a hung server, a partition,
          or an overloaded commit path; the connection is closed.
          Retryable (typically against another endpoint: see
          {!Failover}) *)
  | Partial of { missing : int list; msg : string }
      (** a router's scatter-gather answer was incomplete: the shards at
          the listed indices stayed unreachable through the router's own
          failover attempts. Non-retryable as-is — the caller decides
          whether partial data is acceptable *)
  | Unexpected of string  (** protocol violation / wrong response shape *)

val error_to_string : error -> string

val retryable : error -> bool
(** [true] for {!Overloaded}, {!Io} and {!Timeout} — failures that clear
    on their own. [Read_only], [Server], [Invalid], [Conflict],
    [Partial] and [Unexpected] are verdicts. *)

val connect : ?host:string -> ?deadline_ms:float -> port:int -> unit -> t
(** Default host [127.0.0.1]. [?deadline_ms] arms a per-request
    deadline: the connect itself and every subsequent call on this
    connection must complete within that many milliseconds (poll(2)
    waits around each read/write), else the call fails with {!Timeout}
    and the connection is closed. Without it, calls block forever — a
    hung or partitioned server then also hangs the client, which is
    exactly what failover cannot afford.
    [host] must be a numeric address: there is no name resolution.
    @raise Io_error when the connection is refused or [host] is not
    numeric (then no socket is opened).
    @raise Timed_out when [?deadline_ms] expires during connect. *)

val close : t -> unit

val rpc : t -> Protocol.request -> Protocol.response
(** @raise Io_error on a closed/violated transport (a garbage length
    prefix also closes the connection — no frame boundary survives it).
    @raise Undecodable on a well-delimited but unreadable response; the
    connection stays open. *)

val rpc_result : t -> Protocol.request -> (Protocol.response, error) result
(** {!rpc} with the transport failure folded into the result. *)

val send : t -> Protocol.request -> unit
(** Write one request and read nothing back ([Repl_subscribe],
    [Repl_ack]); bounded by the connection's deadline. Raises as {!rpc}
    does, and {!Timed_out}. *)

val recv : t -> Protocol.response
(** The next response frame, whatever its request id, waited for
    without bound. Raises as {!rpc} does. *)

(** {2 Typed conveniences}

    None of these raise; all failure shapes land in {!error}. *)

val ping : t -> (unit, error) result
val insert : t -> ?id:int -> Interval.Ivl.t -> (int, error) result
(** The assigned id. *)

val intersect :
  t -> Interval.Ivl.t -> ((Interval.Ivl.t * int) list, error) result

val sql : t -> string -> (Protocol.response, error) result
(** [Ok] carries [Ack] or [Rows]. *)

val server_stats : t -> (Protocol.stats, error) result

val metrics : t -> (string, error) result
(** The Prometheus text exposition over the wire (the [Metrics] op). *)

val begin_txn : t -> (unit, error) result
(** Start an explicit transaction: pins the snapshot until COMMIT or
    ROLLBACK. Fails with [Invalid] if one is already open. *)

val commit : t -> (int, error) result
(** Commit the session's transaction; [Ok lsn] carries the durable-log
    byte offset the commit is covered by (0 on non-durable servers) —
    the token a failover client uses to wait out replica lag
    (read-your-writes). [Conflict] if it lost a write-write race (the
    transaction is already aborted server-side). *)

val shard_map : t -> (Protocol.shard_entry list, error) result
(** The serving topology (the [Shard_map_req] op): one entry per shard
    from a router, a single whole-space entry from a plain rikitd. *)

val repl_status : t -> (Protocol.role * int * int, error) result
(** [(role, durable_lsn, applied_lsn)] — the server's replication
    position (the [Repl_status] op). *)

val rollback : t -> (unit, error) result
(** Discard the session's write set; other sessions are unaffected. *)

val prepare : t -> name:string -> string -> (unit, error) result
(** Parse and plan a statement once under [name] in this session. *)

val execute :
  t -> name:string -> int list -> (Protocol.response, error) result
(** Run a prepared statement with positional parameters; [Ok] carries
    [Ack] or [Rows]. *)

val close_stmt : t -> string -> (unit, error) result

val explain :
  t -> ?analyze:bool -> Protocol.explain_target -> (string, error) result
(** The rendered plan (with cost annotations; [analyze] adds measured
    actuals) for a SQL text or a typed op. *)

(** {2 Bounded retry with exponential backoff}

    Delay before attempt [n+1] is
    [min max_delay (base_delay * 2^(n-1))], scaled by a deterministic
    jitter factor drawn from [seed] into [[1 - jitter, 1]] — so a herd
    of backing-off clients spreads out instead of re-arriving in
    lockstep. *)

type backoff = {
  attempts : int;  (** total attempts, including the first *)
  base_delay : float;  (** seconds *)
  max_delay : float;
  jitter : float;  (** fraction of the delay the jitter may remove, 0..1 *)
  seed : int;  (** jitter PRNG seed (deterministic sleeps in tests) *)
}

val default_backoff : backoff
(** 5 attempts, 50 ms base, 1 s cap, jitter 0.5, seed 0. *)

val retry :
  ?backoff:backoff -> (unit -> ('a, error) result) -> ('a, error) result
(** Re-run [f] while it fails with a {!retryable} error and attempts
    remain, sleeping between tries. The first non-retryable error (or
    exhaustion) is returned as-is. *)
