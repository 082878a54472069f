(** The rikitd event loop.

    A single-process, single-writer {!Reactor} loop multiplexing many
    client connections over the shared database — the serving shape the
    paper assumes of its host RDBMS front end. The {!Listener} owns the
    ports, admission, the self-pipe stop and the loop; each socket is a
    {!Conn} with its own idle and stall deadlines, the group-commit
    window is a timer on the reactor, and a standby follows its primary
    through {!Client} in one fiber on the same reactor. Each request runs in
    the read callback that decoded it, and its response is written
    before the callback returns (sockets are non-blocking; a slow reader
    never stalls the loop). A pipelined burst — what one read lands in
    the connection's framer, 4 KB unless a larger frame is pending —
    therefore runs before other connections' reads are served.

    Output is bounded: each connection writes through a
    {!Reactor.Writer} capped at [write_high_water] bytes. A consumer
    that lets the buffer burst the cap gets one typed [Overloaded]
    frame and is closed once what it was owed drains (or when it stalls
    outright); a replication subscriber is instead flow-controlled —
    shipping pauses until it drains — and cut only after a hard stall,
    so one wedged standby can never grow an unbounded buffer or hold
    every session's commit acks hostage.

    Admission control is typed, never silent:

    - a connection beyond [max_sessions] is answered with one
      [Overloaded] frame (request id 0) and closed;
    - a malformed payload gets a typed [Error] response; only a framing
      desync (oversized length prefix) closes the connection, again
      after a typed response.

    {!stop} is thread- and signal-safe (self-pipe); {!serve} then stops
    accepting, forces the open group-commit window, flushes the buffer
    pool (checkpointing a durable catalog, so nothing acknowledged is
    lost on restart) and returns. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  max_sessions : int;
  group_commit : float;
      (** group-commit window in seconds; [0.] closes the window
          inside the request that opened it. Every COMMIT request is
          applied and staged ({!Session.stage_commit}) and its Ack is
          owed; when the window closes (at once for [0.], else at the
          deadline, as soon as no other session holds buffered writes,
          when the server drains for shutdown, or when a ROLLBACK
          arrives behind the batch), a single commit marker and a
          single log force cover every staged COMMIT, and only then
          are they acknowledged — so concurrent sessions amortize the
          log force without ever being told an undurable state was
          durable. A COMMIT's recorded latency and I/O run from its
          apply through the force. *)
  idle_timeout : float;
      (** seconds a connection may sit with no bytes received and no
          undrained output before it is answered with a
          typed [Goodbye] frame (request id 0) and closed, freeing its
          seat against [max_sessions]; when positive it is also how long
          pending output may make no write progress before the
          connection is closed (5 s otherwise). Replication subscribers
          are exempt from both. [0.] (the default) disables idle
          closing. *)
  metrics_port : int option;
      (** when set, a second listen socket on this port answers plain
          HTTP GETs with the Prometheus text exposition ({!Metrics});
          [Some 0] picks an ephemeral port (see {!metrics_port}).
          [None] (the default) disables the endpoint. *)
  slow_query_ms : float;
      (** when positive, tracing ({!Obs.Trace}) is switched on at
          {!create} and any request whose execution takes at least this
          many milliseconds has its full trace tree printed to stderr.
          [0.] (the default) disables slow-query logging. *)
  replica_of : (string * int) option;
      (** when set, run as a hot standby of the primary at this
          [(host, port)]: the catalog is flipped read-only at {!create}
          (local mutations answer [Read_only]; reads serve normally),
          and a fiber of the serve loop dials the primary with
          {!Client}, subscribes to its journal stream from the locally
          applied LSN, replays each committed batch onto the local
          device ({!Replica}) and acknowledges it. The primary need not
          be up yet: the fiber redials 0.2 s after every failed dial or
          dropped link, resubscribing from the applied LSN — a torn
          frame or dropped connection never desyncs the replica.
          Requires a durable {!Session.shared}. [None] (the default) is
          a plain primary, which accepts [Repl_subscribe] from any
          number of replicas and holds each commit Ack until all live
          subscribers have applied past it (semi-synchronous; falls
          back to asynchronous the moment no subscriber is
          connected). *)
  write_high_water : int;
      (** per-connection output buffer bound in bytes. See the
          backpressure contract above. *)
}

val default_config : config
(** [127.0.0.1:7468], 64 sessions, group-commit window 0, no idle timeout, no metrics endpoint, no slow-query log,
    not a replica, 4 MiB write high-water. *)

type t

val create : ?config:config -> Session.shared -> t
(** Bind and listen immediately (so [port] is known before {!serve}
    runs) and ignore SIGPIPE ({!Listener.create}).
    @raise Unix.Unix_error if the address is unavailable. *)

val port : t -> int
(** The actual bound port — useful with [config.port = 0]. *)

val metrics_port : t -> int
(** The bound metrics port ([0] when the endpoint is disabled). *)

val reactor : t -> Reactor.t
(** The reactor {!serve} runs: every connection, deadline and fiber of
    the server is on it. *)

val metrics_doc : t -> string
(** The Prometheus exposition document, as the endpoint would serve it
    right now. *)

val stats : t -> Server_stats.t

val shared : t -> Session.shared

val serve : t -> unit
(** Run the loop until {!stop}. Must be called at most once. *)

val stop : t -> unit
(** Request graceful shutdown; safe from another thread or a signal
    handler. *)

val release_listener : t -> unit
(** Close this process's copy of the listening socket without touching
    the rest of the dispatcher. For fork-based topologies only: a parent
    that binds the port (to learn it) and forks a child to {!serve} must
    release its inherited copy — and so must sibling children — or the
    port stays accept-able after the serving child dies, turning a dead
    shard into a black hole instead of a connection refusal. Never call
    it in the process that will run {!serve}. *)
