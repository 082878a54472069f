(** Servers for the benches, the chaos runs and the tests, started one
    way: a dispatcher on a thread of this process, or dispatchers and a
    router in forked processes. Every server binds an ephemeral
    loopback port; a [config.port] passed in is ignored. *)

(** {1 In-process} *)

type node

val start : Server.Dispatcher.config -> Server.Session.shared -> node
(** Serve [sh] from a new thread. The port is bound before [start]
    returns, so clients may connect at once. *)

val stop : node -> unit
(** Graceful stop ({!Server.Dispatcher.stop}), then join the thread. *)

val port : node -> int

(** {1 Forked} *)

type proc = { pid : int; port : int }

val fork :
  ?config:Server.Dispatcher.config -> (int * Interval.Ivl.t) array list ->
  proc list
(** One forked dispatcher per slice, preloaded (in the parent, so the
    child inherits it copy-on-write) with the slice's rows under their
    given ids, in a non-durable relation. Every port is bound before
    the first fork, and every process — the parent and each child —
    then drops the listen fds it does not serve, so a killed server's
    port refuses connections instead of accepting into the void.
    Children stop gracefully on SIGTERM and ignore SIGINT. Processes,
    not threads: a fat scan pinning one server must not hold up the
    others, and only the kernel can preempt it. [config] defaults to
    {!Server.Dispatcher.default_config}. *)

val fork_router : Server.Router.config -> map:Server.Router.Map.t -> proc
(** A router over [map] in a forked process, stopped by SIGTERM. *)

val kill : ?signal:int -> proc -> unit
(** Send [signal] (default SIGTERM) and reap the process; a process
    that is already gone is not an error. *)

(** {1 Wire allocation} *)

type words = {
  minor : float;  (** minor-heap words per request *)
  major : float;
      (** major-heap words per request, promoted words included *)
  answer : Server.Protocol.response;  (** the first reply, decoded *)
}

val wire_words : Server.Session.shared -> Server.Protocol.request -> reps:int -> words
(** [wire_words sh req ~reps] serves [req] [reps] times, after a
    warm-up, on one {!Server.Conn} over a socketpair, answered by a
    {!Server.Session} of [sh] on a reactor that the calling thread
    turns with {!Reactor.run_once}. The client half writes one frame
    encoded beforehand and reads each reply into one reused buffer, so
    the words counted are the serving path's: the framer, the session,
    the encoder and the writer. *)

(** {1 Helpers} *)

val describe : Server.Protocol.response -> string
(** A one-line label for a response, for failure messages. *)

val slice : Interval.Ivl.t array -> int * int -> (int * Interval.Ivl.t) array
(** [slice data (lo, hi)]: every interval of [data] overlapping
    [\[lo, hi\]] under its index in [data] as id — a shard's rows. An
    interval spanning a shard boundary lands in both neighbours' slices
    and collapses at merge time by that shared id. *)

val wait_applied : ?timeout:float -> port:int -> int -> float option
(** Poll the server on [port] with [Repl_status] until it has applied
    the journal through [lsn]: [Some seconds] waited, or [None] after
    [timeout] seconds (default 5). Connection errors while polling are
    retried, so the server may still be starting. *)
