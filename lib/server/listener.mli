(** The listening half of a server, written once for the dispatcher
    and the router: the bound service and metrics ports, SIGPIPE, the
    self-pipe {!stop}, admission at [max_sessions], the metrics
    endpoint and the {!Reactor.run_once} loop with its teardown.

    The owner keeps only its request handling. It is handed each
    admitted socket, makes it a {!Conn} on {!reactor} and answers every
    request in the [Conn.frames] callback that decoded it; whatever
    queues a frame on a connection also flushes it and calls
    {!Conn.maybe_close}, and each connection's stall and idle deadlines
    are its own timers, so the loop never walks the connections. The
    loop arms no timer of its own and caps no [poll]: it sleeps until
    the next readiness or the next timer, and {!stop} arrives on the
    self-pipe. *)

type t

val create : host:string -> port:int -> metrics_port:int option -> t
(** Ignore SIGPIPE (a peer hanging up mid-write must surface as
    [EPIPE], not kill the process), bind the service port and, when
    asked, the metrics port ([0] picks an ephemeral one), and open the
    self-pipe. @raise Unix.Unix_error if an address is unavailable. *)

val reactor : t -> Reactor.t
(** The one reactor every connection, timer and fiber of the server
    runs on. *)

val port : t -> int
(** The bound service port. *)

val metrics_port : t -> int
(** The bound metrics port ([0] when the endpoint is disabled). *)

val stopping : t -> bool
(** {!stop} has been seen by the loop. *)

val stop : t -> unit
(** Ask {!serve} to return; one byte on the self-pipe, so it is safe
    from a signal handler or another thread. *)

val release : t -> unit
(** Close this process's copy of the service socket (see
    {!Dispatcher.release_listener}). *)

val serve :
  t ->
  max_sessions:int ->
  stats:Server_stats.t ->
  metrics_doc:(unit -> string) ->
  accept:(Unix.file_descr -> unit) ->
  drain:(unit -> unit) ->
  unit
(** Run the loop until {!stop}. Each accepted socket is admitted while
    [Server_stats] counts fewer than [max_sessions] open sessions:
    admission counts it open ({!Server_stats.session_opened}) and hands
    it to [accept]; the owner counts it closed when the connection
    ends. A socket past the limit gets one typed [Overloaded] frame and
    is closed. The metrics port, when bound, serves [metrics_doc ()]
    ({!Http_endpoint}).

    On {!stop} the loop finishes its turn, stops accepting and returns
    after [drain ()] (the owner answers what it still owes and closes
    its connections) and closing every socket it bound. Must be called
    at most once. *)
