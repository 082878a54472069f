(** The socket half of a served connection, written once for every
    listener: the dispatcher and the router use it for framed protocol
    connections, the metrics endpoint for its one-shot HTTP scrapes.

    A connection is registered on a {!Reactor}: readability reads the
    socket straight into the connection's {!Protocol.Framer},
    writability flushes the bounded {!Reactor.Writer} and closes the
    connection once it is finished. Neither allocates per request: the
    framer and the writer each keep one buffer, sized by the largest
    frame in flight and released past 64 KB once drained, and a [Rows]
    answer is encoded straight into the writer's buffer. The owner keeps its own
    per-connection state (sessions, queues, shard legs) next to the
    [t] and learns about the connection's end through [on_close].

    Lifecycle: a connection marked [closing] gets no further service —
    its inbound bytes are read and discarded — and ends once its output
    has drained, with a lingering close: the write side is shut down
    (the peer reads everything it was sent, then EOF) and inbound bytes
    are discarded until the peer closes, or for at most 5 s. Closing
    the socket while the peer is still sending would answer those bytes
    with an RST, which discards the final typed frame from the peer's
    receive queue and fails the peer's writes with [EPIPE].
    [force_close] ends the connection at the next {!maybe_close},
    drained or not.

    Deadlines: each connection holds at most one timer per deadline,
    and nothing walks the connections to find them.
    - The stall deadline is armed when a {!flush} leaves output
      pending. A connection whose pending output makes no write
      progress for its stall limit is closed like [force_close]. The limit is [idle_timeout] when that
      is positive, else 5 s.
    - The idle deadline is armed by {!serve} when [idle_timeout] is
      positive. A connection that has received no byte for
      [idle_timeout] seconds and owes no output gets a typed [Goodbye]
      frame (request id 0) and closes.
    Both are lazy: a read or a drain touches no timer. A timer that
    fires checks the real condition and re-arms for the time left, or
    lapses when nothing is pending. *)

type t = {
  reactor : Reactor.t;
  fd : Unix.file_descr;
  wr : Reactor.Writer.t;
  framer : Protocol.Framer.t;
  mutable closing : bool;  (** serve nothing more; close once drained *)
  mutable force_close : bool;  (** close at the next {!maybe_close} *)
  mutable cut_off : bool;  (** the high-water rule fired; drop output *)
  mutable lingering : bool;  (** write side shut; awaiting the peer's EOF *)
  mutable dead : bool;  (** deregistered and closed *)
  mutable last_active : float;  (** last byte received *)
  mutable idle_timeout : float;
      (** seconds of silence before the idle deadline; [0.]: none. The
          owner sets it to [0.] to exempt a connection (a replication
          subscriber) from both the idle deadline and the shorter
          stall limit. *)
  mutable stall_timer : Reactor.timer option;  (** the stall deadline *)
  mutable idle_timer : Reactor.timer option;  (** the idle deadline *)
  mutable on_cut_off : unit -> bool;  (** set by {!serve} *)
  mutable on_close : unit -> unit;  (** set by {!serve} *)
}

(** [listen ~host ~port ~backlog] binds a listening socket
    ([SO_REUSEADDR]; [port = 0] picks an ephemeral port) and returns it
    with the port actually bound. *)
val listen :
  host:string -> port:int -> backlog:int -> Unix.file_descr * int

(** [accept lfd ~admit f] drains the accept backlog of the
    non-blocking listener [lfd]. For each accepted socket, [admit ()]
    returning [Some reason] refuses it: one typed [Overloaded reason]
    frame (request id 0) is written in full and the socket is closed.
    [None] hands the socket, now non-blocking, to [f]. *)
val accept :
  Unix.file_descr ->
  admit:(unit -> string option) ->
  (Unix.file_descr -> unit) ->
  unit

(** A fresh connection on an accepted socket, not yet registered;
    [high_water] bounds its output buffer (default 4 MiB), and
    [idle_timeout] (default [0.], none) sets its deadlines. *)
val create :
  Reactor.t -> ?high_water:int -> ?idle_timeout:float -> Unix.file_descr -> t

(** [serve c ?on_cut_off ?on_close on_data] registers [c]: each read
    lands new bytes in [c.framer] and then runs [on_data ()]. Once [c]
    is closing, reads discard their bytes and [on_data] no longer
    runs. A read error closes [c]; so does EOF, unless
    output is still owed — then [c] is closing and ends once it drains.
    Write interest starts off, and the idle deadline is armed.

    [on_cut_off] runs when a {!send} leaves the output buffer over its
    high-water mark: returning [true] (the default) cuts the consumer
    off — the owner drops its unanswered work, and one typed
    [Overloaded] frame is buffered past the mark before the connection
    closes; returning [false] exempts the connection (a replication
    subscriber is flow-controlled instead). [on_close] runs once, when
    the socket is closed. *)
val serve :
  t ->
  ?on_cut_off:(unit -> bool) ->
  ?on_close:(unit -> unit) ->
  (unit -> unit) ->
  unit

(** [frames c on_request] is the [on_data] of a protocol connection:
    it hands each payload complete in the framer, decoded, to
    [on_request id req] until [c] starts closing. An undecodable
    payload is answered with a typed [Error] (request id 0) and the
    connection survives; a framing error (oversized length prefix) is
    answered the same way and closes the connection. Both answers are
    flushed at once. *)
val frames : t -> (int64 -> Protocol.request -> unit) -> unit -> unit

(** Buffer one response frame under the high-water rule (see
    {!serve}): a [Rows] answer is written into the writer's buffer at
    its exact size ({!Protocol.write_rows}), any other frame pushed as
    {!Protocol.encode_response} builds it.
    Dropped once the connection is cut off, lingering or closed. Does
    not write: whoever queues a frame also calls {!flush} and
    {!maybe_close}, or {!reply} does all three. *)
val send : t -> id:int64 -> Protocol.response -> unit

(** {!send}, {!flush}, then {!maybe_close}. *)
val reply : t -> id:int64 -> Protocol.response -> unit

(** Write what the socket accepts and keep write interest equal to
    "has pending bytes"; output left pending arms the stall deadline
    unless it is armed. A peer gone under us sets [force_close]. A
    no-op once the connection is dead. *)
val flush : t -> unit

(** Close [c] if it is [force_close], or start its lingering close if
    it is [closing] with its output drained. *)
val maybe_close : t -> unit

(** Deregister and close now, after reading away (boundedly) any
    unread inbound bytes; cancels the deadlines and runs [on_close].
    Idempotent. *)
val close : t -> unit
