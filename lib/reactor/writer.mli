(** Bounded, non-blocking output buffer for one connection.

    One growable byte buffer holds what the connection owes: frames are
    appended whole ({!push}, or written in place by {!write}) and
    flushed opportunistically with non-blocking writes; a partial write
    moves a cursor, so flushing is O(bytes written), not O(bytes
    buffered). The buffer is allocated on the first push, grows by
    doubling (or compacts when that frees half of it), and once drained
    a buffer past 64 KB is released, so a connection that answers small
    frames allocates nothing per frame.

    The high-water mark is the backpressure trigger: a push reports
    when the buffer has crossed it and the owner decides the policy —
    protocol connections get a typed [Overloaded] and are closed,
    replication subscribers have shipping paused until they drain. *)

type t

type flush = Drained  (** buffer empty *)
  | Pending  (** bytes remain; poll for writability *)
  | Peer_gone  (** connection reset/closed under us *)

val create : ?high_water:int -> now:float -> Unix.file_descr -> t

val fd : t -> Unix.file_descr
val high_water : t -> int

(** Append a whole frame. Returns [false] when the owed bytes are above
    the high-water mark after the push — the frame is still buffered (a
    final typed frame may ride out past the mark); the caller must
    apply its backpressure policy. *)
val push : t -> bytes -> bool

(** [write t n fill] appends an [n]-byte frame that [fill buf off]
    writes into [buf.[off .. off + n - 1]], with no intermediate copy.
    Returns what {!push} returns. *)
val write : t -> int -> (bytes -> int -> unit) -> bool

(** Write as much as the socket accepts without blocking. *)
val flush : t -> now:float -> flush

val pending_bytes : t -> int
val has_pending : t -> bool

(** Seconds since the last successful write progress, when bytes are
    pending ([0.] when drained). Drives stalled-consumer reaping. *)
val stalled_for : t -> now:float -> float

(** Largest [pending_bytes] ever observed — test/metrics hook for
    checking the high-water mark is honored. *)
val max_buffered : t -> int

(** The buffer's size in bytes ([0] before the first push and after a
    large buffer is released). *)
val capacity : t -> int
