(** Scatter-gather router over a sharded rikitd cluster — the fix for
    head-of-line blocking.

    A single dispatcher multiplexes every session onto one event loop,
    so one fat query (a huge intersection scan) freezes every other
    client until it finishes. The router splits the interval domain
    into contiguous ranges along the RI-tree's virtual backbone, runs
    one full rikitd per range (its own process, its own event loop),
    and fans each query out to only the shards whose ranges the query
    extent overlaps, merging the answers. A multi-second scan then
    saturates one shard process while the others — and the router's
    reactor frontend — keep answering in milliseconds.

    {2 Concurrency}

    The router runs on one OS thread. Its reactor owns every client
    socket ({!Conn}: framing, bounded buffered writes; and the metrics
    endpoint), and each request that talks to a shard runs as a
    reactor fiber ({!Reactor.spawn}) that parks on every shard wait.
    Each connection's requests execute one at a time in arrival order;
    a scatter's legs are sibling fibers ({!Reactor.all}), each under
    the ordinary {!Failover.read} retry contract, so a slow or
    black-holed shard delays only the connections waiting on it —
    never a request for a healthy shard. Slow consumers (peers that
    stop reading) are cut off with a typed [Overloaded] frame when
    their write buffer crosses the high-water mark, and closed at their
    stall deadline ({!Conn}) if their output makes no progress for 5 s.

    {2 Placement and correctness}

    An interval is stored on {e every} shard whose range its extent
    overlaps, so boundary spanners are replicated. A query with
    bounding extent [E] is fanned to the shards overlapping [E]; any
    match [m] has [m ∩ E ≠ ∅], and the shard owning a point of that
    intersection both stores [m] and receives the query. Replicated
    matches return from several shards as identical
    [(lower, upper, id)] triples and are collapsed by
    {!Map.merge_rows} (ids are assigned by the {e owning} shard — the
    first overlapping range — and replicated under that identity, so
    the triple is a stable key even though each shard numbers its own
    local inserts).

    {2 Transactions}

    [BEGIN] is tracked router-side and opened lazily on each shard at
    the transaction's first touch of it — per-shard snapshots are taken
    at first use. [COMMIT] fans to every shard the connection dialled;
    each shard validates and commits {e independently}
    (first-committer-wins locally), so cross-shard commits are not
    atomic: a [Conflict] or unreachable shard may leave other shards
    committed, and is reported as such. The ack carries the maximum
    per-shard LSN; the router also folds each shard's commit LSN into a
    global per-shard read-your-writes token that seeds every new
    connection's {!Failover} legs.

    {2 Partial results}

    A shard that stays unreachable through its leg's endpoint failover
    degrades the answer to the typed [Partial { missing; msg }]
    response — the client learns exactly which ranges are unaccounted
    for, and the router never hangs on a dead shard beyond
    [shard_deadline_ms]. *)

(** The shard map: contiguous inclusive ranges covering the integer
    line, plus each shard's endpoint list (primary first, standbys
    after — the order {!Failover} tries them). *)
module Map : sig
  type t

  val backbone_cuts : domain_max:int -> shards:int -> int list
  (** [shards - 1] strictly increasing split points in
      [\[1, domain_max\]], each a multiple of the largest power of two
      [g ≤ (domain_max + 1) / (2 · shards)] — i.e. RI-tree backbone
      node values — nearest to the equal-width ideal. Fewer cuts are
      returned (yielding fewer effective shards) only when [shards] is
      large enough that nearest multiples collide. *)

  val create : cuts:int list -> endpoints:(string * int) list list -> t
  (** [create ~cuts ~endpoints] builds the map for
      [List.length endpoints] shards from strictly increasing [cuts]
      (exactly one per boundary): shard 0 covers [min_int .. c1 - 1],
      shard [i] covers [c_i .. c_{i+1} - 1], the last covers
      [c_k .. max_int].
      @raise Invalid_argument on an empty shard list, a cut-count
      mismatch, or non-increasing cuts. *)

  val shards : t -> int
  val range : t -> int -> int * int
  (** Inclusive [(lo, hi)] of shard [i]. *)

  val endpoints : t -> int -> (string * int) list

  val entries : t -> Protocol.shard_entry list
  (** The wire form, ascending by range — the [Shard_map] answer. *)

  val targets : t -> lower:int -> upper:int -> int list
  (** Shard indices whose ranges overlap [\[lower, upper\]], ascending
      (always a consecutive run); the fan-out set for a query with that
      bounding extent, and the placement set for an interval with that
      extent (head = owner). *)

  val owner : t -> int -> int
  (** The shard whose range contains the point. *)

  val allen_extent :
    Interval.Allen.relation -> lower:int -> upper:int -> (int * int) option
  (** Conservative bounding extent for the stored matches of an Allen
      query (stored interval as first argument of
      [Allen.holds r stored query]): [Before]/[Meets] bound matches to
      the left of the query, [After]/[Met_by] to the right, the nine
      intersecting relations to the query extent itself. [None] means
      no interval can match (empty extent at a domain edge). *)

  val merge_rows : int array list list -> int array list
  (** Union of per-shard row lists with replicated boundary spanners
      deduplicated by their [(lower, upper, id)] triple, re-sorted so
      the merged answer is deterministic regardless of shard arrival
      order. Rows with fewer than three columns are kept as-is. *)
end

type config = {
  host : string;
  port : int;  (** 0 binds an ephemeral port; see {!port} *)
  max_sessions : int;
  shard_deadline_ms : float;
      (** per-RPC budget for each shard leg; bounds how long a
          partitioned shard can stall a scatter before degrading the
          answer to [Partial] *)
  metrics_port : int option;
}

val default_config : config
(** 127.0.0.1:7654, 64 sessions, 15 s shard deadline, no metrics. *)

type t

val create : config -> map:Map.t -> t
(** Bind the listening socket(s) and ignore SIGPIPE
    ({!Listener.create}); serving starts with {!serve}. *)

val port : t -> int
(** The actually-bound client port. *)

val metrics_port : t -> int
(** The actually-bound metrics port (0 when metrics are disabled). *)

val reactor : t -> Reactor.t
(** The reactor {!serve} runs: every connection, deadline and request
    fiber of the router is on it. *)

val stats : t -> Server_stats.t
(** Per-op latency includes a family per shard under [op="shard:<i>"] —
    the fan-out leg latency. *)

val map : t -> Map.t

val metrics_doc : t -> string
(** The router's Prometheus exposition ({!Metrics.render_router}). *)

val serve : t -> unit
(** Run the reactor loop, and with it every request's fiber, on the
    calling thread. Returns after {!stop}: closes the listener and
    tears down every client connection and shard leg, abandoning
    requests still waiting on a shard. *)

val stop : t -> unit
(** Signal {!serve} to shut down (safe from a signal handler or another
    thread). *)
