(** Per-connection sessions over the shared database state.

    The server owns exactly one database — one
    {!Relation.Catalog.t}, one RI-tree for the typed interval ops, and
    per-session {!Sqlfront.Engine} sessions bound to that catalog (so
    transient collections stay private to a connection while tables are
    shared, the same split the paper assumes of its host RDBMS).

    Transactions are per-session MVCC ({!Relation.Txn}): every session
    runs inside a transaction whose writes are buffered until COMMIT
    validates and applies them under a fresh commit LSN; ROLLBACK
    discards that one write set and nothing else. Reads are
    read-committed per statement, or snapshot-stable after an explicit
    BEGIN pins the snapshot. A COMMIT is applied and staged by
    {!stage_commit}; one {!commit_force_shared} then makes a batch of
    staged COMMITs durable. *)

(** {2 Shared database state} *)

type shared

val shared :
  ?device:Storage.Block_device.t ->
  ?durable:bool ->
  ?cache_blocks:int ->
  ?tree_name:string ->
  ?hot_tier_mb:int ->
  unit ->
  shared
(** A fresh database with an empty RI-tree (default name
    ["intervals"]) in the {!Ritree.Ri_tree.Covering} layout, which
    answers every typed op from the indexes alone. [device]
    substitutes the catalog's block device ({!Relation.Catalog.create}),
    which is how a test puts a {!Storage.Faulty_device} under a served
    database; {!preload} builds its fresh catalog on the blocks of
    [device] past those already written, so every transfer still goes
    through it. [durable:true]
    (default [false]) enables the write-ahead journal and with it
    [Rollback]. [hot_tier_mb] (default
    [0] = disabled) budgets the RAM-resident hot tier: the typed
    interval ops then serve from an in-memory HINT replica whenever the
    cost model prefers it. *)

val catalog : shared -> Relation.Catalog.t
val tree : shared -> Ritree.Ri_tree.t
val durable : shared -> bool

val memtier : shared -> Exec.Memtier.t
(** The hot-tier manager (budget 0 when disabled). *)

val txns : shared -> Relation.Txn.mgr
(** The MVCC transaction manager (commit/abort/conflict counters live
    here). *)

val preload : shared -> Interval.Ivl.t array -> unit
(** Bulk-load a dataset into the empty RI-tree (ids [0..n-1]) and
    commit: {!Ritree.Ri_tree.bulk_load} builds both covering indexes
    bottom-up. The catalog is replaced by a fresh one with the same
    settings, so call it before serving.
    @raise Invalid_argument if the database holds any row or any table
    besides the RI-tree's. *)

val preload_ids : shared -> (int * Interval.Ivl.t) array -> unit
(** {!preload} with explicit ids. A shard of a routed
    cluster preloads its slice of a global dataset this way, so a
    boundary spanner replicated on several shards carries one global
    identity — the key the router's merge deduplicates on. *)

val commit_force_shared : shared -> (int, Protocol.response) result
(** Force every COMMIT staged since the last force ({!stage_commit}):
    one marker, one log force. Returns the batch size. A device fault
    in the force ({!Storage.Block_device.Io_error},
    {!Storage.Buffer_pool.Corrupt_page}) returns [Error frame], the
    typed frame {!handle} gives for that exception, owed to every
    COMMIT of the batch, and degrades the catalog to read-only: the
    batch is applied but not durable. *)

val durable_lsn_shared : shared -> int
(** The durable-log byte offset ({!Storage.Journal.durable_lsn}) — the
    LSN token commit acks carry so a failover client can wait out
    replica lag. [0] on a non-durable server. *)

val flush_shared : shared -> unit
(** Write back all dirty pages (graceful-shutdown path); on a durable
    server this checkpoints, so a reopen sees every acknowledged
    write. *)

val reopen : shared -> unit
(** Rebuild catalog and tree handles from persistent storage after a
    clean {!flush_shared} — the in-process equivalent of a daemon
    restart (durable servers only). *)

val reload : shared -> unit
(** Rebuild catalog and tree handles after the device was rewritten
    underneath them — the replica apply path, run after each replicated
    commit batch lands on the device. Cached pages are dropped without
    write-back, live transactions are force-aborted (a replica's pinned
    snapshots do not survive an applied batch), and the hot tier is
    invalidated. The relation's statistics are kept (the 2x row-count
    drift rule refreshes them), so the next read does not rescan the
    table. Durable servers only. After this and {!reopen},
    sessions keep their prepared statements, which recompile against
    the new handles at their next EXECUTE. *)

(** {2 Sessions} *)

type t

val create : shared -> t
(** Register a new session (ids count up from 1). *)

val close : t -> unit

val id : t -> int
val requests : t -> int
(** Requests this session has executed. *)

val has_pending_writes : t -> bool
(** The session's transaction holds buffered (uncommitted) writes. The
    dispatcher uses this to decide whether an open group-commit window
    could still grow: once no live session has writes in flight, waiting
    out the window deadline only adds latency. *)

val mutating : t -> Protocol.request -> bool
(** Whether the request writes to the shared database. SQL is classified
    by its first keyword ([select]/[explain] are reads); [Execute] by the
    kind of the named prepared statement in this session. Used to enforce
    degraded read-only mode. *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request. Never raises: every failure — SQL errors, bad
    intervals — comes back as a typed frame ([Error], [Invalid],
    [Conflict]). [Stats] is the dispatcher's job and answers [Error]
    here. A detected {!Storage.Buffer_pool.Corrupt_page} returns a
    typed [Error] {e and} degrades the catalog: from then on mutating
    requests answer [Read_only] while reads keep serving. An injected
    transient {!Storage.Block_device.Io_error} returns a typed [Error]
    the client may retry. A [Commit] is {!stage_commit} followed by
    {!commit_force_shared}, a batch of one, for in-process callers; the
    dispatcher stages and forces COMMITs itself. *)

val stage_commit : t -> (unit, Protocol.response) result
(** Apply a COMMIT and stage it for the next {!commit_force_shared},
    under {!handle}'s guard: counted against this session, refused
    [Read_only] in degraded mode, and every exception answered with
    {!handle}'s typed frame (a corrupt page degrades the catalog). The
    MVCC write set is validated and applied NOW and the successor
    transaction begun; only durability, and with it the client's Ack,
    waits for the force. [Error frame] is owed to the client at once:
    a first-committer-wins [Conflict] (the transaction is already
    aborted and replaced), [Read_only] or [Error]; nothing was staged
    then. *)
