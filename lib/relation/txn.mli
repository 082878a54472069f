(** MVCC transaction manager: snapshot reads keyed by a commit LSN and
    per-session buffered write sets, validated and applied atomically at
    commit (first-committer-wins).

    Writes are buffered in the transaction until commit, so shared heap
    pages only ever contain committed (or being-committed) data — a
    group-commit journal force therefore never persists another
    session's uncommitted rows, and ROLLBACK is simply discarding one
    write set.

    Visibility: a physically present row is in a snapshot iff its
    insert LSN is <= the snapshot high; a deleted row is still served
    from the in-memory dead map while any live snapshot predates the
    deleting commit. Both sidecars are GC'd against the low-water mark
    of the live transactions.

    Single-threaded by design: the server executes one statement at a
    time, so commits and GC never interleave with a running scan. *)

(** Raised by {!commit} when a buffered delete lost the race to a
    concurrent commit. The transaction is already aborted. *)
exception Conflict of string

type mgr
type txn

(** Per-table visibility overlay for scans. [visible rowid] filters
    physically present rows; [extra ()] yields rows the snapshot sees
    that are not physically present (recently deleted rows plus the
    owner's pending inserts). *)
type view = {
  visible : int -> bool;
  extra : unit -> int array list;
}

type counters = {
  c_commits : int;
  c_aborts : int;
  c_conflicts : int; (* commits refused with {!Conflict} *)
  c_active : int;
  c_lsn : int;
}

val create : unit -> mgr
val counters : mgr -> counters
val committed_lsn : mgr -> int

(** LSN of the last committed mutation of the named table (0 if never
    mutated through the manager); the hot tier stamps replicas with it. *)
val table_lsn : mgr -> string -> int

(** {1 Lifecycle} *)

val begin_txn : mgr -> txn
val is_active : txn -> bool

(** Freeze the snapshot at the current committed LSN (explicit BEGIN):
    subsequent reads are stable across concurrent commits. Idempotent. *)
val pin : txn -> unit

val pinned : txn -> bool

(** The high of the transaction's current snapshot, which sees every
    commit with LSN <= it: the pinned LSN, or (implicit transactions)
    the latest committed LSN — read-committed, with the transaction's
    own pending writes overlaid. *)
val snapshot_high : txn -> int

(** The dead-row GC low-water mark: the lowest snapshot high any live
    transaction may still read at — the minimum over every pinned
    (explicit BEGIN) snapshot, however long idle, and over the
    snapshots buffered deletes were found under (commit validation
    must still find their dead records). Sidecar entries that died at
    or below it are unreachable by everyone and reclaimed; everything
    newer survives. With no live readers it equals {!committed_lsn}. *)
val low_water : mgr -> int

(** {1 Write-set buffering} *)

val has_writes : txn -> bool
val writes_on : txn -> string -> bool
val buffer_insert : txn -> table:Table.t -> tname:string -> int array -> unit

(** Buffer the delete of a physically present row, found (by
    {!victims}) in the same statement. Validation compares against the
    snapshot high it is found under, to detect delete-delete races
    across heap-slot reuse. Raises [Invalid_argument] on a duplicate
    delete of the same row. *)
val buffer_delete :
  txn -> table:Table.t -> tname:string -> rowid:int -> row:int array -> unit

(** Buffered inserts for a table, oldest first. *)
val pending_inserts : txn -> string -> int array list

(** Remove and return the oldest buffered insert matching the
    predicate — deleting your own uncommitted insert never touches the
    shared heap. *)
val take_pending_insert :
  txn -> string -> (int array -> bool) -> int array option

(** Remove every buffered insert matching the predicate; returns the
    removed rows, oldest first. *)
val remove_pending_inserts :
  txn -> string -> (int array -> bool) -> int array list

(** {1 Visibility} *)

(** The rows of [tname] the transaction's snapshot sees that satisfy
    the predicate, as (rowid, row): every delete searches with it. First
    the physically present candidates [candidates ~ok] yields, where
    [ok rowid row] keeps the visible matches (default: a scan of
    [table]'s heap); then the matching rows a newer commit already
    deleted but the snapshot still sees, whose buffered delete fails
    commit with {!Conflict}. Rows the transaction already deletes and
    its own pending inserts are not included. *)
val victims :
  ?candidates:(ok:(int -> int array -> bool) -> (int * int array) list) ->
  txn -> table:Table.t -> tname:string -> (int array -> bool) ->
  (int * int array) list

(** [view t] takes the transaction's current snapshot (once per
    statement) and gives each table's scan overlay under it; [None]
    when physical state already equals the snapshot (nothing tracked,
    no own writes) so the common case costs nothing. *)
val view : txn -> string -> view option

(** {1 Commit / abort} *)

(** Validate and apply the write set; returns the commit LSN (the
    current LSN for an empty write set). On a lost race, aborts the
    transaction and raises {!Conflict}. The caller owns journal
    durability (force or group-commit staging) of the applied pages. *)
val commit : txn -> int

(** Discard the write set. Idempotent; never fails. *)
val abort : txn -> unit

(** Abort every live transaction and drop all sidecars — for
    crash/reopen, where the physical handles were replaced and recovery
    reinstated exactly the committed state. *)
val reset : mgr -> unit
