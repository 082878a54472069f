(** A database instance: one block device, one buffer pool, a table
    dictionary, and the physical-I/O counters the experiments report.

    With [~durable:true] the instance also gets what the paper says a
    real RDBMS contributes for free — recovery. A write-ahead journal
    records every page write; {!commit} makes the current state durable;
    {!simulate_crash} throws away the buffer pool, runs journal recovery
    on the device, and returns a {e fresh} catalog handle whose tables
    are re-opened from the on-device system dictionary. Anything
    committed survives; everything else vanishes atomically. *)

type t

val create :
  ?device:Storage.Block_device.t ->
  ?durable:bool ->
  ?block_size:int ->
  ?cache_blocks:int ->
  unit ->
  t
(** Defaults match the paper's setup: 2 KB blocks, 200-block cache,
    [durable:false] (no journaling overhead in benchmarks).
    [?device] substitutes a pre-built device — how the fault-injection
    harness slips a {!Storage.Faulty_device} underneath a catalog
    ([block_size] is then ignored). A durable catalog checksums its
    pages: recovery without corruption detection is half a guarantee. *)

val durable : t -> bool
val pool : t -> Storage.Buffer_pool.t
val device : t -> Storage.Block_device.t
val journal : t -> Storage.Journal.t option

val create_table : t -> name:string -> columns:string list -> Table.t
(** In a durable catalog the table, its columns, and every index later
    created on it are registered in the on-device system dictionary.
    @raise Invalid_argument if the table already exists (or, in a durable
    catalog, if a name exceeds {!Codec.max_name_length}). *)

val find_table : t -> string -> Table.t option

val table : t -> string -> Table.t
(** @raise Not_found *)

val tables : t -> Table.t list

val io_stats : t -> Storage.Block_device.Stats.t
(** Physical reads/writes since the last {!reset_io_stats}. *)

val reset_io_stats : t -> unit
(** Zero the device counters. The buffer-pool contents are untouched, so
    a measured query run sees whatever cache state preceding operations
    left behind — the same warm-cache regime the paper measures. *)

val flush : t -> unit
(** Write back all dirty cached pages. *)

val drop_cache : t -> unit
(** Flush and empty the buffer pool: the next accesses run against a cold
    cache. Used by benchmarks that measure cold-start behaviour. *)

(** {2 Durability} *)

val commit : t -> unit
(** Force-log all dirty pages and a commit marker. On a non-durable
    catalog this is {!flush}. *)

val commit_request : t -> unit
(** Stage a commit for group commit; the dirty-page images, the marker
    and the log force are all deferred to the batch's {!commit_force}
    (see {!Storage.Buffer_pool.commit_request}). *)

val commit_force : t -> int
(** Emit one commit marker and one log force covering every staged
    request; returns the batch size (0 when nothing is staged). *)

val pending_commits : t -> int
(** Commit requests staged since the last {!commit_force}. *)

val checkpoint : t -> unit
(** Commit, write everything back, and truncate the journal. *)

val journal_stats : t -> (int * int) option
(** [(records, payload bytes)] currently in the journal, when durable. *)

val simulate_crash : ?force:bool -> t -> t
(** Durable catalogs only: drop the buffer pool without writing anything
    back, run recovery on the device, and re-open every table and index
    from the system dictionary. The returned catalog is the surviving
    database; the old handle (and any [Table.t] obtained from it) must
    not be used again. [~force:true] ignores pinned pages — for
    recovering after a {!Storage.Block_device.Crash} that unwound
    through structures still holding pins.
    @raise Failure on a non-durable catalog. *)

val reopen : t -> t
(** Like the recovery half of {!simulate_crash}, but after a clean
    {!checkpoint}: rebuild all handles from persistent storage. *)

val reload : t -> t
(** Rebuild all handles after the device was rewritten {e underneath}
    this catalog — the replica apply path. Drops every cached frame
    without write-back (cached pages are stale, and a write-back would
    clobber the newer applied images), starts a new journal epoch (the
    device is every page's new base), re-opens the dictionary from the
    device, and carries the degraded (read-only) flag over to the fresh
    handle. The fresh handle keeps this catalog's emptied pool, so the
    pool's frames are reused and its hit, miss and eviction counters
    run on across reloads. Reopening reads the dictionary and each
    structure's meta page, not the tables: a heap scans its chain for
    free slots only at its first local insert or delete
    ({!Heap.open_existing}), so a read-only standby's reload costs a
    few blocks whatever the table size. Durable catalogs only. *)

(** {2 Corruption handling} *)

val degraded : t -> bool

val degraded_reason : t -> string option
(** [Some reason] once corruption was detected: the catalog is in
    read-only degraded mode — reads keep serving (pages still verify on
    fault-in), mutations must be rejected by the layer above. *)

val degrade : t -> string -> unit
(** Flip into degraded mode (idempotent; the first reason wins). *)

val scrub : ?repair:bool -> t -> Storage.Scrub.report
(** Flush the pool, then walk every device block verifying checksum
    trailers; with [~repair:true], restore corrupt blocks from valid
    journal images. Durable (hence checksummed) catalogs only.
    @raise Failure if the catalog is not durable. *)
