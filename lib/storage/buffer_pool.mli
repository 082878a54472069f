(** LRU buffer pool over a {!Block_device}.

    Models the database block cache of the paper's setup ("the database
    block cache was set to the default value of 200 database blocks with
    a block size of 2 KB"). Pages are pinned while in use; unpinned pages
    are evicted in least-recently-used order, writing dirty pages back to
    the device. All structures above the pool (heap tables, B+-trees)
    perform their page accesses through it, so the device counters report
    exactly the physical I/O the paper measures.

    Residency and replacement are flat arrays over [capacity] frame
    slots. Page ids are the device's dense block numbers, so an [int]
    array maps a page id to its slot (−1 when absent; it grows by
    doubling as device pages appear, and an id past its end or a
    negative one is simply not resident). Replacement is exact LRU in
    O(1): idle slots sit on a doubly-linked ring kept as two [int]
    arrays, [prev] and [next], with the sentinel at slot [capacity];
    pinning takes a slot off the ring, so the eviction path can never
    reach it, and an empty ring means the pool is exhausted. A hit is
    two array reads and a few integer stores: it allocates nothing and
    writes no pointer ([BENCH_storage.json]'s [hit] section: 14–22 ns
    per resident pin and unpin, against 75–126 ns and 4 words through
    the hash table and frame-record ring it replaced).

    Frames are recycled: a miss reuses the record, data buffer and
    shadow buffer of the slot it takes (the victim's, once the pool
    holds [capacity] pages), so a fault allocates nothing once every
    slot has held a page. The bytes {!pin} returns belong to the page
    only until its last {!unpin}; after that the same buffer may hold
    another page. *)

type t

exception Corrupt_page of int
(** Raised when a block read from the device fails its checksum trailer
    (checksummed pools only): the named page holds garbage — bit rot or
    a torn write — and was {e not} installed in the cache. The check
    runs before any eviction, so the cached pages and their LRU order
    are unchanged. *)

val create : ?capacity:int -> ?checksums:bool -> Block_device.t -> t
(** [create ~capacity dev] caches up to [capacity] blocks (default 200).
    With [~checksums:true] the last 4 bytes of every block hold a CRC-32
    trailer over the payload: {!block_size} shrinks by 4, write-backs
    stamp the trailer, and faulting a page in verifies it (raising
    {!Corrupt_page} on mismatch; an all-zero block — freshly allocated,
    never written — passes). No page buffer is allocated up front:
    buffers are created as slots are first used.
    @raise Invalid_argument if [capacity < 1]. *)

val device : t -> Block_device.t

val block_size : t -> int
(** Usable page size for the structures above the pool: the device block
    size, minus the 4-byte trailer on checksummed pools. *)

val checksums : t -> bool
val capacity : t -> int

val alloc : t -> int
(** Allocate a fresh page on the device and install it, dirty and
    zero-filled, in the cache (in a recycled buffer once the pool is
    full). Returns the page id. *)

val pin : t -> int -> Bytes.t
(** [pin t id] returns the in-cache bytes of page [id], faulting it in
    from the device if necessary. The page cannot be evicted until every
    {!pin} is matched by an {!unpin}. Mutating the returned bytes is
    allowed; pass [~dirty:true] to the matching unpin so the mutation
    survives eviction. The bytes are the page's only while it is pinned:
    once unpinned, the buffer may be recycled for another page. On
    checksummed pools the buffer is the full device block; only the
    first {!block_size} bytes are the caller's.
    @raise Failure if every frame is pinned (pool exhausted).
    @raise Corrupt_page if the faulted-in block fails verification.
    @raise Block_device.Io_error on an injected transient read fault. *)

val unpin : t -> int -> dirty:bool -> unit
(** Release one pin of page [id]. [dirty:true] marks the page for
    write-back on eviction or flush.
    @raise Invalid_argument distinguishing the two misuses: the page is
    resident but its pin count is already zero (double unpin), or it is
    not resident at all (evicted, or never pinned). *)

val with_page : t -> int -> dirty:bool -> (Bytes.t -> 'a) -> 'a
(** [with_page t id ~dirty f] pins, applies [f], and unpins (also on
    exception). If [f] raises and the unpin then fails too, the
    exception of [f] — not the unpin's — is the one re-raised. *)

val flush : t -> unit
(** Write all dirty pages back to the device; pages stay cached. *)

val clear : t -> unit
(** Flush, then drop every page: the cache becomes cold (the frames'
    buffers stay for reuse).
    @raise Failure, before writing anything, if any page is still
    pinned. *)

(** {2 Durability (write-ahead journal)} *)

val attach_journal : t -> Journal.t -> unit
(** From now on every write-back logs the page to the journal (steal
    policy with undo information): a full before- and after-image the
    first time in the journal's checkpoint epoch, the changed byte
    ranges against the page's last logged image after that. A frame
    keeps a copy of its last logged image from its first log on, so
    only a frame's first log reads the device for its base. Device
    blocks must be at most 65 535 bytes. *)

val journal : t -> Journal.t option

val commit : t -> unit
(** Make the current logical state durable: force-log every dirty page
    followed by a commit marker, then force the journal. Data pages stay
    cached and dirty (lazy write-back). Without an attached journal this
    degrades to {!flush}. Equivalent to {!commit_request} directly
    followed by {!commit_force} — a group of one. *)

(** {2 Group commit}

    Concurrent sessions amortize the commit cost: {!commit_request}
    stages only the intent, and one {!commit_force} captures the
    dirty-page images of the whole batch, emits a single commit marker
    and performs a single journal force covering every staged request. A
    crash before the force loses the entire batch — which is sound
    exactly because no requester is acknowledged until the force (the
    rikitd dispatcher answers the batched COMMITs only after
    {!commit_force} returns). Pages whose content is already imaged in
    the journal are not re-logged, so a hot page updated by many
    transactions in a window costs one record per batch, not one per
    transaction. *)

val commit_request : t -> unit
(** Stage a commit for the next {!commit_force}. Nothing is logged and
    nothing is durable yet. *)

val pending_commits : t -> int
(** Commit requests staged since the last {!commit_force}. *)

val commit_force : t -> int
(** Emit one commit marker and one journal force covering every staged
    request; returns the batch size (0 = nothing staged, nothing
    logged). *)

val commit_batches : t -> int
(** Number of forced batches so far (each wrote exactly one marker). *)

val crash : ?force:bool -> t -> unit
(** Simulate a crash: drop every frame {e without} writing anything
    back. Dirty, uncommitted state is lost — including any commit
    requests staged but not yet forced and any journal bytes appended
    but never forced; {!Journal.recover} restores the device to the last
    commit marker. [~force:true] skips the pinned-page check — a real
    crash does not wait for pins, and the crash-schedule harness kills
    the pool mid-operation.
    @raise Failure if any page is still pinned (unless [force]). *)

val cached : t -> int
(** Number of pages currently resident. *)

val resident : t -> int -> bool
(** Whether the page is currently in the cache. *)

val pinned_frames : t -> int
(** Number of resident frames with at least one pin — the frames the
    eviction path must (and does, by construction) skip. *)

(** Cache behaviour counters (logical accesses), distinct from the
    device's physical counters. *)
module Stats : sig
  type pool = t

  type t = {
    logical_reads : int;  (** number of [pin] calls. *)
    hits : int;           (** pins satisfied from the cache. *)
    misses : int;         (** pins requiring a device read. *)
    evictions : int;
  }

  val get : pool -> t
  val reset : pool -> unit
  val pp : Format.formatter -> t -> unit
end
