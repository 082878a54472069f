(** Write-ahead journal for crash recovery.

    The paper sells the RI-tree on inheriting the host RDBMS's
    "industrial strength" recovery services for free; this journal is
    that service in our bundled engine. It is a redo log with
    PostgreSQL's full-page-writes rule whose records say what a page
    operation changed, not every byte it moved. A {e checkpoint epoch}
    is the span between two {!truncate}s. The first record for a page in
    an epoch is a full {!Write} of its before- and after-image (when
    the before-image is all zero, as for every freshly allocated page,
    only the after-image's nonzero ranges are serialized); every later
    record for that page is a
    {!Delta} against the page's last logged image: an optional {!move}
    (the shift of a B+-tree insert or delete, six bytes however long
    the shifted tail), an optional zero span (the bytes a delete, a
    split or a merge freed, four bytes however many), then the byte
    ranges that changed. Every
    write-back of a dirty page logs one of the two,
    {!Buffer_pool.commit} force-logs all dirty pages followed by a
    commit marker (log-force, lazy data pages), and {!recover}
    reconstructs the last committed image of every page:

    - a page logged before the last commit gets its epoch image with
      every Delta up to that commit patched in (redo);
    - a page touched only after the last commit gets its first
      post-commit before-image (undo of stolen, uncommitted writes);
    - untouched pages keep their device content.

    Everything uncommitted at the crash vanishes atomically. Recovery
    never reads the device, so every image it installs — and every
    image [rikit scrub] repairs from — is a full page built from the
    log alone.

    The log is held serialized, each record ending in a CRC-32 of its
    bytes, in 1 MB chunks outside the OCaml heap (so a large log
    costs its own bytes and nothing in the garbage collector), split by
    a durable mark into a {e durable} (forced) prefix and a {e pending}
    unforced tail. Recovery parses the durable bytes and treats an
    invalid tail — torn final record, bit-flipped record — as a torn
    log: it replays the longest valid prefix and never raises. *)

type t

type move = { src : int; dst : int; len : int }
(** Blit [len] bytes of an image from [src] to [dst] (overlap allowed). *)

type record =
  | Write of { page : int; before : Bytes.t; after : Bytes.t }
      (** A full image: the page's first record in its epoch. *)
  | Delta of { page : int; move : move option; zero : (int * int) option;
                ranges : (int * Bytes.t) list }
      (** Apply [move] to the page's last logged image, zero the
          [(off, len)] span [zero], then patch the [(off, bytes)]
          ranges, in increasing offset order. *)
  | Commit

val create : unit -> t

val append : t -> record -> unit
(** Serialize the record (with its CRC) into the pending tail.
    @raise Invalid_argument on a [Delta] for a page with no image in
    the epoch ({!has_image}), or whose range count, offsets or lengths,
    or move fields, exceed 65 535. *)

val has_image : t -> int -> bool
(** Whether the page has a full image in the current epoch — i.e.
    whether its next record may be a {!Delta}. {!truncate} clears every
    page; {!drop_unforced} and {!tear} clear the pages whose image they
    cut away. *)

val diff : base:Bytes.t -> Bytes.t -> (int * Bytes.t) list
(** [diff ~base page] is the ranges of [page] that differ from [base]
    (copied), two runs merged when at most 8 equal bytes separate them,
    so that [patch base (diff ~base page)] turns [base] into [page]. [[]]
    if they are equal.
    @raise Invalid_argument if the lengths differ. *)

val delta :
  trailer:int ->
  base:Bytes.t ->
  Bytes.t ->
  move option * (int * int) option * (int * Bytes.t) list
(** [delta ~trailer ~base page] is what a {!Delta} from [base] to [page]
    logs. When [page] is [base] with its used prefix shifted — found in
    O(1) from the two images' used ends, one past their last nonzero
    byte below the [trailer] (the checksum's bytes at the end), and
    verified backwards from them — it is that move plus the {!diff} of
    the bytes before the moved run; otherwise the {!diff} below
    [page]'s used end. A used end that shrank adds the zero span
    between the two, and the trailer is diffed. Either way
    [patch ?move ?zero base ranges] turns [base] into [page].
    @raise Invalid_argument if the lengths differ. *)

val patch :
  ?move:move -> ?zero:int * int -> Bytes.t -> (int * Bytes.t) list -> unit
(** Apply the move, zero the span, then blit each range in. *)

val records : t -> record list
(** All parseable records, durable then pending, oldest first. *)

val record_count : t -> int
val byte_size : t -> int
(** Payload bytes logged: both images of a [Write], or, when its
    before-image is all zero, the nonzero ranges of its after-image;
    the ranges of a [Delta], plus 6 bytes for a move and 4 for a zero
    span. Ranges count
    their 4-byte headers. Diagnostic, excludes the record framing. *)

val force : t -> unit
(** Make everything appended so far durable — the simulated log force
    (fsync) whose count is what group commit amortizes. A force with
    nothing new appended is not counted. *)

val force_count : t -> int
(** Number of (counted) forces so far. *)

val commit_count : t -> int
(** Number of commit markers appended so far; with group commit this is
    one per batch, not one per commit request. *)

val drop_unforced : t -> unit
(** Discard the pending tail — what a crash does to log bytes that were
    never forced — and the epoch images it held. Called by
    {!Buffer_pool.crash}. *)

val durable_bytes : t -> int
(** Size of the forced log in serialized bytes (framing included). *)

val unforced_bytes : t -> int

(** {2 LSN addressing and streaming}

    The durable log is an append-only byte stream, so an LSN is simply a
    byte offset into the all-time durable stream — exactly what
    journal-shipping replication needs. A checkpoint ({!truncate})
    discards retained bytes but advances {!base_lsn}, keeping LSNs
    monotone for the life of the process. *)

val base_lsn : t -> int
(** LSN of the first durable byte still retained (grows at every
    {!truncate}). A subscriber whose resume LSN is below this must full
    resync. *)

val durable_lsn : t -> int
(** LSN one past the last durable byte — the total number of bytes ever
    forced. Grows exactly at {!force}; the commit marker for a batch is
    always the last record below the post-force [durable_lsn], so
    streaming to this offset ships whole committed batches. *)

val stream_from : ?max_bytes:int -> t -> int -> Bytes.t
(** [stream_from t lsn] reads the durable bytes from byte-offset LSN
    [lsn] to {!durable_lsn} (or at most [max_bytes] of them) — the
    replication feed. Never includes unforced pending bytes.
    @raise Invalid_argument if [lsn] is below {!base_lsn} (truncated
    away) or beyond {!durable_lsn}. *)

val parse : ?pos:int -> Bytes.t -> len:int -> (record * int) list
(** Parse the longest valid prefix of a serialized record stream (the
    format {!stream_from} ships) starting at record boundary [pos]
    (default [0]) and ending before [len]: each complete, CRC-valid
    record paired with the byte offset one past its serialized end.
    Stops at the first torn or corrupt record; never raises. The
    replica apply path resumes from the last offset it saw, so each
    received byte is parsed once. *)

val durable_torn : t -> bool
(** Whether the durable log ends in an invalid (torn or corrupt)
    record — i.e. whether recovery would truncate a suffix. *)

val truncate : t -> unit
(** Drop all records (after a checkpoint made the device current) and
    start a new epoch: every page's next record is a full [Write]. *)

val recover : t -> Block_device.t -> int
(** Restore every page of the device to its last committed image and
    truncate the journal; returns the number of pages restored. The
    device writes performed here are counted I/O. Pending records are
    forced first (an explicit recover replays everything appended); an
    invalid durable tail is truncated at the last valid record, never an
    exception. *)

val recovery_images : t -> (int, Bytes.t) Hashtbl.t
(** The page images {!recover} would install, without applying or
    truncating anything — the repair source for [rikit scrub]. Only
    records with a valid checksum contribute. *)

(** {2 Test hooks}

    Damage the durable log the way a lying disk would. *)

val tear : t -> keep:int -> unit
(** Truncate the durable log to its first [keep] serialized bytes,
    modelling a torn final log write; epoch images past [keep] are
    forgotten. *)

val corrupt_byte : t -> off:int -> unit
(** Flip a bit in the durable log at byte offset [off], modelling log
    bit rot.
    @raise Invalid_argument if [off] is outside the durable bytes. *)
