(** Slotted-page heap files for fixed-width integer rows.

    Base-table storage of the relational substrate. Each page carries an
    occupancy bitmap and a chain pointer; rows are identified by a stable
    rowid derived from their page and slot. Deleted slots go on a free
    list and are refilled by subsequent insertions, so heavily updated
    tables do not grow without bound. *)

type t

type rowid = int
(** Stable identifier: [page_id * slots_per_page + slot]. Slots freed by
    deletions are reused by later insertions. *)

val create : Storage.Buffer_pool.t -> row_width:int -> t
(** A heap for rows of [row_width] integers.
    @raise Invalid_argument if a page cannot hold at least 4 rows. *)

val open_existing : Storage.Buffer_pool.t -> meta_page:int -> t
(** Re-open a heap persisted on the pool's device from its meta page.
    Reads the meta page only: the one scan of the page chain that
    rebuilds the in-memory free-slot list runs at the handle's first
    {!insert} or {!delete}, before that call changes a bitmap, so rowid
    reuse follows exactly the order an eager scan would give. A handle
    that only reads (a standby's, reopened per applied batch) never
    scans the chain.
    @raise Invalid_argument if the page is not a heap meta page. *)

val meta_page : t -> int

val row_width : t -> int
val count : t -> int
val page_count : t -> int

val insert : t -> int array -> rowid
(** Insert a row, filling a freed slot if one exists, otherwise appending
    to the last page.
    @raise Invalid_argument on wrong row width. *)

val update : t -> rowid -> int array -> bool
(** Overwrite the row in place; [false] if the slot is empty. *)

val fetch : t -> rowid -> int array option
(** [None] if the slot is empty or the rowid is out of range. *)

val delete : t -> rowid -> bool
(** Clear the slot; [false] if it was already empty. *)

(** {2 Scanning} *)

type cursor
(** External cursor over the heap in page order. Only the page under the
    cursor is materialized (and its pin is released before rows are
    handed out), so a scan never holds more than one page of rows
    whatever the table size. Rows inserted or deleted behind the cursor
    during the scan may or may not be seen. *)

val cursor : t -> cursor
val next : cursor -> (rowid * int array) option

val iter : t -> (rowid -> int array -> unit) -> unit
(** Full scan in page order (a {!cursor} drained internally). *)

val fold : t -> ('a -> rowid -> int array -> 'a) -> 'a -> 'a

val check_invariants : t -> unit
(** Verify the page chain, per-page occupancy counts and the global row
    count. @raise Failure on violation. *)
