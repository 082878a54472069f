(** Disk-layout B+-tree over a {!Storage.Buffer_pool}.

    This is the "built-in index" of our relational substrate: the RI-tree
    paper deliberately relies on nothing more than the composite B+-tree
    indexes every RDBMS provides ("almost all RDBMS qualify for this
    quite weak requirement since they typically have implemented the
    popular B+-tree"). All entries are fixed-width tuples of OCaml
    integers compared lexicographically; composite relational indexes
    append the rowid as the last component so that every entry is unique,
    mirroring the paper's remark that "the attribute id was included in
    the indexes".

    The implementation is a classic B+-tree: separator keys in internal
    nodes, all entries in leaves, leaves chained for range scans, splits
    on overflow, borrow/merge rebalancing on underflow, and a free list
    for recycled pages. Search and update cost [O(log_b n)] page
    accesses; a range scan costs the search plus [O(r/b)] leaf pages for
    [r] results — exactly the primitives the paper's complexity analysis
    assumes. *)

type t

type key = int array
(** A composite key of [key_width] integers, ordered lexicographically
    with [Int.compare] on each component. *)

val compare_keys : key -> key -> int
(** Lexicographic comparison; the arrays must have equal length. *)

val create : Storage.Buffer_pool.t -> key_width:int -> t
(** [create pool ~key_width] allocates an empty tree (meta page + one
    leaf).
    @raise Invalid_argument if [key_width] is not in [1 .. 15] or the
    pool's block size is too small for a branching factor of at least
    4. *)

val bulk_load :
  ?fill:float -> Storage.Buffer_pool.t -> key_width:int -> key Seq.t -> t
(** [bulk_load pool ~key_width seq] builds a tree from a sorted,
    duplicate-free sequence of keys, packing leaves to [fill] (default
    0.9) of capacity.
    @raise Invalid_argument if [fill] is not in [(0, 1]] or the
    sequence is not strictly increasing. *)

val open_existing : Storage.Buffer_pool.t -> meta_page:int -> t
(** Re-open a tree persisted on the pool's device from its meta page
    (e.g. after crash recovery).
    @raise Invalid_argument if the page is not a B+-tree meta page. *)

val meta_page : t -> int
(** The page to pass to {!open_existing} later. *)

val pool : t -> Storage.Buffer_pool.t
val key_width : t -> int

val count : t -> int
(** Number of entries. *)

val height : t -> int
(** Number of levels; an empty tree has height 1 (a single leaf). *)

val page_count : t -> int
(** Pages currently owned by the tree (excluding the meta page and free
    pages). *)

val leaf_capacity : t -> int
(** Entries a leaf page holds: the block's payload over the key width
    (rowid included). The cost model's fanout. *)

val insert : t -> key -> bool
(** [insert t k] adds [k]; returns [false] (and changes nothing) if [k]
    is already present.
    @raise Invalid_argument if [k] has the wrong width. *)

val delete : t -> key -> bool
(** [delete t k] removes [k]; returns [false] if absent. *)

val mem : t -> key -> bool

val min_key : t -> key option
val max_key : t -> key option

(** {2 Range scans}

    Bounds are inclusive full-width keys. Use {!lo_pad} / {!hi_pad} to
    build probes from key prefixes. *)

val lo_pad : t -> int list -> key
(** [lo_pad t prefix] pads [prefix] with [min_int] to full width: the
    smallest key with that prefix. *)

val hi_pad : t -> int list -> key
(** [hi_pad t prefix] pads with [max_int]: the largest key with that
    prefix. *)

type cursor

val cursor : t -> lo:key -> hi:key -> cursor
(** Cursor over entries [k] with [lo <= k <= hi], ascending. The
    descent bisects the separators on the pinned page bytes, one pin
    per level, and reads the leaf under the pin it routed with. On each
    leaf the cursor copies out only the run of keys from its position up
    to the first key above [hi], into a buffer it keeps, and
    {!next_into} decodes only the keys it yields. It moves to the next
    leaf only when every key it copied was at or below [hi]. The cursor
    reads [hi] until it is drained: the caller must not change it
    before. *)

val seek : cursor -> lo:key -> hi:key -> unit
(** [seek c ~lo ~hi] points [c] at the entries of [lo .. hi] instead,
    as a fresh [cursor t ~lo ~hi] would: one descent, pinning the same
    pages in the same order. The cursor keeps its run buffer, so a probe
    allocates nothing. *)

val next_into : cursor -> key -> bool
(** [next_into c key] writes the next entry into [key] and answers
    [true], or answers [false] at the end of the range. What it writes
    is valid until the next call: a caller that keeps a key copies it.
    @raise Invalid_argument if [key] is shorter than the key width. *)

val next : cursor -> key option
(** {!next_into} into a fresh key. *)

(** The wrappers below give each entry a fresh key, which the caller may
    keep. *)

val iter_range : t -> lo:key -> hi:key -> (key -> unit) -> unit
val fold_range : t -> lo:key -> hi:key -> ('a -> key -> 'a) -> 'a -> 'a
val range_list : t -> lo:key -> hi:key -> key list
val iter : t -> (key -> unit) -> unit
val to_list : t -> key list

val check_invariants : ?occupancy:bool -> t -> unit
(** Verify ordering, separator bounds, occupancy, uniform depth, leaf
    chaining and the entry count; used heavily by the test suite.
    [?occupancy:false] skips the minimum-occupancy check — bulk-loaded
    trees may legitimately end with under-full trailing nodes.
    @raise Failure describing the first violated invariant. *)
