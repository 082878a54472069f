(** The Tile Index (Oracle8i Spatial linear quadtree) — Sec. 2.3 / 6.1.

    The 1-D hybrid fixed/variable tiling the paper reimplemented for its
    comparison. The domain is partitioned into fixed tiles of
    [2^(20 - level)] values (Oracle's fixed level counts quadtree depth,
    so a higher level means finer tiles). An interval is clipped to every
    fixed tile it overlaps and each clipped range is decomposed into
    maximal dyadic segments — the variable-sized tiles — with one
    relational row per variable tile, clustered by fixed tile. This
    decomposition is the source of the storage redundancy of Fig. 12
    (10.1 rows per interval on D4(n, 2k) at the calibrated level).

    Intersection queries equijoin the query's fixed tiles against the
    index, sequentially scan the variable tiles found there, and
    eliminate the duplicates that redundancy produces.

    The fixed level trades redundancy (fine tiles) against scan overhead
    (coarse tiles hold many foreign variable tiles); it "can only be set
    at index creation time", and the paper calibrates it per distribution
    on a 1,000-interval sample — {!recommended_level} reproduces that
    calibration ("in most cases, the optimum ... was found at the level
    7, 8 or 9"). *)

type t

val create : ?name:string -> level:int -> Relation.Catalog.t -> t
(** Fixed tiles of size [2^(20 - level)]; [level] must be in [0, 20]. *)

val bulk_load :
  ?name:string ->
  level:int ->
  Relation.Catalog.t ->
  (Interval.Ivl.t * int) array ->
  t
(** Build with a bottom-up bulk-loaded decomposition index (the
    clustering regime of the paper's measurements). *)

val level : t -> int
val tile_size : t -> int

val insert : ?id:int -> t -> Interval.Ivl.t -> int
val delete : t -> id:int -> Interval.Ivl.t -> bool

val count : t -> int
(** Number of stored intervals. *)

val index_entries : t -> int
(** Variable-tile rows — [redundancy * count] (the quantity of
    Fig. 12). *)

val redundancy : t -> float
(** Average variable tiles per stored interval. *)

val intersecting_ids : t -> Interval.Ivl.t -> int list
(** Duplicate-free ids of intersecting intervals. *)

val recommended_level :
  ?candidates:int list ->
  sample:Interval.Ivl.t array ->
  queries:Interval.Ivl.t array ->
  unit ->
  int
(** Pick the fixed level minimising the variable-tile rows scanned by the
    query sample, over [candidates] (default 4..12). *)
