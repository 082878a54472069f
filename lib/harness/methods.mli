(** Uniform access-method handles for the comparative experiments.

    Each handle owns its own database instance (device + buffer pool), so
    methods never share a cache and the per-method I/O counts are clean.
    The method set matches Sec. 6.1: the dynamic RI-tree, Tile Index and
    IST, plus MAP21 and the static Window-List. *)

type t = {
  label : string;
  catalog : Relation.Catalog.t;
  insert : Interval.Ivl.t -> int -> unit; (* interval, id *)
  query_ids : Interval.Ivl.t -> int list;
  index_entries : unit -> int;
}

val ri_tree : ?block_size:int -> ?cache_blocks:int -> unit -> t
val ist : ?block_size:int -> ?cache_blocks:int -> ?order:Baselines.Ist.order -> unit -> t
val tile : ?block_size:int -> ?cache_blocks:int -> level:int -> unit -> t
val map21 : ?block_size:int -> ?cache_blocks:int -> unit -> t

val window_list :
  ?block_size:int -> ?cache_blocks:int -> Interval.Ivl.t array -> t
(** Static: built immediately from the snapshot; [insert] raises. *)

(** {2 Bulk-loaded variants}

    Same methods, built bottom-up from a snapshot: the tightly clustered
    page layout the paper credits for the competitors' response times.
    Used by the clustering ablation. *)

val ri_tree_bulk :
  ?block_size:int -> ?cache_blocks:int -> Interval.Ivl.t array -> t

val ist_bulk :
  ?block_size:int -> ?cache_blocks:int -> ?order:Baselines.Ist.order ->
  Interval.Ivl.t array -> t

val tile_bulk :
  ?block_size:int -> ?cache_blocks:int -> level:int ->
  Interval.Ivl.t array -> t

val count : t -> Interval.Ivl.t -> int
(** The number of intersecting ids: the length of [query_ids]. *)

val load : t -> Interval.Ivl.t array -> unit
(** Insert interval [i] of the array with id [i]. *)

val calibrated_tile_level :
  Interval.Ivl.t array -> queries:Interval.Ivl.t array -> int
(** The paper's per-distribution tile-level calibration on a sample of
    1,000 intervals. *)
