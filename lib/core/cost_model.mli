(** Statistics for the optimizer's one cost model.

    Sec. 5 of the paper: "With a cost model registered at the optimizer,
    the server is able to generate efficient execution plans for queries
    on interval data types." The cost model itself is [Exec.Estimate]:
    it prices a physical plan in rows and block I/O, EXPLAIN prints its
    numbers, and [Exec.Planner] chooses between the two-branch plan and
    a sequential scan by the same numbers, priced for their access
    paths (the plans projecting ids). This module holds what it
    reads: one statistics object per table, built in one scan, with an
    equi-width histogram, a distinct count and the heap correlation of
    every column. The interval-identity estimate below (an interval
    misses a query iff it ends before it or starts after it) sizes the
    memory probe's result. *)

(** Equi-width histogram over one column, with its running min/max.
    Only {!Stats} builds one. *)
module Histogram : sig
  type t

  val total : t -> int
  (** Values counted. *)

  val count_below : t -> int -> float
  (** Estimated number of values strictly below the argument, assuming
      uniformity within buckets. Bound arithmetic is in floats, so
      columns holding [min_int]/[max_int] sentinels do not wrap. *)
end

module Stats : sig
  type col = {
    hist : Histogram.t;  (** 32 buckets: the estimator's *)
    fine : Histogram.t;  (** 64 buckets: the interval-identity estimate's *)
    distinct : int;
    corr : float;
        (** |Pearson correlation| between the value and the row's heap
            position: 1.0 means an index range on this column fetches
            consecutive heap pages, 0.0 a random scatter *)
  }

  type t

  val of_table : Relation.Table.t -> t
  (** One scan of the table's heap. *)

  val distinct_count : int array -> int
  (** The number of distinct values; sorts the array in place. *)

  val analyze : Ri_tree.t -> t
  (** [of_table] of the RI-tree's interval relation. *)

  val table : t -> string
  (** Name of the table analyzed. *)

  val row_count : t -> int

  val column : t -> string -> col option

  val estimate_result_size : t -> Interval.Ivl.t -> int
  (** Histogram estimate of the number of intersecting intervals. *)

  val estimate_selectivity : t -> Interval.Ivl.t -> float
end
