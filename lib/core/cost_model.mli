(** Statistics and a cost model for RI-tree queries.

    Sec. 5 of the paper: "With a cost model registered at the optimizer,
    the server is able to generate efficient execution plans for queries
    on interval data types." This module provides that piece for our
    engine: equi-width histograms over the stored lower and upper bounds
    estimate an intersection query's result size (an interval misses the
    query iff it ends before it or starts after it), and a block-level
    cost formula compares the RI-tree plan against a full table scan. At
    very high selectivities the scan is cheaper — the optimizer's choice,
    not the index's failure — and [Exec.Planner] switches plans
    accordingly. *)

(** Equi-width histogram over one column, with its running min/max. *)
module Histogram : sig
  type t = {
    lo : int;
    hi : int;
    counts : int array;  (** one per bucket *)
    total : int;
  }

  val build : buckets:int -> int list -> t

  val count_below : t -> int -> float
  (** Estimated number of values strictly below the argument, assuming
      uniformity within buckets. Bound arithmetic is in floats, so
      columns holding [min_int]/[max_int] sentinels do not wrap. *)
end

module Stats : sig
  type t

  val analyze : ?buckets:int -> Ri_tree.t -> t
  (** One scan of the interval table (default 64 buckets per
      histogram). *)

  val row_count : t -> int

  val estimate_result_size : t -> Interval.Ivl.t -> int
  (** Histogram estimate of the number of intersecting intervals. *)

  val estimate_selectivity : t -> Interval.Ivl.t -> float
end

type plan_choice = Index_plan | Full_scan | Mem_plan

type mem_info = { mem_levels : int; mem_entries : int }
(** Shape of a RAM-resident HINT replica, for tier choice. *)

val index_cost : Ri_tree.t -> Stats.t -> Interval.Ivl.t -> float
(** Estimated physical blocks for the Fig. 9 plan: one [O(log_b n)]
    descent per index (the upper levels are shared across the
    statement's probes and stay buffer-resident), one leaf visit per
    transient-node probe, plus the leaves holding the estimated
    results. *)

val scan_cost : Ri_tree.t -> float
(** Blocks of a full heap scan. *)

val mem_cost : mem_info -> Stats.t -> Interval.Ivl.t -> float
(** Block-equivalent cost of probing the RAM-resident replica: zero
    physical I/O, CPU priced at a fixed in-memory-operations-per-block
    exchange rate so tiers compare in one unit. *)

val choose :
  ?mem:mem_info -> Ri_tree.t -> Stats.t -> Interval.Ivl.t -> plan_choice
(** Cheapest of the disk plans and, when [mem] says the collection is
    resident, the hot-tier probe. *)

val plan_to_string : plan_choice -> string
