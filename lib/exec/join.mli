(** Intersection joins between two interval relations.

    The temporal-join workhorse: report every pair of intervals — one
    from each relation — that overlap. Two classic strategies are
    provided:

    - {!index_nested_ids} streams the smaller relation's base table and
      probes the other side's RI-tree with the planner's Fig. 9 plan per
      row — the plan a relational optimizer would produce when one side
      is indexed;
    - {!sweep_ids} is the index-free endpoint plane-sweep: both tables
      are scanned once, intervals processed in lower-bound order with
      lazily expired active sets, O(n log n + output) time.

    Both return exactly the same pair set (verified in tests and usable
    as each other's oracle). *)

val index_nested_ids :
  Ritree.Ri_tree.t -> Ritree.Ri_tree.t -> (int * int) list
(** [(left id, right id)] for every intersecting pair, each exactly once
    (pairs of duplicate rows appear once per row pair). Ordering is
    unspecified. *)

val sweep_ids : Ritree.Ri_tree.t -> Ritree.Ri_tree.t -> (int * int) list

val count_pairs : Ritree.Ri_tree.t -> Ritree.Ri_tree.t -> int
(** Size of the join result, via the sweep. *)
