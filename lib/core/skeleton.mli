(** A skeleton index over the RI-tree — the extension proposed in the
    paper's conclusion: "a promising extension is the application of the
    Skeleton Index technique to the RI-tree, because a partial
    materialization of the primary structure can be adapted to the
    expected data distribution."

    The skeleton materialises, per backbone node, how many intervals are
    registered there — a relational table [<name>_skeleton(node, count)]
    kept in sync on every update and cached in memory like the parameter
    dictionary. Intersection queries planned with {!node_filter} then
    skip the index probes of backbone nodes known to be empty. On data
    that occupies only part of the data space (the common case for
    growing temporal databases) this removes most single-node probes; on
    dense data it degrades to the plain plan.

    The test suite proves the filtered plan's answers identical to the
    plain one's. *)

type t

val create : ?name:string -> Relation.Catalog.t -> t
(** Creates the underlying RI-tree and its skeleton table. *)

val of_ri : Ri_tree.t -> Relation.Catalog.t -> t
(** Wrap an existing RI-tree, building the skeleton from its current
    contents (one scan). *)

val ri : t -> Ri_tree.t

val insert : ?id:int -> t -> Interval.Ivl.t -> int
val delete : t -> id:int -> Interval.Ivl.t -> bool
val count : t -> int

val node_filter : t -> int -> bool
(** [false] exactly for the backbone nodes that hold no interval: the
    [?node_filter] to hand [Exec.Planner.prepare] or
    [Exec.Planner.intersecting_ids] (or {!Ri_tree.node_lists}) for the
    skeleton-filtered plan. *)

val materialized_nodes : t -> int
(** Distinct non-empty backbone nodes currently materialised. *)

val probes_saved : t -> Interval.Ivl.t -> int * int
(** [(plain, filtered)] single-node probe counts for this query — the
    measured benefit of the skeleton. *)

val check_invariants : t -> unit
(** RI-tree invariants plus: the skeleton's per-node counts equal the
    actual registrations, in memory and in the persisted table. *)
