(** Interval-Spatial Transformation (Goh et al., 1996) — Sec. 2.3.

    The IST encodes intervals by space-filling orderings of their bound
    points; "aside from quantization aspects, the D-ordering is
    equivalent to a composite index on the interval bounds (upper,
    lower), and the V-ordering corresponds to an index on (lower,
    upper)". The paper evaluates the D-order variant: a single composite
    B+-tree and the one-line range query of Fig. 11

    {v
    SELECT id FROM Intervals i
    WHERE i.upper >= :lower AND i.lower <= :upper;
    v}

    No redundancy is produced ([n] index entries), but the scan starts at
    the first entry with [upper >= :lower] and must run to the end of the
    index, so its I/O degenerates linearly with the distance of the query
    from the upper bound of the data space (Fig. 17). *)

type order =
  | D_order  (** composite index on (upper, lower) — the paper's IST *)
  | V_order  (** composite index on (lower, upper) *)

type t

val create : ?name:string -> ?order:order -> Relation.Catalog.t -> t
(** Default order is {!D_order}. *)

val bulk_load :
  ?name:string ->
  ?order:order ->
  Relation.Catalog.t ->
  (Interval.Ivl.t * int) array ->
  t
(** Build with a bottom-up bulk-loaded index — the tightly clustered
    layout whose "good clustering properties" the paper credits for the
    IST's response times ("will deteriorate in a dynamic
    environment"). *)

val order : t -> order
val insert : ?id:int -> t -> Interval.Ivl.t -> int
val delete : t -> id:int -> Interval.Ivl.t -> bool
val count : t -> int
val index_entries : t -> int

val intersecting_ids : t -> Interval.Ivl.t -> int list
