(** MAP21 (Nascimento & Dunham, 1999) — Sec. 2.3.

    Maps an interval to the single number [lower * 2^21 + upper] (the
    paper's decimal shift done in binary; 21 bits cover the domain
    [0, 2^20 - 1] with room for the upper bound) and stores it in a
    single-column B+-tree. Intersection queries exploit the maximum
    stored interval length: only intervals with
    [lower in [qlow - maxlen, qup]] can intersect, so one range scan
    plus a filter answers the query. "Intersection query processing
    still requires O(n/b) I/Os if the database contains many long
    intervals" — the scan window grows with [maxlen]. *)

type t

val create : ?name:string -> Relation.Catalog.t -> t
val insert : ?id:int -> t -> Interval.Ivl.t -> int
val delete : t -> id:int -> Interval.Ivl.t -> bool
val count : t -> int
val index_entries : t -> int
val max_length : t -> int
(** Largest length ever inserted (not decreased by deletions, as in the
    original static partitioning). *)

val intersecting_ids : t -> Interval.Ivl.t -> int list
(** One range scan of the index, filtered on the decoded bounds. *)

val encode : Interval.Ivl.t -> int
(** The MAP21 key of an interval. *)
