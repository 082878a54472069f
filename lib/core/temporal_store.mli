(** Valid-time intervals with [now] and [infinity] upper bounds over an
    RI-tree (Sec. 4.6).

    Intervals ending at [infinity] are registered under the reserved fork
    value {!Ri_tree.fork_infinity}; intervals ending at [now] under
    {!Ri_tree.fork_now}. Neither requires any change to the backbone or
    to the SQL plan: at query time the reserved values are simply
    appended to the transient [rightNodes] table — [fork_now] only when
    the query begins in the past ([query lower <= now]) — so the plan's
    lower-bound scans test exactly the right predicate.
    [Exec.Planner.temporal_matches] runs that query. *)

type t

val create :
  ?name:string -> ?layout:Ri_tree.layout -> Relation.Catalog.t -> t
(** An empty store (default name ["valid_time"]). [layout] (default
    {!Ri_tree.Paper}) is the seam the layout-parity test uses to run
    the temporal plan over {!Ri_tree.Covering} indexes. *)

val ri : t -> Ri_tree.t
(** The underlying RI-tree (finite intervals live there normally). *)

val insert : ?id:int -> t -> Interval.Temporal.t -> int

val count : t -> int
