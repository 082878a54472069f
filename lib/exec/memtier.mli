(** The RAM-resident hot tier.

    A {!t} manages main-memory HINT replicas of interval collections
    under a byte budget: {!acquire} serves a residency handle for a
    collection (building it on first touch, LRU-demoting colder replicas
    to make room) that the planner can embed as a zero-I/O access path.
    Replicas are invalidated by table mutation ({!Relation.Table.version})
    and by reopen (physical handle identity). Planners ask for a handle
    at each execution, so no compiled plan outlives a residency
    change. *)

type t

type stats = {
  s_budget_bytes : int;
  s_resident_bytes : int;
  s_resident : int; (* resident collections *)
  s_builds : int;
  s_demotions : int;
  s_invalidations : int;
  s_probes : int;
}

val create : budget_mb:int -> t
(** A manager with the given budget; [0] disables the tier ({!acquire}
    always returns [None]). *)

val acquire :
  ?snap_high:int -> ?lsn:int -> t -> Ritree.Ri_tree.t -> Ir.mem_handle option
(** Residency handle for the collection, if it is (or can be made)
    resident within budget. Serving a handle touches the LRU clock;
    a replica staler than the table's mutation counter is dropped and
    rebuilt.

    [snap_high] is the requesting snapshot's commit LSN (default: serve
    unconditionally); a replica built from table state newer than the
    snapshot is withheld for that request without being dropped. [lsn]
    stamps a fresh build with the table's last committed mutation LSN. *)

val resident : t -> string -> bool

val invalidate : t -> string -> unit
(** Drop the named replica (counted as an invalidation), if resident. *)

val demote : t -> string -> bool
(** Drop the named replica (counted as a demotion); [false] if it was
    not resident. *)

val stats : t -> stats

