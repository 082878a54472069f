(** The Relational Interval Tree (Kriegel, Pötke, Seidl — VLDB 2000).

    An RI-tree instance is nothing but a relational table

    {v
    CREATE TABLE <name> (node int, lower int, upper int, id int);
    CREATE INDEX <name>_lower ON <name> (node, lower, id);
    CREATE INDEX <name>_upper ON <name> (node, upper, id);
    v}

    (the paper's Fig. 2 layout, {!Paper}; the {!Covering} layout's
    indexes also carry the other bound, [(node, lower, upper, id)] and
    [(node, upper, lower, id)], so a query returning [(lower, upper, id)]
    reads the indexes alone, never the table) plus an [O(1)] parameter
    dictionary ([offset], [leftRoot], [rightRoot], [minstep]) persisted
    in [<name>_params]. Insertion
    computes the fork node of the interval on the virtual backbone
    ({!Backbone}) and executes a single relational insert; an
    intersection query descends the virtual backbone (no I/O) to fill
    the transient node tables [leftNodes(min, max)] and
    [rightNodes(node)] ({!node_lists}), and [Exec.Planner] runs the
    two-branch UNION ALL plan of Fig. 9 / Fig. 10 over them as index
    range scans. Storing [n] intervals takes [O(n/b)] blocks; updates
    cost [O(log_b n)] I/Os; an intersection query reporting [r] results
    costs [O(h · log_b n + r/b)] I/Os. *)

type t

type layout =
  | Paper  (** [(node, lower, id)] and [(node, upper, id)] — Fig. 2 *)
  | Covering
      (** [(node, lower, upper, id)] and [(node, upper, lower, id)] *)

val create : ?name:string -> ?layout:layout -> Relation.Catalog.t -> t
(** Create the interval table, its two composite indexes (default layout
    {!Paper}) and the parameter dictionary in the given database
    (default name ["intervals"]). *)

val open_existing : ?name:string -> Relation.Catalog.t -> t
(** Re-attach to an RI-tree previously created in this catalog (for
    durable catalogs: typically after {!Relation.Catalog.simulate_crash}
    or {!Relation.Catalog.reopen}): finds the interval table and its
    indexes by name and reloads the parameter dictionary from the
    persisted [<name>_params] row. Either layout is accepted; the
    index columns the catalog recorded decide which one the tree has.
    @raise Not_found if the tables are missing.
    @raise Failure if the schema does not look like an RI-tree. *)

val bulk_load :
  ?name:string ->
  ?layout:layout ->
  Relation.Catalog.t ->
  (Interval.Ivl.t * int) array ->
  t
(** Build an RI-tree (default layout {!Paper}) from a snapshot of
    [(interval, id)] pairs: heap rows
    are written sequentially and both indexes are bulk-loaded bottom-up,
    giving the tightly clustered pages the paper attributes to
    bulk-loaded competitors. The resulting tree is indistinguishable from
    one built by repeated {!insert} of the same data (same fork nodes,
    same parameters, same query answers) and remains fully dynamic. *)

val name : t -> string
val table : t -> Relation.Table.t
val lower_index : t -> Relation.Table.Index.t
val upper_index : t -> Relation.Table.Index.t

val insert : ?id:int -> t -> Interval.Ivl.t -> int
(** Register an interval; returns its id (fresh ids are assigned from a
    counter when not supplied). Duplicate (interval, id) pairs may be
    stored; they are distinct rows.
    @raise Invalid_argument if a bound exceeds {!max_bound_magnitude}
    (node values must stay clear of the temporal sentinels). *)

val prepare_insert : ?id:int -> t -> Interval.Ivl.t -> int * int array
(** {!insert} minus the physical row write: assigns the id, updates and
    persists the backbone parameters, and returns [(id, row)] for the
    caller to insert (MVCC sessions buffer it into their write set).
    The parameter updates are monotone metadata — if the buffered row is
    never applied the tree merely skips an id and probes a superset of
    nodes; answers are unaffected. *)

val delete : t -> id:int -> Interval.Ivl.t -> bool
(** Remove one row matching the interval and id exactly; [false] if no
    such row exists. *)

val find_victim :
  ?ok:(int -> int array -> bool) ->
  t -> id:int -> Interval.Ivl.t -> (int * int array) option
(** The physical [(rowid, row)] {!delete} would remove, without removing
    it. [ok rowid row] filters candidates (MVCC snapshot visibility);
    rejected rows are skipped, not returned. *)

val count : t -> int

val index_entries : t -> int
(** Total entries across both indexes — [2 * count] (Fig. 12 reports this
    measure of storage redundancy). *)

val relation_pages : t -> int
(** Pages of the base table plus both indexes. *)

(** {2 The Fig. 9 query's node tables}

    The tree runs no queries of its own: [Exec.Planner] plans and runs
    the Fig. 9 statement over the tables and node lists below. *)

type node_lists = {
  left_nodes : (int * int) list;  (** (min, max); scanned on upperIndex *)
  right_nodes : int list;         (** scanned on lowerIndex *)
}

val node_lists :
  ?node_filter:(int -> bool) -> t -> Interval.Ivl.t -> node_lists
(** The transient leftNodes/rightNodes tables the Sec. 4.2 procedure
    populates for this query (already shifted by the tree's offset; the
    BETWEEN pair rides first in [left_nodes]). [node_filter] drops single
    backbone nodes for which it returns [false]; it must only reject
    nodes that hold no intervals (used by {!Skeleton}). A BETWEEN pair
    spanning more than one node is never filtered. *)

type node_buffers = {
  mutable left : int array;  (** [n_left] (min, max) pairs, row-major *)
  mutable n_left : int;
  mutable right : int array;  (** [n_right] nodes *)
  mutable n_right : int;
}
(** The same two tables filled in place, for a caller that runs the
    Fig. 9 statement many times: the arrays grow to the largest query
    seen and are reused. *)

val node_buffers : unit -> node_buffers

val fill_node_lists :
  ?node_filter:(int -> bool) -> t -> Interval.Ivl.t -> node_buffers -> unit
(** {!node_lists} into the buffers, in the same order: the lists are
    exactly the buffers' rows. *)

val probe_count : ?node_filter:(int -> bool) -> t -> Interval.Ivl.t -> int
(** Index probes the intersection plan performs for this query: the
    entries of both node lists, BETWEEN pair included — the quantity
    the skeleton extension reduces. *)

(** {2 Introspection} *)

type params = {
  offset : int option;  (** data-space shift, fixed at first insertion *)
  left_root : int;
  right_root : int;
  min_level : int;      (** lowest backbone level holding an interval *)
}

val params : t -> params

val height : t -> int
(** Current height of the virtual backbone (Sec. 3.5); independent of the
    number of stored intervals. *)

val fork_node : t -> Interval.Ivl.t -> int
(** The (shifted) backbone node at which this interval is or would be
    registered — exposed for tests and examples. *)

val check_invariants : t -> unit
(** Table/index consistency plus RI-tree-specific invariants: every row's
    node is the fork node of its interval under the current parameters,
    and no row sits below [min_level]. *)

(** {2 Hooks for the temporal extension (Sec. 4.6)} *)

val max_bound_magnitude : int
(** Bounds must satisfy
    [-max_bound_magnitude <= bound <= max_bound_magnitude]; keeps shifted
    node values clear of the sentinels below. In particular [min_int] is
    rejected (note [abs min_int = min_int], so the check is written
    without [abs]). *)

val fork_infinity : int
(** Reserved node value for intervals ending at [infinity]. *)

val fork_now : int
(** Reserved node value for intervals ending at [now]. *)

val insert_sentinel_row :
  t -> node:int -> lower:int -> upper_code:int -> id:int option -> int
(** Insert a row at a reserved fork value, bypassing the backbone; used
    by {!Temporal_store}. Returns the id. *)
