(** Pull-based query operators (volcano-style iterators).

    The operator kit the baseline access methods ([lib/baselines]) build
    their queries from, plus the streaming heap scan behind the
    executor's sequential scans. The RI-tree's Fig. 9/10 plan does not
    run here: [Exec.Planner] builds it as an IR plan and
    [Exec.Executor] runs it. *)

type row = int array

type t = unit -> row option
(** Pulling [None] means exhausted; a stream must not be pulled after
    that (operators here stay [None]). *)

val empty : t
val of_list : row list -> t
val of_array : row array -> t

val map : (row -> row) -> t -> t
val filter : (row -> bool) -> t -> t

val union_all : t list -> t
(** Concatenation — no duplicate elimination, as in the paper's UNION ALL
    whose branches are provably disjoint. *)

val nested_loop : outer:t -> inner:(row -> t) -> t
(** For each outer row, stream the inner iterator built from it. *)

val index_range : Table.Index.t -> lo:int array -> hi:int array -> t
(** Stream full index entries (key columns then rowid) in key order,
    inclusive bounds. Bound arrays must have the index key width (use
    {!Btree.lo_pad} / {!Btree.hi_pad} on [Table.Index.tree]). *)

val index_prefix : Table.Index.t -> prefix:int list -> t
(** All entries whose key starts with [prefix]. *)

val fetch : Table.t -> t -> t
(** Interpret the last column of each input row as a rowid and replace
    the row by the base-table row (skipping dangling rowids). *)

val heap_scan : Table.t -> t
(** Full scan; yields base rows with the rowid appended as an extra final
    column. *)

val project : int array -> t -> t
(** Keep the given column positions, in order. *)

val distinct_by : (row -> int) -> t -> t
(** Drop rows whose key was already seen (hash-based). *)

val to_list : t -> row list
val count : t -> int
val iter : (row -> unit) -> t -> unit
val fold : ('a -> row -> 'a) -> 'a -> t -> 'a
