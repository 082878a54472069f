(** The SQL front end: parsing, logical planning, and compilation onto
    the shared execution layer.

    The engine implements what the paper relies on the host DBMS for:
    rule-based index selection (equality prefix plus one range on the
    next key column), left-deep nested-loop joins, predicate pushdown,
    covering-index scans (a base-table fetch is skipped when every
    referenced column lives in the chosen index), transient collection
    tables for session state (the paper's [leftNodes]/[rightNodes]), host
    variables, and UNION ALL. With an RI-tree attached ({!set_ritree}),
    intersection predicates on its relation run the Fig. 9 plan.

    Statements compile to the typed physical-plan IR in {!Exec.Ir} and
    execute through {!Exec.Executor}; [EXPLAIN] renders through
    {!Exec.Render} with {!Exec.Estimate} annotations — the same
    renderer and estimator the typed wire ops use. A per-session plan
    cache keyed on normalized statement text (see {!Normalize}) lets
    repeated SELECTs skip the parser and planner entirely; it is
    invalidated by DDL and by collection schema changes.

    Every statement runs in an MVCC transaction ({!Relation.Txn}): DML
    buffers into its write set and reads see its snapshot. A standalone
    session begins one on its own manager per statement and commits it
    when the statement ends (autocommit); a session bound to a host's
    transaction ({!set_txn}) leaves the commit to the host. *)

type session

val session : Relation.Catalog.t -> session
(** A fresh session with an empty plan cache. {!exec} and {!query}
    cache SELECT plans; {!exec_script} never consults the cache, so it
    is the uncached path. *)

val catalog : session -> Relation.Catalog.t
(** The database this session is bound to. *)

val set_catalog : session -> Relation.Catalog.t -> unit
(** Rebind the session to a replacement handle of its database (a
    reopened or reloaded catalog). Invalidates cached plans, so
    prepared statements recompile at their next execution. *)

val set_txn : session -> Relation.Txn.txn -> unit
(** Run the following statements in the host's transaction: DML
    buffers into its write set and reads see its snapshot (with the
    transaction's own writes). The host commits or aborts it and binds
    the successor; the engine never commits a host's transaction. *)

val set_ritree :
  session ->
  Exec.Planner.forms ->
  stats:(unit -> Ritree.Cost_model.Stats.t) ->
  mem:(unit -> Exec.Ir.mem_handle option) ->
  unit
(** Make intersection predicates on the forms' tree's relation run
    through {!Exec.Planner.intersect}: a single-table branch with a
    conjunct bounding [lower] from above by a constant or host variable
    [A] and one bounding [upper] from below by [B] runs the typed op's
    cost-based choice of the tree's compiled forms for the candidate
    interval [[min(A,B), A]], with every conjunct kept as a residual
    filter; EXPLAIN renders the plan {!Exec.Planner.plan_intersection}
    builds for it. [stats] and [mem] are the typed op's planner inputs,
    read at each execution; EXPLAIN prices the relation with [stats]
    too, so it scans no heap. Reads see this
    session's transaction snapshot. Invalidates cached plans. *)

val set_collection :
  session -> string -> columns:string list -> int array list -> unit
(** Register (or replace) a transient collection table visible to
    queries in this session; lives outside the catalog and costs no
    I/O. Replacing a collection with the same column list keeps cached
    plans (rows are resolved at run time); changing the schema
    invalidates them. *)

val clear_collection : session -> string -> unit

type result =
  | Done of string  (** DDL/DML acknowledgement *)
  | Rows of { columns : string list; rows : int array list }

exception Error of string

val exec : ?binds:(string * int) list -> session -> string -> result
(** Parse and execute one statement. [binds] supplies host-variable
    values. @raise Error on unknown tables/columns, ambiguity, or
    missing binds (parse errors raise {!Parser.Error}). *)

val exec_script :
  ?binds:(string * int) list -> session -> string -> (result -> unit) ->
  unit
(** Parse a [;]-separated script, then execute its statements in order,
    handing each result to [f] before the next statement runs — so when
    a statement raises, every earlier result has already been seen.
    @raise Error (or a parse error) as {!exec} does. *)

val query :
  ?binds:(string * int) list -> session -> string -> int array list
(** [exec] specialised to SELECT; returns the rows.
    @raise Error if the statement is not a SELECT. *)

val explain : session -> string -> string
(** The plan text for a SELECT, without executing it. *)

val explain_text :
  ?binds:(string * int) list -> ?analyze:bool -> session -> string -> string
(** Full [EXPLAIN [ANALYZE]] output (plan, cost-model annotations,
    PREDICTED/ACTUAL footers) for any statement text — the wire-op
    EXPLAIN goes through this. *)

(** {1 Prepared statements} *)

type prepared

val prepare : session -> string -> prepared
(** Parse and (for SELECT) compile once. @raise Parser.Error on parse
    errors, {!Error} on planning errors. *)

val prepared_params : prepared -> string list
(** Host variables in first-appearance order; EXECUTE's positional
    parameters bind to them in this order. *)

val prepared_kind : prepared -> string
(** Statement kind ("SELECT", "INSERT", ...) — the server uses it to
    classify prepared executions for read-only mode. *)

val execute_prepared : session -> prepared -> int list -> result
(** @raise Error when the argument count does not match
    {!prepared_params}. A prepared SELECT recompiles automatically if
    DDL or a collection schema change invalidated plans since it was
    prepared. *)

(** {1 Plan-cache and planner observability} *)

val plan_cache_stats : session -> int * int
(** (hits, misses) of this session's plan cache. *)

val parse_count : unit -> int
(** Process-global count of statement parses — a plan-cache hit must
    not move it. *)

val plan_count : unit -> int
(** Process-global count of query compilations (logical planning +
    IR emission) — a plan-cache hit must not move it. *)
