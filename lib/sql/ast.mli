(** Abstract syntax of the SQL subset.

    The subset covers what the paper's figures use — CREATE TABLE /
    CREATE INDEX (Fig. 2), single-row INSERT (Fig. 5), SELECT with inner
    joins over base tables and transient collections, AND/OR/NOT,
    comparisons, BETWEEN, host variables, UNION ALL (Figs. 8, 9, 11) —
    plus UPDATE, DELETE, aggregates, ORDER BY and LIMIT. All values are
    integers. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Host of string                 (** [:name] host variable *)
  | Col of string option * string  (** [alias.column] or [column] *)
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr  (** [e BETWEEN lo AND hi] *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type aggregate = Count | Min | Max | Sum

type projection =
  | Star
  | Count_star
  | Proj_col of string option * string
  | Agg of aggregate * (string option * string)
      (** MIN/MAX/SUM/COUNT over a column *)

type select = {
  projections : projection list;
  froms : (string * string option) list;  (** table, optional alias *)
  where : expr option;
  group_by : (string option * string) list;
      (** grouping columns; non-empty only with aggregate projections *)
}

type order_key = { key : string option * string; descending : bool }

type query = {
  branches : select list;  (** UNION ALL *)
  order_by : order_key list;
  limit : int option;
}

type stmt =
  | Create_table of string * string list
  | Create_index of string * string * string list
      (** index, table, key columns *)
  | Insert of string * expr list
  | Update of string * (string * expr) list * expr option
  | Delete of string * expr option
  | Select of query
  | Explain of { analyze : bool; target : stmt }
      (** [EXPLAIN] shows the plan with predicted cardinalities and I/O;
          [EXPLAIN ANALYZE] also executes the statement and reports the
          actuals side by side. *)

val cmp_to_string : cmp -> string
val expr_to_string : expr -> string
