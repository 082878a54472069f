(* Abstract syntax of the SQL subset.

   The subset is exactly what the paper's figures use: CREATE TABLE /
   CREATE INDEX (Fig. 2), single-row INSERT (Fig. 5), DELETE, and
   SELECT with inner joins over base tables and transient collections,
   AND/OR/NOT, comparisons, BETWEEN, host variables, and UNION ALL
   (Figs. 8, 9, 11). All values are integers. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Host of string                     (* :name *)
  | Col of string option * string      (* alias.column or column *)
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr      (* e BETWEEN lo AND hi *)
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
  froms : (string * string option) list; (* table, alias *)
  where : expr option;
  group_by : (string option * string) list;
}

type order_key = { key : string option * string; descending : bool }

type query = {
  branches : select list; (* UNION ALL *)
  order_by : order_key list;
  limit : int option;
}

type stmt =
  | Create_table of string * string list
  | Create_index of string * string * string list (* index, table, columns *)
  | Insert of string * expr list
  | Update of string * (string * expr) list * expr option
  | Delete of string * expr option
  | Select of query
  | Explain of { analyze : bool; target : stmt }

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec expr_to_string = function
  | Int n -> string_of_int n
  | Host h -> ":" ^ h
  | Col (None, c) -> c
  | Col (Some a, c) -> a ^ "." ^ c
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (expr_to_string a) (cmp_to_string op)
        (expr_to_string b)
  | Between (e, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (expr_to_string e)
        (expr_to_string lo) (expr_to_string hi)
  | And (a, b) ->
      Printf.sprintf "(%s AND %s)" (expr_to_string a) (expr_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s OR %s)" (expr_to_string a) (expr_to_string b)
  | Not e -> Printf.sprintf "(NOT %s)" (expr_to_string e)
