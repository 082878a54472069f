(* The typed physical-plan IR shared by every query path.

   A plan is a list of UNION ALL branches; each branch is a right-deep
   chain of nested-loop steps (the Fig. 10 shape: transient collection
   iterators as outer loops, index range scans as inner loops), followed
   by projection, optional grouping, ordering and a limit. The SQL front
   end compiles its AST into this IR; the typed wire ops (intersection,
   Allen, temporal) are built directly by {!Planner}; one executor
   ({!Executor}), one renderer ({!Render}) and one estimator
   ({!Estimate}) serve all of them. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Scalar operands: literals, parameter slots (host variables and
   plan-cache slots share the :name namespace), and column references
   resolved against the rows bound by the enclosing nested loop. *)
type value =
  | Const of int
  | Param of string (* :name *)
  | Field of string option * string (* alias.column or column *)

type pred =
  | Cmp of cmp * value * value
  | Between of value * value * value (* v BETWEEN lo AND hi *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(* The operation a hot-tier probe runs; the raw bounds come from the
   step's [Mem_probe] access at execution time. *)
type mem_op =
  | Mem_intersect
  | Mem_relation of Interval.Allen.relation

(* A resident hot-tier collection, as handed out by {!Memtier}: the
   probe closure answers against the in-memory HINT replica. Handles
   are resolved per execution and never cached in a compiled plan. *)
type mem_handle = {
  mem_name : string; (* the indexed collection, for EXPLAIN *)
  mem_rows : int; (* resident cardinality *)
  mem_bytes : int; (* resident size *)
  mem_probe : mem_op -> lo:int -> up:int -> (int * int * int) list;
      (* (lower, upper, id) triples *)
}

(* What an intersection step yields per qualifying row: the triple
   the typed ops return, or every column of the relation (the hot-tier
   replica holds triples only, so it cannot serve the latter). *)
type ri_proj = Ids | Triples | Rows

type source =
  | Base of Relation.Table.t
  | Collection of string (* transient; resolved from the context at run time *)
  | Mem of mem_handle (* RAM-resident hot tier *)
  | Intersection of {
      table : Relation.Table.t; (* an RI-tree relation *)
      upper : value; (* A, from the conjunct bounding lower from above *)
      lower : value; (* B, from the conjunct bounding upper from below *)
      proj : ri_proj; (* Triples or Rows *)
    }
      (* The rows of [table] intersecting [min(A,B), A], answered by a
         sub-plan the context plans per execution (cost-based path, live
         node lists); the step's filters then apply the original
         conjuncts. *)

type bound = { v : value; inclusive : bool }

type access =
  | Seq_scan
  | Index_scan of {
      index : Relation.Table.Index.t;
      eq : value list; (* probes for the leading key columns *)
      lo : bound option; (* range on the next key column *)
      hi : bound option;
      (* Start/stop-key refinement on the column after the range column
         (the paper's Sec. 4.3 lemma: "i.upper >= :lower" tightens the
         start key of the BETWEEN scan). The refinement only skips
         entries: a SQL conjunct stays in the residual filter, and the
         typed two-branch plan drops the one its key bounds imply. *)
      refine_lo : bound option;
      refine_hi : bound option;
      covering : bool; (* no base-table fetch needed *)
      (* Open the probe when the loop reaches it but defer its scan until
         the branch's loops have run: every probe's descent then comes
         before any leaf scan, as in a union of eagerly opened cursors.
         The partition joins of the Sec. 6 competitors read pages in
         that order. *)
      batched : bool;
    }
  | Mem_probe of {
      op : mem_op;
      lo : value; (* raw query bounds, resolved at execution *)
      hi : value;
      est_rows : int; (* cost-model estimate, for EXPLAIN *)
    }

type step = {
  alias : string;
  source : source;
  columns : string array; (* columns the binding exposes *)
  access : access;
  (* Predicates over the index entry itself, checked before the rowid
     fetch: fields resolve against the index columns. The topological
     plans use these to reproduce the key-level filters of Sec. 4.5
     without fetching non-matching rows. Always empty for SQL plans. *)
  key_filters : pred list;
  filters : pred list; (* residual conjuncts evaluated on the bound row *)
  mutable seen : int; (* rows emitted (post-filter) in the last run *)
}

type agg = Count | Min | Max | Sum

type proj =
  | Star
  | Count_star
  | Col of string option * string
  | Agg of agg * (string option * string)

type branch = {
  steps : step list;
  projections : proj list;
  group_by : (string option * string) list;
}

type order_key = { key : string option * string; descending : bool }

type plan = {
  branches : branch list; (* UNION ALL *)
  order_by : order_key list;
  limit : int option;
}

(* A transient collection: [rows] rows of [Array.length cols] cells,
   row-major at the front of [cells]. The Fig. 9 node lists fill two of
   these in place per query (see {!Planner}). *)
type coll = { cols : string array; mutable cells : int array; mutable rows : int }

let coll cols rows =
  let w = Array.length cols in
  let cells = Array.make (w * List.length rows) 0 in
  List.iteri (fun i r -> Array.blit r 0 cells (i * w) w) rows;
  { cols; cells; rows = List.length rows }

let coll_row c i =
  let w = Array.length c.cols in
  Array.sub c.cells (i * w) w

(* The run-time context a plan executes against: parameter bindings,
   the transient collections (the SQL session's, or the planner's own),
   the planner for [Intersection] sources, and the MVCC snapshot
   overlay. [intersection] builds the plan of the candidate interval
   over the named RI-tree relation, for EXPLAIN and the estimator;
   [intersection_rows] answers its rows. Both answer [None] when the
   session holds no such tree. [vis] returns the per-table view of the
   executing session's snapshot: base-table scans filter physically
   present rows through it and merge the rows it serves that are not
   physically present (recently deleted rows old snapshots still see,
   plus the session's own pending inserts). [None] — the common case —
   means physical state is exactly the snapshot and scans pay
   nothing. *)
type ctx = {
  binds : (string * int) list;
  collection : string -> coll option;
  intersection : string -> proj:ri_proj -> Interval.Ivl.t -> compiled option;
  intersection_rows :
    string -> proj:ri_proj -> Interval.Ivl.t -> int array list option;
  vis : string -> Relation.Txn.view option;
}

(* A plan bound to the private context it executes against. *)
and compiled = { plan : plan; ctx : ctx }

let no_vis : string -> Relation.Txn.view option = fun _ -> None
let no_intersection _ ~proj:_ _ = None

let empty_ctx =
  { binds = [];
    collection = (fun _ -> None);
    intersection = no_intersection;
    intersection_rows = no_intersection;
    vis = no_vis }

(* ---- printing (must match Sqlfront.Ast.expr_to_string verbatim: the
   renderer's FILTER and key lines are part of the EXPLAIN contract) ---- *)

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let value_to_string = function
  | Const n -> string_of_int n
  | Param h -> ":" ^ h
  | Field (None, c) -> c
  | Field (Some a, c) -> a ^ "." ^ c

let rec pred_to_string = function
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (value_to_string a) (cmp_to_string op)
        (value_to_string b)
  | Between (e, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (value_to_string e)
        (value_to_string lo) (value_to_string hi)
  | And (a, b) ->
      Printf.sprintf "(%s AND %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s OR %s)" (pred_to_string a) (pred_to_string b)
  | Not e -> Printf.sprintf "(NOT %s)" (pred_to_string e)

let mem_op_to_string = function
  | Mem_intersect -> "intersect"
  | Mem_relation r ->
      "allen " ^ String.lowercase_ascii (Interval.Allen.to_string r)

let agg_to_string = function
  | Count -> "COUNT"
  | Min -> "MIN"
  | Max -> "MAX"
  | Sum -> "SUM"

let mk_step ?(key_filters = []) ?(filters = []) ~alias ~source ~columns access =
  { alias; source; columns; access; key_filters; filters; seen = 0 }
