(* The SQL front end, reduced to compilation: AST -> logical planning
   (join order, access-path selection) -> the shared physical-plan IR in
   `Exec.Ir`. Execution, plan rendering, cost estimation and EXPLAIN
   assembly all live in `lib/exec`; this module owns parsing, statement
   dispatch, DDL/DML side effects, and the plan cache that lets repeated
   statements skip the parser and planner entirely. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module Ir = Exec.Ir
module Executor = Exec.Executor

(* Convert executor/planner errors into the front end's exception so
   callers see one error type regardless of which layer failed. *)
let guard f = try f () with Ir.Error m -> raise (Error m)

(* Process-global work counters: a plan-cache hit must not touch the
   parser or the planner, and the tests assert it through these. *)
let parse_calls = ref 0
let plan_calls = ref 0
let parse_count () = !parse_calls
let plan_count () = !plan_calls

let parse src =
  incr parse_calls;
  Parser.parse src

type session = {
  mutable catalog : Relation.Catalog.t;
  collections : (string, Ir.coll) Hashtbl.t;
  cache : cached Exec.Plan_cache.t;
  (* Bumped whenever cached plans are invalidated (DDL, collection
     schema change); prepared statements recompile when stale. *)
  mutable generation : int;
  (* The MVCC transaction every statement runs in; who began it decides
     who commits it. *)
  mutable txn : binding;
  (* The RI-tree relation intersection predicates plan through, when the
     hosting server attaches one; [None] plans every branch by the
     generic rules (standalone tools, tests). *)
  mutable ritree : ritree option;
}

(* A cached SELECT: its plan, compiled at its first execution and run
   from then on against each execution's context. *)
and cached = Executor.compiled Lazy.t

(* [Own m]: a standalone session begins a transaction on its own
   manager for each statement and commits it when the statement ends
   (autocommit). [Host t]: the hosting server's transaction, which the
   host commits. *)
and binding = Own of Relation.Txn.mgr | Host of Relation.Txn.txn

(* The tree's compiled Fig. 9 forms plus the inputs the typed
   intersection op plans with; both are read per execution, so cached
   plans see refreshed statistics and the current hot-tier residency. *)
and ritree = {
  forms : Exec.Planner.forms;
  stats : unit -> Ritree.Cost_model.Stats.t;
  mem : unit -> Ir.mem_handle option;
}

let session catalog =
  { catalog;
    collections = Hashtbl.create 8;
    cache = Exec.Plan_cache.create ();
    generation = 0;
    txn = Own (Relation.Txn.create ());
    ritree = None }

let catalog s = s.catalog

let set_txn s t = s.txn <- Host t

(* Run [f] in the statement's transaction, committing it here when this
   session began it. *)
let in_txn s f =
  match s.txn with
  | Host t -> f t
  | Own mgr -> (
      let t = Relation.Txn.begin_txn mgr in
      match f t with
      | r ->
          ignore (Relation.Txn.commit t);
          r
      | exception e ->
          Relation.Txn.abort t;
          raise e)

let invalidate_plans s =
  Exec.Plan_cache.invalidate s.cache;
  s.generation <- s.generation + 1

let set_catalog s catalog =
  s.catalog <- catalog;
  invalidate_plans s

let set_ritree s forms ~stats ~mem =
  s.ritree <- Some { forms; stats; mem };
  invalidate_plans s

let set_collection s name ~columns rows =
  let cols = Array.of_list columns in
  (match Hashtbl.find_opt s.collections name with
  | Some old when old.Ir.cols = cols ->
      (* same schema, fresh rows: cached plans resolve the rows at run
         time, so the usual per-query node-list refresh stays a hit *)
      ()
  | _ -> invalidate_plans s);
  Hashtbl.replace s.collections name (Ir.coll cols rows)

let clear_collection s name = Hashtbl.remove s.collections name

type result =
  | Done of string
  | Rows of { columns : string list; rows : int array list }

let plan_cache_stats s =
  (Exec.Plan_cache.hits s.cache, Exec.Plan_cache.misses s.cache)

(* ---------------- AST -> IR expression compilation ---------------- *)

let compile_cmp = function
  | Ast.Eq -> Ir.Eq
  | Ast.Ne -> Ir.Ne
  | Ast.Lt -> Ir.Lt
  | Ast.Le -> Ir.Le
  | Ast.Gt -> Ir.Gt
  | Ast.Ge -> Ir.Ge

let rec compile_value = function
  | Ast.Int n -> Ir.Const n
  | Ast.Host h -> Ir.Param h
  | Ast.Col (a, c) -> Ir.Field (a, c)
  | Ast.Cmp _ | Ast.Between _ | Ast.And _ | Ast.Or _ | Ast.Not _ ->
      fail "boolean expression used as a value"

and compile_pred = function
  | Ast.Cmp (op, a, b) ->
      Ir.Cmp (compile_cmp op, compile_value a, compile_value b)
  | Ast.Between (e, lo, hi) ->
      Ir.Between (compile_value e, compile_value lo, compile_value hi)
  | Ast.And (a, b) -> Ir.And (compile_pred a, compile_pred b)
  | Ast.Or (a, b) -> Ir.Or (compile_pred a, compile_pred b)
  | Ast.Not e -> Ir.Not (compile_pred e)
  | Ast.Int _ | Ast.Host _ | Ast.Col _ ->
      fail "value expression used as a predicate"

let compile_agg = function
  | Ast.Count -> Ir.Count
  | Ast.Min -> Ir.Min
  | Ast.Max -> Ir.Max
  | Ast.Sum -> Ir.Sum

let compile_proj = function
  | Ast.Star -> Ir.Star
  | Ast.Count_star -> Ir.Count_star
  | Ast.Proj_col (a, c) -> Ir.Col (a, c)
  | Ast.Agg (g, target) -> Ir.Agg (compile_agg g, target)

(* Aliases referenced by an expression. *)
let rec expr_aliases acc = function
  | Ast.Col (Some a, _) -> if List.mem a acc then acc else a :: acc
  | Ast.Col (None, _) | Ast.Int _ | Ast.Host _ -> acc
  | Ast.Cmp (_, a, b) -> expr_aliases (expr_aliases acc a) b
  | Ast.Between (e, lo, hi) ->
      expr_aliases (expr_aliases (expr_aliases acc e) lo) hi
  | Ast.And (a, b) | Ast.Or (a, b) -> expr_aliases (expr_aliases acc a) b
  | Ast.Not e -> expr_aliases acc e

let rec bare_columns acc = function
  | Ast.Col (None, c) -> c :: acc
  | Ast.Col (Some _, _) | Ast.Int _ | Ast.Host _ -> acc
  | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
      bare_columns (bare_columns acc a) b
  | Ast.Between (e, lo, hi) ->
      bare_columns (bare_columns (bare_columns acc e) lo) hi
  | Ast.Not e -> bare_columns acc e

let rec split_and = function
  | Ast.And (a, b) -> split_and a @ split_and b
  | e -> [ e ]

(* ---------------- logical planning ---------------- *)

(* Columns of [alias] referenced anywhere in the branch. [None]-alias
   column references are conservatively attributed to every alias that
   has such a column. *)
let referenced_columns select alias columns =
  let refs = ref [] in
  let note c = if not (List.mem c !refs) then refs := c :: !refs in
  let rec walk = function
    | Ast.Col (Some a, c) -> if a = alias then note c
    | Ast.Col (None, c) -> if Array.exists (fun x -> x = c) columns then note c
    | Ast.Int _ | Ast.Host _ -> ()
    | Ast.Cmp (_, a, b) ->
        walk a;
        walk b
    | Ast.Between (e, lo, hi) ->
        walk e;
        walk lo;
        walk hi
    | Ast.And (a, b) | Ast.Or (a, b) ->
        walk a;
        walk b
    | Ast.Not e -> walk e
  in
  Option.iter walk select.Ast.where;
  List.iter (fun (a, c) -> walk (Ast.Col (a, c))) select.Ast.group_by;
  List.iter
    (function
      | Ast.Star -> Array.iter note columns
      | Ast.Count_star -> ()
      | Ast.Proj_col (Some a, c) | Ast.Agg (_, (Some a, c)) ->
          if a = alias then note c
      | Ast.Proj_col (None, c) | Ast.Agg (_, (None, c)) ->
          if Array.exists (fun x -> x = c) columns then note c)
    select.Ast.projections;
  !refs

(* Does the expression only depend on host variables, constants, and the
   already-bound aliases? Unqualified columns resolve against the bound
   aliases' schemas. *)
let outer_only bound_aliases e =
  let rec ok = function
    | Ast.Int _ | Ast.Host _ -> true
    | Ast.Col (Some a, _) -> List.exists (fun (n, _) -> n = a) bound_aliases
    | Ast.Col (None, c) ->
        List.exists
          (fun (_, cols) -> Array.exists (fun x -> x = c) cols)
          bound_aliases
    | Ast.Cmp (_, a, b) -> ok a && ok b
    | Ast.Between (x, lo, hi) -> ok x && ok lo && ok hi
    | Ast.And (a, b) | Ast.Or (a, b) -> ok a && ok b
    | Ast.Not x -> ok x
  in
  ok e

(* Is [e] a reference to column [c] of [alias] (qualified or not)? *)
let is_col_of alias columns c = function
  | Ast.Col (Some a, x) -> a = alias && x = c
  | Ast.Col (None, x) -> x = c && Array.exists (fun y -> y = c) columns
  | _ -> false

type candidate = {
  c_score : int;
  c_access : Ir.access;
  c_marks : Ast.expr list; (* conjuncts consumed by the access path *)
}

(* Collect the lo/hi bounds available on column [c] from [conjuncts],
   compiled to IR bounds; each kind is taken at most once. *)
let range_bounds_on alias columns c ~outer ~usable conjuncts =
  let lo = ref None and hi = ref None and marks = ref [] in
  let bound e inclusive = Some { Ir.v = compile_value e; inclusive } in
  List.iter
    (fun conj ->
      if usable conj then
        match conj with
        | Ast.Cmp (op, a, b) when is_col_of alias columns c a && outer_only outer b
          -> (
            match op with
            | Ast.Ge when !lo = None ->
                lo := bound b true;
                marks := conj :: !marks
            | Ast.Gt when !lo = None ->
                lo := bound b false;
                marks := conj :: !marks
            | Ast.Le when !hi = None ->
                hi := bound b true;
                marks := conj :: !marks
            | Ast.Lt when !hi = None ->
                hi := bound b false;
                marks := conj :: !marks
            | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> ())
        | Ast.Cmp (op, a, b) when is_col_of alias columns c b && outer_only outer a
          -> (
            (* mirrored: e op col *)
            match op with
            | Ast.Le when !lo = None ->
                lo := bound a true;
                marks := conj :: !marks
            | Ast.Lt when !lo = None ->
                lo := bound a false;
                marks := conj :: !marks
            | Ast.Ge when !hi = None ->
                hi := bound a true;
                marks := conj :: !marks
            | Ast.Gt when !hi = None ->
                hi := bound a false;
                marks := conj :: !marks
            | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> ())
        | Ast.Between (e, b_lo, b_hi)
          when is_col_of alias columns c e && outer_only outer b_lo
               && outer_only outer b_hi ->
            if !lo = None && !hi = None then begin
              lo := bound b_lo true;
              hi := bound b_hi true;
              marks := conj :: !marks
            end
        | _ -> ())
    conjuncts;
  (!lo, !hi, !marks)

(* Best index access for a base table given the bound outer aliases. *)
let best_index_access select tbl alias columns ~outer ~usable conjuncts =
  let candidates =
    List.filter_map
      (fun idx ->
        let icols = Relation.Table.Index.columns idx in
        (* longest equality prefix *)
        let eq = ref [] and eq_marks = ref [] in
        let pos = ref 0 in
        let continue = ref true in
        while !continue && !pos < Array.length icols do
          let c = icols.(!pos) in
          match
            List.find_opt
              (fun conj ->
                usable conj
                &&
                match conj with
                | Ast.Cmp (Ast.Eq, a, b) ->
                    (is_col_of alias columns c a && outer_only outer b)
                    || (is_col_of alias columns c b && outer_only outer a)
                | _ -> false)
              conjuncts
          with
          | Some (Ast.Cmp (Ast.Eq, a, b) as conj) ->
              let probe =
                compile_value (if is_col_of alias columns c a then b else a)
              in
              eq := probe :: !eq;
              eq_marks := conj :: !eq_marks;
              incr pos
          | _ -> continue := false
        done;
        let eq = List.rev !eq in
        (* range on the next key column *)
        let lo, hi, range_marks =
          if !pos < Array.length icols then
            range_bounds_on alias columns icols.(!pos) ~outer ~usable conjuncts
          else (None, None, [])
        in
        (* start/stop-key refinement on the column after the range; only
           meaningful when a range (or eq prefix) was found, and the
           conjunct is NOT consumed — it stays as a filter. *)
        let refine_lo, refine_hi =
          let rpos = !pos + if lo <> None || hi <> None then 1 else 0 in
          if rpos > !pos && rpos < Array.length icols then begin
            let rl, rh, _ =
              range_bounds_on alias columns icols.(rpos) ~outer ~usable
                conjuncts
            in
            (rl, rh)
          end
          else (None, None)
        in
        let score =
          (4 * List.length eq)
          + (if lo <> None then 2 else 0)
          + (if hi <> None then 2 else 0)
          + (if refine_lo <> None then 1 else 0)
          + if refine_hi <> None then 1 else 0
        in
        if score = 0 then None
        else begin
          let needed = referenced_columns select alias columns in
          let covering =
            List.for_all (fun c -> Array.exists (fun x -> x = c) icols) needed
          in
          Some
            { c_score = score;
              c_access =
                Ir.Index_scan { index = idx; eq; lo; hi; refine_lo; refine_hi;
                                covering; batched = false };
              c_marks = !eq_marks @ range_marks }
        end)
      (Relation.Table.indexes tbl)
  in
  List.fold_left
    (fun acc c ->
      match acc with
      | Some best when best.c_score >= c.c_score -> acc
      | _ -> Some c)
    None candidates

let conjuncts_of (select : Ast.select) =
  match select.Ast.where with None -> [] | Some w -> split_and w

(* The Fig. 9 rewrite of a single-table branch over the session's RI-tree
   relation. One conjunct bounding [lower] from above by a constant or
   host variable A and one bounding [upper] from below by B make every
   qualifying row intersect [min(A,B), A]: for B <= A those rows are
   exactly the ones intersecting [B, A], for B > A each of them contains
   A. The step plans that candidate interval at every execution (the
   typed op's cost-based path, live node lists) and keeps every conjunct
   as a residual filter, so it answers the seq scan's multiset. *)
let intersection_branch session (select : Ast.select) =
  match (session.ritree, select.Ast.froms) with
  | Some { forms; _ }, [ (tname, alias_opt) ]
    when tname = Ritree.Ri_tree.name (Exec.Planner.forms_tree forms) -> (
      let table = Ritree.Ri_tree.table (Exec.Planner.forms_tree forms) in
      let alias = Option.value ~default:tname alias_opt in
      let columns = Relation.Table.columns table in
      let conjuncts = conjuncts_of select in
      let col c e = is_col_of alias columns c e in
      let operand = function
        | (Ast.Int _ | Ast.Host _) as e -> Some e
        | _ -> None
      in
      (* c <= A, c < A, A >= c, A > c *)
      let bounded_above c =
        List.find_map
          (function
            | Ast.Cmp ((Ast.Le | Ast.Lt), x, e) when col c x -> operand e
            | Ast.Cmp ((Ast.Ge | Ast.Gt), e, x) when col c x -> operand e
            | _ -> None)
          conjuncts
      in
      (* c >= B, c > B, B <= c, B < c *)
      let bounded_below c =
        List.find_map
          (function
            | Ast.Cmp ((Ast.Ge | Ast.Gt), x, e) when col c x -> operand e
            | Ast.Cmp ((Ast.Le | Ast.Lt), e, x) when col c x -> operand e
            | _ -> None)
          conjuncts
      in
      match (bounded_above "lower", bounded_below "upper") with
      | Some a, Some b ->
          let triple = [| "lower"; "upper"; "id" |] in
          let proj =
            if
              List.for_all
                (fun c -> Array.mem c triple)
                (referenced_columns select alias columns)
            then Ir.Triples
            else Ir.Rows
          in
          let step =
            Ir.mk_step ~alias
              ~source:
                (Ir.Intersection
                   { table; upper = compile_value a; lower = compile_value b;
                     proj })
              ~columns:(if proj = Ir.Rows then columns else triple)
              ~filters:(List.map compile_pred conjuncts)
              Ir.Seq_scan
          in
          Some
            { Ir.steps = [ step ];
              projections = List.map compile_proj select.Ast.projections;
              group_by = select.Ast.group_by }
      | _ -> None)
  | _ -> None

let plan_generic_branch session (select : Ast.select) =
  let conjuncts = conjuncts_of select in
  (* Consumed conjuncts are tracked by PHYSICAL identity: two
     structurally equal conjuncts (e.g. a duplicated predicate, or two
     identical sub-scans' join conditions) are distinct list elements
     and must be consumed independently — a structural key (hashing
     [Obj.repr]) would conflate them, silently dropping one from the
     residual filters. Conjunct lists are tiny, so a linear scan is
     fine. *)
  let consumed : Ast.expr list ref = ref [] in
  let is_consumed c = List.memq c !consumed in
  let usable c = not (is_consumed c) in
  let consume c = if not (is_consumed c) then consumed := c :: !consumed in
  let resolve (tname, alias_opt) =
    let alias = Option.value ~default:tname alias_opt in
    match Relation.Catalog.find_table session.catalog tname with
    | Some tbl -> (alias, Ir.Base tbl, Relation.Table.columns tbl)
    | None -> (
        match Hashtbl.find_opt session.collections tname with
        | Some c -> (alias, Ir.Collection tname, c.Ir.cols)
        | None -> fail "unknown table %s" tname)
  in
  let items = List.map resolve select.Ast.froms in
  (* Greedy join ordering: at each position take the item with the best
     access path given what is already bound; transient collections rank
     just above an unindexed scan, so they become the outer loops of the
     Fig. 10 plan shape. *)
  let ordered = ref [] and bound = ref [] in
  let remaining = ref items in
  while !remaining <> [] do
    let scored =
      List.map
        (fun ((alias, source, columns) as item) ->
          match source with
          | Ir.Base tbl -> (
              match
                best_index_access select tbl alias columns ~outer:!bound
                  ~usable conjuncts
              with
              | Some cand -> (cand.c_score, item, Some cand)
              | None -> (0, item, None))
          | Ir.Collection _ | Ir.Mem _ | Ir.Intersection _ -> (1, item, None))
        !remaining
    in
    let best =
      List.fold_left
        (fun acc (score, _, _ as entry) ->
          match acc with
          | Some (bs, _, _) when bs >= score -> acc
          | _ -> Some entry)
        None scored
    in
    match best with
    | None -> assert false
    | Some (_, ((alias, source, columns) as item), cand) ->
        let access =
          match cand with
          | Some c ->
              List.iter consume c.c_marks;
              c.c_access
          | None -> Ir.Seq_scan
        in
        ordered := (alias, source, columns, access) :: !ordered;
        bound := !bound @ [ (alias, columns) ];
        remaining := List.filter (fun i -> i != item) !remaining
  done;
  let ordered = List.rev !ordered in
  (* Attach each unconsumed conjunct to the earliest step where all its
     aliases and bare columns are bound. A bare column no step or
     several steps bind is left to the executor, which rejects it. *)
  let alias_order = List.map (fun (a, _, _, _) -> a) ordered in
  let step_filters = Array.make (List.length ordered) [] in
  List.iter
    (fun conj ->
      if not (is_consumed conj) then begin
        let aliases = expr_aliases [] conj in
        let position a =
          let rec go i = function
            | [] -> fail "unknown alias %s in WHERE" a
            | x :: rest -> if x = a then i else go (i + 1) rest
          in
          go 0 alias_order
        in
        let bare_position c =
          match
            List.concat
              (List.mapi
                 (fun i (_, _, columns, _) ->
                   if Array.mem c columns then [ i ] else [])
                 ordered)
          with
          | [ i ] -> i
          | _ -> 0
        in
        let slot =
          List.fold_left (fun acc a -> max acc (position a)) 0 aliases
        in
        let slot =
          List.fold_left
            (fun acc c -> max acc (bare_position c))
            slot (bare_columns [] conj)
        in
        step_filters.(slot) <- step_filters.(slot) @ [ conj ]
      end)
    conjuncts;
  let steps =
    List.mapi
      (fun i (alias, source, columns, access) ->
        let columns =
          match access with
          | Ir.Index_scan { index; covering = true; _ } ->
              Relation.Table.Index.columns index
          | Ir.Index_scan _ | Ir.Seq_scan | Ir.Mem_probe _ -> columns
        in
        Ir.mk_step ~alias ~source ~columns
          ~filters:(List.map compile_pred step_filters.(i))
          access)
      ordered
  in
  { Ir.steps;
    projections = List.map compile_proj select.Ast.projections;
    group_by = select.Ast.group_by }

let plan_branch session (select : Ast.select) =
  match intersection_branch session select with
  | Some branch -> branch
  | None -> plan_generic_branch session select

let compile_query session (q : Ast.query) : Ir.plan =
  incr plan_calls;
  { Ir.branches = List.map (plan_branch session) q.Ast.branches;
    order_by =
      List.map
        (fun { Ast.key; descending } -> { Ir.key; descending })
        q.Ast.order_by;
    limit = q.Ast.limit }

(* ---------------- execution via the shared executor ---------------- *)

(* Intersection sub-plans come from the typed op's planner, under this
   statement's snapshot: their rows from the tree's compiled forms, and
   for EXPLAIN the plan the forms run. *)
let tree_named session name =
  match session.ritree with
  | Some r when name = Ritree.Ri_tree.name (Exec.Planner.forms_tree r.forms) ->
      Some r
  | _ -> None

let intersection_of session vis name ~proj q =
  Option.map
    (fun r ->
      Exec.Planner.plan_intersection ~stats:(r.stats ()) ?mem:(r.mem ()) ~vis
        ~proj (Exec.Planner.forms_tree r.forms) q)
    (tree_named session name)

let intersection_rows_of session vis name ~proj q =
  Option.map
    (fun r ->
      (Exec.Planner.intersect r.forms ~stats:(r.stats ()) ?mem:(r.mem ()) ~vis
         ~proj q)
        .Executor.rows)
    (tree_named session name)

(* Per-statement snapshot: implicit transactions read-committed (fresh
   high each statement), pinned ones snapshot-stable — [Txn.view]
   resolves either way at ctx construction time. *)
let ctx session t binds =
  let vis = Relation.Txn.view t in
  { Ir.binds;
    collection = (fun name -> Hashtbl.find_opt session.collections name);
    intersection = intersection_of session vis;
    intersection_rows = intersection_rows_of session vis;
    vis }

let rows (out : Executor.output) =
  Rows { columns = out.Executor.columns; rows = out.Executor.rows }

let run_plan session binds plan =
  in_txn session (fun t -> rows (Executor.run (ctx session t binds) plan))

let cached plan : cached = lazy (Executor.prepare plan)

let run_cached session binds (c : cached) =
  in_txn session (fun t ->
      rows (Executor.exec_in (ctx session t binds) (Lazy.force c)))

(* ---------------- statement dispatch ---------------- *)

let stmt_kind = function
  | Ast.Create_table _ -> "CREATE TABLE"
  | Ast.Create_index _ -> "CREATE INDEX"
  | Ast.Insert _ -> "INSERT"
  | Ast.Update _ -> "UPDATE"
  | Ast.Delete _ -> "DELETE"
  | Ast.Select _ -> "SELECT"
  | Ast.Explain _ -> "EXPLAIN"

(* A DELETE/UPDATE WHERE clause over the rows of [tname], compiled
   once before the scan. *)
let row_filter binds tname columns = function
  | None -> fun _ -> true
  | Some w ->
      let w =
        Executor.compile_pred binds [ (tname, columns) ] (compile_pred w)
      in
      fun row -> w [| row |]

(* Resolve a DML target and run [f] on it in the statement's
   transaction: every write buffers into the write set. *)
let write session tname f =
  match Relation.Catalog.find_table session.catalog tname with
  | None -> fail "unknown table %s" tname
  | Some tbl -> in_txn session (fun t -> f t tbl)

let rec run_stmt session binds = function
  | Ast.Create_table (name, cols) ->
      ignore
        (Relation.Catalog.create_table session.catalog ~name ~columns:cols);
      invalidate_plans session;
      Done (Printf.sprintf "table %s created" name)
  | Ast.Create_index (iname, tname, cols) -> (
      match Relation.Catalog.find_table session.catalog tname with
      | None -> fail "unknown table %s" tname
      | Some tbl ->
          ignore (Relation.Table.create_index tbl ~name:iname ~columns:cols);
          invalidate_plans session;
          Done (Printf.sprintf "index %s created" iname))
  | Ast.Insert (tname, values) ->
      write session tname (fun t tbl ->
          let row =
            Array.of_list
              (List.map
                 (fun e -> Executor.compile_value binds [] (compile_value e) [||])
                 values)
          in
          if Array.length row <> Array.length (Relation.Table.columns tbl)
          then fail "INSERT arity mismatch for %s" tname;
          Relation.Txn.buffer_insert t ~table:tbl ~tname row;
          Done "1 row inserted")
  | Ast.Delete (tname, where) ->
      write session tname (fun t tbl ->
          let pred = row_filter binds tname (Relation.Table.columns tbl) where in
          let victims = Relation.Txn.victims t ~table:tbl ~tname pred in
          List.iter
            (fun (rowid, row) ->
              Relation.Txn.buffer_delete t ~table:tbl ~tname ~rowid ~row)
            victims;
          (* Own uncommitted inserts never touch the shared heap. *)
          let own = Relation.Txn.remove_pending_inserts t tname pred in
          Done
            (Printf.sprintf "%d rows deleted"
               (List.length victims + List.length own)))
  | Ast.Update (tname, sets, where) ->
      write session tname (fun t tbl ->
          let columns = Relation.Table.columns tbl in
          let set_positions =
            List.map
              (fun (c, e) ->
                match Executor.col_position columns c with
                | Some i ->
                    ( i,
                      Executor.compile_value binds [ (tname, columns) ]
                        (compile_value e) )
                | None -> fail "unknown column %s in UPDATE" c)
              sets
          in
          let matches = row_filter binds tname columns where in
          let updated row =
            let env = [| row |] in
            let row' = Array.copy row in
            List.iter (fun (i, v) -> row'.(i) <- v env) set_positions;
            row'
          in
          (* Take this transaction's own matching pending inserts out
             BEFORE buffering any updated form, so no row is updated
             twice (a swap would undo itself). *)
          let own = Relation.Txn.remove_pending_inserts t tname matches in
          let victims = Relation.Txn.victims t ~table:tbl ~tname matches in
          List.iter
            (fun (rowid, row) ->
              Relation.Txn.buffer_delete t ~table:tbl ~tname ~rowid ~row;
              Relation.Txn.buffer_insert t ~table:tbl ~tname (updated row))
            victims;
          List.iter
            (fun row ->
              Relation.Txn.buffer_insert t ~table:tbl ~tname (updated row))
            own;
          Done
            (Printf.sprintf "%d rows updated"
               (List.length victims + List.length own)))
  | Ast.Select q -> run_plan session binds (compile_query session q)
  | Ast.Explain { analyze; target } -> run_explain session binds ~analyze target

and run_explain session binds ~analyze = function
  | Ast.Select q ->
      let plan = compile_query session q in
      let stats = Option.map (fun r -> r.stats ()) session.ritree in
      in_txn session (fun t ->
          Done
            (Exec.Planner.explain_compiled ?stats ~analyze
               (ctx session t binds) plan))
  | target ->
      if not analyze then Done (Exec.Render.statement_note (stmt_kind target))
      else begin
        (* a standalone write commits inside the measured region, so
           its I/O counts *)
        let result, ms, io =
          Executor.measured (fun () -> run_stmt session binds target)
        in
        let summary =
          match result with
          | Done msg -> msg
          | Rows { rows; _ } -> Printf.sprintf "%d rows" (List.length rows)
        in
        Done
          (Exec.Render.analyzed_statement ~kind:(stmt_kind target) ~summary
             ~io ~ms)
      end

let traced session stmt binds =
  Obs.Trace.with_span "sql.stmt" ~info:(stmt_kind stmt) (fun () ->
      guard (fun () -> run_stmt session binds stmt))

(* ---------------- the plan cache ---------------- *)

(* Compile the normalized key text (valid SQL whose literals are now
   :__pN parameter slots). [None] sends the statement down the uncached
   path, which reports parse errors against the original text. *)
let compile_key session key =
  match parse key with
  | Ast.Select q -> Some (cached (compile_query session q))
  | _ -> None
  | exception Parser.Error _ -> None
  | exception Lexer.Error _ -> None

(* Cached-plan lookup for a raw statement text: one normalize pass
   yields the key and the literal values, and the plan table yields the
   compiled plan without parsing or planning. *)
let lookup_cached session src =
  let cache = session.cache in
  match Normalize.select src with
  | None -> None
  | Some { Normalize.key; params } -> (
      match Exec.Plan_cache.find cache key with
      | Some plan -> Some (plan, params)
      | None -> (
          match compile_key session key with
          | Some plan ->
              Exec.Plan_cache.add cache key plan;
              Some (plan, params)
          | None -> None))

(* ---------------- prepared statements ---------------- *)

(* Host variables in syntactic order: the positional parameters of
   EXECUTE bind to them first-appearance-first. *)
let host_vars stmt =
  let acc = ref [] in
  let note h = if not (List.mem h !acc) then acc := h :: !acc in
  let rec walk = function
    | Ast.Int _ | Ast.Col _ -> ()
    | Ast.Host h -> note h
    | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
        walk a;
        walk b
    | Ast.Between (e, lo, hi) ->
        walk e;
        walk lo;
        walk hi
    | Ast.Not e -> walk e
  in
  let rec walk_stmt = function
    | Ast.Create_table _ | Ast.Create_index _ -> ()
    | Ast.Insert (_, vs) -> List.iter walk vs
    | Ast.Update (_, sets, w) ->
        List.iter (fun (_, e) -> walk e) sets;
        Option.iter walk w
    | Ast.Delete (_, w) -> Option.iter walk w
    | Ast.Select q ->
        List.iter (fun (s : Ast.select) -> Option.iter walk s.Ast.where)
          q.Ast.branches
    | Ast.Explain { target; _ } -> walk_stmt target
  in
  walk_stmt stmt;
  List.rev !acc

type prepared = {
  p_stmt : Ast.stmt;
  p_params : string list;
  mutable p_plan : cached option; (* compiled SELECT *)
  mutable p_gen : int; (* generation the plan was compiled under *)
}

let prepare session src =
  let stmt = parse src in
  let p_plan =
    match stmt with
    | Ast.Select q -> Some (cached (compile_query session q))
    | _ -> None
  in
  { p_stmt = stmt; p_params = host_vars stmt; p_plan;
    p_gen = session.generation }

let prepared_params p = p.p_params
let prepared_kind p = stmt_kind p.p_stmt

(* A prepared SELECT recompiles if DDL or a collection schema change
   invalidated plans since it was compiled. *)
let prepared_plan session p =
  match p.p_stmt with
  | Ast.Select q -> (
      match p.p_plan with
      | Some plan when p.p_gen = session.generation -> Some plan
      | _ ->
          let plan = cached (compile_query session q) in
          p.p_plan <- Some plan;
          p.p_gen <- session.generation;
          Some plan)
  | _ -> None

let execute_prepared session p args =
  let expected = List.length p.p_params in
  let got = List.length args in
  if got <> expected then
    fail "EXECUTE arity mismatch: expected %d parameters, got %d" expected
      got;
  let binds = List.combine p.p_params args in
  match prepared_plan session p with
  | Some plan ->
      Obs.Trace.with_span "sql.stmt" ~info:"SELECT" (fun () ->
          guard (fun () -> run_cached session binds plan))
  | None -> traced session p.p_stmt binds

(* ---------------- entry points ---------------- *)

let exec ?(binds = []) session src =
  match lookup_cached session src with
  | Some (plan, params) ->
      Obs.Trace.with_span "sql.stmt" ~info:"SELECT" (fun () ->
          guard (fun () -> run_cached session (binds @ params) plan))
  | None -> traced session (parse src) binds

let exec_script ?(binds = []) session src f =
  List.iter (fun stmt -> f (traced session stmt binds))
    (Parser.parse_script src)

let query ?binds session src =
  match exec ?binds session src with
  | Rows { rows; _ } -> rows
  | Done _ -> fail "query: statement did not return rows"

let explain session src =
  match parse src with
  | Ast.Select q ->
      guard (fun () -> Exec.Render.plan (compile_query session q).Ir.branches)
  | _ -> fail "explain: only SELECT is supported"

let explain_text ?(binds = []) ?(analyze = false) session src =
  match
    Obs.Trace.with_span "sql.stmt" ~info:"EXPLAIN" (fun () ->
        guard (fun () -> run_explain session binds ~analyze (parse src)))
  with
  | Done s -> s
  | Rows _ -> assert false
