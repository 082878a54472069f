(* The one executor behind every query path (SQL text, typed wire ops,
   the CLI and the Sec. 6 benchmarks, competitors included). Branches
   execute as right-deep nested loops of callbacks: transient
   collections and streaming heap-cursor scans as outer loops, B+tree
   range probes as inner loops — the Fig. 10 execution shape. Each
   branch compiles once per execution, so no name is looked up inside
   the loops.

   Every IR node type has exactly one `Obs.Trace` instrumentation point:
   a `sql.branch` span per UNION ALL branch and, when tracing is
   enabled, an `exec.*` span per node invocation (collection iterate,
   seq scan, index probe, group, aggregate, sort). The disabled path
   stays a plain call. *)

exception Error = Ir.Error

let fail = Ir.fail

(* ---------------- compiling names to slots ---------------- *)

(* The rows bound by the enclosing nested loops, one per loop depth. A
   base-table row or a covering index key keeps its trailing rowid: the
   scope never names that slot, and [Star] copies the declared columns
   only. *)
type env = int array array

(* The alias each loop depth binds and the columns it exposes,
   outermost first. A step's scope is known before it runs, from the
   steps outside it. *)
type scope = (string * string array) list

let col_position columns c =
  let rec go i =
    if i >= Array.length columns then None
    else if columns.(i) = c then Some i
    else go (i + 1)
  in
  go 0

(* The (depth, slot) a column reference reads. An alias names the
   outermost depth binding it; a bare name must occur at exactly one
   depth. *)
let resolve (scope : scope) alias col =
  match alias with
  | Some a ->
      let rec go d = function
        | [] -> fail "unknown alias %s" a
        | (a', columns) :: _ when a' = a -> (
            match col_position columns col with
            | Some i -> (d, i)
            | None -> fail "alias %s has no column %s" a col)
        | _ :: rest -> go (d + 1) rest
      in
      go 0 scope
  | None -> (
      let hits =
        List.concat
          (List.mapi
             (fun d (_, columns) ->
               match col_position columns col with
               | Some i -> [ (d, i) ]
               | None -> [])
             scope)
      in
      match hits with
      | [ h ] -> h
      | [] -> fail "unknown column %s" col
      | _ -> fail "ambiguous column %s" col)

(* Names resolve here, once: an unknown or ambiguous column or a missing
   bind raises {!Error} whether or not any row ever reaches the
   expression. *)
let compile_value binds scope = function
  | Ir.Const n -> fun (_ : env) -> n
  | Ir.Param h -> (
      match List.assoc_opt h binds with
      | Some v -> fun _ -> v
      | None -> fail "missing host variable :%s" h)
  | Ir.Field (alias, col) ->
      let d, i = resolve scope alias col in
      fun env -> env.(d).(i)

(* [a op b] is [b (mirror op) a]. *)
let mirror = function
  | Ir.Eq -> Ir.Eq
  | Ir.Ne -> Ir.Ne
  | Ir.Lt -> Ir.Gt
  | Ir.Le -> Ir.Ge
  | Ir.Gt -> Ir.Lt
  | Ir.Ge -> Ir.Le

(* A column compared with a bound value: one closure, which reads the
   column and compares. *)
let field_cmp op d i (v : int) =
  match op with
  | Ir.Eq -> fun (env : env) -> env.(d).(i) = v
  | Ir.Ne -> fun env -> env.(d).(i) <> v
  | Ir.Lt -> fun env -> env.(d).(i) < v
  | Ir.Le -> fun env -> env.(d).(i) <= v
  | Ir.Gt -> fun env -> env.(d).(i) > v
  | Ir.Ge -> fun env -> env.(d).(i) >= v

let rec compile_pred binds scope = function
  | Ir.Cmp (op, Ir.Field (alias, col), ((Ir.Const _ | Ir.Param _) as v)) ->
      let d, i = resolve scope alias col in
      field_cmp op d i (compile_value binds scope v [||])
  | Ir.Cmp (op, ((Ir.Const _ | Ir.Param _) as v), Ir.Field (alias, col)) ->
      let v = compile_value binds scope v [||] in
      let d, i = resolve scope alias col in
      field_cmp (mirror op) d i v
  | Ir.Cmp (op, a, b) -> (
      let a = compile_value binds scope a and b = compile_value binds scope b in
      match op with
      | Ir.Eq -> fun env -> a env = b env
      | Ir.Ne -> fun env -> a env <> b env
      | Ir.Lt -> fun env -> a env < b env
      | Ir.Le -> fun env -> a env <= b env
      | Ir.Gt -> fun env -> a env > b env
      | Ir.Ge -> fun env -> a env >= b env)
  | Ir.Between (e, lo, hi) ->
      let e = compile_value binds scope e
      and lo = compile_value binds scope lo
      and hi = compile_value binds scope hi in
      fun env ->
        let v = e env in
        lo env <= v && v <= hi env
  | Ir.And (a, b) ->
      let a = compile_pred binds scope a and b = compile_pred binds scope b in
      fun env -> a env && b env
  | Ir.Or (a, b) ->
      let a = compile_pred binds scope a and b = compile_pred binds scope b in
      fun env -> a env || b env
  | Ir.Not e ->
      let e = compile_pred binds scope e in
      fun env -> not (e env)

(* A conjunction; [None] when there is nothing to check. *)
let compile_filters binds scope = function
  | [] -> None
  | p :: ps ->
      Some
        (List.fold_left
           (fun acc p ->
             let p = compile_pred binds scope p in
             fun env -> acc env && p env)
           (compile_pred binds scope p) ps)

(* ---------------- node execution ---------------- *)

(* Inclusive lexicographic range check for injecting snapshot-overlay
   rows into an index probe: an overlay row participates exactly when
   its index entry would have fallen inside the probe's key range. *)
let key_le a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then true
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let key_in_range ~lo ~hi key = key_le lo key && key_le key hi

let node_span (step : Ir.step) =
  match (step.source, step.access) with
  | Ir.Collection _, _ -> "exec.collection"
  | Ir.Mem _, _ -> "memtier.probe"
  | Ir.Intersection _, _ -> "exec.intersection"
  | Ir.Base _, Ir.Seq_scan -> "exec.seq_scan"
  | Ir.Base _, Ir.Index_scan _ -> "exec.index_scan"
  | Ir.Base _, Ir.Mem_probe _ -> "exec.invalid"

(* A key-range bound compiled to write key component [i]; it answers
   [false] when the bound admits no key at all. An exclusive bound at
   the integer [edge] is such a bound: it must not wrap round to the
   opposite edge and widen the probe to the whole index. *)
let key_bound binds scope key i ~edge ~next { Ir.v; inclusive } =
  let v = compile_value binds scope v in
  fun env ->
    let x = v env in
    if inclusive then begin
      key.(i) <- x;
      true
    end
    else
      x <> edge
      && begin
        key.(i) <- next x;
        true
      end

(* The sub-plan an [Intersection] step runs: the candidate interval
   [min(A,B), A] over its relation, planned by the context for this
   execution. [upper] and [lower] are the values of A and B. *)
let intersection_sub ctx (step : Ir.step) ~upper ~lower =
  match step.Ir.source with
  | Ir.Intersection { table; proj; _ } -> (
      let name = Relation.Table.name table in
      let q = Interval.Ivl.make (min upper lower) upper in
      match ctx.Ir.intersection name ~proj q with
      | Some c -> c
      | None -> fail "%s is not an RI-tree relation of this session" name)
  | Ir.Base _ | Ir.Collection _ | Ir.Mem _ ->
      invalid_arg "Executor.intersection_sub"

(* The rowids a snapshot sees; every rowid when physical state is the
   snapshot. *)
let visible = function
  | None -> fun _ -> true
  | Some v -> v.Relation.Txn.visible

(* The columns a step binds at its depth. *)
let step_columns (step : Ir.step) =
  match (step.Ir.source, step.Ir.access) with
  | Ir.Base _, Ir.Index_scan { index; covering = true; _ } ->
      Relation.Table.Index.columns index
  | Ir.Base tbl, (Ir.Seq_scan | Ir.Index_scan _ | Ir.Mem_probe _) ->
      Relation.Table.columns tbl
  | (Ir.Collection _ | Ir.Mem _ | Ir.Intersection _), _ -> step.Ir.columns

type cell = Slot of int * int | Whole of int * int (* depth, width *)

(* The branch's projection over the innermost scope, as one closure that
   builds an output row from the bound rows. *)
let compile_projection scope projections =
  let cells =
    Array.of_list
      (List.concat_map
         (function
           | Ir.Star ->
               List.mapi
                 (fun d (_, columns) -> Whole (d, Array.length columns))
                 scope
           | Ir.Count_star -> []
           | Ir.Agg _ -> fail "aggregate outside an aggregate query"
           | Ir.Col (alias, c) ->
               let d, i = resolve scope alias c in
               [ Slot (d, i) ])
         projections)
  in
  let width =
    Array.fold_left
      (fun w -> function Slot _ -> w + 1 | Whole (_, n) -> w + n)
      0 cells
  in
  fun (env : env) ->
    let out = Array.make width 0 in
    let pos = ref 0 in
    for j = 0 to Array.length cells - 1 do
      match cells.(j) with
      | Slot (d, i) ->
          out.(!pos) <- env.(d).(i);
          incr pos
      | Whole (d, n) ->
          Array.blit env.(d) 0 out !pos n;
          pos := !pos + n
    done;
    out

(* Compile [step] under [outer], the scope of the steps outside it; its
   loop depth is the length of [outer]. [next] compiles under the
   extended scope and runs once per row the step emits; the result runs
   the step's loop for one binding of the outer rows. A batched index
   step queues its scans on the branch's [pending]. *)
let rec compile_step ctx pending outer (step : Ir.step) next =
  let binds = ctx.Ir.binds in
  let d = List.length outer in
  let columns = step_columns step in
  let scope = outer @ [ (step.Ir.alias, columns) ] in
  let filters = compile_filters binds scope step.Ir.filters in
  let next = next scope in
  (* the row bound at depth [d] goes on when it passes the filters *)
  let emit env =
    match filters with
    | Some f when not (f env) -> ()
    | _ ->
        step.Ir.seen <- step.Ir.seen + 1;
        next env
  in
  let visit env row =
    env.(d) <- row;
    emit env
  in
  let body =
    match (step.Ir.source, step.Ir.access) with
    | Ir.Collection name, _ ->
        fun env -> (
          match ctx.Ir.collection name with
          | None -> fail "collection %s disappeared" name
          | Some (cols, rows) ->
              if cols != columns && cols <> columns then
                fail "collection %s changed its columns" name;
              List.iter (visit env) rows)
    | Ir.Intersection { upper; lower; _ }, _ ->
        let upper = compile_value binds outer upper
        and lower = compile_value binds outer lower in
        fun env ->
          let sub =
            intersection_sub ctx step ~upper:(upper env) ~lower:(lower env)
          in
          List.iter
            (fun br ->
              List.iter (visit env) (run_branches sub.Ir.ctx [ br ]))
            sub.Ir.plan.Ir.branches
    | Ir.Mem h, Ir.Mem_probe { op; lo; hi; _ } ->
        let lo = compile_value binds outer lo
        and up = compile_value binds outer hi in
        fun env ->
          List.iter
            (fun (l, u, id) -> visit env [| l; u; id |])
            (h.Ir.mem_probe op ~lo:(lo env) ~up:(up env))
    | Ir.Mem _, _ -> fail "hot-tier source requires a memory probe"
    | Ir.Base _, Ir.Mem_probe _ -> fail "memory probe against a base table"
    | Ir.Base tbl, Ir.Seq_scan ->
        (* Streaming scan: the heap cursor holds one page of rows at a
           time, so a sequential scan of any size runs in constant
           memory. Each row is bound with its rowid appended; the rowid
           decides snapshot visibility and is never addressed after. *)
        let view = ctx.Ir.vis (Relation.Table.name tbl) in
        let accept = visible view in
        fun env ->
          let c = Relation.Heap.cursor (Relation.Table.heap tbl) in
          let rec go () =
            match Relation.Heap.next c with
            | None -> ()
            | Some (rid, row) ->
                if accept rid then begin
                  let n = Array.length row in
                  visit env
                    (Array.init (n + 1) (fun i ->
                         if i < n then row.(i) else rid))
                end;
                go ()
          in
          go ();
          Option.iter
            (fun v -> List.iter (visit env) (v.Relation.Txn.extra ()))
            view
    | ( Ir.Base tbl,
        Ir.Index_scan
          { index; eq; lo; hi; refine_lo; refine_hi; covering; batched } ) ->
        compile_index_scan ctx pending outer step tbl index ~eq ~lo ~hi
          ~refine_lo ~refine_hi ~covering ~batched ~emit visit
  in
  if Obs.Trace.enabled () then fun env ->
    Obs.Trace.with_span (node_span step) ~info:step.Ir.alias (fun () ->
        body env)
  else body

(* The bounds compile once and each probe fills its two key arrays:
   equality components, then the range column, then the refinement
   column after it. The step owns one key array and one cursor: each
   probe re-seeks the cursor, which decodes every entry into the key,
   bound at the step's depth, so an entry costs no allocation; what a
   row keeps of it, the projection copies out. Entries the key filters
   reject are skipped before any fetch. A batched probe descends at
   once, on a cursor of its own and copies of its key arrays, and queues
   its scan with copies of the outer rows it ran under. *)
and compile_index_scan ctx pending outer (step : Ir.step) tbl index ~eq ~lo
    ~hi ~refine_lo ~refine_hi ~covering ~batched ~emit visit =
  let binds = ctx.Ir.binds in
  let tree = Relation.Table.Index.tree index in
  let width = Btree.key_width tree in
  let lo_key = Array.make width min_int in
  let hi_key = Array.make width max_int in
  let eq_fills =
    List.mapi
      (fun i v ->
        let v = compile_value binds outer v in
        fun env ->
          let x = v env in
          lo_key.(i) <- x;
          hi_key.(i) <- x;
          true)
      eq
  in
  let range i lo hi =
    List.filter_map Fun.id
      [ Option.map (key_bound binds outer lo_key i ~edge:max_int ~next:succ) lo;
        Option.map (key_bound binds outer hi_key i ~edge:min_int ~next:pred) hi ]
  in
  let k = List.length eq in
  let rpos = k + if lo <> None || hi <> None then 1 else 0 in
  let fills =
    Array.of_list
      (eq_fills @ range k lo hi
      @ if rpos > k && rpos < width then range rpos refine_lo refine_hi
        else [])
  in
  let fill env =
    let rec go i = i >= Array.length fills || (fills.(i) env && go (i + 1)) in
    go 0
  in
  let d = List.length outer in
  let key = Array.make width 0 in
  (* key filters see the index entry, bound at this step's depth *)
  let key_ok =
    match
      compile_filters binds
        (outer @ [ (step.Ir.alias, Relation.Table.Index.columns index) ])
        step.Ir.key_filters
    with
    | None -> fun _ -> true
    | Some f -> f
  in
  (* one entry, with [key] bound at depth [d] *)
  let entry env =
    if key_ok env then
      if covering then emit env
      else
        match Relation.Table.fetch tbl key.(width - 1) with
        | Some row ->
            visit env row;
            env.(d) <- key
        | None -> ()
  in
  let view = ctx.Ir.vis (Relation.Table.name tbl) in
  let accept = visible view in
  (* Drain the cursor of a probe over [lo, hi]. *)
  let scan env c ~lo ~hi =
    env.(d) <- key;
    while Btree.next_into c key do
      if accept key.(width - 1) then entry env
    done;
    match view with
    | None -> ()
    | Some v ->
        (* Overlay rows are injected per probe: each row's index entry
           joins exactly the probes whose key range would have contained
           its physical registration, so UNION ALL branch disjointness
           and per-probe key filters behave as for physical rows. The
           rowid slot is unconstrained in every probe (min_int..max_int),
           so a pseudo-rowid of 0 never decides the comparison. *)
        List.iter
          (fun row ->
            let key = Relation.Table.Index.key_of_row index 0 row in
            if key_in_range ~lo ~hi key then begin
              env.(d) <- key;
              if key_ok env then if covering then emit env else visit env row
            end)
          (v.Relation.Txn.extra ())
  in
  let cursor = ref None in
  fun env ->
    if fill env then
      if not batched then begin
        let c =
          match !cursor with
          | Some c ->
              Btree.seek c ~lo:lo_key ~hi:hi_key;
              c
          | None ->
              let c = Btree.cursor tree ~lo:lo_key ~hi:hi_key in
              cursor := Some c;
              c
        in
        scan env c ~lo:lo_key ~hi:hi_key
      end
      else begin
        let lo = Array.copy lo_key and hi = Array.copy hi_key in
        let c = Btree.cursor tree ~lo ~hi
        and bound = Array.init d (fun i -> Array.copy env.(i)) in
        Queue.add (fun () -> Array.blit bound 0 env 0 d; scan env c ~lo ~hi)
          pending
      end

(* Compile a branch into one closure over a fresh environment, then run
   it: every name in it resolves before the first row is read. [sink]
   compiles under the innermost scope and runs once per row the branch
   yields; the rows it sees are the loops' own, valid only during the
   call. The scans its batched probes queued run once its loops have,
   in queue order. *)
and iter_branch ctx (branch : Ir.branch) sink =
  let body () =
    let pending = Queue.create () in
    let rec chain outer = function
      | [] -> sink outer
      | step :: rest ->
          compile_step ctx pending outer step (fun scope -> chain scope rest)
    in
    let run = chain [] branch.Ir.steps in
    run (Array.make (List.length branch.Ir.steps) [||]);
    while not (Queue.is_empty pending) do
      (Queue.take pending) ()
    done
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "sql.branch"
      ~info:
        (String.concat "," (List.map (fun s -> s.Ir.alias) branch.Ir.steps))
      body
  else body ()

(* The projected rows of [branches], in order. *)
and run_branches ctx branches =
  let rows = ref [] in
  List.iter
    (fun (branch : Ir.branch) ->
      iter_branch ctx branch (fun scope ->
          let project = compile_projection scope branch.Ir.projections in
          fun env -> rows := project env :: !rows))
    branches;
  List.rev !rows

let projection_columns (branch : Ir.branch) =
  List.concat_map
    (function
      | Ir.Star ->
          List.concat_map
            (fun (s : Ir.step) -> Array.to_list s.Ir.columns)
            branch.Ir.steps
      | Ir.Count_star -> [ "count" ]
      | Ir.Agg (a, (_, c)) ->
          [ Printf.sprintf "%s(%s)"
              (String.lowercase_ascii (Ir.agg_to_string a))
              c ]
      | Ir.Col (_, c) -> [ c ])
    branch.Ir.projections

let is_aggregate_projection = function
  | Ir.Count_star | Ir.Agg _ -> true
  | Ir.Star | Ir.Col _ -> false

(* ---------------- grouping, aggregation, ordering ---------------- *)

(* GROUP BY: the rows are grouped as the branches yield them, with no
   row built. Plain projections must be grouping columns; aggregate
   order-by keys are not supported. An aggregate query without GROUP BY
   is the same fold with an empty key over every UNION ALL branch, each
   reading the first branch's projections, and answers one row even
   when no row arrives. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A group: its key cells, its row count and, per aggregate, the value
   folded so far. *)
type group = { key : int array; mutable count : int; acc : int array }

let run_group_by ctx (first : Ir.branch) branches =
  Obs.Trace.with_span "exec.group" @@ fun () ->
  let group = first.Ir.group_by and projections = first.Ir.projections in
  let is_group_col (alias, c) =
    List.exists (fun (_, gc) -> gc = c) group
    && match alias with _ -> true
  in
  List.iter
    (function
      | Ir.Col (a, c) when not (is_group_col (a, c)) ->
          fail "column %s is not in GROUP BY" c
      | Ir.Star -> fail "SELECT * cannot be combined with GROUP BY"
      | Ir.Col _ | Ir.Count_star | Ir.Agg _ -> ())
    projections;
  let aggs =
    Array.of_list
      (List.filter_map
         (function
           | Ir.Agg (a, target) -> Some (a, target)
           | Ir.Count_star | Ir.Star | Ir.Col _ -> None)
         projections)
  in
  (* groups in reverse first-seen order, shared by every branch *)
  let order = ref [] in
  let one_col = Int_tbl.create 64 and many_cols = Hashtbl.create 64 in
  List.iter
    (fun branch ->
      iter_branch ctx branch (fun scope ->
          let slot (alias, c) = resolve scope alias c in
          let keys = Array.of_list (List.map slot group) in
          let targets = Array.map (fun (_, t) -> slot t) aggs in
          let value (env : env) j =
            let d, i = targets.(j) in
            env.(d).(i)
          in
          let fresh (env : env) key =
            let g =
              { key; count = 0; acc = Array.init (Array.length aggs) (value env) }
            in
            order := g :: !order;
            g
          in
          (* the group of the row bound in [env] *)
          let find =
            match keys with
            | [||] -> (
                fun env -> match !order with g :: _ -> g | [] -> fresh env [||])
            | [| (d, i) |] ->
                fun (env : env) ->
                  let k = env.(d).(i) in
                  (match Int_tbl.find one_col k with
                  | g -> g
                  | exception Not_found ->
                      let g = fresh env [| k |] in
                      Int_tbl.add one_col k g;
                      g)
            | _ ->
                fun env ->
                  let k = Array.map (fun (d, i) -> env.(d).(i)) keys in
                  (match Hashtbl.find many_cols k with
                  | g -> g
                  | exception Not_found ->
                      let g = fresh env k in
                      Hashtbl.add many_cols k g;
                      g)
          in
          fun env ->
            let g = find env in
            if g.count > 0 then
              for j = 0 to Array.length aggs - 1 do
                let v = value env j in
                match fst aggs.(j) with
                | Ir.Count -> ()
                | Ir.Sum -> g.acc.(j) <- g.acc.(j) + v
                | Ir.Min -> if v < g.acc.(j) then g.acc.(j) <- v
                | Ir.Max -> if v > g.acc.(j) then g.acc.(j) <- v
              done;
            g.count <- g.count + 1))
    branches;
  let row g =
    let next = ref 0 in
    let cells =
      List.map
        (fun p ->
          match p with
          | Ir.Col (a, c) ->
              let rec pos i = function
                | [] -> fail "grouping column %s missing" c
                | (ga, gc) :: rest ->
                    if gc = c && (a = None || ga = None || a = ga) then i
                    else pos (i + 1) rest
              in
              g.key.(pos 0 group)
          | Ir.Count_star -> g.count
          | Ir.Agg (agg, _) -> (
              let j = !next in
              incr next;
              match agg with
              | Ir.Count -> g.count
              | (Ir.Min | Ir.Max) when g.count = 0 ->
                  fail "%s over an empty result" (Ir.agg_to_string agg)
              | Ir.Sum when g.count = 0 -> 0
              | Ir.Sum | Ir.Min | Ir.Max -> g.acc.(j))
          | Ir.Star -> assert false)
        projections
    in
    Array.of_list cells
  in
  match !order with
  | [] when group = [] -> [ row { key = [||]; count = 0; acc = [||] } ]
  | groups -> List.rev_map row groups

let order_and_limit (first : Ir.branch) (plan : Ir.plan) rows =
  let rows =
    if plan.Ir.order_by = [] then rows
    else
      Obs.Trace.with_span "exec.sort" @@ fun () ->
      let names = projection_columns first in
      let position { Ir.key = _, col; descending } =
        let rec go i = function
          | [] -> fail "ORDER BY column %s is not in the projection" col
          | c :: rest -> if c = col then (i, descending) else go (i + 1) rest
        in
        go 0 names
      in
      let keys = List.map position plan.Ir.order_by in
      List.stable_sort
        (fun (a : int array) b ->
          let rec cmp = function
            | [] -> 0
            | (i, desc) :: rest ->
                let c = Int.compare a.(i) b.(i) in
                if c <> 0 then if desc then -c else c else cmp rest
          in
          cmp keys)
        rows
  in
  match plan.Ir.limit with
  | None -> rows
  | Some n -> List.filteri (fun i _ -> i < n) rows

(* ---------------- plan execution ---------------- *)

type output = { columns : string list; rows : int array list }

let reset_seen (plan : Ir.plan) =
  List.iter
    (fun b -> List.iter (fun (s : Ir.step) -> s.Ir.seen <- 0) b.Ir.steps)
    plan.Ir.branches

let run ctx (plan : Ir.plan) =
  match plan.Ir.branches with
  | [] -> { columns = []; rows = [] }
  | first :: _ ->
      let grouped = first.Ir.group_by <> [] in
      let aggs = List.filter is_aggregate_projection first.Ir.projections in
      if grouped && List.length plan.Ir.branches > 1 then
        fail "GROUP BY cannot be combined with UNION ALL";
      if (not grouped) && aggs <> [] then begin
        if List.length aggs <> List.length first.Ir.projections then
          fail "cannot mix aggregate and plain projections";
        if plan.Ir.order_by <> [] then
          fail "ORDER BY does not apply to an aggregate query"
      end;
      let rows =
        if grouped then
          order_and_limit first plan (run_group_by ctx first plan.Ir.branches)
        else if aggs <> [] then run_group_by ctx first plan.Ir.branches
        else order_and_limit first plan (run_branches ctx plan.Ir.branches)
      in
      { columns = projection_columns first; rows }

(* Measure an execution: wall time and the process-global physical-I/O
   delta (single-threaded execution means the delta is attributable to
   this run). *)
let measured f =
  let c0 = Obs.Counters.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) c0 in
  (r, ms, d.Obs.Counters.reads + d.Obs.Counters.writes)
