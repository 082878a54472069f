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

(* A plan compiles against a frame: one cell per parameter, which a
   run may refill, and the context its collections, snapshot views and
   intersection sub-plans come from. A plan run once gets a frame of its
   context's binds. A plan kept for many runs shares a frame its owner
   refills before each: an [open_] frame gains a cell for each
   parameter the plan reads (see {!prepare}, and {!Planner}'s Fig. 9
   forms). *)
type frame = {
  mutable cells : (string * int ref) list;
  open_ : bool;
  mutable ctx : Ir.ctx;
}

let cells_of binds = List.map (fun (h, v) -> (h, ref v)) binds
let frame (ctx : Ir.ctx) =
  { cells = cells_of ctx.Ir.binds; open_ = false; ctx }

(* A constant or a parameter as the cell a run reads. Names resolve
   here, once: an unknown or ambiguous column or a missing bind raises
   {!Error} whether or not any row ever reaches the expression. *)
let cell fr = function
  | Ir.Const n -> ref n
  | Ir.Param h -> (
      match List.assoc_opt h fr.cells with
      | Some c -> c
      | None when fr.open_ ->
          let c = ref 0 in
          fr.cells <- (h, c) :: fr.cells;
          c
      | None -> fail "missing host variable :%s" h)
  | Ir.Field _ -> invalid_arg "Executor.cell"

let value_in fr scope = function
  | (Ir.Const _ | Ir.Param _) as v ->
      let c = cell fr v in
      fun (_ : env) -> !c
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

(* A column compared with a constant or parameter: one closure, which
   reads the column and the cell and compares. *)
let field_cmp op d i (c : int ref) =
  match op with
  | Ir.Eq -> fun (env : env) -> env.(d).(i) = !c
  | Ir.Ne -> fun env -> env.(d).(i) <> !c
  | Ir.Lt -> fun env -> env.(d).(i) < !c
  | Ir.Le -> fun env -> env.(d).(i) <= !c
  | Ir.Gt -> fun env -> env.(d).(i) > !c
  | Ir.Ge -> fun env -> env.(d).(i) >= !c

let rec pred_in fr scope = function
  | Ir.Cmp (op, Ir.Field (alias, col), ((Ir.Const _ | Ir.Param _) as v)) ->
      let d, i = resolve scope alias col in
      field_cmp op d i (cell fr v)
  | Ir.Cmp (op, ((Ir.Const _ | Ir.Param _) as v), Ir.Field (alias, col)) ->
      let c = cell fr v in
      let d, i = resolve scope alias col in
      field_cmp (mirror op) d i c
  | Ir.Cmp (op, a, b) -> (
      let a = value_in fr scope a and b = value_in fr scope b in
      match op with
      | Ir.Eq -> fun env -> a env = b env
      | Ir.Ne -> fun env -> a env <> b env
      | Ir.Lt -> fun env -> a env < b env
      | Ir.Le -> fun env -> a env <= b env
      | Ir.Gt -> fun env -> a env > b env
      | Ir.Ge -> fun env -> a env >= b env)
  | Ir.Between (e, lo, hi) ->
      let e = value_in fr scope e
      and lo = value_in fr scope lo
      and hi = value_in fr scope hi in
      fun env ->
        let v = e env in
        lo env <= v && v <= hi env
  | Ir.And (a, b) ->
      let a = pred_in fr scope a and b = pred_in fr scope b in
      fun env -> a env && b env
  | Ir.Or (a, b) ->
      let a = pred_in fr scope a and b = pred_in fr scope b in
      fun env -> a env || b env
  | Ir.Not e ->
      let e = pred_in fr scope e in
      fun env -> not (e env)

let binds_frame binds =
  { cells = cells_of binds; open_ = false; ctx = Ir.empty_ctx }
let compile_value binds = value_in (binds_frame binds)
let compile_pred binds = pred_in (binds_frame binds)

(* A conjunction; [None] when there is nothing to check. *)
let compile_filters fr scope = function
  | [] -> None
  | p :: ps ->
      Some
        (List.fold_left
           (fun acc p ->
             let p = pred_in fr scope p in
             fun env -> acc env && p env)
           (pred_in fr scope p) ps)

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
let key_bound fr scope key i ~edge ~next { Ir.v; inclusive } =
  let v = value_in fr scope v in
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

(* What compiling a plan shares between its steps: the frame, and the
   work a run does before its loops (each base-table step reads its
   snapshot view there, once per run). *)
type comp = { fr : frame; mutable starts : (unit -> unit) list }

(* The snapshot view of [tbl] for the current run. *)
let run_view comp tbl =
  let name = Relation.Table.name tbl in
  let view = ref None in
  comp.starts <- (fun () -> view := comp.fr.ctx.Ir.vis name) :: comp.starts;
  view

(* Compile [step] under [outer], the scope of the steps outside it; its
   loop depth is the length of [outer]. [next] compiles under the
   extended scope and runs once per row the step emits; the result runs
   the step's loop for one binding of the outer rows. A batched index
   step queues its scans on the branch's [pending]. *)
let rec compile_step comp pending outer (step : Ir.step) next =
  let fr = comp.fr in
  let d = List.length outer in
  let columns = step_columns step in
  let scope = outer @ [ (step.Ir.alias, columns) ] in
  let filters = compile_filters fr scope step.Ir.filters in
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
        (* each row is copied into the step's own row array *)
        let width = Array.length columns in
        let row = Array.make width 0 in
        fun env -> (
          match comp.fr.ctx.Ir.collection name with
          | None -> fail "collection %s disappeared" name
          | Some c ->
              if c.Ir.cols != columns && c.Ir.cols <> columns then
                fail "collection %s changed its columns" name;
              for i = 0 to c.Ir.rows - 1 do
                Array.blit c.Ir.cells (i * width) row 0 width;
                visit env row
              done)
    | Ir.Intersection { table; upper; lower; proj }, _ ->
        let name = Relation.Table.name table in
        let upper = value_in fr outer upper
        and lower = value_in fr outer lower in
        fun env -> (
          let u = upper env in
          let q = Interval.Ivl.make (min u (lower env)) u in
          match comp.fr.ctx.Ir.intersection_rows name ~proj q with
          | Some rows -> List.iter (visit env) rows
          | None -> fail "%s is not an RI-tree relation of this session" name)
    | Ir.Mem h, Ir.Mem_probe { op; lo; hi; _ } ->
        let lo = value_in fr outer lo and up = value_in fr outer hi in
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
        let view = run_view comp tbl in
        fun env ->
          let view = !view in
          let accept = visible view in
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
        compile_index_scan comp pending outer step tbl index ~eq ~lo ~hi
          ~refine_lo ~refine_hi ~covering ~batched ~emit visit
  in
  let span = node_span step and info = step.Ir.alias in
  fun env ->
    if Obs.Trace.enabled () then
      Obs.Trace.with_span span ~info (fun () -> body env)
    else body env

(* The bounds compile once and each probe fills its two key arrays:
   equality components, then the range column, then the refinement
   column after it. The step owns one key array and one cursor, kept
   from run to run: each probe re-seeks the cursor, which decodes every
   entry into the key, bound at the step's depth, so an entry costs no
   allocation; what a row keeps of it, the projection copies out. A
   drained cursor holds no pin. Entries the key filters reject are
   skipped before any fetch. A batched probe descends at once, on a
   cursor of its own and copies of its key arrays, and queues its scan
   with copies of the outer rows it ran under. *)
and compile_index_scan comp pending outer (step : Ir.step) tbl index ~eq ~lo
    ~hi ~refine_lo ~refine_hi ~covering ~batched ~emit visit =
  let fr = comp.fr in
  let tree = Relation.Table.Index.tree index in
  let width = Btree.key_width tree in
  let lo_key = Array.make width min_int in
  let hi_key = Array.make width max_int in
  let eq_fills =
    List.mapi
      (fun i v ->
        let v = value_in fr outer v in
        fun env ->
          let x = v env in
          lo_key.(i) <- x;
          hi_key.(i) <- x;
          true)
      eq
  in
  let range i lo hi =
    List.filter_map Fun.id
      [ Option.map (key_bound fr outer lo_key i ~edge:max_int ~next:succ) lo;
        Option.map (key_bound fr outer hi_key i ~edge:min_int ~next:pred) hi ]
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
      compile_filters fr
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
  let view = run_view comp tbl in
  (* Drain the cursor of a probe over [lo, hi]. *)
  let scan env c ~lo ~hi =
    let view = !view in
    let accept = visible view in
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

(* Compile a branch into one closure over an environment it keeps:
   every name in it resolves before the first row is read. [sink]
   compiles under the innermost scope and runs once per row the branch
   yields; the rows it sees are the loops' own, valid only during the
   call. The scans its batched probes queued run once its loops have,
   in queue order. *)
let compile_branch comp (branch : Ir.branch) sink =
  let pending = Queue.create () in
  let rec chain outer = function
    | [] -> sink outer
    | step :: rest ->
        compile_step comp pending outer step (fun scope -> chain scope rest)
  in
  let run = chain [] branch.Ir.steps in
  let env = Array.make (List.length branch.Ir.steps) [||] in
  let body () =
    run env;
    while not (Queue.is_empty pending) do
      (Queue.take pending) ()
    done
  in
  fun () ->
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "sql.branch"
        ~info:
          (String.concat "," (List.map (fun s -> s.Ir.alias) branch.Ir.steps))
        body
    else body ()

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

let compile_group_by comp (first : Ir.branch) branches =
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
  let runs =
   List.map
    (fun branch ->
      compile_branch comp branch (fun scope ->
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
    branches
  in
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
  fun () ->
    Obs.Trace.with_span "exec.group" @@ fun () ->
    order := [];
    Int_tbl.reset one_col;
    Hashtbl.reset many_cols;
    List.iter (fun run -> run ()) runs;
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

(* A plan compiled against a frame: [exec] runs it with what the frame
   holds now. Not reentrant: a run must end before the next starts on
   the same compiled plan. *)
type compiled = {
  frame : frame;
  starts : (unit -> unit) list;
  body : unit -> int array list;
  columns : string list;
}

let reset_seen (plan : Ir.plan) =
  List.iter
    (fun b -> List.iter (fun (s : Ir.step) -> s.Ir.seen <- 0) b.Ir.steps)
    plan.Ir.branches

(* The one compile function: SQL text, EXPLAIN [ANALYZE], the typed ops
   and the kept Fig. 9 forms all execute what it returns. *)
let compile fr (plan : Ir.plan) =
  let comp = { fr; starts = [] } in
  match plan.Ir.branches with
  | [] -> { frame = fr; starts = []; body = (fun () -> []); columns = [] }
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
        if grouped || aggs <> [] then
          compile_group_by comp first plan.Ir.branches
        else begin
          let out = ref [] in
          let runs =
            List.map
              (fun (branch : Ir.branch) ->
                compile_branch comp branch (fun scope ->
                    let project =
                      compile_projection scope branch.Ir.projections
                    in
                    fun env -> out := project env :: !out))
              plan.Ir.branches
          in
          fun () ->
            out := [];
            List.iter (fun run -> run ()) runs;
            let rows = List.rev !out in
            out := [];
            rows
        end
      in
      { frame = fr;
        starts = List.rev comp.starts;
        body = (fun () -> order_and_limit first plan (rows ()));
        columns = projection_columns first }

let exec c =
  List.iter (fun start -> start ()) c.starts;
  { columns = c.columns; rows = c.body () }

(* Compile [plan] against [ctx] and run it once. *)
let run ctx plan = exec (compile (frame ctx) plan)

(* Compile [plan] for many runs, each against a context of its own: one
   cell per parameter the plan reads, which {!exec_in} fills. *)
let prepare plan = compile { cells = []; open_ = true; ctx = Ir.empty_ctx } plan

let exec_in (ctx : Ir.ctx) c =
  List.iter
    (fun (h, cell) ->
      match List.assoc_opt h ctx.Ir.binds with
      | Some v -> cell := v
      | None -> fail "missing host variable :%s" h)
    c.frame.cells;
  c.frame.ctx <- ctx;
  exec c

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
