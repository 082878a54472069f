(* The one iterator-based executor behind every query path (SQL text,
   typed wire ops, the CLI and the benchmarks). Branches execute as
   right-deep nested loops over `Relation.Iter`-style cursors: transient
   collections and streaming heap scans as outer loops, B+tree range
   probes as inner loops — the Fig. 10 execution shape.

   Every IR node type has exactly one `Obs.Trace` instrumentation point:
   a `sql.branch` span per UNION ALL branch and, when tracing is
   enabled, an `exec.*` span per node invocation (collection iterate,
   seq scan, index probe, group, aggregate, sort). The disabled path
   stays a plain call. *)

exception Error = Ir.Error

let fail = Ir.fail

(* ---------------- environments and evaluation ---------------- *)

(* alias -> (visible columns, current row) *)
type binding = (string * (string array * int array)) list

let col_position columns c =
  let rec go i =
    if i >= Array.length columns then None
    else if columns.(i) = c then Some i
    else go (i + 1)
  in
  go 0

let lookup_col bound alias col =
  match alias with
  | Some a -> (
      match List.assoc_opt a bound with
      | None -> fail "unknown alias %s" a
      | Some (columns, row) -> (
          match col_position columns col with
          | Some i -> row.(i)
          | None -> fail "alias %s has no column %s" a col))
  | None -> (
      let hits =
        List.filter_map
          (fun (_, (columns, row)) ->
            Option.map (fun i -> row.(i)) (col_position columns col))
          bound
      in
      match hits with
      | [ v ] -> v
      | [] -> fail "unknown column %s" col
      | _ -> fail "ambiguous column %s" col)

let eval_value binds (bound : binding) = function
  | Ir.Const n -> n
  | Ir.Param h -> (
      match List.assoc_opt h binds with
      | Some v -> v
      | None -> fail "missing host variable :%s" h)
  | Ir.Field (alias, col) -> lookup_col bound alias col

let rec eval_pred binds (bound : binding) = function
  | Ir.Cmp (op, a, b) ->
      let va = eval_value binds bound a and vb = eval_value binds bound b in
      (match op with
      | Ir.Eq -> va = vb
      | Ir.Ne -> va <> vb
      | Ir.Lt -> va < vb
      | Ir.Le -> va <= vb
      | Ir.Gt -> va > vb
      | Ir.Ge -> va >= vb)
  | Ir.Between (e, lo, hi) ->
      let v = eval_value binds bound e in
      eval_value binds bound lo <= v && v <= eval_value binds bound hi
  | Ir.And (a, b) -> eval_pred binds bound a && eval_pred binds bound b
  | Ir.Or (a, b) -> eval_pred binds bound a || eval_pred binds bound b
  | Ir.Not e -> not (eval_pred binds bound e)

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

(* Key components for an index range bound. An exclusive bound at the
   integer edge admits no key at all, so it yields [None] instead of
   wrapping round to the opposite edge and widening the probe to the
   whole index. *)
let start_key binds bound { Ir.v; inclusive } =
  let x = eval_value binds bound v in
  if inclusive then Some x else if x = max_int then None else Some (x + 1)

let stop_key binds bound { Ir.v; inclusive } =
  let x = eval_value binds bound v in
  if inclusive then Some x else if x = min_int then None else Some (x - 1)

(* The sub-plan an [Intersection] step runs: the candidate interval
   [min(A,B), A] over its relation, planned by the context for this
   execution. *)
let intersection_sub ctx bound (step : Ir.step) =
  match step.Ir.source with
  | Ir.Intersection { table; upper; lower; proj } -> (
      let a = eval_value ctx.Ir.binds bound upper
      and b = eval_value ctx.Ir.binds bound lower in
      let name = Relation.Table.name table in
      match ctx.Ir.intersection name ~proj (Interval.Ivl.make (min a b) a) with
      | Some c -> c
      | None -> fail "%s is not an RI-tree relation of this session" name)
  | Ir.Base _ | Ir.Collection _ | Ir.Mem _ ->
      invalid_arg "Executor.intersection_sub"

let rec run_step ctx bound (step : Ir.step) (emit : binding -> unit) =
  let binds = ctx.Ir.binds in
  let bind columns row = bound @ [ (step.Ir.alias, (columns, row)) ] in
  let visit columns row =
    let b2 = bind columns row in
    if List.for_all (fun f -> eval_pred binds b2 f) step.Ir.filters then begin
      step.Ir.seen <- step.Ir.seen + 1;
      emit b2
    end
  in
  let body () =
    match (step.Ir.source, step.Ir.access) with
    | Ir.Collection name, _ -> (
        match ctx.Ir.collection name with
        | None -> fail "collection %s disappeared" name
        | Some (columns, rows) -> List.iter (fun r -> visit columns r) rows)
    | Ir.Intersection _, _ ->
        let sub = intersection_sub ctx bound step in
        List.iter
          (fun br ->
            List.iter (visit step.Ir.columns) (fst (run_branch sub.Ir.ctx br)))
          sub.Ir.plan.Ir.branches
    | Ir.Mem h, Ir.Mem_probe { op; lo; hi; _ } ->
        let lo = eval_value binds bound lo
        and up = eval_value binds bound hi in
        List.iter
          (fun (l, u, id) -> visit step.Ir.columns [| l; u; id |])
          (h.Ir.mem_probe op ~lo ~up)
    | Ir.Mem _, _ -> fail "hot-tier source requires a memory probe"
    | Ir.Base _, Ir.Mem_probe _ -> fail "memory probe against a base table"
    | Ir.Base tbl, Ir.Seq_scan ->
        (* Streaming scan: the heap cursor behind Iter.heap_scan holds
           one page of rows at a time, so a sequential scan of any size
           runs in constant memory. The appended rowid column is used
           for the snapshot visibility check, then dropped. *)
        let columns = Relation.Table.columns tbl in
        let view = ctx.Ir.vis (Relation.Table.name tbl) in
        let accept =
          match view with
          | None -> fun _ -> true
          | Some v -> v.Relation.Txn.visible
        in
        Relation.Iter.iter
          (fun r ->
            let n = Array.length r in
            if accept r.(n - 1) then visit columns (Array.sub r 0 (n - 1)))
          (Relation.Iter.heap_scan tbl);
        (match view with
        | None -> ()
        | Some v -> List.iter (visit columns) (v.Relation.Txn.extra ()))
    | ( Ir.Base tbl,
        Ir.Index_scan { index; eq; lo; hi; refine_lo; refine_hi; covering } )
      ->
        let tree = Relation.Table.Index.tree index in
        let width = Btree.key_width tree in
        let icols = Relation.Table.Index.columns index in
        let eq_vals = List.map (eval_value binds bound) eq in
        let k = List.length eq_vals in
        let lo_key = Array.make width min_int in
        let hi_key = Array.make width max_int in
        List.iteri
          (fun i v ->
            lo_key.(i) <- v;
            hi_key.(i) <- v)
          eq_vals;
        let empty = ref false in
        let set key i bound_key b =
          match bound_key binds bound b with
          | Some x -> key.(i) <- x
          | None -> empty := true
        in
        Option.iter (set lo_key k start_key) lo;
        Option.iter (set hi_key k stop_key) hi;
        let rpos = k + if lo <> None || hi <> None then 1 else 0 in
        if rpos > k && rpos < width then begin
          Option.iter (set lo_key rpos start_key) refine_lo;
          Option.iter (set hi_key rpos stop_key) refine_hi
        end;
        if not !empty then begin
          let view = ctx.Ir.vis (Relation.Table.name tbl) in
          let accept =
            match view with
            | None -> fun _ -> true
            | Some v -> v.Relation.Txn.visible
          in
          let entry_visit key =
            let entry_ok =
              step.Ir.key_filters = []
              ||
              (* key filters see the index entry (sans rowid), so
                 non-matching entries are skipped without a fetch *)
              let entry = Array.sub key 0 (Array.length key - 1) in
              let b2 = bind icols entry in
              List.for_all (fun f -> eval_pred binds b2 f) step.Ir.key_filters
            in
            if entry_ok then
              if covering then
                visit icols (Array.sub key 0 (Array.length key - 1))
              else
                let rowid = key.(Array.length key - 1) in
                match Relation.Table.fetch tbl rowid with
                | Some row -> visit (Relation.Table.columns tbl) row
                | None -> ()
          in
          Btree.iter_range tree ~lo:lo_key ~hi:hi_key (fun key ->
              if accept key.(Array.length key - 1) then entry_visit key);
          match view with
          | None -> ()
          | Some v ->
              (* Overlay rows are injected per probe: each row's index
                 entry joins exactly the probes whose key range would
                 have contained its physical registration, so UNION ALL
                 branch disjointness and per-probe key filters behave as
                 for physical rows. The rowid slot is unconstrained in
                 every probe (min_int..max_int), so a pseudo-rowid of 0
                 never decides the comparison. *)
              List.iter
                (fun row ->
                  let key = Relation.Table.Index.key_of_row index 0 row in
                  if key_in_range ~lo:lo_key ~hi:hi_key key then
                    if covering then entry_visit key
                    else
                      let entry_ok =
                        step.Ir.key_filters = []
                        ||
                        let entry = Array.sub key 0 (Array.length key - 1) in
                        let b2 = bind icols entry in
                        List.for_all
                          (fun f -> eval_pred binds b2 f)
                          step.Ir.key_filters
                      in
                      if entry_ok then visit (Relation.Table.columns tbl) row)
                (v.Relation.Txn.extra ())
        end
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span (node_span step) ~info:step.Ir.alias body
  else body ()

and run_branch ctx (branch : Ir.branch) =
  Obs.Trace.with_span "sql.branch"
    ~info:
      (String.concat "," (List.map (fun s -> s.Ir.alias) branch.Ir.steps))
  @@ fun () ->
  let rows = ref [] in
  let count = ref 0 in
  let rec loop bound = function
    | [] ->
        incr count;
        let row =
          List.concat_map
            (function
              | Ir.Star ->
                  List.concat_map
                    (fun (_, (_, row)) -> Array.to_list row)
                    bound
              | Ir.Count_star -> []
              | Ir.Agg _ -> fail "aggregate outside an aggregate query"
              | Ir.Col (alias, c) -> [ lookup_col bound alias c ])
            branch.Ir.projections
        in
        rows := Array.of_list row :: !rows
    | step :: rest -> run_step ctx bound step (fun b2 -> loop b2 rest)
  in
  loop [] branch.Ir.steps;
  (List.rev !rows, !count)

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

(* GROUP BY: one pass over the branch's rows, accumulating per group
   key. Plain projections must be grouping columns; aggregate order-by
   keys are not supported. *)
let run_group_by ctx (branch : Ir.branch) =
  Obs.Trace.with_span "exec.group" @@ fun () ->
  let group = branch.Ir.group_by in
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
    branch.Ir.projections;
  let agg_cols =
    List.filter_map
      (function
        | Ir.Agg (_, target) -> Some target
        | Ir.Count_star | Ir.Star | Ir.Col _ -> None)
      branch.Ir.projections
  in
  let branch' =
    { branch with
      Ir.projections =
        List.map (fun (a, c) -> Ir.Col (a, c)) group
        @ List.map (fun (a, c) -> Ir.Col (a, c)) agg_cols }
  in
  let rows, _ = run_branch ctx branch' in
  let karity = List.length group in
  let groups : (int list, int * int list array) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = Array.to_list (Array.sub row 0 karity) in
      let vals =
        Array.init (List.length agg_cols) (fun i -> row.(karity + i))
      in
      match Hashtbl.find_opt groups key with
      | Some (count, lists) ->
          Array.iteri (fun i v -> lists.(i) <- v :: lists.(i)) vals;
          Hashtbl.replace groups key (count + 1, lists)
      | None ->
          order := key :: !order;
          Hashtbl.replace groups key (1, Array.map (fun v -> [ v ]) vals))
    rows;
  List.rev_map
    (fun key ->
      let count, lists = Hashtbl.find groups key in
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
                List.nth key (pos 0 group)
            | Ir.Count_star -> count
            | Ir.Agg (agg, _) -> (
                let vs = lists.(!next) in
                incr next;
                match agg with
                | Ir.Count -> List.length vs
                | Ir.Sum -> List.fold_left ( + ) 0 vs
                | Ir.Min -> List.fold_left min (List.hd vs) vs
                | Ir.Max -> List.fold_left max (List.hd vs) vs)
            | Ir.Star -> assert false)
          branch.Ir.projections
      in
      Array.of_list cells)
    !order

(* Aggregates without GROUP BY are computed over the concatenation of
   all UNION ALL branches; mixing aggregate and plain projections is
   rejected. *)
let run_aggregate ctx branches projections =
  Obs.Trace.with_span "exec.aggregate" @@ fun () ->
  (* per branch, project the columns the aggregates read *)
  let agg_cols =
    List.filter_map
      (function
        | Ir.Agg (_, target) -> Some target
        | Ir.Count_star | Ir.Star | Ir.Col _ -> None)
      projections
  in
  let count = ref 0 in
  let values = Array.make (List.length agg_cols) [] in
  List.iter
    (fun branch ->
      let branch' =
        { branch with
          Ir.projections =
            List.map (fun t -> Ir.Col (fst t, snd t)) agg_cols }
      in
      let rows, c = run_branch ctx branch' in
      count := !count + c;
      List.iter
        (fun row ->
          Array.iteri (fun i _ -> values.(i) <- row.(i) :: values.(i)) values)
        rows)
    branches;
  let next_value = ref 0 in
  let cells =
    List.map
      (fun p ->
        match p with
        | Ir.Count_star -> !count
        | Ir.Agg (a, _) -> (
            let vs = values.(!next_value) in
            incr next_value;
            match a with
            | Ir.Count -> List.length vs
            | Ir.Sum -> List.fold_left ( + ) 0 vs
            | Ir.Min -> (
                match vs with
                | [] -> fail "MIN over an empty result"
                | v :: rest -> List.fold_left min v rest)
            | Ir.Max -> (
                match vs with
                | [] -> fail "MAX over an empty result"
                | v :: rest -> List.fold_left max v rest))
        | Ir.Star | Ir.Col _ -> assert false)
      projections
  in
  [ Array.of_list cells ]

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
  | first :: _ when first.Ir.group_by <> [] ->
      if List.length plan.Ir.branches > 1 then
        fail "GROUP BY cannot be combined with UNION ALL";
      let rows = run_group_by ctx first in
      { columns = projection_columns first;
        rows = order_and_limit first plan rows }
  | first :: _ ->
      let aggs = List.filter is_aggregate_projection first.Ir.projections in
      if aggs <> [] then begin
        if List.length aggs <> List.length first.Ir.projections then
          fail "cannot mix aggregate and plain projections";
        if plan.Ir.order_by <> [] then
          fail "ORDER BY does not apply to an aggregate query";
        { columns = projection_columns first;
          rows = run_aggregate ctx plan.Ir.branches first.Ir.projections }
      end
      else begin
        let all_rows = ref [] in
        List.iter
          (fun branch ->
            let rows, _ = run_branch ctx branch in
            all_rows := !all_rows @ rows)
          plan.Ir.branches;
        { columns = projection_columns first;
          rows = order_and_limit first plan !all_rows }
      end

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
