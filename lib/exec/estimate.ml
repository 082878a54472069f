(* Cardinality & I/O estimation over the physical-plan IR: the one cost
   model. EXPLAIN prints its numbers and the planner chooses the access
   path by them.

   A Sec. 5-style estimator: each table's statistics object
   ([Ritree.Cost_model.Stats]: per column a 32-bucket equi-width
   histogram, a distinct count and the heap correlation) feeds
   selectivities; index probes cost the matching leaf span
   (plus a rowid fetch per row when the index does not cover); a
   sequential scan costs the heap's page count. Transient collections
   have exact, known cardinality and cost no I/O — they are the
   leftNodes/rightNodes of the paper's Fig. 9 plan, so the predicted
   outer cardinality is exactly the RI-tree node count.

   Root-to-leaf descent pages are charged ONCE per statement per index,
   not once per probe: the upper levels of a B+tree are pinned hot in
   the buffer pool after the first probe, and the PR 4 `bench-explain`
   calibration showed that charging a full descent per node probe
   overshoots actual I/O by 2-5x on the Fig. 9 plans (tens of probes,
   shared root path). *)

module Histogram = Ritree.Cost_model.Histogram
module Stats = Ritree.Cost_model.Stats

let clamp01 f = Float.max 0.0 (Float.min 1.0 f)

let succ_clamped v = if v = max_int then max_int else v + 1

let frac_lt (h : Stats.col) v =
  let total = Histogram.total h.hist in
  if total = 0 then 0.0
  else clamp01 (Histogram.count_below h.hist v /. float_of_int total)

let frac_le h v = frac_lt h (succ_clamped v)

let eq_frac (h : Stats.col) v =
  let total = Histogram.total h.hist in
  if total = 0 then 0.0
  else Float.max (1.0 /. float_of_int total) (frac_le h v -. frac_lt h v)

let distinct_frac (h : Stats.col) =
  if h.distinct <= 0 then 0.1 else 1.0 /. float_of_int h.distinct

(* System R-style defaults when no histogram or no evaluable value. *)
let default_eq = 0.1
let default_range = 1.0 /. 3.0

let hist_for stats c = Option.bind stats (fun st -> Stats.column st c)

(* Compile a value against constants, parameters and the outer rows
   bound under [scope] (concrete outer-collection rows, when the caller
   enumerated them); [None] if it references columns not bound there. *)
let compile ?(scope = []) binds v =
  match Executor.compile_value binds scope v with
  | f -> Some f
  | exception Ir.Error _ -> None

(* A constant or bound parameter; a field has no value outside a scope. *)
let value_of binds = function
  | Ir.Const n -> Some n
  | Ir.Param h ->
      List.find_map (fun (h', v) -> if h' = h then Some v else None) binds
  | Ir.Field _ -> None

let col_of (step : Ir.step) = function
  | Ir.Field (Some a, c) when a = step.Ir.alias -> Some c
  | Ir.Field (None, c) when Array.exists (fun x -> x = c) step.Ir.columns ->
      Some c
  | _ -> None

(* Selectivity of one residual conjunct at [step]. *)
let rec conj_sel stats binds step conj =
  match conj with
  | Ir.And (a, b) -> conj_sel stats binds step a *. conj_sel stats binds step b
  | Ir.Or (a, b) ->
      let sa = conj_sel stats binds step a
      and sb = conj_sel stats binds step b in
      clamp01 (sa +. sb -. (sa *. sb))
  | Ir.Not e -> clamp01 (1.0 -. conj_sel stats binds step e)
  | Ir.Between (e, lo, hi) ->
      conj_sel stats binds step
        (Ir.And (Ir.Cmp (Ir.Ge, e, lo), Ir.Cmp (Ir.Le, e, hi)))
  | Ir.Cmp (op, a, b) -> (
      (* constant predicate: evaluate it outright *)
      match (value_of binds a, value_of binds b) with
      | Some va, Some vb ->
          let holds =
            match op with
            | Ir.Eq -> va = vb
            | Ir.Ne -> va <> vb
            | Ir.Lt -> va < vb
            | Ir.Le -> va <= vb
            | Ir.Gt -> va > vb
            | Ir.Ge -> va >= vb
          in
          if holds then 1.0 else 0.0
      | _ -> (
          let directional col_side op v =
            let h = hist_for stats col_side in
            match (h, v) with
            | Some h, Some v -> (
                match op with
                | Ir.Eq -> eq_frac h v
                | Ir.Ne -> clamp01 (1.0 -. eq_frac h v)
                | Ir.Lt -> frac_lt h v
                | Ir.Le -> frac_le h v
                | Ir.Gt -> clamp01 (1.0 -. frac_le h v)
                | Ir.Ge -> clamp01 (1.0 -. frac_lt h v))
            | _, _ -> (
                match op with
                | Ir.Eq -> (
                    match h with
                    | Some h -> distinct_frac h
                    | None -> default_eq)
                | Ir.Ne -> clamp01 (1.0 -. default_eq)
                | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge -> default_range)
          in
          let mirror = function
            | Ir.Eq -> Ir.Eq
            | Ir.Ne -> Ir.Ne
            | Ir.Lt -> Ir.Gt
            | Ir.Le -> Ir.Ge
            | Ir.Gt -> Ir.Lt
            | Ir.Ge -> Ir.Le
          in
          match (col_of step a, col_of step b) with
          | Some c, _ -> directional c op (value_of binds b)
          | None, Some c -> directional c (mirror op) (value_of binds a)
          | None, None -> 0.5))

let filters_sel stats binds (step : Ir.step) =
  List.fold_left
    (fun acc conj -> acc *. conj_sel stats binds step conj)
    1.0
    (step.Ir.key_filters @ step.Ir.filters)

(* Entries matched per index probe, as a fraction of the index, per
   outer row. The bounds are compiled and their histograms looked up
   once per step; the returned function evaluates them against one
   concrete outer row under [scope], so bounds like the Fig. 9 plan's
   [lft.min]/[lft.max] and [rgt.node] meet the histograms instead of the
   magic default fractions. *)
let access_sel ?scope stats binds (step : Ir.step) : Executor.env -> float =
  match step.Ir.access with
  | Ir.Seq_scan | Ir.Mem_probe _ -> fun _ -> 1.0
  | Ir.Index_scan { index; eq; lo; hi; _ } ->
      let icols = Relation.Table.Index.columns index in
      let const s = fun (_ : Executor.env) -> s in
      let eq_sels =
        Array.of_list
          (List.mapi
             (fun i e ->
               match (hist_for stats icols.(i), compile ?scope binds e) with
               | Some h, Some f -> fun env -> eq_frac h (f env)
               | Some h, None -> const (distinct_frac h)
               | None, _ -> const default_eq)
             eq)
      in
      let rc = List.length eq in
      let range =
        if (lo <> None || hi <> None) && rc < Array.length icols then begin
          let h = hist_for stats icols.(rc) in
          let bound b ~absent ~unknown ~incl ~excl =
            match (b, h) with
            | None, _ -> const absent
            | Some { Ir.v; inclusive }, Some h -> (
                let frac = if inclusive then incl h else excl h in
                match compile ?scope binds v with
                | Some f -> fun env -> frac (f env)
                | None -> const unknown)
            | Some _, None -> const unknown
          in
          let lo_frac =
            bound lo ~absent:0.0 ~unknown:default_range ~incl:frac_lt
              ~excl:frac_le
          and hi_frac =
            bound hi ~absent:1.0 ~unknown:(1.0 -. default_range)
              ~incl:frac_le ~excl:frac_lt
          in
          Some (fun env -> clamp01 (hi_frac env -. lo_frac env))
        end
        else None
      in
      fun env ->
        let sel = ref 1.0 in
        for i = 0 to Array.length eq_sels - 1 do
          sel := !sel *. eq_sels.(i) env
        done;
        match range with None -> !sel | Some r -> !sel *. r env

let index_geometry index =
  let tree = Relation.Table.Index.tree index in
  let leaf_cap = Btree.leaf_capacity tree in
  let entries = max 1 (Btree.count tree) in
  let depth =
    Float.max 1.0
      (log (float_of_int (max 2 entries)) /. log (float_of_int leaf_cap))
  in
  (float_of_int entries, float_of_int leaf_cap, depth)

(* The heap's page count now, an in-memory field: the statistics'
   histograms age until the next refresh, but a scan's price follows the
   table as it grows. *)
let heap_pages tbl =
  float_of_int (Relation.Heap.page_count (Relation.Table.heap tbl))

type step_est = {
  est_out : float;  (* rows emitted by this step across the whole run *)
  est_io : float;   (* physical I/O attributed to this step *)
  sub : (Ir.compiled * branch_est list) option;
      (* an [Intersection] step's resolved sub-plan and its estimate *)
}

and branch_est = {
  step_ests : step_est list;
  out_rows : float;
  total_io : float;
}

(* An [Intersection] step's sub-plan, when the context can plan it now:
   the step opens a single-table branch, so its bounds are constants or
   parameters, and a parameter without a bind leaves it unresolved. *)
let sub_plan ctx (step : Ir.step) =
  match step.Ir.source with
  | Ir.Intersection { upper; lower; _ } -> (
      match (value_of ctx.Ir.binds upper, value_of ctx.Ir.binds lower) with
      | Some upper, Some lower -> (
          match Executor.intersection_sub ctx step ~upper ~lower with
          | c -> Some c
          | exception Ir.Error _ -> None)
      | _ -> None)
  | Ir.Base _ | Ir.Collection _ | Ir.Mem _ -> None

(* Estimate all branches of one statement together: the statement-wide
   [charged] set implements descent-once costing across branches that
   probe the same index, and the table statistics are shared with any
   intersection sub-plans. [stats] prices the table it was analyzed on
   with no I/O; any other table is analyzed here, once per call. *)
let branches ?stats ctx (brs : Ir.branch list) =
  let analyzed : (string, Stats.t) Hashtbl.t = Hashtbl.create 4 in
  let stats_for tbl =
    let name = Relation.Table.name tbl in
    match stats with
    | Some st when Stats.table st = name -> st
    | _ -> (
        match Hashtbl.find_opt analyzed name with
        | Some st -> st
        | None ->
            let st = Stats.of_table tbl in
            Hashtbl.add analyzed name st;
            st)
  in
  let charged : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* Enumerating the cross product of outer transient collections is
     bounded: past this many concrete environments the estimator falls
     back to the default selectivity fractions. *)
  let max_envs = 1024 in
  let rec estimate ctx brs =
    let binds = ctx.Ir.binds in
    List.map
      (fun (branch : Ir.branch) ->
        let loop = ref 1.0 in
        let total = ref 0.0 in
        (* [Some (scope, envs)]: the concrete outer rows this step will
           be probed under (collections have known contents at plan
           time); [None] once a base-table step or the cap makes them
           unenumerable. *)
        let envs = ref (Some ([], [ [||] ])) in
        let step_ests =
          List.map
            (fun (step : Ir.step) ->
              let sel st = filters_sel st binds step in
              (* a full read of the table's heap *)
              let scan tbl =
                let st = stats_for tbl in
                ( float_of_int (Stats.row_count st),
                  !loop *. heap_pages tbl,
                  sel (Some st),
                  None )
              in
              let per_rows, io, sel, sub =
                match (step.Ir.source, step.Ir.access) with
                | Ir.Collection name, _ ->
                    let coll = ctx.Ir.collection name in
                    let n =
                      match coll with
                      | Some (_, rows) -> List.length rows
                      | None -> 0
                    in
                    (match (!envs, coll) with
                    | Some (scope, es), Some (cols, rows)
                      when n > 0 && List.length es * n <= max_envs ->
                        envs :=
                          Some
                            ( scope @ [ (step.Ir.alias, cols) ],
                              List.concat_map
                                (fun e ->
                                  List.map (fun r -> Array.append e [| r |]) rows)
                                es )
                    | _ -> envs := None);
                    (float_of_int n, 0.0, sel None, None)
                | Ir.Intersection { table; _ }, _ -> (
                    envs := None;
                    match sub_plan ctx step with
                    | Some c ->
                        let ests = estimate c.Ir.ctx c.Ir.plan.Ir.branches in
                        let sum f =
                          List.fold_left (fun a e -> a +. f e) 0.0 ests
                        in
                        (* the candidates are the answer up to extra
                           conjuncts: the residual filters re-check the
                           recognised ones, so they are not charged *)
                        ( sum (fun e -> e.out_rows),
                          !loop *. sum (fun e -> e.total_io),
                          1.0,
                          Some (c, ests) )
                    | None -> scan table)
                | Ir.Mem h, access ->
                    (* RAM-resident probe: no physical I/O by construction;
                       the planner already sized the result when it chose
                       the tier. *)
                    let rows =
                      match access with
                      | Ir.Mem_probe { est_rows; _ } -> est_rows
                      | Ir.Seq_scan | Ir.Index_scan _ -> h.Ir.mem_rows
                    in
                    envs := None;
                    (float_of_int rows, 0.0, sel None, None)
                | Ir.Base _, Ir.Mem_probe _ ->
                    Ir.fail "memory probe against a base table"
                | Ir.Base tbl, Ir.Seq_scan ->
                    envs := None;
                    scan tbl
                | Ir.Base tbl, Ir.Index_scan { index; covering; eq; _ } ->
                    let st = stats_for tbl in
                    let entries, leaf_cap, depth = index_geometry index in
                    let iname = Relation.Table.Index.name index in
                    let descent =
                      if Hashtbl.mem charged iname then 0.0
                      else begin
                        Hashtbl.add charged iname ();
                        depth
                      end
                    in
                    let probe_io m = Float.max 1.0 (m /. leaf_cap) in
                    (* Rowid fetches hit distinct heap pages, not one page
                       per row: repeated fetches of a page are buffer-pool
                       hits within the statement. Blend the two extremes
                       by the scanned key column's heap correlation —
                       consecutive pages when the column tracks insertion
                       order (the Poisson-arrival distributions D3/D4), a
                       Cardenas random scatter when it does not. *)
                    let fetch_io total_rows =
                      if covering || total_rows <= 0.0 then 0.0
                      else begin
                        let p = Float.max 1.0 (heap_pages tbl) in
                        let random =
                          p *. (1.0 -. ((1.0 -. (1.0 /. p)) ** total_rows))
                        in
                        let rows_per_page =
                          Float.max 1.0
                            (float_of_int (Stats.row_count st) /. p)
                        in
                        let clustered =
                          Float.min random ((total_rows /. rows_per_page) +. 1.0)
                        in
                        let icols = Relation.Table.Index.columns index in
                        let rc = min (List.length eq) (Array.length icols - 1) in
                        let c2 =
                          match hist_for (Some st) icols.(rc) with
                          | Some h -> h.Stats.corr *. h.Stats.corr
                          | None -> 0.0
                        in
                        (c2 *. clustered) +. ((1.0 -. c2) *. random)
                      end
                    in
                    let est =
                      match !envs with
                      | Some (scope, (_ :: _ as es)) ->
                          (* average the per-probe span over the actual
                             outer rows *)
                          let k = float_of_int (List.length es) in
                          let sel = access_sel ~scope (Some st) binds step in
                          let m_sum = ref 0.0 and io_sum = ref 0.0 in
                          List.iter
                            (fun env ->
                              let m = entries *. sel env in
                              m_sum := !m_sum +. m;
                              io_sum := !io_sum +. probe_io m)
                            es;
                          let m_avg = !m_sum /. k in
                          ( m_avg,
                            descent
                            +. (!loop *. (!io_sum /. k))
                            +. fetch_io (!loop *. m_avg) )
                      | _ ->
                          let m =
                            entries *. access_sel (Some st) binds step [||]
                          in
                          ( m,
                            descent +. (!loop *. probe_io m)
                            +. fetch_io (!loop *. m) )
                    in
                    envs := None;
                    (fst est, snd est, sel (Some st), None)
              in
              let out = !loop *. per_rows *. sel in
              total := !total +. io;
              loop := out;
              { est_out = out; est_io = io; sub })
            branch.Ir.steps
        in
        { step_ests; out_rows = !loop; total_io = !total })
      brs
  in
  estimate ctx brs

(* Outer-collection cardinality of a branch: the RI-tree node count
   when the plan is the paper's Fig. 9 shape, or contains it as an
   intersection sub-plan. *)
let rec node_count ctx (branch : Ir.branch) =
  List.fold_left
    (fun acc (step : Ir.step) ->
      match step.Ir.source with
      | Ir.Collection name -> (
          match ctx.Ir.collection name with
          | Some (_, rows) -> acc + List.length rows
          | None -> acc)
      | Ir.Intersection _ -> (
          match sub_plan ctx step with
          | Some c ->
              List.fold_left
                (fun a b -> a + node_count c.Ir.ctx b)
                acc c.Ir.plan.Ir.branches
          | None -> acc)
      | Ir.Base _ | Ir.Mem _ -> acc)
    0 branch.Ir.steps
