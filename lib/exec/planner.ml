(* The typed-op planner: compiles the server's interval operations
   (intersection, the 13 Allen relations, temporal now/infinity queries)
   into the same physical-plan IR the SQL front end produces, so every
   entry point executes through {!Executor} and explains through
   {!Render}.

   This is the only RI-tree query path: the server, SQL, EXPLAIN, the
   benchmarks, the CLI, the examples and the spatial, hierarchy and
   join libraries all read through it, and each runs or renders Fig. 9
   as a tree's {!forms}.

   Access-path selection (Sec. 5): the planner prices the access path
   of the full two-branch UNION ALL plan (Fig. 9/10) and of a filtered
   sequential scan by {!Estimate}'s model, the one EXPLAIN prints, and
   keeps the cheaper: the scan wins when the query is so unselective
   that reading the heap once beats probing (tiny tables, near-full
   coverage). The prices come straight from the node lists and the
   heap's page count ({!path_prices}); no plan is built to price one.
   Without statistics it plans the two-branch plan. All paths return
   exactly the same result set (property-tested against the
   brute-force oracle). *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module Temporal = Interval.Temporal
module Ri = Ritree.Ri_tree
module CM = Ritree.Cost_model

type path = Two_branch | Seq | Mem_path

let path_to_string = function
  | Two_branch -> "two-branch"
  | Seq -> "seq-scan"
  | Mem_path -> "mem"

(* Which columns the caller needs: ids, the (lower, upper, id) triple, or
   every column (for SQL that reads [node]; bypasses the hot tier).
   Whether a step must fetch the base row follows from these and the
   index layout (see [index_step]). *)
type proj = Ir.ri_proj = Ids | Triples | Rows

(* A compiled typed-op query: the IR plan plus the private context
   (parameter bindings and transient node-list collections) it executes
   against. *)
type compiled = Ir.compiled = { plan : Ir.plan; ctx : Ir.ctx }

(* A lookup answers a collection without allocating: the served forms'
   runs look theirs up once per run. *)
let make_ctx ?(vis = Ir.no_vis) binds colls =
  let colls = List.map (fun (name, c) -> (name, Some c)) colls in
  { Ir.binds;
    collection =
      (fun name -> try List.assoc name colls with Not_found -> None);
    intersection = Ir.no_intersection;
    intersection_rows = Ir.no_intersection; vis }

let interval_binds q = [ ("qlow", Ivl.lower q); ("qup", Ivl.upper q) ]

(* [Rows] names the relation's alias [i]: the Fig. 9 branches also bind
   rightNodes, whose [node] column would make a bare name ambiguous. *)
let projections t = function
  | Ids -> [ Ir.Col (None, "id") ]
  | Triples ->
      [ Ir.Col (None, "lower"); Ir.Col (None, "upper"); Ir.Col (None, "id") ]
  | Rows ->
      List.map
        (fun c -> Ir.Col (Some "i", c))
        (Array.to_list (Relation.Table.columns (Ri.table t)))

let plain_plan branches = { Ir.branches; order_by = []; limit = None }

let field a c = Ir.Field (Some a, c)
let incl v = Some { Ir.v; inclusive = true }

(* ---- index steps over the relation ----

   A step reads its index alone (covering) iff every column its
   projections and filters name lies in that index. Under the paper's
   layout that holds only for [Ids] of the plain intersection; under the
   covering layout it holds for every step the planner builds. *)

let value_cols = function
  | Ir.Field ((None | Some "i"), c) -> [ c ]
  | Ir.Field (Some _, _) | Ir.Const _ | Ir.Param _ -> []

let rec pred_cols = function
  | Ir.Cmp (_, a, b) -> value_cols a @ value_cols b
  | Ir.Between (a, b, c) -> value_cols a @ value_cols b @ value_cols c
  | Ir.And (a, b) | Ir.Or (a, b) -> pred_cols a @ pred_cols b
  | Ir.Not a -> pred_cols a

let proj_cols = function
  | Ir.Col ((None | Some "i"), c) -> [ c ]
  | Ir.Col (Some _, _) | Ir.Count_star -> []
  | Ir.Star | Ir.Agg _ -> [ "*" ]

(* The relation step [i] scanning [index]. *)
let index_step t ~projs ?(key_filters = []) ?(filters = []) ~index ?(eq = [])
    ?lo ?hi ?refine_lo ?refine_hi () =
  let table = Ri.table t in
  let icols = Relation.Table.Index.columns index in
  let named =
    List.concat_map proj_cols projs
    @ List.concat_map pred_cols (key_filters @ filters)
  in
  let covering = List.for_all (fun c -> Array.mem c icols) named in
  Ir.mk_step ~alias:"i" ~source:(Ir.Base table)
    ~columns:(if covering then icols else Relation.Table.columns table)
    ~key_filters ~filters
    (Ir.Index_scan
       { index; eq; lo; hi; refine_lo; refine_hi; covering; batched = false })

(* ---- the Fig. 9/10 two-branch UNION ALL plan ---- *)

let left_cols = [| "min"; "max" |]
let right_cols = [| "node" |]

(* [extra] residual filters (the Allen endpoint decompositions) apply to
   the inner step of both branches. The upper-index step checks no
   [i.upper >= :qlow]: its key bounds imply it. A single left node's
   scan starts at (node, :qlow), and an interval registered on a node of
   the BETWEEN range (ql, qu) contains that node, so its upper bound is
   at least :qlow (see [Ri_tree.node_lists]). *)
let two_branch_branches ?(extra = []) ~projs t =
  let upper_step =
    index_step t ~projs ~filters:extra
      ~index:(Ri.upper_index t)
      ?lo:(incl (field "lft" "min")) ?hi:(incl (field "lft" "max"))
      ?refine_lo:(incl (Ir.Param "qlow")) ()
  in
  let lower_step =
    index_step t ~projs ~filters:extra ~index:(Ri.lower_index t)
      ~eq:[ field "rgt" "node" ] ?hi:(incl (Ir.Param "qup")) ()
  in
  [ { Ir.steps =
        [ Ir.mk_step ~alias:"lft" ~source:(Ir.Collection "leftNodes")
            ~columns:left_cols Ir.Seq_scan;
          upper_step ];
      projections = projs; group_by = [] };
    { Ir.steps =
        [ Ir.mk_step ~alias:"rgt" ~source:(Ir.Collection "rightNodes")
            ~columns:right_cols Ir.Seq_scan;
          lower_step ];
      projections = projs; group_by = [] } ]

let two_branch_plan ?extra ~proj t =
  plain_plan (two_branch_branches ?extra ~projs:(projections t proj) t)

(* ---- filtered sequential scan ---- *)

let seq_scan_plan ~proj t =
  let table = Ri.table t in
  plain_plan
    [ { Ir.steps =
          [ Ir.mk_step ~alias:"i" ~source:(Ir.Base table)
              ~columns:(Relation.Table.columns table)
              ~filters:
                [ Ir.Cmp (Ir.Le, field "i" "lower", Ir.Param "qup");
                  Ir.Cmp (Ir.Ge, field "i" "upper", Ir.Param "qlow") ]
              Ir.Seq_scan ];
        projections = projections t proj; group_by = [] } ]

(* ---- Allen-relation decomposition (Sec. 4.5) ----

   Every Allen relation is a conjunction of endpoint comparisons, so
   each compiles to index access plus residual filters:
   - Before/After: one ordered range scan over the nodes strictly
     left/right of the query, with a key-level filter on the bound
     (checked on the index entry, before any fetch);
   - Meets/Met_by: exact-bound probes along the backbone path of the
     shared endpoint;
   - the nine intersection-implying relations: the two-branch plan with
     the endpoint comparisons as extra residual filters. *)

let allen_filters r =
  let l = field "i" "lower" and u = field "i" "upper" in
  let bl = Ir.Param "qlow" and bu = Ir.Param "qup" in
  let ( <. ) a b = Ir.Cmp (Ir.Lt, a, b) in
  let ( =. ) a b = Ir.Cmp (Ir.Eq, a, b) in
  match r with
  | Allen.Overlaps -> [ l <. bl; bl <. u; u <. bu ]
  | Allen.Finished_by -> [ u =. bu; l <. bl ]
  | Allen.Contains -> [ l <. bl; bu <. u ]
  | Allen.Starts -> [ l =. bl; u <. bu ]
  | Allen.Equals -> [ l =. bl; u =. bu ]
  | Allen.Started_by -> [ l =. bl; bu <. u ]
  | Allen.During -> [ bl <. l; u <. bu ]
  | Allen.Finishes -> [ u =. bu; bl <. l ]
  | Allen.Overlapped_by -> [ bl <. l; l <. bu; bu <. u ]
  | Allen.Before | Allen.After | Allen.Meets | Allen.Met_by ->
      invalid_arg "allen_filters: not an intersection-implying relation"

(* The node-space bounds of Before and After: :beforeNode is the last
   node strictly left of the query (qlow - offset - 1), :afterNode the
   first strictly right of it (qup - offset + 1). *)
let allen_plan t r =
  let projs = projections t Triples in
  let single_step step =
    plain_plan [ { Ir.steps = [ step ]; projections = projs; group_by = [] } ]
  in
  let path_probe ~index ~bound_param =
    let probe =
      index_step t ~projs
        ~filters:
          [ Ir.Cmp (Ir.Lt, field "i" "lower", field "i" "upper");
            Ir.Cmp (Ir.Lt, Ir.Param "qlow", Ir.Param "qup") ]
        ~index ~eq:[ field "pth" "node"; Ir.Param bound_param ] ()
    in
    plain_plan
      [ { Ir.steps =
            [ Ir.mk_step ~alias:"pth" ~source:(Ir.Collection "pathNodes")
                ~columns:right_cols Ir.Seq_scan;
              probe ];
          projections = projs; group_by = [] } ]
  in
  match r with
  | Allen.Before ->
      (* i.upper < qlow implies node <= i.upper - offset < qlow - offset:
         one ordered scan over all nodes strictly left of the query. *)
      single_step
        (index_step t ~projs
           ~key_filters:[ Ir.Cmp (Ir.Lt, field "i" "upper", Ir.Param "qlow") ]
           ~index:(Ri.upper_index t) ?hi:(incl (Ir.Param "beforeNode")) ())
  | Allen.After ->
      (* i.lower > qup implies node >= i.lower - offset > qup - offset.
         Stop short of the temporal sentinel nodes. *)
      single_step
        (index_step t ~projs
           ~key_filters:[ Ir.Cmp (Ir.Gt, field "i" "lower", Ir.Param "qup") ]
           ~index:(Ri.lower_index t) ?lo:(incl (Ir.Param "afterNode"))
           ?hi:(incl (Ir.Const (Ri.fork_now - 1))) ())
  | Allen.Meets ->
      path_probe ~index:(Ri.upper_index t) ~bound_param:"qlow"
  | Allen.Met_by -> path_probe ~index:(Ri.lower_index t) ~bound_param:"qup"
  | Allen.Overlaps | Allen.Finished_by | Allen.Contains | Allen.Starts
  | Allen.Equals | Allen.Started_by | Allen.During | Allen.Finishes
  | Allen.Overlapped_by ->
      two_branch_plan ~extra:(allen_filters r) ~proj:Triples t

(* ---- RAM-resident hot-tier probe ---- *)

let mem_plan ?stats ~proj t (h : Ir.mem_handle) op q =
  let est_rows =
    match (op, stats) with
    | Ir.Mem_intersect, Some st -> CM.Stats.estimate_result_size st q
    | _ -> h.Ir.mem_rows
  in
  let step =
    Ir.mk_step ~alias:"m" ~source:(Ir.Mem h)
      ~columns:[| "lower"; "upper"; "id" |]
      (Ir.Mem_probe
         { op; lo = Ir.Param "qlow"; hi = Ir.Param "qup"; est_rows })
  in
  { plan =
      plain_plan
        [ { Ir.steps = [ step ]; projections = projections t proj;
            group_by = [] } ];
    ctx = make_ctx (interval_binds q) [] }

(* ---- cost-based choice (Sec. 5) ---- *)

let total_io ests =
  List.fold_left (fun a e -> a +. e.Estimate.total_io) 0.0 ests

(* The predicted I/O of a compiled plan: the figure EXPLAIN's PREDICTED
   footer prints for it. *)
let price ?stats c =
  total_io (Estimate.branches ?stats c.ctx c.plan.Ir.branches)

(* The disk paths' prices for [q] over its node lists, from exactly
   [stats]: no I/O and no plan, so a query is priced from statistics
   analyzed elsewhere. The access path priced is the plan projecting
   ids, which reads the index alone under either layout; the rowid
   fetches a non-covering projection adds are not priced into the
   choice. Each price is the one {!price} gives that plan, so under the
   covering layout it is the one EXPLAIN prints. *)
let path_prices ~stats t (left, right) q =
  let tbl = Ri.table t in
  [ ( Two_branch,
      Estimate.fig9_io stats tbl ~upper_index:(Ri.upper_index t)
        ~lower_index:(Ri.lower_index t) ~left ~right ~qup:(Ivl.upper q) );
    (Seq, Estimate.heap_pages tbl) ]

(* The cheapest path; a tie keeps the two-branch plan. *)
let cheapest = function
  | [] -> invalid_arg "Planner.cheapest"
  | first :: rest ->
      fst
        (List.fold_left
           (fun ((_, best) as b) ((_, io) as c) -> if io < best then c else b)
           first rest)

(* ---- Fig. 9 as a prepared statement ----

   The paper's Fig. 9 is one static statement: its only inputs are
   :lower, :upper and the transient node lists. A tree's forms are its
   two-branch plan and filtered scan (per projection) and its plan per
   Allen relation, each compiled once against one frame: the qlow/qup
   cells, Before/After's node-space bounds, the node collections
   (leftNodes and rightNodes over the buffers {!Ri.fill_node_lists}
   fills in place, pathNodes for Meets/Met_by) and the snapshot view.
   A query fills the frame and [select] names the form to run: an
   intersection prices both paths from the node lists ({!path_prices})
   and keeps the cheaper. A server keeps one set per tree; a run that
   finds its set busy fills a throwaway set through the same [select]. *)

type form =
  | Form_two of proj
  | Form_seq of proj
  | Form_allen of Allen.relation

type forms = {
  tree : Ri.t;
  node_filter : (int -> bool) option;  (* the skeleton's, for the lists *)
  nodes : Ri.node_buffers;
  left : Ir.coll;  (* leftNodes, over [nodes]' arrays *)
  right : Ir.coll;
  path : Ir.coll;  (* pathNodes: a backbone path, sized on first use *)
  qlow : int ref;
  qup : int ref;
  before_node : int ref;
  after_node : int ref;
  vis : (string -> Relation.Txn.view option) ref;
  frame : Executor.frame;
  mutable compiled : (form * Executor.compiled) list;
  mutable busy : bool;
}

(* leftNodes and rightNodes over [nodes]' arrays, as last filled. *)
let node_colls (nodes : Ri.node_buffers) =
  ( { Ir.cols = left_cols; cells = nodes.Ri.left; rows = nodes.Ri.n_left },
    { Ir.cols = right_cols; cells = nodes.Ri.right; rows = nodes.Ri.n_right } )

let prepare ?node_filter tree =
  let nodes = Ri.node_buffers () in
  let left, right = node_colls nodes in
  let path = { Ir.cols = right_cols; cells = [||]; rows = 0 } in
  let qlow = ref 0 and qup = ref 0 and vis = ref Ir.no_vis in
  let before_node = ref 0 and after_node = ref 0 in
  let ctx =
    make_ctx ~vis:(fun name -> !vis name) []
      [ ("leftNodes", left); ("rightNodes", right); ("pathNodes", path) ]
  in
  let cells =
    [ ("qlow", qlow); ("qup", qup); ("beforeNode", before_node);
      ("afterNode", after_node) ]
  in
  { tree; node_filter; nodes; left; right; path; qlow; qup; before_node;
    after_node; vis; frame = { Executor.cells; open_ = false; ctx };
    compiled = []; busy = false }

let forms_tree f = f.tree

let form_plan t = function
  | Form_two proj -> two_branch_plan ~proj t
  | Form_seq proj -> seq_scan_plan ~proj t
  | Form_allen r -> allen_plan t r

let compiled_form f form =
  match List.assoc_opt form f.compiled with
  | Some c -> c
  | None ->
      let c = Executor.compile f.frame (form_plan f.tree form) in
      f.compiled <- (form, c) :: f.compiled;
      c

let fill_lists f q =
  Ri.fill_node_lists ?node_filter:f.node_filter f.tree q f.nodes;
  f.left.Ir.cells <- f.nodes.Ri.left;
  f.left.Ir.rows <- f.nodes.Ri.n_left;
  f.right.Ir.cells <- f.nodes.Ri.right;
  f.right.Ir.rows <- f.nodes.Ri.n_right

(* Every interval with a bound equal to value [x] is registered on the
   backbone path of [x] (Sec. 4.1), so O(h) exact probes cover
   Meets/Met_by. An empty tree has no path, and empty Before/After
   ranges. *)
let fill_path f x =
  let ps = Ri.params f.tree and p = f.path in
  if p.Ir.cells = [||] then p.Ir.cells <- Array.make (Sys.int_size + 1) 0;
  p.Ir.rows <- 0;
  Option.iter
    (fun off ->
      Ritree.Backbone.path
        { Ritree.Backbone.left_root = ps.Ri.left_root;
          right_root = ps.Ri.right_root }
        ~min_level:ps.Ri.min_level (x - off)
        (fun w ->
          p.Ir.cells.(p.Ir.rows) <- w;
          p.Ir.rows <- p.Ir.rows + 1))
    ps.Ri.offset

let fill_allen f r q =
  match r with
  | Allen.Before | Allen.After -> (
      match (Ri.params f.tree).Ri.offset with
      | Some off ->
          f.before_node := Ivl.lower q - off - 1;
          f.after_node := Ivl.upper q - off + 1
      | None -> f.before_node := min_int; f.after_node := max_int)
  | Allen.Meets -> fill_path f (Ivl.lower q)
  | Allen.Met_by -> fill_path f (Ivl.upper q)
  | Allen.Overlaps | Allen.Finished_by | Allen.Contains | Allen.Starts
  | Allen.Equals | Allen.Started_by | Allen.During | Allen.Finishes
  | Allen.Overlapped_by ->
      fill_lists f q

type target =
  | Intersect_target of Ivl.t
  | Allen_target of Allen.relation * Ivl.t

(* What answers a read: a resident replica's probe, or a form over the
   frame filled for it. *)
type choice = Mem_choice of compiled | Form_choice of form

(* The one choice. A resident replica answers with no I/O, so its probe
   wins whenever the caller holds one and [path] names no disk path;
   an intersection takes the cheaper disk path by [stats], and the
   two-branch plan without them. *)
let select f ?stats ?path ?mem ~vis ~proj target =
  let q = match target with Intersect_target q | Allen_target (_, q) -> q in
  f.vis := vis;
  f.qlow := Ivl.lower q;
  f.qup := Ivl.upper q;
  match target with
  | Intersect_target _ -> (
      (* the replica holds (lower, upper, id) only *)
      let mem = if proj = Rows then None else mem in
      match (path, mem) with
      | (Some Mem_path | None), Some h ->
          Mem_choice (mem_plan ?stats ~proj f.tree h Ir.Mem_intersect q)
      | Some Mem_path, None ->
          invalid_arg "Planner: memory path without a handle"
      | (Some (Two_branch | Seq) | None), _ ->
          fill_lists f q;
          Form_choice
            (match (path, stats) with
            | Some Seq, _ -> Form_seq proj
            | None, Some stats
              when cheapest (path_prices ~stats f.tree (f.left, f.right) q)
                   = Seq ->
                Form_seq proj
            | _ -> Form_two proj))
  | Allen_target (r, _) -> (
      match mem with
      | Some h ->
          (* A resident HINT answers every Allen relation directly (the
             Allen_probe reduction); nothing on disk is touched. *)
          Mem_choice (mem_plan ~proj:Triples f.tree h (Ir.Mem_relation r) q)
      | None ->
          fill_allen f r q;
          Form_choice (Form_allen r))

let run c = Executor.run c.ctx c.plan

(* Run what [select] names on [f]'s compiled forms, or on a throwaway
   set when a run is already in progress on [f]. *)
let rec serve f ?stats ?mem ~vis ~proj target =
  if f.busy then
    serve (prepare ?node_filter:f.node_filter f.tree) ?stats ?mem ~vis ~proj
      target
  else begin
    f.busy <- true;
    match
      match select f ?stats ?mem ~vis ~proj target with
      | Mem_choice c -> run c
      | Form_choice form -> Executor.exec (compiled_form f form)
    with
    | out ->
        f.busy <- false;
        out
    | exception e ->
        f.busy <- false;
        raise e
  end

(* {!plan_intersection} and its run, served from [f]'s forms. *)
let intersect f ?stats ?mem ?(vis = Ir.no_vis) ~proj q =
  serve f ?stats ?mem ~vis ~proj (Intersect_target q)

(* {!plan_allen} and its run, served from [f]'s forms. *)
let allen f ?mem ?(vis = Ir.no_vis) r q =
  serve f ?mem ~vis ~proj:Triples (Allen_target (r, q))

(* ---- ad-hoc entry points ----

   Each fills a throwaway set of forms through [select] and returns the
   IR of the form it names, over that set's frame with its cells bound:
   the plan a served query compiles from, which EXPLAIN renders. *)

let plan_target ?stats ?path ?mem ?node_filter ?(vis = Ir.no_vis) ~proj t
    target =
  let f = prepare ?node_filter t in
  match select f ?stats ?path ?mem ~vis ~proj target with
  | Mem_choice c -> c
  | Form_choice form ->
      let binds = List.map (fun (h, c) -> (h, !c)) f.frame.Executor.cells in
      { plan = form_plan t form; ctx = { f.frame.Executor.ctx with Ir.binds } }

let plan_intersection ?stats ?path ?mem ?node_filter ?vis ~proj t q =
  plan_target ?stats ?path ?mem ?node_filter ?vis ~proj t (Intersect_target q)

let plan_allen ?mem ?vis t r q =
  plan_target ?mem ?vis ~proj:Triples t (Allen_target (r, q))

let prices ?node_filter ~stats t q =
  let f = prepare ?node_filter t in
  fill_lists f q;
  path_prices ~stats t (f.left, f.right) q

let choose ?mem t stats q =
  match
    select (prepare t) ~stats ?mem ~vis:Ir.no_vis ~proj:Ids
      (Intersect_target q)
  with
  | Mem_choice _ -> Mem_path
  | Form_choice (Form_seq _) -> Seq
  | Form_choice (Form_two _ | Form_allen _) -> Two_branch

(* The first column of every result row: the ids of an [Ids] plan. *)
let ids c = List.map (fun (r : int array) -> r.(0)) (run c).Executor.rows

(* The (interval, id) pairs of a [Triples] plan. *)
let triples c =
  List.map
    (fun (r : int array) -> (Ivl.make r.(0) r.(1), r.(2)))
    (run c).Executor.rows

let intersecting_ids ?stats ?path ?mem ?node_filter ?vis t q =
  ids (plan_intersection ?stats ?path ?mem ?node_filter ?vis ~proj:Ids t q)

let intersecting ?stats ?path ?mem ?vis t q =
  triples (plan_intersection ?stats ?path ?mem ?vis ~proj:Triples t q)

let stabbing_ids ?stats t p = intersecting_ids ?stats t (Ivl.point p)

let allen_matches ?mem ?vis t r q = triples (plan_allen ?mem ?vis t r q)

let allen_ids ?mem ?vis t r q = List.map snd (allen_matches ?mem ?vis t r q)

(* ---- partition joins (the Tile Index and the Window-List, Sec. 6) ----

   A transient collection of partition numbers [first..last] joined to a
   covering index led by the partition column: the intersection test on
   the entry's bounds [lower_col]/[upper_col] is the residual filter, and
   grouping on id drops the duplicates that redundant registration
   produces, keeping each id once in first-seen order. The probes are
   batched: every partition's descent precedes the first leaf scan. *)
let partition_join ~collection:(name, col) ~index
    ~bounds:(lower_col, upper_col) ~first ~last table q =
  let parts =
    Ir.mk_step ~alias:"p" ~source:(Ir.Collection name) ~columns:[| col |]
      Ir.Seq_scan
  in
  let scan =
    Ir.mk_step ~alias:"i" ~source:(Ir.Base table)
      ~columns:(Relation.Table.Index.columns index)
      ~filters:
        [ Ir.Cmp (Ir.Le, field "i" lower_col, Ir.Param "qup");
          Ir.Cmp (Ir.Ge, field "i" upper_col, Ir.Param "qlow") ]
      (Ir.Index_scan
         { index; eq = [ field "p" col ]; lo = None; hi = None;
           refine_lo = None; refine_hi = None; covering = true;
           batched = true })
  in
  let parts_rows = List.init (last - first + 1) (fun i -> [| first + i |]) in
  { plan =
      plain_plan
        [ { Ir.steps = [ parts; scan ];
            projections = [ Ir.Col (Some "i", "id") ];
            group_by = [ (Some "i", "id") ] } ];
    ctx = make_ctx (interval_binds q) [ (name, Ir.coll [| col |] parts_rows) ] }

(* ---- temporal now/infinity rewrite (Sec. 4.6) ----

   The finite intervals run through the ordinary two-branch plan; a
   third branch joins the reserved sentinel nodes as one more transient
   collection carrying its own per-node lower-bound cap (fork_now is
   capped at [now]; it only joins at all when the query begins in the
   past). All branches project (node, lower, upper, id) so the caller
   can decode the sentinel rows by their reserved node value. *)

(* qualified: the sentinel collection [s] and the rightNodes collection
   both carry a [node] column, so bare names would be ambiguous *)
let temporal_projs =
  [ Ir.Col (Some "i", "node"); Ir.Col (Some "i", "lower");
    Ir.Col (Some "i", "upper"); Ir.Col (Some "i", "id") ]

let plan_temporal store ~now q =
  let t = Ritree.Temporal_store.ri store in
  let nodes = Ri.node_buffers () in
  Ri.fill_node_lists t q nodes;
  let left, right = node_colls nodes in
  let qlow = Ivl.lower q and qup = Ivl.upper q in
  let finite = two_branch_branches ~projs:temporal_projs t in
  let sentinel_step =
    index_step t ~projs:temporal_projs ~index:(Ri.lower_index t)
      ~eq:[ field "s" "node" ] ?hi:(incl (field "s" "maxLower")) ()
  in
  let sentinel_branch =
    { Ir.steps =
        [ Ir.mk_step ~alias:"s" ~source:(Ir.Collection "sentinelNodes")
            ~columns:[| "node"; "maxLower" |] Ir.Seq_scan;
          sentinel_step ];
      projections = temporal_projs; group_by = [] }
  in
  let sentinels =
    [| Ri.fork_infinity; qup |]
    :: (if qlow <= now then [ [| Ri.fork_now; min qup now |] ] else [])
  in
  { plan = plain_plan (finite @ [ sentinel_branch ]);
    ctx =
      make_ctx (interval_binds q)
        [ ("leftNodes", left); ("rightNodes", right);
          ("sentinelNodes", Ir.coll [| "node"; "maxLower" |] sentinels) ] }

let temporal_matches store ~now q =
  List.map
    (fun (row : int array) ->
      let node = row.(0) and lower = row.(1) and upper = row.(2) in
      if node = Ri.fork_infinity then (Temporal.make lower Temporal.Infinity, row.(3))
      else if node = Ri.fork_now then (Temporal.make lower Temporal.Now, row.(3))
      else (Temporal.fixed (Ivl.make lower upper), row.(3)))
    (run (plan_temporal store ~now q)).Executor.rows

let temporal_ids store ~now q = List.map snd (temporal_matches store ~now q)

(* ---- shared EXPLAIN assembly ----

   One implementation behind SQL EXPLAIN [ANALYZE] and the wire-op
   EXPLAIN: render the plan with cost-model annotations, append the
   PREDICTED footer, and under ANALYZE execute and append actuals. *)

(* EXPLAIN resolves each intersection sub-plan once: the estimate, the
   rendering and, under ANALYZE, the execution all see the same compiled
   sub-plan, so its steps carry their own actual row counts. *)
let memo_intersections ctx =
  let memo = Hashtbl.create 4 in
  let intersection name ~proj q =
    let key = (name, proj, Ivl.lower q, Ivl.upper q) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
        let c = ctx.Ir.intersection name ~proj q in
        Hashtbl.add memo key c;
        c
  in
  (* ANALYZE runs the very sub-plans rendered, so their steps count *)
  let intersection_rows name ~proj q =
    Option.map
      (fun c -> (Executor.run c.ctx c.plan).Executor.rows)
      (intersection name ~proj q)
  in
  { ctx with Ir.intersection; intersection_rows }

let explain_compiled ?stats ?(analyze = false) ctx (plan : Ir.plan) =
  let ctx = memo_intersections ctx in
  let ests = Estimate.branches ?stats ctx plan.Ir.branches in
  let pred_rows =
    List.fold_left (fun a e -> a +. e.Estimate.out_rows) 0.0 ests
  in
  let pred_io = total_io ests in
  let nodes =
    List.fold_left
      (fun a b -> a + Estimate.node_count ctx b)
      0 plan.Ir.branches
  in
  (* per step, its annotation and (for intersection steps) the resolved
     sub-plan's branches, sub-plan steps included *)
  let rec notes actual branches ests =
    List.concat
      (List.map2
         (fun (branch : Ir.branch) est ->
           List.concat
             (List.map2
                (fun (step : Ir.step) (se : Estimate.step_est) ->
                  let s =
                    if actual then
                      Render.est_actual_note ~rows:se.Estimate.est_out
                        ~io:se.Estimate.est_io ~actual:step.Ir.seen
                    else
                      Render.est_note ~rows:se.Estimate.est_out
                        ~io:se.Estimate.est_io
                  in
                  match se.Estimate.sub with
                  | None -> [ (step, (s, None)) ]
                  | Some (c, sub_ests) ->
                      (step, (s, Some c.plan.Ir.branches))
                      :: notes actual c.plan.Ir.branches sub_ests)
                branch.Ir.steps est.Estimate.step_ests))
         branches ests)
  in
  let render actual =
    let notes = notes actual plan.Ir.branches ests in
    let annot step =
      match List.assq_opt step notes with Some (s, _) -> s | None -> ""
    in
    let sub step = Option.bind (List.assq_opt step notes) snd in
    Render.plan ~annot ~sub plan.Ir.branches
    ^ Render.predicted_footer ~nodes ~rows:pred_rows ~io:pred_io
  in
  if not analyze then render false
  else begin
    Executor.reset_seen plan;
    let result, ms, io = Executor.measured (fun () -> Executor.run ctx plan) in
    render true
    ^ Render.actual_footer ~rows:(List.length result.Executor.rows) ~io ~ms
  end

let explain ?stats ?analyze ?mem ?vis t target =
  let c = plan_target ?stats ?mem ?vis ~proj:Triples t target in
  explain_compiled ?stats ?analyze c.ctx c.plan
