module Ivl = Interval.Ivl

type order = D_order | V_order

type t = {
  order : order;
  table : Relation.Table.t;
  index : Relation.Table.Index.t;
  mutable next_id : int;
}

let index_columns = function
  | D_order -> [ "upper"; "lower"; "id" ]
  | V_order -> [ "lower"; "upper"; "id" ]

let create ?(name = "ist") ?(order = D_order) catalog =
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "lower"; "upper"; "id" ]
  in
  let index =
    Relation.Table.create_index table ~name:(name ^ "_idx")
      ~columns:(index_columns order)
  in
  { order; table; index; next_id = 0 }

let bulk_load ?(name = "ist") ?(order = D_order) catalog data =
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "lower"; "upper"; "id" ]
  in
  let next_id = ref 0 in
  Array.iter
    (fun (ivl, id) ->
      if id >= !next_id then next_id := id + 1;
      ignore
        (Relation.Table.insert table [| Ivl.lower ivl; Ivl.upper ivl; id |]))
    data;
  let index =
    Relation.Table.create_index ~bulk:true table ~name:(name ^ "_idx")
      ~columns:(index_columns order)
  in
  { order; table; index; next_id = !next_id }

let order t = t.order

let insert ?id t ivl =
  let id =
    match id with
    | Some i ->
        if i >= t.next_id then t.next_id <- i + 1;
        i
    | None ->
        let i = t.next_id in
        t.next_id <- i + 1;
        i
  in
  ignore (Relation.Table.insert t.table [| Ivl.lower ivl; Ivl.upper ivl; id |]);
  id

let delete t ~id ivl =
  let tree = Relation.Table.Index.tree t.index in
  let k1, k2 =
    match t.order with
    | D_order -> (Ivl.upper ivl, Ivl.lower ivl)
    | V_order -> (Ivl.lower ivl, Ivl.upper ivl)
  in
  let victim =
    Btree.fold_range tree ~lo:[| k1; k2; id; min_int |]
      ~hi:[| k1; k2; id; max_int |]
      (fun acc key -> match acc with Some _ -> acc | None -> Some key.(3))
      None
  in
  match victim with
  | Some rowid -> Relation.Table.delete_row t.table rowid
  | None -> false

let count t = Relation.Table.row_count t.table
let index_entries t = Relation.Table.Index.entry_count t.index

(* Fig. 11 as a plan: one covering range scan bounded on the first key
   column; the bound on the second column cannot be pushed into the scan
   range and stays a residual filter, which is the structural weakness
   the paper exposes. D-order scans from upper >= :qlow to the end of the
   index. *)
let plan t q =
  let module Ir = Exec.Ir in
  let bound p = Some { Ir.v = Ir.Param p; inclusive = true } in
  let cmp op c p = Ir.Cmp (op, Ir.Field (None, c), Ir.Param p) in
  let lo, hi, residual =
    match t.order with
    | D_order -> (bound "qlow", None, cmp Ir.Le "lower" "qup")
    | V_order -> (None, bound "qup", cmp Ir.Ge "upper" "qlow")
  in
  let scan =
    Ir.mk_step ~alias:"i" ~source:(Ir.Base t.table)
      ~columns:(Relation.Table.Index.columns t.index) ~filters:[ residual ]
      (Ir.Index_scan
         { index = t.index; eq = []; lo; hi; refine_lo = None;
           refine_hi = None; covering = true; batched = false })
  in
  { Exec.Planner.plan =
      Exec.Planner.plain_plan
        [ { Ir.steps = [ scan ]; projections = [ Ir.Col (None, "id") ];
            group_by = [] } ];
    ctx = Exec.Planner.make_ctx (Exec.Planner.interval_binds q) [] }

let intersecting_ids t q = Exec.Planner.ids (plan t q)
