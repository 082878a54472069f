module Ivl = Interval.Ivl

let max_bound_magnitude = 1 lsl 40
let fork_infinity = max_int
let fork_now = max_int - 1

type layout = Paper | Covering

type t = {
  name : string;
  table : Relation.Table.t;
  lower_index : Relation.Table.Index.t;
  upper_index : Relation.Table.Index.t;
  params_table : Relation.Table.t;
  mutable params_rowid : int option;
  mutable offset : int option;
  mutable roots : Backbone.roots;
  mutable min_level : int;
  mutable next_id : int;
}

type params = {
  offset : int option;
  left_root : int;
  right_root : int;
  min_level : int;
}

(* Column positions in the base table (node, lower, upper, id). *)
let col_lower = 1
let col_upper = 2

(* Key columns of the lower and upper index. [Paper] is Fig. 2; [Covering]
   adds the other bound, so every step of the server's plans reads the
   index alone. *)
let index_columns = function
  | Paper -> ([ "node"; "lower"; "id" ], [ "node"; "upper"; "id" ])
  | Covering ->
      ([ "node"; "lower"; "upper"; "id" ], [ "node"; "upper"; "lower"; "id" ])

(* [open_existing] accepts the index columns of either layout and
   nothing else. *)
let check_layout ~lower ~upper =
  let cols i = Array.to_list (Relation.Table.Index.columns i) in
  if
    not
      (List.exists
         (fun l -> index_columns l = (cols lower, cols upper))
         [ Paper; Covering ])
  then
    failwith
      (Printf.sprintf "Ri_tree: %s and %s are not RI-tree indexes"
         (Relation.Table.Index.name lower) (Relation.Table.Index.name upper))

let create_tables ?(bulk = false) ?(layout = Paper) ~name catalog =
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "node"; "lower"; "upper"; "id" ]
  in
  let lower_cols, upper_cols = index_columns layout in
  let mk_indexes () =
    let lower_index =
      Relation.Table.create_index ~bulk table ~name:(name ^ "_lower")
        ~columns:lower_cols
    in
    let upper_index =
      Relation.Table.create_index ~bulk table ~name:(name ^ "_upper")
        ~columns:upper_cols
    in
    (lower_index, upper_index)
  in
  let params_table =
    Relation.Catalog.create_table catalog ~name:(name ^ "_params")
      ~columns:
        [ "offset_set"; "offset"; "left_root"; "right_root"; "min_level";
          "next_id" ]
  in
  (table, mk_indexes, params_table)

let make ~name ~table ~lower_index ~upper_index ~params_table =
  { name; table; lower_index; upper_index; params_table;
    params_rowid = None; offset = None; roots = Backbone.empty_roots;
    min_level = Backbone.max_level; next_id = 0 }

let create ?(name = "intervals") ?layout catalog =
  let table, mk_indexes, params_table = create_tables ?layout ~name catalog in
  let lower_index, upper_index = mk_indexes () in
  make ~name ~table ~lower_index ~upper_index ~params_table

(* The persistent O(1) data dictionary of Sec. 3.4: one row, updated in
   place. *)
let save_params (t : t) =
  let offset_set, offset =
    match t.offset with None -> (0, 0) | Some o -> (1, o)
  in
  let row =
    [| offset_set; offset; t.roots.Backbone.left_root;
       t.roots.Backbone.right_root; t.min_level; t.next_id |]
  in
  match t.params_rowid with
  | Some rowid -> ignore (Relation.Table.update_row t.params_table rowid row)
  | None -> t.params_rowid <- Some (Relation.Table.insert t.params_table row)

let name t = t.name
let table t = t.table
let lower_index t = t.lower_index
let upper_index t = t.upper_index
let count t = Relation.Table.row_count t.table

let index_entries t =
  Relation.Table.Index.entry_count t.lower_index
  + Relation.Table.Index.entry_count t.upper_index

let relation_pages t =
  Relation.Heap.page_count (Relation.Table.heap t.table)
  + Btree.page_count (Relation.Table.Index.tree t.lower_index)
  + Btree.page_count (Relation.Table.Index.tree t.upper_index)

let params (t : t) =
  { offset = t.offset; left_root = t.roots.Backbone.left_root;
    right_root = t.roots.Backbone.right_root; min_level = t.min_level }

let height t = Backbone.height t.roots ~min_level:t.min_level

(* No [abs]: in OCaml [abs min_int = min_int] (still negative), so an
   [abs]-based magnitude check waves [min_int] through and the backbone
   arithmetic corrupts downstream. Compare against both limits instead. *)
let check_bound v =
  if v > max_bound_magnitude || v < -max_bound_magnitude then
    invalid_arg
      (Printf.sprintf "Ri_tree: bound %d exceeds the supported magnitude" v)

let shifted (t : t) ivl =
  match t.offset with
  | None -> invalid_arg "Ri_tree: empty tree has no data space yet"
  | Some off -> (Ivl.lower ivl - off, Ivl.upper ivl - off)

let fork_node t ivl =
  let l, u = shifted t ivl in
  Backbone.fork (Backbone.expand t.roots ~l ~u) ~l ~u

(* Fork computation and parameter maintenance WITHOUT the physical row
   insert: MVCC sessions buffer the returned row into their write set
   and apply it only at commit. The parameter mutations (id counter,
   widened roots, lowered min_level) are persisted immediately and are
   deliberately NOT rolled back on abort — all three are monotone
   metadata whose only effect on a tree without the row is a skipped id
   and a superset of query probes, never a wrong answer. *)
let prepare_insert ?id (t : t) ivl =
  check_bound (Ivl.lower ivl);
  check_bound (Ivl.upper ivl);
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
  (* Fig. 6: fix the offset at the first insertion, expand the subtree
     roots, then descend to the fork node. *)
  if t.offset = None then t.offset <- Some (Ivl.lower ivl);
  let l, u = shifted t ivl in
  t.roots <- Backbone.expand t.roots ~l ~u;
  let fork, flevel = Backbone.fork_level t.roots ~l ~u in
  if fork <> 0 && flevel < t.min_level then t.min_level <- flevel;
  save_params t;
  (id, [| fork; Ivl.lower ivl; Ivl.upper ivl; id |])

let insert ?id (t : t) ivl =
  let id, row = prepare_insert ?id t ivl in
  ignore (Relation.Table.insert t.table row);
  id

let open_existing ?(name = "intervals") catalog =
  let table = Relation.Catalog.table catalog name in
  let params_table = Relation.Catalog.table catalog (name ^ "_params") in
  let find_index n =
    match Relation.Table.find_index table n with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Ri_tree.open_existing: no index %s" n)
  in
  let lower_index = find_index (name ^ "_lower") in
  let upper_index = find_index (name ^ "_upper") in
  check_layout ~lower:lower_index ~upper:upper_index;
  let t = make ~name ~table ~lower_index ~upper_index ~params_table in
  (* Reload the persistent O(1) data dictionary. *)
  Relation.Table.iter params_table (fun rowid row ->
      t.params_rowid <- Some rowid;
      t.offset <- (if row.(0) = 1 then Some row.(1) else None);
      t.roots <- { Backbone.left_root = row.(2); right_root = row.(3) };
      t.min_level <- row.(4);
      t.next_id <- row.(5));
  t

let bulk_load ?(name = "intervals") ?layout catalog data =
  let table, mk_indexes, params_table =
    create_tables ~bulk:true ?layout ~name catalog
  in
  let offset = ref None in
  let roots = ref Backbone.empty_roots in
  let min_level = ref Backbone.max_level in
  let next_id = ref 0 in
  (* First pass: fix the offset and grow the roots exactly as sequential
     insertion would. *)
  Array.iter
    (fun (ivl, id) ->
      check_bound (Ivl.lower ivl);
      check_bound (Ivl.upper ivl);
      if !offset = None then offset := Some (Ivl.lower ivl);
      let off = Option.get !offset in
      roots :=
        Backbone.expand !roots ~l:(Ivl.lower ivl - off)
          ~u:(Ivl.upper ivl - off);
      if id >= !next_id then next_id := id + 1)
    data;
  (* Second pass: forks under the final roots coincide with the forks
     sequential insertion would have computed (node values are absolute),
     so the loaded table is bit-identical to the incremental one. *)
  Array.iter
    (fun (ivl, id) ->
      let off = Option.get !offset in
      let l = Ivl.lower ivl - off and u = Ivl.upper ivl - off in
      let fork, flevel = Backbone.fork_level !roots ~l ~u in
      if fork <> 0 && flevel < !min_level then min_level := flevel;
      ignore
        (Relation.Table.insert table
           [| fork; Ivl.lower ivl; Ivl.upper ivl; id |]))
    data;
  let lower_index, upper_index = mk_indexes () in
  let t = make ~name ~table ~lower_index ~upper_index ~params_table in
  t.offset <- !offset;
  t.roots <- !roots;
  t.min_level <- !min_level;
  t.next_id <- !next_id;
  save_params t;
  t

(* Locate the physical row a delete would remove, without removing it.
   [ok rowid row] lets MVCC sessions reject rows outside their snapshot
   (or already in their own delete set) and keep scanning. *)
let find_victim ?(ok = fun _ _ -> true) (t : t) ~id ivl =
  match t.offset with
  | None -> None
  | Some _ ->
      let fork = fork_node t ivl in
      let tree = Relation.Table.Index.tree t.lower_index in
      (* Every key column but the rowid is fixed by the victim. *)
      let prefix =
        List.map
          (function
            | "node" -> fork
            | "lower" -> Ivl.lower ivl
            | "upper" -> Ivl.upper ivl
            | _ -> id)
          (Array.to_list (Relation.Table.Index.columns t.lower_index))
      in
      Btree.fold_range tree ~lo:(Btree.lo_pad tree prefix)
        ~hi:(Btree.hi_pad tree prefix)
        (fun acc key ->
          match acc with
          | Some _ -> acc
          | None -> (
              let rowid = key.(Array.length key - 1) in
              match Relation.Table.fetch t.table rowid with
              | Some row when row.(col_upper) = Ivl.upper ivl && ok rowid row
                ->
                  Some (rowid, row)
              | Some _ | None -> None))
        None

let delete (t : t) ~id ivl =
  match find_victim t ~id ivl with
  | Some (rowid, _) -> Relation.Table.delete_row t.table rowid
  | None -> false

(* ------------------------------------------------------------------ *)
(* The transient node tables of the Fig. 9 intersection query. *)

type node_lists = {
  left_nodes : (int * int) list;  (* (min, max); scanned on upperIndex *)
  right_nodes : int list;         (* scanned on lowerIndex *)
}

(* [node_filter] lets the skeleton extension drop probes of single nodes
   known to hold no intervals; a BETWEEN range over more than one node
   is never filtered. *)
let node_lists ?node_filter:(keep = fun _ -> true) (t : t) ivl =
  match t.offset with
  | None -> { left_nodes = []; right_nodes = [] }
  | Some off ->
      (* Stored bounds lie within the supported magnitude, so clamping
         the query to just outside it selects the same intervals and
         keeps the shift by [off] from wrapping. *)
      let clamp v =
        max (-max_bound_magnitude - 1) (min (max_bound_magnitude + 1) v)
      in
      let ql = clamp (Ivl.lower ivl) - off and qu = clamp (Ivl.upper ivl) - off in
      let lefts = ref [] and rights = ref [] in
      Backbone.collect t.roots ~min_level:t.min_level ~ql ~qu
        ~left:(fun w -> if keep w then lefts := (w, w) :: !lefts)
        ~right:(fun w -> if keep w then rights := w :: !rights);
      (* Sec. 4.3: the BETWEEN range joins the leftNodes table as the
         pair (ql, qu); the guard upper >= :lower is implied for it. *)
      if ql <> qu || keep ql then lefts := (ql, qu) :: !lefts;
      { left_nodes = !lefts; right_nodes = !rights }

(* Number of index probes the plan would perform, BETWEEN range
   included (diagnostic for the skeleton extension). *)
let probe_count ?node_filter t ivl =
  let { left_nodes; right_nodes } = node_lists ?node_filter t ivl in
  List.length left_nodes + List.length right_nodes

let check_invariants t =
  Relation.Table.check_invariants t.table;
  let fail fmt = Format.kasprintf failwith fmt in
  (let lr = -t.roots.Backbone.left_root and rr = t.roots.Backbone.right_root in
   if lr <> 0 && lr land (lr - 1) <> 0 then fail "left_root not a power of 2";
   if rr <> 0 && rr land (rr - 1) <> 0 then fail "right_root not a power of 2");
  Relation.Table.iter t.table (fun _ row ->
      let node = row.(0) in
      if node = fork_infinity || node = fork_now then ()
      else begin
        let ivl = Ivl.make row.(col_lower) row.(col_upper) in
        let expected = fork_node t ivl in
        if node <> expected then
          fail "row %s registered at node %d, fork is %d" (Ivl.to_string ivl)
            node expected;
        if node <> 0 && Backbone.level node < t.min_level then
          fail "row at node %d below min_level %d" node t.min_level
      end)

(* ------------------------------------------------------------------ *)
(* Temporal sentinel hooks (Sec. 4.6) *)

let insert_sentinel_row (t : t) ~node ~lower ~upper_code ~id =
  if node <> fork_infinity && node <> fork_now then
    invalid_arg "Ri_tree.insert_sentinel_row: not a sentinel node";
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
  if t.offset = None then t.offset <- Some lower;
  ignore (Relation.Table.insert t.table [| node; lower; upper_code; id |]);
  save_params t;
  id
