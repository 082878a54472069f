type t = {
  ri : Ri_tree.t;
  table : Relation.Table.t; (* (node, count) *)
  (* node -> (count, rowid of the persisted row) *)
  counts : (int, int * int) Hashtbl.t;
}

let materialize t node delta =
  match Hashtbl.find_opt t.counts node with
  | Some (c, rowid) ->
      let c = c + delta in
      if c < 0 then failwith "Skeleton: negative node count";
      Hashtbl.replace t.counts node (c, rowid);
      ignore (Relation.Table.update_row t.table rowid [| node; c |])
  | None ->
      if delta < 0 then failwith "Skeleton: negative node count";
      let rowid = Relation.Table.insert t.table [| node; delta |] in
      Hashtbl.replace t.counts node (delta, rowid)

let skeleton_table_name name = name ^ "_skeleton"

let create ?(name = "intervals") catalog =
  let ri = Ri_tree.create ~name catalog in
  let table =
    Relation.Catalog.create_table catalog
      ~name:(skeleton_table_name name)
      ~columns:[ "node"; "count" ]
  in
  { ri; table; counts = Hashtbl.create 1024 }

let of_ri ri catalog =
  let name = Ri_tree.name ri in
  let table =
    match
      Relation.Catalog.find_table catalog (skeleton_table_name name)
    with
    | Some tbl -> tbl
    | None ->
        Relation.Catalog.create_table catalog
          ~name:(skeleton_table_name name)
          ~columns:[ "node"; "count" ]
  in
  let t = { ri; table; counts = Hashtbl.create 1024 } in
  (* rebuild from the interval table *)
  ignore (Relation.Table.delete_where table (fun _ -> true));
  Relation.Table.iter (Ri_tree.table ri) (fun _ row ->
      materialize t row.(0) 1);
  t

let ri t = t.ri
let count t = Ri_tree.count t.ri

let insert ?id t ivl =
  let id = Ri_tree.insert ?id t.ri ivl in
  materialize t (Ri_tree.fork_node t.ri ivl) 1;
  id

let delete t ~id ivl =
  let removed = Ri_tree.delete t.ri ~id ivl in
  if removed then materialize t (Ri_tree.fork_node t.ri ivl) (-1);
  removed

let node_filter t node =
  match Hashtbl.find_opt t.counts node with
  | Some (c, _) -> c > 0
  | None -> false

let materialized_nodes t =
  Hashtbl.fold (fun _ (c, _) acc -> if c > 0 then acc + 1 else acc) t.counts 0

let probes_saved t ivl =
  ( Ri_tree.probe_count t.ri ivl,
    Ri_tree.probe_count ~node_filter:(node_filter t) t.ri ivl )

let check_invariants t =
  Ri_tree.check_invariants t.ri;
  let fail fmt = Format.kasprintf failwith fmt in
  (* actual counts from the interval table *)
  let actual = Hashtbl.create 1024 in
  Relation.Table.iter (Ri_tree.table t.ri) (fun _ row ->
      Hashtbl.replace actual row.(0)
        (1 + Option.value ~default:0 (Hashtbl.find_opt actual row.(0))));
  Hashtbl.iter
    (fun node cnt ->
      match Hashtbl.find_opt t.counts node with
      | Some (c, _) when c = cnt -> ()
      | Some (c, _) -> fail "skeleton node %d: count %d, actual %d" node c cnt
      | None -> fail "skeleton misses node %d" node)
    actual;
  Hashtbl.iter
    (fun node (c, _) ->
      let real = Option.value ~default:0 (Hashtbl.find_opt actual node) in
      if c <> real then
        fail "skeleton node %d: count %d, actual %d" node c real)
    t.counts;
  (* the persisted table mirrors the in-memory cache *)
  Relation.Table.iter t.table (fun rowid row ->
      match Hashtbl.find_opt t.counts row.(0) with
      | Some (c, rid) when c = row.(1) && rid = rowid -> ()
      | Some _ | None ->
          fail "skeleton table row for node %d out of sync" row.(0))
