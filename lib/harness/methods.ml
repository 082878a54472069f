type t = {
  label : string;
  catalog : Relation.Catalog.t;
  insert : Interval.Ivl.t -> int -> unit;
  query_ids : Interval.Ivl.t -> int list;
  index_entries : unit -> int;
}

let fresh_catalog ?block_size ?cache_blocks () =
  Relation.Catalog.create ?block_size ?cache_blocks ()

(* Every method answers through the shared execution layer: the
   RI-tree's Fig. 9/10 plan, IST's range scan and the Tile Index's and
   Window-List's partition joins are [Exec.Ir] plans run by
   [Exec.Executor.run], so the harness times indexes and not engines.
   MAP21, in no Sec. 6 figure, scans its index directly. *)
let planner_ids tree q =
  Exec.Planner.intersecting_ids ~path:Exec.Planner.Two_branch tree q

let ri_tree ?block_size ?cache_blocks () =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let tree = Ritree.Ri_tree.create catalog in
  { label = "RI-tree"; catalog;
    insert = (fun ivl id -> ignore (Ritree.Ri_tree.insert ~id tree ivl));
    query_ids = planner_ids tree;
    index_entries = (fun () -> Ritree.Ri_tree.index_entries tree) }

let ist ?block_size ?cache_blocks ?(order = Baselines.Ist.D_order) () =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Ist.create ~order catalog in
  let label =
    match order with
    | Baselines.Ist.D_order -> "IST"
    | Baselines.Ist.V_order -> "IST-V"
  in
  { label; catalog;
    insert = (fun ivl id -> ignore (Baselines.Ist.insert ~id t ivl));
    query_ids = Baselines.Ist.intersecting_ids t;
    index_entries = (fun () -> Baselines.Ist.index_entries t) }

let tile ?block_size ?cache_blocks ~level () =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Tile_index.create ~level catalog in
  { label = Printf.sprintf "T-index(l=%d)" level; catalog;
    insert = (fun ivl id -> ignore (Baselines.Tile_index.insert ~id t ivl));
    query_ids = Baselines.Tile_index.intersecting_ids t;
    index_entries = (fun () -> Baselines.Tile_index.index_entries t) }

let map21 ?block_size ?cache_blocks () =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Map21.create catalog in
  { label = "MAP21"; catalog;
    insert = (fun ivl id -> ignore (Baselines.Map21.insert ~id t ivl));
    query_ids = Baselines.Map21.intersecting_ids t;
    index_entries = (fun () -> Baselines.Map21.index_entries t) }

let window_list ?block_size ?cache_blocks data =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Window_list.build catalog data in
  { label = "Window-List"; catalog;
    insert =
      (fun _ _ -> failwith "Window-List is static: bulk build it instead");
    query_ids = Baselines.Window_list.intersecting_ids t;
    index_entries = (fun () -> Baselines.Window_list.index_entries t) }

let with_ids data = Array.mapi (fun id ivl -> (ivl, id)) data

let ri_tree_bulk ?block_size ?cache_blocks data =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let tree = Ritree.Ri_tree.bulk_load catalog (with_ids data) in
  { label = "RI-tree (bulk)"; catalog;
    insert = (fun ivl id -> ignore (Ritree.Ri_tree.insert ~id tree ivl));
    query_ids = planner_ids tree;
    index_entries = (fun () -> Ritree.Ri_tree.index_entries tree) }

let ist_bulk ?block_size ?cache_blocks ?(order = Baselines.Ist.D_order) data =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Ist.bulk_load ~order catalog (with_ids data) in
  { label = "IST (bulk)"; catalog;
    insert = (fun ivl id -> ignore (Baselines.Ist.insert ~id t ivl));
    query_ids = Baselines.Ist.intersecting_ids t;
    index_entries = (fun () -> Baselines.Ist.index_entries t) }

let tile_bulk ?block_size ?cache_blocks ~level data =
  let catalog = fresh_catalog ?block_size ?cache_blocks () in
  let t = Baselines.Tile_index.bulk_load ~level catalog (with_ids data) in
  { label = Printf.sprintf "T-index (bulk, l=%d)" level; catalog;
    insert = (fun ivl id -> ignore (Baselines.Tile_index.insert ~id t ivl));
    query_ids = Baselines.Tile_index.intersecting_ids t;
    index_entries = (fun () -> Baselines.Tile_index.index_entries t) }

let count t q = List.length (t.query_ids q)

let load t data = Array.iteri (fun id ivl -> t.insert ivl id) data

let calibrated_tile_level data ~queries =
  let sample =
    if Array.length data <= 1000 then data
    else Array.init 1000 (fun i -> data.(i * (Array.length data / 1000)))
  in
  Baselines.Tile_index.recommended_level ~sample ~queries ()
