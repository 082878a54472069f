module Ivl = Interval.Ivl

(* Oracle's hybrid fixed/variable linear-quadtree tiling, in 1-D.

   The domain [0, 2^20 - 1] is partitioned into fixed tiles of size
   2^(20 - level) (Oracle's SDO_LEVEL counts quadtree depth: higher
   level = finer fixed tiles). An interval is clipped to every fixed
   tile it overlaps, and each clipped range is decomposed into maximal
   dyadic segments — the variable-sized tiles, "a fine-grained
   representation of the covered geometry". One relational row is
   stored per variable tile, clustered by fixed tile, which is exactly
   the source of the redundancy of Fig. 12 (10.1 rows per interval on
   D4 with mean length 2000 at the calibrated level).

   Queries join their fixed tiles against the index and scan the
   variable tiles of each (the paper: "an equijoin on the indexed
   fixed-sized tiles, followed by a sequential scan on the
   corresponding variable-sized tiles"), then eliminate the duplicates
   that redundancy produces. *)

let domain_bits = 20

type t = {
  level : int;
  tile_size : int;
  table : Relation.Table.t; (* one row per variable tile *)
  index : Relation.Table.Index.t; (* (tile, vlo, vhi, id) covering *)
  mutable next_id : int;
  mutable interval_count : int;
}

let create ?(name = "tindex") ~level catalog =
  if level < 0 || level > domain_bits then
    invalid_arg "Tile_index.create: level must be within [0, 20]";
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "tile"; "vlo"; "vhi"; "id" ]
  in
  let index =
    Relation.Table.create_index table ~name:(name ^ "_idx")
      ~columns:[ "tile"; "vlo"; "vhi"; "id" ]
  in
  { level; tile_size = 1 lsl (domain_bits - level); table; index;
    next_id = 0; interval_count = 0 }

let level t = t.level
let tile_size t = t.tile_size

(* Greedy maximal-dyadic decomposition of [a, b] (inclusive): repeatedly
   emit the largest power-of-two-sized, aligned segment starting at a. *)
let dyadic_segments a b emit =
  let a = ref a in
  while !a <= b do
    let align = if !a = 0 then max_int else !a land (- !a) in
    let len = ref 1 in
    while 2 * !len <= align && !a + (2 * !len) - 1 <= b do
      len := 2 * !len
    done;
    emit !a (!a + !len - 1);
    a := !a + !len
  done

let decompose_with ~tile_size ivl emit =
  let ts = tile_size in
  let first = Ivl.lower ivl / ts and last = Ivl.upper ivl / ts in
  for tile = first to last do
    let lo = max (Ivl.lower ivl) (tile * ts) in
    let hi = min (Ivl.upper ivl) (((tile + 1) * ts) - 1) in
    dyadic_segments lo hi (fun vlo vhi -> emit tile vlo vhi)
  done

let bulk_load ?(name = "tindex") ~level catalog data =
  if level < 0 || level > domain_bits then
    invalid_arg "Tile_index.bulk_load: level must be within [0, 20]";
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "tile"; "vlo"; "vhi"; "id" ]
  in
  let tile_size = 1 lsl (domain_bits - level) in
  let next_id = ref 0 in
  Array.iter
    (fun (ivl, id) ->
      if id >= !next_id then next_id := id + 1;
      decompose_with ~tile_size ivl (fun tile vlo vhi ->
          ignore (Relation.Table.insert table [| tile; vlo; vhi; id |])))
    data;
  let index =
    Relation.Table.create_index ~bulk:true table ~name:(name ^ "_idx")
      ~columns:[ "tile"; "vlo"; "vhi"; "id" ]
  in
  { level; tile_size; table; index; next_id = !next_id;
    interval_count = Array.length data }

let decompose t ivl emit = decompose_with ~tile_size:t.tile_size ivl emit

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
  decompose t ivl (fun tile vlo vhi ->
      ignore (Relation.Table.insert t.table [| tile; vlo; vhi; id |]));
  t.interval_count <- t.interval_count + 1;
  id

let delete t ~id ivl =
  let tree = Relation.Table.Index.tree t.index in
  let removed = ref 0 in
  decompose t ivl (fun tile vlo vhi ->
      let victim =
        Btree.fold_range tree
          ~lo:[| tile; vlo; vhi; id; min_int |]
          ~hi:[| tile; vlo; vhi; id; max_int |]
          (fun acc key -> match acc with Some _ -> acc | None -> Some key.(4))
          None
      in
      match victim with
      | Some rowid ->
          ignore (Relation.Table.delete_row t.table rowid);
          incr removed
      | None -> ())
  ;
  if !removed > 0 then begin
    t.interval_count <- t.interval_count - 1;
    true
  end
  else false

let count t = t.interval_count
let index_entries t = Relation.Table.Index.entry_count t.index

let redundancy t =
  if t.interval_count = 0 then 0.0
  else float_of_int (index_entries t) /. float_of_int t.interval_count

(* Equijoin of the query's fixed tiles against the index, sequential
   scan of the variable tiles, duplicate elimination on id. *)
let plan t q =
  Exec.Planner.partition_join ~collection:("tiles", "tile") ~index:t.index
    ~bounds:("vlo", "vhi") ~first:(Ivl.lower q / t.tile_size)
    ~last:(Ivl.upper q / t.tile_size) t.table q

let intersecting_ids t q = Exec.Planner.ids (plan t q)

let recommended_level ?(candidates = [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    ~sample ~queries () =
  let cost level =
    let ts = 1 lsl (domain_bits - level) in
    (* Variable-tile rows per fixed tile for the sample. *)
    let per_tile = Hashtbl.create 1024 in
    let bump tile =
      Hashtbl.replace per_tile tile
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_tile tile))
    in
    Array.iter
      (fun ivl ->
        for tile = Ivl.lower ivl / ts to Ivl.upper ivl / ts do
          let lo = max (Ivl.lower ivl) (tile * ts) in
          let hi = min (Ivl.upper ivl) (((tile + 1) * ts) - 1) in
          dyadic_segments lo hi (fun _ _ -> bump tile)
        done)
      sample;
    (* Rows scanned by each query: all rows of all overlapped tiles. *)
    Array.fold_left
      (fun acc q ->
        let rows = ref 0 in
        for tile = Ivl.lower q / ts to Ivl.upper q / ts do
          rows :=
            !rows + Option.value ~default:0 (Hashtbl.find_opt per_tile tile)
        done;
        acc + !rows)
      0 queries
  in
  match candidates with
  | [] -> invalid_arg "Tile_index.recommended_level: no candidates"
  | first :: rest ->
      List.fold_left
        (fun (best, best_cost) lvl ->
          let c = cost lvl in
          if c < best_cost then (lvl, c) else (best, best_cost))
        (first, cost first) rest
      |> fst
