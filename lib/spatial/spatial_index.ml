module Ivl = Interval.Ivl

type t = {
  bits : int;
  tree : Ritree.Ri_tree.t;
  mutable next_id : int;
  mutable rect_count : int;
}

let create ?(name = "spatial") ~bits catalog =
  if bits < 1 || bits > Zcurve.max_bits then
    invalid_arg "Spatial_index.create: bits out of range";
  { bits; tree = Ritree.Ri_tree.create ~name catalog; next_id = 0;
    rect_count = 0 }

let bits t = t.bits

let insert ?id t rect =
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
  List.iter
    (fun seg -> ignore (Ritree.Ri_tree.insert ~id t.tree seg))
    (Zcurve.rect_segments ~bits:t.bits rect);
  t.rect_count <- t.rect_count + 1;
  id

let delete t ~id rect =
  let removed =
    List.for_all
      (fun seg -> Ritree.Ri_tree.delete t.tree ~id seg)
      (Zcurve.rect_segments ~bits:t.bits rect)
  in
  if removed then t.rect_count <- t.rect_count - 1;
  removed

let count t = t.rect_count
let segment_count t = Ritree.Ri_tree.count t.tree

let window_ids t rect =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun seg ->
      List.iter
        (fun id -> Hashtbl.replace seen id ())
        (Exec.Planner.intersecting_ids t.tree seg))
    (Zcurve.rect_segments ~bits:t.bits rect);
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

let point_ids t x y =
  let z = Zcurve.encode ~bits:t.bits x y in
  List.sort_uniq compare (Exec.Planner.stabbing_ids t.tree z)

let ri t = t.tree
