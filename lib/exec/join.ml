module Ivl = Interval.Ivl
module Ri_tree = Ritree.Ri_tree

let rows_of tree =
  let acc = ref [] in
  Relation.Table.iter (Ri_tree.table tree) (fun _ row ->
      acc := (row.(1), row.(2), row.(3)) :: !acc);
  !acc

(* Probe the indexed side once per outer row; the optimizer's choice of
   outer is the smaller relation. *)
let index_nested_ids left right =
  let swap = Ri_tree.count left > Ri_tree.count right in
  let outer, inner = if swap then (right, left) else (left, right) in
  let pairs = ref [] in
  List.iter
    (fun (l, u, id) ->
      List.iter
        (fun inner_id ->
          pairs :=
            (if swap then (inner_id, id) else (id, inner_id)) :: !pairs)
        (Planner.intersecting_ids inner (Ivl.make l u)))
    (rows_of outer);
  !pairs

(* Endpoint plane-sweep with lazily expired active sets: intervals in
   lower order; each step pairs the current interval with the other
   side's active set (all intersect: they started no later and have not
   ended). Each active-set traversal either emits a pair or removes an
   expired entry, so the work is O(n log n + output). *)
let sweep_ids left right =
  let tag side (l, u, id) = (l, u, id, side) in
  let events =
    List.sort compare
      (List.map (tag 0) (rows_of left) @ List.map (tag 1) (rows_of right))
  in
  let active = [| ref []; ref [] |] (* per side: (upper, id), unordered *) in
  let pairs = ref [] in
  List.iter
    (fun (l, u, id, side) ->
      let other = 1 - side in
      let survivors = ref [] in
      List.iter
        (fun ((ou, oid) as entry) ->
          if ou >= l then begin
            survivors := entry :: !survivors;
            pairs := (if side = 0 then (id, oid) else (oid, id)) :: !pairs
          end)
        !(active.(other));
      active.(other) := !survivors;
      active.(side) := (u, id) :: !(active.(side)))
    events;
  !pairs

let count_pairs left right = List.length (sweep_ids left right)
