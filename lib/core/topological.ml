module Ivl = Interval.Ivl
module Allen = Interval.Allen

let fetch_matches t r q it =
  let table = Ri_tree.table t in
  Relation.Iter.fetch table it
  |> Relation.Iter.fold
       (fun acc row ->
         let ivl = Ivl.make row.(1) row.(2) in
         if Allen.holds r ivl q then (ivl, row.(3)) :: acc else acc)
       []
  |> List.rev

(* Every interval with a bound equal to value [x] is registered on the
   backbone path of [x], so O(h) exact probes cover Meets/Met_by. *)
let path_nodes t x =
  let p = Ri_tree.params t in
  match p.Ri_tree.offset with
  | None -> []
  | Some off ->
      let roots =
        { Backbone.left_root = p.Ri_tree.left_root;
          right_root = p.Ri_tree.right_root }
      in
      Backbone.path roots ~min_level:p.Ri_tree.min_level (x - off)

(* Probes [(w, x)] for every node [w] on the backbone path of [x]. *)
let exact_probes t r q index x =
  let tree = Relation.Table.Index.tree index in
  let probes =
    List.map
      (fun w ->
        Relation.Iter.index_range index ~lo:(Btree.lo_pad tree [ w; x ])
          ~hi:(Btree.hi_pad tree [ w; x ]))
      (path_nodes t x)
  in
  fetch_matches t r q (Relation.Iter.union_all probes)

let query t r q =
  let p = Ri_tree.params t in
  match p.Ri_tree.offset with
  | None -> []
  | Some off -> (
      let qlow = Ivl.lower q and qup = Ivl.upper q in
      match r with
      | Allen.Before ->
          (* i.upper < qlow implies node <= i.upper - offset < ql: one
             ordered scan over all nodes strictly left of the query. *)
          let ql = qlow - off in
          let tree = Relation.Table.Index.tree (Ri_tree.upper_index t) in
          let it =
            Relation.Iter.index_range (Ri_tree.upper_index t)
              ~lo:(Btree.lo_pad tree []) ~hi:(Btree.hi_pad tree [ ql - 1 ])
          in
          fetch_matches t r q (Relation.Iter.filter (fun k -> k.(1) < qlow) it)
      | Allen.After ->
          (* i.lower > qup implies node >= i.lower - offset > qu. Stop
             short of the temporal sentinel nodes. *)
          let qu = qup - off in
          let tree = Relation.Table.Index.tree (Ri_tree.lower_index t) in
          let it =
            Relation.Iter.index_range (Ri_tree.lower_index t)
              ~lo:(Btree.lo_pad tree [ qu + 1 ])
              ~hi:(Btree.hi_pad tree [ Ri_tree.fork_now - 1 ])
          in
          fetch_matches t r q (Relation.Iter.filter (fun k -> k.(1) > qup) it)
      | Allen.Meets -> exact_probes t r q (Ri_tree.upper_index t) qlow
      | Allen.Met_by -> exact_probes t r q (Ri_tree.lower_index t) qup
      | Allen.Overlaps | Allen.Finished_by | Allen.Contains | Allen.Starts
      | Allen.Equals | Allen.Started_by | Allen.During | Allen.Finishes
      | Allen.Overlapped_by ->
          (* These imply intersection: filter the intersection candidates
             exactly. *)
          List.filter (fun (ivl, _) -> Allen.holds r ivl q)
            (Ri_tree.intersecting t q))

let query_ids t r q = List.map snd (query t r q)
