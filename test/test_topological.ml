(* Topological (Allen-relation) queries of Sec. 4.5, as the planner
   runs them, checked against the brute-force oracle for every
   relation. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module Ri = Ritree.Ri_tree
module Pl = Exec.Planner
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort compare

let build ~seed ~n ~range ~len =
  let rng = Workload.Prng.create ~seed in
  let db = Relation.Catalog.create () in
  let t = Ri.create db in
  let naive = Naive.create () in
  for i = 0 to n - 1 do
    let l = Workload.Prng.int rng (2 * range) - range in
    let ivl = Ivl.make l (l + Workload.Prng.int rng len) in
    ignore (Ri.insert ~id:i t ivl);
    ignore (Naive.insert ~id:i naive ivl)
  done;
  (rng, t, naive)

let run_relation_oracle r ~seed ~queries =
  let rng, t, naive = build ~seed ~n:300 ~range:1500 ~len:300 in
  for _ = 1 to queries do
    let ql = Workload.Prng.int rng 4000 - 2000 in
    let q = Ivl.make ql (ql + Workload.Prng.int rng 500) in
    let expected = sorted (Naive.relation_ids naive r q) in
    let got = sorted (Pl.allen_ids t r q) in
    if got <> expected then
      Alcotest.failf "%s %s: got %d, expected %d" (Allen.to_string r)
        (Ivl.to_string q) (List.length got) (List.length expected)
  done

let relation_case r =
  Alcotest.test_case (Allen.to_string r) `Quick (fun () ->
      run_relation_oracle r ~seed:(100 + Hashtbl.hash (Allen.to_string r))
        ~queries:60)

let test_point_queries_relations () =
  (* degenerate query intervals *)
  let _, t, naive = build ~seed:7 ~n:200 ~range:500 ~len:100 in
  List.iter
    (fun r ->
      for p = -50 to 50 do
        let q = Ivl.point (p * 13) in
        let expected = sorted (Naive.relation_ids naive r q) in
        let got = sorted (Pl.allen_ids t r q) in
        if got <> expected then
          Alcotest.failf "%s point %d differs" (Allen.to_string r) (p * 13)
      done)
    Allen.all

let test_relations_partition_results () =
  (* across all 13 relations, each stored interval appears exactly once
     for a fixed query *)
  let _, t, naive = build ~seed:8 ~n:250 ~range:1000 ~len:300 in
  let q = Ivl.make 100 600 in
  let all_results =
    List.concat_map (fun r -> Pl.allen_ids t r q) Allen.all
  in
  check Alcotest.int "every interval classified once"
    (List.length (Naive.to_list naive))
    (List.length all_results);
  check Alcotest.int "no duplicates"
    (List.length all_results)
    (List.length (List.sort_uniq compare all_results))

let test_query_returns_rows () =
  let db = Relation.Catalog.create () in
  let t = Ri.create db in
  ignore (Ri.insert ~id:1 t (Ivl.make 0 10));
  ignore (Ri.insert ~id:2 t (Ivl.make 10 20));
  let pairs = Pl.allen_matches t Allen.Meets (Ivl.make 20 30) in
  check Alcotest.int "one meets" 1 (List.length pairs);
  let ivl, id = List.hd pairs in
  check Alcotest.int "id" 2 id;
  check Alcotest.bool "interval" true (Ivl.equal ivl (Ivl.make 10 20))

let test_empty_tree () =
  let db = Relation.Catalog.create () in
  let t = Ri.create db in
  List.iter
    (fun r ->
      check (Alcotest.list Alcotest.int) (Allen.to_string r) []
        (Pl.allen_ids t r (Ivl.make 0 10)))
    Allen.all

let () =
  Alcotest.run "topological"
    [
      ("oracle", List.map relation_case Allen.all);
      ("properties",
       [ Alcotest.test_case "point queries, all relations" `Slow
           test_point_queries_relations;
         Alcotest.test_case "relations partition the database" `Quick
           test_relations_partition_results;
         Alcotest.test_case "query returns interval rows" `Quick
           test_query_returns_rows;
         Alcotest.test_case "empty tree" `Quick test_empty_tree ]);
    ]
