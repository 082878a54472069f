(* Intersection joins: index nested loop vs plane sweep vs brute force. *)

module Ivl = Interval.Ivl
module Ri = Ritree.Ri_tree
module Join = Exec.Join

let check = Alcotest.check
let sorted = List.sort compare

let build ~seed ~n ~range ~len =
  let rng = Workload.Prng.create ~seed in
  let db = Relation.Catalog.create () in
  let tree = Ri.create db in
  let data = ref [] in
  for i = 0 to n - 1 do
    let l = Workload.Prng.int rng range in
    let ivl = Ivl.make l (l + Workload.Prng.int rng len) in
    ignore (Ri.insert ~id:i tree ivl);
    data := (ivl, i) :: !data
  done;
  (tree, !data)

let brute a b =
  List.concat_map
    (fun (ia, ida) ->
      List.filter_map
        (fun (ib, idb) ->
          if Ivl.intersects ia ib then Some (ida, idb) else None)
        b)
    a

let test_methods_agree_with_brute () =
  let left, ldata = build ~seed:121 ~n:300 ~range:20_000 ~len:1_000 in
  let right, rdata = build ~seed:122 ~n:200 ~range:20_000 ~len:1_500 in
  let expected = sorted (brute ldata rdata) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "index nested loop" expected
    (sorted (Join.index_nested_ids left right));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "plane sweep" expected
    (sorted (Join.sweep_ids left right));
  check Alcotest.int "count" (List.length expected)
    (Join.count_pairs left right)

let test_asymmetric_sizes () =
  (* the nested loop must pick the small side as outer and still label
     pairs correctly *)
  let small, sdata = build ~seed:123 ~n:20 ~range:5_000 ~len:500 in
  let large, ldata = build ~seed:124 ~n:500 ~range:5_000 ~len:500 in
  let expected = sorted (brute sdata ldata) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "small x large" expected
    (sorted (Join.index_nested_ids small large));
  let expected_flipped = sorted (brute ldata sdata) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "large x small" expected_flipped
    (sorted (Join.index_nested_ids large small))

let test_touching_and_points () =
  let db = Relation.Catalog.create () in
  let a = Ri.create ~name:"a" db in
  let b = Ri.create ~name:"b" db in
  ignore (Ri.insert ~id:1 a (Ivl.make 0 5));
  ignore (Ri.insert ~id:2 a (Ivl.point 10));
  ignore (Ri.insert ~id:3 b (Ivl.make 5 9));
  ignore (Ri.insert ~id:4 b (Ivl.point 10));
  let expected = [ (1, 3); (2, 4) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "touching pairs" expected
    (sorted (Join.sweep_ids a b));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "index agrees" expected
    (sorted (Join.index_nested_ids a b))

let test_empty_sides () =
  let db = Relation.Catalog.create () in
  let a = Ri.create ~name:"a" db in
  let b = Ri.create ~name:"b" db in
  ignore (Ri.insert a (Ivl.make 0 10));
  check Alcotest.int "empty right" 0 (Join.count_pairs a b);
  check Alcotest.int "empty left" 0 (Join.count_pairs b a);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "nested empty" []
    (Join.index_nested_ids a b)

let test_self_join_shape () =
  let tree, data = build ~seed:125 ~n:100 ~range:2_000 ~len:300 in
  let expected = sorted (brute data data) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "self join" expected
    (sorted (Join.sweep_ids tree tree))

let () =
  Alcotest.run "join"
    [
      ("join",
       [ Alcotest.test_case "both methods = brute force" `Quick
           test_methods_agree_with_brute;
         Alcotest.test_case "asymmetric sizes" `Quick test_asymmetric_sizes;
         Alcotest.test_case "touching and points" `Quick
           test_touching_and_points;
         Alcotest.test_case "empty sides" `Quick test_empty_sides;
         Alcotest.test_case "self join" `Quick test_self_join_shape ]);
    ]
