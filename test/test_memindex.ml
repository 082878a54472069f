(* The Edelsbrunner interval tree vs the naive oracle, and
   cross-validated against the disk RI-tree it is the blueprint of.
   HINT has its own suite, test_memindex_parity. *)

module Ivl = Interval.Ivl
module IT = Memindex.Interval_tree
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort compare

let dataset ~seed ~n ~range ~len =
  let rng = Workload.Prng.create ~seed in
  Array.init n (fun _ ->
      let l = 1 + Workload.Prng.int rng range in
      Ivl.make l (l + Workload.Prng.int rng len))

(* ---- interval tree ---- *)

let test_it_basics () =
  let t = IT.create ~lo:0 ~hi:100 in
  let a = IT.insert ~id:1 t (Ivl.make 5 20) in
  let b = IT.insert ~id:2 t (Ivl.make 15 30) in
  check Alcotest.int "ids" 1 a;
  check Alcotest.int "ids" 2 b;
  check Alcotest.int "count" 2 (IT.count t);
  check (Alcotest.list Alcotest.int) "stab 17" [ 1; 2 ]
    (sorted (IT.stabbing_ids t 17));
  check (Alcotest.list Alcotest.int) "stab 3" [] (IT.stabbing_ids t 3);
  check Alcotest.bool "universe" true
    (try
       ignore (IT.insert t (Ivl.make 90 200));
       false
     with Invalid_argument _ -> true)

let test_it_delete () =
  let t = IT.create ~lo:0 ~hi:1000 in
  ignore (IT.insert ~id:1 t (Ivl.make 10 20));
  ignore (IT.insert ~id:2 t (Ivl.make 10 20));
  check Alcotest.bool "delete" true (IT.delete t ~id:1 (Ivl.make 10 20));
  check Alcotest.bool "again" false (IT.delete t ~id:1 (Ivl.make 10 20));
  check (Alcotest.list Alcotest.int) "other remains" [ 2 ]
    (IT.stabbing_ids t 15);
  check Alcotest.int "nodes pruned eventually" 1 (IT.node_count t)

let test_it_oracle () =
  let data = dataset ~seed:51 ~n:500 ~range:50_000 ~len:1_000 in
  let t = IT.create ~lo:0 ~hi:60_000 in
  let naive = Naive.create () in
  Array.iteri
    (fun i ivl ->
      ignore (IT.insert ~id:i t ivl);
      ignore (Naive.insert ~id:i naive ivl))
    data;
  let rng = Workload.Prng.create ~seed:52 in
  for _ = 1 to 200 do
    let l = Workload.Prng.int rng 55_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 2_000) in
    let expected = sorted (Naive.intersecting_ids naive q) in
    let got = sorted (IT.intersecting_ids t q) in
    if got <> expected then
      Alcotest.failf "interval tree differs on %s" (Ivl.to_string q)
  done

(* ---- cross-validation: main memory and disk, one truth ---- *)

let test_cross_validation () =
  let data = dataset ~seed:55 ~n:300 ~range:8_000 ~len:600 in
  let it = IT.create ~lo:0 ~hi:10_000 in
  Array.iteri (fun i ivl -> ignore (IT.insert ~id:i it ivl)) data;
  let db = Relation.Catalog.create () in
  let ri = Ritree.Ri_tree.create db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i ri ivl)) data;
  let rng = Workload.Prng.create ~seed:56 in
  for _ = 1 to 150 do
    let l = Workload.Prng.int rng 9_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 1_000) in
    let a = sorted (IT.intersecting_ids it q) in
    let b = sorted (Exec.Planner.intersecting_ids ri q) in
    if a <> b then
      Alcotest.failf "structures disagree on %s (%d/%d)" (Ivl.to_string q)
        (List.length a) (List.length b)
  done

let () =
  Alcotest.run "memindex"
    [
      ("interval-tree",
       [ Alcotest.test_case "basics" `Quick test_it_basics;
         Alcotest.test_case "delete" `Quick test_it_delete;
         Alcotest.test_case "oracle" `Quick test_it_oracle ]);
      ("cross",
       [ Alcotest.test_case "interval tree = RI-tree" `Quick
           test_cross_validation ]);
    ]
