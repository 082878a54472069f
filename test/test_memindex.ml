(* Main-memory structures: interval tree and segment tree vs the naive
   oracle; they also cross-validate each other. *)

module Ivl = Interval.Ivl
module IT = Memindex.Interval_tree
module ST = Memindex.Segment_tree
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

(* ---- segment tree ---- *)

let test_st_oracle () =
  let data = dataset ~seed:53 ~n:400 ~range:40_000 ~len:900 in
  let t = ST.build data in
  let naive = Naive.create () in
  Array.iteri (fun i ivl -> ignore (Naive.insert ~id:i naive ivl)) data;
  check Alcotest.int "count" 400 (ST.count t);
  check Alcotest.bool "redundant entries" true
    (ST.canonical_entries t >= 400);
  let rng = Workload.Prng.create ~seed:54 in
  for _ = 1 to 200 do
    let l = Workload.Prng.int rng 45_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 2_000) in
    let expected = sorted (Naive.intersecting_ids naive q) in
    let got = ST.intersecting_ids t q in
    if got <> expected then
      Alcotest.failf "segment tree differs on %s" (Ivl.to_string q);
    let p = Workload.Prng.int rng 45_000 in
    let expected = sorted (Naive.stabbing_ids naive p) in
    if ST.stabbing_ids t p <> expected then
      Alcotest.failf "segment tree stab differs at %d" p
  done

let test_st_edges () =
  let t = ST.build [| Ivl.make 10 20; Ivl.make 20 30 |] in
  check (Alcotest.list Alcotest.int) "shared endpoint" [ 0; 1 ]
    (ST.stabbing_ids t 20);
  check (Alcotest.list Alcotest.int) "below all" [] (ST.stabbing_ids t 5);
  check (Alcotest.list Alcotest.int) "above all" [] (ST.stabbing_ids t 35);
  check (Alcotest.list Alcotest.int) "between coords" [ 0 ]
    (ST.stabbing_ids t 15)

(* ---- interval skip list ---- *)

module SL = Memindex.Skip_list

let test_sl_basics () =
  let t = SL.create () in
  let a = SL.insert ~id:1 t (Ivl.make 5 20) in
  let b = SL.insert ~id:2 t (Ivl.make 15 30) in
  check Alcotest.int "ids" 1 a;
  check Alcotest.int "ids" 2 b;
  check Alcotest.int "count" 2 (SL.count t);
  check (Alcotest.list Alcotest.int) "stab 17" [ 1; 2 ] (SL.stabbing_ids t 17);
  check (Alcotest.list Alcotest.int) "stab 3" [] (SL.stabbing_ids t 3);
  SL.check_invariants t

let test_sl_delete () =
  let t = SL.create () in
  ignore (SL.insert ~id:1 t (Ivl.make 10 20));
  ignore (SL.insert ~id:2 t (Ivl.make 10 20));
  check Alcotest.bool "delete" true (SL.delete t ~id:1 (Ivl.make 10 20));
  check Alcotest.bool "again" false (SL.delete t ~id:1 (Ivl.make 10 20));
  check (Alcotest.list Alcotest.int) "other remains" [ 2 ]
    (SL.stabbing_ids t 15);
  SL.check_invariants t

let test_sl_oracle_with_churn () =
  let rng = Workload.Prng.create ~seed:57 in
  let t = SL.create () in
  let naive = Naive.create () in
  let live = ref [] in
  for i = 0 to 1_500 do
    if Workload.Prng.int rng 4 = 0 && !live <> [] then begin
      let ivl, id = List.hd !live in
      live := List.tl !live;
      check Alcotest.bool "delete agrees" (Naive.delete naive ~id ivl)
        (SL.delete t ~id ivl)
    end
    else begin
      let l = Workload.Prng.int rng 30_000 in
      let ivl = Ivl.make l (l + Workload.Prng.int rng 800) in
      ignore (SL.insert ~id:i t ivl);
      ignore (Naive.insert ~id:i naive ivl);
      live := (ivl, i) :: !live
    end
  done;
  SL.check_invariants t;
  check Alcotest.bool "towers formed" true (SL.max_level t >= 2);
  for _ = 1 to 200 do
    let l = Workload.Prng.int rng 32_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 1_500) in
    let expected = sorted (Naive.intersecting_ids naive q) in
    let got = sorted (SL.intersecting_ids t q) in
    if got <> expected then
      Alcotest.failf "skip list differs on %s" (Ivl.to_string q)
  done

(* ---- cross-validation: three structures, one truth ---- *)

let test_cross_validation () =
  let data = dataset ~seed:55 ~n:300 ~range:8_000 ~len:600 in
  let it = IT.create ~lo:0 ~hi:10_000 in
  Array.iteri (fun i ivl -> ignore (IT.insert ~id:i it ivl)) data;
  let st = ST.build data in
  let db = Relation.Catalog.create () in
  let ri = Ritree.Ri_tree.create db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i ri ivl)) data;
  let rng = Workload.Prng.create ~seed:56 in
  for _ = 1 to 150 do
    let l = Workload.Prng.int rng 9_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 1_000) in
    let a = sorted (IT.intersecting_ids it q) in
    let b = ST.intersecting_ids st q in
    let c = sorted (Exec.Planner.intersecting_ids ri q) in
    if a <> b || b <> c then
      Alcotest.failf "structures disagree on %s (%d/%d/%d)" (Ivl.to_string q)
        (List.length a) (List.length b) (List.length c)
  done

let () =
  Alcotest.run "memindex"
    [
      ("interval-tree",
       [ Alcotest.test_case "basics" `Quick test_it_basics;
         Alcotest.test_case "delete" `Quick test_it_delete;
         Alcotest.test_case "oracle" `Quick test_it_oracle ]);
      ("segment-tree",
       [ Alcotest.test_case "oracle" `Quick test_st_oracle;
         Alcotest.test_case "edge cases" `Quick test_st_edges ]);
      ("skip-list",
       [ Alcotest.test_case "basics" `Quick test_sl_basics;
         Alcotest.test_case "delete" `Quick test_sl_delete;
         Alcotest.test_case "oracle with churn" `Quick
           test_sl_oracle_with_churn ]);
      ("cross",
       [ Alcotest.test_case "interval tree = segment tree = RI-tree" `Quick
           test_cross_validation ]);
    ]
