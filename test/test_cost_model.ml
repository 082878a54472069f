(* Statistics and the plan-choice cost model, and the planner's
   cost-based ("adaptive") choice it drives. *)

module Ivl = Interval.Ivl
module Ri = Ritree.Ri_tree
module CM = Ritree.Cost_model
module Pl = Exec.Planner

let check = Alcotest.check
let sorted = List.sort compare

let build ?layout ~seed ~n ~len () =
  let rng = Workload.Prng.create ~seed in
  let db = Relation.Catalog.create () in
  let tree = Ri.create ?layout db in
  let data = ref [] in
  for i = 0 to n - 1 do
    let l = Workload.Prng.int rng 100_000 in
    let ivl = Ivl.make l (l + Workload.Prng.int rng len) in
    ignore (Ri.insert ~id:i tree ivl);
    data := (ivl, i) :: !data
  done;
  (rng, db, tree, !data)

let test_estimate_accuracy () =
  let rng, _, tree, data = build ~seed:111 ~n:5_000 ~len:2_000 () in
  let stats = CM.Stats.analyze tree in
  check Alcotest.int "row count" 5_000 (CM.Stats.row_count stats);
  for _ = 1 to 50 do
    let l = Workload.Prng.int rng 100_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 10_000) in
    let actual =
      List.length (List.filter (fun (i, _) -> Ivl.intersects i q) data)
    in
    let est = CM.Stats.estimate_result_size stats q in
    (* histogram estimate within 15% of n or 3x of actual *)
    let tolerance = max 750 (actual * 2) in
    if abs (est - actual) > tolerance then
      Alcotest.failf "estimate %d vs actual %d for %s" est actual
        (Ivl.to_string q)
  done

let test_estimate_edges () =
  let _, _, tree, _ = build ~seed:112 ~n:1_000 ~len:1_000 () in
  let stats = CM.Stats.analyze tree in
  check Alcotest.int "far left" 0
    (CM.Stats.estimate_result_size stats (Ivl.make (-9_000_000) (-8_000_000)));
  check Alcotest.int "far right" 0
    (CM.Stats.estimate_result_size stats (Ivl.make 8_000_000 9_000_000));
  check Alcotest.int "everything" 1_000
    (CM.Stats.estimate_result_size stats (Ivl.make (-9_000_000) 9_000_000));
  check (Alcotest.float 0.001) "selectivity 1" 1.0
    (CM.Stats.estimate_selectivity stats (Ivl.make (-9_000_000) 9_000_000))

(* Regression: a query reaching to max_int used to overflow the
   estimator ([Ivl.upper q + 1] wrapped to min_int), so an
   infinity-bounded query — the temporal extension's [now]/[infinity]
   idiom — estimated ~0 rows instead of ~n. *)
let test_infinity_bounds () =
  let _, _, tree, _ = build ~seed:116 ~n:1_000 ~len:1_000 () in
  let stats = CM.Stats.analyze tree in
  check Alcotest.int "upper = max_int" 1_000
    (CM.Stats.estimate_result_size stats (Ivl.make 0 max_int));
  check Alcotest.int "whole axis" 1_000
    (CM.Stats.estimate_result_size stats (Ivl.make min_int max_int));
  check (Alcotest.float 0.001) "selectivity 1 on the whole axis" 1.0
    (CM.Stats.estimate_selectivity stats (Ivl.make min_int max_int));
  (* a degenerate query at max_int intersects nothing stored *)
  check Alcotest.int "point at max_int" 0
    (CM.Stats.estimate_result_size stats (Ivl.make max_int max_int));
  check Alcotest.int "point at min_int" 0
    (CM.Stats.estimate_result_size stats (Ivl.make min_int min_int))

let test_empty_tree () =
  let db = Relation.Catalog.create () in
  let tree = Ri.create db in
  let stats = CM.Stats.analyze tree in
  check Alcotest.int "empty estimate" 0
    (CM.Stats.estimate_result_size stats (Ivl.make 0 100));
  check (Alcotest.list Alcotest.int) "adaptive on empty" []
    (Pl.intersecting_ids ~stats tree (Ivl.make 0 100))

let test_plan_crossover () =
  let _, _, tree, _ = build ~seed:113 ~n:20_000 ~len:2_000 () in
  let stats = CM.Stats.analyze tree in
  (* a needle query wants the index *)
  check Alcotest.string "selective -> two-branch" "two-branch"
    (Pl.path_to_string (Pl.choose tree stats (Ivl.make 50_000 50_010)));
  (* a query covering everything wants the scan *)
  check Alcotest.string "full -> seq-scan" "seq-scan"
    (Pl.path_to_string (Pl.choose tree stats (Ivl.make (-1_000_000) 2_000_000)))

(* The chooser and EXPLAIN read one model: EXPLAIN plans through the
   chooser, and under the covering layout its PREDICTED io is the least
   of the two paths' prices, the chosen path's. *)
let choice_fixture =
  lazy
    (let _, _, tree, _ =
       build ~layout:Ri.Covering ~seed:117 ~n:4_000 ~len:2_000 ()
     in
     (tree, CM.Stats.analyze tree))

let prop_choice_is_explained =
  let query =
    QCheck.Gen.(
      let* l = int_range (-10_000) 110_000 in
      let* len = oneof [ return 0; int_bound 2_000; int_bound 200_000 ] in
      return (Ivl.make l (l + len)))
  in
  QCheck.Test.make ~count:60 ~name:"choice = cheapest estimate = EXPLAIN"
    (QCheck.make ~print:Ivl.to_string query)
    (fun q ->
      let tree, stats = Lazy.force choice_fixture in
      let prices = Pl.prices ~stats tree q in
      let least =
        List.fold_left (fun a (_, io) -> Float.min a io) infinity prices
      in
      let chosen = Pl.choose tree stats q in
      let predicted =
        List.find
          (fun l -> String.starts_with ~prefix:"PREDICTED" l)
          (String.split_on_char '\n'
             (Pl.explain ~stats tree (Pl.Intersect_target q)))
      in
      List.exists (fun (p, io) -> p = chosen && io = least) prices
      && String.ends_with ~suffix:(Printf.sprintf "io=%.0f" least) predicted)

(* The chooser prices the Fig. 9 plan straight from its node lists. Its
   figures are the estimator's over the ids-projected plan, float for
   float, for the D1-D4 distributions under both layouts, an empty tree
   and a one-interval tree, points and ranges, queries outside the data,
   and statistics analyzed before half the rows were inserted. *)
let price_fixtures =
  lazy
    (let dist_tree layout kind =
       let data = Workload.Distribution.generate ~seed:21 kind ~n:2_000 ~d:2_000 in
       let db = Relation.Catalog.create () in
       let tree = Ri.create ~layout db in
       Array.iteri (fun id ivl -> if id < 1_000 then ignore (Ri.insert ~id tree ivl)) data;
       let early = CM.Stats.analyze tree in
       Array.iteri (fun id ivl -> if id >= 1_000 then ignore (Ri.insert ~id tree ivl)) data;
       [ (tree, CM.Stats.analyze tree); (tree, early) ]
     in
     let small layout ivls =
       let tree = Ri.create ~layout (Relation.Catalog.create ()) in
       List.iteri (fun id ivl -> ignore (Ri.insert ~id tree ivl)) ivls;
       (tree, CM.Stats.analyze tree)
     in
     List.concat_map
       (fun layout ->
         List.concat_map (dist_tree layout) Workload.Distribution.all_kinds
         @ [ small layout []; small layout [ Ivl.make 500_000 500_100 ] ])
       [ Ri.Paper; Ri.Covering ])

let prop_direct_price_exact =
  let dm = Workload.Distribution.domain_max in
  let query =
    QCheck.Gen.(
      let* l = int_range (-200_000) (dm + 200_000) in
      let* len = oneof [ return 0; int_bound 2_000; int_bound 200_000; return (2 * dm) ] in
      return (Ivl.make l (l + len)))
  in
  QCheck.Test.make ~count:150 ~name:"direct price = estimate over the plan"
    (QCheck.make ~print:Ivl.to_string query)
    (fun q ->
      List.for_all
        (fun (tree, stats) ->
          let direct = Pl.prices ~stats tree q in
          List.assoc Pl.Two_branch direct
          = Pl.price ~stats (Pl.two_branch ~proj:Pl.Ids tree q)
          && List.assoc Pl.Seq direct
             = Pl.price ~stats (Pl.seq_scan ~proj:Pl.Ids tree q))
        (Lazy.force price_fixtures))

let test_adaptive_correct_both_ways () =
  let rng, _, tree, data = build ~seed:114 ~n:3_000 ~len:3_000 () in
  let stats = CM.Stats.analyze tree in
  let oracle q =
    List.filter_map
      (fun (i, id) -> if Ivl.intersects i q then Some id else None)
      data
    |> sorted
  in
  (* mixed batch spanning both regimes *)
  for _ = 1 to 40 do
    let l = Workload.Prng.int rng 100_000 in
    let wide = Workload.Prng.int rng 2 = 0 in
    let q =
      if wide then Ivl.make 0 200_000
      else Ivl.make l (l + Workload.Prng.int rng 500)
    in
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "adaptive %s" (Ivl.to_string q))
      (oracle q)
      (sorted (Pl.intersecting_ids ~stats tree q))
  done

let test_adaptive_io_not_worse () =
  let _, db, tree, _ = build ~seed:115 ~n:30_000 ~len:2_000 () in
  let stats = CM.Stats.analyze tree in
  let everything = Ivl.make (-1_000_000) 2_000_000 in
  let io f =
    Relation.Catalog.flush db;
    Relation.Catalog.drop_cache db;
    Relation.Catalog.reset_io_stats db;
    ignore (f ());
    (Relation.Catalog.io_stats db).Storage.Block_device.Stats.reads
  in
  let via_index =
    io (fun () -> Pl.intersecting_ids ~path:Pl.Two_branch tree everything)
  in
  let via_adaptive =
    io (fun () -> Pl.intersecting_ids ~stats tree everything)
  in
  check Alcotest.bool
    (Printf.sprintf "scan (%d) beats index plan (%d) at selectivity 1"
       via_adaptive via_index)
    true
    (via_adaptive < via_index)

(* The distinct count sorts in place with its own quicksort: the count
   must equal a hash-table oracle's and the array must end sorted, for
   duplicate-heavy, full-range (min_int/max_int included), sorted,
   reversed and all-equal columns, on both sides of the insertion-sort
   cutoff. *)
let prop_distinct_count =
  let column =
    QCheck.Gen.(
      let* n = oneof [ int_bound 20; int_bound 600 ] in
      let value =
        oneof
          [ int_bound 8; int_range (-50) 50; return min_int; return max_int;
            int_range min_int max_int ]
      in
      let* a = array_size (return n) value in
      let* shape = int_bound 3 in
      return
        (match shape with
        | 0 -> a
        | 1 -> (Array.sort compare a; a)
        | 2 -> (Array.sort (fun x y -> compare y x) a; a)
        | _ -> Array.make n (if n = 0 then 0 else a.(0))))
  in
  QCheck.Test.make ~count:300 ~name:"distinct count = hash-table oracle"
    (QCheck.make ~print:QCheck.Print.(array int) column)
    (fun a ->
      let seen = Hashtbl.create 64 in
      Array.iter (fun v -> Hashtbl.replace seen v ()) a;
      let expected_sorted = Array.copy a in
      Array.sort compare expected_sorted;
      let d = CM.Stats.distinct_count a in
      d = Hashtbl.length seen && a = expected_sorted)

let () =
  Alcotest.run "cost_model"
    [
      ("stats",
       [ Alcotest.test_case "estimate accuracy" `Quick test_estimate_accuracy;
         Alcotest.test_case "edge estimates" `Quick test_estimate_edges;
         Alcotest.test_case "infinity-bounded queries" `Quick
           test_infinity_bounds;
         Alcotest.test_case "empty tree" `Quick test_empty_tree;
         QCheck_alcotest.to_alcotest prop_distinct_count ]);
      ("planning",
       [ Alcotest.test_case "plan crossover" `Quick test_plan_crossover;
         QCheck_alcotest.to_alcotest prop_choice_is_explained;
         QCheck_alcotest.to_alcotest prop_direct_price_exact;
         Alcotest.test_case "adaptive correctness" `Quick
           test_adaptive_correct_both_ways;
         Alcotest.test_case "adaptive wins at full selectivity" `Quick
           test_adaptive_io_not_worse ]);
    ]
