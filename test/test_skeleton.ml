(* The skeleton-index extension (paper's conclusion): identical answers,
   fewer probes, exact materialised counts. *)

module Ivl = Interval.Ivl
module Sk = Ritree.Skeleton
module Ri = Ritree.Ri_tree
module Pl = Exec.Planner
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort compare

(* The skeleton-filtered Fig. 9 plan: ids from the indexes alone, and
   the count of the base rows the same plan fetches. *)
let filtered_ids sk q =
  Pl.intersecting_ids ~node_filter:(Sk.node_filter sk) (Sk.ri sk) q

let filtered_count sk q =
  let c =
    Pl.plan_intersection ~node_filter:(Sk.node_filter sk) ~proj:Pl.Rows
      (Sk.ri sk) q
  in
  List.length (Pl.run c).Exec.Executor.rows

let test_answers_identical () =
  let rng = Workload.Prng.create ~seed:81 in
  let db = Relation.Catalog.create () in
  let sk = Sk.create db in
  let naive = Naive.create () in
  for i = 0 to 499 do
    let l = Workload.Prng.int rng 100_000 in
    let ivl = Ivl.make l (l + Workload.Prng.int rng 2_000) in
    ignore (Sk.insert ~id:i sk ivl);
    ignore (Naive.insert ~id:i naive ivl)
  done;
  Sk.check_invariants sk;
  for _ = 1 to 150 do
    let l = Workload.Prng.int rng 110_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 4_000) in
    check (Alcotest.list Alcotest.int) "oracle"
      (sorted (Naive.intersecting_ids naive q))
      (sorted (filtered_ids sk q));
    check Alcotest.int "count agrees"
      (List.length (Naive.intersecting_ids naive q))
      (filtered_count sk q)
  done

let test_deletes_maintain_counts () =
  let db = Relation.Catalog.create () in
  let sk = Sk.create db in
  let ivl = Ivl.make 100 200 in
  ignore (Sk.insert ~id:1 sk ivl);
  ignore (Sk.insert ~id:2 sk ivl);
  Sk.check_invariants sk;
  check Alcotest.bool "delete" true (Sk.delete sk ~id:1 ivl);
  Sk.check_invariants sk;
  check (Alcotest.list Alcotest.int) "still found" [ 2 ]
    (filtered_ids sk (Ivl.point 150));
  check Alcotest.bool "delete last" true (Sk.delete sk ~id:2 ivl);
  Sk.check_invariants sk;
  check (Alcotest.list Alcotest.int) "now empty" []
    (filtered_ids sk (Ivl.point 150))

let test_probes_saved_on_sparse_data () =
  (* data occupies 1 % of the domain; queries elsewhere benefit *)
  let rng = Workload.Prng.create ~seed:82 in
  let db = Relation.Catalog.create () in
  let sk = Sk.create db in
  (* pin the data space: a wide sentinel interval, then a tight cluster *)
  ignore (Sk.insert sk (Ivl.make 0 1_000_000));
  for _ = 1 to 300 do
    let l = 500_000 + Workload.Prng.int rng 10_000 in
    ignore (Sk.insert sk (Ivl.make l (l + 50)))
  done;
  Sk.check_invariants sk;
  let far_query = Ivl.make 100_000 101_000 in
  let plain, filtered = Sk.probes_saved sk far_query in
  check Alcotest.bool
    (Printf.sprintf "probes reduced (%d -> %d)" plain filtered)
    true
    (filtered < plain);
  (* and the answer is still right: only the sentinel covers it *)
  check Alcotest.int "answer" 1 (List.length (filtered_ids sk far_query))

let test_of_ri_rebuild () =
  let rng = Workload.Prng.create ~seed:83 in
  let db = Relation.Catalog.create () in
  let tree = Ri.create db in
  for i = 0 to 199 do
    let l = Workload.Prng.int rng 50_000 in
    ignore (Ri.insert ~id:i tree (Ivl.make l (l + 100)))
  done;
  let sk = Sk.of_ri tree db in
  Sk.check_invariants sk;
  check Alcotest.bool "nodes materialised" true (Sk.materialized_nodes sk > 0);
  let q = Ivl.make 10_000 20_000 in
  check (Alcotest.list Alcotest.int) "same answers"
    (sorted (Pl.intersecting_ids tree q))
    (sorted (filtered_ids sk q))

(* The skeleton's filter handed to a set of forms: the served
   intersection and the 13 relations run with the filtered node lists,
   as do the ad-hoc plans given the same filter, and every answer is the
   naive oracle's. The forms are prepared before the first insert, and
   the data sits in two clusters, so the filter drops probes. *)
let prop_forms_node_filter =
  QCheck.Test.make ~count:100 ~name:"forms with the skeleton filter = naive"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Workload.Prng.create ~seed in
      let sk = Sk.create (Relation.Catalog.create ()) in
      let node_filter = Sk.node_filter sk in
      let forms = Pl.prepare ~node_filter (Sk.ri sk) in
      let naive = Naive.create () in
      let stored = ref [] in
      for i = 0 to n - 1 do
        let cluster = Workload.Prng.int rng 2 * 40_000 in
        let l = cluster + Workload.Prng.int rng 2_000 in
        let ivl = Ivl.make l (l + Workload.Prng.int rng 200) in
        ignore (Sk.insert ~id:i sk ivl);
        ignore (Naive.insert ~id:i naive ivl);
        stored := Ivl.lower ivl :: Ivl.upper ivl :: !stored
      done;
      let bound () =
        if Workload.Prng.int rng 2 = 0 then
          List.nth !stored (Workload.Prng.int rng (List.length !stored))
        else Workload.Prng.int rng 45_000
      in
      List.for_all
        (fun _ ->
          let a = bound () and b = bound () in
          let q = Ivl.make (min a b) (max a b) in
          let ids (out : Exec.Executor.output) =
            sorted (List.map (fun row -> row.(2)) out.rows)
          in
          ids (Pl.intersect forms ~proj:Pl.Triples q)
          = sorted (Naive.intersecting_ids naive q)
          && sorted (Pl.intersecting_ids ~node_filter (Sk.ri sk) q)
             = sorted (Naive.intersecting_ids naive q)
          && List.for_all
               (fun r ->
                 ids (Pl.allen forms r q)
                 = sorted (Naive.relation_ids naive r q))
               Interval.Allen.all)
        (List.init 6 Fun.id))

let () =
  Alcotest.run "skeleton"
    [
      ("skeleton",
       [ Alcotest.test_case "answers identical to RI-tree" `Quick
           test_answers_identical;
         Alcotest.test_case "deletes maintain counts" `Quick
           test_deletes_maintain_counts;
         Alcotest.test_case "probes saved on sparse data" `Quick
           test_probes_saved_on_sparse_data;
         Alcotest.test_case "of_ri rebuild" `Quick test_of_ri_rebuild;
         QCheck_alcotest.to_alcotest prop_forms_node_filter ]);
    ]
