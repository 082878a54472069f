(* End-to-end integration: every access method, the SQL engine and the
   in-memory oracles answer the same workload identically; physical-I/O
   accounting behaves sanely. *)

module Ivl = Interval.Ivl
module Dist = Workload.Distribution
module Methods = Harness.Methods

let check = Alcotest.check
let sorted = List.sort compare

let test_all_methods_agree () =
  let data = Dist.generate ~seed:71 Dist.D2 ~n:3_000 ~d:1500 in
  let queries = Workload.Query_gen.queries ~seed:72 ~data ~count:40 0.01 in
  let wl = Methods.window_list data in
  let methods =
    [ Methods.ri_tree (); Methods.ist (); Methods.ist ~order:Baselines.Ist.V_order ();
      Methods.tile ~level:8 (); Methods.map21 () ]
  in
  List.iter (fun m -> Methods.load m data) methods;
  let oracle = Memindex.Naive.create () in
  Array.iteri (fun i ivl -> ignore (Memindex.Naive.insert ~id:i oracle ivl)) data;
  Array.iter
    (fun q ->
      let expected = sorted (Memindex.Naive.intersecting_ids oracle q) in
      List.iter
        (fun (m : Methods.t) ->
          let got = sorted (m.query_ids q) in
          if got <> expected then
            Alcotest.failf "%s disagrees on %s (%d vs %d)" m.label
              (Ivl.to_string q) (List.length got) (List.length expected))
        methods;
      let got_wl = sorted (wl.Methods.query_ids q) in
      if got_wl <> expected then
        Alcotest.failf "Window-List disagrees on %s" (Ivl.to_string q))
    queries

let test_sql_agrees_with_library () =
  (* Drive the RI-tree by hand through SQL (Figs. 2/5/9) and compare with
     the native implementation on the same data. *)
  let data = Dist.generate ~seed:73 Dist.D1 ~n:500 ~d:2000 in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i tree ivl)) data;
  (* the SQL session runs against the very same database/catalog *)
  let session = Sqlfront.Engine.session db in
  let fig9 =
    "SELECT id FROM intervals i, leftNodes lft \
     WHERE i.node BETWEEN lft.min AND lft.max AND i.upper >= :lower \
     UNION ALL \
     SELECT id FROM intervals i, rightNodes rgt \
     WHERE i.node = rgt.node AND i.lower <= :upper"
  in
  let rng = Workload.Prng.create ~seed:74 in
  for _ = 1 to 40 do
    let l = Workload.Prng.int rng Dist.domain_max in
    let q = Ivl.make l (min Dist.domain_max (l + Workload.Prng.int rng 30_000)) in
    (* build the transient node tables exactly like the library does *)
    let p = Ritree.Ri_tree.params tree in
    let off = Option.get p.Ritree.Ri_tree.offset in
    let roots =
      { Ritree.Backbone.left_root = p.Ritree.Ri_tree.left_root;
        right_root = p.Ritree.Ri_tree.right_root }
    in
    let ql = Ivl.lower q - off and qu = Ivl.upper q - off in
    let lefts = ref [ [| ql; qu |] ] and rights = ref [] in
    Ritree.Backbone.collect roots ~min_level:p.Ritree.Ri_tree.min_level ~ql ~qu
      ~left:(fun w -> lefts := [| w; w |] :: !lefts)
      ~right:(fun w -> rights := [| w |] :: !rights);
    Sqlfront.Engine.set_collection session "leftNodes"
      ~columns:[ "min"; "max" ] !lefts;
    Sqlfront.Engine.set_collection session "rightNodes" ~columns:[ "node" ]
      !rights;
    let via_sql =
      Sqlfront.Engine.query session fig9
        ~binds:[ ("lower", Ivl.lower q); ("upper", Ivl.upper q) ]
      |> List.map (fun r -> r.(0))
      |> sorted
    in
    let via_typed = sorted (Exec.Planner.intersecting_ids tree q) in
    if via_sql <> via_typed then
      Alcotest.failf "SQL %d vs typed op %d on %s" (List.length via_sql)
        (List.length via_typed) (Ivl.to_string q)
  done

let test_io_scales_with_results () =
  let data = Dist.generate ~seed:75 Dist.D1 ~n:50_000 ~d:2000 in
  let m = Methods.ri_tree () in
  Methods.load m data;
  let small = Workload.Query_gen.queries ~seed:76 ~data ~count:20 0.002 in
  let large = Workload.Query_gen.queries ~seed:76 ~data ~count:20 0.05 in
  let bs = Harness.Measure.query_batch m.Methods.catalog m.Methods.count_query small in
  let bl = Harness.Measure.query_batch m.Methods.catalog m.Methods.count_query large in
  check Alcotest.bool
    (Printf.sprintf "more results, more I/O (%.1f vs %.1f)"
       bs.Harness.Measure.avg_io bl.Harness.Measure.avg_io)
    true
    (bl.Harness.Measure.avg_io > bs.Harness.Measure.avg_io)

let test_temporal_example_end_to_end () =
  (* the temporal store shares a catalog with a plain RI-tree without
     interference *)
  let db = Relation.Catalog.create () in
  let plain = Ritree.Ri_tree.create ~name:"plain" db in
  let store = Ritree.Temporal_store.create ~name:"vt" db in
  ignore (Ritree.Ri_tree.insert ~id:1 plain (Ivl.make 0 10));
  ignore
    (Ritree.Temporal_store.insert ~id:2 store
       (Interval.Temporal.make 5 Interval.Temporal.Infinity));
  check (Alcotest.list Alcotest.int) "plain" [ 1 ]
    (Exec.Planner.intersecting_ids plain (Ivl.make 4 6));
  check (Alcotest.list Alcotest.int) "temporal" [ 2 ]
    (Exec.Planner.temporal_ids store ~now:100 (Ivl.make 4 6))

let test_deletion_workload_consistency () =
  (* heavy churn across table, indexes and the RI-tree at once *)
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  let rng = Workload.Prng.create ~seed:77 in
  let live = Hashtbl.create 64 in
  for i = 0 to 2_000 do
    if Workload.Prng.int rng 3 = 0 && Hashtbl.length live > 0 then begin
      let victims = Hashtbl.fold (fun id ivl acc -> (id, ivl) :: acc) live [] in
      let id, ivl = List.nth victims (Workload.Prng.int rng (List.length victims)) in
      check Alcotest.bool "delete ok" true (Ritree.Ri_tree.delete tree ~id ivl);
      Hashtbl.remove live id
    end
    else begin
      let l = Workload.Prng.int rng 100_000 in
      let ivl = Ivl.make l (l + Workload.Prng.int rng 5_000) in
      ignore (Ritree.Ri_tree.insert ~id:i tree ivl);
      Hashtbl.replace live i ivl
    end
  done;
  Ritree.Ri_tree.check_invariants tree;
  check Alcotest.int "live count" (Hashtbl.length live) (Ritree.Ri_tree.count tree);
  (* final sweep query *)
  let expected =
    Hashtbl.fold (fun id _ acc -> id :: acc) live [] |> sorted
  in
  check (Alcotest.list Alcotest.int) "all live found" expected
    (sorted (Exec.Planner.intersecting_ids tree (Ivl.make 0 200_000)))

let () =
  Alcotest.run "integration"
    [
      ("integration",
       [ Alcotest.test_case "all methods agree" `Quick test_all_methods_agree;
         Alcotest.test_case "SQL path = library path" `Quick
           test_sql_agrees_with_library;
         Alcotest.test_case "I/O grows with result size" `Quick
           test_io_scales_with_results;
         Alcotest.test_case "temporal + plain share a catalog" `Quick
           test_temporal_example_end_to_end;
         Alcotest.test_case "churn consistency" `Quick
           test_deletion_workload_consistency ]);
    ]
