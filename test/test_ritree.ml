(* The RI-tree itself: relational behaviour, oracle agreement of the
   planner's Fig. 9 queries over it, paper invariants. *)

module Ivl = Interval.Ivl
module Ri = Ritree.Ri_tree
module Pl = Exec.Planner
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort compare

let mk_db () = Relation.Catalog.create ()

let test_schema_of_fig2 () =
  let db = mk_db () in
  let t = Ri.create ~name:"iv" db in
  let table = Ri.table t in
  check (Alcotest.array Alcotest.string) "base columns"
    [| "node"; "lower"; "upper"; "id" |]
    (Relation.Table.columns table);
  check (Alcotest.array Alcotest.string) "lowerIndex"
    [| "node"; "lower"; "id" |]
    (Relation.Table.Index.columns (Ri.lower_index t));
  check (Alcotest.array Alcotest.string) "upperIndex"
    [| "node"; "upper"; "id" |]
    (Relation.Table.Index.columns (Ri.upper_index t));
  (* the parameter dictionary is itself a relational table *)
  check Alcotest.bool "params table exists" true
    (Relation.Catalog.find_table db "iv_params" <> None)

(* The server's layout: both indexes carry both bounds, and a reopened
   tree gets its index columns back from the catalog. *)
let test_schema_covering () =
  let db = Relation.Catalog.create ~durable:true () in
  let t = Ri.create ~name:"iv" ~layout:Ri.Covering db in
  check (Alcotest.array Alcotest.string) "base columns"
    [| "node"; "lower"; "upper"; "id" |]
    (Relation.Table.columns (Ri.table t));
  let lower_cols = [| "node"; "lower"; "upper"; "id" |]
  and upper_cols = [| "node"; "upper"; "lower"; "id" |] in
  check (Alcotest.array Alcotest.string) "lowerIndex" lower_cols
    (Relation.Table.Index.columns (Ri.lower_index t));
  check (Alcotest.array Alcotest.string) "upperIndex" upper_cols
    (Relation.Table.Index.columns (Ri.upper_index t));
  ignore (Ri.insert t (Ivl.make 3 9));
  Relation.Catalog.commit db;
  let db2 = Relation.Catalog.reopen db in
  let t2 = Ri.open_existing ~name:"iv" db2 in
  check (Alcotest.array Alcotest.string) "reopened lowerIndex" lower_cols
    (Relation.Table.Index.columns (Ri.lower_index t2));
  check (Alcotest.array Alcotest.string) "reopened upperIndex" upper_cols
    (Relation.Table.Index.columns (Ri.upper_index t2));
  check (Alcotest.list Alcotest.int) "reopened answers" [ 0 ]
    (Pl.intersecting_ids t2 (Ivl.make 5 5));
  check Alcotest.bool "delete finds the row" true
    (Ri.delete t2 ~id:0 (Ivl.make 3 9));
  check Alcotest.int "empty" 0 (Ri.count t2)

let test_ids () =
  let db = mk_db () in
  let t = Ri.create db in
  let a = Ri.insert t (Ivl.make 1 5) in
  let b = Ri.insert t (Ivl.make 2 6) in
  check Alcotest.bool "fresh ids distinct" true (a <> b);
  let c = Ri.insert ~id:100 t (Ivl.make 0 1) in
  check Alcotest.int "explicit id" 100 c;
  let d = Ri.insert t (Ivl.make 0 1) in
  check Alcotest.bool "counter jumps past explicit ids" true (d > 100)

let test_index_entries_storage () =
  let db = mk_db () in
  let t = Ri.create db in
  for i = 0 to 99 do
    ignore (Ri.insert t (Ivl.make i (i + 10)))
  done;
  (* Fig. 12: exactly two index entries per interval, no redundancy *)
  check Alcotest.int "2n entries" 200 (Ri.index_entries t);
  check Alcotest.int "count" 100 (Ri.count t)

let test_params_persisted_relationally () =
  let db = mk_db () in
  let t = Ri.create ~name:"x" db in
  ignore (Ri.insert t (Ivl.make 50 60));
  ignore (Ri.insert t (Ivl.make 300 400));
  let pt = Relation.Catalog.table db "x_params" in
  check Alcotest.int "exactly one params row" 1 (Relation.Table.row_count pt);
  let p = Ri.params t in
  Relation.Table.iter pt (fun _ row ->
      check Alcotest.int "offset stored" (Option.get p.Ri.offset) row.(1);
      check Alcotest.int "right_root stored" p.Ri.right_root row.(3);
      check Alcotest.int "min_level stored" p.Ri.min_level row.(4))

let test_delete () =
  let db = mk_db () in
  let t = Ri.create db in
  let id = Ri.insert t (Ivl.make 10 20) in
  ignore (Ri.insert t (Ivl.make 10 20));
  (* same interval, another id *)
  check Alcotest.bool "delete" true (Ri.delete t ~id (Ivl.make 10 20));
  check Alcotest.bool "double delete" false (Ri.delete t ~id (Ivl.make 10 20));
  check Alcotest.bool "wrong interval" false
    (Ri.delete t ~id:(id + 1) (Ivl.make 10 21));
  check Alcotest.int "one left" 1 (Ri.count t);
  check Alcotest.int "2 entries left" 2 (Ri.index_entries t);
  Ri.check_invariants t

let test_empty_tree_queries () =
  let db = mk_db () in
  let t = Ri.create db in
  check (Alcotest.list Alcotest.int) "empty" []
    (Pl.intersecting_ids t (Ivl.make 0 100));
  check Alcotest.int "seq-scan count" 0
    (List.length (Pl.intersecting_ids ~path:Pl.Seq t (Ivl.make 0 100)))

(* Randomized oracle agreement, including deletions, duplicates,
   negative coordinates and data-space expansion in both directions. *)
let oracle_run ~seed ~n ~range ~len ~queries ~deletes =
  let rng = Workload.Prng.create ~seed in
  let db = mk_db () in
  let t = Ri.create db in
  let naive = Naive.create () in
  let live = ref [] in
  for i = 0 to n - 1 do
    let l = Workload.Prng.int rng (2 * range) - range in
    let ivl = Ivl.make l (l + Workload.Prng.int rng len) in
    ignore (Ri.insert ~id:i t ivl);
    ignore (Naive.insert ~id:i naive ivl);
    live := (ivl, i) :: !live
  done;
  for _ = 1 to deletes do
    match !live with
    | (ivl, id) :: rest ->
        check Alcotest.bool "delete agrees" (Naive.delete naive ~id ivl)
          (Ri.delete t ~id ivl);
        live := rest
    | [] -> ()
  done;
  for _ = 1 to queries do
    let ql = Workload.Prng.int rng (3 * range) - (3 * range / 2) in
    let q = Ivl.make ql (ql + Workload.Prng.int rng (2 * len)) in
    let expected = sorted (Naive.intersecting_ids naive q) in
    let got = sorted (Pl.intersecting_ids t q) in
    if got <> expected then
      Alcotest.failf "query %s: %d vs %d results" (Ivl.to_string q)
        (List.length got) (List.length expected);
    (* the UNION ALL branches are disjoint: no duplicates *)
    if List.length got <> List.length (List.sort_uniq compare got) then
      Alcotest.fail "duplicate results";
    check Alcotest.int "seq-scan count agrees" (List.length expected)
      (List.length (Pl.intersecting_ids ~path:Pl.Seq t q));
    let rows = Pl.intersecting t q in
    check Alcotest.int "intersecting returns same size" (List.length expected)
      (List.length rows)
  done;
  Ri.check_invariants t

let test_oracle_positive () =
  oracle_run ~seed:21 ~n:400 ~range:5000 ~len:500 ~queries:150 ~deletes:0

let test_oracle_negative () =
  oracle_run ~seed:22 ~n:400 ~range:800 ~len:300 ~queries:150 ~deletes:0

let test_oracle_with_deletes () =
  oracle_run ~seed:23 ~n:400 ~range:2000 ~len:400 ~queries:100 ~deletes:200

let test_oracle_points () =
  oracle_run ~seed:24 ~n:500 ~range:3000 ~len:1 ~queries:150 ~deletes:0

let test_oracle_long_intervals () =
  oracle_run ~seed:25 ~n:200 ~range:500 ~len:4000 ~queries:100 ~deletes:50

let test_stabbing () =
  let db = mk_db () in
  let t = Ri.create db in
  ignore (Ri.insert ~id:1 t (Ivl.make 0 10));
  ignore (Ri.insert ~id:2 t (Ivl.make 5 15));
  ignore (Ri.insert ~id:3 t (Ivl.make 12 20));
  check (Alcotest.list Alcotest.int) "stab 7" [ 1; 2 ]
    (sorted (Pl.stabbing_ids t 7));
  check (Alcotest.list Alcotest.int) "stab 12" [ 2; 3 ]
    (sorted (Pl.stabbing_ids t 12));
  check (Alcotest.list Alcotest.int) "stab 25" [] (Pl.stabbing_ids t 25)

let test_dynamic_expansion_both_ends () =
  (* Sec. 3.4: offset fixed at the first insertion; later intervals may
     lie far left or right of it. *)
  let db = mk_db () in
  let t = Ri.create db in
  ignore (Ri.insert ~id:0 t (Ivl.make 1000 1100));
  ignore (Ri.insert ~id:1 t (Ivl.make 5 10)); (* left of the offset *)
  ignore (Ri.insert ~id:2 t (Ivl.make 1_000_000 1_000_010));
  let p = Ri.params t in
  check Alcotest.int "offset from first interval" 1000
    (Option.get p.Ri.offset);
  check Alcotest.bool "left subtree opened" true (p.Ri.left_root < 0);
  check Alcotest.bool "right subtree grown" true (p.Ri.right_root >= 512);
  check (Alcotest.list Alcotest.int) "all findable" [ 0; 1; 2 ]
    (sorted (Pl.intersecting_ids t (Ivl.make 0 2_000_000)));
  check (Alcotest.list Alcotest.int) "left find" [ 1 ]
    (sorted (Pl.intersecting_ids t (Ivl.make 0 20)));
  Ri.check_invariants t

let test_height_independent_of_n () =
  let db = mk_db () in
  let t = Ri.create db in
  ignore (Ri.insert t (Ivl.make 0 100));
  for i = 0 to 999 do
    ignore (Ri.insert t (Ivl.make (i mod 900) ((i mod 900) + 100)))
  done;
  let h1 = Ri.height t in
  for i = 0 to 4999 do
    ignore (Ri.insert t (Ivl.make (i mod 900) ((i mod 900) + 100)))
  done;
  (* Sec. 3.5: the height depends on extent and granularity, not n *)
  check Alcotest.int "height unchanged by volume" h1 (Ri.height t)

let test_min_level_tracks_granularity () =
  let db = mk_db () in
  let t = Ri.create db in
  (* long intervals only: min_level stays high *)
  for i = 0 to 49 do
    ignore (Ri.insert t (Ivl.make (i * 1000) ((i * 1000) + 4000)))
  done;
  let p1 = Ri.params t in
  check Alcotest.bool "coarse" true (p1.Ri.min_level >= 10);
  (* one short interval can lower it *)
  ignore (Ri.insert t (Ivl.make 777 778));
  let p2 = Ri.params t in
  check Alcotest.bool "finer after short interval" true
    (p2.Ri.min_level <= p1.Ri.min_level)

let test_fork_node_matches_memindex () =
  (* The virtual backbone computes the same fork nodes as the explicit
     main-memory interval tree when both index the same coordinates
     under the same root. *)
  let mem = Memindex.Interval_tree.create ~lo:1 ~hi:1023 in
  (* lo = 1 means internal coordinates are unshifted, root 512 *)
  let roots = { Ritree.Backbone.left_root = 0; right_root = 512 } in
  let rng = Workload.Prng.create ~seed:9 in
  for _ = 0 to 200 do
    let l = 1 + Workload.Prng.int rng 1000 in
    let u = min 1023 (l + Workload.Prng.int rng 40) in
    let ivl = Ivl.make l u in
    let mem_fork = Memindex.Interval_tree.fork_node mem ivl in
    let backbone_fork = Ritree.Backbone.fork roots ~l ~u in
    check Alcotest.int "fork agreement" mem_fork backbone_fork
  done

let test_bulk_load_equals_incremental () =
  let rng = Workload.Prng.create ~seed:19 in
  let data =
    Array.init 800 (fun i ->
        let l = Workload.Prng.int rng 200_000 in
        (Ivl.make l (l + Workload.Prng.int rng 3_000), i))
  in
  let db1 = mk_db () and db2 = mk_db () in
  let inc = Ri.create db1 in
  Array.iter (fun (ivl, id) -> ignore (Ri.insert ~id inc ivl)) data;
  let blk = Ri.bulk_load db2 data in
  Ri.check_invariants blk;
  check Alcotest.int "count" (Ri.count inc) (Ri.count blk);
  check Alcotest.int "entries" (Ri.index_entries inc) (Ri.index_entries blk);
  let pi = Ri.params inc and pb = Ri.params blk in
  check Alcotest.bool "same params" true (pi = pb);
  for _ = 1 to 60 do
    let l = Workload.Prng.int rng 210_000 in
    let q = Ivl.make l (l + Workload.Prng.int rng 8_000) in
    check (Alcotest.list Alcotest.int) "same answers"
      (sorted (Pl.intersecting_ids inc q))
      (sorted (Pl.intersecting_ids blk q))
  done;
  (* the bulk-loaded tree stays dynamic *)
  let extra = Ri.insert blk (Ivl.make 50 60) in
  check Alcotest.bool "insert works" true
    (List.mem extra (Pl.intersecting_ids blk (Ivl.make 55 58)));
  check Alcotest.bool "delete works" true
    (Ri.delete blk ~id:extra (Ivl.make 50 60));
  Ri.check_invariants blk

let test_bulk_load_empty () =
  let db = mk_db () in
  let t = Ri.bulk_load db [||] in
  check Alcotest.int "count" 0 (Ri.count t);
  check (Alcotest.list Alcotest.int) "query" []
    (Pl.intersecting_ids t (Ivl.make 0 100));
  ignore (Ri.insert t (Ivl.make 1 2));
  check Alcotest.int "grows" 1 (Ri.count t)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_explain_mentions_plan () =
  let db = mk_db () in
  let t = Ri.create db in
  ignore (Ri.insert t (Ivl.make 10 50));
  let plan = Pl.explain t (Pl.Intersect_target (Ivl.make 20 30)) in
  List.iter
    (fun needle ->
      if not (contains_substring plan needle) then
        Alcotest.failf "plan misses %S:\n%s" needle plan)
    [ "UNION-ALL"; "NESTED LOOPS"; "COLLECTION ITERATOR leftNodes";
      "COLLECTION ITERATOR rightNodes"; "INDEX RANGE SCAN INTERVALS_UPPER";
      "INDEX RANGE SCAN INTERVALS_LOWER" ]

let test_bound_validation () =
  let db = mk_db () in
  let t = Ri.create db in
  let rejects name v =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Ri_tree: bound %d exceeds the supported magnitude" v))
      (fun () ->
        ignore
          (Ri.insert t (if v < 0 then Ivl.make v 0 else Ivl.make 0 v)))
  in
  rejects "huge bound" (Ri.max_bound_magnitude + 1);
  rejects "huge negative bound" (-Ri.max_bound_magnitude - 1);
  (* regression: the check once used [abs], and [abs min_int] is
     [min_int] itself — negative, so it slipped past the limit *)
  rejects "min_int" min_int;
  rejects "min_int + 1" (min_int + 1);
  rejects "max_int" max_int;
  (* the advertised extremes themselves are accepted *)
  ignore (Ri.insert t (Ivl.make (-Ri.max_bound_magnitude) Ri.max_bound_magnitude))

let () =
  Alcotest.run "ritree"
    [
      ("relational",
       [ Alcotest.test_case "schema of Fig. 2" `Quick test_schema_of_fig2;
         Alcotest.test_case "id assignment" `Quick test_ids;
         Alcotest.test_case "2n index entries" `Quick
           test_index_entries_storage;
         Alcotest.test_case "params persisted relationally" `Quick
           test_params_persisted_relationally;
         Alcotest.test_case "delete" `Quick test_delete;
         Alcotest.test_case "bound validation" `Quick test_bound_validation;
         Alcotest.test_case "bulk load = incremental" `Quick
           test_bulk_load_equals_incremental;
         Alcotest.test_case "bulk load empty" `Quick test_bulk_load_empty;
         Alcotest.test_case "covering schema" `Quick test_schema_covering ]);
      ("queries",
       [ Alcotest.test_case "empty tree" `Quick test_empty_tree_queries;
         Alcotest.test_case "stabbing" `Quick test_stabbing;
         Alcotest.test_case "oracle: positive" `Quick test_oracle_positive;
         Alcotest.test_case "oracle: negative coords" `Quick
           test_oracle_negative;
         Alcotest.test_case "oracle: with deletes" `Quick
           test_oracle_with_deletes;
         Alcotest.test_case "oracle: points" `Quick test_oracle_points;
         Alcotest.test_case "oracle: long intervals" `Quick
           test_oracle_long_intervals ]);
      ("dynamics",
       [ Alcotest.test_case "expansion at both ends" `Quick
           test_dynamic_expansion_both_ends;
         Alcotest.test_case "height independent of n" `Quick
           test_height_independent_of_n;
         Alcotest.test_case "min_level tracks granularity" `Quick
           test_min_level_tracks_granularity;
         Alcotest.test_case "fork agrees with main-memory tree" `Quick
           test_fork_node_matches_memindex;
         Alcotest.test_case "explain shows Fig. 10 plan" `Quick
           test_explain_mentions_plan ]);
    ]
