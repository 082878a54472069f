(* Competitor access methods: correctness against the brute-force
   oracle plus their structural characteristics from the paper. *)

module Ivl = Interval.Ivl
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort compare

let mk_db () = Relation.Catalog.create ()

let dataset ~seed ~n ~range ~len =
  let rng = Workload.Prng.create ~seed in
  Array.init n (fun _ ->
      let l = Workload.Prng.int rng range in
      Ivl.make l (l + Workload.Prng.int rng len))

let queries rng ~count ~range ~len =
  Array.init count (fun _ ->
      let l = Workload.Prng.int rng range in
      Ivl.make l (l + Workload.Prng.int rng len))

let oracle_check ~name ~query data qs =
  let naive = Naive.create () in
  Array.iteri (fun i ivl -> ignore (Naive.insert ~id:i naive ivl)) data;
  Array.iter
    (fun q ->
      let expected = sorted (Naive.intersecting_ids naive q) in
      let got = sorted (query q) in
      if got <> expected then
        Alcotest.failf "%s %s: %d vs %d" name (Ivl.to_string q)
          (List.length got) (List.length expected);
      if List.length got <> List.length (List.sort_uniq compare got) then
        Alcotest.failf "%s returned duplicates" name)
    qs

(* ---- IST ---- *)

let test_ist_orders () =
  let data = dataset ~seed:31 ~n:400 ~range:10_000 ~len:800 in
  let rng = Workload.Prng.create ~seed:32 in
  let qs = queries rng ~count:100 ~range:11_000 ~len:1_500 in
  List.iter
    (fun order ->
      let db = mk_db () in
      let t = Baselines.Ist.create ~order db in
      Array.iteri (fun i ivl -> ignore (Baselines.Ist.insert ~id:i t ivl)) data;
      check Alcotest.int "n entries" (Array.length data)
        (Baselines.Ist.index_entries t);
      oracle_check ~name:"ist" ~query:(Baselines.Ist.intersecting_ids t) data qs)
    [ Baselines.Ist.D_order; Baselines.Ist.V_order ]

let test_ist_delete () =
  let db = mk_db () in
  let t = Baselines.Ist.create db in
  let id = Baselines.Ist.insert t (Ivl.make 5 9) in
  check Alcotest.bool "delete" true (Baselines.Ist.delete t ~id (Ivl.make 5 9));
  check Alcotest.bool "again" false (Baselines.Ist.delete t ~id (Ivl.make 5 9));
  check Alcotest.int "count" 0 (Baselines.Ist.count t)

(* The structural weakness of Sec. 2.3: a D-order scan visits every
   entry with upper >= query lower, so a point query far from the data
   space's upper bound reads almost the whole index. *)
let test_ist_asymmetry () =
  let data = dataset ~seed:33 ~n:2_000 ~range:100_000 ~len:100 in
  let db = mk_db () in
  let t = Baselines.Ist.create db in
  Array.iteri (fun i ivl -> ignore (Baselines.Ist.insert ~id:i t ivl)) data;
  let near = Ivl.point 99_999 and far = Ivl.point 100 in
  Relation.Catalog.drop_cache db;
  let _, io_near =
    Harness.Measure.io db (fun () -> Baselines.Ist.intersecting_ids t near)
  in
  Relation.Catalog.drop_cache db;
  let _, io_far =
    Harness.Measure.io db (fun () -> Baselines.Ist.intersecting_ids t far)
  in
  check Alcotest.bool
    (Printf.sprintf "far (%d) costs more than near (%d)" io_far io_near)
    true
    (io_far > 4 * max 1 io_near)

(* ---- MAP21 ---- *)

let test_map21_oracle () =
  let data = dataset ~seed:34 ~n:400 ~range:20_000 ~len:600 in
  let rng = Workload.Prng.create ~seed:35 in
  let qs = queries rng ~count:100 ~range:22_000 ~len:1_200 in
  let db = mk_db () in
  let t = Baselines.Map21.create db in
  Array.iteri (fun i ivl -> ignore (Baselines.Map21.insert ~id:i t ivl)) data;
  oracle_check ~name:"map21" ~query:(Baselines.Map21.intersecting_ids t) data qs;
  check Alcotest.bool "max length tracked" true
    (Baselines.Map21.max_length t > 0)

let test_map21_encode () =
  let i = Ivl.make 5 9 in
  check Alcotest.int "code" ((5 lsl 21) lor 9) (Baselines.Map21.encode i);
  Alcotest.check_raises "out of domain"
    (Invalid_argument "Map21.encode: bounds outside [0, 2^21)") (fun () ->
      ignore (Baselines.Map21.encode (Ivl.make 0 (1 lsl 21))))

let test_map21_delete () =
  let db = mk_db () in
  let t = Baselines.Map21.create db in
  let id = Baselines.Map21.insert t (Ivl.make 3 7) in
  check Alcotest.bool "delete" true
    (Baselines.Map21.delete t ~id (Ivl.make 3 7));
  check Alcotest.int "count" 0 (Baselines.Map21.count t)

(* ---- Tile index ---- *)

let test_tile_oracle_multiple_levels () =
  let data = dataset ~seed:36 ~n:300 ~range:500_000 ~len:5_000 in
  let rng = Workload.Prng.create ~seed:37 in
  let qs = queries rng ~count:60 ~range:520_000 ~len:10_000 in
  List.iter
    (fun level ->
      let db = mk_db () in
      let t = Baselines.Tile_index.create ~level db in
      Array.iteri
        (fun i ivl -> ignore (Baselines.Tile_index.insert ~id:i t ivl))
        data;
      oracle_check
        ~name:(Printf.sprintf "tile level %d" level)
        ~query:(Baselines.Tile_index.intersecting_ids t)
        data qs;
      check Alcotest.int "interval count" (Array.length data)
        (Baselines.Tile_index.count t))
    [ 0; 5; 8; 12; 16 ]

let test_tile_redundancy_grows_with_level () =
  let data = dataset ~seed:38 ~n:200 ~range:500_000 ~len:4_000 in
  let redundancy level =
    let db = mk_db () in
    let t = Baselines.Tile_index.create ~level db in
    Array.iteri
      (fun i ivl -> ignore (Baselines.Tile_index.insert ~id:i t ivl))
      data;
    Baselines.Tile_index.redundancy t
  in
  let r5 = redundancy 5 and r10 = redundancy 10 and r16 = redundancy 16 in
  check Alcotest.bool
    (Printf.sprintf "monotone: %.1f <= %.1f <= %.1f" r5 r10 r16)
    true
    (r5 <= r10 +. 0.01 && r10 <= r16 +. 0.01)

let test_tile_points_no_redundancy () =
  (* Fig. 16: "the redundancy ... decreases from 10.1 to 1 when the mean
     value of interval duration is reduced ... to 0" *)
  let db = mk_db () in
  let t = Baselines.Tile_index.create ~level:8 db in
  for i = 0 to 99 do
    ignore (Baselines.Tile_index.insert t (Ivl.point (i * 1000)))
  done;
  check (Alcotest.float 0.001) "redundancy 1" 1.0
    (Baselines.Tile_index.redundancy t)

let test_tile_delete () =
  let db = mk_db () in
  let t = Baselines.Tile_index.create ~level:12 db in
  let id = Baselines.Tile_index.insert t (Ivl.make 100 90_000) in
  check Alcotest.bool "entries > 1" true
    (Baselines.Tile_index.index_entries t > 1);
  check Alcotest.bool "delete" true
    (Baselines.Tile_index.delete t ~id (Ivl.make 100 90_000));
  check Alcotest.int "entries gone" 0 (Baselines.Tile_index.index_entries t)

let test_tile_calibration () =
  let data = dataset ~seed:39 ~n:1_000 ~range:1_000_000 ~len:2_000 in
  let rng = Workload.Prng.create ~seed:40 in
  let qs = queries rng ~count:30 ~range:1_000_000 ~len:6_000 in
  let level =
    Baselines.Tile_index.recommended_level ~sample:data ~queries:qs ()
  in
  check Alcotest.bool
    (Printf.sprintf "level %d in candidate range" level)
    true
    (level >= 4 && level <= 12)

(* ---- Window-List ---- *)

let test_window_list_oracle () =
  let data = dataset ~seed:41 ~n:500 ~range:50_000 ~len:2_000 in
  let rng = Workload.Prng.create ~seed:42 in
  let qs = queries rng ~count:80 ~range:52_000 ~len:4_000 in
  let db = mk_db () in
  let t = Baselines.Window_list.build db data in
  oracle_check ~name:"window-list"
    ~query:(Baselines.Window_list.intersecting_ids t)
    data qs;
  (* stabbing *)
  for p = 0 to 50 do
    let q = p * 997 in
    let naive = Naive.create () in
    Array.iteri (fun i ivl -> ignore (Naive.insert ~id:i naive ivl)) data;
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "stab %d" q)
      (sorted (Naive.stabbing_ids naive q))
      (sorted (Baselines.Window_list.stabbing_ids t q))
  done;
  check Alcotest.bool "several windows" true
    (Baselines.Window_list.window_count t > 1)

let test_window_list_static () =
  let db = mk_db () in
  let t = Baselines.Window_list.build db [| Ivl.make 0 5 |] in
  Alcotest.check_raises "static"
    (Failure "Window_list.insert: the Window-List is a static structure")
    (fun () -> ignore (Baselines.Window_list.insert t (Ivl.make 1 2)))

(* ---- the competitors' I/O ---- *)

(* The [rikit compare] methods over its workload at n = 5 000 (D1,
   d = 2 000, seed 42, 20 queries at 1 %), each from a cold 50-block
   cache: the physical I/O and the result count are pinned to the values
   the Sec. 6 method handles gave before the competitors' queries became
   executor plans. *)
let test_compare_io_pinned () =
  let module M = Harness.Methods in
  let data =
    Workload.Distribution.generate ~seed:42 Workload.Distribution.D1 ~n:5_000
      ~d:2_000
  in
  let queries = Workload.Query_gen.queries ~data ~count:20 0.01 in
  let level = M.calibrated_tile_level data ~queries in
  let cache_blocks = 50 in
  List.iter
    (fun ((m : M.t), io) ->
      M.load m data;
      Relation.Catalog.drop_cache m.M.catalog;
      let b = Harness.Measure.query_batch m.M.catalog (M.count m) queries in
      check Alcotest.int (m.M.label ^ " I/O") io b.Harness.Measure.total_io;
      check Alcotest.int (m.M.label ^ " results") 1_001
        b.Harness.Measure.total_results)
    [ (M.ri_tree ~cache_blocks (), 133);
      (M.tile ~cache_blocks ~level (), 340);
      (M.ist ~cache_blocks (), 768);
      (M.map21 ~cache_blocks (), 35) ]

let () =
  Alcotest.run "baselines"
    [
      ("ist",
       [ Alcotest.test_case "D- and V-order vs oracle" `Quick test_ist_orders;
         Alcotest.test_case "delete" `Quick test_ist_delete;
         Alcotest.test_case "one-bound asymmetry (Fig. 17)" `Quick
           test_ist_asymmetry ]);
      ("map21",
       [ Alcotest.test_case "oracle" `Quick test_map21_oracle;
         Alcotest.test_case "encoding" `Quick test_map21_encode;
         Alcotest.test_case "delete" `Quick test_map21_delete ]);
      ("tile",
       [ Alcotest.test_case "oracle at levels 0/5/8/12/16" `Quick
           test_tile_oracle_multiple_levels;
         Alcotest.test_case "redundancy grows with level" `Quick
           test_tile_redundancy_grows_with_level;
         Alcotest.test_case "points have redundancy 1" `Quick
           test_tile_points_no_redundancy;
         Alcotest.test_case "delete removes all tiles" `Quick
           test_tile_delete;
         Alcotest.test_case "level calibration" `Quick test_tile_calibration ]);
      ("window-list",
       [ Alcotest.test_case "oracle + stabbing" `Quick test_window_list_oracle;
         Alcotest.test_case "static structure" `Quick test_window_list_static ]);
      ("compare",
       [ Alcotest.test_case "I/O and results pinned" `Quick
           test_compare_io_pinned ]);
    ]
