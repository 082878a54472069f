(* Tables with automatic index maintenance, and the catalog. *)

module Table = Relation.Table
module Catalog = Relation.Catalog

let check = Alcotest.check

let mk_db () = Catalog.create ~block_size:256 ~cache_blocks:64 ()

let mk_table ?(name = "t") db =
  Catalog.create_table db ~name ~columns:[ "a"; "b"; "c" ]

let test_schema () =
  let db = mk_db () in
  let t = mk_table db in
  check (Alcotest.array Alcotest.string) "columns" [| "a"; "b"; "c" |]
    (Table.columns t);
  check Alcotest.int "column index" 1 (Table.column_index t "b");
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Table.column_index t "z"));
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Table.create: duplicate column x") (fun () ->
      ignore (Catalog.create_table db ~name:"bad" ~columns:[ "x"; "x" ]))

let test_catalog () =
  let db = mk_db () in
  let t = mk_table db in
  check Alcotest.bool "find" true
    (match Catalog.find_table db "t" with Some x -> x == t | None -> false);
  check Alcotest.bool "missing" true (Catalog.find_table db "nope" = None);
  Alcotest.check_raises "duplicate table"
    (Invalid_argument "Catalog.create_table: t exists") (fun () ->
      ignore (mk_table db))

let test_index_maintenance () =
  let db = mk_db () in
  let t = mk_table db in
  let idx = Table.create_index t ~name:"ab" ~columns:[ "a"; "b" ] in
  let rid1 = Table.insert t [| 1; 2; 3 |] in
  let _rid2 = Table.insert t [| 4; 5; 6 |] in
  check Alcotest.int "entries" 2 (Table.Index.entry_count idx);
  Table.check_invariants t;
  ignore (Table.delete_row t rid1);
  check Alcotest.int "entries after delete" 1 (Table.Index.entry_count idx);
  Table.check_invariants t

let test_index_over_existing_rows () =
  let db = mk_db () in
  let t = mk_table db in
  for i = 0 to 99 do
    ignore (Table.insert t [| i; i * 2; i * 3 |])
  done;
  let idx = Table.create_index t ~name:"late" ~columns:[ "b" ] in
  check Alcotest.int "backfilled" 100 (Table.Index.entry_count idx);
  Table.check_invariants t

let test_bulk_index_equals_incremental () =
  let db = mk_db () in
  let t = mk_table db in
  let rng = Workload.Prng.create ~seed:15 in
  for _ = 0 to 499 do
    ignore
      (Table.insert t
         [| Workload.Prng.int rng 100; Workload.Prng.int rng 100; 0 |])
  done;
  let inc = Table.create_index t ~name:"inc" ~columns:[ "a"; "b" ] in
  let blk = Table.create_index ~bulk:true t ~name:"blk" ~columns:[ "a"; "b" ] in
  check Alcotest.int "same entries" (Table.Index.entry_count inc)
    (Table.Index.entry_count blk);
  check Alcotest.bool "same keys" true
    (Btree.to_list (Table.Index.tree inc) = Btree.to_list (Table.Index.tree blk));
  check Alcotest.bool "bulk is more compact" true
    (Btree.page_count (Table.Index.tree blk)
     <= Btree.page_count (Table.Index.tree inc));
  (* the bulk index is maintained by future DML like any other *)
  let rid = Table.insert t [| 7; 7; 7 |] in
  check Alcotest.bool "maintained" true
    (Btree.mem (Table.Index.tree blk) [| 7; 7; rid |]);
  Table.check_invariants t

let test_index_on_lookup () =
  let db = mk_db () in
  let t = mk_table db in
  let _ab = Table.create_index t ~name:"ab" ~columns:[ "a"; "b" ] in
  let _c = Table.create_index t ~name:"c" ~columns:[ "c" ] in
  check Alcotest.bool "prefix a" true (Table.index_on t [ "a" ] <> None);
  check Alcotest.bool "prefix ab" true (Table.index_on t [ "a"; "b" ] <> None);
  check Alcotest.bool "no b-leading" true (Table.index_on t [ "b" ] = None);
  check Alcotest.bool "c" true (Table.index_on t [ "c" ] <> None)

let test_update_row_maintains_indexes () =
  let db = mk_db () in
  let t = mk_table db in
  let idx = Table.create_index t ~name:"a" ~columns:[ "a" ] in
  let rid = Table.insert t [| 1; 0; 0 |] in
  check Alcotest.bool "update" true (Table.update_row t rid [| 42; 0; 0 |]);
  let tree = Table.Index.tree idx in
  check Alcotest.bool "old key gone" false (Btree.mem tree [| 1; rid |]);
  check Alcotest.bool "new key present" true (Btree.mem tree [| 42; rid |]);
  Table.check_invariants t

let test_delete_where () =
  let db = mk_db () in
  let t = mk_table db in
  ignore (Table.create_index t ~name:"a" ~columns:[ "a" ]);
  for i = 0 to 49 do
    ignore (Table.insert t [| i; 0; 0 |])
  done;
  let n = Table.delete_where t (fun r -> r.(0) mod 5 = 0) in
  check Alcotest.int "deleted" 10 n;
  check Alcotest.int "rows" 40 (Table.row_count t);
  Table.check_invariants t

let test_duplicate_rows_ok () =
  (* identical rows are distinct via their rowid in index keys *)
  let db = mk_db () in
  let t = mk_table db in
  let idx = Table.create_index t ~name:"a" ~columns:[ "a" ] in
  let r1 = Table.insert t [| 7; 7; 7 |] in
  let _r2 = Table.insert t [| 7; 7; 7 |] in
  check Alcotest.int "two entries" 2 (Table.Index.entry_count idx);
  ignore (Table.delete_row t r1);
  check Alcotest.int "one left" 1 (Table.Index.entry_count idx);
  Table.check_invariants t

let test_io_counting () =
  let db = Catalog.create ~block_size:256 ~cache_blocks:8 () in
  let t = Catalog.create_table db ~name:"x" ~columns:[ "a" ] in
  for i = 0 to 999 do
    ignore (Table.insert t [| i |])
  done;
  Catalog.flush db;
  Catalog.reset_io_stats db;
  Catalog.drop_cache db;
  let seen = ref 0 in
  Table.iter t (fun _ _ -> incr seen);
  let stats = Catalog.io_stats db in
  check Alcotest.int "all rows" 1000 !seen;
  check Alcotest.bool "cold scan costs reads" true
    (stats.Storage.Block_device.Stats.reads > 10)

(* Index entries are the key columns with the rowid appended; a key
   prefix selects exactly the rows carrying it. *)
let test_index_prefix () =
  let db = mk_db () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "k"; "v" ] in
  let idx = Table.create_index t ~name:"k" ~columns:[ "k" ] in
  let rids = List.init 20 (fun i -> Table.insert t [| i mod 5; 100 + i |]) in
  let tree = Table.Index.tree idx in
  let entries =
    Btree.range_list tree ~lo:(Btree.lo_pad tree [ 2 ])
      ~hi:(Btree.hi_pad tree [ 2 ])
  in
  check
    (Alcotest.list (Alcotest.array Alcotest.int))
    "k = 2 entries"
    (List.filteri (fun i _ -> i mod 5 = 2) rids
    |> List.map (fun r -> [| 2; r |])
    |> List.sort compare)
    entries

let () =
  Alcotest.run "table"
    [
      ("table",
       [ Alcotest.test_case "schema" `Quick test_schema;
         Alcotest.test_case "catalog" `Quick test_catalog;
         Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
         Alcotest.test_case "index over existing rows" `Quick
           test_index_over_existing_rows;
         Alcotest.test_case "bulk index = incremental index" `Quick
           test_bulk_index_equals_incremental;
         Alcotest.test_case "index_on" `Quick test_index_on_lookup;
         Alcotest.test_case "index prefix entries" `Quick test_index_prefix;
         Alcotest.test_case "update_row maintains indexes" `Quick
           test_update_row_maintains_indexes;
         Alcotest.test_case "delete_where" `Quick test_delete_where;
         Alcotest.test_case "duplicate rows" `Quick test_duplicate_rows_ok;
         Alcotest.test_case "physical I/O counting" `Quick test_io_counting ]);
    ]
