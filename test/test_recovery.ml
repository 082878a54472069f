(* Durability: write-ahead journal, crash recovery, reopening from the
   system dictionary. *)

module Ivl = Interval.Ivl
module Catalog = Relation.Catalog
module Table = Relation.Table
module Ri = Ritree.Ri_tree

let check = Alcotest.check
let sorted = List.sort compare

(* ---- codec ---- *)

let test_codec_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.string s s (Relation.Codec.decode_name (Relation.Codec.encode_name s)))
    [ "a"; "intervals"; "a_long_table_name_27bytes!" ];
  Alcotest.check_raises "too long"
    (Invalid_argument
       "Codec.encode_name: \"0123456789012345678901234567\" longer than \
        27 bytes")
    (fun () ->
      ignore (Relation.Codec.encode_name "0123456789012345678901234567"));
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.encode_name: empty name") (fun () ->
      ignore (Relation.Codec.encode_name ""))

(* ---- journal mechanics ---- *)

let test_journal_records () =
  let j = Storage.Journal.create () in
  check Alcotest.int "empty" 0 (Storage.Journal.record_count j);
  Storage.Journal.append j Storage.Journal.Commit;
  Storage.Journal.append j
    (Storage.Journal.Write
       { page = 0; before = Bytes.make 4 'a'; after = Bytes.make 4 'b' });
  check Alcotest.int "two" 2 (Storage.Journal.record_count j);
  check Alcotest.int "bytes" 8 (Storage.Journal.byte_size j);
  Storage.Journal.truncate j;
  check Alcotest.int "truncated" 0 (Storage.Journal.record_count j)

let test_journal_recover_redo_and_undo () =
  let dev = Storage.Block_device.create ~block_size:64 () in
  let j = Storage.Journal.create () in
  let p0 = Storage.Block_device.alloc dev in
  let p1 = Storage.Block_device.alloc dev in
  let img c = Bytes.make 64 c in
  (* committed: p0 = 'A'; after the commit: p0 = 'X' (stolen write),
     p1 = 'Y' written for the first time *)
  Storage.Journal.append j
    (Storage.Journal.Write { page = p0; before = img '\000'; after = img 'A' });
  Storage.Journal.append j Storage.Journal.Commit;
  Storage.Journal.append j
    (Storage.Journal.Write { page = p0; before = img 'A'; after = img 'X' });
  Storage.Journal.append j
    (Storage.Journal.Write { page = p1; before = img '\000'; after = img 'Y' });
  Storage.Block_device.write dev p0 (img 'X');
  Storage.Block_device.write dev p1 (img 'Y');
  let restored = Storage.Journal.recover j dev in
  check Alcotest.int "two pages touched" 2 restored;
  let buf = Bytes.create 64 in
  Storage.Block_device.read dev p0 buf;
  check Alcotest.char "p0 redone to committed" 'A' (Bytes.get buf 0);
  Storage.Block_device.read dev p1 buf;
  check Alcotest.char "p1 undone to pre-image" '\000' (Bytes.get buf 0);
  check Alcotest.int "journal truncated" 0 (Storage.Journal.record_count j)

(* ---- damaged logs: torn final record, mid-log bit rot ---- *)

let test_torn_final_journal_record () =
  let dev = Storage.Block_device.create ~block_size:64 () in
  let j = Storage.Journal.create () in
  let p0 = Storage.Block_device.alloc dev in
  let p1 = Storage.Block_device.alloc dev in
  let img c = Bytes.make 64 c in
  Storage.Journal.append j
    (Storage.Journal.Write { page = p0; before = img '\000'; after = img 'A' });
  Storage.Journal.append j Storage.Journal.Commit;
  Storage.Journal.force j;
  let valid = Storage.Journal.durable_bytes j in
  (* the crash cuts the force of the next record short; the WAL rule
     (image forced before the page is stolen) means its page write never
     happened either *)
  Storage.Journal.append j
    (Storage.Journal.Write { page = p1; before = img '\000'; after = img 'Y' });
  Storage.Journal.force j;
  Storage.Journal.tear j ~keep:(valid + 3);
  check Alcotest.bool "tail detected as torn" true
    (Storage.Journal.durable_torn j);
  let restored = Storage.Journal.recover j dev in
  check Alcotest.int "committed page restored" 1 restored;
  let buf = Bytes.create 64 in
  Storage.Block_device.read dev p0 buf;
  check Alcotest.char "p0 redone to committed image" 'A' (Bytes.get buf 0);
  Storage.Block_device.read dev p1 buf;
  check Alcotest.char "p1 untouched by the torn record" '\000' (Bytes.get buf 0);
  check Alcotest.int "journal truncated" 0 (Storage.Journal.record_count j)

let test_bit_flipped_mid_log_record () =
  let dev = Storage.Block_device.create ~block_size:64 () in
  let j = Storage.Journal.create () in
  let p0 = Storage.Block_device.alloc dev in
  let img c = Bytes.make 64 c in
  Storage.Journal.append j
    (Storage.Journal.Write { page = p0; before = img '\000'; after = img 'A' });
  Storage.Journal.append j Storage.Journal.Commit;
  Storage.Journal.force j;
  let commit1_end = Storage.Journal.durable_bytes j in
  Storage.Journal.append j
    (Storage.Journal.Write { page = p0; before = img 'A'; after = img 'B' });
  Storage.Journal.force j;
  let w2_end = Storage.Journal.durable_bytes j in
  Storage.Journal.append j Storage.Journal.Commit;
  Storage.Journal.force j;
  (* the second commit made 'B' current on the device ... *)
  Storage.Block_device.write dev p0 (img 'B');
  (* ... then bit rot lands in the middle of its Write record *)
  Storage.Journal.corrupt_byte j
    ~off:(commit1_end + ((w2_end - commit1_end) / 2));
  check Alcotest.bool "rot detected" true (Storage.Journal.durable_torn j);
  ignore (Storage.Journal.recover j dev);
  let buf = Bytes.create 64 in
  Storage.Block_device.read dev p0 buf;
  check Alcotest.char "corrupt after-image never applied; last valid commit wins"
    'A' (Bytes.get buf 0);
  check Alcotest.int "journal truncated" 0 (Storage.Journal.record_count j)

(* The journal stores its bytes in 1 MB chunks; records of 600 KB
   straddle chunk boundaries, and the stream, the parser, the damage
   hooks and recovery must not care. *)
let test_journal_chunk_boundaries () =
  let module J = Storage.Journal in
  let mb = 1 lsl 20 and size = 300_000 in
  let img c = Bytes.make size c in
  (* W0 W1 C W2 W3 C W4 W5 C: page i mod 3, before 'A'+i, after 'a'+i *)
  let journal () =
    let j = J.create () in
    for i = 0 to 5 do
      J.append j
        (J.Write
           { page = i mod 3; before = img (Char.chr (65 + i));
             after = img (Char.chr (97 + i)) });
      if i mod 2 = 1 then J.append j J.Commit
    done;
    J.force j;
    j
  in
  let j = journal () in
  let stream = J.stream_from j 0 in
  let parsed = J.parse stream ~len:(Bytes.length stream) in
  check Alcotest.int "all records parse" 9 (List.length parsed);
  check Alcotest.bool "parse = records" true
    (List.map fst parsed = J.records j);
  let end_of i = snd (List.nth parsed i) in
  check Alcotest.bool "W1 straddles the first boundary" true
    (end_of 0 < mb && end_of 1 > mb);
  check Alcotest.bytes "stream from a record boundary in the second chunk"
    (Bytes.sub stream (end_of 2) (Bytes.length stream - end_of 2))
    (J.stream_from j (end_of 2));
  let recovered j =
    let dev = Storage.Block_device.create ~block_size:size () in
    for _ = 0 to 2 do
      ignore (Storage.Block_device.alloc dev)
    done;
    ignore (J.recover j dev);
    List.init 3 (fun p ->
        let b = Bytes.create size in
        Storage.Block_device.read dev p b;
        Bytes.get b 0)
  in
  check (Alcotest.list Alcotest.char) "recover" [ 'd'; 'e'; 'f' ] (recovered j);
  (* torn just past the second boundary, inside W3: the first batch
     survives and W2 is undone to its before-image *)
  let j = journal () in
  J.tear j ~keep:((2 * mb) + 10);
  check Alcotest.bool "torn" true (J.durable_torn j);
  check Alcotest.int "prefix" 4 (List.length (J.records j));
  check (Alcotest.list Alcotest.char) "recover torn" [ 'a'; 'b'; 'C' ]
    (recovered j);
  (* rot on the third boundary, inside W5: two batches survive *)
  let j = journal () in
  J.corrupt_byte j ~off:(3 * mb);
  check Alcotest.bool "rot detected" true (J.durable_torn j);
  check Alcotest.int "prefix up to the rot" 7 (List.length (J.records j));
  check (Alcotest.list Alcotest.char) "recover rotten" [ 'd'; 'b'; 'c' ]
    (recovered j)

(* ---- catalog-level crash recovery ---- *)

let test_committed_table_survives_crash () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
  ignore (Table.create_index t ~name:"t_a" ~columns:[ "a" ]);
  for i = 0 to 499 do
    ignore (Table.insert t [| i; i * i |])
  done;
  Catalog.commit db;
  (* uncommitted damage *)
  for i = 500 to 999 do
    ignore (Table.insert t [| i; 0 |])
  done;
  ignore (Table.delete_where t (fun r -> r.(0) < 100));
  let db2 = Catalog.simulate_crash db in
  let t2 = Catalog.table db2 "t" in
  Table.check_invariants t2;
  check Alcotest.int "row count back to commit" 500 (Table.row_count t2);
  let seen = ref 0 in
  Table.iter t2 (fun _ row ->
      incr seen;
      check Alcotest.int "content" (row.(0) * row.(0)) row.(1));
  check Alcotest.int "iterated all" 500 !seen;
  check Alcotest.bool "index reopened" true
    (Table.find_index t2 "t_a" <> None)

let test_uncommitted_table_vanishes () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"keep" ~columns:[ "x" ] in
  ignore (Table.insert t [| 1 |]);
  Catalog.commit db;
  let t2 = Catalog.create_table db ~name:"gone" ~columns:[ "y" ] in
  ignore (Table.insert t2 [| 2 |]);
  let db2 = Catalog.simulate_crash db in
  check Alcotest.bool "committed table present" true
    (Catalog.find_table db2 "keep" <> None);
  check Alcotest.bool "uncommitted table absent" true
    (Catalog.find_table db2 "gone" = None)

let test_crash_requires_durable () =
  let db = Catalog.create () in
  Alcotest.check_raises "not durable"
    (Failure "Catalog.simulate_crash: catalog is not durable") (fun () ->
      ignore (Catalog.simulate_crash db))

let test_reopen_after_checkpoint () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "k"; "v" ] in
  ignore (Table.create_index t ~name:"t_kv" ~columns:[ "k"; "v" ]);
  for i = 0 to 199 do
    ignore (Table.insert t [| i mod 10; i |])
  done;
  let db2 = Catalog.reopen db in
  let t2 = Catalog.table db2 "t" in
  Table.check_invariants t2;
  check Alcotest.int "rows" 200 (Table.row_count t2);
  (* the reopened index answers queries *)
  let idx = Option.get (Table.find_index t2 "t_kv") in
  let hits = Relation.Iter.count (Relation.Iter.index_prefix idx ~prefix:[ 3 ]) in
  check Alcotest.int "index query" 20 hits;
  (* and keeps accepting writes *)
  ignore (Table.insert t2 [| 3; 9999 |]);
  check Alcotest.int "after insert" 21
    (Relation.Iter.count (Relation.Iter.index_prefix idx ~prefix:[ 3 ]))

(* ---- RI-tree end-to-end crash story ---- *)

let test_ritree_crash_recovery () =
  let db = Catalog.create ~durable:true () in
  let tree = Ri.create db in
  let rng = Workload.Prng.create ~seed:91 in
  let committed = ref [] in
  for i = 0 to 299 do
    let l = Workload.Prng.int rng 100_000 in
    let ivl = Ivl.make l (l + Workload.Prng.int rng 4_000) in
    ignore (Ri.insert ~id:i tree ivl);
    committed := (ivl, i) :: !committed
  done;
  Catalog.commit db;
  let q = Ivl.make 20_000 30_000 in
  let expected = sorted (Ri.intersecting_ids tree q) in
  (* uncommitted inserts and deletes *)
  for i = 300 to 400 do
    let l = Workload.Prng.int rng 100_000 in
    ignore (Ri.insert ~id:i tree (Ivl.make l (l + 500)))
  done;
  List.iteri
    (fun k (ivl, id) -> if k < 50 then ignore (Ri.delete tree ~id ivl))
    !committed;
  let db2 = Catalog.simulate_crash db in
  let tree2 = Ri.open_existing db2 in
  Ri.check_invariants tree2;
  check Alcotest.int "count restored" 300 (Ri.count tree2);
  check (Alcotest.list Alcotest.int) "query answers restored" expected
    (sorted (Ri.intersecting_ids tree2 q));
  (* parameters reloaded from the dictionary *)
  let p = Ri.params tree2 in
  check Alcotest.bool "offset restored" true (p.Ri.offset <> None);
  (* the recovered tree accepts new work *)
  let fresh = Ri.insert tree2 (Ivl.make 25_000 26_000) in
  check Alcotest.bool "insert after recovery" true
    (List.mem fresh (Ri.intersecting_ids tree2 q))

let test_repeated_crashes () =
  let db = ref (Catalog.create ~durable:true ()) in
  let tree = ref (Ri.create !db) in
  let rng = Workload.Prng.create ~seed:92 in
  let live = Hashtbl.create 64 in
  for round = 0 to 4 do
    (* committed work *)
    for i = 0 to 49 do
      let id = (round * 1000) + i in
      let l = Workload.Prng.int rng 50_000 in
      let ivl = Ivl.make l (l + Workload.Prng.int rng 1_000) in
      ignore (Ri.insert ~id !tree ivl);
      Hashtbl.replace live id ivl
    done;
    Catalog.commit !db;
    (* doomed work *)
    for i = 50 to 79 do
      let l = Workload.Prng.int rng 50_000 in
      ignore (Ri.insert ~id:((round * 1000) + i) !tree (Ivl.make l (l + 10)))
    done;
    db := Catalog.simulate_crash !db;
    tree := Ri.open_existing !db;
    Ri.check_invariants !tree;
    check Alcotest.int
      (Printf.sprintf "round %d count" round)
      (Hashtbl.length live) (Ri.count !tree)
  done;
  let expected = Hashtbl.fold (fun id _ acc -> id :: acc) live [] |> sorted in
  check (Alcotest.list Alcotest.int) "all committed intervals alive" expected
    (sorted (Ri.intersecting_ids !tree (Ivl.make 0 60_000)))

let test_random_crash_points () =
  (* Crash at arbitrary points in a random workload: the recovered state
     must always equal the state at the last commit. *)
  let rng = Workload.Prng.create ~seed:93 in
  for _trial = 1 to 8 do
    let db = ref (Catalog.create ~durable:true ()) in
    let tree = ref (Ri.create !db) in
    let committed_snapshot = ref [] in
    let live = Hashtbl.create 32 in
    let next = ref 0 in
    let ops = 100 + Workload.Prng.int rng 150 in
    for _ = 1 to ops do
      match Workload.Prng.int rng 10 with
      | 0 ->
          Catalog.commit !db;
          committed_snapshot :=
            Hashtbl.fold (fun id _ acc -> id :: acc) live [] |> sorted
      | 1 when Hashtbl.length live > 0 ->
          let id, ivl =
            Option.get
              (Hashtbl.fold
                 (fun k v acc -> match acc with None -> Some (k, v) | s -> s)
                 live None)
          in
          ignore (Ri.delete !tree ~id ivl);
          Hashtbl.remove live id
      | _ ->
          let l = Workload.Prng.int rng 50_000 in
          let ivl = Ivl.make l (l + Workload.Prng.int rng 1_000) in
          ignore (Ri.insert ~id:!next !tree ivl);
          Hashtbl.replace live !next ivl;
          incr next
    done;
    db := Catalog.simulate_crash !db;
    tree := Ri.open_existing !db;
    Ri.check_invariants !tree;
    let after =
      sorted (Ri.intersecting_ids !tree (Ivl.make (-100_000) 200_000))
    in
    if after <> !committed_snapshot then
      Alcotest.failf "trial: recovered %d ids, committed snapshot had %d"
        (List.length after)
        (List.length !committed_snapshot)
  done

(* ---- group commit ---- *)

(* A page whose content is already imaged in the journal is not
   re-logged: neither by a later commit (no change in between) nor by
   its eviction write-back — and recovery still restores it. *)
let test_logged_page_not_relogged () =
  let dev = Storage.Block_device.create ~block_size:64 () in
  let j = Storage.Journal.create () in
  let pool = Storage.Buffer_pool.create ~capacity:1 dev in
  Storage.Buffer_pool.attach_journal pool j;
  let a = Storage.Buffer_pool.alloc pool in
  Storage.Buffer_pool.with_page pool a ~dirty:true (fun b ->
      Bytes.set b 0 'A');
  Storage.Buffer_pool.commit pool;
  (* one Write image + one Commit marker *)
  check Alcotest.int "first commit logs the page" 2
    (Storage.Journal.record_count j);
  (* page unchanged (still dirty under lazy write-back): a second commit
     must add only a marker, not another image *)
  Storage.Buffer_pool.commit pool;
  check Alcotest.int "second commit is marker-only" 3
    (Storage.Journal.record_count j);
  (* eviction write-back of the already-imaged page logs nothing new *)
  let b = Storage.Block_device.alloc dev in
  Storage.Buffer_pool.with_page pool b ~dirty:false (fun _ -> ());
  check Alcotest.int "eviction logs nothing" 3
    (Storage.Journal.record_count j);
  (* a real change is logged again *)
  Storage.Buffer_pool.with_page pool a ~dirty:true (fun buf ->
      Bytes.set buf 0 'B');
  Storage.Buffer_pool.commit pool;
  check Alcotest.int "changed page re-imaged" 5
    (Storage.Journal.record_count j);
  (* and recovery still lands on the committed content *)
  Storage.Buffer_pool.crash pool;
  ignore (Storage.Journal.recover j dev);
  let buf = Bytes.create 64 in
  Storage.Block_device.read dev a buf;
  check Alcotest.char "recovered to last commit" 'B' (Bytes.get buf 0)

(* Crash with a second group-commit batch staged but never forced: the
   forced batch survives in full, the staged one vanishes in full. *)
let test_crash_between_group_commit_batches () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "x" ] in
  for i = 0 to 9 do
    ignore (Table.insert t [| i |]);
    Catalog.commit_request db
  done;
  check Alcotest.int "first batch staged" 10 (Catalog.pending_commits db);
  check Alcotest.int "first batch forced" 10 (Catalog.commit_force db);
  for i = 10 to 19 do
    ignore (Table.insert t [| i |]);
    Catalog.commit_request db
  done;
  check Alcotest.int "second batch staged" 10 (Catalog.pending_commits db);
  (* no force: the crash hits between batches *)
  let db2 = Catalog.simulate_crash db in
  let t2 = Catalog.table db2 "t" in
  Table.check_invariants t2;
  check Alcotest.int "forced batch survives, staged batch vanishes" 10
    (Table.row_count t2);
  Table.iter t2 (fun _ row ->
      check Alcotest.bool "only first-batch rows" true (row.(0) < 10))

let test_journal_stats_and_checkpoint_truncation () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "x" ] in
  for i = 0 to 999 do
    ignore (Table.insert t [| i |])
  done;
  Catalog.commit db;
  let records, bytes = Option.get (Catalog.journal_stats db) in
  check Alcotest.bool "journal grew" true (records > 0 && bytes > 0);
  Catalog.checkpoint db;
  let records2, _ = Option.get (Catalog.journal_stats db) in
  check Alcotest.int "truncated" 0 records2;
  (* a crash right after a checkpoint loses nothing *)
  let db2 = Catalog.simulate_crash db in
  check Alcotest.int "rows survive" 1000
    (Table.row_count (Catalog.table db2 "t"))

let () =
  Alcotest.run "recovery"
    [
      ("codec", [ Alcotest.test_case "round trip" `Quick test_codec_roundtrip ]);
      ("journal",
       [ Alcotest.test_case "record accounting" `Quick test_journal_records;
         Alcotest.test_case "redo + undo" `Quick
           test_journal_recover_redo_and_undo;
         Alcotest.test_case "torn final record" `Quick
           test_torn_final_journal_record;
         Alcotest.test_case "bit-flipped mid-log record" `Quick
           test_bit_flipped_mid_log_record;
         Alcotest.test_case "records straddling chunks" `Quick
           test_journal_chunk_boundaries ]);
      ("catalog",
       [ Alcotest.test_case "committed table survives crash" `Quick
           test_committed_table_survives_crash;
         Alcotest.test_case "uncommitted table vanishes" `Quick
           test_uncommitted_table_vanishes;
         Alcotest.test_case "crash requires durable" `Quick
           test_crash_requires_durable;
         Alcotest.test_case "reopen after checkpoint" `Quick
           test_reopen_after_checkpoint;
         Alcotest.test_case "journal stats / checkpoint truncation" `Quick
           test_journal_stats_and_checkpoint_truncation ]);
      ("group commit",
       [ Alcotest.test_case "unchanged dirty page not re-logged" `Quick
           test_logged_page_not_relogged;
         Alcotest.test_case "crash between batches" `Quick
           test_crash_between_group_commit_batches ]);
      ("ritree",
       [ Alcotest.test_case "crash recovery end-to-end" `Quick
           test_ritree_crash_recovery;
         Alcotest.test_case "repeated crash rounds" `Quick
           test_repeated_crashes;
         Alcotest.test_case "random crash points" `Quick
           test_random_crash_points ]);
    ]
