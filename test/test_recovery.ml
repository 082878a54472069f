(* Durability: write-ahead journal, crash recovery, reopening from the
   system dictionary. *)

module Ivl = Interval.Ivl
module Catalog = Relation.Catalog
module Table = Relation.Table
module Ri = Ritree.Ri_tree
module Pl = Exec.Planner

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
  let prefix_3 () =
    let tree = Table.Index.tree idx in
    Btree.fold_range tree ~lo:(Btree.lo_pad tree [ 3 ])
      ~hi:(Btree.hi_pad tree [ 3 ]) (fun n _ -> n + 1) 0
  in
  check Alcotest.int "index query" 20 (prefix_3 ());
  (* and keeps accepting writes *)
  ignore (Table.insert t2 [| 3; 9999 |]);
  check Alcotest.int "after insert" 21 (prefix_3 ())

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
  let expected = sorted (Pl.intersecting_ids tree q) in
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
    (sorted (Pl.intersecting_ids tree2 q));
  (* parameters reloaded from the dictionary *)
  let p = Ri.params tree2 in
  check Alcotest.bool "offset restored" true (p.Ri.offset <> None);
  (* the recovered tree accepts new work *)
  let fresh = Ri.insert tree2 (Ivl.make 25_000 26_000) in
  check Alcotest.bool "insert after recovery" true
    (List.mem fresh (Pl.intersecting_ids tree2 q))

(* The server's preload bulk-builds its covering relation. A crash after
   committed inserts and deletes on top of it recovers exactly the
   committed state, and the tree reattaches from the dictionary. *)
let test_bulk_preload_crash_reattach () =
  let module S = Server.Session in
  let module Dist = Workload.Distribution in
  let data = Dist.generate ~seed:5 Dist.D1 ~n:3_000 ~d:2_000 in
  let sh = S.shared ~durable:true () in
  S.preload sh data;
  Alcotest.check_raises "preload needs an empty database"
    (Invalid_argument "Session.preload: the database is not empty")
    (fun () -> S.preload sh data);
  let tree = S.tree sh in
  let live = Hashtbl.create 4_096 in
  Array.iteri (fun id v -> Hashtbl.replace live id v) data;
  let rng = Workload.Prng.create ~seed:93 in
  let random_ivl () =
    let l = Workload.Prng.int rng Dist.domain_max in
    Ivl.make l (l + Workload.Prng.int rng 5_000)
  in
  for i = 0 to 99 do
    let v = random_ivl () in
    ignore (Ri.insert ~id:(10_000 + i) tree v);
    Hashtbl.replace live (10_000 + i) v
  done;
  for id = 0 to 199 do
    let id = id * 7 in
    if Ri.delete tree ~id data.(id) then Hashtbl.remove live id
  done;
  Catalog.commit (S.catalog sh);
  (* uncommitted inserts and deletes *)
  for i = 0 to 99 do
    ignore (Ri.insert ~id:(20_000 + i) tree (random_ivl ()))
  done;
  for id = 1 to 200 do
    ignore (Ri.delete tree ~id:(id * 5) data.(id * 5))
  done;
  let cat = Catalog.simulate_crash (S.catalog sh) in
  let tree = Ri.open_existing cat in
  Ri.check_invariants tree;
  check Alcotest.int "count restored" (Hashtbl.length live) (Ri.count tree);
  for _ = 1 to 50 do
    let q = random_ivl () in
    let expected =
      Hashtbl.fold
        (fun id v acc -> if Ivl.intersects v q then id :: acc else acc)
        live []
    in
    check (Alcotest.list Alcotest.int) "answers restored" (sorted expected)
      (sorted (Pl.intersecting_ids tree q))
  done

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
    (sorted (Pl.intersecting_ids !tree (Ivl.make 0 60_000)))

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
      sorted (Pl.intersecting_ids !tree (Ivl.make (-100_000) 200_000))
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


(* ---- delta log: one full image per page per epoch, then deltas ---- *)

module J = Storage.Journal
module Pool = Storage.Buffer_pool
module Dev = Storage.Block_device

(* [diff] then [patch] rebuilds the after-image; the ranges are ordered,
   start and end on changed bytes and lie more than 8 equal bytes
   apart; and a Delta survives the serialized log unchanged. *)
let prop_diff_patch =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 300 in
      let* before = bytes_size ~gen:(char_range 'a' 'd') (return n) in
      let* edits =
        list_size (int_range 0 12)
          (triple (int_bound (n - 1)) (int_range 1 40) (char_range 'a' 'e'))
      in
      let* scramble = bool in
      let after = Bytes.copy before in
      List.iter
        (fun (off, len, c) ->
          Bytes.fill after off (min len (n - off)) c)
        edits;
      if scramble then
        Bytes.iteri
          (fun i c ->
            if i mod 7 = 3 then
              Bytes.set after i (Char.chr (Char.code c lxor 1)))
          before;
      return (before, after))
  in
  QCheck.Test.make ~count:500 ~name:"diff then patch = after"
    (QCheck.make
       ~print:(fun (b, a) ->
         Printf.sprintf "before=%S after=%S" (Bytes.to_string b)
           (Bytes.to_string a))
       gen)
    (fun (before, after) ->
      let ranges = J.diff ~base:before after in
      let img = Bytes.copy before in
      J.patch img ranges;
      let rec well_formed prev = function
        | [] -> true
        | (off, r) :: rest ->
            let len = Bytes.length r in
            len > 0
            && off - prev > 8
            && Bytes.get before off <> Bytes.get after off
            && Bytes.get before (off + len - 1)
               <> Bytes.get after (off + len - 1)
            && Bytes.equal r (Bytes.sub after off len)
            && well_formed (off + len) rest
      in
      let j = J.create () in
      J.append j (J.Write { page = 7; before; after = before });
      if ranges <> [] then
        J.append j (J.Delta { page = 7; move = None; zero = None; ranges });
      J.append j J.Commit;
      J.force j;
      let stream = J.stream_from j 0 in
      let parsed = List.map fst (J.parse stream ~len:(Bytes.length stream)) in
      Bytes.equal img after
      && well_formed (-9) ranges
      && parsed = J.records j
      && List.length parsed = (if ranges = [] then 2 else 3)
      && Hashtbl.find (J.recovery_images j) 7 = after)

(* A B+-tree page gains or loses one entry: the entries after the slot
   shift by one stride, the free space behind them stays zero, and the
   checksum trailer changes. [delta] must find that shift as one move
   — whenever the shifted run is long enough to pay for one — and log
   little more than one stride, and the move and ranges must rebuild
   the page, directly and through the serialized log. *)
let prop_delta_move =
  let gen =
    QCheck.Gen.(
      let* stride = int_range 8 64 in
      let* n = int_range 256 2048 in
      let cap = (n - 4 - 16) / stride in
      let* k = int_range 1 (cap - 1) in
      let entry = bytes_size ~gen:(char_range '\001' '\255') (return stride) in
      let* entries = list_repeat (k + 1) entry in
      let* insert = bool in
      let* slot = int_bound (k - 1) in
      let* trailer = bytes_size (return 4) in
      let page entries =
        let b = Bytes.make n '\000' in
        Bytes.fill b 0 16 '\007';
        Bytes.set_uint16_be b 2 (List.length entries);
        List.iteri
          (fun i e -> Bytes.blit e 0 b (16 + (i * stride)) stride)
          entries;
        b
      in
      (* [before] holds the first [k] entries; an insert adds the last
         one at [slot], a delete drops the one at [slot] *)
      let before = List.filteri (fun i _ -> i < k) entries in
      let after =
        if insert then
          List.filteri (fun i _ -> i < slot) before
          @ (List.nth entries k :: List.filteri (fun i _ -> i >= slot) before)
        else List.filteri (fun i _ -> i <> slot) before
      in
      let before = page before and after = page after in
      Bytes.blit trailer 0 after (n - 4) 4;
      let tail = (if insert then k - slot else k - slot - 1) * stride in
      return (stride, tail, before, after))
  in
  QCheck.Test.make ~count:500 ~name:"delta logs a shift as one move"
    (QCheck.make
       ~print:(fun (stride, tail, b, a) ->
         Printf.sprintf "stride=%d tail=%d before=%S after=%S" stride tail
           (Bytes.to_string b) (Bytes.to_string a))
       gen)
    (fun (stride, tail, before, after) ->
      let move, zero, ranges = J.delta ~trailer:4 ~base:before after in
      let img = Bytes.copy before in
      J.patch ?move ?zero img ranges;
      let j = J.create () in
      J.append j (J.Write { page = 7; before; after = before });
      let at = J.unforced_bytes j in
      J.append j (J.Delta { page = 7; move; zero; ranges });
      let size = J.unforced_bytes j - at in
      J.append j J.Commit;
      J.force j;
      let stream = J.stream_from j 0 in
      let parsed = List.map fst (J.parse stream ~len:(Bytes.length stream)) in
      (tail < 32 || move <> None)
      && size <= stride + 64
      && Bytes.equal img after
      && parsed = J.records j
      && Hashtbl.find (J.recovery_images j) 7 = after)

(* A random history through a small journaled pool — byte edits and
   B+-tree-like shifts, commits, steals (flush), evictions, checkpoints —
   then a crash, and optionally a torn or bit-rotten log. Oracle: a plain
   model of every page's content, snapshotted at each commit. *)
type op =
  | Edit of int * int * int * char  (* page, offset, length, byte *)
  | Shift of int * int * int * int  (* page, src, dst, length *)
  | Touch of int
  | Commit
  | Flush
  | Checkpoint

type damage = Clean | Tear of int | Rot of int  (* permille of the log *)

type history = {
  npages : int;
  capacity : int;
  ops : op list;
  damage : damage;
}

let bs = 64 (* device block; the pool's pages are 60 bytes + CRC trailer *)
let payload = bs - 4

let show_history h =
  let op = function
    | Edit (p, o, l, c) -> Printf.sprintf "E%d@%d+%d=%c" p o l c
    | Shift (p, s, d, l) -> Printf.sprintf "S%d:%d->%d+%d" p s d l
    | Touch p -> Printf.sprintf "T%d" p
    | Commit -> "C"
    | Flush -> "F"
    | Checkpoint -> "K"
  in
  Printf.sprintf "pages=%d cap=%d damage=%s [%s]" h.npages h.capacity
    (match h.damage with
    | Clean -> "none"
    | Tear k -> Printf.sprintf "tear %d‰" k
    | Rot k -> Printf.sprintf "rot %d‰" k)
    (String.concat " " (List.map op h.ops))

let gen_history ~pages:(p0, p1) ~frames:(f0, f1) =
  QCheck.Gen.(
    let* npages = int_range p0 p1 in
    let* capacity = int_range f0 f1 in
    let page = int_bound (npages - 1) in
    let op =
      frequency
        [ ( 6,
            map
              (fun (p, (o, l, c)) -> Edit (p, o, l, c))
              (pair page
                 (triple (int_bound (payload - 1)) (int_range 1 12)
                    (char_range 'a' 'z'))) );
          ( 2,
            map
              (fun (p, (s, d, l)) -> Shift (p, s, d, l))
              (pair page
                 (triple (int_bound (payload - 1)) (int_bound (payload - 1))
                    (int_range 1 30))) );
          (2, map (fun p -> Touch p) page);
          (3, return Commit);
          (1, return Flush);
          (1, return Checkpoint) ]
    in
    let* ops = list_size (int_range 0 60) op in
    let* damage =
      frequency
        [ (2, return Clean);
          (1, map (fun k -> Tear k) (int_bound 1000));
          (1, map (fun k -> Rot k) (int_bound 999)) ]
    in
    return { npages; capacity; ops; damage })

let run_history h =
  let dev = Dev.create ~block_size:bs () in
  let pool = Pool.create ~capacity:h.capacity ~checksums:true dev in
  let j = J.create () in
  Pool.attach_journal pool j;
  let pages = Array.init h.npages (fun _ -> Pool.alloc pool) in
  let current = Array.init h.npages (fun _ -> Bytes.make payload '\000') in
  let snapshot () = Array.map Bytes.copy current in
  (* the committed state at the epoch's start (offset 0), then after
     each commit: (end of its marker, state) *)
  let commits = ref [ (0, snapshot ()) ] in
  List.iter
    (fun op ->
      match op with
      | Edit (p, o, l, c) ->
          let l = min l (payload - o) in
          Pool.with_page pool pages.(p) ~dirty:true (fun b ->
              Bytes.fill b o l c);
          Bytes.fill current.(p) o l c
      | Shift (p, s, d, l) ->
          let l = min l (payload - max s d) in
          if l > 0 then begin
            Pool.with_page pool pages.(p) ~dirty:true (fun b ->
                Bytes.blit b s b d l);
            Bytes.blit current.(p) s current.(p) d l
          end
      | Touch p -> Pool.with_page pool pages.(p) ~dirty:false ignore
      | Commit ->
          Pool.commit pool;
          commits := (J.durable_bytes j, snapshot ()) :: !commits
      | Flush -> Pool.flush pool
      | Checkpoint ->
          Pool.commit pool;
          Pool.flush pool;
          J.truncate j;
          commits := [ (0, snapshot ()) ])
    h.ops;
  Pool.crash pool;
  let durable = J.durable_bytes j in
  (* the log's surviving prefix ends at [valid] *)
  let valid =
    match h.damage with
    | Clean -> durable
    | Tear k ->
        let keep = durable * k / 1000 in
        J.tear j ~keep;
        keep
    | Rot k ->
        if durable = 0 then 0
        else begin
          let off = durable * k / 1000 in
          J.corrupt_byte j ~off;
          off
        end
  in
  (* the last commit whose marker survived *)
  let want =
    snd (List.find (fun (fin, _) -> fin <= valid) !commits)
  in
  let page_of = Hashtbl.create 8 in
  Array.iteri (fun i p -> Hashtbl.replace page_of p i) pages;
  let images = J.recovery_images j in
  let images_ok =
    Hashtbl.fold
      (fun p img ok ->
        ok
        && Bytes.equal (Bytes.sub img 0 payload)
             want.(Hashtbl.find page_of p))
      images true
  in
  ignore (J.recover j dev);
  let buf = Bytes.create bs in
  let device_ok =
    (* a damaged log lost forced records, so pages stolen from them
       cannot be rolled back: only the images recovery installed are
       checked then *)
    Array.for_all Fun.id
      (Array.mapi
         (fun i p ->
           Dev.read dev p buf;
           (h.damage <> Clean && not (Hashtbl.mem images p))
           || Bytes.equal (Bytes.sub buf 0 payload) want.(i))
         pages)
  in
  images_ok && device_ok

let history_oracle_name =
  "recover = recovery_images = model, across crashes and checkpoints"

let prop_history_oracle =
  QCheck.Test.make ~count:400 ~name:history_oracle_name
    (QCheck.make ~print:show_history
       (gen_history ~pages:(1, 6) ~frames:(2, 4)))
    run_history

(* Three times as many pages as 4-8 frames: nearly every fault recycles
   the victim's frame, data and shadow buffers, so a buffer kept past its
   unpin, or a shadow image kept from the frame's last page, corrupts the
   log and fails the model. *)
let prop_history_oracle_few_frames =
  QCheck.Test.make ~count:200 ~name:("4-8 frames: " ^ history_oracle_name)
    (QCheck.make ~print:show_history
       (gen_history ~pages:(12, 24) ~frames:(4, 8)))
    run_history

(* Scrub after a checkpoint: the frame that was logged before the
   checkpoint stays resident, is dirtied and committed twice, then its
   block rots. The repair image must be built from the new epoch's full
   image plus its delta — if the checkpoint kept the old epoch's table,
   the first post-checkpoint record would be a delta with no image to
   patch and the block would be unrepairable. *)
let test_scrub_across_checkpoint () =
  let db = Catalog.create ~durable:true () in
  let pool = Catalog.pool db in
  let j = Option.get (Catalog.journal db) in
  let p = Pool.alloc pool in
  let edit off c =
    Pool.with_page pool p ~dirty:true (fun b -> Bytes.set b off c)
  in
  edit 0 'A';
  Catalog.commit db;
  Catalog.checkpoint db;
  check Alcotest.bool "still resident" true (Pool.resident pool p);
  edit 1 'B';
  Catalog.commit db;
  edit 2 'C';
  Catalog.commit db;
  let kinds =
    List.filter_map
      (function
        | J.Write { page; _ } when page = p -> Some "write"
        | J.Delta { page; _ } when page = p -> Some "delta"
        | _ -> None)
      (J.records j)
  in
  check (Alcotest.list Alcotest.string) "full image, then a delta"
    [ "write"; "delta" ] kinds;
  Catalog.flush db;
  let dev = Catalog.device db in
  let committed = Bytes.create (Dev.block_size dev) in
  Dev.read dev p committed;
  let rotten = Bytes.copy committed in
  Bytes.set rotten 5 (Char.chr (Char.code (Bytes.get rotten 5) lxor 0x40));
  Dev.write dev p rotten;
  let report =
    Storage.Scrub.run ~repair:true ~journal:j ~checksums:true dev
  in
  check (Alcotest.list Alcotest.int) "repaired" [ p ]
    report.Storage.Scrub.repaired;
  let got = Bytes.create (Dev.block_size dev) in
  Dev.read dev p got;
  check Alcotest.bytes "committed image restored" committed got;
  check Alcotest.string "content" "ABC" (Bytes.sub_string got 0 3)

(* A crash drops an unforced tail holding a page's first image of the
   epoch: the page's next record must be a full Write again, or
   recovery would find a delta with nothing to patch. *)
let test_dropped_first_image_relogged () =
  let dev = Dev.create ~block_size:64 () in
  let pool = Pool.create ~capacity:4 dev in
  let j = J.create () in
  Pool.attach_journal pool j;
  let q = Pool.alloc pool and p = Dev.alloc dev in
  Pool.with_page pool q ~dirty:true (fun b -> Bytes.set b 0 'q');
  Pool.commit pool;
  (* p's first image reaches the log but is never forced *)
  J.append j
    (J.Write
       { page = p; before = Bytes.make 64 '\000'; after = Bytes.make 64 'X' });
  check Alcotest.bool "imaged while pending" true (J.has_image j p);
  (* the pool carries on over the same journal, without recovery *)
  Pool.crash pool;
  check Alcotest.bool "image dropped with the tail" false (J.has_image j p);
  check Alcotest.bool "durable image kept" true (J.has_image j q);
  Pool.with_page pool p ~dirty:true (fun b -> Bytes.set b 0 'Y');
  Pool.commit pool;
  (match
     List.filter
       (function
         | J.Write { page; _ } | J.Delta { page; _ } -> page = p
         | J.Commit -> false)
       (J.records j)
   with
  | [ J.Write _ ] -> ()
  | rs ->
      Alcotest.failf "want one full Write for p, got %d records"
        (List.length rs));
  Pool.crash pool;
  ignore (J.recover j dev);
  let buf = Bytes.create 64 in
  Dev.read dev p buf;
  check Alcotest.char "p recovered" 'Y' (Bytes.get buf 0);
  Dev.read dev q buf;
  check Alcotest.char "q recovered" 'q' (Bytes.get buf 0)

(* The fresh-page Write (tag 4), the move Delta (tag 5) and the Deltas
   with a zero span, without and with a move (tags 6 and 7), under
   every single-byte rot and every tear of the durable log: each
   damaged log parses as a torn log holding a prefix of the clean
   records, and neither the scrub images nor recovery raise. *)
let test_new_tags_damage () =
  (* a fresh page: 20 bytes of data, zero free space, a trailer *)
  let fresh =
    Bytes.init 64 (fun i ->
        if i < 20 || i >= 60 then Char.chr (1 + i) else '\000')
  in
  let deltas =
    [ (Some { J.src = 0; dst = 8; len = 40 }, None, [ (0, "ab") ]);
      (None, Some (20, 8), [ (60, "wxyz") ]);
      (Some { J.src = 8; dst = 0; len = 12 }, Some (12, 8), [ (1, "q") ]) ]
  in
  let journal () =
    let j = J.create () in
    J.append j
      (J.Write { page = 0; before = Bytes.make 64 '\000'; after = fresh });
    J.append j J.Commit;
    List.iter
      (fun (move, zero, ranges) ->
        let ranges = List.map (fun (o, r) -> (o, Bytes.of_string r)) ranges in
        J.append j (J.Delta { page = 0; move; zero; ranges });
        J.append j J.Commit)
      deltas;
    J.force j;
    j
  in
  let clean = journal () in
  let records = J.records clean in
  check Alcotest.int
    "payload: two ranges of the fresh page, then a move, a zero span, both"
    ((4 + 20) + (4 + 4) + (6 + 4 + 2) + (4 + 4 + 4) + (6 + 4 + 4 + 1))
    (J.byte_size clean);
  check Alcotest.int "serialized: no zero bytes of the fresh page"
    ((11 + 32 + 4) + 5 + (13 + 6 + 4) + 5 + (11 + 8 + 4) + 5
    + (17 + 5 + 4) + 5)
    (J.durable_bytes clean);
  check Alcotest.bool "the fresh page's images are rebuilt" true
    (match records with
    | J.Write { before; after; _ } :: _ ->
        Bytes.equal before (Bytes.make 64 '\000') && Bytes.equal after fresh
    | _ -> false);
  let want = Bytes.copy fresh in
  List.iter
    (fun (move, zero, ranges) ->
      J.patch ?move ?zero want
        (List.map (fun (o, r) -> (o, Bytes.of_string r)) ranges))
    deltas;
  check Alcotest.bytes "clean recovery image" want
    (Hashtbl.find (J.recovery_images clean) 0);
  let size = J.durable_bytes clean in
  let stream = J.stream_from clean 0 in
  let ends = 0 :: List.map snd (J.parse stream ~len:size) in
  (* a tear on a record boundary leaves a valid, shorter log *)
  let survive what damage ~torn =
    for at = 0 to size - 1 do
      let j = journal () in
      damage j at;
      let rs = J.records j in
      let n = List.length rs in
      if
        not
          (J.durable_torn j = torn at
          && n < List.length records
          && rs = List.filteri (fun i _ -> i < n) records)
      then Alcotest.failf "%s at %d: not a torn prefix" what at;
      let dev = Dev.create ~block_size:64 () in
      ignore (Dev.alloc dev);
      match
        ignore (J.recovery_images j);
        J.recover j dev
      with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s at %d: %s" what at (Printexc.to_string e)
    done
  in
  survive "rot" (fun j off -> J.corrupt_byte j ~off) ~torn:(fun _ -> true);
  survive "tear" (fun j keep -> J.tear j ~keep) ~torn:(fun keep ->
      not (List.mem keep ends))

(* What a 4-insert COMMIT logs on the [mixed-disk] writer's fixture: a
   durable covering D1 n = 35 000 bulk preload, then 1 000 commits of
   four D1-shaped inserts (the [commit] bench driver's run). Byte diffs
   logged 9 063 serialized bytes per commit, mostly the tails that leaf
   inserts shift; moves and fresh-page images log about 2 640, and
   1 869 once those moved through pages whose free space held stale
   entries. With free space kept zero and freed spans logged without
   their bytes a commit logs 1 603; the bound is that plus 25 %. *)
let test_commit_log_bytes () =
  let module S = Server.Session in
  let module Dist = Workload.Distribution in
  let sh = S.shared ~durable:true () in
  S.preload sh (Dist.generate ~seed:1 Dist.D1 ~n:35_000 ~d:2000);
  let j = Option.get (Catalog.journal (S.catalog sh)) in
  let s = S.create sh in
  let rng = Workload.Prng.create ~seed:7 in
  let commits = 1000 and lsn0 = J.durable_lsn j in
  for _ = 1 to commits do
    for _ = 1 to 4 do
      let lower = Workload.Prng.int rng (Dist.domain_max + 1) in
      let upper = min Dist.domain_max (lower + Workload.Prng.int rng 4001) in
      match S.handle s (Server.Protocol.Insert { lower; upper; id = None }) with
      | Server.Protocol.Ack _ -> ()
      | _ -> Alcotest.fail "insert refused"
    done;
    match S.handle s Server.Protocol.Commit with
    | Server.Protocol.Ack _ -> ()
    | _ -> Alcotest.fail "commit refused"
  done;
  let per = (J.durable_lsn j - lsn0) / commits in
  if per > 2004 then
    Alcotest.failf "%d serialized journal bytes per 4-insert commit, bound 2004"
      per

let test_delta_needs_image () =
  let j = J.create () in
  Alcotest.check_raises "delta without an epoch image"
    (Invalid_argument
       "Journal.append: Delta for page 3, which has no image in this \
        checkpoint epoch") (fun () ->
      J.append j
        (J.Delta
           { page = 3; move = None; zero = None;
             ranges = [ (0, Bytes.of_string "x") ] }));
  J.append j
    (J.Write { page = 3; before = Bytes.make 4 'a'; after = Bytes.make 4 'b' });
  J.append j
    (J.Delta
       { page = 3; move = None; zero = None;
         ranges = [ (1, Bytes.of_string "xy") ] });
  check Alcotest.int "delta bytes: header + range" (8 + 4 + 2) (J.byte_size j);
  J.truncate j;
  check Alcotest.bool "checkpoint starts a new epoch" false (J.has_image j 3)

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
           test_random_crash_points;
         Alcotest.test_case "bulk preload: crash, reattach" `Quick
           test_bulk_preload_crash_reattach ]);
      ("delta log",
       [ QCheck_alcotest.to_alcotest prop_diff_patch;
         QCheck_alcotest.to_alcotest prop_delta_move;
         QCheck_alcotest.to_alcotest prop_history_oracle;
         Alcotest.test_case "delta needs an epoch image" `Quick
           test_delta_needs_image;
         Alcotest.test_case "rot and tears on fresh images and moves" `Quick
           test_new_tags_damage;
         Alcotest.test_case "covering commit logs <= 2004 bytes" `Quick
           test_commit_log_bytes;
         Alcotest.test_case "scrub repairs across a checkpoint" `Quick
           test_scrub_across_checkpoint;
         Alcotest.test_case "dropped first image is re-logged in full" `Quick
           test_dropped_first_image_relogged;
         QCheck_alcotest.to_alcotest prop_history_oracle_few_frames ]);
    ]
