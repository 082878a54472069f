(* Fault injection and integrity: the CRC layer, the lying device, the
   checksummed buffer pool, scrub/repair, and smoke runs of the
   exhaustive crash-schedule harness. *)

module BD = Storage.Block_device
module FD = Storage.Faulty_device
module BP = Storage.Buffer_pool
module Catalog = Relation.Catalog
module Table = Relation.Table

let check = Alcotest.check

(* ---- CRC-32 ---- *)

let test_crc_known_vectors () =
  (* the standard check value for the IEEE polynomial *)
  check Alcotest.int32 "123456789" 0xCBF43926l
    (Storage.Checksum.string "123456789");
  check Alcotest.int32 "empty" 0l (Storage.Checksum.string "");
  check Alcotest.int32 "single byte" 0xE8B7BE43l (Storage.Checksum.string "a")

let test_crc_incremental () =
  let b = Bytes.of_string "the quick brown fox" in
  let whole = Storage.Checksum.all b in
  let head = Storage.Checksum.bytes b ~pos:0 ~len:7 in
  let chained = Storage.Checksum.bytes ~crc:head b ~pos:7 ~len:(Bytes.length b - 7) in
  check Alcotest.int32 "chaining splits anywhere" whole chained

let test_crc_sensitivity () =
  let b = Bytes.make 256 'x' in
  let clean = Storage.Checksum.all b in
  for bit = 0 to 7 do
    let i = bit * 31 in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
    if Storage.Checksum.all b = clean then
      Alcotest.failf "flip of bit %d at byte %d undetected" bit i;
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit))
  done

(* Bit-at-a-time CRC-32, straight from the definition: the reference the
   table-driven implementation must match. *)
let crc_reference ?(crc = 0) b ~pos ~len =
  let c = ref (crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Bytes.get_uint8 b i;
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let prop_crc_matches_reference =
  QCheck.Test.make ~count:300 ~name:"CRC-32 = bitwise reference"
    QCheck.(
      quad (string_of_size Gen.(int_range 0 5000)) (int_bound 5000)
        (int_bound 5000) int32)
    (fun (s, a, b, seed) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      let want = crc_reference ~crc:(Int32.to_int seed) buf ~pos ~len in
      Int32.to_int (Storage.Checksum.bytes ~crc:seed buf ~pos ~len)
      land 0xFFFFFFFF
      = want)

(* ---- the lying device ---- *)

let test_scheduled_transient_read_fault () =
  let fd = FD.create (BD.create ~block_size:64 ()) in
  let dev = FD.device fd in
  let b = BD.alloc dev in
  BD.write dev b (Bytes.make 64 'x');
  FD.schedule_read_fault fd ~at:0 FD.Fail;
  let buf = Bytes.create 64 in
  (match BD.read dev b buf with
  | () -> Alcotest.fail "scheduled read fault did not fire"
  | exception BD.Io_error { op = "read"; block } ->
      check Alcotest.int "failing block named" b block);
  (* transient: the retry succeeds and sees the real content *)
  BD.read dev b buf;
  check Alcotest.char "payload intact" 'x' (Bytes.get buf 0)

let test_scheduled_torn_write () =
  let fd = FD.create (BD.create ~block_size:64 ()) in
  let dev = FD.device fd in
  let b = BD.alloc dev in
  BD.write dev b (Bytes.make 64 'a');
  FD.schedule_write_fault fd ~at:1 (FD.Torn 10);
  BD.write dev b (Bytes.make 64 'b');
  let buf = Bytes.create 64 in
  BD.read dev b buf;
  check Alcotest.char "prefix persisted" 'b' (Bytes.get buf 0);
  check Alcotest.char "up to the tear" 'b' (Bytes.get buf 9);
  check Alcotest.char "tail kept the old content" 'a' (Bytes.get buf 10);
  check Alcotest.char "to the end" 'a' (Bytes.get buf 63)

let test_scheduled_bit_flip () =
  let fd = FD.create (BD.create ~block_size:64 ()) in
  let dev = FD.device fd in
  let b = BD.alloc dev in
  let written = Bytes.make 64 'q' in
  FD.schedule_write_fault fd ~at:0 (FD.Flip 19);
  BD.write dev b written;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "flip recorded" [ (b, 19) ] (FD.flips fd);
  let buf = Bytes.create 64 in
  BD.read dev b buf;
  let diff = ref 0 in
  for i = 0 to 63 do
    let x = Bytes.get_uint8 buf i lxor Bytes.get_uint8 written i in
    let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
    diff := !diff + pop x
  done;
  check Alcotest.int "exactly one bit differs, silently" 1 !diff

let test_probabilistic_faults_deterministic () =
  let run () =
    let fd =
      FD.create ~seed:7 ~flip_1_in:3 ~write_fail_1_in:5
        (BD.create ~block_size:64 ())
    in
    let dev = FD.device fd in
    let b = BD.alloc dev in
    let failures = ref [] in
    for i = 0 to 49 do
      match BD.write dev b (Bytes.make 64 (Char.chr (65 + (i mod 26)))) with
      | () -> ()
      | exception BD.Io_error _ -> failures := i :: !failures
    done;
    let final = Bytes.create 64 in
    BD.read (FD.base fd) b final;
    (!failures, FD.flips fd, Bytes.to_string final)
  in
  let r1 = run () and r2 = run () in
  check Alcotest.bool "same seed, same faults, same bytes" true (r1 = r2);
  let fails, flips, _ = r1 in
  check Alcotest.bool "both fault classes fired" true (fails <> [] && flips <> [])

let test_crash_point () =
  let fd = FD.create (BD.create ~block_size:64 ()) in
  let dev = FD.device fd in
  let b0 = BD.alloc dev in
  let b1 = BD.alloc dev in
  FD.set_crash_point fd ~after_writes:2;
  BD.write dev b0 (Bytes.make 64 'a');
  BD.write dev b1 (Bytes.make 64 'b');
  (match BD.write dev b0 (Bytes.make 64 'c') with
  | () -> Alcotest.fail "crash point did not fire"
  | exception BD.Crash n -> check Alcotest.int "fatal write index" 2 n);
  (* the machine is down: every operation fails until the reboot *)
  (match BD.read dev b0 (Bytes.create 64) with
  | () -> Alcotest.fail "dead device served a read"
  | exception BD.Io_error _ -> ());
  FD.disarm fd;
  FD.clear_crash_point fd;
  let buf = Bytes.create 64 in
  BD.read dev b0 buf;
  check Alcotest.char "first write persisted" 'a' (Bytes.get buf 0);
  BD.read dev b1 buf;
  check Alcotest.char "second write persisted" 'b' (Bytes.get buf 0);
  check Alcotest.int "exactly two writes survived" 2 (FD.writes_done fd)

(* ---- checksummed buffer pool ---- *)

let test_pool_detects_bit_rot () =
  let dev = BD.create ~block_size:64 () in
  let pool = BP.create ~capacity:4 ~checksums:true dev in
  check Alcotest.int "trailer shrinks the usable page" 60 (BP.block_size pool);
  let p = BP.alloc pool in
  BP.with_page pool p ~dirty:true (fun b -> Bytes.set b 0 'A');
  BP.flush pool;
  let cold () = BP.create ~capacity:4 ~checksums:true dev in
  BP.with_page (cold ()) p ~dirty:false (fun b ->
      check Alcotest.char "clean fault-in verifies" 'A' (Bytes.get b 0));
  (* flip one payload bit on the device: fault-in must refuse the page *)
  let buf = Bytes.create 64 in
  BD.read dev p buf;
  Bytes.set_uint8 buf 1 (Bytes.get_uint8 buf 1 lxor 0x10);
  BD.write dev p buf;
  (match BP.with_page (cold ()) p ~dirty:false (fun _ -> ()) with
  | () -> Alcotest.fail "corrupt page served"
  | exception BP.Corrupt_page id -> check Alcotest.int "page named" p id);
  (* an all-zero (allocated, never written) block passes by convention *)
  let q = BD.alloc dev in
  BP.with_page (cold ()) q ~dirty:false (fun b ->
      check Alcotest.char "fresh block reads as zeros" '\000' (Bytes.get b 0))

(* ---- scrub: detect and repair ---- *)

let test_scrub_detects_and_repairs () =
  let db = Catalog.create ~durable:true () in
  let t = Catalog.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
  for i = 0 to 299 do
    ignore (Table.insert t [| i; i * 7 |])
  done;
  Catalog.commit db;
  Catalog.flush db;
  let dev = Catalog.device db in
  let r = Catalog.scrub db in
  check (Alcotest.list Alcotest.int) "clean image scrubs clean" []
    r.Storage.Scrub.corrupt;
  (* flip one bit in a handful of non-zero blocks *)
  let buf = Bytes.create (BD.block_size dev) in
  let victims = ref [] in
  for b = 0 to BD.allocated dev - 1 do
    if List.length !victims < 5 then begin
      BD.read dev b buf;
      if Bytes.exists (fun c -> c <> '\000') buf then begin
        Bytes.set_uint8 buf 2 (Bytes.get_uint8 buf 2 lxor 0x20);
        BD.write dev b buf;
        victims := b :: !victims
      end
    end
  done;
  let victims = List.sort compare !victims in
  check Alcotest.bool "had something to corrupt" true (victims <> []);
  let r = Catalog.scrub db in
  check (Alcotest.list Alcotest.int) "every flip detected" victims
    (List.sort compare r.Storage.Scrub.corrupt);
  (* repair from the journal's committed images, then a clean re-scrub *)
  let r = Catalog.scrub ~repair:true db in
  check (Alcotest.list Alcotest.int) "every victim repaired" victims
    (List.sort compare r.Storage.Scrub.repaired);
  check (Alcotest.list Alcotest.int) "nothing unrepairable" []
    r.Storage.Scrub.unrepairable;
  let r = Catalog.scrub db in
  check (Alcotest.list Alcotest.int) "clean after repair" []
    r.Storage.Scrub.corrupt

let test_scrub_requires_checksums () =
  let db = Catalog.create () in
  Alcotest.check_raises "no checksums"
    (Failure "Catalog.scrub: catalog has no page checksums") (fun () ->
      ignore (Catalog.scrub db))

(* ---- exhaustive crash schedules (small smoke specs; the full default
   spec runs as `rikit crash-schedule` in CI) ---- *)

let run_schedule spec =
  let r = Harness.Crashpoint.run spec in
  check Alcotest.bool "exercised some schedules" true
    (r.Harness.Crashpoint.writes > 0);
  match r.Harness.Crashpoint.failures with
  | [] -> ()
  | { Harness.Crashpoint.crash_at; reason } :: _ ->
      Alcotest.failf "crash at write %d not recovered: %s" crash_at reason

let test_crash_schedule_clean () =
  run_schedule { Harness.Crashpoint.default_spec with ops = 30 }

let test_crash_schedule_torn () =
  run_schedule
    { Harness.Crashpoint.default_spec with ops = 20; torn = true; seed = 7 }

let () =
  Alcotest.run "faults"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "bit-flip sensitivity" `Quick test_crc_sensitivity;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference;
        ] );
      ( "faulty device",
        [
          Alcotest.test_case "transient read fault" `Quick
            test_scheduled_transient_read_fault;
          Alcotest.test_case "torn write" `Quick test_scheduled_torn_write;
          Alcotest.test_case "silent bit flip" `Quick test_scheduled_bit_flip;
          Alcotest.test_case "seeded faults are deterministic" `Quick
            test_probabilistic_faults_deterministic;
          Alcotest.test_case "crash point" `Quick test_crash_point;
        ] );
      ( "checksummed pool",
        [ Alcotest.test_case "bit rot refused at fault-in" `Quick
            test_pool_detects_bit_rot ] );
      ( "scrub",
        [
          Alcotest.test_case "detect and repair" `Quick
            test_scrub_detects_and_repairs;
          Alcotest.test_case "requires checksums" `Quick
            test_scrub_requires_checksums;
        ] );
      ( "crash schedule",
        [
          Alcotest.test_case "clean crashes" `Slow test_crash_schedule_clean;
          Alcotest.test_case "torn fatal writes" `Slow test_crash_schedule_torn;
        ] );
    ]
