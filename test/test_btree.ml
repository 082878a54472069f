(* B+-tree: oracle-based randomized tests plus structural edge cases. *)

let check = Alcotest.check

let mk_pool ?(block_size = 256) ?(capacity = 64) () =
  Storage.Buffer_pool.create ~capacity (Storage.Block_device.create ~block_size ())

module KeySet = Set.Make (struct
  type t = int list

  let compare = compare
end)

let key_of_list = Array.of_list
let list_of_key = Array.to_list

(* ---- basic operations ---- *)

let test_empty () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  check Alcotest.int "count" 0 (Btree.count t);
  check Alcotest.int "height" 1 (Btree.height t);
  check Alcotest.bool "mem" false (Btree.mem t [| 1; 2 |]);
  check (Alcotest.list (Alcotest.list Alcotest.int)) "to_list" []
    (List.map list_of_key (Btree.to_list t));
  check Alcotest.bool "min" true (Btree.min_key t = None);
  check Alcotest.bool "max" true (Btree.max_key t = None);
  Btree.check_invariants t

let test_insert_dup () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  check Alcotest.bool "first" true (Btree.insert t [| 7 |]);
  check Alcotest.bool "dup" false (Btree.insert t [| 7 |]);
  check Alcotest.int "count" 1 (Btree.count t)

let test_key_width_validation () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Btree: key width 1, expected 2") (fun () ->
      ignore (Btree.insert t [| 1 |]));
  Alcotest.check_raises "geometry"
    (Invalid_argument "Btree: key width 0 out of range 1..15") (fun () ->
      ignore (Btree.create (mk_pool ()) ~key_width:0))

let test_sequential_ascending () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 0 to 999 do
    ignore (Btree.insert t [| i |])
  done;
  Btree.check_invariants t;
  check Alcotest.int "count" 1000 (Btree.count t);
  check Alcotest.bool "height grew" true (Btree.height t > 1);
  check
    (Alcotest.list Alcotest.int)
    "ordered" (List.init 1000 Fun.id)
    (List.map (fun k -> k.(0)) (Btree.to_list t))

let test_sequential_descending_then_delete_all () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 999 downto 0 do
    ignore (Btree.insert t [| i |])
  done;
  Btree.check_invariants t;
  (* delete everything, evens first then odds descending; the tree must
     rebalance all the way down *)
  for i = 0 to 499 do
    ignore (Btree.delete t [| 2 * i |])
  done;
  for i = 499 downto 0 do
    ignore (Btree.delete t [| (2 * i) + 1 |])
  done;
  check Alcotest.int "empty" 0 (Btree.count t);
  check Alcotest.int "height back to 1" 1 (Btree.height t);
  Btree.check_invariants t

let test_page_reuse () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 0 to 2000 do
    ignore (Btree.insert t [| i |])
  done;
  let pages_full = Btree.page_count t in
  for i = 0 to 2000 do
    ignore (Btree.delete t [| i |])
  done;
  check Alcotest.int "one leaf left" 1 (Btree.page_count t);
  (* freed pages must be recycled *)
  for i = 0 to 2000 do
    ignore (Btree.insert t [| i |])
  done;
  check Alcotest.bool "no unbounded growth"
    true
    (Btree.page_count t <= pages_full);
  Btree.check_invariants t

let test_range_scan_bounds () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  List.iter (fun i -> ignore (Btree.insert t [| i |])) [ 2; 4; 6; 8; 10 ];
  let range lo hi =
    List.map (fun k -> k.(0)) (Btree.range_list t ~lo:[| lo |] ~hi:[| hi |])
  in
  check (Alcotest.list Alcotest.int) "inclusive" [ 4; 6; 8 ] (range 4 8);
  check (Alcotest.list Alcotest.int) "between keys" [ 4; 6; 8 ] (range 3 9);
  check (Alcotest.list Alcotest.int) "empty" [] (range 11 20);
  check (Alcotest.list Alcotest.int) "below" [] (range (-5) 1);
  check (Alcotest.list Alcotest.int) "single" [ 6 ] (range 6 6);
  check (Alcotest.list Alcotest.int) "all" [ 2; 4; 6; 8; 10 ]
    (range min_int max_int)

(* A scan pins the next leaf only when every key it copied from the
   current one was at or below [hi]. Leaves of a tree bulk-loaded at
   fill 1.0 hold [0 .. cap-1], [cap .. 2cap-1], ...; a probe pins
   [height] pages, one per level, and copies its leaf's run under the
   pin that routed to it. *)
let test_scan_leaf_pins () =
  let pool = mk_pool () in
  let t =
    Btree.bulk_load ~fill:1.0 pool ~key_width:1
      (Seq.init 1_000 (fun i -> [| i |]))
  in
  let cap = Btree.leaf_capacity t in
  let pins lo hi =
    let before = (Storage.Buffer_pool.Stats.get pool).logical_reads in
    ignore (Btree.range_list t ~lo:[| lo |] ~hi:[| hi |]);
    (Storage.Buffer_pool.Stats.get pool).logical_reads - before
  in
  let one_leaf = Btree.height t in
  check Alcotest.int "stops inside the leaf" one_leaf (pins 0 (cap - 2));
  check Alcotest.int "lo > hi" one_leaf (pins 5 3);
  check Alcotest.int "ends on the leaf's last key" (one_leaf + 1)
    (pins 0 (cap - 1));
  check Alcotest.int "spans three leaves" (one_leaf + 2)
    (pins (cap - 1) ((2 * cap) + 1));
  check Alcotest.int "last leaf, past the end" one_leaf
    (pins 999 max_int)

let test_prefix_pads () =
  let t = Btree.create (mk_pool ()) ~key_width:3 in
  List.iter
    (fun (a, b, c) -> ignore (Btree.insert t [| a; b; c |]))
    [ (1, 5, 0); (1, 7, 1); (2, 1, 2); (2, 9, 3); (3, 0, 4) ];
  let hits =
    Btree.range_list t ~lo:(Btree.lo_pad t [ 2 ]) ~hi:(Btree.hi_pad t [ 2 ])
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "prefix 2"
    [ [ 2; 1; 2 ]; [ 2; 9; 3 ] ]
    (List.map list_of_key hits)

let test_negative_keys () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  List.iter
    (fun (a, b) -> ignore (Btree.insert t [| a; b |]))
    [ (-5, 3); (-5, -9); (0, 0); (7, -2); (min_int + 1, 4) ];
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "sorted with negatives"
    [ [ min_int + 1; 4 ]; [ -5; -9 ]; [ -5; 3 ]; [ 0; 0 ]; [ 7; -2 ] ]
    (List.map list_of_key (Btree.to_list t))

(* ---- bulk loading ---- *)

let test_bulk_load_matches_inserts () =
  let keys = List.init 5000 (fun i -> [| (i * 37) mod 100_000; i |]) in
  let sorted = List.sort Btree.compare_keys keys in
  let bulk =
    Btree.bulk_load (mk_pool ~capacity:300 ()) ~key_width:2
      (List.to_seq sorted)
  in
  Btree.check_invariants ~occupancy:false bulk;
  check Alcotest.int "count" 5000 (Btree.count bulk);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "same contents"
    (List.map list_of_key sorted)
    (List.map list_of_key (Btree.to_list bulk));
  (* the bulk tree stays fully operational *)
  ignore (Btree.insert bulk [| -1; -1 |]);
  ignore (Btree.delete bulk (List.hd sorted));
  Btree.check_invariants ~occupancy:false bulk

let test_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: keys not strictly increasing")
    (fun () ->
      ignore
        (Btree.bulk_load (mk_pool ()) ~key_width:1
           (List.to_seq [ [| 2 |]; [| 1 |] ])))

(* A fill above 1 once overran the leaf into the checksum trailer
   (1.004 packed 254 keys into a 253-key leaf) or died with a bare
   index error (1.01). *)
let test_bulk_load_rejects_fill () =
  let keys = List.init 2_000 (fun i -> [| i |]) in
  let load fill =
    let pool =
      Storage.Buffer_pool.create ~capacity:64 ~checksums:true
        (Storage.Block_device.create ~block_size:2048 ())
    in
    Btree.bulk_load ~fill pool ~key_width:1 (List.to_seq keys)
  in
  List.iter
    (fun fill ->
      match load fill with
      | _ -> Alcotest.failf "fill %g accepted" fill
      | exception Invalid_argument _ -> ())
    [ 1.004; 1.01; 0.; -0.5; Float.nan ];
  let t = load 1.0 in
  Btree.check_invariants ~occupancy:false t;
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "contents" (List.map list_of_key keys)
    (List.map list_of_key (Btree.to_list t))

let test_bulk_load_empty () =
  let t = Btree.bulk_load (mk_pool ()) ~key_width:2 Seq.empty in
  check Alcotest.int "count" 0 (Btree.count t);
  Btree.check_invariants t

(* ---- randomized oracle comparison ---- *)

let random_ops_agree_with_set seed n =
  let rng = Workload.Prng.create ~seed in
  let t = Btree.create (mk_pool ~capacity:128 ()) ~key_width:2 in
  let model = ref KeySet.empty in
  for _ = 1 to n do
    let k = [ Workload.Prng.int rng 50; Workload.Prng.int rng 50 ] in
    if Workload.Prng.int rng 3 = 0 then begin
      let removed = Btree.delete t (key_of_list k) in
      let expected = KeySet.mem k !model in
      if removed <> expected then
        Alcotest.failf "delete %s: got %b" (String.concat "," (List.map string_of_int k)) removed;
      model := KeySet.remove k !model
    end
    else begin
      let added = Btree.insert t (key_of_list k) in
      let expected = not (KeySet.mem k !model) in
      if added <> expected then
        Alcotest.failf "insert %s: got %b" (String.concat "," (List.map string_of_int k)) added;
      model := KeySet.add k !model
    end
  done;
  Btree.check_invariants t;
  let got = List.map list_of_key (Btree.to_list t) in
  let expected = KeySet.elements !model in
  if got <> expected then Alcotest.fail "final contents differ";
  (* random range scans *)
  for _ = 1 to 50 do
    let a = Workload.Prng.int rng 50 and b = Workload.Prng.int rng 50 in
    let lo = [ min a b; min_int ] and hi = [ max a b; max_int ] in
    let got =
      List.map list_of_key
        (Btree.range_list t ~lo:(key_of_list lo) ~hi:(key_of_list hi))
    in
    let expected =
      KeySet.elements
        (KeySet.filter (fun k -> k >= lo && k <= hi) !model)
    in
    if got <> expected then Alcotest.fail "range scan differs"
  done

let test_random_small () = random_ops_agree_with_set 1 2_000
let test_random_larger () = random_ops_agree_with_set 2 8_000

(* [prop] again on a pool of 4-8 frames: nearly every fault then
   recycles the victim's frame and buffer, so a page buffer kept past its
   unpin reads another page's bytes and fails the oracle. *)
let on_few_frames ~count ~name arb prop =
  QCheck.Test.make ~count ~name:("4-8 frames: " ^ name)
    QCheck.(pair (int_range 4 8) arb)
    (fun (capacity, x) -> prop ~capacity x)

let insert_then_mem_arb =
  QCheck.(list (pair (int_range 0 200) (int_range 0 200)))

let insert_then_mem ~capacity pairs =
  let t = Btree.create (mk_pool ~capacity ()) ~key_width:2 in
  List.iter (fun (a, b) -> ignore (Btree.insert t [| a; b |])) pairs;
  List.for_all (fun (a, b) -> Btree.mem t [| a; b |]) pairs
  && begin
       List.iter (fun (a, b) -> ignore (Btree.delete t [| a; b |])) pairs;
       List.for_all (fun (a, b) -> not (Btree.mem t [| a; b |])) pairs
       && Btree.count t = 0
     end

let insert_then_mem_name = "insert implies mem; delete implies not mem"

let prop_insert_then_mem =
  QCheck.Test.make ~count:60 ~name:insert_then_mem_name insert_then_mem_arb
    (insert_then_mem ~capacity:64)

let prop_insert_then_mem_few_frames =
  on_few_frames ~count:60 ~name:insert_then_mem_name insert_then_mem_arb
    insert_then_mem

(* Wide keys and tiny pages force deep trees. *)
let test_deep_tree_small_pages () =
  let pool = mk_pool ~block_size:256 ~capacity:512 () in
  let t = Btree.create pool ~key_width:6 in
  let rng = Workload.Prng.create ~seed:5 in
  let inserted = ref [] in
  for i = 0 to 3000 do
    let k = Array.init 6 (fun j -> if j < 5 then Workload.Prng.int rng 10 else i) in
    ignore (Btree.insert t k);
    inserted := Array.copy k :: !inserted
  done;
  Btree.check_invariants t;
  check Alcotest.bool "deep" true (Btree.height t >= 4);
  List.iter
    (fun k ->
      if not (Btree.mem t k) then Alcotest.fail "lost key in deep tree")
    !inserted

(* ---- in-place reads vs a Set oracle ----

   Descents bisect the raw separators and cursors copy out only the run
   of a leaf they yield, so the bounds are drawn to hit every edge of
   that: full-width random keys, stored keys, keys just past a stored
   key (between entries, and for bulk trees exactly at leaf ends),
   [min_int]/[max_int] components and [lo > hi]. The trees are deep
   (height >= 4) on 256-byte pages. *)

(* Entries per key width that make the tree at least 4 levels deep even
   when bulk-loaded at fill 1.0. *)
let deep_count = [| 0; 9_000; 2_400; 800; 450; 300; 180 |]

let gen_component rng ~span =
  match Workload.Prng.int rng 64 with
  | 0 -> min_int
  | 1 -> max_int
  | _ -> Workload.Prng.int rng span - (span / 2)

let gen_key rng ~width ~span =
  List.init width (fun _ -> gen_component rng ~span)

(* Build a tree of [deep_count.(width)] entries by mixed insert/delete
   ([fill = None]) or by [bulk_load ~fill]; returns it with its model. *)
let build_deep ?(capacity = 64) ~width ~seed ~fill () =
  let rng = Workload.Prng.create ~seed in
  let n = deep_count.(width) in
  let span =
    let root = Float.pow (float_of_int (4 * n)) (1. /. float_of_int width) in
    max 8 (int_of_float root)
  in
  let pool = mk_pool ~capacity () in
  match fill with
  | Some fill ->
      let model = ref KeySet.empty in
      while KeySet.cardinal !model < n do
        model := KeySet.add (gen_key rng ~width ~span) !model
      done;
      let seq = Seq.map key_of_list (KeySet.to_seq !model) in
      (Btree.bulk_load ~fill pool ~key_width:width seq, !model, rng)
  | None ->
      let t = Btree.create pool ~key_width:width in
      let model = ref KeySet.empty and size = ref 0 in
      let seen = ref [||] and nseen = ref 0 in
      while !size < n do
        if !nseen > 0 && Workload.Prng.int rng 3 = 0 then begin
          let k = !seen.(Workload.Prng.int rng !nseen) in
          let expected = KeySet.mem k !model in
          if Btree.delete t (key_of_list k) <> expected then
            Alcotest.fail "delete disagrees with the model";
          if expected then decr size;
          model := KeySet.remove k !model
        end
        else begin
          let k = gen_key rng ~width ~span in
          let expected = not (KeySet.mem k !model) in
          if Btree.insert t (key_of_list k) <> expected then
            Alcotest.fail "insert disagrees with the model";
          if expected then begin
            incr size;
            if !nseen = Array.length !seen then
              seen := Array.append !seen (Array.make (max 16 !nseen) k);
            !seen.(!nseen) <- k;
            incr nseen
          end;
          model := KeySet.add k !model
        end
      done;
      (t, !model, rng)

let in_place_reads_name = "deep trees: range_list and mem = Set oracle"

let in_place_reads_arb =
  QCheck.(
    triple (int_range 1 6) (int_range 0 1_000_000)
      (option (float_range 0.5 1.0)))

(* Bounds that hit every edge of a tree built by [build_deep]. *)
let bound_gen t model rng ~width ~fill =
  let stored = Array.of_seq (KeySet.to_seq model) in
  let nstored = Array.length stored in
  (* for bulk trees, the index of each leaf's last entry *)
  let leaf_target =
    Option.map
      (fun f ->
        max 2 (int_of_float (f *. float_of_int (Btree.leaf_capacity t))))
      fill
  in
  let just_past k =
    let k = Array.of_list k in
    let last = width - 1 in
    if k.(last) < max_int then k.(last) <- k.(last) + 1;
    Array.to_list k
  in
  fun () ->
    match Workload.Prng.int rng 6 with
    | 0 -> stored.(Workload.Prng.int rng nstored)
    | 1 -> just_past stored.(Workload.Prng.int rng nstored)
    | 2 -> (
        match leaf_target with
        | Some lt ->
            let leaves = nstored / lt in
            let i = (lt * (1 + Workload.Prng.int rng (max 1 leaves))) - 1 in
            just_past stored.(min i (nstored - 1))
        | None -> just_past stored.(Workload.Prng.int rng nstored))
    | 3 ->
        List.init width (fun _ ->
            if Workload.Prng.bool rng then min_int else max_int)
    | 4 ->
        (* a stored prefix padded with an extreme *)
        let k = stored.(Workload.Prng.int rng nstored) in
        let cut = Workload.Prng.int rng width in
        let pad = if Workload.Prng.bool rng then min_int else max_int in
        List.mapi (fun i c -> if i < cut then c else pad) k
    | _ -> gen_key rng ~width ~span:(4 * nstored)

let in_place_reads ~capacity (width, seed, fill) =
  let t, model, rng = build_deep ~capacity ~width ~seed ~fill () in
  Btree.check_invariants ~occupancy:(fill = None) t;
  if Btree.height t < 4 then
    QCheck.Test.fail_reportf "height %d < 4" (Btree.height t);
  let gen_bound = bound_gen t model rng ~width ~fill in
  let show k = String.concat "," (List.map string_of_int k) in
  for _ = 1 to 150 do
    let lo = gen_bound () and hi = gen_bound () in
    let got =
      List.map list_of_key
        (Btree.range_list t ~lo:(key_of_list lo) ~hi:(key_of_list hi))
    in
    let expected =
      KeySet.elements (KeySet.filter (fun k -> k >= lo && k <= hi) model)
    in
    if got <> expected then
      QCheck.Test.fail_reportf "range [%s .. %s]: %d keys, expected %d"
        (show lo) (show hi) (List.length got) (List.length expected);
    if Btree.mem t (key_of_list lo) <> KeySet.mem lo model then
      QCheck.Test.fail_reportf "mem %s" (show lo)
  done;
  true

let prop_in_place_reads =
  QCheck.Test.make ~count:24 ~name:in_place_reads_name in_place_reads_arb
    (in_place_reads ~capacity:64)

let prop_in_place_reads_few_frames =
  on_few_frames ~count:8 ~name:in_place_reads_name in_place_reads_arb
    in_place_reads

(* ---- one cursor, re-seeked: next_into = range_list ----

   The executor keeps one cursor per index step and seeks it to each
   probe, and each entry is decoded into one key array. So the cursor
   must forget everything of its last probe, drained or not, and must
   pin what a fresh scan pins; and a key it wrote must not be read
   after the next call, so the key is poisoned after each entry. *)

let seek_reads_name = "one cursor: seek + next_into = range_list"

let seek_reads ~capacity (width, seed, fill) =
  let t, model, rng = build_deep ~capacity ~width ~seed ~fill () in
  let gen_bound = bound_gen t model rng ~width ~fill in
  let pool = Btree.pool t in
  let reads () = (Storage.Buffer_pool.Stats.get pool).logical_reads in
  let key = Array.make width 0 and cursor = ref None in
  for probe = 1 to 150 do
    let lo = key_of_list (gen_bound ()) and hi = key_of_list (gen_bound ()) in
    let r0 = reads () in
    let expected = Btree.range_list t ~lo ~hi in
    let fresh_reads = reads () - r0 in
    (* every fourth probe is abandoned after a few entries *)
    let limit =
      if probe mod 4 = 0 then Workload.Prng.int rng 3 else max_int
    in
    let r0 = reads () in
    let c =
      match !cursor with
      | Some c ->
          Btree.seek c ~lo ~hi;
          c
      | None ->
          let c = Btree.cursor t ~lo ~hi in
          cursor := Some c;
          c
    in
    let got = ref [] and n = ref 0 in
    while !n < limit && Btree.next_into c key do
      got := Array.copy key :: !got;
      incr n;
      Array.fill key 0 width 0x5eed
    done;
    let got = List.rev !got in
    let want = List.filteri (fun i _ -> i < limit) expected in
    if got <> want then
      QCheck.Test.fail_reportf "probe %d: %d keys, expected %d" probe
        (List.length got) (List.length want);
    if limit = max_int && reads () - r0 <> fresh_reads then
      QCheck.Test.fail_reportf "probe %d: %d pins, a fresh scan %d" probe
        (reads () - r0) fresh_reads
  done;
  true

let prop_seek_reads =
  QCheck.Test.make ~count:16 ~name:seek_reads_name in_place_reads_arb
    (seek_reads ~capacity:64)

let prop_seek_reads_few_frames =
  on_few_frames ~count:8 ~name:seek_reads_name in_place_reads_arb seek_reads

(* A full scan of a warm covering-width tree (node, lower, upper, id,
   rowid; 35 000 entries on 2 KB pages) into one key array allocates at
   most 1 minor word per entry: no key, no option and no run copy per
   entry, only each leaf's pin. *)
let test_scan_words_per_entry () =
  let n = 35_000 in
  let pool =
    Storage.Buffer_pool.create ~capacity:4_096 ~checksums:true
      (Storage.Block_device.create ~block_size:2048 ())
  in
  let t =
    Btree.bulk_load pool ~key_width:5
      (Seq.init n (fun i -> [| i / 16; 3 * i; (3 * i) + 100; i; i |]))
  in
  let lo = Btree.lo_pad t [] and hi = Btree.hi_pad t [] in
  let key = Array.make 5 0 in
  let scan () =
    let c = Btree.cursor t ~lo ~hi and seen = ref 0 in
    while Btree.next_into c key do
      incr seen
    done;
    !seen
  in
  ignore (scan ());
  let w0 = Gc.minor_words () in
  let seen = scan () in
  let words = (Gc.minor_words () -. w0) /. float_of_int seen in
  check Alcotest.int "every entry" n seen;
  if words > 1.0 then
    Alcotest.failf "%.2f minor words per entry over %d entries, bound 1"
      words seen

let test_min_max () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  List.iter (fun i -> ignore (Btree.insert t [| i |])) [ 42; -3; 17; 100 ];
  check (Alcotest.option (Alcotest.list Alcotest.int)) "min" (Some [ -3 ])
    (Option.map list_of_key (Btree.min_key t));
  check (Alcotest.option (Alcotest.list Alcotest.int)) "max" (Some [ 100 ])
    (Option.map list_of_key (Btree.max_key t))

(* ---- free space stays zero ----

   Every live page is zero past its last entry, below the checksum
   trailer, whatever edit touched it last; [check_invariants] verifies
   it for every page. The trees live on 84-byte checksummed blocks — 8
   keys a leaf, 4 separators an internal page — so a few hundred
   operations split leaves and internal pages, borrow from both
   siblings, merge, collapse the root and reuse freed pages. *)

let small_tree ~capacity =
  Btree.create
    (Storage.Buffer_pool.create ~capacity ~checksums:true
       (Storage.Block_device.create ~block_size:84 ()))
    ~key_width:1

(* The leaves, left to right, as (first key, size), read off the page
   bytes (the meta page holds the root at byte 16; child 0 and a leaf's
   successor sit at byte 8 of a page, entries from byte 16); fails if a
   leaf holds a nonzero byte past its last entry. *)
let leaves t =
  let page pid f =
    Storage.Buffer_pool.with_page (Btree.pool t) pid ~dirty:false f
  in
  let i64 b off = Int64.to_int (Bytes.get_int64_be b off) in
  let limit = Storage.Buffer_pool.block_size (Btree.pool t) in
  let rec leftmost pid h =
    if h = 1 then pid else leftmost (page pid (fun b -> i64 b 8)) (h - 1)
  in
  let rec chain pid acc =
    if pid < 0 then List.rev acc
    else
      let first, n, next =
        page pid (fun b ->
            let n = Bytes.get_uint16_be b 2 in
            let used = 16 + (8 * n) in
            if not (Storage.Mem.is_zero (Bytes.sub b used (limit - used))) then
              Alcotest.failf "leaf %d: nonzero bytes past its last entry" pid;
            (i64 b 16, n, i64 b 8))
      in
      chain next ((first, n) :: acc)
  in
  let root = page (Btree.meta_page t) (fun b -> i64 b 16) in
  chain (leftmost root (Btree.height t)) []

(* Insert-heavy, mixed, delete-heavy, then insert-heavy again, over a
   small key range. *)
let gen_churn =
  QCheck.Gen.(
    let* span = int_range 30 300 in
    let phase longest inserts =
      list_size (int_range 0 longest)
        (pair (map (fun p -> p < inserts) (int_bound 99)) (int_bound span))
    in
    let* grow = phase 300 90 in
    let* mix = phase 200 50 in
    let* shrink = phase 300 20 in
    let* regrow = phase 100 90 in
    return (grow @ mix @ shrink @ regrow))

(* Run [ops] on a small tree, checking it after every operation against
   [check_invariants], the leaves' free space and a set; with [seen],
   record which structural edits the run made. *)
let run_churn ?seen ?(capacity = 64) ops =
  let t = small_tree ~capacity in
  let dev = Storage.Buffer_pool.device (Btree.pool t) in
  let model = ref KeySet.empty in
  let note e = Option.iter (fun h -> Hashtbl.replace h e ()) seen in
  List.iter
    (fun (ins, k) ->
      let before = leaves t and h0 = Btree.height t
      and p0 = Btree.page_count t
      and a0 = Storage.Block_device.allocated dev in
      let present = KeySet.mem [ k ] !model in
      if ins then begin
        if Btree.insert t [| k |] = present then Alcotest.failf "insert %d" k;
        model := KeySet.add [ k ] !model
      end
      else begin
        if Btree.delete t [| k |] <> present then Alcotest.failf "delete %d" k;
        model := KeySet.remove [ k ] !model
      end;
      Btree.check_invariants t;
      let after = leaves t and h1 = Btree.height t in
      if h1 > h0 && h0 >= 2 then note "internal split";
      if h1 < h0 then note "root collapse";
      if List.length after < List.length before then note "leaf merge";
      if Btree.page_count t > p0 && Storage.Block_device.allocated dev = a0
      then note "free page reused";
      if present && (not ins) && List.length after = List.length before
      then begin
        (* the leaf that held [k], and the one that lost an entry *)
        let index p l =
          fst
            (List.fold_left
               (fun (found, i) x -> ((if p i x then i else found), i + 1))
               (-1, 0) l)
        in
        let home = max 0 (index (fun _ (first, _) -> first <= k) before) in
        let shrank =
          index (fun i (_, n) -> n = snd (List.nth before i) - 1) after
        in
        if shrank >= 0 && shrank = home - 1 then note "borrow from left";
        if shrank = home + 1 then note "borrow from right"
      end)
    ops;
  if List.map list_of_key (Btree.to_list t) <> KeySet.elements !model then
    Alcotest.fail "contents differ from the set"

let zero_free_space_name =
  "free space stays zero through splits, borrows and merges"

let prop_zero_free_space =
  QCheck.Test.make ~count:100 ~name:zero_free_space_name
    (QCheck.make gen_churn) (fun ops ->
      run_churn ops;
      true)

let prop_zero_free_space_few_frames =
  on_few_frames ~count:30 ~name:zero_free_space_name (QCheck.make gen_churn)
    (fun ~capacity ops ->
      run_churn ~capacity ops;
      true)

(* The property's operation mix reaches every structural edit: fixed
   seeds, so a change to the generator that stops reaching one fails
   here. *)
let test_churn_coverage () =
  let seen = Hashtbl.create 8 and rand = Random.State.make [| 7 |] in
  for _ = 1 to 30 do
    run_churn ~seen (QCheck.Gen.generate1 ~rand gen_churn)
  done;
  List.iter
    (fun e -> if not (Hashtbl.mem seen e) then Alcotest.failf "no %s" e)
    [ "internal split"; "borrow from left"; "borrow from right"; "leaf merge";
      "root collapse"; "free page reused" ]

(* On a journaled pool a leaf edit logs one move: also after a split,
   which zeroes the half it moved away, so the left leaf's used end is
   its last entry; and a delete logs its freed stride as a zero span,
   not as bytes — its ranges carry no zero byte of the page. *)
let test_leaf_deltas () =
  let pool =
    Storage.Buffer_pool.create ~capacity:64 ~checksums:true
      (Storage.Block_device.create ~block_size:2048 ())
  in
  let j = Storage.Journal.create () in
  Storage.Buffer_pool.attach_journal pool j;
  (* the covering index's width: node, lower, upper, id, rowid *)
  let t = Btree.create pool ~key_width:5 in
  (* [create] allocates the meta page, then the root leaf *)
  let leaf = Btree.meta_page t + 1 in
  let key i = [| 3; 10 * i; (10 * i) + 7; i; i |] in
  (* the leaf's Deltas (move, ranges) that [f]'s commit logged *)
  let logged f =
    let n = List.length (Storage.Journal.records j) in
    f ();
    Storage.Buffer_pool.commit pool;
    List.filteri (fun i _ -> i >= n) (Storage.Journal.records j)
    |> List.filter_map (function
         | Storage.Journal.Delta { page; move; ranges; _ } when page = leaf ->
             Some (move, ranges)
         | _ -> None)
  in
  Storage.Buffer_pool.commit pool;
  ignore
    (logged (fun () ->
         for i = 0 to Btree.leaf_capacity t do
           ignore (Btree.insert t (key (2 * i)))
         done));
  check Alcotest.int "the leaf split" 2 (Btree.height t);
  (match logged (fun () -> ignore (Btree.insert t (key 3))) with
  | [ (Some _, _) ] -> ()
  | ds ->
      Alcotest.failf "left-half insert: %d deltas, no move" (List.length ds));
  let payload = Storage.Buffer_pool.block_size pool in
  match logged (fun () -> ignore (Btree.delete t (key 4))) with
  | [ (_, ranges) ] ->
      List.iter
        (fun (off, b) ->
          Bytes.iteri
            (fun i c ->
              if off + i < payload && c = '\000' then
                Alcotest.failf "delete logged a zero byte at %d" (off + i))
            b)
        ranges
  | ds -> Alcotest.failf "delete: %d deltas" (List.length ds)

let () =
  Alcotest.run "btree"
    [
      ("basic",
       [ Alcotest.test_case "empty tree" `Quick test_empty;
         Alcotest.test_case "duplicate insert" `Quick test_insert_dup;
         Alcotest.test_case "width validation" `Quick
           test_key_width_validation;
         Alcotest.test_case "min/max" `Quick test_min_max;
         Alcotest.test_case "negative components" `Quick test_negative_keys ]);
      ("structure",
       [ Alcotest.test_case "ascending fill" `Quick test_sequential_ascending;
         Alcotest.test_case "descending fill + full delete" `Quick
           test_sequential_descending_then_delete_all;
         Alcotest.test_case "page free list reuse" `Quick test_page_reuse;
         Alcotest.test_case "deep tree, wide keys" `Quick
           test_deep_tree_small_pages ]);
      ("scans",
       [ Alcotest.test_case "range bounds" `Quick test_range_scan_bounds;
         Alcotest.test_case "prefix pads" `Quick test_prefix_pads;
         Alcotest.test_case "next leaf only while keys <= hi" `Quick
           test_scan_leaf_pins;
         Alcotest.test_case "full scan <= 1 word per entry" `Quick
           test_scan_words_per_entry ]);
      ("bulk",
       [ Alcotest.test_case "bulk load = inserts" `Quick
           test_bulk_load_matches_inserts;
         Alcotest.test_case "rejects unsorted" `Quick
           test_bulk_load_rejects_unsorted;
         Alcotest.test_case "empty bulk" `Quick test_bulk_load_empty;
         Alcotest.test_case "rejects fill outside (0, 1]" `Quick
           test_bulk_load_rejects_fill ]);
      ("oracle",
       [ Alcotest.test_case "random ops vs Set (2k)" `Quick test_random_small;
         Alcotest.test_case "random ops vs Set (8k)" `Slow test_random_larger;
         QCheck_alcotest.to_alcotest prop_insert_then_mem;
         QCheck_alcotest.to_alcotest prop_in_place_reads;
         QCheck_alcotest.to_alcotest prop_insert_then_mem_few_frames;
         QCheck_alcotest.to_alcotest prop_in_place_reads_few_frames;
         QCheck_alcotest.to_alcotest prop_seek_reads;
         QCheck_alcotest.to_alcotest prop_seek_reads_few_frames ]);
      ("zero tail",
       [ QCheck_alcotest.to_alcotest prop_zero_free_space;
         Alcotest.test_case "churn reaches every structural edit" `Quick
           test_churn_coverage;
         Alcotest.test_case "leaf deltas: a move after a split, no zeros"
           `Quick test_leaf_deltas;
         QCheck_alcotest.to_alcotest prop_zero_free_space_few_frames ]);
    ]
