(* Slotted-page heap files. *)

module Heap = Relation.Heap

let check = Alcotest.check

let mk_pool () =
  Storage.Buffer_pool.create ~capacity:64
    (Storage.Block_device.create ~block_size:256 ())

let row = Alcotest.array Alcotest.int

let test_insert_fetch () =
  let h = Heap.create (mk_pool ()) ~row_width:3 in
  let r1 = Heap.insert h [| 1; 2; 3 |] in
  let r2 = Heap.insert h [| 4; 5; 6 |] in
  check Alcotest.bool "distinct rowids" true (r1 <> r2);
  check (Alcotest.option row) "fetch r1" (Some [| 1; 2; 3 |]) (Heap.fetch h r1);
  check (Alcotest.option row) "fetch r2" (Some [| 4; 5; 6 |]) (Heap.fetch h r2);
  check (Alcotest.option row) "dangling" None (Heap.fetch h (r2 + 999));
  check Alcotest.int "count" 2 (Heap.count h);
  Heap.check_invariants h

let test_width_validation () =
  let h = Heap.create (mk_pool ()) ~row_width:2 in
  Alcotest.check_raises "bad width"
    (Invalid_argument "Heap.insert: row width 3, expected 2") (fun () ->
      ignore (Heap.insert h [| 1; 2; 3 |]))

let test_delete_and_slot_reuse () =
  let h = Heap.create (mk_pool ()) ~row_width:2 in
  let rids = List.init 100 (fun i -> Heap.insert h [| i; i |]) in
  let victim = List.nth rids 50 in
  check Alcotest.bool "delete" true (Heap.delete h victim);
  check Alcotest.bool "double delete" false (Heap.delete h victim);
  check (Alcotest.option row) "gone" None (Heap.fetch h victim);
  check Alcotest.int "count" 99 (Heap.count h);
  (* the freed slot is reused by the next insertion *)
  let fresh = Heap.insert h [| 777; 888 |] in
  check Alcotest.int "slot reused" victim fresh;
  check (Alcotest.option row) "new content" (Some [| 777; 888 |])
    (Heap.fetch h fresh);
  Heap.check_invariants h

let test_no_growth_under_churn () =
  let h = Heap.create (mk_pool ()) ~row_width:2 in
  let rid = ref (Heap.insert h [| 0; 0 |]) in
  let pages0 = Heap.page_count h in
  for i = 1 to 10_000 do
    ignore (Heap.delete h !rid);
    rid := Heap.insert h [| i; i |]
  done;
  check Alcotest.int "pages stable" pages0 (Heap.page_count h);
  check Alcotest.int "count" 1 (Heap.count h)

let test_update () =
  let h = Heap.create (mk_pool ()) ~row_width:2 in
  let rid = Heap.insert h [| 1; 1 |] in
  check Alcotest.bool "update" true (Heap.update h rid [| 9; 9 |]);
  check (Alcotest.option row) "updated" (Some [| 9; 9 |]) (Heap.fetch h rid);
  ignore (Heap.delete h rid);
  check Alcotest.bool "update deleted" false (Heap.update h rid [| 5; 5 |])

let test_iter_order_and_fold () =
  let h = Heap.create (mk_pool ()) ~row_width:1 in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (Heap.insert h [| i |])
  done;
  let seen = ref [] in
  Heap.iter h (fun _ r -> seen := r.(0) :: !seen);
  check (Alcotest.list Alcotest.int) "page order = insertion order"
    (List.init n Fun.id) (List.rev !seen);
  let total = Heap.fold h (fun acc _ r -> acc + r.(0)) 0 in
  check Alcotest.int "fold" (n * (n - 1) / 2) total;
  check Alcotest.bool "multiple pages" true (Heap.page_count h > 1);
  Heap.check_invariants h

let test_iter_skips_deleted () =
  let h = Heap.create (mk_pool ()) ~row_width:1 in
  let rids = List.init 10 (fun i -> Heap.insert h [| i |]) in
  List.iteri (fun i rid -> if i mod 2 = 0 then ignore (Heap.delete h rid)) rids;
  let seen = ref [] in
  Heap.iter h (fun _ r -> seen := r.(0) :: !seen);
  check (Alcotest.list Alcotest.int) "odd survivors" [ 1; 3; 5; 7; 9 ]
    (List.rev !seen)

(* ---- reopening a heap keeps its free slots ----

   A reopened heap rebuilds its free-slot list lazily, at its first
   insert or delete, and a delete walks the chain before it clears its
   own bit. *)

(* Freed slots of a reopened heap are reused in the order the chain
   walk gives: the last page's first, each page's in slot order. A
   slot freed after the reopen goes in front of them, and once they are
   all refilled the next insert appends. *)
let test_reopen_reuse_order () =
  let dev = Storage.Block_device.create ~block_size:256 () in
  let pool = Storage.Buffer_pool.create ~capacity:64 dev in
  let h = Heap.create pool ~row_width:2 in
  let rids = Array.init 42 (fun i -> Heap.insert h [| i; i |]) in
  List.iter (fun i -> ignore (Heap.delete h rids.(i))) [ 3; 30; 17; 5; 40; 16 ];
  Storage.Buffer_pool.flush pool;
  let h =
    Heap.open_existing
      (Storage.Buffer_pool.create ~capacity:64 dev)
      ~meta_page:(Heap.meta_page h)
  in
  check Alcotest.int "count survives" 36 (Heap.count h);
  check Alcotest.bool "delete after reopen" true (Heap.delete h rids.(9));
  let reused = List.init 8 (fun i -> Heap.insert h [| 100 + i; 0 |]) in
  check (Alcotest.list Alcotest.int) "reuse order, then append"
    (List.map (fun i -> rids.(i)) [ 9; 30; 40; 16; 17; 3; 5 ]
    @ [ rids.(41) + 1 ])
    reused;
  check Alcotest.int "one page appended" 4 (Heap.page_count h);
  Heap.check_invariants h

(* Random inserts and deletes run on a heap that is flushed and
   reopened halfway and on one that never is. Reuse order differs
   between the two (a live heap reuses the slot freed last), but a
   final run of inserts fills every freed slot, so both must end with
   the same rowids in use and the same pages, and each must hold
   exactly the rows its own history left under each rowid: a slot the
   reopened heap never listed stays a hole, and one listed twice trips
   the insert that refills it. *)

type op = Ins of int | Del of int  (* Del k: the k-th live rowid, mod *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (frequency
         [ (3, map (fun v -> Ins v) (int_bound 1_000));
           (2, map (fun k -> Del k) (int_bound 1_000)) ]))

let show_ops ops =
  String.concat " "
    (List.map
       (function Ins v -> "I" ^ string_of_int v | Del k -> "D" ^ string_of_int k)
       ops)

(* [live] holds the (rowid, row) pairs the ops left, sorted. *)
let run_ops h live ops =
  List.iter
    (function
      | Ins v ->
          let row = [| v; -v |] in
          live := List.sort compare ((Heap.insert h row, row) :: !live)
      | Del k -> (
          match !live with
          | [] -> ()
          | l ->
              let rid, _ = List.nth l (k mod List.length l) in
              live := List.filter (fun (r, _) -> r <> rid) l;
              if not (Heap.delete h rid) then failwith "live row missing"))
    ops

let contents h = List.rev (Heap.fold h (fun acc rid r -> (rid, r) :: acc) [])

let prop_reopen_keeps_free_slots =
  QCheck.Test.make ~count:300 ~name:"reopened heap fills every freed slot"
    QCheck.(
      make
        ~print:(fun (a, b) -> show_ops a ^ " | reopen | " ^ show_ops b)
        Gen.(pair gen_ops gen_ops))
    (fun (before, after) ->
      let drain =
        List.init
          (List.length before + List.length after)
          (fun i -> Ins (10_000 + i))
      in
      let steady = Heap.create (mk_pool ()) ~row_width:2 in
      let steady_live = ref [] in
      run_ops steady steady_live (before @ after @ drain);
      let dev = Storage.Block_device.create ~block_size:256 () in
      let pool = Storage.Buffer_pool.create ~capacity:64 dev in
      let h = Heap.create pool ~row_width:2 in
      let live = ref [] in
      run_ops h live before;
      Storage.Buffer_pool.flush pool;
      let reopened =
        Heap.open_existing
          (Storage.Buffer_pool.create ~capacity:64 dev)
          ~meta_page:(Heap.meta_page h)
      in
      run_ops reopened live (after @ drain);
      Heap.check_invariants reopened;
      contents reopened = !live
      && contents steady = !steady_live
      && List.map fst !live = List.map fst !steady_live
      && Heap.page_count reopened = Heap.page_count steady)

let () =
  Alcotest.run "heap"
    [
      ("heap",
       [ Alcotest.test_case "insert/fetch" `Quick test_insert_fetch;
         Alcotest.test_case "width validation" `Quick test_width_validation;
         Alcotest.test_case "delete + slot reuse" `Quick
           test_delete_and_slot_reuse;
         Alcotest.test_case "no growth under churn" `Quick
           test_no_growth_under_churn;
         Alcotest.test_case "update in place" `Quick test_update;
         Alcotest.test_case "iter/fold order" `Quick test_iter_order_and_fold;
         Alcotest.test_case "iter skips deleted" `Quick
           test_iter_skips_deleted;
         Alcotest.test_case "reopen: reuse order" `Quick
           test_reopen_reuse_order;
         QCheck_alcotest.to_alcotest prop_reopen_keeps_free_slots ]);
    ]
