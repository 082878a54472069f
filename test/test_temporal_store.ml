(* now/infinity handling of Sec. 4.6: the store's sentinel rows, read
   through the planner's temporal plan. *)

module Ivl = Interval.Ivl
module Temporal = Interval.Temporal
module Store = Ritree.Temporal_store
module Pl = Exec.Planner

let check = Alcotest.check
let sorted = List.sort compare

let test_basics () =
  let db = Relation.Catalog.create () in
  let s = Store.create db in
  let a = Store.insert s (Temporal.make 0 (Finite 100)) in
  let b = Store.insert s (Temporal.make 50 Now) in
  let c = Store.insert s (Temporal.make 10 Infinity) in
  check Alcotest.int "count" 3 (Store.count s);
  (* at now = 60: b covers [50,60] *)
  check (Alcotest.list Alcotest.int) "hit all" (sorted [ a; b; c ])
    (sorted (Pl.temporal_ids s ~now:60 (Ivl.make 55 70)));
  (* at now = 40: b not valid in [55,70] yet *)
  check (Alcotest.list Alcotest.int) "b excluded" (sorted [ a; c ])
    (sorted (Pl.temporal_ids s ~now:40 (Ivl.make 55 70)));
  (* infinity reaches arbitrarily far *)
  check (Alcotest.list Alcotest.int) "far future" [ c ]
    (Pl.temporal_ids s ~now:42 (Ivl.make 1_000_000 2_000_000))

let test_now_not_yet_valid () =
  let db = Relation.Catalog.create () in
  let s = Store.create db in
  let x = Store.insert s (Temporal.make 900 Now) in
  check (Alcotest.list Alcotest.int) "not valid before start" []
    (Pl.temporal_ids s ~now:500 (Ivl.make 0 10_000));
  check (Alcotest.list Alcotest.int) "valid after start" [ x ]
    (Pl.temporal_ids s ~now:950 (Ivl.make 0 10_000))

let test_sentinels_do_not_pollute_finite_queries () =
  let db = Relation.Catalog.create () in
  let s = Store.create db in
  let f = Store.insert s (Temporal.make 0 (Finite 10)) in
  let _n = Store.insert s (Temporal.make 5000 Now) in
  let _i = Store.insert s (Temporal.make 5000 Infinity) in
  (* a query left of the sentinels' lower bounds sees only the finite
     interval *)
  check (Alcotest.list Alcotest.int) "only finite" [ f ]
    (sorted (Pl.temporal_ids s ~now:9_000 (Ivl.make 0 100)));
  Ritree.Ri_tree.check_invariants (Store.ri s)

(* Randomized agreement with the Temporal.resolve specification. *)
let test_oracle () =
  let rng = Workload.Prng.create ~seed:77 in
  let db = Relation.Catalog.create () in
  let s = Store.create db in
  let stored = ref [] in
  for i = 0 to 299 do
    let lower = Workload.Prng.int rng 10_000 in
    let upper =
      match Workload.Prng.int rng 3 with
      | 0 -> Temporal.Finite (lower + Workload.Prng.int rng 2_000)
      | 1 -> Temporal.Now
      | _ -> Temporal.Infinity
    in
    let tv = Temporal.make lower upper in
    ignore (Store.insert ~id:i s tv);
    stored := (tv, i) :: !stored
  done;
  for _ = 1 to 200 do
    let now = Workload.Prng.int rng 15_000 in
    let ql = Workload.Prng.int rng 12_000 in
    let q = Ivl.make ql (ql + Workload.Prng.int rng 3_000) in
    let expected =
      List.filter_map
        (fun (tv, id) ->
          if Temporal.intersects ~now tv q then Some id else None)
        !stored
      |> sorted
    in
    let got = sorted (Pl.temporal_ids s ~now q) in
    if got <> expected then
      Alcotest.failf "now=%d %s: %d vs %d" now (Ivl.to_string q)
        (List.length got) (List.length expected)
  done

let test_intersecting_returns_temporal_values () =
  let db = Relation.Catalog.create () in
  let s = Store.create db in
  ignore (Store.insert ~id:1 s (Temporal.make 0 (Finite 10)));
  ignore (Store.insert ~id:2 s (Temporal.make 3 Now));
  ignore (Store.insert ~id:3 s (Temporal.make 5 Infinity));
  let hits = Pl.temporal_matches s ~now:100 (Ivl.make 6 7) in
  check Alcotest.int "three hits" 3 (List.length hits);
  List.iter
    (fun (tv, id) ->
      match (id, tv.Temporal.upper) with
      | 1, Temporal.Finite 10 | 2, Temporal.Now | 3, Temporal.Infinity -> ()
      | _ -> Alcotest.failf "id %d has wrong upper" id)
    hits

let () =
  Alcotest.run "temporal_store"
    [
      ("temporal",
       [ Alcotest.test_case "basics" `Quick test_basics;
         Alcotest.test_case "now before start" `Quick test_now_not_yet_valid;
         Alcotest.test_case "sentinels isolated" `Quick
           test_sentinels_do_not_pollute_finite_queries;
         Alcotest.test_case "randomized oracle" `Quick test_oracle;
         Alcotest.test_case "temporal values round trip" `Quick
           test_intersecting_returns_temporal_values ]);
    ]
