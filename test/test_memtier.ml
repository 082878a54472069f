(* The RAM-resident hot tier: golden EXPLAIN tier flip around the byte
   budget, memory ≡ disk result identity (intersection and all 13 Allen
   relations), invalidation on mutation, LRU demotion, and cached SQL
   plans that follow residency changes without a replan. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module Ri = Ritree.Ri_tree
module CM = Ritree.Cost_model
module Dist = Workload.Distribution
module Pl = Exec.Planner
module Mt = Exec.Memtier
module E = Sqlfront.Engine

let check = Alcotest.check
let sorted = List.sort compare

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let build ?name ~n () =
  let data = Dist.generate ~seed:11 Dist.D1 ~n ~d:2_000 in
  let db = Relation.Catalog.create () in
  let tree = match name with
    | None -> Ri.create db
    | Some name -> Ri.create ~name db
  in
  Array.iteri (fun id ivl -> ignore (Ri.insert ~id tree ivl)) data;
  (db, tree, data)

let q = Ivl.make 400_000 500_000

(* ---- golden EXPLAIN: the tier decision flips on the budget ---- *)

let test_explain_tier_flip () =
  let mt = Mt.create ~budget_mb:1 in
  (* small collection: resident, the plan is a memory probe *)
  let _, small, _ = build ~n:500 () in
  let stats = CM.Stats.analyze small in
  let mem = Mt.acquire mt small in
  check Alcotest.bool "small collection is admitted" true (mem <> None);
  let plan =
    Pl.explain ~stats ?mem small (Pl.Intersect_target q)
  in
  check Alcotest.bool "resident plan probes the hot tier" true
    (contains plan "MEM HINT PROBE");
  check Alcotest.bool "resident plan names the collection" true
    (contains plan (Ri.name small));
  (* oversized collection: acquire declines, the plan stays on disk.
     1 MB admits ~9.3k rows under the pre-build gate; 20k cannot fit. *)
  let _, big, _ = build ~n:20_000 () in
  let stats_b = CM.Stats.analyze big in
  let mem_b = Mt.acquire mt big in
  check Alcotest.bool "oversized collection is declined" true (mem_b = None);
  let plan_b =
    Pl.explain ~stats:stats_b ?mem:mem_b big (Pl.Intersect_target q)
  in
  check Alcotest.bool "cold plan keeps the index range scan" true
    (contains plan_b "INDEX RANGE SCAN");
  check Alcotest.bool "cold plan has no memory probe" false
    (contains plan_b "MEM HINT")

(* ---- memory results ≡ disk results ---- *)

let test_mem_matches_disk () =
  let mt = Mt.create ~budget_mb:64 in
  let _, tree, data = build ~n:2_000 () in
  let stats = CM.Stats.analyze tree in
  let mem = Mt.acquire mt tree in
  check Alcotest.bool "resident" true (mem <> None);
  let queries =
    [ q; Ivl.point 450_000; Ivl.make 0 Dist.domain_max; Ivl.make 1 2 ]
  in
  List.iter
    (fun q ->
      check
        (Alcotest.list Alcotest.int)
        "intersection ids match disk"
        (sorted (Pl.intersecting_ids ~stats tree q))
        (sorted (Pl.intersecting_ids ?mem ~path:Pl.Mem_path tree q)))
    queries;
  check Alcotest.int "every row is resident" (Array.length data)
    (List.length (Pl.intersecting_ids ?mem ~path:Pl.Mem_path tree
                    (Ivl.make min_int max_int)));
  List.iter
    (fun r ->
      check
        (Alcotest.list Alcotest.int)
        (Allen.to_string r ^ " ids match disk")
        (sorted (Pl.allen_ids tree r q))
        (sorted (Pl.allen_ids ?mem tree r q)))
    Allen.all

(* ---- mutation invalidates the replica ---- *)

let test_mutation_invalidates () =
  let mt = Mt.create ~budget_mb:64 in
  let _, tree, _ = build ~n:300 () in
  (match Mt.acquire mt tree with
  | None -> Alcotest.fail "expected residency"
  | Some _ -> ());
  check Alcotest.int "one build" 1 (Mt.stats mt).Mt.s_builds;
  let id = Ri.insert tree (Ivl.make 449_000 451_000) in
  (* the stale replica is dropped and rebuilt on next acquire, and the
     new row is served from memory *)
  let mem = Mt.acquire mt tree in
  let st = Mt.stats mt in
  check Alcotest.int "rebuilt" 2 st.Mt.s_builds;
  check Alcotest.int "stale replica invalidated" 1 st.Mt.s_invalidations;
  check Alcotest.bool "new row served from the replica" true
    (List.mem id (Pl.intersecting_ids ?mem ~path:Pl.Mem_path tree q))

(* ---- LRU demotion under a tight budget ---- *)

let test_lru_demotion () =
  (* ~590 KB per replica at 9k rows: each passes the pre-build gate,
     two cannot share 1 MB *)
  let mt = Mt.create ~budget_mb:1 in
  let _, t1, _ = build ~name:"hot_a" ~n:9_000 () in
  let _, t2, _ = build ~name:"hot_b" ~n:9_000 () in
  check Alcotest.bool "first admitted" true (Mt.acquire mt t1 <> None);
  check Alcotest.bool "second admitted" true (Mt.acquire mt t2 <> None);
  let st = Mt.stats mt in
  check Alcotest.bool "older replica was demoted" true (st.Mt.s_demotions >= 1);
  check Alcotest.bool "victim is the cold one" true
    (Mt.resident mt "hot_b" && not (Mt.resident mt "hot_a"));
  check Alcotest.bool "budget is respected" true
    (st.Mt.s_resident_bytes <= st.Mt.s_budget_bytes)

(* ---- a declined build must not evict anyone (regression) ----

   The rough pre-build gate (2 registrations of 7 words per row) can
   undershoot badly for long intervals, which decompose into ~2
   registrations per HINT level. The build used to call [make_room]
   before the exact-size check, so such a collection demoted every
   resident replica and was then declined anyway — an empty tier for
   nothing. The exact gate now runs first. *)

let test_declined_build_keeps_residents () =
  let budget_mb = 1 in
  let budget = budget_mb * 1024 * 1024 in
  let mt = Mt.create ~budget_mb in
  let _, keep, _ = build ~name:"hot_keep" ~n:500 () in
  check Alcotest.bool "small replica admitted" true (Mt.acquire mt keep <> None);
  (* wide intervals: ~40% of the domain each, staggered starts *)
  let n = 9_000 in
  let fat_data =
    Array.init n (fun i ->
        let lo = i * 7919 mod 600_000 in
        Ivl.make lo (lo + 400_000))
  in
  (* precondition 1: the rough gate admits it *)
  check Alcotest.bool "rough estimate fits the budget" true
    (n * 2 * 7 * 8 <= budget);
  (* precondition 2: the exact size does not — measured on an identical
     standalone HINT, same universe and grid as the tier would build *)
  let dlo =
    Array.fold_left (fun a i -> min a (Ivl.lower i)) max_int fat_data
  and dhi =
    Array.fold_left (fun a i -> max a (Ivl.upper i)) min_int fat_data
  in
  let h =
    Memindex.Hint.create ~lo:dlo ~hi:dhi
      ~m:(Memindex.Hint.suggested_grid ~rows:n) ()
  in
  Array.iteri (fun id ivl -> ignore (Memindex.Hint.insert ~id h ivl)) fat_data;
  check Alcotest.bool "exact size exceeds the budget" true
    (Memindex.Hint.approx_bytes h > budget);
  let db = Relation.Catalog.create () in
  let fat = Ri.create ~name:"hot_fat" db in
  Array.iteri (fun id ivl -> ignore (Ri.insert ~id fat ivl)) fat_data;
  let before = Mt.stats mt in
  check Alcotest.bool "fat collection is declined" true
    (Mt.acquire mt fat = None);
  let after = Mt.stats mt in
  check Alcotest.bool "resident replica survived the declined build" true
    (Mt.resident mt "hot_keep");
  check Alcotest.int "no demotions" before.Mt.s_demotions after.Mt.s_demotions;
  check Alcotest.int "resident bytes unchanged" before.Mt.s_resident_bytes
    after.Mt.s_resident_bytes

let test_disabled_tier () =
  let mt = Mt.create ~budget_mb:0 in
  let _, tree, _ = build ~n:50 () in
  check Alcotest.bool "budget 0 disables the tier" true
    (Mt.acquire mt tree = None)

(* ---- residency changes and the SQL plan cache ---- *)

(* Compiled SQL plans name the relation, not a replica: the hot tier is
   asked for a handle at each execution. Promoting and demoting the
   relation between runs of a cached intersection and of a prepared
   EXECUTE therefore costs no replan, and every answer stays right. *)
let test_tier_change_keeps_plans () =
  let db, tree, data = build ~n:200 () in
  let name = Ri.name tree in
  let mt = Mt.create ~budget_mb:64 in
  let s = E.session db in
  let stats = CM.Stats.analyze tree in
  E.set_ritree s (Exec.Planner.prepare tree)
    ~stats:(fun () -> stats)
    ~mem:(fun () -> if Mt.resident mt name then Mt.acquire mt tree else None);
  let lo = Ivl.lower q and hi = Ivl.upper q in
  let want =
    Array.to_list data
    |> List.mapi (fun id ivl -> (id, ivl))
    |> List.filter (fun (_, ivl) -> Ivl.lower ivl <= hi && Ivl.upper ivl >= lo)
    |> List.map fst |> sorted
  in
  let ids rows = sorted (List.map (fun r -> r.(0)) rows) in
  let sql =
    Printf.sprintf "SELECT id FROM %s WHERE lower <= %d AND upper >= %d" name
      hi lo
  in
  let p =
    E.prepare s
      (Printf.sprintf "SELECT id FROM %s WHERE lower <= :a AND upper >= :b"
         name)
  in
  let run label =
    check Alcotest.(list int) (label ^ ": cached SQL") want
      (ids (E.query s sql));
    match E.execute_prepared s p [ hi; lo ] with
    | E.Rows { rows; _ } ->
        check Alcotest.(list int) (label ^ ": prepared EXECUTE") want (ids rows)
    | E.Done m -> Alcotest.failf "%s: EXECUTE answered %s" label m
  in
  run "on disk";
  run "warm";
  let hits0, misses0 = E.plan_cache_stats s in
  check Alcotest.bool "warm run hits the cache" true (hits0 >= 1);
  ignore (Mt.acquire mt tree);
  check Alcotest.bool "promoted" true (Mt.resident mt name);
  let probes0 = (Mt.stats mt).Mt.s_probes in
  run "promoted";
  check Alcotest.bool "the cached plans probe the hot tier" true
    ((Mt.stats mt).Mt.s_probes > probes0);
  check Alcotest.bool "demoted" true (Mt.demote mt name);
  let probes1 = (Mt.stats mt).Mt.s_probes in
  run "demoted";
  check Alcotest.int "the cached plans are back on disk" probes1
    (Mt.stats mt).Mt.s_probes;
  let hits1, misses1 = E.plan_cache_stats s in
  check Alcotest.bool "every later run hit" true (hits1 >= hits0 + 2);
  check Alcotest.int "no new misses" misses0 misses1

let () =
  Alcotest.run "memtier"
    [ ( "tier",
        [ Alcotest.test_case "explain flips on the budget" `Quick
            test_explain_tier_flip;
          Alcotest.test_case "memory ≡ disk results" `Quick
            test_mem_matches_disk;
          Alcotest.test_case "mutation invalidates" `Quick
            test_mutation_invalidates;
          Alcotest.test_case "LRU demotion" `Quick test_lru_demotion;
          Alcotest.test_case "declined build keeps residents" `Quick
            test_declined_build_keeps_residents;
          Alcotest.test_case "budget 0 disables" `Quick test_disabled_tier ] );
      ( "plan cache",
        [ Alcotest.test_case "residency changes keep cached plans" `Quick
            test_tier_change_keeps_plans ] ) ]
