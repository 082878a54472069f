(* Trace spans and latency-histogram geometry: span nesting and
   counter attribution (including under forced buffer-pool evictions),
   the disabled fast path, and QCheck properties over Server_stats'
   power-of-two buckets and percentile reconstruction. *)

module T = Obs.Trace
module C = Obs.Counters
module SS = Server.Server_stats
module P = Server.Protocol

let check = Alcotest.check

let with_tracing f =
  T.set_enabled true;
  T.clear ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.clear ())
    f

let test_disabled_returns_no_span () =
  T.set_enabled false;
  T.clear ();
  let v, span = T.traced "root" (fun () -> 42) in
  check Alcotest.int "value passes through" 42 v;
  check Alcotest.bool "no span when disabled" true (span = None);
  check Alcotest.int "ring untouched" 0 (List.length (T.recent ()))

let test_nesting_and_attribution () =
  with_tracing (fun () ->
      let (), span =
        T.traced "request" ~info:"r" (fun () ->
            T.with_span "child.a" (fun () ->
                C.incr_read ();
                C.incr_read ();
                T.with_span "grandchild" (fun () -> C.incr_pool_miss ()));
            T.with_span "child.b" (fun () -> C.incr_write ()))
      in
      match span with
      | None -> Alcotest.fail "expected a root span"
      | Some root -> (
          check Alcotest.string "root name" "request" root.T.name;
          check Alcotest.string "root info" "r" root.T.info;
          (match root.T.children with
          | [ a; b ] -> (
              check Alcotest.string "first child" "child.a" a.T.name;
              check Alcotest.string "second child" "child.b" b.T.name;
              (* a's delta covers its own work plus the grandchild's *)
              check Alcotest.int "a reads" 2 a.T.io.C.reads;
              check Alcotest.int "a pool misses" 1 a.T.io.C.pool_misses;
              check Alcotest.int "b writes" 1 b.T.io.C.writes;
              check Alcotest.int "b reads" 0 b.T.io.C.reads;
              match a.T.children with
              | [ g ] ->
                  check Alcotest.string "grandchild name" "grandchild"
                    g.T.name;
                  check Alcotest.int "grandchild reads" 0 g.T.io.C.reads;
                  check Alcotest.int "grandchild misses" 1
                    g.T.io.C.pool_misses
              | _ -> Alcotest.fail "grandchild shape")
          | _ -> Alcotest.fail "expected exactly two children");
          (* the root's delta is the union of everything below *)
          check Alcotest.int "root reads" 2 root.T.io.C.reads;
          check Alcotest.int "root writes" 1 root.T.io.C.writes;
          check Alcotest.int "root misses" 1 root.T.io.C.pool_misses;
          match T.last () with
          | Some s -> check Alcotest.string "ring holds the root" "request"
                        s.T.name
          | None -> Alcotest.fail "ring empty after a finished root"))

let test_only_roots_returned () =
  with_tracing (fun () ->
      let ((), inner), outer =
        T.traced "outer" (fun () -> T.traced "inner" (fun () -> ()))
      in
      check Alcotest.bool "inner is not a root" true (inner = None);
      match outer with
      | Some s ->
          check Alcotest.int "inner became a child" 1
            (List.length s.T.children)
      | None -> Alcotest.fail "outer root missing")

let test_span_closes_on_raise () =
  with_tracing (fun () ->
      (try T.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      (* the stack is balanced again: the next root records normally *)
      let (), s = T.traced "after" (fun () -> ()) in
      check Alcotest.bool "root recorded after raise" true (s <> None))

(* A cold RI-tree query on a catalog with a tiny buffer pool: descents
   fault pages in and force evictions, and every physical read must be
   attributed to spans nested under the traced root. The executor runs
   the Fig. 9 plan as one span per UNION ALL branch, with its collection
   and index-scan steps nested below. *)
let test_eviction_attribution () =
  let db = Relation.Catalog.create ~cache_blocks:8 () in
  let tree = Ritree.Ri_tree.create db in
  let rng = Workload.Prng.create ~seed:5 in
  for i = 0 to 1_999 do
    let l = Workload.Prng.int rng 100_000 in
    ignore (Ritree.Ri_tree.insert ~id:i tree (Interval.Ivl.make l (l + 500)))
  done;
  Relation.Catalog.flush db;
  Relation.Catalog.drop_cache db;
  with_tracing (fun () ->
      let ids, span =
        T.traced "query" (fun () ->
            Exec.Planner.intersecting_ids tree
              (Interval.Ivl.make 40_000 60_000))
      in
      check Alcotest.bool "query returned rows" true (ids <> []);
      match span with
      | None -> Alcotest.fail "no root span"
      | Some root ->
          let rec collect s acc =
            List.fold_left (fun acc c -> collect c acc) (s :: acc)
              s.T.children
          in
          let all = collect root [] in
          let has n = List.exists (fun s -> s.T.name = n) all in
          List.iter
            (fun n ->
              check Alcotest.bool n true (has n))
            [ "sql.branch"; "exec.collection"; "exec.index_scan";
              "btree.descend"; "pool.fault" ];
          (* one branch span per Fig. 9 join, named by its steps *)
          check
            (Alcotest.list Alcotest.string)
            "branch spans" [ "lft,i"; "rgt,i" ]
            (List.sort compare
               (List.filter_map
                  (fun s ->
                    if s.T.name = "sql.branch" then Some s.T.info else None)
                  all));
          check Alcotest.bool "cold cache faulted" true
            (root.T.io.C.reads > 0);
          check Alcotest.bool "misses recorded" true
            (root.T.io.C.pool_misses > 0);
          check Alcotest.bool "tiny pool evicted" true
            (root.T.io.C.pool_evictions > 0);
          (* fault spans carry reads, and never more than the root saw *)
          let fault_reads =
            List.fold_left
              (fun a s ->
                if s.T.name = "pool.fault" then a + s.T.io.C.reads else a)
              0 all
          in
          check Alcotest.bool "faults read" true (fault_reads > 0);
          check Alcotest.bool "fault reads bounded by root" true
            (fault_reads <= root.T.io.C.reads))

(* ---- histogram geometry properties ---- *)

let prop_bucket_monotone =
  QCheck.Test.make ~count:500 ~name:"bucket_of_us is monotone"
    QCheck.(pair (int_bound 2_000_000_000) (int_bound 2_000_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      SS.bucket_of_us lo <= SS.bucket_of_us hi)

let prop_bucket_mid_inverse =
  QCheck.Test.make ~count:200
    ~name:"bucket_of_us (bucket_mid_us i) = i"
    QCheck.(int_bound (SS.buckets - 1))
    (fun i -> SS.bucket_of_us (SS.bucket_mid_us i) = i)

let prop_bucket_limits =
  QCheck.Test.make ~count:200 ~name:"bucket_limit_us is exclusive"
    QCheck.(int_bound (SS.buckets - 2))
    (fun i ->
      SS.bucket_of_us (SS.bucket_limit_us i - 1) = i
      && SS.bucket_of_us (SS.bucket_limit_us i) = i + 1)

(* Percentile reconstruction reports bucket midpoints, which can fall
   below the smallest (or above the largest) latency actually seen;
   the clamp against observed min/max keeps the estimates honest. *)
let prop_percentiles_bounded =
  QCheck.Test.make ~count:300
    ~name:"percentiles stay within the observed range"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1_000_000))
    (fun samples ->
      let t = SS.create ~now:0.0 in
      List.iter
        (fun us ->
          SS.record t ~op:"x" ~seconds:(float_of_int us /. 1e6) ~io:0)
        samples;
      let stats =
        SS.snapshot t ~now:1.0
          ~io:{ Storage.Block_device.Stats.reads = 0; writes = 0 }
      in
      match List.find_opt (fun o -> o.P.op = "x") stats.P.ops with
      | None -> false
      | Some o ->
          let mn = List.fold_left min max_int samples
          and mx = List.fold_left max 0 samples in
          o.P.p50_us >= mn && o.P.p99_us <= mx
          && o.P.p50_us <= o.P.p95_us
          && o.P.p95_us <= o.P.p99_us
          && o.P.max_us = mx)

(* A wide span tree rendered under a byte cap: truncation happens at
   line boundaries, a marker counts what was dropped, and the output
   stays near the budget — the slow-query log's guarantee that a
   pathological plan tree cannot stall the event loop. *)
let test_render_cap () =
  with_tracing (fun () ->
      let (), span =
        T.traced "request" (fun () ->
            for i = 0 to 199 do
              T.with_span (Printf.sprintf "child.%03d" i) (fun () -> ())
            done)
      in
      match span with
      | None -> Alcotest.fail "expected a root span"
      | Some root ->
          let full = T.render root in
          check Alcotest.bool "full render has every child" true
            (String.length full > 200 * 10);
          let contains ~needle hay =
            let n = String.length needle and h = String.length hay in
            let rec go i =
              i + n <= h && (String.sub hay i n = needle || go (i + 1))
            in
            go 0
          in
          check Alcotest.bool "full render is unmarked" false
            (contains ~needle:"truncated" full);
          let cap = 512 in
          let capped = T.render ~max_bytes:cap root in
          check Alcotest.bool "capped render is bounded" true
            (String.length capped < cap + 64);
          check Alcotest.bool "capped render carries the marker" true
            (contains ~needle:"spans truncated" capped);
          check Alcotest.bool "root line survives the cap" true
            (contains ~needle:"request" capped);
          check Alcotest.string "zero budget keeps only the marker"
            "\xe2\x80\xa6 (201 spans truncated)\n"
            (T.render ~max_bytes:0 root))

let () =
  Alcotest.run "trace"
    [
      ("spans",
       [ Alcotest.test_case "disabled returns no span" `Quick
           test_disabled_returns_no_span;
         Alcotest.test_case "render honours max_bytes" `Quick
           test_render_cap;
         Alcotest.test_case "nesting and attribution" `Quick
           test_nesting_and_attribution;
         Alcotest.test_case "only roots returned" `Quick
           test_only_roots_returned;
         Alcotest.test_case "span closes on raise" `Quick
           test_span_closes_on_raise;
         Alcotest.test_case "eviction attribution" `Quick
           test_eviction_attribution ]);
      ("histogram",
       [ QCheck_alcotest.to_alcotest prop_bucket_monotone;
         QCheck_alcotest.to_alcotest prop_bucket_mid_inverse;
         QCheck_alcotest.to_alcotest prop_bucket_limits;
         QCheck_alcotest.to_alcotest prop_percentiles_bounded ]);
    ]
