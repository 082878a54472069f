(* The in-process drivers: the storage hot path, the Sec. 5 cost model
   against cold-cache reality, the execution layer, and the main-memory
   hot tier. Each returns its record and acceptance checks to [Main]. *)

module R = Harness.Report
module Measure = Harness.Measure
module Dist = Workload.Distribution

(* The Sec. 5 drivers run on one fixed seed, so reruns are comparable. *)
let seed = 42

let kinds = [ Dist.D1; Dist.D2; Dist.D3; Dist.D4 ]

let build_tree data =
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  (db, tree)

(* Physical I/O of [f] against a cold cache. *)
let cold db f =
  Relation.Catalog.flush db;
  Relation.Catalog.drop_cache db;
  snd (Measure.io db f)

(* ---- storage: ring eviction, hit rate, group commit, the fault and
   hit paths ---- *)

(* Repeat [f] (performing [ops_per_round] operations) until at least
   [min_seconds] have elapsed, so the fast configurations are measured
   over a stable window rather than a single sub-millisecond sweep. *)
let time_ops ~min_seconds f ~ops_per_round =
  let total = ref 0 and elapsed = ref 0. in
  let continue = ref true in
  while !continue do
    let (), s = Measure.wall f in
    elapsed := !elapsed +. s;
    total := !total + ops_per_round;
    if !elapsed >= min_seconds then continue := false
  done;
  float_of_int !total /. Float.max !elapsed 1e-9

let sequential_sweep_device ~pages =
  let dev = Storage.Block_device.create ~block_size:64 () in
  for _ = 1 to pages do
    ignore (Storage.Block_device.alloc dev)
  done;
  dev

(* Cyclic sweep over a working set 4x the pool capacity: every access
   misses and evicts, so ops/s is eviction throughput. *)
let eviction ~tiny =
  let caps = if tiny then [ 64 ] else [ 200; 2000 ] in
  let min_seconds = if tiny then 0. else 0.2 in
  List.map
    (fun capacity ->
      let ws = 4 * capacity in
      let dev = sequential_sweep_device ~pages:ws in
      let pool = Storage.Buffer_pool.create ~capacity dev in
      let i = ref 0 in
      let round () =
        for _ = 1 to ws do
          Storage.Buffer_pool.with_page pool (!i mod ws) ~dirty:false
            (fun _ -> ());
          incr i
        done
      in
      R.Obj
        [ ("capacity", R.Int capacity); ("working_set", R.Int ws);
          ("ring_ops_per_sec",
           R.Float (time_ops ~min_seconds round ~ops_per_round:ws)) ])
    caps

(* Uniform random accesses at fixed capacity while the working set
   grows past it: the measured hit rate should track capacity/ws. *)
let hit_rate ~tiny ~capacity =
  let accesses = if tiny then 5_000 else 100_000 in
  let sets =
    [ capacity / 2; capacity; 2 * capacity; 4 * capacity; 8 * capacity ]
  in
  List.map
    (fun ws ->
      let ws = max 1 ws in
      let dev = sequential_sweep_device ~pages:ws in
      let pool = Storage.Buffer_pool.create ~capacity dev in
      let rng = Random.State.make [| 0x5eed; ws |] in
      let (), secs =
        Measure.wall (fun () ->
            for _ = 1 to accesses do
              Storage.Buffer_pool.with_page pool (Random.State.int rng ws)
                ~dirty:false
                (fun _ -> ())
            done)
      in
      let st = Storage.Buffer_pool.Stats.get pool in
      R.Obj
        [ ("working_set", R.Int ws); ("accesses", R.Int accesses);
          ("hit_rate",
           R.Float
             (float_of_int st.Storage.Buffer_pool.Stats.hits
             /. float_of_int (max 1 st.Storage.Buffer_pool.Stats.logical_reads)));
          ("evictions", R.Int st.Storage.Buffer_pool.Stats.evictions);
          ("ops_per_sec", R.Float (float_of_int accesses /. Float.max secs 1e-9))
        ])
    sets

(* Each transaction updates one hot page (shared by every transaction)
   plus one of 32 rotating private pages, then requests a commit; every
   [g]-th request forces the batch. Grouping divides the log forces and
   commit markers by [g] and logs the hot page once per batch instead of
   once per transaction. *)
let group_commit ~tiny =
  let batches = if tiny then [ 1; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let commits = if tiny then 64 else 512 in
  List.map
    (fun g ->
      let dev = Storage.Block_device.create ~block_size:256 () in
      let hot = Storage.Block_device.alloc dev in
      let pages = Array.init 32 (fun _ -> Storage.Block_device.alloc dev) in
      let pool = Storage.Buffer_pool.create ~capacity:64 dev in
      let j = Storage.Journal.create () in
      Storage.Buffer_pool.attach_journal pool j;
      let (), secs =
        Measure.wall (fun () ->
            for i = 0 to commits - 1 do
              Storage.Buffer_pool.with_page pool hot ~dirty:true (fun b ->
                  Bytes.set b 0 (Char.chr (i land 0xff)));
              Storage.Buffer_pool.with_page pool
                pages.(i mod Array.length pages)
                ~dirty:true
                (fun b -> Bytes.set b 1 (Char.chr (i land 0xff)));
              Storage.Buffer_pool.commit_request pool;
              if (i + 1) mod g = 0 then
                ignore (Storage.Buffer_pool.commit_force pool)
            done;
            ignore (Storage.Buffer_pool.commit_force pool))
      in
      let bytes = Storage.Journal.byte_size j in
      R.Obj
        [ ("batch", R.Int g); ("commits", R.Int commits);
          ("us_per_commit", R.Float (1e6 *. secs /. float_of_int commits));
          ("log_forces", R.Int (Storage.Journal.force_count j));
          ("commit_markers", R.Int (Storage.Journal.commit_count j));
          ("journal_bytes", R.Int bytes);
          ("bytes_per_commit",
           R.Float (float_of_int bytes /. float_of_int commits)) ])
    batches

(* The miss path at the paper's block size: a checksummed 64-frame pool
   over 2 000 CRC-stamped 2 KB blocks, and seeded random pin/unpin pairs,
   so about 97 % of pins fault, verify a CRC and evict. The pool is
   filled first, so the counts are the steady state a serving pool is
   in. Allocation counts repeat exactly from run to run; the times do
   not. [crc_us_per_block] times the CRC alone over one block's
   payload. *)
let fault () =
  let blocks = 2_000 and capacity = 64 and pairs = 200_000 in
  let dev = Storage.Block_device.create ~block_size:2048 () in
  let pool = Storage.Buffer_pool.create ~capacity ~checksums:true dev in
  let payload = Storage.Buffer_pool.block_size pool in
  for i = 0 to blocks - 1 do
    let page = Storage.Buffer_pool.alloc pool in
    Storage.Buffer_pool.with_page pool page ~dirty:true (fun b ->
        Bytes.fill b 0 payload (Char.chr (i land 0xff)))
  done;
  Storage.Buffer_pool.clear pool;
  for page = 0 to capacity - 1 do
    Storage.Buffer_pool.with_page pool page ~dirty:false ignore
  done;
  Storage.Buffer_pool.Stats.reset pool;
  let rng = Random.State.make [| seed |] in
  let pages = Array.init pairs (fun _ -> Random.State.int rng blocks) in
  let g0 = Gc.quick_stat () in
  let (), secs =
    Measure.wall (fun () ->
        Array.iter
          (fun page ->
            ignore (Storage.Buffer_pool.pin pool page);
            Storage.Buffer_pool.unpin pool page ~dirty:false)
          pages)
  in
  let g1 = Gc.quick_stat () in
  let misses =
    (Storage.Buffer_pool.Stats.get pool).Storage.Buffer_pool.Stats.misses
  in
  let per_miss x = x /. float_of_int (max 1 misses) in
  let block = Bytes.init payload (fun i -> Char.chr (i land 0xff)) in
  let crcs = 100_000 in
  let (), crc_secs =
    Measure.wall (fun () ->
        for _ = 1 to crcs do
          ignore (Storage.Checksum.bytes block ~pos:0 ~len:payload)
        done)
  in
  let major = per_miss (g1.Gc.major_words -. g0.Gc.major_words) in
  ( R.Obj
      [ ("capacity", R.Int capacity); ("blocks", R.Int blocks);
        ("block_size", R.Int 2048); ("pairs", R.Int pairs);
        ("misses", R.Int misses);
        ("us_per_miss", R.Float (per_miss (1e6 *. secs)));
        ("minor_words_per_miss",
         R.Float (per_miss (g1.Gc.minor_words -. g0.Gc.minor_words)));
        ("major_words_per_miss", R.Float major);
        ("crc_us_per_block", R.Float (1e6 *. crc_secs /. float_of_int crcs))
      ],
    [ ("fault_major_words_per_miss_lt_1", major < 1.) ] )

(* The hit path: pin/unpin pairs over a full 200-frame pool of 2 KB
   pages, cycling through every resident page, so each pair finds its
   page in the page table, takes it off the ring and puts it back at the
   MRU end. The first pass counts minor words, the second is timed. *)
let hit () =
  let capacity = 200 and pairs = 1_000_000 in
  let dev = Storage.Block_device.create ~block_size:2048 () in
  let pool = Storage.Buffer_pool.create ~capacity dev in
  for _ = 1 to capacity do
    ignore (Storage.Buffer_pool.alloc pool)
  done;
  let pass () =
    for i = 0 to pairs - 1 do
      let page = i mod capacity in
      ignore (Storage.Buffer_pool.pin pool page);
      Storage.Buffer_pool.unpin pool page ~dirty:false
    done
  in
  let w0 = Gc.minor_words () in
  pass ();
  let words = (Gc.minor_words () -. w0) /. float_of_int pairs in
  let (), secs = Measure.wall pass in
  let misses =
    (Storage.Buffer_pool.Stats.get pool).Storage.Buffer_pool.Stats.misses
  in
  ( R.Obj
      [ ("capacity", R.Int capacity); ("block_size", R.Int 2048);
        ("pairs", R.Int pairs); ("misses", R.Int misses);
        ("ns_per_pair", R.Float (1e9 *. secs /. float_of_int pairs));
        ("minor_words_per_pair", R.Float words) ],
    [ ("hit_minor_words_per_pair_eq_0", words = 0. && misses = 0) ] )

let storage ~tiny =
  let eviction = eviction ~tiny in
  let capacity = if tiny then 32 else 200 in
  let sweep = hit_rate ~tiny ~capacity in
  let group_commit = group_commit ~tiny in
  let fault, fault_checks = fault () in
  let hit, hit_checks = hit () in
  ( R.Obj
      [ ("eviction", R.List eviction);
        ("hit_rate",
         R.Obj [ ("capacity", R.Int capacity); ("sweep", R.List sweep) ]);
        ("group_commit", R.List group_commit); ("fault", fault);
        ("hit", hit) ],
    fault_checks @ hit_checks )

(* ---- explain: the Sec. 5 cost model vs cold-cache reality ----

   Per query, predict physical I/O and rows with the estimator EXPLAIN
   prints (and the planner chooses by), and the result size with the
   statistics' interval-identity estimate, then measure them against a
   cold cache, and report the relative-error distributions. One query
   per distribution is also pushed through the SQL front end — transient
   leftNodes/rightNodes collections plus the Fig. 9 UNION ALL — under
   EXPLAIN ANALYZE, tying the engine's estimator to the same ground
   truth. *)

let err_stats errs =
  let mean, p50, p90, mx =
    if Array.length errs = 0 then (0., 0., 0., 0.)
    else
      ( Array.fold_left ( +. ) 0. errs /. float_of_int (Array.length errs),
        Measure.percentile errs 0.5,
        Measure.percentile errs 0.9,
        Array.fold_left Float.max 0. errs )
  in
  R.Obj
    [ ("mean", R.Float mean); ("p50", R.Float p50); ("p90", R.Float p90);
      ("max", R.Float mx) ]

let fig9_sql =
  "EXPLAIN ANALYZE \
   SELECT id FROM intervals i, leftNodes lft \
   WHERE i.node BETWEEN lft.min AND lft.max AND i.upper >= :qlow \
   UNION ALL \
   SELECT id FROM intervals i, rightNodes rgt \
   WHERE i.node = rgt.node AND i.lower <= :qup"

(* Bind the node lists of [q] as the transient leftNodes/rightNodes
   collections of the Fig. 9 statement. *)
let set_node_lists session tree q =
  let nl = Ritree.Ri_tree.node_lists tree q in
  Sqlfront.Engine.set_collection session "leftNodes" ~columns:[ "min"; "max" ]
    (List.map (fun (a, b) -> [| a; b |]) nl.Ritree.Ri_tree.left_nodes);
  Sqlfront.Engine.set_collection session "rightNodes" ~columns:[ "node" ]
    (List.map (fun v -> [| v |]) nl.Ritree.Ri_tree.right_nodes)

let explain_sel = 1.0

let explain_kind ~tiny kind =
  let n = if tiny then 2_000 else 10_000 in
  let qcount = if tiny then 10 else 50 in
  let data = Dist.generate ~seed kind ~n ~d:2000 in
  let db, tree = build_tree data in
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let queries =
    Workload.Query_gen.queries ~seed ~data ~count:qcount (explain_sel /. 100.)
  in
  let rel_err pred actual =
    Float.abs (pred -. float_of_int actual) /. float_of_int (max 1 actual)
  in
  let io_errs = Array.make (Array.length queries) 0. in
  let rows_errs = Array.make (Array.length queries) 0. in
  let explain_rows_errs = Array.make (Array.length queries) 0. in
  let pred_io_total = ref 0. and actual_io_total = ref 0 in
  let pred_rows_total = ref 0 and actual_rows_total = ref 0 in
  Array.iteri
    (fun i q ->
      (* the plan measured below: no statistics, so the two-branch plan *)
      let c = Exec.Planner.plan_intersection ~proj:Exec.Planner.Ids tree q in
      let ests =
        Exec.Estimate.branches ~stats c.Exec.Ir.ctx
          c.Exec.Ir.plan.Exec.Ir.branches
      in
      let sum f = List.fold_left (fun a e -> a +. f e) 0. ests in
      let pred_io = sum (fun e -> e.Exec.Estimate.total_io) in
      let explain_rows = sum (fun e -> e.Exec.Estimate.out_rows) in
      let pred_rows = Ritree.Cost_model.Stats.estimate_result_size stats q in
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      let ids, io =
        Measure.io db (fun () -> Exec.Planner.intersecting_ids tree q)
      in
      let actual_rows = List.length ids in
      io_errs.(i) <- rel_err pred_io io;
      rows_errs.(i) <- rel_err (float_of_int pred_rows) actual_rows;
      explain_rows_errs.(i) <- rel_err explain_rows actual_rows;
      pred_io_total := !pred_io_total +. pred_io;
      actual_io_total := !actual_io_total + io;
      pred_rows_total := !pred_rows_total + pred_rows;
      actual_rows_total := !actual_rows_total + actual_rows)
    queries;
  (* Fig. 9 through the SQL front end, under EXPLAIN ANALYZE. *)
  let sql_explain =
    if Array.length queries = 0 then "(no queries)"
    else begin
      let q = queries.(0) in
      let session = Sqlfront.Engine.session db in
      set_node_lists session tree q;
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      match
        Sqlfront.Engine.exec
          ~binds:
            [ ("qlow", Interval.Ivl.lower q); ("qup", Interval.Ivl.upper q) ]
          session fig9_sql
      with
      | Sqlfront.Engine.Done text -> text
      | Sqlfront.Engine.Rows _ -> "(unexpected rows)"
    end
  in
  R.Obj
    [ ("kind", R.String (Dist.kind_to_string kind)); ("n", R.Int n);
      ("queries", R.Int (Array.length queries));
      ("predicted_io_total", R.Float !pred_io_total);
      ("actual_io_total", R.Int !actual_io_total);
      ("predicted_rows_total", R.Int !pred_rows_total);
      ("actual_rows_total", R.Int !actual_rows_total);
      ("io_rel_err", err_stats io_errs);
      ("rows_rel_err", err_stats rows_errs);
      ("explain_rows_rel_err", err_stats explain_rows_errs);
      ("explain_analyze", R.String sql_explain) ]

let explain ~tiny =
  ( R.Obj
      [ ("selectivity_pct", R.Float explain_sel);
        ("distributions", R.List (List.map (explain_kind ~tiny) kinds)) ],
    [] )

(* ---- plan: plan-cache throughput and access-path win rates ---- *)

let fig9_host =
  "SELECT id FROM intervals i, leftNodes lft WHERE i.node BETWEEN lft.min \
   AND lft.max AND i.upper >= :qlow UNION ALL SELECT id FROM intervals i, \
   rightNodes rgt WHERE i.node = rgt.node AND i.lower <= :qup"

let fig9_literal q =
  Printf.sprintf
    "SELECT id FROM intervals i, leftNodes lft WHERE i.node BETWEEN lft.min \
     AND lft.max AND i.upper >= %d UNION ALL SELECT id FROM intervals i, \
     rightNodes rgt WHERE i.node = rgt.node AND i.lower <= %d"
    (Interval.Ivl.lower q) (Interval.Ivl.upper q)

(* A statement whose execution is trivial, so its throughput is bounded
   by parse+plan: the regime where the plan cache pays. *)
let light_sql =
  "SELECT node FROM rightNodes WHERE node = -1 UNION ALL SELECT node FROM \
   rightNodes WHERE node = -2 UNION ALL SELECT node FROM rightNodes WHERE \
   node = -3"

(* Statements per second, best of three timed rounds after a warm-up. *)
let stmts_per_sec reps f =
  f ();
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  float_of_int reps /. Float.max 1e-9 !best

let plan_throughput ~tiny =
  let n = if tiny then 2_000 else 10_000 in
  let data = Dist.generate ~seed Dist.D1 ~n ~d:2000 in
  let db, tree = build_tree data in
  let q = (Workload.Query_gen.queries ~seed ~data ~count:1 0.001).(0) in
  let setup s =
    set_node_lists s tree q;
    s
  in
  let cached = setup (Sqlfront.Engine.session db) in
  let reps = if tiny then 300 else 2_000 in
  let sql = fig9_literal q in
  let run text () = ignore (Sqlfront.Engine.query cached text) in
  (* a script never consults the plan cache: it parses and plans each
     time *)
  let run_uncached text () = Sqlfront.Engine.exec_script cached text ignore in
  let prepared = Sqlfront.Engine.prepare cached fig9_host in
  let args = [ Interval.Ivl.lower q; Interval.Ivl.upper q ] in
  let prepared_sps =
    stmts_per_sec reps (fun () ->
        ignore (Sqlfront.Engine.execute_prepared cached prepared args))
  in
  let fig9_cached = stmts_per_sec reps (run sql) in
  let fig9_uncached = stmts_per_sec reps (run_uncached sql) in
  let light_cached = stmts_per_sec reps (run light_sql) in
  let light_uncached = stmts_per_sec reps (run_uncached light_sql) in
  R.Obj
    [ ("light_uncached_sps", R.Float light_uncached);
      ("light_cached_sps", R.Float light_cached);
      ("light_cache_ratio",
       R.Float (light_cached /. Float.max 1.0 light_uncached));
      ("fig9_uncached_sps", R.Float fig9_uncached);
      ("fig9_cached_sps", R.Float fig9_cached);
      ("fig9_cache_ratio", R.Float (fig9_cached /. Float.max 1.0 fig9_uncached));
      ("execute_prepared_sps", R.Float prepared_sps) ]

(* The planner's access path for each query of a mixed-selectivity
   batch, scored against the cold-cache I/O of every candidate path. *)
let plan_kind ~tiny kind =
  let n = if tiny then 2_000 else 10_000 in
  let data = Dist.generate ~seed kind ~n ~d:2000 in
  let db, tree = build_tree data in
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let per_sel = if tiny then 3 else 10 in
  let queries =
    List.concat_map
      (fun sel ->
        Array.to_list
          (Workload.Query_gen.queries ~seed ~data ~count:per_sel sel))
      [ 0.001; 0.01; 0.1 ]
    @ Array.to_list (Workload.Query_gen.point_queries ~seed ~count:per_sel ())
  in
  let wins = ref 0 and two = ref 0 and seq = ref 0 in
  List.iter
    (fun q ->
      let io p =
        cold db (fun () -> Exec.Planner.intersecting_ids ~path:p tree q)
      in
      let candidates =
        [ (Exec.Planner.Two_branch, io Exec.Planner.Two_branch);
          (Exec.Planner.Seq, io Exec.Planner.Seq) ]
      in
      let best = List.fold_left (fun a (_, c) -> min a c) max_int candidates in
      let chosen = Exec.Planner.choose tree stats q in
      (match chosen with
      | Exec.Planner.Two_branch -> incr two
      | Exec.Planner.Seq -> incr seq
      | Exec.Planner.Mem_path -> () (* no hot tier in this bench *));
      let chosen_io =
        match List.assoc_opt chosen candidates with
        | Some c -> c
        | None -> io chosen
      in
      if chosen_io <= best then incr wins)
    queries;
  let nq = List.length queries in
  R.Obj
    [ ("kind", R.String (Dist.kind_to_string kind)); ("queries", R.Int nq);
      ("planner_wins", R.Int !wins);
      ("win_rate", R.Float (float_of_int !wins /. float_of_int (max 1 nq)));
      ("choices",
       R.Obj
         [ ("two_branch", R.Int !two); ("seq_scan", R.Int !seq) ]) ]

let plan ~tiny =
  let throughput = plan_throughput ~tiny in
  ( R.Obj
      [ ("throughput", throughput);
        ("distributions", R.List (List.map (plan_kind ~tiny) kinds)) ],
    [] )

(* ---- memindex: the main-memory hot tier ----

   Three measurements per Table-1 distribution: query throughput of
   HINT (the hot tier's engine) and the Edelsbrunner interval tree on
   stabbing and intersection batches; the same batch against the disk
   RI-tree with a cold and a warm buffer pool (the memory/disk
   crossover the hot tier exploits); and the cost model's tier choice
   scored against exhaustive per-tier cold-cache I/O, the [plan]
   methodology extended with the memory tier. *)

(* Repeat the whole batch until ~50 ms elapsed: single-query timings on
   main-memory structures are far below timer resolution. *)
let batch_qps queries f =
  let n = Array.length queries in
  if n = 0 then 0.0
  else begin
    Array.iter (fun q -> ignore (f q)) queries;
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while elapsed () < 0.05 do
      Array.iter (fun q -> ignore (f q)) queries;
      incr reps
    done;
    float_of_int (!reps * n) /. elapsed ()
  end

(* Disk timing excludes the cache-dropping bookkeeping between
   queries. *)
let cold_disk_qps db queries f =
  let total = ref 0.0 in
  Array.iter
    (fun q ->
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      let t0 = Unix.gettimeofday () in
      ignore (f q);
      total := !total +. (Unix.gettimeofday () -. t0))
    queries;
  float_of_int (Array.length queries) /. Float.max 1e-9 !total

let memindex_kind ~tiny kind =
  let n = if tiny then 2_000 else 10_000 in
  let data = Dist.generate ~seed kind ~n ~d:2000 in
  let dlo = Array.fold_left (fun a i -> min a (Interval.Ivl.lower i)) max_int data in
  let dhi = Array.fold_left (fun a i -> max a (Interval.Ivl.upper i)) min_int data in
  (* both main-memory structures over the same rows *)
  let it = Memindex.Interval_tree.create ~lo:dlo ~hi:dhi in
  Array.iteri (fun id ivl -> ignore (Memindex.Interval_tree.insert ~id it ivl)) data;
  let hint =
    Memindex.Hint.create ~lo:dlo ~hi:dhi
      ~m:(Memindex.Hint.suggested_grid ~rows:n) ()
  in
  Array.iteri (fun id ivl -> ignore (Memindex.Hint.insert ~id hint ivl)) data;
  (* the disk RI-tree over the same rows *)
  let db, tree = build_tree data in
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let qcount = if tiny then 10 else 40 in
  let inter_qs = Workload.Query_gen.queries ~seed ~data ~count:qcount 0.01 in
  let stab_qs = Workload.Query_gen.point_queries ~seed ~count:qcount () in
  let stab =
    [ ("hint", batch_qps stab_qs (fun q ->
           Memindex.Hint.stabbing_ids hint (Interval.Ivl.lower q)));
      ("interval_tree", batch_qps stab_qs (fun q ->
           Memindex.Interval_tree.stabbing_ids it (Interval.Ivl.lower q))) ]
  in
  let inter =
    [ ("hint", batch_qps inter_qs (Memindex.Hint.intersecting_ids hint));
      ("interval_tree",
       batch_qps inter_qs (Memindex.Interval_tree.intersecting_ids it)) ]
  in
  let cold_qps =
    cold_disk_qps db inter_qs (fun q -> Exec.Planner.intersecting_ids tree q)
  in
  let warm_qps =
    batch_qps inter_qs (fun q -> Exec.Planner.intersecting_ids tree q)
  in
  (* Tier choice vs exhaustive per-tier cold-cache I/O: the memory tier
     is a real Memtier residency (budget far above the collection), the
     disk paths are the [plan] candidates. *)
  let memtier = Exec.Memtier.create ~budget_mb:256 in
  let mem = Exec.Memtier.acquire memtier tree in
  let wins = ref 0 and mem_chosen = ref 0 in
  Array.iter
    (fun q ->
      let disk_io p =
        cold db (fun () -> Exec.Planner.intersecting_ids ~path:p tree q)
      in
      let mem_io =
        cold db (fun () -> Exec.Planner.intersecting_ids ?mem ~path:Exec.Planner.Mem_path tree q)
      in
      let candidates =
        [ (Exec.Planner.Mem_path, mem_io);
          (Exec.Planner.Two_branch, disk_io Exec.Planner.Two_branch);
          (Exec.Planner.Seq, disk_io Exec.Planner.Seq) ]
      in
      let best = List.fold_left (fun a (_, c) -> min a c) max_int candidates in
      let chosen = Exec.Planner.choose ?mem tree stats q in
      if chosen = Exec.Planner.Mem_path then incr mem_chosen;
      let chosen_io =
        match List.assoc_opt chosen candidates with
        | Some c -> c
        | None -> disk_io chosen
      in
      if chosen_io <= best then incr wins)
    inter_qs;
  let qps l = R.Obj (List.map (fun (k, v) -> (k, R.Float v)) l) in
  let hint_inter = List.assoc "hint" inter in
  let nq = Array.length inter_qs in
  R.Obj
    [ ("kind", R.String (Dist.kind_to_string kind)); ("n", R.Int n);
      ("stabbing_qps", qps stab); ("intersection_qps", qps inter);
      ("disk_cold_qps", R.Float cold_qps); ("disk_warm_qps", R.Float warm_qps);
      ("hint_vs_cold_disk", R.Float (hint_inter /. Float.max 1e-9 cold_qps));
      ("hint_vs_warm_disk", R.Float (hint_inter /. Float.max 1e-9 warm_qps));
      ("tier",
       R.Obj
         [ ("queries", R.Int nq); ("wins", R.Int !wins);
           ("win_rate", R.Float (float_of_int !wins /. float_of_int (max 1 nq)));
           ("mem_chosen", R.Int !mem_chosen) ]) ]

let memindex ~tiny =
  (R.Obj [ ("distributions", R.List (List.map (memindex_kind ~tiny) kinds)) ], [])
