(* The per-layer metrics of a traced run: server-side counters and
   histograms diffed across the window, and the in-process replay's span
   self times, counter deltas and timed layer calls. Every name is
   emitted for every workload; a metric that does not apply is 0 and is
   listed under "absent" with the reason. *)

module P = Server.Protocol

let read_ops = [ "intersect"; "allen"; "sql"; "execute" ]
let disp_ops = read_ops @ [ "insert"; "begin"; "commit" ]

let hist_pairs (live : Live.result) roles =
  List.filter_map
    (fun (role, after) ->
      if List.mem role roles then
        Some (List.assoc role live.before.Cluster.metrics, after)
      else None)
    live.after.Cluster.metrics

let sum_delta (live : Live.result) roles key =
  List.fold_left
    (fun a (before, after) -> a +. Util.delta ~before ~after key)
    0. (hist_pairs live roles)

let rss_of rss role =
  float_of_int (Option.value ~default:0 (List.assoc_opt role rss)) /. 1024.

(* Every per-layer metric: name, unit, and which direction is better. *)
let defs =
  let us = "us" and c = "count" in
  List.map (fun (n, u) -> (n, u, "lower"))
    ([ ("wire.resp_bytes_per_query", "bytes"); ("wire.decode_us_per_query", us);
       ("wire.outside_exec_us_p50", us) ]
    @ List.concat_map
        (fun op ->
          [ ("dispatcher.exec_us_p50." ^ op, us); ("dispatcher.exec_us_p99." ^ op, us) ])
        disp_ops
    @ [ ("dispatcher.queue_depth_peak", c); ("dispatcher.overload_rejections", c);
        ("session.self_us_p50", us); ("sql.parse_us_p50", us);
        ("sql.parses_per_stmt", c); ("sql.plans_per_stmt", c);
        ("exec.plan_us_p50", us); ("exec.run_us_p50", us);
        ("exec.rows_per_query", c); ("exec.io_est_rel_error_p50", "ratio");
        ("core.node_lists_us_p50", us); ("core.left_nodes_per_query", c);
        ("core.right_nodes_per_query", c); ("core.left_branch_us_p50", us);
        ("core.right_branch_us_p50", us); ("btree.descents_per_query", c);
        ("btree.descend_us_p50", us); ("pool.misses_per_query", c);
        ("pool.evictions_per_query", c); ("pool.fault_us_p50", us);
        ("device.reads_per_query", c); ("device.writes_per_txn", c);
        ("journal.forces_per_txn", c); ("journal.bytes_per_txn", "bytes");
        ("journal.bytes_per_user_byte", "ratio"); ("journal.force_us_p50", us);
        ("txn.conflicts", c); ("txn.aborts", c); ("setup.preload_s", "s");
        ("setup.journal_bytes", "bytes"); ("setup.rss_kb_per_interval", "kB");
        ("router.fanout_per_query", c);
        ("router.leg_ms_p50", "ms"); ("router.leg_ms_p99", "ms");
        ("router.overhead_ms_p50", "ms"); ("router.merge_us_per_query", us);
        ("router.dup_rows_per_query", c); ("router.partials", c);
        ("repl.commit_ms_p50.standby", "ms"); ("repl.commit_ms_p50.no_standby", "ms");
        ("repl.lag_bytes_max", "bytes"); ("repl.catchup_s", "s") ]
    @ List.map (fun r -> ("rss_mb." ^ r, "MB")) [ "single"; "router"; "shard0"; "shard1"; "standby" ]
    @ List.map (fun l -> (Printf.sprintf "selftime.%s_us_per_query" l, us)) Replay.layers
    @ [ ("trace.handle_us_p50", us); ("trace.unattributed_us", us);
        ("trace.overhead_pct", "%"); ("replay.reads", c); ("replay.writes", c);
        ("replay.io_per_query", c); ("replay.count_mismatch", c);
        ("live.query_p90_ms", "ms");
        ("live.query_p99_ms", "ms");
        ("live.txn_p50_ms", "ms");
        ("live.txn_p95_ms", "ms"); ("live.io_per_query", c);
        ("live.error_rate", "ratio"); ("size.relation_pages", c);
        ("size.window_reads_per_query", c) ])
  @ List.map (fun (n, u) -> (n, u, "higher"))
      [ ("sql.plan_cache_hit_ratio", "ratio"); ("exec.two_branch_share", "ratio");
        ("pool.hit_rate", "ratio"); ("txn.commits", "count");
        ("live.query_samples", "count"); ("live.txn_samples", "count");
        ("size.pool_pages", "count") ]

let metrics ~(spec : Spec.t) ~(cluster : Cluster.t) ~(live : Live.result)
    ~rss ~primaries ~query_p90 ~query_p99 ~txn_p50 ~txn_p95 ~io_per_query
    ~error_rate ~window_reads ~(replay : Replay.t) =
  let out = ref [] and absent = ref [] in
  let m name value =
    out := (name, (if Float.is_finite value then value else 0.)) :: !out
  in
  let na names why =
    List.iter (fun n -> m n 0.) names;
    absent := (names, why) :: !absent
  in
  let routed = spec.topology = Spec.Routed in
  let hot = spec.mix = Spec.Hot_mix in
  let c = replay.traced in
  let per_read x = Util.ratio x (float_of_int c.read_n) in
  let txn_ops = List.length (List.filter (fun op -> not (Spec.is_read op)) replay.ops) in
  let per_txn x = Util.ratio x (float_of_int txn_ops) in
  let p50 l = Util.pct_list l 0.5 in
  let reads = List.concat_map (fun cl -> cl.Live.reads) live.clients in
  (* client read p50 over the whole window, the base the server-side
     histograms share (they cannot be cut into slices) *)
  let window_p50 = p50 (List.map (fun (_, ms, _) -> ms) reads) in
  (* the process clients talk to: the router, or the single server *)
  let front = if routed then [ "router" ] else primaries in
  let front_pairs = hist_pairs live front in
  let back_pairs = hist_pairs live primaries in
  (* ---- wire ---- *)
  m "wire.resp_bytes_per_query" (per_read (float_of_int c.resp_bytes));
  m "wire.decode_us_per_query" (per_read c.decode_us);
  let outside =
    (* client p50 minus serving-process exec p50, weighted by op count *)
    let parts =
      List.filter_map
        (fun op ->
          let lat = List.filter_map (fun (k, ms, _) -> if k = op then Some ms else None) reads in
          let h = Util.op_hist front_pairs [ op ] in
          if lat = [] || Util.hist_count h = 0. then None
          else
            Some
              ( float_of_int (List.length lat),
                (Util.pct_list lat 0.5 *. 1000.) -. Util.hist_percentile h 0.5 ))
        read_ops
    in
    Util.ratio
      (List.fold_left (fun a (w, v) -> a +. (w *. v)) 0. parts)
      (List.fold_left (fun a (w, _) -> a +. w) 0. parts)
  in
  m "wire.outside_exec_us_p50" outside;
  (* ---- dispatcher ---- *)
  List.iter
    (fun op ->
      let h = Util.op_hist back_pairs [ op ] in
      m ("dispatcher.exec_us_p50." ^ op) (Util.hist_percentile h 0.5);
      m ("dispatcher.exec_us_p99." ^ op) (Util.hist_percentile h 0.99))
    disp_ops;
  m "dispatcher.queue_depth_peak"
    (List.fold_left
       (fun a (role, (st : P.stats)) ->
         if List.mem role primaries then Float.max a (float_of_int st.peak_queue_depth) else a)
       0. live.after.Cluster.stats);
  m "dispatcher.overload_rejections"
    (sum_delta live (front @ primaries) "rikit_overload_rejections_total");
  (* ---- session, sql, exec, core (replay) ---- *)
  m "session.self_us_p50" (p50 c.typed_self_us);
  if hot then begin
    m "sql.parse_us_p50" (p50 c.parse_us);
    m "sql.plan_cache_hit_ratio" (Util.ratio_i c.cache_hits c.cache_lookups);
    m "sql.parses_per_stmt" (Util.ratio_i c.parses c.stmts);
    m "sql.plans_per_stmt" (Util.ratio_i c.plans c.stmts)
  end
  else
    na
      [ "sql.parse_us_p50"; "sql.plan_cache_hit_ratio"; "sql.parses_per_stmt";
        "sql.plans_per_stmt" ]
      "no SQL statements in this op mix";
  m "exec.plan_us_p50" (p50 c.plan_us);
  m "exec.run_us_p50" (p50 c.run_us);
  m "exec.rows_per_query" (per_read (float_of_int c.rows));
  m "exec.two_branch_share" (Util.ratio_i c.two_branch c.intersects);
  m "exec.io_est_rel_error_p50" (p50 c.est_err);
  m "core.node_lists_us_p50" (p50 c.nl_us);
  m "core.left_nodes_per_query" (Util.ratio_i c.left_nodes c.intersects);
  m "core.right_nodes_per_query" (Util.ratio_i c.right_nodes c.intersects);
  m "core.left_branch_us_p50" (p50 c.left_us);
  m "core.right_branch_us_p50" (p50 c.right_us);
  (* ---- btree, storage, journal (replay spans and counters) ---- *)
  m "btree.descents_per_query" (per_read (float_of_int c.descents));
  m "btree.descend_us_p50" (p50 c.descend_us);
  let r = c.read_ctr and t = c.txn_ctr in
  m "pool.hit_rate" (Util.ratio_i r.pool_hits (r.pool_hits + r.pool_misses));
  m "pool.misses_per_query" (per_read (float_of_int r.pool_misses));
  m "pool.evictions_per_query" (per_read (float_of_int r.pool_evictions));
  m "pool.fault_us_p50" (p50 c.fault_us);
  m "device.reads_per_query" (per_read (float_of_int r.reads));
  let user_bytes = float_of_int (24 * Spec.inserts_per_txn) in
  if txn_ops > 0 then begin
    m "device.writes_per_txn" (per_txn (float_of_int t.writes));
    m "journal.forces_per_txn" (per_txn (float_of_int t.journal_forces));
    m "journal.bytes_per_txn" (per_txn (float_of_int t.journal_bytes));
    m "journal.bytes_per_user_byte"
      (Util.ratio (per_txn (float_of_int t.journal_bytes)) user_bytes);
    m "journal.force_us_p50" (p50 c.force_us)
  end
  else
    na
      [ "device.writes_per_txn"; "journal.forces_per_txn"; "journal.bytes_per_txn";
        "journal.bytes_per_user_byte"; "journal.force_us_p50" ]
      "read-only workload";
  m "txn.commits" (sum_delta live primaries "rikit_txn_commits_total");
  m "txn.conflicts" (sum_delta live primaries "rikit_txn_conflicts_total");
  m "txn.aborts" (sum_delta live primaries "rikit_txn_aborts_total");
  (* ---- setup ---- *)
  let prim = Cluster.primaries cluster in
  let rows = List.fold_left (fun a p -> a +. Cluster.info p "rows") 0. prim in
  m "setup.preload_s"
    (List.fold_left (fun a p -> Float.max a (Cluster.info p "preload_s")) 0. prim);
  m "setup.journal_bytes"
    (List.fold_left (fun a p -> a +. Cluster.info p "journal_bytes") 0. prim);
  m "setup.rss_kb_per_interval"
    (Util.ratio
       (float_of_int
          (List.fold_left
             (fun a (role, kb) -> if List.mem role primaries then a + kb else a)
             0 cluster.rss_setup_kb))
       rows);
  (* ---- router and replication ---- *)
  if routed then begin
    let fan = List.concat_map (fun cl -> cl.Live.fanouts) live.clients in
    m "router.fanout_per_query" (Util.mean (List.map float_of_int fan));
    let legs = Util.op_hist front_pairs [ "shard:0"; "shard:1" ] in
    let leg50 = Util.hist_percentile legs 0.5 /. 1000. in
    m "router.leg_ms_p50" leg50;
    m "router.leg_ms_p99" (Util.hist_percentile legs 0.99 /. 1000.);
    m "router.overhead_ms_p50" (window_p50 -. leg50);
    m "router.merge_us_per_query" (Util.ratio c.merge_us (float_of_int c.merged_reads));
    m "router.dup_rows_per_query" (Util.ratio_i c.dup_rows c.merged_reads);
    m "router.partials" (sum_delta live front "rikit_router_partial_results_total");
    let commits = List.concat_map (fun cl -> cl.Live.commits) live.clients in
    let only s = List.filter_map (fun (t, ms) -> if t = [ s ] then Some ms else None) commits in
    m "repl.commit_ms_p50.standby" (p50 (only 0));
    m "repl.commit_ms_p50.no_standby" (p50 (only 1));
    m "repl.lag_bytes_max"
      (float_of_int (max live.before.Cluster.lag_bytes live.after.Cluster.lag_bytes));
    m "repl.catchup_s" cluster.catchup_s
  end
  else
    na
      [ "router.fanout_per_query"; "router.leg_ms_p50"; "router.leg_ms_p99";
        "router.overhead_ms_p50"; "router.merge_us_per_query";
        "router.dup_rows_per_query"; "router.partials"; "repl.commit_ms_p50.standby";
        "repl.commit_ms_p50.no_standby"; "repl.lag_bytes_max"; "repl.catchup_s" ]
      "no router or standby in this topology";
  (* ---- memory ---- *)
  List.iter
    (fun role -> m ("rss_mb." ^ role) (rss_of rss role))
    [ "single"; "router"; "shard0"; "shard1"; "standby" ];
  (* ---- self time per layer, attribution, overhead ---- *)
  List.iter
    (fun l ->
      m (Printf.sprintf "selftime.%s_us_per_query" l)
        (per_read (Option.value ~default:0. (List.assoc_opt l c.self_by_layer))))
    Replay.layers;
  let handle50 = p50 c.handle_us in
  m "trace.handle_us_p50" handle50;
  m "trace.unattributed_us" ((window_p50 *. 1000.) -. outside -. handle50);
  (* both passes start from a fresh preload, so the difference is what
     tracing costs *)
  m "trace.overhead_pct"
    (100. *. Util.ratio (c.handle_s -. replay.plain.handle_s) replay.plain.handle_s);
  (* ---- exact replay counts ---- *)
  let a = replay.plain in
  let counts_match = Replay.counts_match replay in
  m "replay.reads" (float_of_int a.reads);
  m "replay.writes" (float_of_int a.writes);
  m "replay.io_per_query"
    (Util.ratio_i (List.fold_left ( + ) 0 a.read_io) a.read_requests);
  m "replay.count_mismatch" (if counts_match then 0. else 1.);
  (* ---- end-to-end numbers of this run's live window ---- *)
  let txns = List.concat_map (fun cl -> cl.Live.txns) live.clients in
  m "live.query_samples" (float_of_int (List.length reads));
  m "live.txn_samples" (float_of_int (List.length txns));
  m "live.query_p90_ms" query_p90;
  m "live.query_p99_ms" query_p99;
  if txns <> [] then begin
    m "live.txn_p50_ms" txn_p50;
    m "live.txn_p95_ms" txn_p95
  end
  else na [ "live.txn_p50_ms"; "live.txn_p95_ms" ] "read-only workload";
  m "live.io_per_query" io_per_query;
  m "live.error_rate" error_rate;
  m "size.relation_pages"
    (List.fold_left (fun a p -> a +. Cluster.info p "relation_pages") 0. prim);
  m "size.pool_pages"
    (match prim with p :: _ -> Cluster.info p "pool_pages" | [] -> 0.);
  m "size.window_reads_per_query" (Util.ratio_i window_reads (List.length reads));
  List.iter
    (fun (names, why) -> Printf.printf "absent: %s (%s)\n" (String.concat ", " names) why)
    (List.rev !absent);
  if not counts_match then
    Printf.printf "FLAG: replay I/O counts differ between the plain and the traced \
                   replay (reads %d/%d, writes %d/%d)\n" a.reads c.reads a.writes c.writes;
  (* in declaration order, each with its declared unit *)
  List.map
    (fun (n, u, _) ->
      match List.assoc_opt n !out with
      | Some v -> (n, v, u)
      | None -> invalid_arg ("per-layer metric not computed: " ^ n))
    defs
