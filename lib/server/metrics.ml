(* Prometheus text exposition (version 0.0.4). Hand-rolled: the format
   is lines of `name{labels} value`, `# HELP` / `# TYPE` headers, and a
   cumulative `_bucket{le=...}` series per histogram — nothing that
   warrants a dependency. *)

let family b ~name ~help ~typ =
  Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name typ

let gauge b ~name ~help v =
  family b ~name ~help ~typ:"gauge";
  Printf.bprintf b "%s %s\n" name v

let counter b ~name ~help v =
  family b ~name ~help ~typ:"counter";
  Printf.bprintf b "%s %s\n" name v

let int_ v = string_of_int v
let float_ v = Printf.sprintf "%.6g" v

let op_histograms b (ops : Server_stats.op_view list) =
  family b ~name:"rikit_op_latency_us"
    ~help:"Request latency by wire op, microseconds." ~typ:"histogram";
  List.iter
    (fun (o : Server_stats.op_view) ->
      let acc = ref 0 in
      Array.iteri
        (fun i n ->
          acc := !acc + n;
          let le =
            if i = Server_stats.buckets - 1 then "+Inf"
            else string_of_int (Server_stats.bucket_limit_us i)
          in
          Printf.bprintf b "rikit_op_latency_us_bucket{op=%S,le=%S} %d\n"
            o.v_op le !acc)
        o.v_hist;
      Printf.bprintf b "rikit_op_latency_us_sum{op=%S} %d\n" o.v_op o.v_total_us;
      Printf.bprintf b "rikit_op_latency_us_count{op=%S} %d\n" o.v_op o.v_count)
    ops;
  family b ~name:"rikit_op_io_total"
    ~help:"Physical blocks read+written servicing each wire op."
    ~typ:"counter";
  List.iter
    (fun (o : Server_stats.op_view) ->
      Printf.bprintf b "rikit_op_io_total{op=%S} %d\n" o.v_op o.v_total_io)
    ops

(* The OCaml runtime's allocation and collection totals: how much of
   what a request allocates survives a minor collection, and how often
   the major GC runs, on a live server. *)
let gc_families b =
  let g = Gc.quick_stat () in
  let words v = Printf.sprintf "%.0f" v in
  counter b ~name:"rikit_gc_minor_words_total"
    ~help:"Words allocated in the minor heap." (words g.Gc.minor_words);
  counter b ~name:"rikit_gc_promoted_words_total"
    ~help:"Words promoted from the minor to the major heap."
    (words g.Gc.promoted_words);
  counter b ~name:"rikit_gc_major_words_total"
    ~help:"Words allocated in the major heap, promoted words included."
    (words g.Gc.major_words);
  counter b ~name:"rikit_gc_major_collections_total"
    ~help:"Major GC cycles completed." (int_ g.Gc.major_collections);
  gauge b ~name:"rikit_gc_heap_words" ~help:"Size of the major heap, in words."
    (int_ g.Gc.heap_words)

type repl = {
  r_role : string;  (* "primary" | "replica" *)
  r_lag_bytes : int;
  r_applied_lsn : int;
  r_durable_lsn : int;
  r_subscribers : int;
}

let render ?repl ~now ~stats ~cat ~memtier ~txns () =
  let v = Server_stats.view stats in
  let pool = Relation.Catalog.pool cat in
  let ps = Storage.Buffer_pool.Stats.get pool in
  let ds = Storage.Block_device.Stats.get (Relation.Catalog.device cat) in
  let b = Buffer.create 4096 in
  gauge b ~name:"rikit_uptime_seconds" ~help:"Seconds since server start."
    (float_ (now -. v.v_started));
  gauge b ~name:"rikit_sessions" ~help:"Currently connected sessions."
    (int_ v.v_sessions);
  gauge b ~name:"rikit_sessions_peak" ~help:"Peak concurrent sessions."
    (int_ v.v_peak_sessions);
  counter b ~name:"rikit_requests_total" ~help:"Requests executed."
    (int_ v.v_total_requests);
  counter b ~name:"rikit_overload_rejections_total"
    ~help:"Connections or requests refused by admission control."
    (int_ v.v_overload_rejections);
  op_histograms b v.v_ops;
  counter b ~name:"rikit_pool_hits_total"
    ~help:"Buffer-pool pins satisfied from the cache." (int_ ps.hits);
  counter b ~name:"rikit_pool_misses_total"
    ~help:"Buffer-pool pins requiring a device read." (int_ ps.misses);
  counter b ~name:"rikit_pool_evictions_total" ~help:"Frames evicted."
    (int_ ps.evictions);
  gauge b ~name:"rikit_pool_hit_rate"
    ~help:"Fraction of pins served from the cache since start."
    (float_
       (if ps.logical_reads = 0 then 1.0
        else float_of_int ps.hits /. float_of_int ps.logical_reads));
  gauge b ~name:"rikit_pool_cached_pages" ~help:"Pages currently resident."
    (int_ (Storage.Buffer_pool.cached pool));
  gauge b ~name:"rikit_pool_pinned_frames"
    ~help:"Resident frames with at least one pin."
    (int_ (Storage.Buffer_pool.pinned_frames pool));
  counter b ~name:"rikit_plan_cache_hits_total"
    ~help:"SELECT statements answered from a plan cache (no parse, no plan)."
    (int_ (Exec.Plan_cache.global_hits ()));
  counter b ~name:"rikit_plan_cache_misses_total"
    ~help:"SELECT statements that had to be parsed and planned."
    (int_ (Exec.Plan_cache.global_misses ()));
  counter b ~name:"rikit_plan_cache_invalidations_total"
    ~help:"Plan-cache flushes (DDL or collection schema changes)."
    (int_ (Exec.Plan_cache.global_invalidations ()));
  gauge b ~name:"rikit_plan_cache_hit_rate"
    ~help:"Fraction of cacheable statements served from a plan cache."
    (float_ (Exec.Plan_cache.global_hit_rate ()));
  counter b ~name:"rikit_device_reads_total" ~help:"Physical block reads."
    (int_ ds.reads);
  counter b ~name:"rikit_device_writes_total" ~help:"Physical block writes."
    (int_ ds.writes);
  (match Relation.Catalog.journal cat with
  | None -> ()
  | Some j ->
      counter b ~name:"rikit_journal_forces_total"
        ~help:"Log forces (fsyncs); group commit amortizes these."
        (int_ (Storage.Journal.force_count j));
      counter b ~name:"rikit_journal_commits_total"
        ~help:"Commit markers written (one per group-commit batch)."
        (int_ (Storage.Journal.commit_count j));
      gauge b ~name:"rikit_journal_bytes"
        ~help:"Serialized journal size, forced plus pending."
        (int_ (Storage.Journal.durable_bytes j + Storage.Journal.unforced_bytes j)));
  let mt = Exec.Memtier.stats memtier in
  gauge b ~name:"rikit_hot_tier_budget_bytes"
    ~help:"Hot-tier byte budget (0 when the tier is disabled)."
    (int_ mt.Exec.Memtier.s_budget_bytes);
  gauge b ~name:"rikit_hot_tier_resident_bytes"
    ~help:"Bytes of RAM-resident HINT replicas."
    (int_ mt.Exec.Memtier.s_resident_bytes);
  gauge b ~name:"rikit_hot_tier_resident_collections"
    ~help:"Collections currently resident in the hot tier."
    (int_ mt.Exec.Memtier.s_resident);
  counter b ~name:"rikit_hot_tier_builds_total"
    ~help:"Hot-tier promotions (in-memory index builds)."
    (int_ mt.Exec.Memtier.s_builds);
  counter b ~name:"rikit_hot_tier_demotions_total"
    ~help:"Replicas dropped to fit the budget (LRU) or on request."
    (int_ mt.Exec.Memtier.s_demotions);
  counter b ~name:"rikit_hot_tier_invalidations_total"
    ~help:"Replicas dropped because the base table mutated."
    (int_ mt.Exec.Memtier.s_invalidations);
  counter b ~name:"rikit_hot_tier_probes_total"
    ~help:"Queries answered from a RAM-resident replica."
    (int_ mt.Exec.Memtier.s_probes);
  let tc = Relation.Txn.counters txns in
  counter b ~name:"rikit_txn_commits_total"
    ~help:"Transactions committed (write sets applied)."
    (int_ tc.Relation.Txn.c_commits);
  counter b ~name:"rikit_txn_aborts_total"
    ~help:"Transactions rolled back or aborted (write sets discarded)."
    (int_ tc.Relation.Txn.c_aborts);
  counter b ~name:"rikit_txn_conflicts_total"
    ~help:"Commits refused: a buffered write lost a first-committer race."
    (int_ tc.Relation.Txn.c_conflicts);
  gauge b ~name:"rikit_txn_active"
    ~help:"Transactions currently open (one per connected session)."
    (int_ tc.Relation.Txn.c_active);
  gauge b ~name:"rikit_txn_lsn" ~help:"Latest committed LSN."
    (int_ tc.Relation.Txn.c_lsn);
  gauge b ~name:"rikit_read_only"
    ~help:"1 when the server has degraded to read-only after corruption."
    (int_
       (match Relation.Catalog.degraded_reason cat with
       | Some _ -> 1
       | None -> 0));
  (match repl with
  | None -> ()
  | Some r ->
      gauge b ~name:"rikit_repl_role"
        ~help:"0 on a primary, 1 on a replica."
        (int_ (if r.r_role = "replica" then 1 else 0));
      gauge b ~name:"rikit_repl_lag_bytes"
        ~help:"Journal bytes durable on the primary but not yet applied \
               here (0 on a primary)."
        (int_ r.r_lag_bytes);
      gauge b ~name:"rikit_repl_applied_lsn"
        ~help:"Primary-stream byte offset applied locally (on a primary: \
               the durable log position itself)."
        (int_ r.r_applied_lsn);
      gauge b ~name:"rikit_repl_durable_lsn"
        ~help:"The primary's durable log position as last known."
        (int_ r.r_durable_lsn);
      gauge b ~name:"rikit_repl_subscribers"
        ~help:"Live replication subscribers (0 on a replica)."
        (int_ r.r_subscribers));
  gc_families b;
  Buffer.contents b

(* ---------------- router exposition ----------------

   The router holds no catalog, pool, or journal — its document is the
   request-side families plus per-shard fan-out health. Per-shard RPC
   latency rides the ordinary op histograms under op="shard:<i>" (the
   router records one sample per shard leg call), so one family serves
   both the client-facing ops and the fan-out legs. *)

type shard = {
  s_lo : int;
  s_hi : int;
  s_endpoints : (string * int) list;
  s_lsn : int;  (* highest commit LSN routed to this shard (RYW token) *)
  s_rpcs : int;
  s_errors : int;
}

let render_router ~now ~stats ~shards ~partials () =
  let v = Server_stats.view stats in
  let b = Buffer.create 4096 in
  gauge b ~name:"rikit_uptime_seconds" ~help:"Seconds since router start."
    (float_ (now -. v.v_started));
  gauge b ~name:"rikit_sessions" ~help:"Currently connected sessions."
    (int_ v.v_sessions);
  gauge b ~name:"rikit_sessions_peak" ~help:"Peak concurrent sessions."
    (int_ v.v_peak_sessions);
  counter b ~name:"rikit_requests_total" ~help:"Requests executed."
    (int_ v.v_total_requests);
  counter b ~name:"rikit_overload_rejections_total"
    ~help:"Connections refused by admission control."
    (int_ v.v_overload_rejections);
  op_histograms b v.v_ops;
  gauge b ~name:"rikit_shard_count" ~help:"Shards in the serving topology."
    (int_ (Array.length shards));
  family b ~name:"rikit_shard_range_lo"
    ~help:"Inclusive lower bound of each shard's interval-space range."
    ~typ:"gauge";
  Array.iteri
    (fun i s -> Printf.bprintf b "rikit_shard_range_lo{shard=\"%d\"} %d\n" i s.s_lo)
    shards;
  family b ~name:"rikit_shard_range_hi"
    ~help:"Inclusive upper bound of each shard's interval-space range."
    ~typ:"gauge";
  Array.iteri
    (fun i s -> Printf.bprintf b "rikit_shard_range_hi{shard=\"%d\"} %d\n" i s.s_hi)
    shards;
  family b ~name:"rikit_shard_endpoints"
    ~help:"Endpoints configured per shard (first is preferred)." ~typ:"gauge";
  Array.iteri
    (fun i s ->
      Printf.bprintf b "rikit_shard_endpoints{shard=\"%d\"} %d\n" i
        (List.length s.s_endpoints))
    shards;
  family b ~name:"rikit_shard_rpcs_total"
    ~help:"Fan-out RPCs issued to each shard." ~typ:"counter";
  Array.iteri
    (fun i s -> Printf.bprintf b "rikit_shard_rpcs_total{shard=\"%d\"} %d\n" i s.s_rpcs)
    shards;
  family b ~name:"rikit_shard_errors_total"
    ~help:"Fan-out RPCs that failed after endpoint failover." ~typ:"counter";
  Array.iteri
    (fun i s ->
      Printf.bprintf b "rikit_shard_errors_total{shard=\"%d\"} %d\n" i s.s_errors)
    shards;
  family b ~name:"rikit_shard_last_lsn"
    ~help:"Highest commit LSN acknowledged by each shard (read-your-writes \
           token)."
    ~typ:"gauge";
  Array.iteri
    (fun i s ->
      Printf.bprintf b "rikit_shard_last_lsn{shard=\"%d\"} %d\n" i s.s_lsn)
    shards;
  counter b ~name:"rikit_router_partial_results_total"
    ~help:"Scatter-gather answers degraded to typed partial results."
    (int_ partials);
  gc_families b;
  Buffer.contents b
