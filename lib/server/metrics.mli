(** Prometheus-style text exposition of the server's metrics.

    One document, rendered on demand — served both by the [METRICS]
    wire op (inside an [Ack]) and by the [--metrics-port] HTTP
    endpoint. Families:

    - [rikit_uptime_seconds], [rikit_sessions], [rikit_sessions_peak],
      [rikit_requests_total], [rikit_overload_rejections_total]
    - [rikit_op_latency_us] — a histogram per wire op (cumulative
      [_bucket{op,le}] over the power-of-two microsecond buckets of
      {!Server_stats}, plus [_sum] and [_count]), and
      [rikit_op_io_total{op}]
    - [rikit_pool_hits_total], [rikit_pool_misses_total],
      [rikit_pool_evictions_total], [rikit_pool_hit_rate],
      [rikit_pool_cached_pages], [rikit_pool_pinned_frames]
    - [rikit_device_reads_total], [rikit_device_writes_total]
    - [rikit_journal_forces_total], [rikit_journal_commits_total],
      [rikit_journal_bytes] (durable servers only)
    - [rikit_hot_tier_budget_bytes], [rikit_hot_tier_resident_bytes],
      [rikit_hot_tier_resident_collections],
      [rikit_hot_tier_builds_total], [rikit_hot_tier_demotions_total],
      [rikit_hot_tier_invalidations_total],
      [rikit_hot_tier_probes_total]
    - [rikit_txn_commits_total], [rikit_txn_aborts_total],
      [rikit_txn_conflicts_total], [rikit_txn_active], [rikit_txn_lsn]
    - [rikit_read_only]
    - [rikit_repl_role], [rikit_repl_lag_bytes],
      [rikit_repl_applied_lsn], [rikit_repl_durable_lsn],
      [rikit_repl_subscribers] (when the dispatcher passes [?repl] —
      durable servers only)
    - [rikit_gc_minor_words_total], [rikit_gc_promoted_words_total],
      [rikit_gc_major_words_total], [rikit_gc_major_collections_total],
      [rikit_gc_heap_words] — the OCaml runtime's {!Gc.quick_stat}
      totals, also on the router's document *)

type repl = {
  r_role : string;  (** ["primary"] or ["replica"] *)
  r_lag_bytes : int;
  r_applied_lsn : int;
  r_durable_lsn : int;
  r_subscribers : int;
}

val render :
  ?repl:repl ->
  now:float ->
  stats:Server_stats.t ->
  cat:Relation.Catalog.t ->
  memtier:Exec.Memtier.t ->
  txns:Relation.Txn.mgr ->
  unit ->
  string
(** The full exposition document, trailing newline included. *)

(** Per-shard health snapshot for the router exposition. *)
type shard = {
  s_lo : int;  (** inclusive range lower bound *)
  s_hi : int;  (** inclusive range upper bound *)
  s_endpoints : (string * int) list;
  s_lsn : int;  (** highest commit LSN routed to this shard *)
  s_rpcs : int;  (** fan-out RPCs issued *)
  s_errors : int;  (** RPCs failed after endpoint failover *)
}

val render_router :
  now:float ->
  stats:Server_stats.t ->
  shards:shard array ->
  partials:int ->
  unit ->
  string
(** The router's exposition: request families plus [rikit_shard_*]
    gauges/counters and [rikit_router_partial_results_total]. Per-shard
    fan-out latency appears in the op histograms under
    [op="shard:<i>"]. *)
