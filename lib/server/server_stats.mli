(** Server-side metrics: per-op latency histograms, physical I/O per
    request, session gauges.

    Latencies are kept in logarithmic (power-of-two microsecond)
    histograms, so recording is O(1) and allocation-free on the hot
    path; percentiles are reconstructed from the buckets (geometric
    bucket midpoint — at most a factor [sqrt 2] off, plenty for the
    dashboards the paper's Figs. 13/14 correspond to). Physical I/O is
    the device-counter delta the dispatcher measures around each
    request. *)

type t

val create : now:float -> t
(** [now] is the server start time (seconds, any monotonic-enough
    clock); {!snapshot} reports uptime against it. *)

val record : t -> op:string -> seconds:float -> io:int -> unit
(** Account one completed request. *)

val overloaded : t -> unit
(** Count one admission-control rejection. *)

val session_opened : t -> unit
val session_closed : t -> unit

val sessions : t -> int
(** Sessions open now: opened minus closed. *)

val snapshot : t -> now:float -> io:Storage.Block_device.Stats.t -> Protocol.stats
(** The wire-ready snapshot: gauges, counters, and per-op percentile
    summaries, sorted by op name. *)

val dump : t -> now:float -> io:Storage.Block_device.Stats.t -> string
(** Human-readable rendering of {!snapshot} — printed by [rikitd] on
    shutdown. *)

val render : Protocol.stats -> string
(** Render an already-taken snapshot (used by clients displaying a
    [Stats_reply]). *)

(** {2 Histogram geometry}

    Exposed for the Prometheus renderer and property tests. Bucket [i]
    holds latencies in [[2^i, 2^(i+1))] microseconds; bucket
    [buckets - 1] is open-ended. *)

val buckets : int
(** Number of histogram buckets. *)

val bucket_of_us : int -> int
(** The bucket a latency sample falls into. Total and monotone:
    non-positive inputs map to bucket 0, anything above the last
    bucket's lower bound maps to [buckets - 1]. *)

val bucket_mid_us : int -> int
(** Representative (geometric-midpoint) latency for a bucket —
    the value percentile reconstruction reports. *)

val bucket_limit_us : int -> int
(** Exclusive upper bound [2^(i+1)] of bucket [i]; the final bucket is
    rendered as [+Inf] by convention. *)

(** {2 Raw view}

    A copied-out snapshot of every accumulator, for renderers that need
    the full histograms rather than the percentile summary. *)

type op_view = {
  v_op : string;
  v_count : int;
  v_total_io : int;
  v_total_us : int;
  v_min_us : int;  (** 0 when no samples *)
  v_max_us : int;
  v_hist : int array;  (** length {!buckets}; a private copy *)
}

type view = {
  v_started : float;
  v_sessions : int;
  v_peak_sessions : int;
  v_total_requests : int;
  v_overload_rejections : int;
  v_ops : op_view list;  (** sorted by op name *)
}

val view : t -> view
