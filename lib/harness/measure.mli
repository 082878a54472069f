(** Measurement helpers for the experiment harness.

    Physical I/O comes from the simulated device's counters; response
    time is the wall-clock time of running the operation on the
    simulator. The paper reports both (e.g. Figs. 13 and 14); absolute
    times are not comparable to the 1996 testbed but relative shapes
    are. *)

type batch = {
  queries : int;
  total_results : int;
  total_io : int;      (** physical blocks read + written *)
  total_reads : int;
  avg_io : float;      (** per query *)
  total_seconds : float;
  avg_seconds : float;
}

val wall : (unit -> 'a) -> 'a * float
(** Result and elapsed wall-clock seconds. *)

val io : Relation.Catalog.t -> (unit -> 'a) -> 'a * int
(** Result and physical I/Os (reads + writes) during the call; resets the
    device counters around the call. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-percentile ([0 <= p <= 1])
    of the sample; [xs] need not be sorted.
    @raise Invalid_argument on an empty sample or [p] outside [0, 1]. *)

val query_batch :
  Relation.Catalog.t ->
  (Interval.Ivl.t -> int) ->
  Interval.Ivl.t array ->
  batch
(** Run a batch of queries through a counting query function, tallying
    physical I/O and wall time. The buffer cache is {e not} flushed
    between queries — the warm-cache regime of the paper's repeated-query
    experiments. *)
