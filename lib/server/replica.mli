(** Replica apply engine — the consuming half of journal shipping.

    A replica dispatcher tails its primary's durable journal byte
    stream ([Repl_frame]s under one [Repl_subscribe]) and hands each
    frame to {!feed}, which buffers, CRC-parses and replays committed
    batches onto the local device in arrival order — the same redo rule
    crash recovery uses, so the replica's pages are always exactly some
    committed prefix of the primary's history. After {!feed} reports
    applied batches, the caller runs {!Session.reload} so open catalog
    and tree handles see the new pages.

    Torn input never desyncs the engine: a record split across frames
    stays buffered until completed, a truncated or corrupt frame fails
    frame decoding (or the gap check) before any byte is applied, and
    {!reset} rewinds cleanly to the applied position for resubscribe. *)

type t

val create : ?from_lsn:int -> unit -> t
(** Fresh engine expecting the primary's stream from [from_lsn]
    (default [0] — a blank replica replays the primary's whole retained
    history; no snapshot transfer is needed because every page's first
    image and every later change travel through the journal). *)

val feed :
  t -> Storage.Block_device.t -> lsn:int -> string -> (int, string) result
(** [feed t device ~lsn payload] ingests one frame whose first byte is
    primary-stream offset [lsn]. [Ok n] reports [n] commit batches
    newly applied to [device] (extended as needed to hold the primary's
    pages; [n = 0]: bytes buffered, nothing to reload yet). [Error _]
    means a gap — the connection must be dropped and the subscription
    restarted from {!reset}. *)

val applied_lsn : t -> int
(** Primary-stream offset fully applied locally — the resume point and
    the replica's [Repl_ack]/[Repl_state] position. *)

val primary_lsn : t -> int
(** The primary's [durable_lsn] as last heard (frames and
    [Repl_state]). *)

val note_primary : t -> int -> unit
(** Record a fresher primary [durable_lsn] (monotone). *)

val lag_bytes : t -> int
(** [primary_lsn - applied_lsn], clamped at [0] — the
    [rikit_repl_lag_bytes] gauge. *)

val batches : t -> int
(** Commit batches applied over the engine's lifetime. *)

val records : t -> int
(** Page write records applied over the engine's lifetime. *)

val buffered : t -> int
(** Bytes received but not yet applied (below a commit marker). *)

val reset : t -> int
(** Drop buffered unapplied bytes (a reconnect refetches them) and
    return the LSN to resubscribe from ({!applied_lsn}). *)
