(** Failover-aware client: one logical connection over several
    endpoints (primary first, then standbys).

    Every call runs under a per-request deadline ({!Client}'s
    [?deadline_ms]); a hung or partitioned endpoint surfaces as
    [Timeout], the connection is dropped and the next endpoint dialled.
    A mutation answered [Read_only] (we reached a standby) rotates and
    retries — the refusal proves nothing was applied. A mutation that
    dies mid-flight ([Timeout]/[Io]) is {e never} auto-retried: the
    outcome is ambiguous and the typed error goes back to the caller.
    Reads are retried freely across endpoints.

    Read-your-writes: successful COMMITs carry their durable LSN; the
    highest is remembered and a new endpoint is only adopted once its
    [Repl_status] shows it has applied past it (near-instant under the
    semi-synchronous primary, which acks a commit only after every
    subscriber applied it).

    Server-side session state (an open BEGIN, prepared statements) does
    not survive a failover — the new endpoint sees a fresh session.

    Waits (connect, request, pauses between attempts) park the calling
    fiber when run inside a {!Reactor} fiber, and block the calling
    thread otherwise. *)

type t

val create : ?deadline_ms:float -> endpoints:(string * int) list -> unit -> t
(** [deadline_ms] (default 1000) bounds every connect and request.
    @raise Invalid_argument on an empty endpoint list. *)

val close : t -> unit

val endpoint : t -> (string * int) option
(** The endpoint currently connected, if any. *)

val failovers : t -> int
(** Endpoint rotations so far (connects tried, [Read_only] bounces,
    mid-flight failures). *)

val last_lsn : t -> int
(** Highest commit LSN acknowledged to this client — the
    read-your-writes token. *)

val note_lsn : t -> int -> unit
(** Raise the token by hand (e.g. adopting another client's writes). *)

val read :
  t -> (Client.t -> ('a, Client.error) result) -> ('a, Client.error) result
(** Run a read against the current endpoint, retrying across endpoints
    on [Timeout]/[Io]/[Overloaded]. *)

val mutate :
  t -> (Client.t -> ('a, Client.error) result) -> ('a, Client.error) result
(** Run a mutation: [Read_only] rotates and retries; [Timeout]/[Io]
    after dispatch returns the error (ambiguous — caller decides). *)

(** {2 Typed conveniences} — {!Client} calls lifted over failover. *)

val insert : t -> ?id:int -> Interval.Ivl.t -> (int, Client.error) result

val intersect :
  t -> Interval.Ivl.t -> ((Interval.Ivl.t * int) list, Client.error) result

val sql : t -> string -> (Protocol.response, Client.error) result
val begin_txn : t -> (unit, Client.error) result

val commit : t -> (int, Client.error) result
(** [Ok lsn] also advances {!last_lsn}. *)

val rollback : t -> (unit, Client.error) result
val repl_status : t -> (Protocol.role * int * int, Client.error) result
