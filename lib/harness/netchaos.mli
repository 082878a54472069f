(** In-process network chaos proxy with frame-aligned fault injection.

    Listens on an ephemeral loopback port and forwards traffic to one
    target endpoint. Client-to-server bytes are split on the wire
    protocol's u32-BE length-prefixed frame boundaries and counted;
    when the running frame index matches an entry of the schedule, that
    entry's fault fires instead of plain forwarding. Counting frames —
    not bytes or packets — makes every injection deterministic:
    "fault at op 7" hits exactly the 8th request of the run, every run.

    The proxy is protocol-blind beyond the length prefix (it lives
    below the server library in the build graph), so injected damage
    reaches the peer unrepaired. *)

type fault =
  | Delay of float  (** hold the frame for this many seconds *)
  | Drop  (** swallow the frame; the client's deadline will expire *)
  | Duplicate  (** forward the frame twice *)
  | Truncate of int
      (** forward only the first [n] bytes, then sever the link — a
          torn frame followed by a dead connection *)
  | Partition of float
      (** sever every link and refuse new connections for this many
          seconds *)
  | Kill
      (** invoke the [on_kill] callback (e.g. stop the primary), then
          sever the link *)

val fault_name : fault -> string

type t

val create :
  target:string * int ->
  schedule:(int * fault) list ->
  ?on_kill:(unit -> unit) ->
  unit ->
  t
(** Proxy for [target], firing [fault] when the client->server frame
    counter reaches each scheduled index (0-based, duplicate indices
    keep the last entry). [on_kill] (default no-op) runs when a {!Kill}
    fires. The listener is bound immediately; {!port} is valid before
    {!run}. *)

val port : t -> int
(** The ephemeral loopback port clients should dial. *)

val run : t -> unit
(** Serve until {!stop} on the proxy's own reactor, meant for a
    dedicated thread. Closes every socket before returning. *)

val stop : t -> unit
(** Ask {!run} to exit; safe from any thread, idempotent. *)

val fired : t -> (int * fault) list
(** Injections that actually ran, in firing order. *)
