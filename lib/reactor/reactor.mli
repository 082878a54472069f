(** The event core: one readiness engine shared by the dispatcher,
    the router, replication fan-out, metrics endpoints, and client
    deadline waits.

    A reactor owns a set of registered fds with read/write interest
    and callbacks, plus a hierarchical timer wheel. [run_once] blocks
    in [poll(2)] ({!Backend}) until readiness or the earliest timer, fires due timers, then fires
    ready-fd callbacks. Single-threaded: all callbacks run on the
    thread calling [run_once]; nothing here takes locks. *)

module Backend = Backend
module Timer_wheel = Timer_wheel
module Writer = Writer

type t
type timer

val create : unit -> t

(** Register callbacks for an fd. Interest in a direction starts on
    iff that callback is supplied; adjust later with the interest
    setters. Registering an already-registered fd replaces the
    previous entry. *)
val register :
  t ->
  Unix.file_descr ->
  ?readable:(unit -> unit) ->
  ?writable:(unit -> unit) ->
  unit ->
  unit

val deregister : t -> Unix.file_descr -> unit
val is_registered : t -> Unix.file_descr -> bool

(** Toggle poll interest without replacing callbacks. Write interest
    must track "has pending output" exactly: leaving it on with
    nothing to write spins the loop. No-ops on unregistered fds. *)
val set_read_interest : t -> Unix.file_descr -> bool -> unit
val set_write_interest : t -> Unix.file_descr -> bool -> unit

(** [after t delay f] / [at t when_ f]: schedule [f] on the loop
    thread. Timers are one-shot; [cancel] is O(1) and idempotent. *)
val after : t -> float -> (unit -> unit) -> timer
val at : t -> float -> (unit -> unit) -> timer
val cancel : t -> timer -> unit
val timer_count : t -> int

(** One loop turn: sleep in [poll(2)] until readiness, the earliest
    timer deadline, or [max_timeout] (whichever is soonest; default
    1 s), then fire due timers and ready callbacks. Callbacks may
    freely register/deregister fds and timers, including their
    own. *)
val run_once : ?max_timeout:float -> t -> unit
