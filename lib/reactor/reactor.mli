(** The event core: one readiness engine shared by the dispatcher,
    the router, replication fan-out, metrics endpoints, the chaos
    proxy and client deadline waits — plus the fibers the router runs
    its shard legs on.

    A reactor owns a set of registered fds with read/write interest
    and callbacks, plus a heap of exact timers ({!Timers}). Its
    registry is the array set that [poll(2)] reads (a C stub, no fd
    ceiling): registering, deregistering and the interest setters edit
    it in place, and [run_once] hands it to [poll] as it stands, then
    fires due timers and ready-fd callbacks. Single-threaded: all
    callbacks run on the thread calling [run_once]; nothing here takes
    locks. *)

module Timers = Timers
module Writer = Writer

type t
type timer

val create : unit -> t

(** [wait_fd fd dir ~timeout] blocks the calling thread in [poll(2)]
    until [fd] is ready for [dir] or [timeout] seconds pass (negative:
    no bound, [0.]: just look); [true] iff it became ready. An error or
    hangup on [fd] counts as ready; an interrupted wait ([EINTR]) as
    not. It needs no reactor and touches none. *)
val wait_fd : Unix.file_descr -> [ `Read | `Write ] -> timeout:float -> bool

(** Register callbacks for an fd. Interest in a direction starts on
    iff that callback is supplied; adjust later with the interest
    setters. Registering an already-registered fd replaces the
    previous entry in its slot; a report the poll made for the old
    entry never fires the new one. *)
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

(** [after t delay f]: schedule [f] on the loop thread [delay]
    seconds from now. Timers are one-shot; [cancel] removes one at
    once and is idempotent. *)
val after : t -> float -> (unit -> unit) -> timer
val cancel : t -> timer -> unit
val timer_count : t -> int

(** One loop turn: sleep in [poll(2)] until readiness, the earliest
    timer deadline, or [max_timeout] (whichever is soonest; negative,
    the default: no cap), then fire due timers and ready callbacks. The callbacks
    start at a different ready fd on each turn, so no fd is always
    served first. Callbacks may freely register/deregister fds and
    timers, including their own: a report fires a callback only if its
    entry is still registered and still wants that direction when its
    turn comes. A turn allocates nothing per registered fd. Not
    reentrant: a callback must not call [run_once]. *)
val run_once : ?max_timeout:float -> t -> unit

(** {2 Fibers}

    A fiber is a computation that parks on readiness or time instead
    of blocking its thread (OCaml 5 effects). It runs on the thread
    that calls {!run_once}: [spawn] runs it until it first parks, and
    the reactor resumes it from the callback of the event it waits
    for. Code written against [await_fd]/[sleep]/[all] also runs
    outside any fiber — there each call blocks the calling thread
    exactly as a plain wait would, so threaded clients are
    unaffected. *)

(** [spawn t f] runs [f] as a fiber of [t] until it first parks or
    returns. An exception escaping [f] is raised to whoever resumed
    it last (the spawner, or the reactor callback), so fibers should
    catch their own. *)
val spawn : t -> (unit -> unit) -> unit

(** [await_fd fd dir ~timeout] waits until [fd] is ready for [dir] or
    [timeout] seconds pass (negative: no bound); [true] iff ready. In
    a fiber it parks on a one-shot registration of [fd] (which must
    not be registered otherwise) and a timer; outside one it is
    {!wait_fd}. *)
val await_fd : Unix.file_descr -> [ `Read | `Write ] -> timeout:float -> bool

(** [sleep d] parks for [d] seconds on a timer; outside a fiber,
    [Unix.sleepf]. *)
val sleep : float -> unit

(** [all thunks] runs the thunks concurrently, each as its own fiber,
    and returns their results in input order once every one has
    finished; the first (in input order) exception any of them raised
    is re-raised then. Outside a fiber the thunks run one after the
    other. *)
val all : (unit -> 'a) list -> 'a list
