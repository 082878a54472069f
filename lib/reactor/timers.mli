(** Exact one-shot timers: an indexed binary min-heap ordered by
    (deadline, insertion order). Add and cancel are O(log n), and a
    cancelled timer leaves the heap at once, closure and all.

    All deadlines, idle timeouts, group-commit windows and redial
    backoffs in the server are timers on one of these heaps, so the
    event loop's sleep is always bounded by the true next deadline
    instead of a fixed polling interval. *)

type t
type timer

val create : unit -> t

(** [add t ~at f] schedules [f] to run on the first [advance] whose
    [now] reaches [at] (absolute seconds, the clock [advance] is
    given). A deadline before the last [advance]'s [now] counts as
    that instant, so it fires on the next [advance]. The callback
    runs on the thread calling [advance]. *)
val add : t -> at:float -> (unit -> unit) -> timer

(** Remove a pending timer; cancelling a fired or cancelled timer is
    a no-op. *)
val cancel : t -> timer -> unit

(** Number of pending timers. *)
val pending : t -> int

(** The earliest pending deadline, exactly. *)
val next_deadline : t -> float option

(** Fire every timer due at or before [now], in deadline order and in
    insertion order on ties; returns the count fired. Callbacks may
    add or cancel timers; a timer added by a callback fires on a later
    [advance], even if it is already due. *)
val advance : t -> now:float -> int
