(** Hierarchical timer wheel: 1 ms ticks, four levels of 256 slots
    (≈49 days of span; later deadlines are clamped and re-placed as
    the wheel cascades). Insertion is O(1) and cancellation O(1)
    amortized; each elapsed millisecond costs O(expired + cascaded).

    All deadlines, idle timeouts, group-commit windows and redial
    backoffs in the server are timers on one of these wheels, so the
    event loop's sleep is always [next_deadline]-bounded instead of a
    fixed polling interval. *)

type t
type timer

val create : now:float -> t

(** [add t ~now ~at f] schedules [f] to run when [advance] first
    crosses [at] (absolute seconds, same clock as [now]). Deadlines
    in the past fire on the next [advance]. The callback runs on the
    thread calling [advance]. *)
val add : t -> now:float -> at:float -> (unit -> unit) -> timer

(** Cancel a pending timer; firing and double-cancel are no-ops.
    Cancelled timers do not pile up in their slots: once they are
    more than twice the live ones (and more than 256), the wheel is
    swept. *)
val cancel : t -> timer -> unit

(** Number of scheduled, uncancelled timers. *)
val pending : t -> int

(** Earliest instant at which a timer may be due. Conservative: may
    be earlier than the true next deadline (a cascade boundary) but
    never later, so sleeping until it cannot miss a timer. *)
val next_deadline : t -> float option

(** Fire every timer due at or before [now]; returns the count
    fired. Callbacks may add or cancel timers. *)
val advance : t -> now:float -> int
