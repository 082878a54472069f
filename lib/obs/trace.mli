(** Hierarchical query trace spans.

    A span covers one stage of request execution — dispatcher request,
    SQL statement, RI-tree join branch, B+tree probe, buffer-pool fault,
    journal force — with wall-clock timing and the {!Counters} delta
    observed while it was open (physical reads/writes, pool hits and
    misses, journal forces). Spans opened while another span is open
    become its children, so a finished root reads as the operator tree
    the request actually executed.

    Tracing is off by default; {!with_span} then runs its thunk behind a
    single branch with no allocation, so instrumented hot paths pay
    (almost) nothing. When enabled, finished roots land in a bounded
    ring buffer of recent traces for slow-query logging and debugging.

    The tracer is a process-wide single stack, matching the server's
    single-threaded dispatcher; concurrent tracing from multiple threads
    would interleave spans nonsensically (but not crash). *)

type span = {
  name : string;
  info : string;                 (** free-form detail, e.g. the interval *)
  elapsed_us : int;
  io : Counters.snapshot;        (** counter deltas while the span was open *)
  children : span list;          (** in execution order *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : ?info:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it when tracing
    is enabled (a plain call to [f] otherwise). The span closes even if
    [f] raises; the exception is re-raised. *)

val traced : ?info:string -> string -> (unit -> 'a) -> 'a * span option
(** Like {!with_span}, but also returns the finished span ([None] when
    tracing is disabled or when called inside an open span — only roots
    are returned). *)

val recent : unit -> span list
(** Finished root spans, newest first, up to {!ring_capacity}. *)

val last : unit -> span option
(** The most recently finished root span. *)

val clear : unit -> unit
(** Drop all retained traces (open spans are unaffected). *)

val ring_capacity : int

val render : ?max_bytes:int -> span -> string
(** Multi-line tree rendering: one line per span with elapsed time and
    any non-zero I/O deltas. [max_bytes] caps the rendered tree:
    truncation happens only at line boundaries and appends a final
    "… (N spans truncated)" marker line (the marker may exceed the cap
    by its own length). Used by the slow-query log so a pathological
    plan tree cannot stall the event loop. *)
