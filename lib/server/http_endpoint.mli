(** One-shot HTTP/1.0 exposition endpoint served as plain reactor
    connections — no thread per scrape, no blocked loop. Used for the
    Prometheus metrics listener by both the dispatcher and the
    router. *)

type t

(** [attach r ~fd ~doc] registers the (already bound + listening)
    socket on the reactor; every accepted connection is answered with
    [doc ()] once request bytes arrive (or after 1 s of silence) and
    closed when the response drains. *)
val attach : Reactor.t -> fd:Unix.file_descr -> doc:(unit -> string) -> t

(** Stop accepting new scrapes; in-flight ones finish. *)
val stop_accepting : t -> unit

(** Drop everything, including the listener registration. Does not
    close the listening fd itself (the owner does). *)
val close_all : t -> unit
