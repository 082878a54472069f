(** Readiness via the poll(2) C stub: no fd-number ceiling, unlike
    [select]'s [FD_SETSIZE]. *)

(** [wait entries ~timeout] blocks until at least one entry is ready
    or [timeout] (seconds; negative = forever) elapses. Each entry is
    [(fd, want_read, want_write)]; the result lists ready entries as
    [(fd, readable, writable)] — error/hangup conditions are reported
    as ready in every direction of interest. Interrupted waits
    ([EINTR]) return []. *)
val wait :
  (Unix.file_descr * bool * bool) array ->
  timeout:float ->
  (Unix.file_descr * bool * bool) list

(** [wait_fd fd dir ~timeout] waits for a single fd; [true] if it
    became ready within [timeout] seconds. Used for client-side
    deadline waits (connect completion, response deadlines). *)
val wait_fd : Unix.file_descr -> [ `Read | `Write ] -> timeout:float -> bool
