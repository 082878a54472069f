(** The one result record of the bench drivers: a small JSON value and
    its writer.

    A driver returns its measurements as an object plus a list of named
    acceptance checks; {!record} folds both into the document that is
    printed and written as [BENCH_<name>.json], and names the checks
    that failed. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed JSON, newline-terminated. A list or object whose
    members are all scalars prints on one line; anything deeper prints
    one member per line, indented by two spaces per level. In strings,
    quote and backslash are escaped, newline, return and tab get their
    one-letter escapes and the other control characters [\u00XX]. A
    float prints as the shortest of [%.15g], [%.16g] and [%.17g] that
    reads back equal.
    @raise Invalid_argument on a [nan] or infinite float. *)

val record :
  bench:string -> tiny:bool -> t -> (string * bool) list -> t * string list
(** [record ~bench ~tiny fields checks] is the driver's document —
    [bench] and [tiny], then the fields of the object [fields], then
    every check as a boolean field under its own name — paired with the
    names of the checks that are false, in order.
    @raise Invalid_argument if [fields] is not an [Obj]. *)
