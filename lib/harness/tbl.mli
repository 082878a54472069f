(** Aligned text tables and CSV output for the benchmark reports. *)

type t

val create : title:string -> columns:string list -> t
val title : t -> string
val add_row : t -> string list -> unit
(** @raise Invalid_argument on arity mismatch. *)

val render : t -> string
(** Title, header, separator, aligned rows. *)

val print : t -> unit

val to_csv : t -> string
val save_csv : t -> string -> unit
(** Write the CSV to a file path. *)

val fmt_f : float -> string
(** Compact float formatting for cells ("12.3", "0.004"). *)
