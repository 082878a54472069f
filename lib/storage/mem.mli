(** Raw memory helpers shared by the block device and the journal,
    which both keep their bytes outside the OCaml heap. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> buf
(** An uninitialised buffer of the given length. *)

val blit_to_bytes : buf -> int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes src src_pos dst dst_pos len] copies with one
    [memcpy].
    @raise Invalid_argument if either range is out of bounds. *)

val blit_from_bytes : Bytes.t -> int -> buf -> int -> int -> unit
(** The converse copy.
    @raise Invalid_argument if either range is out of bounds. *)

val is_zero : Bytes.t -> bool
(** Whether every byte is zero, a word at a time. *)
