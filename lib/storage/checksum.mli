(** CRC-32 integrity checksums (IEEE 802.3 polynomial).

    Used as the corruption detector of the storage stack: every journal
    record carries a CRC of its serialized body, and — on checksummed
    buffer pools — every data page carries a CRC trailer over its
    payload bytes. CRC-32 detects all single-bit flips and all bursts up
    to 32 bits, which covers the bit-rot and torn-write faults
    {!Faulty_device} injects.

    The kernels are C: a portable slice-by-8, and on x86-64 CPUs with
    PCLMULQDQ and SSE4.1 a carry-less-multiply fold over the first
    [len land lnot 15] bytes of any run of 64 bytes or more, slice-by-8
    finishing the rest. The CPU is probed once, when this module
    initializes; both kernels give the same value for every input. *)

val bytes : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** CRC of [len] bytes starting at [pos], continuing from [crc]
    (default [0l], the empty-message checksum).
    @raise Invalid_argument if the range lies outside the buffer. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** [update crc buf ~pos ~len] is [bytes] on CRCs held in the low 32 bits
    of a native int (higher bits of [crc] are ignored; the result is in
    [0, 2^32)). It allocates nothing.
    @raise Invalid_argument if the range lies outside the buffer. *)

val all : Bytes.t -> int32
(** CRC of the whole buffer. *)

val string : string -> int32
