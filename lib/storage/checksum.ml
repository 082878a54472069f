(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). The kernels are
   C stubs in storage_stubs.c; this side checks the range first, since a
   [@@noalloc] stub must not raise. The running CRC lives in a native int
   (32 significant bits); only [bytes] speaks [int32]. *)

external init : unit -> unit = "rikit_crc32_init"

external unsafe_update : int -> Bytes.t -> int -> int -> int = "rikit_crc32"
[@@noalloc]

let () = init ()

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Checksum.update: range outside buffer";
  unsafe_update (crc land 0xFFFF_FFFF) buf pos len

let bytes ?(crc = 0l) buf ~pos ~len =
  Int32.of_int (update (Int32.to_int crc) buf ~pos ~len)

let all buf = bytes buf ~pos:0 ~len:(Bytes.length buf)
let string s = all (Bytes.unsafe_of_string s)
