type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

external unsafe_to_bytes : buf -> int -> Bytes.t -> int -> int -> unit
  = "rikit_blit_ba_to_bytes"
[@@noalloc]

external unsafe_from_bytes : Bytes.t -> int -> buf -> int -> int -> unit
  = "rikit_blit_bytes_to_ba"
[@@noalloc]

let check what pos len size =
  if pos < 0 || len < 0 || pos > size - len then
    invalid_arg (Printf.sprintf "Mem.%s: range out of bounds" what)

let blit_to_bytes src src_pos dst dst_pos len =
  check "blit_to_bytes" src_pos len (Bigarray.Array1.dim src);
  check "blit_to_bytes" dst_pos len (Bytes.length dst);
  unsafe_to_bytes src src_pos dst dst_pos len

let blit_from_bytes src src_pos dst dst_pos len =
  check "blit_from_bytes" src_pos len (Bytes.length src);
  check "blit_from_bytes" dst_pos len (Bigarray.Array1.dim dst);
  unsafe_from_bytes src src_pos dst dst_pos len

let is_zero b =
  let n = Bytes.length b in
  let words = n land lnot 7 in
  let rec word i =
    i >= words || (Int64.equal (Bytes.get_int64_ne b i) 0L && word (i + 8))
  in
  let rec byte i =
    i >= n || (Bytes.unsafe_get b i = '\000' && byte (i + 1))
  in
  word 0 && byte words
