(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8.
   Pure OCaml so the storage layer stays dependency-free. The running
   CRC lives in a native int (32 significant bits); only the interface
   speaks [int32].

   [table] holds eight 256-entry tables back to back: table 0 is the
   classic byte-at-a-time table, and table k advances a byte through k
   further zero bytes, so one step folds eight input bytes with eight
   independent lookups. *)

let mask32 = 0xFFFF_FFFF

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let get32 buf i = Int32.to_int (Bytes.get_int32_le buf i) land mask32

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Checksum.update: range outside buffer";
  let t = table in
  let tbl k b = Array.unsafe_get t ((k lsl 8) lor b) in
  let c = ref (crc lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !c lxor get32 buf !i and hi = get32 buf (!i + 4) in
    c :=
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xff)
      lxor tbl 2 ((hi lsr 8) land 0xff)
      lxor tbl 1 ((hi lsr 16) land 0xff)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := tbl 0 ((!c lxor Bytes.get_uint8 buf !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor mask32

let bytes ?(crc = 0l) buf ~pos ~len =
  Int32.of_int (update (Int32.to_int crc land mask32) buf ~pos ~len)

let all buf = bytes buf ~pos:0 ~len:(Bytes.length buf)
let string s = all (Bytes.unsafe_of_string s)
