exception Io_error of { op : string; block : int }
exception Crash of int

type t = {
  block_size : int;
  impl_read : int -> Bytes.t -> unit;
  impl_write : int -> Bytes.t -> unit;
  impl_alloc : unit -> int;
  impl_allocated : unit -> int;
  mutable reads : int;
  mutable writes : int;
}

let of_impl ~block_size ~read ~write ~alloc ~allocated =
  if block_size < 64 then
    invalid_arg
      (Printf.sprintf "Block_device.of_impl: block size %d too small"
         block_size);
  { block_size; impl_read = read; impl_write = write; impl_alloc = alloc;
    impl_allocated = allocated; reads = 0; writes = 0 }

(* Default in-memory backend: one fixed-size block per allocation, as in
   the paper's simulated U-SCSI disk. The blocks live outside the OCaml
   heap, in [Bigarray] storage, so a large device neither grows the
   major heap's live set nor the GC slack that scales with it; a
   transfer is one [memcpy]. *)
let create ?(block_size = 2048) () =
  if block_size < 64 then
    invalid_arg
      (Printf.sprintf "Block_device.create: block size %d too small"
         block_size);
  let empty = Mem.create 0 in
  let blocks = ref (Array.make 64 empty) in
  let allocated = ref 0 in
  let check id buf op =
    if id < 0 || id >= !allocated then
      invalid_arg (Printf.sprintf "Block_device.%s: bad block id %d" op id);
    if Bytes.length buf <> block_size then
      invalid_arg
        (Printf.sprintf "Block_device.%s: buffer size %d, expected %d" op
           (Bytes.length buf) block_size)
  in
  let read id buf =
    check id buf "read";
    Mem.blit_to_bytes !blocks.(id) 0 buf 0 block_size
  in
  let write id buf =
    check id buf "write";
    Mem.blit_from_bytes buf 0 !blocks.(id) 0 block_size
  in
  let alloc () =
    let cap = Array.length !blocks in
    if !allocated >= cap then begin
      let grown = Array.make (2 * cap) empty in
      Array.blit !blocks 0 grown 0 cap;
      blocks := grown
    end;
    let id = !allocated in
    let blk = Mem.create block_size in
    Bigarray.Array1.fill blk '\000';
    !blocks.(id) <- blk;
    allocated := id + 1;
    id
  in
  of_impl ~block_size ~read ~write ~alloc ~allocated:(fun () -> !allocated)

let block_size t = t.block_size
let allocated t = t.impl_allocated ()
let alloc t = t.impl_alloc ()

let read t id buf =
  t.impl_read id buf;
  t.reads <- t.reads + 1;
  Obs.Counters.incr_read ()

let write t id buf =
  t.impl_write id buf;
  t.writes <- t.writes + 1;
  Obs.Counters.incr_write ()

module Stats = struct
  type device = t
  type t = { reads : int; writes : int }

  let total s = s.reads + s.writes
  let get (d : device) = { reads = d.reads; writes = d.writes }

  let reset (d : device) =
    d.reads <- 0;
    d.writes <- 0

  let pp ppf s =
    Format.fprintf ppf "reads=%d writes=%d total=%d" s.reads s.writes
      (total s)
end
