type record =
  | Write of { page : int; before : Bytes.t; after : Bytes.t }
  | Delta of { page : int; ranges : (int * Bytes.t) list }
  | Commit

(* The log is held as serialized bytes, exactly as it would sit on a log
   device, so recovery really parses what a crash would leave behind:

     record := tag:u8 body crc32:u32le      (crc over tag+body)
     body   := page:u32le blen:u32le alen:u32le before after   (tag 1)
             | empty                                            (tag 2)
             | page:u32le nranges:u16le range*                  (tag 3)
     range  := off:u16le len:u16le bytes

   The bytes live outside the OCaml heap, in fixed-size [Bigarray]
   chunks allocated as the log grows: a log of hundreds of MB then
   neither inflates the major heap's live set (and with it the GC's
   slack) nor leaves outgrown copies behind, as a doubling buffer
   would. [0, durable) is the forced prefix and [durable, len) the
   records appended since the last force. A crash (Buffer_pool.crash)
   drops the latter; test hooks can tear or corrupt the former to model
   torn writes and bit rot on the log itself.

   [images] is the checkpoint epoch: every page with a full image in
   the log, mapped to that record's offset. A Delta is only meaningful
   against such an image, so losing the image (a dropped tail, a torn
   log) drops the page from the table and its next record is a Write
   again. *)

type chunk =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_bytes = 1 lsl 20

type t = {
  mutable chunks : chunk array;
  images : (int, int) Hashtbl.t;  (* page -> offset of its epoch image *)
  mutable len : int;
  mutable durable : int;
  mutable base_lsn : int;
  mutable d_count : int;
  mutable d_bytes : int;
  mutable p_count : int;
  mutable p_bytes : int;
  mutable p_commits : int;
  mutable commits : int;
  mutable forces : int;
}

let create () =
  { chunks = [||]; images = Hashtbl.create 256; len = 0; durable = 0;
    base_lsn = 0; d_count = 0; d_bytes = 0; p_count = 0; p_bytes = 0;
    p_commits = 0; commits = 0; forces = 0 }

(* ---- the chunked byte store ---- *)

let ensure_capacity t n =
  while Array.length t.chunks * chunk_bytes < n do
    let chunk =
      Bigarray.Array1.create Bigarray.char Bigarray.c_layout chunk_bytes
    in
    t.chunks <- Array.append t.chunks [| chunk |]
  done

(* [f chunk off src_pos n] for each run of [len] store bytes from
   [pos] that lies within one chunk. *)
let runs t pos len f =
  let pos = ref pos and done_ = ref 0 in
  while !done_ < len do
    let off = !pos mod chunk_bytes in
    let n = min (len - !done_) (chunk_bytes - off) in
    f t.chunks.(!pos / chunk_bytes) off !done_ n;
    pos := !pos + n;
    done_ := !done_ + n
  done

(* Write [len] bytes of [src] from [src_pos] at store offset [pos]. *)
let store_write t pos src src_pos len =
  ensure_capacity t (pos + len);
  runs t pos len (fun ch off k n ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set ch (off + i)
          (Bytes.unsafe_get src (src_pos + k + i))
      done)

(* Copy [len] store bytes from [pos] into [dst] at [dst_pos]. *)
let store_read t pos dst dst_pos len =
  runs t pos len (fun ch off k n ->
      for i = 0 to n - 1 do
        Bytes.unsafe_set dst (dst_pos + k + i)
          (Bigarray.Array1.unsafe_get ch (off + i))
      done)

let push t src =
  store_write t t.len src 0 (Bytes.length src);
  t.len <- t.len + Bytes.length src

let store_sub t pos len =
  let b = Bytes.create len in
  store_read t pos b 0 len;
  b

(* ---- byte-range deltas ---- *)

(* Two changed runs separated by at most this many equal bytes share a
   range: a range header costs 4 bytes, so a short gap is cheaper to
   log than to skip. *)
let merge_gap = 8

let diff ~base data =
  let n = Bytes.length data in
  if Bytes.length base <> n then invalid_arg "Journal.diff: length mismatch";
  (* the first differing byte at or after [i] (or [n]), a word at a
     time over equal stretches *)
  let rec next_diff i =
    if i + 8 <= n
       && Int64.equal (Bytes.get_int64_ne base i) (Bytes.get_int64_ne data i)
    then next_diff (i + 8)
    else if i < n && Bytes.unsafe_get base i = Bytes.unsafe_get data i then
      next_diff (i + 1)
    else i
  in
  let rec next_same i =
    if i < n && Bytes.unsafe_get base i <> Bytes.unsafe_get data i then
      next_same (i + 1)
    else i
  in
  (* grow the range ending at [e] over every gap of [merge_gap] or fewer
     equal bytes; returns its end and the next differing byte *)
  let rec extend e =
    let k = next_diff e in
    if k < n && k - e <= merge_gap then extend (next_same k) else (e, k)
  in
  let rec ranges acc i =
    let s = next_diff i in
    if s >= n then List.rev acc
    else
      let e, k = extend (next_same s) in
      ranges ((s, Bytes.sub data s (e - s)) :: acc) k
  in
  ranges [] 0

let patch image ranges =
  List.iter (fun (off, b) -> Bytes.blit b 0 image off (Bytes.length b)) ranges

let has_image t page = Hashtbl.mem t.images page

(* ---- appending ---- *)

(* A Write record's CRC covers tag+body: chained over the 13-byte header
   and the two images, so the record is never copied to be summed. *)
let write_crc hdr before after =
  let crc = Checksum.all hdr in
  let crc = Checksum.bytes ~crc before ~pos:0 ~len:(Bytes.length before) in
  Checksum.bytes ~crc after ~pos:0 ~len:(Bytes.length after)

let u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Journal.append: %s %d exceeds u16" what v);
  v

(* A Delta record, CRC included, and the bytes its ranges carry. *)
let encode_delta page ranges =
  let payload =
    List.fold_left (fun a (_, r) -> a + 4 + Bytes.length r) 0 ranges
  in
  let body = 7 + payload in
  let b = Bytes.create (body + 4) in
  Bytes.set_uint8 b 0 3;
  Bytes.set_int32_le b 1 (Int32.of_int page);
  Bytes.set_uint16_le b 5 (u16 "range count" (List.length ranges));
  ignore
    (List.fold_left
       (fun pos (off, r) ->
         let len = Bytes.length r in
         Bytes.set_uint16_le b pos (u16 "range offset" off);
         Bytes.set_uint16_le b (pos + 2) (u16 "range length" len);
         Bytes.blit r 0 b (pos + 4) len;
         pos + 4 + len)
       7 ranges);
  Bytes.set_int32_le b body (Checksum.bytes b ~pos:0 ~len:body);
  (b, payload)

let count_payload t n =
  t.p_count <- t.p_count + 1;
  t.p_bytes <- t.p_bytes + n;
  Obs.Counters.add_journal_bytes n

let append t r =
  match r with
  | Write { page; before; after } ->
      if not (has_image t page) then Hashtbl.replace t.images page t.len;
      let hdr = Bytes.create 13 in
      Bytes.set_uint8 hdr 0 1;
      Bytes.set_int32_le hdr 1 (Int32.of_int page);
      Bytes.set_int32_le hdr 5 (Int32.of_int (Bytes.length before));
      Bytes.set_int32_le hdr 9 (Int32.of_int (Bytes.length after));
      let trailer = Bytes.create 4 in
      Bytes.set_int32_le trailer 0 (write_crc hdr before after);
      push t hdr;
      push t before;
      push t after;
      push t trailer;
      count_payload t (Bytes.length before + Bytes.length after)
  | Delta { page; ranges } ->
      if not (has_image t page) then
        invalid_arg
          (Printf.sprintf
             "Journal.append: Delta for page %d, which has no image in \
              this checkpoint epoch"
             page);
      let b, payload = encode_delta page ranges in
      push t b;
      count_payload t payload
  | Commit ->
      let b = Bytes.create 5 in
      Bytes.set_uint8 b 0 2;
      Bytes.set_int32_le b 1 (Checksum.bytes b ~pos:0 ~len:1);
      push t b;
      t.p_count <- t.p_count + 1;
      t.p_commits <- t.p_commits + 1;
      t.commits <- t.commits + 1

let do_force t =
  t.forces <- t.forces + 1;
  Obs.Counters.incr_journal_force ();
  t.durable <- t.len;
  t.d_count <- t.d_count + t.p_count;
  t.d_bytes <- t.d_bytes + t.p_bytes;
  t.p_count <- 0;
  t.p_bytes <- 0;
  t.p_commits <- 0

let force t =
  if t.p_count > 0 then
    (* Commit-path hot spot: never pay the sprintf (or a closure) for
       the span unless tracing is actually on. *)
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "journal.force"
        ~info:(Printf.sprintf "%d records" t.p_count)
        (fun () -> do_force t)
    else do_force t

(* Forget the epoch images at or past store offset [off]: their records
   are gone, so the pages' next records must be full images again. *)
let drop_images_from t off =
  Hashtbl.filter_map_inplace
    (fun _ at -> if at >= off then None else Some at)
    t.images

let drop_unforced t =
  t.commits <- t.commits - t.p_commits;
  drop_images_from t t.durable;
  t.len <- t.durable;
  t.p_count <- 0;
  t.p_bytes <- 0;
  t.p_commits <- 0

let record_count t = t.d_count + t.p_count
let byte_size t = t.d_bytes + t.p_bytes
let commit_count t = t.commits
let force_count t = t.forces
let durable_bytes t = t.durable
let unforced_bytes t = t.len - t.durable

(* {2 LSN addressing}

   The durable log is a byte stream; an LSN is simply a byte offset into
   the all-time durable stream. [base_lsn] is the LSN of the first byte
   still held — a truncate (checkpoint) discards the bytes but advances
   the base, so LSNs stay monotone across checkpoints and a replication
   subscriber can detect that its resume point fell off the retained
   log. *)

let base_lsn t = t.base_lsn
let durable_lsn t = t.base_lsn + t.durable

let stream_from ?max_bytes t lsn =
  if lsn < t.base_lsn then
    invalid_arg
      (Printf.sprintf
         "Journal.stream_from: lsn %d before retained base %d (truncated)"
         lsn t.base_lsn);
  let dur = durable_lsn t in
  if lsn > dur then
    invalid_arg
      (Printf.sprintf "Journal.stream_from: lsn %d beyond durable end %d"
         lsn dur);
  let off = lsn - t.base_lsn in
  let avail = t.durable - off in
  let len = match max_bytes with
    | Some m when m < avail -> max 0 m
    | _ -> avail
  in
  store_sub t off len

let truncate t =
  t.base_lsn <- t.base_lsn + t.durable;
  Hashtbl.reset t.images;
  t.len <- 0;
  t.durable <- 0;
  (* keep one chunk for the next records; the rest go back to the
     allocator once collected *)
  if Array.length t.chunks > 1 then t.chunks <- [| t.chunks.(0) |];
  t.d_count <- 0;
  t.d_bytes <- 0;
  t.p_count <- 0;
  t.p_bytes <- 0;
  t.p_commits <- 0

(* {2 Parsing} *)

type scan = { records : (record * int) list; torn : bool }

(* The longest valid prefix of the records in [pos, len) of a byte
   source read through [read src_pos dst dst_pos n], each paired with
   the offset one past its end. *)
let scan_source read ~pos ~len =
  let pos = ref pos in
  let out = ref [] in
  let torn = ref false in
  let hdr = Bytes.create 13 and trailer = Bytes.create 4 in
  let u32 b off =
    Int32.to_int (Int32.logand (Bytes.get_int32_le b off) 0xFFFFFFFFl)
  in
  (try
     while !pos < len do
       let start = !pos in
       read start hdr 0 1;
       let r, crc, body_len =
         match Bytes.get_uint8 hdr 0 with
         | 1 ->
             if start + 13 > len then raise Exit;
             read start hdr 0 13;
             let page = u32 hdr 1 and blen = u32 hdr 5 and alen = u32 hdr 9 in
             if start + 13 + blen + alen + 4 > len then raise Exit;
             let before = Bytes.create blen and after = Bytes.create alen in
             read (start + 13) before 0 blen;
             read (start + 13 + blen) after 0 alen;
             ( Write { page; before; after },
               write_crc hdr before after,
               13 + blen + alen )
         | 2 ->
             if start + 5 > len then raise Exit;
             (Commit, Checksum.bytes hdr ~pos:0 ~len:1, 1)
         | 3 ->
             if start + 7 > len then raise Exit;
             read start hdr 0 7;
             let page = u32 hdr 1 and nranges = Bytes.get_uint16_le hdr 5 in
             (* the range headers give the body's length *)
             let fin = ref (start + 7) in
             for _ = 1 to nranges do
               if !fin + 4 > len then raise Exit;
               read !fin trailer 0 4;
               fin := !fin + 4 + Bytes.get_uint16_le trailer 2
             done;
             if !fin + 4 > len then raise Exit;
             let body = Bytes.create (!fin - start) in
             read start body 0 (Bytes.length body);
             let rec ranges pos k =
               if k = 0 then []
               else
                 let off = Bytes.get_uint16_le body pos
                 and n = Bytes.get_uint16_le body (pos + 2) in
                 (off, Bytes.sub body (pos + 4) n)
                 :: ranges (pos + 4 + n) (k - 1)
             in
             ( Delta { page; ranges = ranges 7 nranges },
               Checksum.all body,
               Bytes.length body )
         | _ -> raise Exit
       in
       read (start + body_len) trailer 0 4;
       if Bytes.get_int32_le trailer 0 <> crc then raise Exit;
       pos := start + body_len + 4;
       out := (r, !pos) :: !out
     done
   with Exit -> torn := true);
  { records = List.rev !out; torn = !torn }

let parse ?(pos = 0) data ~len =
  (scan_source (fun p dst dpos n -> Bytes.blit data p dst dpos n) ~pos ~len)
    .records

let scan_store t ~pos ~len = scan_source (store_read t) ~pos ~len
let scan_durable t = scan_store t ~pos:0 ~len:t.durable

let durable_torn t = (scan_durable t).torn

let records t =
  let d = scan_durable t in
  let p = scan_store t ~pos:t.durable ~len:t.len in
  List.map fst (d.records @ p.records)

(* {2 Recovery} *)

(* For each page: its image as of the last commit — the epoch's full
   image with every later Delta up to that commit patched in — or, if
   the page was only logged after the last commit, its first
   before-image. Images are patched in place: they are the parser's
   fresh copies. *)
let target_map records =
  let rs = Array.of_list records in
  let last_commit = ref (-1) in
  Array.iteri (fun i r -> if r = Commit then last_commit := i) rs;
  let target : (int, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      match r with
      | Commit -> ()
      | Write { page; before; after } ->
          if i <= !last_commit then Hashtbl.replace target page after
          else if not (Hashtbl.mem target page) then
            Hashtbl.replace target page before
      | Delta { page; ranges } ->
          (* a Delta always follows its page's image in a log the pool
             wrote; one whose image was torn away has nothing to patch *)
          if i <= !last_commit then
            Option.iter
              (fun image -> patch image ranges)
              (Hashtbl.find_opt target page))
    rs;
  target

let recovery_images t = target_map (records t)

let recover t device =
  (* An explicit recover call treats everything appended so far as the
     log to replay; pending bytes are forced first. (After a real crash,
     Buffer_pool.crash has already dropped the unforced tail, so this is
     a no-op there.) *)
  force t;
  let scan = scan_durable t in
  (* An invalid tail is a torn log: replay the valid prefix, drop the
     rest. Never raise. *)
  let target = target_map (List.map fst scan.records) in
  let restored = ref 0 in
  Hashtbl.iter
    (fun page image ->
      Block_device.write device page image;
      incr restored)
    target;
  truncate t;
  !restored

(* {2 Test hooks: damage the durable log} *)

let tear t ~keep =
  let keep = max 0 (min keep t.durable) in
  let pending = store_sub t t.durable (t.len - t.durable) in
  drop_images_from t keep;
  t.len <- keep;
  t.durable <- keep;
  push t pending

let corrupt_byte t ~off =
  if off < 0 || off >= t.durable then
    invalid_arg "Journal.corrupt_byte: offset outside durable log";
  let b = store_sub t off 1 in
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0x40);
  store_write t off b 0 1
