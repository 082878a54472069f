type move = { src : int; dst : int; len : int }

type record =
  | Write of { page : int; before : Bytes.t; after : Bytes.t }
  | Delta of { page : int; move : move option; zero : (int * int) option;
                ranges : (int * Bytes.t) list }
  | Commit

(* The log is held as serialized bytes, exactly as it would sit on a log
   device, so recovery really parses what a crash would leave behind:

     record := tag:u8 body crc32:u32le      (crc over tag+body)
     body   := page:u32le blen:u32le alen:u32le before after   (tag 1)
             | empty                                            (tag 2)
             | page:u32le nranges:u16le range*                  (tag 3)
             | page:u32le alen:u32le nranges:u16le range*       (tag 4)
             | page:u32le move nranges:u16le range*             (tag 5)
             | page:u32le zero nranges:u16le range*             (tag 6)
             | page:u32le move zero nranges:u16le range*        (tag 7)
     move   := src:u16le dst:u16le len:u16le
     zero   := off:u16le len:u16le
     range  := off:u16le len:u16le bytes

   Tag 4 is a Write whose before-image is [alen] zero bytes — a page
   never written before, which is every page a B+-tree split or a bulk
   load allocates. Neither that image nor the zero free space of the
   after-image is serialized: the after-image is logged as its ranges
   against zero. Tag 5 is a Delta whose move is blitted before its
   ranges are patched; tags 6 and 7 are Deltas, without and with a
   move, that also zero a span — the bytes a used end that shrank left
   behind — after the move and before the ranges.

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

let chunk_bytes = 1 lsl 20

type t = {
  mutable chunks : Mem.buf array;
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
    t.chunks <- Array.append t.chunks [| Mem.create chunk_bytes |]
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
      Mem.blit_from_bytes src (src_pos + k) ch off n)

(* Copy [len] store bytes from [pos] into [dst] at [dst_pos]. *)
let store_read t pos dst dst_pos len =
  runs t pos len (fun ch off k n ->
      Mem.blit_to_bytes ch off dst (dst_pos + k) n)

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

(* The ranges of [data] in the window [lo, hi) that differ from [base],
   pushed onto [acc] in reverse order. *)
let diff_window ~base data ~lo ~hi acc =
  (* the first differing byte at or after [i] (or [hi]), a word at a
     time over equal stretches *)
  let rec next_diff i =
    if i + 8 <= hi
       && Int64.equal (Bytes.get_int64_ne base i) (Bytes.get_int64_ne data i)
    then next_diff (i + 8)
    else if i < hi && Bytes.unsafe_get base i = Bytes.unsafe_get data i then
      next_diff (i + 1)
    else i
  in
  let rec next_same i =
    if i < hi && Bytes.unsafe_get base i <> Bytes.unsafe_get data i then
      next_same (i + 1)
    else i
  in
  (* grow the range ending at [e] over every gap of [merge_gap] or fewer
     equal bytes; returns its end and the next differing byte *)
  let rec extend e =
    let k = next_diff e in
    if k < hi && k - e <= merge_gap then extend (next_same k) else (e, k)
  in
  let rec ranges acc i =
    let s = next_diff i in
    if s >= hi then acc
    else
      let e, k = extend (next_same s) in
      ranges ((s, Bytes.sub data s (e - s)) :: acc) k
  in
  ranges acc lo

let check_lengths what base data =
  if Bytes.length base <> Bytes.length data then
    invalid_arg (Printf.sprintf "Journal.%s: length mismatch" what)

let diff ~base data =
  check_lengths "diff" base data;
  List.rev (diff_window ~base data ~lo:0 ~hi:(Bytes.length data) [])

(* ---- move deltas ----

   A B+-tree insert or delete shifts a page's entries by one stride. A
   byte diff logs the whole shifted tail; a move logs six bytes. The
   pages keep their free space zeroed, so the shift is the difference
   of the two images' used ends (one past the last nonzero byte below
   the checksum trailer), and the moved run is the common suffix of the
   two used prefixes, verified backwards from those ends. The move
   rewrites exactly [dst, dst + len), so what is left to log are the
   changes in the window before it, diffed in place; bytes a shrinking
   used end left behind are logged as one zero span, not as the
   kilobyte of zeros a split frees. A run shorter than [min_move] is
   not worth its header: the page gets a plain diff below its used
   end. Either way the zero free space past both used ends is scanned
   once, by [used_end], and never diffed. *)
let min_move = 32

(* One past the last nonzero byte of [b] below [lim]. *)
let used_end b lim =
  let rec word i =
    if i >= 8 && Int64.equal (Bytes.get_int64_ne b (i - 8)) 0L then
      word (i - 8)
    else byte i
  and byte i =
    if i > 0 && Bytes.unsafe_get b (i - 1) = '\000' then byte (i - 1) else i
  in
  word lim

(* The length of the longest common suffix of [a] below [ea] and [b]
   below [eb]. *)
let common_suffix a ea b eb =
  let m = min ea eb in
  let rec word k =
    if k + 8 <= m
       && Int64.equal
            (Bytes.get_int64_ne a (ea - k - 8))
            (Bytes.get_int64_ne b (eb - k - 8))
    then word (k + 8)
    else byte k
  and byte k =
    if k < m
       && Bytes.unsafe_get a (ea - k - 1) = Bytes.unsafe_get b (eb - k - 1)
    then byte (k + 1)
    else k
  in
  word 0

let delta ~trailer ~base data =
  check_lengths "delta" base data;
  let n = Bytes.length data and lim = Bytes.length data - trailer in
  let eb = used_end base lim and ed = used_end data lim in
  (* [ed, eb) is zero in [data], [max eb ed, lim) in both images *)
  let zero = if ed < eb then Some (ed, eb - ed) else None in
  let windows move ws =
    ( move, zero,
      List.rev
        (List.fold_left
           (fun acc (lo, hi) -> diff_window ~base data ~lo ~hi acc)
           [] ws) )
  in
  let len = if eb = ed then 0 else common_suffix base eb data ed in
  if len < min_move then windows None [ (0, ed); (lim, n) ]
  else
    let dst = ed - len in
    windows (Some { src = eb - len; dst; len }) [ (0, dst); (lim, n) ]

let patch ?move ?zero image ranges =
  Option.iter
    (fun { src; dst; len } -> Bytes.blit image src image dst len)
    move;
  Option.iter (fun (off, len) -> Bytes.fill image off len '\000') zero;
  List.iter (fun (off, b) -> Bytes.blit b 0 image off (Bytes.length b)) ranges

let has_image t page = Hashtbl.mem t.images page

(* ---- appending ---- *)

(* A full Write's CRC covers tag+body: chained over the 13-byte header
   and the two images, so the record is never copied to be summed. *)
let write_crc hdr before after =
  let crc = Checksum.bytes hdr ~pos:0 ~len:13 in
  let crc = Checksum.bytes ~crc before ~pos:0 ~len:(Bytes.length before) in
  Checksum.bytes ~crc after ~pos:0 ~len:(Bytes.length after)

let u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Journal.append: %s %d exceeds u16" what v);
  v

(* A record of tag 3 to 7: an [h]-byte header — the tag, the fields
   [fields] writes, the range count — then the ranges. Returns the
   record, CRC included, and the bytes its ranges carry. *)
let encode_ranges ~tag ~h fields ranges =
  let payload =
    List.fold_left (fun a (_, r) -> a + 4 + Bytes.length r) 0 ranges
  in
  let body = h + payload in
  let b = Bytes.create (body + 4) in
  Bytes.set_uint8 b 0 tag;
  fields b;
  Bytes.set_uint16_le b (h - 2) (u16 "range count" (List.length ranges));
  ignore
    (List.fold_left
       (fun pos (off, r) ->
         let len = Bytes.length r in
         Bytes.set_uint16_le b pos (u16 "range offset" off);
         Bytes.set_uint16_le b (pos + 2) (u16 "range length" len);
         Bytes.blit r 0 b (pos + 4) len;
         pos + 4 + len)
       h ranges);
  Bytes.set_int32_le b body (Checksum.bytes b ~pos:0 ~len:body);
  (b, payload)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let count_payload t n =
  t.p_count <- t.p_count + 1;
  t.p_bytes <- t.p_bytes + n;
  Obs.Counters.add_journal_bytes n

let append t r =
  match r with
  | Write { page; before; after } ->
      if not (has_image t page) then Hashtbl.replace t.images page t.len;
      let alen = Bytes.length after in
      if Bytes.length before = alen && alen <= 0xFFFF && Mem.is_zero before
      then begin
        (* a fresh page: its after-image as ranges against zero *)
        let b, payload =
          encode_ranges ~tag:4 ~h:11
            (fun b -> set_u32 b 1 page; set_u32 b 5 alen)
            (diff ~base:before after)
        in
        push t b;
        count_payload t payload
      end
      else begin
        let hdr = Bytes.create 13 in
        Bytes.set_uint8 hdr 0 1;
        set_u32 hdr 1 page;
        set_u32 hdr 5 (Bytes.length before);
        set_u32 hdr 9 alen;
        let trailer = Bytes.create 4 in
        Bytes.set_int32_le trailer 0 (write_crc hdr before after);
        push t hdr;
        push t before;
        push t after;
        push t trailer;
        count_payload t (Bytes.length before + alen)
      end
  | Delta { page; move; zero; ranges } ->
      if not (has_image t page) then
        invalid_arg
          (Printf.sprintf
             "Journal.append: Delta for page %d, which has no image in \
              this checkpoint epoch"
             page);
      let m = if move = None then 0 else 6
      and z = if zero = None then 0 else 4 in
      let tag =
        match (move, zero) with
        | None, None -> 3 | Some _, None -> 5 | None, Some _ -> 6 | _ -> 7
      in
      let set b off what v = Bytes.set_uint16_le b off (u16 what v) in
      let b, payload =
        encode_ranges ~tag ~h:(7 + m + z)
          (fun b ->
            set_u32 b 1 page;
            Option.iter
              (fun { src; dst; len } ->
                set b 5 "move source" src;
                set b 7 "move target" dst;
                set b 9 "move length" len)
              move;
            Option.iter
              (fun (off, len) ->
                set b (5 + m) "zero offset" off;
                set b (7 + m) "zero length" len)
              zero)
          ranges
      in
      push t b;
      count_payload t (payload + m + z)
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

(* The [k] ranges serialized from [pos] of [body]. *)
let rec decode_ranges body pos k =
  if k = 0 then []
  else
    let off = Bytes.get_uint16_le body pos
    and n = Bytes.get_uint16_le body (pos + 2) in
    (off, Bytes.sub body (pos + 4) n)
    :: decode_ranges body (pos + 4 + n) (k - 1)

(* The longest valid prefix of the records in [pos, len) of a byte
   source read through [read src_pos dst dst_pos n], each paired with
   the offset one past its end. A record is decoded only once its CRC
   has matched: rot in a length or an offset must make a torn log, not
   an allocation or a blit out of bounds. *)
let scan_source read ~pos ~len =
  let pos = ref pos in
  let out = ref [] in
  let torn = ref false in
  let hdr = Bytes.create 17 and trailer = Bytes.create 4 in
  let u32 b off =
    Int32.to_int (Int32.logand (Bytes.get_int32_le b off) 0xFFFFFFFFl)
  in
  (try
     while !pos < len do
       let start = !pos in
       read start hdr 0 1;
       let crc, body_len, decode =
         match Bytes.get_uint8 hdr 0 with
         | 1 ->
             if start + 13 > len then raise Exit;
             read start hdr 0 13;
             let page = u32 hdr 1 and blen = u32 hdr 5 and alen = u32 hdr 9 in
             if start + 13 + blen + alen + 4 > len then raise Exit;
             let before = Bytes.create blen and after = Bytes.create alen in
             read (start + 13) before 0 blen;
             read (start + 13 + blen) after 0 alen;
             ( write_crc hdr before after,
               13 + blen + alen,
               fun () -> Write { page; before; after } )
         | 2 ->
             if start + 5 > len then raise Exit;
             (Checksum.bytes hdr ~pos:0 ~len:1, 1, fun () -> Commit)
         | (3 | 4 | 5 | 6 | 7) as tag ->
             let h = match tag with 3 -> 7 | 4 | 6 -> 11 | 5 -> 13 | _ -> 17 in
             if start + h > len then raise Exit;
             read start hdr 0 h;
             (* the range headers give the body's length *)
             let fin = ref (start + h) in
             for _ = 1 to Bytes.get_uint16_le hdr (h - 2) do
               if !fin + 4 > len then raise Exit;
               read !fin trailer 0 4;
               fin := !fin + 4 + Bytes.get_uint16_le trailer 2
             done;
             if !fin + 4 > len then raise Exit;
             let body = Bytes.create (!fin - start) in
             read start body 0 (Bytes.length body);
             let decode () =
               let page = u32 body 1 in
               let ranges =
                 decode_ranges body h (Bytes.get_uint16_le body (h - 2))
               in
               let u16 off = Bytes.get_uint16_le body off in
               let m = if tag = 5 || tag = 7 then 6 else 0 in
               match tag with
               | 4 ->
                   let alen = u32 body 5 in
                   let fits (off, r) = off + Bytes.length r <= alen in
                   if not (List.for_all fits ranges) then raise Exit;
                   let after = Bytes.make alen '\000' in
                   patch after ranges;
                   Write { page; before = Bytes.make alen '\000'; after }
               | _ ->
                   let move =
                     if m = 0 then None
                     else Some { src = u16 5; dst = u16 7; len = u16 9 }
                   in
                   let zero =
                     if tag < 6 then None else Some (u16 (5 + m), u16 (7 + m))
                   in
                   Delta { page; move; zero; ranges }
             in
             (Checksum.all body, Bytes.length body, decode)
         | _ -> raise Exit
       in
       read (start + body_len) trailer 0 4;
       if Bytes.get_int32_le trailer 0 <> crc then raise Exit;
       let r = decode () in
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
      | Delta { page; move; zero; ranges } ->
          (* a Delta always follows its page's image in a log the pool
             wrote; one whose image was torn away has nothing to patch *)
          if i <= !last_commit then
            Option.iter
              (fun image -> patch ?move ?zero image ranges)
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
