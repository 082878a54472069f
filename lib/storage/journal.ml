type record =
  | Write of { page : int; before : Bytes.t; after : Bytes.t }
  | Commit

(* The log is held as serialized bytes, exactly as it would sit on a log
   device, so recovery really parses what a crash would leave behind:

     record := tag:u8 body crc32:u32le      (crc over tag+body)
     body   := page:u32le blen:u32le alen:u32le before after   (tag 1)
             | empty                                            (tag 2)

   [durable] is the forced prefix; [pending] holds records appended
   since the last force. A crash (Buffer_pool.crash) drops [pending];
   test hooks can tear or corrupt [durable] to model torn writes and bit
   rot on the log itself. *)
type t = {
  durable : Buffer.t;
  pending : Buffer.t;
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
  { durable = Buffer.create 4096; pending = Buffer.create 1024;
    base_lsn = 0;
    d_count = 0; d_bytes = 0; p_count = 0; p_bytes = 0; p_commits = 0;
    commits = 0; forces = 0 }

let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let serialize buf r =
  let start = Buffer.length buf in
  (match r with
   | Write { page; before; after } ->
       Buffer.add_char buf '\001';
       put_u32 buf page;
       put_u32 buf (Bytes.length before);
       put_u32 buf (Bytes.length after);
       Buffer.add_bytes buf before;
       Buffer.add_bytes buf after
   | Commit -> Buffer.add_char buf '\002');
  let body = Buffer.length buf - start in
  (* CRC over tag+body; Buffer gives no random access, so re-read the
     tail we just wrote. *)
  let tail = Bytes.unsafe_of_string (Buffer.sub buf start body) in
  Buffer.add_int32_le buf (Checksum.all tail)

let append t r =
  serialize t.pending r;
  t.p_count <- t.p_count + 1;
  (match r with
   | Write { before; after; _ } ->
       let payload = Bytes.length before + Bytes.length after in
       t.p_bytes <- t.p_bytes + payload;
       Obs.Counters.add_journal_bytes payload
   | Commit ->
       t.p_commits <- t.p_commits + 1;
       t.commits <- t.commits + 1)

let do_force t =
  t.forces <- t.forces + 1;
  Obs.Counters.incr_journal_force ();
  Buffer.add_buffer t.durable t.pending;
  t.d_count <- t.d_count + t.p_count;
  t.d_bytes <- t.d_bytes + t.p_bytes;
  Buffer.clear t.pending;
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

let drop_unforced t =
  t.commits <- t.commits - t.p_commits;
  Buffer.clear t.pending;
  t.p_count <- 0;
  t.p_bytes <- 0;
  t.p_commits <- 0

let record_count t = t.d_count + t.p_count
let byte_size t = t.d_bytes + t.p_bytes
let commit_count t = t.commits
let force_count t = t.forces
let durable_bytes t = Buffer.length t.durable
let unforced_bytes t = Buffer.length t.pending

(* {2 LSN addressing}

   The durable log is a byte stream; an LSN is simply a byte offset into
   the all-time durable stream. [base_lsn] is the LSN of the first byte
   still held in [durable] — a truncate (checkpoint) discards the bytes
   but advances the base, so LSNs stay monotone across checkpoints and a
   replication subscriber can detect that its resume point fell off the
   retained log. *)

let base_lsn t = t.base_lsn
let durable_lsn t = t.base_lsn + Buffer.length t.durable

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
  let avail = Buffer.length t.durable - off in
  let len = match max_bytes with
    | Some m when m < avail -> max 0 m
    | _ -> avail
  in
  Bytes.unsafe_of_string (Buffer.sub t.durable off len)

let truncate t =
  t.base_lsn <- t.base_lsn + Buffer.length t.durable;
  Buffer.clear t.durable;
  Buffer.clear t.pending;
  t.d_count <- 0;
  t.d_bytes <- 0;
  t.p_count <- 0;
  t.p_bytes <- 0;
  t.p_commits <- 0

(* {2 Parsing} *)

type scan = { records : record list; valid_bytes : int; torn : bool }

let get_u32 data pos =
  Int32.to_int (Int32.logand (Bytes.get_int32_le data pos) 0xFFFFFFFFl)

let scan_bytes ?(pos = 0) data len =
  let pos = ref pos in
  let out = ref [] in
  let torn = ref false in
  (try
     while !pos < len do
       let start = !pos in
       if start + 1 > len then raise Exit;
       let tag = Bytes.get_uint8 data start in
       let body_len =
         match tag with
         | 1 ->
             if start + 13 > len then raise Exit;
             let blen = get_u32 data (start + 5) in
             let alen = get_u32 data (start + 9) in
             if blen < 0 || alen < 0 || blen > len || alen > len then
               raise Exit;
             13 + blen + alen
         | 2 -> 1
         | _ -> raise Exit
       in
       if start + body_len + 4 > len then raise Exit;
       let crc = Bytes.get_int32_le data (start + body_len) in
       if crc <> Checksum.bytes data ~pos:start ~len:body_len then raise Exit;
       let r =
         match tag with
         | 1 ->
             let page = get_u32 data (start + 1) in
             let blen = get_u32 data (start + 5) in
             let alen = get_u32 data (start + 9) in
             Write
               { page;
                 before = Bytes.sub data (start + 13) blen;
                 after = Bytes.sub data (start + 13 + blen) alen }
         | _ -> Commit
       in
       out := r :: !out;
       pos := start + body_len + 4
     done
   with Exit -> torn := true);
  { records = List.rev !out; valid_bytes = !pos; torn = !torn }

let parse ?(pos = 0) data ~len =
  let scan = scan_bytes ~pos data len in
  (* Re-walk to attach each record's end offset: the serialized sizes
     are recomputable from the records themselves. *)
  let pos = ref pos in
  List.map
    (fun r ->
      let body =
        match r with
        | Write { before; after; _ } ->
            13 + Bytes.length before + Bytes.length after
        | Commit -> 1
      in
      pos := !pos + body + 4;
      (r, !pos))
    scan.records

let scan_durable t =
  scan_bytes (Buffer.to_bytes t.durable) (Buffer.length t.durable)

let durable_torn t = (scan_durable t).torn

let records t =
  let d = scan_durable t in
  let p = scan_bytes (Buffer.to_bytes t.pending) (Buffer.length t.pending) in
  d.records @ p.records

(* {2 Recovery} *)

(* For each page: the last committed after-image, or — if the page was
   only written after the last commit — its first before-image. *)
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
            Hashtbl.replace target page before)
    rs;
  target

let recovery_images t =
  let d = scan_durable t in
  let p = scan_bytes (Buffer.to_bytes t.pending) (Buffer.length t.pending) in
  target_map (d.records @ p.records)

let recover t device =
  (* An explicit recover call treats everything appended so far as the
     log to replay; pending bytes are forced first. (After a real crash,
     Buffer_pool.crash has already dropped the unforced tail, so this is
     a no-op there.) *)
  force t;
  let scan = scan_durable t in
  (* An invalid tail is a torn log: replay the valid prefix, drop the
     rest. Never raise. *)
  let target = target_map scan.records in
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
  let keep = max 0 (min keep (Buffer.length t.durable)) in
  Buffer.truncate t.durable keep

let corrupt_byte t ~off =
  if off < 0 || off >= Buffer.length t.durable then
    invalid_arg "Journal.corrupt_byte: offset outside durable log";
  let data = Buffer.to_bytes t.durable in
  Bytes.set_uint8 data off (Bytes.get_uint8 data off lxor 0x40);
  Buffer.clear t.durable;
  Buffer.add_bytes t.durable data
