(* Replica apply engine: consume the primary's journal byte stream and
   replay committed batches onto the local device.

   The primary ships its durable journal verbatim ([Journal.stream_from]
   chunks carried in [Repl_frame]s). Frames are contiguous: each carries
   the LSN of its first byte, and the engine refuses gaps — a dropped or
   reordered frame forces a reconnect-and-resubscribe from [applied_lsn]
   rather than a silent desync.

   Application mirrors crash recovery's redo rule: buffered bytes are
   parsed ([Journal.parse], CRC-checked, stops at the first torn record)
   and a batch's records are applied to the device, in log order, when
   its commit marker arrives: a full image is written as is, a delta
   patches the page's current image (the device block, unless the batch
   already rebuilt the page), and each page is written once per batch.
   Because the stream is applied whole batches at a time and in order,
   the device always holds every page's last applied image, which is
   exactly the base the primary diffed the next delta against — also
   when a standby resumes mid-epoch from its applied LSN. Bytes past
   the last marker — a batch still in flight, or the front half of a
   record split across frames — stay buffered until the rest arrives.
   MVCC guarantees heap pages carry only committed rows, so replaying
   whole batches in order reproduces exactly the primary's post-commit
   images.

   Work is linear in the bytes received, however the stream is chopped
   into frames: a parse cursor remembers the end of the last whole
   record, so each byte is parsed once, and the applied prefix is
   compacted away only once it outweighs the live tail. *)

type t = {
  mutable buf : Bytes.t;  (* [0, len) received; [0, consumed) applied *)
  mutable len : int;
  mutable consumed : int;  (* end of the last applied commit marker *)
  mutable parsed : int;  (* end of the last whole record parsed *)
  mutable pending : Storage.Journal.record list;
      (* page records parsed past [consumed], newest first *)
  mutable next_lsn : int;  (* LSN the next frame must start at *)
  mutable applied_lsn : int;  (* primary-stream offset fully applied *)
  mutable primary_lsn : int;  (* primary's durable_lsn, last heard *)
  mutable batches : int;  (* commit batches applied *)
  mutable records : int;  (* page records applied *)
}

let create ?(from_lsn = 0) () =
  {
    buf = Bytes.create 4096;
    len = 0;
    consumed = 0;
    parsed = 0;
    pending = [];
    next_lsn = from_lsn;
    applied_lsn = from_lsn;
    primary_lsn = from_lsn;
    batches = 0;
    records = 0;
  }

let applied_lsn t = t.applied_lsn
let primary_lsn t = t.primary_lsn
let note_primary t lsn = if lsn > t.primary_lsn then t.primary_lsn <- lsn
let lag_bytes t = max 0 (t.primary_lsn - t.applied_lsn)
let batches t = t.batches
let records t = t.records
let buffered t = t.len - t.consumed

let reset t =
  t.len <- 0;
  t.consumed <- 0;
  t.parsed <- 0;
  t.pending <- [];
  t.next_lsn <- t.applied_lsn;
  t.applied_lsn

(* The primary's heap can be larger than ours (we start empty): extend
   the device so a record's block id exists before it is applied. *)
let ensure_block device page =
  while Storage.Block_device.allocated device <= page do
    ignore (Storage.Block_device.alloc device)
  done

let append t payload =
  let n = String.length payload in
  if t.len + n > Bytes.length t.buf then begin
    let grown = Bytes.create (max (t.len + n) (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  Bytes.blit_string payload 0 t.buf t.len n;
  t.len <- t.len + n

(* Slide the live tail to the front once the applied prefix outweighs
   it, so each byte is moved O(1) times on average. *)
let compact t =
  let tail = t.len - t.consumed in
  if t.consumed > tail then begin
    Bytes.blit t.buf t.consumed t.buf 0 tail;
    t.parsed <- t.parsed - t.consumed;
    t.len <- tail;
    t.consumed <- 0
  end

(* Fold the batch's records into one image per page, in log order, then
   write each page once. *)
let apply_batch t device ~fin =
  let images = Hashtbl.create 16 and order = ref [] in
  let image page =
    match Hashtbl.find_opt images page with
    | Some img -> img
    | None ->
        ensure_block device page;
        let img = Bytes.create (Storage.Block_device.block_size device) in
        Storage.Block_device.read device page img;
        Hashtbl.add images page img;
        order := page :: !order;
        img
  in
  List.iter
    (fun r ->
      (match r with
      | Storage.Journal.Write { page; after; _ } ->
          if not (Hashtbl.mem images page) then order := page :: !order;
          Hashtbl.replace images page after
      | Storage.Journal.Delta { page; move; zero; ranges } ->
          Storage.Journal.patch ?move ?zero (image page) ranges
      | Storage.Journal.Commit -> ());
      t.records <- t.records + 1)
    (List.rev t.pending);
  List.iter
    (fun page ->
      ensure_block device page;
      Storage.Block_device.write device page (Hashtbl.find images page))
    (List.rev !order);
  t.pending <- [];
  t.batches <- t.batches + 1;
  t.applied_lsn <- t.applied_lsn + (fin - t.consumed);
  t.consumed <- fin

let feed t device ~lsn payload =
  if lsn <> t.next_lsn then
    Error
      (Printf.sprintf "replication gap: frame at lsn %d, expected %d" lsn
         t.next_lsn)
  else begin
    append t payload;
    t.next_lsn <- t.next_lsn + String.length payload;
    note_primary t t.next_lsn;
    let applied = ref 0 in
    List.iter
      (fun (r, fin) ->
        t.parsed <- fin;
        match r with
        | Storage.Journal.Write _ | Storage.Journal.Delta _ ->
            t.pending <- r :: t.pending
        | Storage.Journal.Commit ->
            apply_batch t device ~fin;
            incr applied)
      (Storage.Journal.parse t.buf ~pos:t.parsed ~len:t.len);
    compact t;
    Ok !applied
  end
