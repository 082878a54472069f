exception Corrupt_page of int

(* A frame record and its buffers outlive the page they hold: once the
   pool is full, a miss reuses the evicted victim's record, data buffer
   and shadow buffer, so a fault allocates nothing. A page's bytes are
   therefore valid only while it is pinned. *)
type frame = {
  mutable page_id : int;
  mutable data : Bytes.t;
  mutable dirty : bool;
  mutable logged : bool;    (* content equals the last logged image *)
  mutable shadow : Bytes.t; (* [Bytes.empty] until the buffer's first log *)
  mutable shadowed : bool;
      (* [shadow] holds this page's last logged image: it has logged
         since it was installed in this frame *)
  mutable pins : int;
  mutable prev : frame;     (* intrusive LRU ring; self-linked = off-ring *)
  mutable next : frame;
}

type t = {
  dev : Block_device.t;
  capacity : int;
  checksums : bool;
  frames : (int, frame) Hashtbl.t; (* page id -> frame *)
  lru : frame; (* ring sentinel: [lru.next] is MRU, [lru.prev] is LRU *)
  mutable pinned : int; (* frames with pins > 0 *)
  mutable journal : Journal.t option;
  before : Bytes.t; (* device image read as a frame's first log base *)
  mutable spare : Bytes.t;
      (* the buffer the next fault reads into ([Bytes.empty] until the
         first one): a page is verified there before anything is evicted,
         and the victim's data buffer becomes the next spare *)
  mutable staged_commits : int; (* commit requests awaiting a marker *)
  mutable commit_batches : int;
  mutable logical_reads : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* ---- intrusive ring ---- *)

let ring_sentinel () =
  let rec s =
    { page_id = -1; data = Bytes.empty; dirty = false; logged = false;
      shadow = Bytes.empty; shadowed = false; pins = 0; prev = s; next = s }
  in
  s

let on_ring f = f.next != f || f.prev != f

let ring_remove f =
  if on_ring f then begin
    f.prev.next <- f.next;
    f.next.prev <- f.prev;
    f.prev <- f;
    f.next <- f
  end

(* Insert at the MRU end (right after the sentinel). *)
let ring_push_mru t f =
  ring_remove f;
  f.next <- t.lru.next;
  f.prev <- t.lru;
  t.lru.next.prev <- f;
  t.lru.next <- f

let create ?(capacity = 200) ?(checksums = false) dev =
  if capacity < 1 then
    invalid_arg "Buffer_pool.create: capacity must be positive";
  { dev; capacity; checksums; frames = Hashtbl.create (2 * capacity);
    lru = ring_sentinel (); pinned = 0; journal = None;
    before = Bytes.create (Block_device.block_size dev); spare = Bytes.empty;
    staged_commits = 0; commit_batches = 0; logical_reads = 0; hits = 0;
    misses = 0; evictions = 0 }

let attach_journal t j = t.journal <- Some j
let journal t = t.journal

let device t = t.dev
let checksums t = t.checksums

(* Physical size of a frame buffer = the device's block size. *)
let dev_size t = Block_device.block_size t.dev

(* Logical page size seen by heap/btree geometry: checksummed pools
   reserve the last 4 bytes of every block for a CRC-32 trailer over the
   payload. Callers never touch the trailer because every offset they
   compute stays below this size. *)
let block_size t = if t.checksums then dev_size t - 4 else dev_size t

(* Stamp the CRC trailer so the image about to be persisted (to the
   device or into the journal) verifies on its next read. CRCs stay
   unboxed ints: [Checksum.update] allocates nothing. *)
let stamp t data =
  if t.checksums then
    let payload = dev_size t - 4 in
    Bytes.set_int32_le data payload
      (Int32.of_int (Checksum.update 0 data ~pos:0 ~len:payload))

(* A freshly allocated block is all zeroes and has never been stamped;
   by convention it verifies (cf. Postgres treating zero pages as
   valid). Anything else must match its trailer. *)
let verify t page_id data =
  if t.checksums then begin
    let payload = dev_size t - 4 in
    let stored =
      Int32.to_int (Bytes.get_int32_le data payload) land 0xFFFF_FFFF
    in
    let actual = Checksum.update 0 data ~pos:0 ~len:payload in
    if stored <> actual && not (Mem.is_zero data) then
      raise (Corrupt_page page_id)
  end

let capacity t = t.capacity
let cached t = Hashtbl.length t.frames
let resident t page_id = Hashtbl.mem t.frames page_id
let pinned_frames t = t.pinned

(* Journal a page about to be written back or committed (steal policy:
   uncommitted pages may reach the device, and recovery undoes them
   from the epoch's before-image). The page's first record in the
   journal's checkpoint epoch is a full Write of its before- and
   after-image; later ones are Deltas against its last logged image.
   That image is the frame's shadow once the frame has logged, and
   otherwise its device block: [write_back] logs before it writes and
   [logged] means the content already equals the last logged image, so
   a page's block holds its last logged image until the frame that
   faulted it in logs again. The caller has stamped the frame, so the
   images carry a valid trailer — recovery and scrub install them
   straight onto the device. *)
let log_write t frame =
  match t.journal with
  | None -> ()
  | Some j ->
      let page = frame.page_id in
      let base =
        if frame.shadowed then frame.shadow
        else begin
          Block_device.read t.dev page t.before;
          t.before
        end
      in
      (* [append] copies what it logs *)
      if not (Journal.has_image j page) then
        Journal.append j
          (Journal.Write { page; before = base; after = frame.data })
      else begin
        match
          Journal.delta ~trailer:(dev_size t - block_size t) ~base frame.data
        with
        | None, None, [] -> ()
        | move, zero, ranges ->
            Journal.append j (Journal.Delta { page; move; zero; ranges })
      end;
      if frame.shadow == Bytes.empty then frame.shadow <- Bytes.copy frame.data
      else Bytes.blit frame.data 0 frame.shadow 0 (Bytes.length frame.data);
      frame.shadowed <- true;
      frame.logged <- true

let write_back t frame =
  if frame.dirty then begin
    stamp t frame.data;
    (* [logged] means the journal already holds this exact content: the
       recovery scan would reconstruct the same image, so appending it
       again buys nothing. *)
    if not frame.logged then begin
      log_write t frame;
      (* WAL rule: the undo image must be durable before the page can be
         stolen to the device, or a crash right after this write-back
         leaves uncommitted bytes with no way to roll them back. *)
      match t.journal with Some j -> Journal.force j | None -> ()
    end;
    Block_device.write t.dev frame.page_id frame.data;
    frame.dirty <- false
  end

let all_pinned () = failwith "Buffer_pool: all frames pinned, cannot evict"

(* Evict the least-recently-used unpinned frame to make room: the tail of
   the ring, O(1). Pinned frames are off the ring, so an empty ring means
   every frame is pinned. The victim leaves the ring and the table; its
   record is the caller's to reuse. *)
let evict_one t =
  let victim = t.lru.prev in
  if victim == t.lru then all_pinned ();
  write_back t victim;
  ring_remove victim;
  Hashtbl.remove t.frames victim.page_id;
  t.evictions <- t.evictions + 1;
  Obs.Counters.incr_pool_eviction ();
  victim

(* The spare buffer, created on first use. *)
let spare t =
  if t.spare == Bytes.empty then t.spare <- Bytes.create (dev_size t);
  t.spare

(* Install the page now held in the spare buffer. Below capacity the
   spare becomes a new frame's buffer; at capacity the victim's record
   takes the page, and the victim's buffer becomes the spare. *)
let install t page_id ~dirty ~pins =
  let data = t.spare in
  let frame =
    if Hashtbl.length t.frames < t.capacity then begin
      t.spare <- Bytes.empty;
      let rec frame =
        { page_id; data; dirty; logged = false; shadow = Bytes.empty;
          shadowed = false; pins; prev = frame; next = frame }
      in
      frame
    end
    else begin
      let frame = evict_one t in
      t.spare <- frame.data;
      frame.page_id <- page_id;
      frame.data <- data;
      frame.dirty <- dirty;
      frame.logged <- false;
      frame.shadowed <- false;
      frame.pins <- pins;
      frame
    end
  in
  if pins > 0 then t.pinned <- t.pinned + 1 else ring_push_mru t frame;
  Hashtbl.replace t.frames page_id frame;
  frame

let alloc t =
  let id = Block_device.alloc t.dev in
  Bytes.fill (spare t) 0 (dev_size t) '\000';
  ignore (install t id ~dirty:true ~pins:0);
  id

let fault_in t page_id =
  let data = spare t in
  Block_device.read t.dev page_id data;
  (* Verify before evicting or installing: a corrupt block must never
     enter the cache as if it were valid data, nor cost a resident page
     its frame. *)
  verify t page_id data;
  (install t page_id ~dirty:false ~pins:1).data

let pin t page_id =
  t.logical_reads <- t.logical_reads + 1;
  match Hashtbl.find_opt t.frames page_id with
  | Some frame ->
      t.hits <- t.hits + 1;
      Obs.Counters.incr_pool_hit ();
      if frame.pins = 0 then begin
        (* Pinned frames live off the ring: they can never be reached by
           the eviction path, whatever the replacement pressure. *)
        ring_remove frame;
        t.pinned <- t.pinned + 1
      end;
      frame.pins <- frame.pins + 1;
      frame.data
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counters.incr_pool_miss ();
      (* The span (and its info string) must cost nothing when tracing
         is off: faults dominate cold scans, so even one allocation per
         miss shows up in bench-storage. *)
      if Obs.Trace.enabled () then
        Obs.Trace.with_span "pool.fault"
          ~info:(string_of_int page_id)
          (fun () -> fault_in t page_id)
      else fault_in t page_id

let unpin t page_id ~dirty =
  match Hashtbl.find_opt t.frames page_id with
  | Some frame when frame.pins > 0 ->
      frame.pins <- frame.pins - 1;
      if dirty then begin
        frame.dirty <- true;
        (* Content (presumably) changed: any journaled image is stale. *)
        frame.logged <- false
      end;
      if frame.pins = 0 then begin
        t.pinned <- t.pinned - 1;
        ring_push_mru t frame
      end
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Buffer_pool.unpin: page %d is not pinned (double unpin)" page_id)
  | None ->
      invalid_arg
        (Printf.sprintf
           "Buffer_pool.unpin: page %d is not resident (evicted, or never \
            pinned)" page_id)

let with_page t page_id ~dirty f =
  let data = pin t page_id in
  match f data with
  | v ->
      unpin t page_id ~dirty;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (* The pin is what we must release; if unpin itself fails (say the
         frame vanished through a concurrent [clear]), the original
         exception is still the one the caller needs to see. *)
      (try unpin t page_id ~dirty with _ -> ());
      Printexc.raise_with_backtrace e bt

let flush t = Hashtbl.iter (fun _ f -> write_back t f) t.frames

let reset_frames t =
  Hashtbl.reset t.frames;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.pinned <- 0

let clear t =
  Hashtbl.iter
    (fun _ f ->
      if f.pins > 0 then
        failwith
          (Printf.sprintf "Buffer_pool.clear: page %d is still pinned"
             f.page_id);
      write_back t f)
    t.frames;
  reset_frames t

(* ---- commit & group commit ----

   A commit request stages nothing but the intent: the dirty-page images
   a commit marker must cover are captured once, at {!commit_force}, for
   the whole batch. Requests in a batch are therefore durable only
   together — which is sound exactly because nobody acknowledges them
   until the force returns. The [logged] flag additionally keeps a page
   whose content is already imaged in the journal (it stayed dirty under
   the lazy write-back policy) from being re-logged batch after batch. *)

let log_dirty t =
  Hashtbl.iter
    (fun _ f ->
      if f.dirty && not f.logged then begin
        stamp t f.data;
        log_write t f
      end)
    t.frames

let commit_request t = t.staged_commits <- t.staged_commits + 1

let pending_commits t = t.staged_commits

let commit_force t =
  let n = t.staged_commits in
  if n > 0 then begin
    (match t.journal with
    | None -> flush t
    | Some j ->
        log_dirty t;
        Journal.append j Journal.Commit;
        Journal.force j);
    t.staged_commits <- 0;
    t.commit_batches <- t.commit_batches + 1
  end;
  n

let commit_batches t = t.commit_batches

let commit t =
  commit_request t;
  ignore (commit_force t)

let crash ?(force = false) t =
  if not force then
    Hashtbl.iter
      (fun _ f ->
        if f.pins > 0 then
          failwith
            (Printf.sprintf "Buffer_pool.crash: page %d is still pinned"
               f.page_id))
      t.frames;
  t.staged_commits <- 0;
  (* Log bytes appended but never forced die with the machine. *)
  (match t.journal with Some j -> Journal.drop_unforced j | None -> ());
  reset_frames t

module Stats = struct
  type pool = t

  type t = {
    logical_reads : int;
    hits : int;
    misses : int;
    evictions : int;
  }

  let get (p : pool) =
    { logical_reads = p.logical_reads; hits = p.hits; misses = p.misses;
      evictions = p.evictions }

  let reset (p : pool) =
    p.logical_reads <- 0;
    p.hits <- 0;
    p.misses <- 0;
    p.evictions <- 0

  let pp ppf s =
    Format.fprintf ppf "logical=%d hits=%d misses=%d evictions=%d"
      s.logical_reads s.hits s.misses s.evictions
end
