exception Corrupt_page of int

(* A frame record and its buffers outlive the page they hold: a miss
   reuses the record, data buffer and shadow buffer of the slot it
   takes, so a fault allocates nothing once every slot has held a page.
   A page's bytes are therefore valid only while it is pinned. *)
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
}

(* Residency and replacement are flat arrays over frame slots
   [0 .. capacity - 1]. Slots [0 .. used - 1] hold the resident pages.
   [slot_of] maps a page id to its slot, or -1; page ids are the
   device's dense block numbers, so it grows by doubling as pages
   appear. The LRU ring links slots through [prev] and [next], with the
   sentinel at slot [capacity]; a slot off the ring is self-linked.
   Nothing on a hit writes a pointer. *)
type t = {
  dev : Block_device.t;
  capacity : int;
  checksums : bool;
  mutable slot_of : int array; (* page id -> slot, -1 when absent *)
  frames : frame array; (* slot -> frame *)
  mutable used : int; (* resident pages: slots [0 .. used - 1] *)
  prev : int array; (* ring over slots; [next.(capacity)] is MRU *)
  next : int array; (* and [prev.(capacity)] is LRU *)
  mutable pinned : int; (* frames with pins > 0 *)
  mutable journal : Journal.t option;
  before : Bytes.t; (* device image read as a frame's first log base *)
  mutable spare : Bytes.t;
      (* the buffer the next fault reads into ([Bytes.empty] until the
         first one): a page is verified there before anything is evicted,
         and the data buffer of the slot it takes becomes the next spare *)
  mutable staged_commits : int; (* commit requests awaiting a marker *)
  mutable commit_batches : int;
  mutable logical_reads : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* ---- the ring over slots ---- *)

let ring_remove t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p;
  t.prev.(s) <- s;
  t.next.(s) <- s

(* Insert an off-ring slot at the MRU end (right after the sentinel). *)
let ring_push_mru t s =
  let head = t.next.(t.capacity) in
  t.next.(s) <- head;
  t.prev.(s) <- t.capacity;
  t.prev.(head) <- s;
  t.next.(t.capacity) <- s

let create ?(capacity = 200) ?(checksums = false) dev =
  if capacity < 1 then
    invalid_arg "Buffer_pool.create: capacity must be positive";
  { dev; capacity; checksums;
    slot_of = Array.make (max 64 (Block_device.allocated dev)) (-1);
    frames =
      Array.init capacity (fun _ ->
          { page_id = -1; data = Bytes.empty; dirty = false; logged = false;
            shadow = Bytes.empty; shadowed = false; pins = 0 });
    used = 0; prev = Array.init (capacity + 1) Fun.id;
    next = Array.init (capacity + 1) Fun.id; pinned = 0; journal = None;
    before = Bytes.create (Block_device.block_size dev); spare = Bytes.empty;
    staged_commits = 0; commit_batches = 0; logical_reads = 0; hits = 0;
    misses = 0; evictions = 0 }

(* The slot of page [id], or -1: an id past the table's end, or a
   negative one, is not resident. *)
let find t id =
  if id >= 0 && id < Array.length t.slot_of then
    Array.unsafe_get t.slot_of id
  else -1

let set_slot t id s =
  let len = Array.length t.slot_of in
  if id >= len then begin
    let grown = Array.make (max (id + 1) (2 * len)) (-1) in
    Array.blit t.slot_of 0 grown 0 len;
    t.slot_of <- grown
  end;
  t.slot_of.(id) <- s

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
let cached t = t.used
let resident t page_id = find t page_id >= 0
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

(* Evict the least-recently-used unpinned page to make room: the tail of
   the ring, O(1). Pinned slots are off the ring, so an empty ring means
   every frame is pinned. The victim's slot leaves the ring and the page
   table; it is the caller's to reuse. *)
let evict_one t =
  let victim = t.prev.(t.capacity) in
  if victim = t.capacity then all_pinned ();
  let frame = t.frames.(victim) in
  write_back t frame;
  ring_remove t victim;
  t.slot_of.(frame.page_id) <- -1;
  t.evictions <- t.evictions + 1;
  Obs.Counters.incr_pool_eviction ();
  victim

(* The spare buffer, created on first use. *)
let spare t =
  if t.spare == Bytes.empty then t.spare <- Bytes.create (dev_size t);
  t.spare

(* Install the page now held in the spare buffer in the next unused
   slot, or at capacity in the victim's; the slot's old data buffer
   ([Bytes.empty] the first time a slot is used) becomes the spare. *)
let install t page_id ~dirty ~pins =
  let slot =
    if t.used < t.capacity then begin
      t.used <- t.used + 1;
      t.used - 1
    end
    else evict_one t
  in
  let frame = t.frames.(slot) in
  let data = t.spare in
  t.spare <- frame.data;
  frame.page_id <- page_id;
  frame.data <- data;
  frame.dirty <- dirty;
  frame.logged <- false;
  frame.shadowed <- false;
  frame.pins <- pins;
  if pins > 0 then t.pinned <- t.pinned + 1 else ring_push_mru t slot;
  set_slot t page_id slot;
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
  let slot = find t page_id in
  if slot >= 0 then begin
    let frame = t.frames.(slot) in
    t.hits <- t.hits + 1;
    Obs.Counters.incr_pool_hit ();
    if frame.pins = 0 then begin
      (* Pinned slots live off the ring: they can never be reached by
         the eviction path, whatever the replacement pressure. *)
      ring_remove t slot;
      t.pinned <- t.pinned + 1
    end;
    frame.pins <- frame.pins + 1;
    frame.data
  end
  else begin
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
  end

let unpin t page_id ~dirty =
  let slot = find t page_id in
  if slot < 0 then
    invalid_arg
      (Printf.sprintf
         "Buffer_pool.unpin: page %d is not resident (evicted, or never \
          pinned)" page_id);
  let frame = t.frames.(slot) in
  if frame.pins = 0 then
    invalid_arg
      (Printf.sprintf
         "Buffer_pool.unpin: page %d is not pinned (double unpin)" page_id);
  frame.pins <- frame.pins - 1;
  if dirty then begin
    frame.dirty <- true;
    (* Content (presumably) changed: any journaled image is stale. *)
    frame.logged <- false
  end;
  if frame.pins = 0 then begin
    t.pinned <- t.pinned - 1;
    ring_push_mru t slot
  end

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

(* Apply [f] to the resident frames, in slot order. *)
let iter_frames t f =
  for s = 0 to t.used - 1 do
    f t.frames.(s)
  done

let flush t = iter_frames t (write_back t)

let check_unpinned what t =
  iter_frames t (fun f ->
      if f.pins > 0 then
        failwith
          (Printf.sprintf "Buffer_pool.%s: page %d is still pinned" what
             f.page_id))

(* Drop every frame: the page table forgets the resident pages and every
   slot leaves the ring. Frame records and buffers stay for reuse. *)
let reset_frames t =
  iter_frames t (fun f -> t.slot_of.(f.page_id) <- -1);
  t.used <- 0;
  for s = 0 to t.capacity do
    t.prev.(s) <- s;
    t.next.(s) <- s
  done;
  t.pinned <- 0

let clear t =
  check_unpinned "clear" t;
  flush t;
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
  iter_frames t (fun f ->
      if f.dirty && not f.logged then begin
        stamp t f.data;
        log_write t f
      end)

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
  if not force then check_unpinned "crash" t;
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
