(* Page layout:
     bytes 2-3   slots in use high-water mark (uint16)
     bytes 4-5   occupied row count (uint16)
     bytes 8-15  next page id (-1 at the end of the chain)
     bytes 16..  occupancy bitmap, ceil(cap/8) bytes
     rows        row i at [rows_off + i * 8 * row_width]

   Meta page:
     0 magic   8 row_width   16 count   24 first_page
     32 last_page   40 page_count *)

type rowid = int

type t = {
  pool : Storage.Buffer_pool.t;
  meta_page : int;
  row_width : int;
  cap : int;        (* slots per page *)
  bitmap_size : int;
  rows_off : int;
  mutable count : int;
  mutable first_page : int;
  mutable last_page : int;
  mutable page_count : int;
  mutable free_slots : int list; (* rowids freed by deletions *)
  mutable walked : bool;
      (* [free_slots] covers the whole chain. A reopened heap leaves the
         walk that rebuilds it to its first local insert or delete: a
         read-only standby, which reopens per applied batch, never pays
         it. *)
}

let magic = 0x52494845 (* "RIHE" *)
let header = 16

let get_i64 buf off = Int64.to_int (Bytes.get_int64_be buf off)
let set_i64 buf off v = Bytes.set_int64_be buf off (Int64.of_int v)

let bit_get buf slot = Char.code (Bytes.get buf (header + (slot / 8))) land (1 lsl (slot mod 8)) <> 0

let bit_set buf slot v =
  let off = header + (slot / 8) in
  let b = Char.code (Bytes.get buf off) in
  let m = 1 lsl (slot mod 8) in
  Bytes.set buf off (Char.chr (if v then b lor m else b land lnot m))

let geometry ~block_size ~row_width =
  let fits cap = header + ((cap + 7) / 8) + (cap * 8 * row_width) <= block_size in
  let cap = ref (((block_size - header) * 8) / ((64 * row_width) + 1)) in
  while !cap > 0 && not (fits !cap) do decr cap done;
  !cap

let create pool ~row_width =
  if row_width < 1 then invalid_arg "Heap.create: row width must be positive";
  let block_size = Storage.Buffer_pool.block_size pool in
  let cap = geometry ~block_size ~row_width in
  if cap < 4 then
    invalid_arg
      (Printf.sprintf "Heap.create: block size %d holds < 4 rows of width %d"
         block_size row_width);
  let bitmap_size = (cap + 7) / 8 in
  let meta_page = Storage.Buffer_pool.alloc pool in
  let t =
    { pool; meta_page; row_width; cap; bitmap_size; rows_off = header + bitmap_size;
      count = 0; first_page = -1; last_page = -1; page_count = 0;
      free_slots = []; walked = true }
  in
  Storage.Buffer_pool.with_page pool meta_page ~dirty:true (fun buf ->
      set_i64 buf 0 magic;
      set_i64 buf 8 row_width;
      set_i64 buf 16 0;
      set_i64 buf 24 (-1);
      set_i64 buf 32 (-1);
      set_i64 buf 40 0);
  t

let sync_meta t =
  Storage.Buffer_pool.with_page t.pool t.meta_page ~dirty:true (fun buf ->
      set_i64 buf 16 t.count;
      set_i64 buf 24 t.first_page;
      set_i64 buf 32 t.last_page;
      set_i64 buf 40 t.page_count)

let row_width t = t.row_width
let count t = t.count
let page_count t = t.page_count
let meta_page t = t.meta_page

let open_existing pool ~meta_page =
  let fields =
    Storage.Buffer_pool.with_page pool meta_page ~dirty:false (fun buf ->
        Array.init 6 (fun i -> get_i64 buf (8 * i)))
  in
  if fields.(0) <> magic then
    invalid_arg
      (Printf.sprintf "Heap.open_existing: page %d is not a heap meta page"
         meta_page);
  let row_width = fields.(1) in
  let block_size = Storage.Buffer_pool.block_size pool in
  let cap = geometry ~block_size ~row_width in
  { pool; meta_page; row_width; cap; bitmap_size = (cap + 7) / 8;
    rows_off = header + ((cap + 7) / 8); count = fields.(2);
    first_page = fields.(3); last_page = fields.(4);
    page_count = fields.(5); free_slots = []; walked = false }

(* One pass over the chain rebuilds the free-slot list of a reopened
   heap. It runs before the first local insert or delete changes a
   bitmap, so the list (and the rowids reuse hands out) is exactly the
   one an eager walk at open would have built. *)
let walk_free_slots t =
  if not t.walked then begin
    (* built aside, so a fault mid-walk leaves the heap unwalked *)
    let rec walk page free =
      if page < 0 then free
      else
        let free = ref free in
        let next =
          Storage.Buffer_pool.with_page t.pool page ~dirty:false (fun buf ->
              let hwm = Bytes.get_uint16_be buf 2 in
              for slot = hwm - 1 downto 0 do
                if not (bit_get buf slot) then
                  free := ((page * t.cap) + slot) :: !free
              done;
              get_i64 buf 8)
        in
        walk next !free
    in
    t.free_slots <- walk t.first_page [];
    t.walked <- true
  end

let read_row t buf slot =
  Array.init t.row_width (fun i ->
      get_i64 buf (t.rows_off + (slot * 8 * t.row_width) + (8 * i)))

let write_row t buf slot row =
  for i = 0 to t.row_width - 1 do
    set_i64 buf (t.rows_off + (slot * 8 * t.row_width) + (8 * i)) row.(i)
  done

let new_page t =
  let pid = Storage.Buffer_pool.alloc t.pool in
  Storage.Buffer_pool.with_page t.pool pid ~dirty:true (fun buf ->
      Bytes.set_uint16_be buf 2 0;
      Bytes.set_uint16_be buf 4 0;
      set_i64 buf 8 (-1));
  if t.first_page < 0 then t.first_page <- pid
  else
    Storage.Buffer_pool.with_page t.pool t.last_page ~dirty:true (fun buf ->
        set_i64 buf 8 pid);
  t.last_page <- pid;
  t.page_count <- t.page_count + 1;
  pid

let insert t row =
  if Array.length row <> t.row_width then
    invalid_arg
      (Printf.sprintf "Heap.insert: row width %d, expected %d"
         (Array.length row) t.row_width);
  walk_free_slots t;
  match t.free_slots with
  | rowid :: rest ->
      (* Reuse a slot freed by a deletion. *)
      let page = rowid / t.cap and slot = rowid mod t.cap in
      Storage.Buffer_pool.with_page t.pool page ~dirty:true (fun buf ->
          assert (not (bit_get buf slot));
          bit_set buf slot true;
          Bytes.set_uint16_be buf 4 (Bytes.get_uint16_be buf 4 + 1);
          write_row t buf slot row);
      t.free_slots <- rest;
      t.count <- t.count + 1;
      sync_meta t;
      rowid
  | [] ->
  let page =
    if t.last_page < 0 then new_page t
    else
      let full =
        Storage.Buffer_pool.with_page t.pool t.last_page ~dirty:false
          (fun buf -> Bytes.get_uint16_be buf 2 >= t.cap)
      in
      if full then new_page t else t.last_page
  in
  let slot =
    Storage.Buffer_pool.with_page t.pool page ~dirty:true (fun buf ->
        let hwm = Bytes.get_uint16_be buf 2 in
        let occ = Bytes.get_uint16_be buf 4 in
        Bytes.set_uint16_be buf 2 (hwm + 1);
        Bytes.set_uint16_be buf 4 (occ + 1);
        bit_set buf hwm true;
        write_row t buf hwm row;
        hwm)
  in
  t.count <- t.count + 1;
  sync_meta t;
  (page * t.cap) + slot

let locate t rowid =
  let page = rowid / t.cap and slot = rowid mod t.cap in
  if rowid < 0 then None else Some (page, slot)

let fetch t rowid =
  match locate t rowid with
  | None -> None
  | Some (page, slot) -> (
      match
        Storage.Buffer_pool.with_page t.pool page ~dirty:false (fun buf ->
            if slot < Bytes.get_uint16_be buf 2 && bit_get buf slot then
              Some (read_row t buf slot)
            else None)
      with
      | exception Invalid_argument _ -> None
      | r -> r)

let delete t rowid =
  walk_free_slots t;
  match locate t rowid with
  | None -> false
  | Some (page, slot) ->
      let removed =
        Storage.Buffer_pool.with_page t.pool page ~dirty:true (fun buf ->
            if slot < Bytes.get_uint16_be buf 2 && bit_get buf slot then begin
              bit_set buf slot false;
              Bytes.set_uint16_be buf 4 (Bytes.get_uint16_be buf 4 - 1);
              true
            end
            else false)
      in
      if removed then begin
        t.count <- t.count - 1;
        t.free_slots <- rowid :: t.free_slots;
        sync_meta t
      end;
      removed

let update t rowid row =
  if Array.length row <> t.row_width then
    invalid_arg
      (Printf.sprintf "Heap.update: row width %d, expected %d"
         (Array.length row) t.row_width);
  match locate t rowid with
  | None -> false
  | Some (page, slot) -> (
      match
        Storage.Buffer_pool.with_page t.pool page ~dirty:true (fun buf ->
            if slot < Bytes.get_uint16_be buf 2 && bit_get buf slot then begin
              write_row t buf slot row;
              true
            end
            else false)
      with
      | exception Invalid_argument _ -> false
      | r -> r)

(* External cursor: streams the heap page by page. Only the occupied
   rows of the page under the cursor are materialized (one pin per page,
   released before any row is handed out), so a scan holds O(slots per
   page) memory however large the table is. *)
type cursor = {
  h : t;
  mutable next_page : int;              (* -1 = chain exhausted *)
  mutable batch : (rowid * int array) array; (* rows of the current page *)
  mutable pos : int;
}

let cursor t = { h = t; next_page = t.first_page; batch = [||]; pos = 0 }

let load_page h page =
  Storage.Buffer_pool.with_page h.pool page ~dirty:false (fun buf ->
      let hwm = Bytes.get_uint16_be buf 2 in
      let rows = ref [] in
      for slot = hwm - 1 downto 0 do
        if bit_get buf slot then
          rows := ((page * h.cap) + slot, read_row h buf slot) :: !rows
      done;
      (Array.of_list !rows, get_i64 buf 8))

let rec next c =
  if c.pos < Array.length c.batch then begin
    let r = c.batch.(c.pos) in
    c.pos <- c.pos + 1;
    Some r
  end
  else if c.next_page < 0 then None
  else begin
    let batch, next_page = load_page c.h c.next_page in
    c.batch <- batch;
    c.pos <- 0;
    c.next_page <- next_page;
    next c
  end

let iter t f =
  let c = cursor t in
  let rec go () =
    match next c with
    | Some (rid, row) ->
        f rid row;
        go ()
    | None -> ()
  in
  go ()

let fold t f acc =
  let acc = ref acc in
  iter t (fun rid row -> acc := f !acc rid row);
  !acc

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let rec go page seen total last =
    if page < 0 then (seen, total, last)
    else
      let occ_bits, occ_field, hwm, next =
        Storage.Buffer_pool.with_page t.pool page ~dirty:false (fun buf ->
            let hwm = Bytes.get_uint16_be buf 2 in
            let occ = ref 0 in
            for slot = 0 to hwm - 1 do
              if bit_get buf slot then incr occ
            done;
            (!occ, Bytes.get_uint16_be buf 4, hwm, get_i64 buf 8))
      in
      if hwm > t.cap then fail "heap page %d exceeds capacity" page;
      if occ_bits <> occ_field then
        fail "heap page %d: bitmap %d vs occupancy field %d" page occ_bits
          occ_field;
      go next (seen + 1) (total + occ_bits) page
  in
  let pages, total, last = go t.first_page 0 0 (-1) in
  if pages <> t.page_count then
    fail "heap page count %d, recorded %d" pages t.page_count;
  if total <> t.count then fail "heap row count %d, recorded %d" total t.count;
  if last <> t.last_page then
    fail "heap last page %d, recorded %d" last t.last_page
