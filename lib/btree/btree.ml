type key = int array

let compare_keys (a : key) (b : key) =
  let n = Array.length a in
  assert (n = Array.length b);
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Page layout.

   Every page starts with a 16-byte header:
     byte 0       node tag: 0 = leaf, 1 = internal
     bytes 2-3    number of entries (uint16)
     bytes 8-15   leaf: page id of the next leaf (-1 at the end);
                  internal: page id of child 0
   Entries follow from byte 16 at a fixed stride:
     leaf         entry i is key i, 8 bytes per component (stride 8*k)
     internal     entry i is key i, then child i+1 (stride 8*k + 8)
   so every edit of either kind opens a one-entry gap, closes one, or
   moves a run of entries to another page. Past the last entry, up to
   the checksum trailer, every byte is zero: Journal.delta reads a
   shift off the used end, and [check_invariants] verifies it.

   The meta page holds the tree descriptor:
     0  magic   8  key_width   16  root   24  count
     32 height  40 free list head (-1 none)   48 page_count
   Free pages link through their first 8 bytes and are zero after. *)
(* ------------------------------------------------------------------ *)

let magic = 0x52495442 (* "RITB" *)
let header_size = 16

type t = {
  pool : Storage.Buffer_pool.t;
  meta_page : int;
  key_width : int;
  leaf_cap : int;
  node_cap : int;
  mutable root : int;
  mutable count : int;
  mutable height : int;
  mutable free_head : int;
  mutable page_count : int;
}

let pool t = t.pool
let key_width t = t.key_width
let meta_page t = t.meta_page
let count t = t.count
let height t = t.height
let page_count t = t.page_count
let leaf_capacity t = t.leaf_cap

let get_i64 buf off = Int64.to_int (Bytes.get_int64_be buf off)
let set_i64 buf off v = Bytes.set_int64_be buf off (Int64.of_int v)

let peek t pid f = Storage.Buffer_pool.with_page t.pool pid ~dirty:false f
let edit t pid f = Storage.Buffer_pool.with_page t.pool pid ~dirty:true f

let sync_meta t =
  edit t t.meta_page (fun buf ->
      set_i64 buf 0 magic;
      set_i64 buf 8 t.key_width;
      set_i64 buf 16 t.root;
      set_i64 buf 24 t.count;
      set_i64 buf 32 t.height;
      set_i64 buf 40 t.free_head;
      set_i64 buf 48 t.page_count)

let alloc_page t =
  t.page_count <- t.page_count + 1;
  if t.free_head < 0 then Storage.Buffer_pool.alloc t.pool
  else begin
    let pid = t.free_head in
    t.free_head <- peek t pid (fun buf -> get_i64 buf 0);
    pid
  end

let free_page t pid =
  t.page_count <- t.page_count - 1;
  edit t pid (fun buf ->
      Bytes.fill buf 8 (Storage.Buffer_pool.block_size t.pool - 8) '\000';
      set_i64 buf 0 t.free_head);
  t.free_head <- pid

(* ------------------------------------------------------------------ *)
(* Entries in place *)

let read_key t buf off =
  Array.init t.key_width (fun i -> get_i64 buf (off + (8 * i)))

let write_key t buf off (k : key) =
  for i = 0 to t.key_width - 1 do
    set_i64 buf (off + (8 * i)) k.(i)
  done

let leaf_stride t = 8 * t.key_width
let node_stride t = (8 * t.key_width) + 8
let entry stride i = header_size + (i * stride)
let is_leaf buf = Bytes.get buf 0 = '\000'
let nkeys buf = Bytes.get_uint16_be buf 2
let set_nkeys buf n = Bytes.set_uint16_be buf 2 n

(* Make a zero page — fresh, or free past its link — an empty node. *)
let init_page buf ~leaf ~next =
  set_i64 buf 0 0;
  if not leaf then Bytes.set buf 0 '\001';
  set_i64 buf 8 next

(* Keep the first [s] of a page's [n] entries; zero the rest. *)
let cut buf ~stride ~n s =
  Bytes.fill buf (entry stride s) ((n - s) * stride) '\000';
  set_nkeys buf s

(* Append the entries of [run] to a page of [n] entries. *)
let append buf ~stride ~n run =
  Bytes.blit run 0 buf (entry stride n) (Bytes.length run);
  set_nkeys buf (n + (Bytes.length run / stride))

(* Open a one-entry gap at slot [i] of a page of [n] entries and copy
   the entry [e] into it. *)
let put_entry buf ~n i e =
  let stride = Bytes.length e in
  let off = entry stride i in
  Bytes.blit buf off buf (off + stride) ((n - i) * stride);
  Bytes.blit e 0 buf off stride;
  set_nkeys buf (n + 1)

(* Close slot [i] of a page of [n] entries. *)
let drop_entry buf ~stride ~n i =
  let off = entry stride i in
  Bytes.blit buf (off + stride) buf off ((n - i - 1) * stride);
  cut buf ~stride ~n (n - 1)

(* ------------------------------------------------------------------ *)
(* Construction *)

let capacities ~block_size ~key_width =
  let leaf_cap = (block_size - header_size) / (8 * key_width) in
  let node_cap = (block_size - header_size) / ((8 * key_width) + 8) in
  (leaf_cap, node_cap)

let validate_geometry ~block_size ~key_width =
  if key_width < 1 || key_width > 15 then
    invalid_arg
      (Printf.sprintf "Btree: key width %d out of range 1..15" key_width);
  let leaf_cap, node_cap = capacities ~block_size ~key_width in
  if leaf_cap < 4 || node_cap < 4 then
    invalid_arg
      (Printf.sprintf
         "Btree: block size %d too small for key width %d (fanout < 4)"
         block_size key_width)

let create pool ~key_width =
  let block_size = Storage.Buffer_pool.block_size pool in
  validate_geometry ~block_size ~key_width;
  let leaf_cap, node_cap = capacities ~block_size ~key_width in
  let meta_page = Storage.Buffer_pool.alloc pool in
  let root = Storage.Buffer_pool.alloc pool in
  let t =
    { pool; meta_page; key_width; leaf_cap; node_cap; root; count = 0;
      height = 1; free_head = -1; page_count = 1 }
  in
  edit t root (fun buf -> init_page buf ~leaf:true ~next:(-1));
  sync_meta t;
  t

let open_existing pool ~meta_page =
  let fields =
    Storage.Buffer_pool.with_page pool meta_page ~dirty:false (fun buf ->
        Array.init 7 (fun i -> get_i64 buf (8 * i)))
  in
  if fields.(0) <> magic then
    invalid_arg
      (Printf.sprintf "Btree.open_existing: page %d is not a B+-tree meta page"
         meta_page);
  let key_width = fields.(1) in
  let block_size = Storage.Buffer_pool.block_size pool in
  validate_geometry ~block_size ~key_width;
  let leaf_cap, node_cap = capacities ~block_size ~key_width in
  { pool; meta_page; key_width; leaf_cap; node_cap; root = fields.(2);
    count = fields.(3); height = fields.(4); free_head = fields.(5);
    page_count = fields.(6) }

(* ------------------------------------------------------------------ *)
(* In-place search.

   Descents and scans read the pinned page bytes directly: a probe is
   compared against the key components at their offsets, so no key is
   decoded unless a caller receives it. *)

(* Compare the key stored at byte [off] of [buf] with [probe], from
   component [i] of [width] on. *)
let rec compare_at buf off (probe : key) i width =
  if i = width then 0
  else
    let c = Int.compare (get_i64 buf (off + (8 * i))) probe.(i) in
    if c <> 0 then c else compare_at buf off probe (i + 1) width

(* Among the entries [from .. n-1] of a page laid out at [stride], the
   first whose key is [>= probe], or [> probe] when [above]. *)
let bisect t buf ~stride ~from ~n ~above probe =
  let lo = ref from and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_at buf (entry stride mid) probe 0 t.key_width in
    if c < 0 || (above && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* The slot of [k] in leaf page [buf], or [-1 - pos] when absent and
   [pos] is where it would go. *)
let find t buf k =
  let n = nkeys buf and stride = leaf_stride t in
  let pos = bisect t buf ~stride ~from:0 ~n ~above:false k in
  if pos < n && compare_at buf (entry stride pos) k 0 t.key_width = 0 then pos
  else -1 - pos

let child_at t buf slot =
  if slot = 0 then get_i64 buf 8
  else get_i64 buf (entry (node_stride t) (slot - 1) + (8 * t.key_width))

let at_leaf = (-1, -1)

(* The slot of the child that [probe] routes to in the internal page
   [buf]: the number of separators at or below it. *)
let child_slot t buf probe =
  bisect t buf ~stride:(node_stride t) ~from:0 ~n:(nkeys buf) ~above:true
    probe

(* The descent step of every write: the slot of the child that [probe]
   routes to in page [pid] and that child's page id, or [at_leaf]. *)
let route t pid probe =
  peek t pid (fun buf ->
      if is_leaf buf then at_leaf
      else
        let slot = child_slot t buf probe in
        (slot, child_at t buf slot))

let check_width t k =
  if Array.length k <> t.key_width then
    invalid_arg
      (Printf.sprintf "Btree: key width %d, expected %d" (Array.length k)
         t.key_width)

(* [route] for a read, down to the leaf, one pin per level: [f x buf
   probe] reads the leaf [probe] routes to under the pin that routed
   there. [f] takes its context as [x], so a scan, which descends once
   per probe, passes a toplevel function and allocates no closure. *)
let rec at_leaf t pid probe f x =
  let buf = Storage.Buffer_pool.pin t.pool pid in
  if is_leaf buf then begin
    let v = f x buf probe in
    Storage.Buffer_pool.unpin t.pool pid ~dirty:false;
    v
  end
  else begin
    let child = child_at t buf (child_slot t buf probe) in
    Storage.Buffer_pool.unpin t.pool pid ~dirty:false;
    at_leaf t child probe f x
  end

let mem t k =
  check_width t k;
  at_leaf t t.root k (fun t buf k -> find t buf k >= 0) t

(* ------------------------------------------------------------------ *)
(* Updates.

   An update pins one page at a time, in a fixed order: it reads a page,
   then edits it in place. Entries that change pages — the half a split
   moves right, a borrowed entry, a merged page — are copied out under
   the read pin of their source page. *)

type ins_result = Done | Duplicate | Split of Bytes.t
(* [Split e]: the page split, and its parent gains the entry [e] — the
   new right page's first key, then its page id. *)

(* Under the read pin of a page of [n] entries that gains one at [pos]:
   empty if the page has room, else a copy of the entries a split moves
   to the new right page, the upper half of the [n + 1]. *)
let split_run buf ~stride ~cap ~n pos =
  if n < cap then Bytes.empty
  else
    let mid = (n + 1) / 2 in
    let s = if pos < mid then mid - 1 else mid in
    Bytes.sub buf (entry stride s) ((n - s) * stride)

(* Put entry [e] at slot [pos] of page [pid], whose [n] entries and
   [split_run] the caller read. A split's right leaf inherits [next];
   a right internal page hands its first key up and keeps that entry's
   child as its child 0. *)
let place t pid ~leaf ~n ~pos ~next e run =
  let stride = Bytes.length e in
  if Bytes.length run = 0 then begin
    edit t pid (fun buf -> put_entry buf ~n pos e);
    Done
  end
  else begin
    let s = n - (Bytes.length run / stride) and left = pos < (n + 1) / 2 in
    let kb = 8 * t.key_width in
    let right = alloc_page t in
    let sep =
      edit t right (fun buf ->
          init_page buf ~leaf ~next;
          append buf ~stride ~n:0 run;
          if not left then put_entry buf ~n:(n - s) (pos - s) e;
          let sep = Bytes.create (node_stride t) in
          Bytes.blit buf header_size sep 0 kb;
          set_i64 sep kb right;
          if not leaf then begin
            set_i64 buf 8 (get_i64 buf (header_size + kb));
            drop_entry buf ~stride ~n:(nkeys buf) 0
          end;
          sep)
    in
    edit t pid (fun buf ->
        cut buf ~stride ~n s;
        if leaf then set_i64 buf 8 right;
        if left then put_entry buf ~n:s pos e);
    Split sep
  end

(* [level] counts down to 1 at the leaves. *)
let rec ins t pid level k =
  if level = 1 then begin
    let stride = leaf_stride t in
    let n, at, next, run =
      peek t pid (fun buf ->
          let n = nkeys buf and at = find t buf k in
          ( n, at, get_i64 buf 8,
            if at >= 0 then Bytes.empty
            else split_run buf ~stride ~cap:t.leaf_cap ~n (-1 - at) ))
    in
    if at >= 0 then Duplicate
    else begin
      let e = Bytes.create stride in
      write_key t e 0 k;
      place t pid ~leaf:true ~n ~pos:(-1 - at) ~next e run
    end
  end
  else
    let slot, child = route t pid k in
    match ins t child (level - 1) k with
    | (Done | Duplicate) as r -> r
    | Split e ->
        let stride = node_stride t in
        let n, run =
          peek t pid (fun buf ->
              let n = nkeys buf in
              (n, split_run buf ~stride ~cap:t.node_cap ~n slot))
        in
        place t pid ~leaf:false ~n ~pos:slot ~next:(-1) e run

let insert t k =
  check_width t k;
  match ins t t.root t.height k with
  | Duplicate -> false
  | r ->
      (match r with
      | Split e ->
          let root = alloc_page t in
          edit t root (fun buf ->
              init_page buf ~leaf:false ~next:t.root;
              put_entry buf ~n:0 0 e);
          t.root <- root;
          t.height <- t.height + 1
      | Done | Duplicate -> ());
      t.count <- t.count + 1;
      sync_meta t;
      true

(* ------------------------------------------------------------------ *)
(* Deletion with borrow/merge rebalancing *)

let leaf_min t = t.leaf_cap / 2
let node_min t = t.node_cap / 2

(* Rebalance child [slot] of the internal page [pid] after a deletion
   left it under-full. Siblings share the parent, so a borrow rotates
   one entry through the parent's separator and a merge drops the
   separator. An internal child takes a separator down as an entry over
   the child 0 it displaces. *)
let fix_underflow t pid slot =
  let ns = node_stride t and kb = 8 * t.key_width in
  let lo = max 0 (slot - 1) in
  (* the children around [slot], and a copy of the separators between *)
  let np, child, lsib, rsib, seps =
    peek t pid (fun buf ->
        let np = nkeys buf in
        let sib i = if i >= 0 && i <= np then child_at t buf i else -1 in
        ( np, child_at t buf slot, sib (slot - 1), sib (slot + 1),
          Bytes.sub buf (entry ns lo) ((min np (slot + 1) - lo) * ns) ))
  in
  let down l c =
    let e = Bytes.create ns in
    Bytes.blit seps ((l - lo) * ns) e 0 kb;
    set_i64 e kb c;
    e
  in
  let leaf, size = peek t child (fun buf -> (is_leaf buf, nkeys buf)) in
  let least = if leaf then leaf_min t else node_min t in
  if size < least then begin
    let stride = if leaf then leaf_stride t else ns in
    let spare sib = sib >= 0 && peek t sib nkeys > least in
    let left_ok = spare lsib in
    let right_ok = spare rsib in
    if left_ok then begin
      let nl, last =
        peek t lsib (fun buf ->
            let nl = nkeys buf in
            (nl, Bytes.sub buf (entry stride (nl - 1)) stride))
      in
      edit t lsib (fun buf -> cut buf ~stride ~n:nl (nl - 1));
      edit t child (fun buf ->
          if leaf then put_entry buf ~n:size 0 last
          else begin
            put_entry buf ~n:size 0 (down (slot - 1) (get_i64 buf 8));
            set_i64 buf 8 (get_i64 last kb)
          end);
      edit t pid (fun buf -> Bytes.blit last 0 buf (entry ns (slot - 1)) kb)
    end
    else if right_ok then begin
      let first, c0 =
        peek t rsib (fun buf ->
            (Bytes.sub buf header_size stride, get_i64 buf 8))
      in
      let sep =
        edit t rsib (fun buf ->
            drop_entry buf ~stride ~n:(nkeys buf) 0;
            if leaf then Bytes.sub buf header_size kb
            else begin
              set_i64 buf 8 (get_i64 first kb);
              first
            end)
      in
      edit t child (fun buf ->
          put_entry buf ~n:size size (if leaf then first else down slot c0));
      edit t pid (fun buf -> Bytes.blit sep 0 buf (entry ns slot) kb)
    end
    else begin
      (* merge child [lo + 1] into child [lo] *)
      let lp, rp = if slot > 0 then (lsib, child) else (child, rsib) in
      let next, run =
        peek t rp (fun buf ->
            (get_i64 buf 8, Bytes.sub buf header_size (nkeys buf * stride)))
      in
      let nl = peek t lp nkeys in
      edit t lp (fun buf ->
          if leaf then begin
            append buf ~stride ~n:nl run;
            set_i64 buf 8 next
          end
          else begin
            put_entry buf ~n:nl nl (down lo next);
            append buf ~stride ~n:(nl + 1) run
          end);
      free_page t rp;
      edit t pid (fun buf -> drop_entry buf ~stride:ns ~n:np lo)
    end
  end

let rec del t pid level k =
  if level = 1 then begin
    let n, at = peek t pid (fun buf -> (nkeys buf, find t buf k)) in
    if at >= 0 then
      edit t pid (fun buf -> drop_entry buf ~stride:(leaf_stride t) ~n at);
    at >= 0
  end
  else
    let slot, child = route t pid k in
    let removed = del t child (level - 1) k in
    if removed then fix_underflow t pid slot;
    removed

let delete t k =
  check_width t k;
  let removed = del t t.root t.height k in
  if removed then begin
    t.count <- t.count - 1;
    (* Collapse the root while it is an internal node with one child. *)
    let rec collapse () =
      let only_child =
        peek t t.root (fun buf ->
            if is_leaf buf || nkeys buf > 0 then -1 else get_i64 buf 8)
      in
      if only_child >= 0 then begin
        let old = t.root in
        t.root <- only_child;
        t.height <- t.height - 1;
        free_page t old;
        collapse ()
      end
    in
    collapse ();
    sync_meta t
  end;
  removed

(* ------------------------------------------------------------------ *)
(* Range scans *)

let lo_pad t prefix =
  let p = Array.of_list prefix in
  if Array.length p > t.key_width then
    invalid_arg "Btree.lo_pad: prefix longer than key";
  Array.init t.key_width (fun i ->
      if i < Array.length p then p.(i) else min_int)

let hi_pad t prefix =
  let p = Array.of_list prefix in
  if Array.length p > t.key_width then
    invalid_arg "Btree.hi_pad: prefix longer than key";
  Array.init t.key_width (fun i ->
      if i < Array.length p then p.(i) else max_int)

(* A cursor holds a byte copy of the current leaf's keys from its
   position up to the first key above [hi]: the first [len] bytes of
   [run], a buffer it reuses for every leaf and every probe. It grows by
   doubling and never past one leaf's entries, which stay below the
   minor heap's largest block for 2 KB pages. [next_into] decodes the
   key at byte [pos] of it. [next_leaf] is [-1] once a copied run ended
   below the end of its leaf, or at the end of the chain. *)
type cursor = {
  tree : t;
  mutable hi : key;
  mutable run : Bytes.t;
  mutable len : int;
  mutable pos : int;
  mutable next_leaf : int;
}

(* Copy out of the pinned leaf [buf] the keys from slot [first] on, or
   from the first at or above [lo] when [first < 0], up to the first
   above [c.hi]. *)
let copy_run c buf ~first lo =
  let t = c.tree in
  let n = nkeys buf and stride = leaf_stride t in
  let first =
    if first >= 0 then first
    else bisect t buf ~stride ~from:0 ~n ~above:false lo
  in
  let stop = bisect t buf ~stride ~from:first ~n ~above:true c.hi in
  let len = (stop - first) * stride in
  if Bytes.length c.run < len then begin
    let grown = max len (2 * Bytes.length c.run) in
    c.run <- Bytes.create (min (t.leaf_cap * stride) grown)
  end;
  Bytes.blit buf (entry stride first) c.run 0 len;
  c.len <- len;
  c.pos <- 0;
  c.next_leaf <- (if stop < n then -1 else get_i64 buf 8)

(* The leaf a descent reaches is copied from under the pin it was routed
   with. *)
let copy_from_lo c buf lo = copy_run c buf ~first:(-1) lo
let descend c lo = at_leaf c.tree c.tree.root lo copy_from_lo c

let seek c ~lo ~hi =
  check_width c.tree lo;
  check_width c.tree hi;
  c.hi <- hi;
  (* One descent per probe: guard the span so the disabled path does
     not allocate a closure per probe. *)
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "btree.descend" (fun () -> descend c lo)
  else descend c lo

let cursor t ~lo ~hi =
  let c =
    { tree = t; hi; run = Bytes.empty; len = 0; pos = 0; next_leaf = -1 }
  in
  seek c ~lo ~hi;
  c

let rec next_into c (key : key) =
  if c.pos < c.len then begin
    for i = 0 to c.tree.key_width - 1 do
      key.(i) <- get_i64 c.run (c.pos + (8 * i))
    done;
    c.pos <- c.pos + leaf_stride c.tree;
    true
  end
  else if c.next_leaf < 0 then false
  else begin
    let pool = c.tree.pool and pid = c.next_leaf in
    copy_run c (Storage.Buffer_pool.pin pool pid) ~first:0 c.hi;
    Storage.Buffer_pool.unpin pool pid ~dirty:false;
    next_into c key
  end

let next c =
  let k = Array.make c.tree.key_width 0 in
  if next_into c k then Some k else None

let iter_range t ~lo ~hi f =
  let c = cursor t ~lo ~hi in
  let rec go () =
    match next c with
    | Some k ->
        f k;
        go ()
    | None -> ()
  in
  go ()

let fold_range t ~lo ~hi f acc =
  let c = cursor t ~lo ~hi in
  let rec go acc =
    match next c with Some k -> go (f acc k) | None -> acc
  in
  go acc

let range_list t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi (fun acc k -> k :: acc) [])

let iter t f =
  iter_range t ~lo:(lo_pad t []) ~hi:(hi_pad t []) f

let to_list t = range_list t ~lo:(lo_pad t []) ~hi:(hi_pad t [])

let min_key t =
  let c = cursor t ~lo:(lo_pad t []) ~hi:(hi_pad t []) in
  next c

let max_key t =
  at_leaf t t.root (hi_pad t [])
    (fun t buf _ ->
      let n = nkeys buf in
      if n = 0 then None
      else Some (read_key t buf (entry (leaf_stride t) (n - 1))))
    t

(* ------------------------------------------------------------------ *)
(* Bulk loading *)

let bulk_load ?(fill = 0.9) pool ~key_width seq =
  if not (fill > 0. && fill <= 1.) then
    invalid_arg (Printf.sprintf "Btree.bulk_load: fill %g not in (0, 1]" fill);
  let block_size = Storage.Buffer_pool.block_size pool in
  validate_geometry ~block_size ~key_width;
  let leaf_cap, node_cap = capacities ~block_size ~key_width in
  let meta_page = Storage.Buffer_pool.alloc pool in
  let t =
    { pool; meta_page; key_width; leaf_cap; node_cap; root = -1; count = 0;
      height = 1; free_head = -1; page_count = 0 }
  in
  let stride = leaf_stride t in
  let write_leaf pid keys ~next =
    edit t pid (fun buf ->
        init_page buf ~leaf:true ~next;
        Array.iteri (fun i k -> write_key t buf (entry stride i) k) keys;
        set_nkeys buf (Array.length keys))
  in
  let leaf_target = max 2 (int_of_float (fill *. float_of_int leaf_cap)) in
  let node_target = max 2 (int_of_float (fill *. float_of_int node_cap)) in
  (* Stream the sorted keys into chained leaves. *)
  let leaves = ref [] (* (first_key, pid) in reverse order *) in
  let pending = ref [] (* current leaf's keys, reversed *) in
  let pending_n = ref 0 in
  let prev = ref None in
  let prev_leaf = ref (-1) in
  let prev_leaf_keys = ref [||] in
  let flush_leaf () =
    if !pending_n > 0 then begin
      let keys = Array.of_list (List.rev !pending) in
      let pid = alloc_page t in
      if !prev_leaf >= 0 then
        write_leaf !prev_leaf !prev_leaf_keys ~next:pid;
      prev_leaf := pid;
      prev_leaf_keys := keys;
      leaves := (keys.(0), pid) :: !leaves;
      pending := [];
      pending_n := 0
    end
  in
  Seq.iter
    (fun k ->
      if Array.length k <> key_width then
        invalid_arg "Btree.bulk_load: key of wrong width";
      (match !prev with
      | Some p when compare_keys p k >= 0 ->
          invalid_arg "Btree.bulk_load: keys not strictly increasing"
      | Some _ | None -> ());
      prev := Some (Array.copy k);
      pending := k :: !pending;
      incr pending_n;
      t.count <- t.count + 1;
      if !pending_n >= leaf_target then flush_leaf ())
    seq;
  flush_leaf ();
  if !prev_leaf >= 0 then
    write_leaf !prev_leaf !prev_leaf_keys ~next:(-1);
  let level = List.rev !leaves in
  if level = [] then begin
    let root = alloc_page t in
    edit t root (fun buf -> init_page buf ~leaf:true ~next:(-1));
    t.root <- root;
    t.height <- 1
  end
  else begin
    (* Build internal levels bottom-up; each node's separator list is the
       first key of every child except the leftmost. *)
    let rec build level height =
      match level with
      | [ (_, pid) ] ->
          t.root <- pid;
          t.height <- height
      | _ ->
          let groups = ref [] and cur = ref [] and cur_n = ref 0 in
          List.iter
            (fun entry ->
              cur := entry :: !cur;
              incr cur_n;
              if !cur_n >= node_target + 1 then begin
                groups := List.rev !cur :: !groups;
                cur := [];
                cur_n := 0
              end)
            level;
          if !cur_n > 0 then begin
            (* Avoid a childless trailing node: steal from the previous
               group if the remainder is a singleton. *)
            match (!groups, !cur) with
            | g :: gs, [ single ] when List.length g > 2 ->
                let g_rev = List.rev g in
                let last = List.hd g_rev in
                let g' = List.rev (List.tl g_rev) in
                groups := [ last; single ] :: g' :: gs
            | _ -> groups := List.rev !cur :: !groups
          end;
          let next_level =
            List.rev_map
              (fun group ->
                match group with
                | [] -> assert false
                | (first_key, first_pid) :: rest ->
                    let pid = alloc_page t in
                    edit t pid (fun buf ->
                        init_page buf ~leaf:false ~next:first_pid;
                        List.iteri
                          (fun i (k, child) ->
                            let off = entry (node_stride t) i in
                            write_key t buf off k;
                            set_i64 buf (off + (8 * key_width)) child)
                          rest;
                        set_nkeys buf (List.length rest));
                    (first_key, pid))
              !groups
          in
          build next_level (height + 1)
    in
    build level 1
  end;
  sync_meta t;
  t

(* ------------------------------------------------------------------ *)
(* Invariant checking *)

let check_invariants ?(occupancy = true) t =
  let fail fmt = Format.kasprintf failwith fmt in
  let limit = Storage.Buffer_pool.block_size t.pool in
  let leaves_seen = ref [] and pages_seen = ref 0 in
  (* Checks the subtree at [pid], whose keys must lie in [lo, hi), and
     returns its depth and entry count. The page is checked under its
     pin; its children, each between two of its [bounds], after it. *)
  let rec walk pid ~is_root ~lo ~hi =
    incr pages_seen;
    let leaf, n, bounds, children =
      peek t pid (fun buf ->
          let leaf = is_leaf buf and n = nkeys buf in
          let kind, cap, least, stride =
            if leaf then ("leaf", t.leaf_cap, leaf_min t, leaf_stride t)
            else ("node", t.node_cap, node_min t, node_stride t)
          in
          if occupancy && (not is_root) && n < least then
            fail "%s %d under-full: %d < %d" kind pid n least;
          if is_root && (not leaf) && n < 1 then
            fail "internal root %d has no key" pid;
          if n > cap then fail "%s %d over-full" kind pid;
          let used = entry stride n in
          if not (Storage.Mem.is_zero (Bytes.sub buf used (limit - used))) then
            fail "%s %d has nonzero bytes past its last entry" kind pid;
          ( leaf, n,
            Array.init (n + 2) (fun i ->
                if i = 0 then lo
                else if i > n then hi
                else Some (read_key t buf (entry stride (i - 1)))),
            Array.init (if leaf then 0 else n + 1) (child_at t buf) ))
    in
    (* the keys ascend strictly, from [lo] on, to below [hi] *)
    for i = 1 to n + 1 do
      match (bounds.(i - 1), bounds.(i)) with
      | Some a, Some b when n > 0 && compare_keys a b >= if i = 1 then 1 else 0
        ->
          fail "page %d keys out of order or out of bounds" pid
      | _ -> ()
    done;
    if leaf then begin
      leaves_seen := pid :: !leaves_seen;
      (1, n)
    end
    else
      let subtrees =
        Array.mapi
          (fun i c -> walk c ~is_root:false ~lo:bounds.(i) ~hi:bounds.(i + 1))
          children
      in
      let depth = fst subtrees.(0) in
      if Array.exists (fun (d, _) -> d <> depth) subtrees then
        fail "node %d has uneven depths" pid;
      (depth + 1, Array.fold_left (fun acc (_, c) -> acc + c) 0 subtrees)
  in
  let depth, total = walk t.root ~is_root:true ~lo:None ~hi:None in
  if depth <> t.height then
    fail "height mismatch: walked %d, recorded %d" depth t.height;
  if total <> t.count then
    fail "count mismatch: walked %d, recorded %d" total t.count;
  if !pages_seen <> t.page_count then
    fail "page count mismatch: walked %d, recorded %d" !pages_seen
      t.page_count;
  (* The leaf chain must equal the in-order leaves. *)
  let in_order = List.rev !leaves_seen in
  let rec chain pid acc =
    if pid < 0 then List.rev acc
    else
      match peek t pid (fun buf -> (is_leaf buf, get_i64 buf 8)) with
      | false, _ -> fail "leaf chain reaches internal node %d" pid
      | true, next -> chain next (pid :: acc)
  in
  match in_order with
  | [] -> fail "tree has no leaves"
  | first :: _ ->
      if chain first [] <> in_order then fail "leaf chain broken"
