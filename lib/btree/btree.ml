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

let equal_keys a b = compare_keys a b = 0

(* ------------------------------------------------------------------ *)
(* Page layout.

   Every page starts with a 16-byte header:
     byte 0       node tag: 0 = leaf, 1 = internal
     bytes 2-3    number of keys (uint16)
     bytes 8-15   leaf: page id of the next leaf (-1 at the end);
                  internal: page id of child 0
   Entries follow from byte 16:
     leaf         key components, 8 bytes each (stride 8*k)
     internal     key followed by the right child id (stride 8*k + 8)

   The meta page holds the tree descriptor:
     0  magic   8  key_width   16  root   24  count
     32 height  40 free list head (-1 none)   48 page_count
   Free pages link through their first 8 bytes. *)
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

let sync_meta t =
  Storage.Buffer_pool.with_page t.pool t.meta_page ~dirty:true (fun buf ->
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
    let next =
      Storage.Buffer_pool.with_page t.pool pid ~dirty:false (fun buf -> get_i64 buf 0)
    in
    t.free_head <- next;
    pid
  end

let free_page t pid =
  t.page_count <- t.page_count - 1;
  Storage.Buffer_pool.with_page t.pool pid ~dirty:true (fun buf ->
      set_i64 buf 0 t.free_head);
  t.free_head <- pid

(* ------------------------------------------------------------------ *)
(* Node codec *)

type node =
  | Leaf of { keys : key array; next : int }
  | Node of { keys : key array; children : int array }
      (* |children| = |keys| + 1 *)

let read_key t buf off =
  Array.init t.key_width (fun i -> get_i64 buf (off + (8 * i)))

let write_key t buf off (k : key) =
  for i = 0 to t.key_width - 1 do
    set_i64 buf (off + (8 * i)) k.(i)
  done

let leaf_stride t = 8 * t.key_width
let node_stride t = (8 * t.key_width) + 8

let read_node t pid =
  Storage.Buffer_pool.with_page t.pool pid ~dirty:false (fun buf ->
      let tag = Char.code (Bytes.get buf 0) in
      let nkeys = Bytes.get_uint16_be buf 2 in
      if tag = 0 then
        let stride = leaf_stride t in
        let keys =
          Array.init nkeys (fun i ->
              read_key t buf (header_size + (i * stride)))
        in
        Leaf { keys; next = get_i64 buf 8 }
      else
        let stride = node_stride t in
        let keys =
          Array.init nkeys (fun i ->
              read_key t buf (header_size + (i * stride)))
        in
        let children =
          Array.init (nkeys + 1) (fun i ->
              if i = 0 then get_i64 buf 8
              else
                get_i64 buf
                  (header_size + ((i - 1) * stride) + (8 * t.key_width)))
        in
        Node { keys; children })

let write_node t pid node =
  Storage.Buffer_pool.with_page t.pool pid ~dirty:true (fun buf ->
      match node with
      | Leaf { keys; next } ->
          Bytes.set buf 0 '\000';
          Bytes.set_uint16_be buf 2 (Array.length keys);
          set_i64 buf 8 next;
          let stride = leaf_stride t in
          Array.iteri
            (fun i k -> write_key t buf (header_size + (i * stride)) k)
            keys
      | Node { keys; children } ->
          Bytes.set buf 0 '\001';
          Bytes.set_uint16_be buf 2 (Array.length keys);
          set_i64 buf 8 children.(0);
          let stride = node_stride t in
          Array.iteri
            (fun i k ->
              let off = header_size + (i * stride) in
              write_key t buf off k;
              set_i64 buf (off + (8 * t.key_width)) children.(i + 1))
            keys)

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
  write_node t root (Leaf { keys = [||]; next = -1 });
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

let is_leaf buf = Bytes.get buf 0 = '\000'
let nkeys buf = Bytes.get_uint16_be buf 2

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
    let c = compare_at buf (header_size + (mid * stride)) probe 0 t.key_width in
    if c < 0 || (above && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let child_at t buf slot =
  if slot = 0 then get_i64 buf 8
  else
    get_i64 buf
      (header_size + ((slot - 1) * node_stride t) + (8 * t.key_width))

let at_leaf = (-1, -1)

(* The one descent step, shared by every read and write: the slot of
   the child that [probe] routes to in page [pid] (the number of
   separators at or below it) and that child's page id, or [at_leaf]. *)
let route t pid probe =
  Storage.Buffer_pool.with_page t.pool pid ~dirty:false (fun buf ->
      if is_leaf buf then at_leaf
      else
        let slot =
          bisect t buf ~stride:(node_stride t) ~from:0 ~n:(nkeys buf)
            ~above:true probe
        in
        (slot, child_at t buf slot))

let check_width t k =
  if Array.length k <> t.key_width then
    invalid_arg
      (Printf.sprintf "Btree: key width %d, expected %d" (Array.length k)
         t.key_width)

let rec find_leaf t pid probe =
  match route t pid probe with
  | -1, _ -> pid
  | _, child -> find_leaf t child probe

let mem t k =
  check_width t k;
  let leaf = find_leaf t t.root k in
  Storage.Buffer_pool.with_page t.pool leaf ~dirty:false (fun buf ->
      let n = nkeys buf and stride = leaf_stride t in
      let pos = bisect t buf ~stride ~from:0 ~n ~above:false k in
      pos < n
      && compare_at buf (header_size + (pos * stride)) k 0 t.key_width = 0)

(* First index with keys.(i) >= probe, over a decoded page. *)
let bisect_left keys probe =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_keys keys.(mid) probe < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Array editing helpers *)

let insert_at arr pos v =
  let n = Array.length arr in
  Array.init (n + 1) (fun i ->
      if i < pos then arr.(i) else if i = pos then v else arr.(i - 1))

let remove_at arr pos =
  let n = Array.length arr in
  Array.init (n - 1) (fun i -> if i < pos then arr.(i) else arr.(i + 1))

(* ------------------------------------------------------------------ *)
(* Insertion *)

type ins_result = Done | Duplicate | Split of key * int

(* [level] counts down to 1 at the leaves: the descent routes through
   internal pages in place, and only a page being rewritten is
   decoded. *)
let rec ins t pid level k =
  if level = 1 then
    match read_node t pid with
    | Node _ -> assert false
    | Leaf { keys; next } ->
        let pos = bisect_left keys k in
        if pos < Array.length keys && equal_keys keys.(pos) k then Duplicate
        else
          let keys = insert_at keys pos k in
          if Array.length keys <= t.leaf_cap then begin
            write_node t pid (Leaf { keys; next });
            Done
          end
          else begin
            let mid = Array.length keys / 2 in
            let left = Array.sub keys 0 mid in
            let right = Array.sub keys mid (Array.length keys - mid) in
            let new_pid = alloc_page t in
            write_node t new_pid (Leaf { keys = right; next });
            write_node t pid (Leaf { keys = left; next = new_pid });
            Split (right.(0), new_pid)
          end
  else
    let slot, child = route t pid k in
    match ins t child (level - 1) k with
    | (Done | Duplicate) as r -> r
    | Split (sep, new_child) -> (
        match read_node t pid with
        | Leaf _ -> assert false
        | Node { keys; children } ->
            let keys = insert_at keys slot sep in
            let children = insert_at children (slot + 1) new_child in
            if Array.length keys <= t.node_cap then begin
              write_node t pid (Node { keys; children });
              Done
            end
            else begin
              (* Promote the middle separator. *)
              let mid = Array.length keys / 2 in
              let promoted = keys.(mid) in
              let lkeys = Array.sub keys 0 mid in
              let rkeys =
                Array.sub keys (mid + 1) (Array.length keys - mid - 1)
              in
              let lchildren = Array.sub children 0 (mid + 1) in
              let rchildren =
                Array.sub children (mid + 1) (Array.length children - mid - 1)
              in
              let new_pid = alloc_page t in
              write_node t new_pid
                (Node { keys = rkeys; children = rchildren });
              write_node t pid (Node { keys = lkeys; children = lchildren });
              Split (promoted, new_pid)
            end)

let insert t k =
  check_width t k;
  match ins t t.root t.height k with
  | Duplicate -> false
  | Done ->
      t.count <- t.count + 1;
      sync_meta t;
      true
  | Split (sep, new_child) ->
      let new_root = alloc_page t in
      write_node t new_root
        (Node { keys = [| sep |]; children = [| t.root; new_child |] });
      t.root <- new_root;
      t.height <- t.height + 1;
      t.count <- t.count + 1;
      sync_meta t;
      true

(* ------------------------------------------------------------------ *)
(* Deletion with borrow/merge rebalancing *)

let leaf_min t = t.leaf_cap / 2
let node_min t = t.node_cap / 2

let node_size = function
  | Leaf { keys; _ } -> Array.length keys
  | Node { keys; _ } -> Array.length keys

(* Rebalance [children.(slot)] of the internal node [pid] after a
   deletion left it under-full. Siblings share the parent, so a borrow
   rotates one entry through the parent separator and a merge removes
   the separator. *)
let fix_underflow t pid slot =
  match read_node t pid with
  | Leaf _ -> assert false
  | Node { keys; children } -> (
      let child_pid = children.(slot) in
      let child = read_node t child_pid in
      let min_size =
        match child with Leaf _ -> leaf_min t | Node _ -> node_min t
      in
      if node_size child >= min_size then ()
      else
        let borrow_from_left l =
          (* l = slot - 1 *)
          let left_pid = children.(l) in
          match (read_node t left_pid, child) with
          | Leaf lf, Leaf cf ->
              let n = Array.length lf.keys in
              let moved = lf.keys.(n - 1) in
              write_node t left_pid
                (Leaf { keys = Array.sub lf.keys 0 (n - 1); next = lf.next });
              write_node t child_pid
                (Leaf { keys = insert_at cf.keys 0 moved; next = cf.next });
              write_node t pid
                (Node { keys = (let ks = Array.copy keys in ks.(l) <- moved; ks);
                        children })
          | Node ln, Node cn ->
              let n = Array.length ln.keys in
              let new_sep = ln.keys.(n - 1) in
              let moved_child = ln.children.(n) in
              write_node t left_pid
                (Node { keys = Array.sub ln.keys 0 (n - 1);
                        children = Array.sub ln.children 0 n });
              write_node t child_pid
                (Node { keys = insert_at cn.keys 0 keys.(l);
                        children = insert_at cn.children 0 moved_child });
              write_node t pid
                (Node
                   { keys = (let ks = Array.copy keys in ks.(l) <- new_sep; ks);
                     children })
          | _ -> assert false
        in
        let borrow_from_right () =
          let right_pid = children.(slot + 1) in
          match (read_node t right_pid, child) with
          | Leaf rf, Leaf cf ->
              let moved = rf.keys.(0) in
              write_node t right_pid
                (Leaf { keys = remove_at rf.keys 0; next = rf.next });
              write_node t child_pid
                (Leaf
                   { keys = insert_at cf.keys (Array.length cf.keys) moved;
                     next = cf.next });
              write_node t pid
                (Node
                   { keys =
                       (let ks = Array.copy keys in
                        ks.(slot) <- rf.keys.(1);
                        ks);
                     children })
          | Node rn, Node cn ->
              let moved_child = rn.children.(0) in
              let new_sep = rn.keys.(0) in
              write_node t right_pid
                (Node { keys = remove_at rn.keys 0;
                        children = remove_at rn.children 0 });
              write_node t child_pid
                (Node
                   { keys = insert_at cn.keys (Array.length cn.keys) keys.(slot);
                     children =
                       insert_at cn.children (Array.length cn.children)
                         moved_child });
              write_node t pid
                (Node
                   { keys =
                       (let ks = Array.copy keys in
                        ks.(slot) <- new_sep;
                        ks);
                     children })
          | _ -> assert false
        in
        let merge_with_right l =
          (* Merge children.(l) and children.(l+1) into children.(l),
             dropping separator keys.(l). *)
          let left_pid = children.(l) and right_pid = children.(l + 1) in
          (match (read_node t left_pid, read_node t right_pid) with
          | Leaf lf, Leaf rf ->
              write_node t left_pid
                (Leaf { keys = Array.append lf.keys rf.keys; next = rf.next })
          | Node ln, Node rn ->
              write_node t left_pid
                (Node
                   { keys =
                       Array.concat [ ln.keys; [| keys.(l) |]; rn.keys ];
                     children = Array.append ln.children rn.children })
          | _ -> assert false);
          free_page t right_pid;
          write_node t pid
            (Node { keys = remove_at keys l; children = remove_at children (l + 1) })
        in
        let left_ok =
          slot > 0 && node_size (read_node t children.(slot - 1)) > min_size
        in
        let right_ok =
          slot < Array.length keys
          && node_size (read_node t children.(slot + 1)) > min_size
        in
        if left_ok then borrow_from_left (slot - 1)
        else if right_ok then borrow_from_right ()
        else if slot > 0 then merge_with_right (slot - 1)
        else merge_with_right slot)

let rec del t pid level k =
  if level = 1 then
    match read_node t pid with
    | Node _ -> assert false
    | Leaf { keys; next } ->
        let pos = bisect_left keys k in
        if pos < Array.length keys && equal_keys keys.(pos) k then begin
          write_node t pid (Leaf { keys = remove_at keys pos; next });
          true
        end
        else false
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
        Storage.Buffer_pool.with_page t.pool t.root ~dirty:false (fun buf ->
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
   position up to the first key above [hi]; [next] decodes the key at
   byte [pos] of it. [next_leaf] is [-1] once a copied run ended below
   the end of its leaf, or at the end of the chain. *)
type cursor = {
  tree : t;
  hi : key;
  mutable run : Bytes.t;
  mutable pos : int;
  mutable next_leaf : int;
}

(* Copy out of leaf [pid] the keys from the first at or above [lo] up to
   the first above [c.hi]. *)
let load c pid lo =
  let t = c.tree in
  Storage.Buffer_pool.with_page t.pool pid ~dirty:false (fun buf ->
      let n = nkeys buf and stride = leaf_stride t in
      let first =
        match lo with
        | None -> 0
        | Some lo -> bisect t buf ~stride ~from:0 ~n ~above:false lo
      in
      let stop = bisect t buf ~stride ~from:first ~n ~above:true c.hi in
      let off = header_size + (first * stride) in
      c.run <- Bytes.sub buf off ((stop - first) * stride);
      c.pos <- 0;
      c.next_leaf <- (if stop < n then -1 else get_i64 buf 8))

let descend c lo = load c (find_leaf c.tree c.tree.root lo) (Some lo)

let cursor t ~lo ~hi =
  check_width t lo;
  check_width t hi;
  let c = { tree = t; hi; run = Bytes.empty; pos = 0; next_leaf = -1 } in
  (* One descent per probe: guard the span so the disabled path does
     not allocate a closure per probe. *)
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "btree.descend" (fun () -> descend c lo)
  else descend c lo;
  c

let rec next c =
  if c.pos < Bytes.length c.run then begin
    let k = read_key c.tree c.run c.pos in
    c.pos <- c.pos + leaf_stride c.tree;
    Some k
  end
  else if c.next_leaf < 0 then None
  else begin
    load c c.next_leaf None;
    next c
  end

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
  let leaf = find_leaf t t.root (hi_pad t []) in
  Storage.Buffer_pool.with_page t.pool leaf ~dirty:false (fun buf ->
      let n = nkeys buf in
      if n = 0 then None
      else Some (read_key t buf (header_size + ((n - 1) * leaf_stride t))))

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
        write_node t !prev_leaf (Leaf { keys = !prev_leaf_keys; next = pid });
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
    write_node t !prev_leaf (Leaf { keys = !prev_leaf_keys; next = -1 });
  let level = List.rev !leaves in
  if level = [] then begin
    let root = alloc_page t in
    write_node t root (Leaf { keys = [||]; next = -1 });
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
                    let keys = Array.of_list (List.map fst rest) in
                    let children =
                      Array.of_list (first_pid :: List.map snd rest)
                    in
                    let pid = alloc_page t in
                    write_node t pid (Node { keys; children });
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
  let leaves_seen = ref [] in
  let pages_seen = ref 0 in
  (* Returns (depth, count) of the subtree while checking that every key
     lies within the separator bounds inherited from above. *)
  let rec walk pid ~is_root ~lo ~hi =
    incr pages_seen;
    let in_bounds k =
      (match lo with Some l -> compare_keys l k <= 0 | None -> true)
      && match hi with Some h -> compare_keys k h < 0 | None -> true
    in
    match read_node t pid with
    | Leaf { keys; _ } ->
        let n = Array.length keys in
        if occupancy && (not is_root) && n < leaf_min t then
          fail "leaf %d under-full: %d < %d" pid n (leaf_min t);
        if n > t.leaf_cap then fail "leaf %d over-full" pid;
        Array.iteri
          (fun i k ->
            if i > 0 && compare_keys keys.(i - 1) k >= 0 then
              fail "leaf %d keys out of order" pid;
            if not (in_bounds k) then
              fail "leaf %d key escapes separator bounds" pid)
          keys;
        leaves_seen := pid :: !leaves_seen;
        (1, n)
    | Node { keys; children } ->
        let n = Array.length keys in
        if occupancy && (not is_root) && n < node_min t then
          fail "node %d under-full: %d < %d" pid n (node_min t);
        if is_root && n < 1 then fail "internal root %d has no key" pid;
        if n > t.node_cap then fail "node %d over-full" pid;
        Array.iteri
          (fun i k ->
            if i > 0 && compare_keys keys.(i - 1) k >= 0 then
              fail "node %d separators out of order" pid;
            if not (in_bounds k) then
              fail "node %d separator escapes bounds" pid)
          keys;
        let depth = ref 0 and total = ref 0 in
        Array.iteri
          (fun i child ->
            let clo = if i = 0 then lo else Some keys.(i - 1) in
            let chi = if i = n then hi else Some keys.(i) in
            let d, c = walk child ~is_root:false ~lo:clo ~hi:chi in
            if !depth = 0 then depth := d
            else if d <> !depth then fail "node %d has uneven depths" pid;
            total := !total + c)
          children;
        (!depth + 1, !total)
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
      match read_node t pid with
      | Leaf { next; _ } -> chain next (pid :: acc)
      | Node _ -> fail "leaf chain reaches internal node %d" pid
  in
  match in_order with
  | [] -> fail "tree has no leaves"
  | first :: _ ->
      if chain first [] <> in_order then fail "leaf chain broken"
