(* System dictionary rows (durable catalogs): width 3 + Codec.width.
     kind 0  table         (0, heap_meta, ncols,            name)
     kind 1  column        (1, heap_meta, position,         name)
     kind 2  index         (2, heap_meta, btree_meta,       name)
     kind 3  index column  (3, btree_meta, position_in_key, name)
   Tables are keyed by their heap meta page; index keys reference the
   owning table's heap meta, index-column rows the index's btree meta.
   The dictionary heap itself is the first structure ever created, so
   its meta page is page 0 of the device. *)

type t = {
  device : Storage.Block_device.t;
  pool : Storage.Buffer_pool.t;
  tables : (string, Table.t) Hashtbl.t;
  sys : Heap.t option; (* Some = durable *)
  journal : Storage.Journal.t option;
  block_size : int;
  cache_blocks : int;
  mutable degraded : string option; (* Some reason = read-only mode *)
}

let sys_row_width = 3 + Codec.width

let sys_insert t kind a b name =
  match t.sys with
  | None -> ()
  | Some sys ->
      let packed = Codec.encode_name name in
      let row = Array.make sys_row_width 0 in
      row.(0) <- kind;
      row.(1) <- a;
      row.(2) <- b;
      Array.blit packed 0 row 3 Codec.width;
      ignore (Heap.insert sys row)

let register_index t table index =
  let heap_meta = Heap.meta_page (Table.heap table) in
  let tree_meta = Btree.meta_page (Table.Index.tree index) in
  sys_insert t 2 heap_meta tree_meta (Table.Index.name index);
  Array.iteri
    (fun pos col -> sys_insert t 3 tree_meta pos col)
    (Table.Index.columns index)

let create ?device ?(durable = false) ?(block_size = 2048)
    ?(cache_blocks = 200) () =
  let device =
    match device with
    | Some d -> d
    | None -> Storage.Block_device.create ~block_size ()
  in
  let pool =
    (* Durable catalogs checksum their pages: the journal is only
       trustworthy if corruption of what it protects is detectable. *)
    Storage.Buffer_pool.create ~capacity:cache_blocks ~checksums:durable
      device
  in
  let journal =
    if durable then begin
      let j = Storage.Journal.create () in
      Storage.Buffer_pool.attach_journal pool j;
      Some j
    end
    else None
  in
  let sys =
    if durable then Some (Heap.create pool ~row_width:sys_row_width) else None
  in
  (match sys with
  | Some s -> assert (Heap.meta_page s = 0)
  | None -> ());
  { device; pool; tables = Hashtbl.create 16; sys; journal; block_size;
    cache_blocks; degraded = None }

let durable t = t.sys <> None
let pool t = t.pool
let device t = t.device
let journal t = t.journal
let degraded_reason t = t.degraded
let degraded t = t.degraded <> None

let degrade t reason =
  if t.degraded = None then t.degraded <- Some reason

let create_table t ~name ~columns =
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Catalog.create_table: %s exists" name);
  let catalog = t in
  let table = ref None in
  let on_new_index idx =
    match !table with
    | Some tbl -> register_index catalog tbl idx
    | None -> ()
  in
  let tbl =
    if durable t then Table.create ~on_new_index t.pool ~name ~columns
    else Table.create t.pool ~name ~columns
  in
  table := Some tbl;
  let heap_meta = Heap.meta_page (Table.heap tbl) in
  sys_insert t 0 heap_meta (List.length columns) name;
  List.iteri (fun pos col -> sys_insert t 1 heap_meta pos col) columns;
  Hashtbl.replace t.tables name tbl;
  tbl

let find_table t name = Hashtbl.find_opt t.tables name
let table t name = Hashtbl.find t.tables name
let tables t = Hashtbl.fold (fun _ v acc -> v :: acc) t.tables []
let io_stats t = Storage.Block_device.Stats.get t.device
let reset_io_stats t = Storage.Block_device.Stats.reset t.device
let flush t = Storage.Buffer_pool.flush t.pool
let drop_cache t = Storage.Buffer_pool.clear t.pool
let commit t = Storage.Buffer_pool.commit t.pool
let commit_request t = Storage.Buffer_pool.commit_request t.pool
let commit_force t = Storage.Buffer_pool.commit_force t.pool
let pending_commits t = Storage.Buffer_pool.pending_commits t.pool

let checkpoint t =
  Storage.Buffer_pool.commit t.pool;
  Storage.Buffer_pool.flush t.pool;
  Option.iter Storage.Journal.truncate t.journal

let journal_stats t =
  Option.map
    (fun j ->
      (Storage.Journal.record_count j, Storage.Journal.byte_size j))
    t.journal

(* Rebuild every table handle from the on-device dictionary, over
   [pool] (emptied, its journal attached) or a fresh pool. Only a
   durable catalog has a dictionary, so the pages are checksummed. *)
let open_from_device ?pool ~device ~journal ~block_size ~cache_blocks () =
  let pool =
    match pool with
    | Some pool -> pool
    | None ->
        let pool =
          Storage.Buffer_pool.create ~capacity:cache_blocks ~checksums:true
            device
        in
        Option.iter (Storage.Buffer_pool.attach_journal pool) journal;
        pool
  in
  let sys = Heap.open_existing pool ~meta_page:0 in
  let rows = List.rev (Heap.fold sys (fun acc _ row -> row :: acc) []) in
  let name_of row = Codec.decode_name (Array.sub row 3 Codec.width) in
  let catalog =
    { device; pool; tables = Hashtbl.create 16; sys = Some sys;
      journal; block_size; cache_blocks; degraded = None }
  in
  let table_rows = List.filter (fun r -> r.(0) = 0) rows in
  List.iter
    (fun trow ->
      let heap_meta = trow.(1) in
      let tname = name_of trow in
      let columns =
        List.filter (fun r -> r.(0) = 1 && r.(1) = heap_meta) rows
        |> List.sort (fun a b -> Int.compare a.(2) b.(2))
        |> List.map name_of
      in
      let indexes =
        List.filter (fun r -> r.(0) = 2 && r.(1) = heap_meta) rows
        |> List.map (fun irow ->
               let tree_meta = irow.(2) in
               let icols =
                 List.filter (fun r -> r.(0) = 3 && r.(1) = tree_meta) rows
                 |> List.sort (fun a b -> Int.compare a.(2) b.(2))
                 |> List.map name_of
               in
               (name_of irow, icols, tree_meta))
      in
      let tbl =
        Table.open_existing pool ~name:tname ~columns ~heap_meta ~indexes
      in
      Hashtbl.replace catalog.tables tname tbl)
    table_rows;
  catalog

let require_durable t op =
  if not (durable t) then
    failwith (Printf.sprintf "Catalog.%s: catalog is not durable" op)

let simulate_crash ?(force = false) t =
  require_durable t "simulate_crash";
  Storage.Buffer_pool.crash ~force t.pool;
  let journal = Option.get t.journal in
  ignore (Storage.Journal.recover journal t.device);
  open_from_device ~device:t.device ~journal:(Some journal)
    ~block_size:t.block_size ~cache_blocks:t.cache_blocks ()

let reopen t =
  require_durable t "reopen";
  checkpoint t;
  open_from_device ~device:t.device ~journal:t.journal
    ~block_size:t.block_size ~cache_blocks:t.cache_blocks ()

let reload t =
  require_durable t "reload";
  (* The device was rewritten underneath us (replica apply): every
     cached frame is stale, and writing any of them back would clobber
     the newer applied images — drop the pool without write-back. *)
  Storage.Buffer_pool.crash t.pool;
  (* The rewritten blocks are every page's new base: a record logged
     from here on must not be a delta against an image the journal
     holds from before. *)
  Option.iter Storage.Journal.truncate t.journal;
  (* The emptied pool serves the new handles: its frames and buffers
     are reused, and its counters keep counting. *)
  let fresh =
    open_from_device ~pool:t.pool ~device:t.device ~journal:t.journal
      ~block_size:t.block_size ~cache_blocks:t.cache_blocks ()
  in
  (* keep the read-only flag (replica mode) across the handle swap *)
  (match t.degraded with Some r -> fresh.degraded <- Some r | None -> ());
  fresh

let scrub ?(repair = false) t =
  if not (durable t) then
    failwith "Catalog.scrub: catalog has no page checksums";
  (* Scrub reads the raw device; anything cached and dirty must be on
     disk first or the walk would report stale blocks. *)
  Storage.Buffer_pool.flush t.pool;
  Storage.Scrub.run ~repair ?journal:t.journal ~checksums:true
    t.device
