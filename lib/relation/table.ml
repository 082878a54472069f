module Index = struct
  type t = {
    name : string;
    columns : string array;
    cols : int array; (* positions in the base row *)
    tree : Btree.t;
  }

  let name t = t.name
  let columns t = t.columns
  let tree t = t.tree
  let entry_count t = Btree.count t.tree

  let key_of_row t rowid row =
    let n = Array.length t.cols in
    Array.init (n + 1) (fun i -> if i < n then row.(t.cols.(i)) else rowid)
end

type t = {
  pool : Storage.Buffer_pool.t;
  name : string;
  columns : string array;
  heap : Heap.t;
  mutable indexes : Index.t list;
  on_new_index : Index.t -> unit;
  mutable version : int; (* bumped on every mutation, for cache validity *)
}

let validate_columns columns =
  if Array.length columns = 0 then invalid_arg "Table.create: no columns";
  Array.iteri
    (fun i c ->
      if c = "" then invalid_arg "Table.create: empty column name";
      for j = 0 to i - 1 do
        if columns.(j) = c then
          invalid_arg (Printf.sprintf "Table.create: duplicate column %s" c)
      done)
    columns

let create ?(on_new_index = fun _ -> ()) pool ~name ~columns =
  let columns = Array.of_list columns in
  validate_columns columns;
  { pool; name; columns;
    heap = Heap.create pool ~row_width:(Array.length columns); indexes = [];
    on_new_index; version = 0 }

let name t = t.name
let columns t = t.columns

let column_index t c =
  let rec go i =
    if i >= Array.length t.columns then raise Not_found
    else if t.columns.(i) = c then i
    else go (i + 1)
  in
  go 0

let heap t = t.heap
let row_count t = Heap.count t.heap

let create_index ?(bulk = false) t ~name ~columns =
  if List.exists (fun (i : Index.t) -> i.name = name) t.indexes then
    invalid_arg (Printf.sprintf "Table.create_index: duplicate index %s" name);
  let cols = Array.of_list (List.map (column_index t) columns) in
  let key_width = Array.length cols + 1 in
  let key_of rowid row =
    let n = Array.length cols in
    Array.init (n + 1) (fun i -> if i < n then row.(cols.(i)) else rowid)
  in
  let tree =
    if bulk then begin
      let keys = Array.make (Heap.count t.heap) [||] in
      let n =
        Heap.fold t.heap
          (fun i rowid row ->
            keys.(i) <- key_of rowid row;
            i + 1)
          0
      in
      assert (n = Array.length keys);
      Array.sort Btree.compare_keys keys;
      Btree.bulk_load t.pool ~key_width (Array.to_seq keys)
    end
    else begin
      let tree = Btree.create t.pool ~key_width in
      Heap.iter t.heap (fun rowid row ->
          ignore (Btree.insert tree (key_of rowid row)));
      tree
    end
  in
  let index =
    { Index.name; columns = Array.of_list (List.map (fun c -> c) columns);
      cols; tree }
  in
  t.indexes <- t.indexes @ [ index ];
  t.on_new_index index;
  index

let open_existing pool ~name ~columns ~heap_meta ~indexes =
  let columns = Array.of_list columns in
  validate_columns columns;
  let heap = Heap.open_existing pool ~meta_page:heap_meta in
  if Heap.row_width heap <> Array.length columns then
    invalid_arg "Table.open_existing: column count does not match the heap";
  let t =
    { pool; name; columns; heap; indexes = []; on_new_index = (fun _ -> ());
      version = 0 }
  in
  let col_pos c =
    let rec go i =
      if i >= Array.length columns then
        invalid_arg
          (Printf.sprintf "Table.open_existing: unknown column %s" c)
      else if columns.(i) = c then i
      else go (i + 1)
    in
    go 0
  in
  t.indexes <-
    List.map
      (fun (iname, icols, meta) ->
        { Index.name = iname; columns = Array.of_list icols;
          cols = Array.of_list (List.map col_pos icols);
          tree = Btree.open_existing pool ~meta_page:meta })
      indexes;
  t

let indexes t = t.indexes

let find_index t n =
  List.find_opt (fun (i : Index.t) -> i.name = n) t.indexes

let index_on t cols =
  let cols = Array.of_list cols in
  List.find_opt
    (fun (i : Index.t) ->
      Array.length i.columns >= Array.length cols
      && Array.for_all2 ( = ) (Array.sub i.columns 0 (Array.length cols)) cols)
    t.indexes

let version t = t.version

let insert t row =
  t.version <- t.version + 1;
  let rowid = Heap.insert t.heap row in
  List.iter
    (fun (i : Index.t) ->
      ignore (Btree.insert i.tree (Index.key_of_row i rowid row)))
    t.indexes;
  rowid

let fetch t rowid = Heap.fetch t.heap rowid

let delete_row t rowid =
  match Heap.fetch t.heap rowid with
  | None -> false
  | Some row ->
      t.version <- t.version + 1;
      ignore (Heap.delete t.heap rowid);
      List.iter
        (fun (i : Index.t) ->
          ignore (Btree.delete i.tree (Index.key_of_row i rowid row)))
        t.indexes;
      true

let update_row t rowid row =
  match Heap.fetch t.heap rowid with
  | None -> false
  | Some old_row ->
      t.version <- t.version + 1;
      ignore (Heap.update t.heap rowid row);
      List.iter
        (fun (i : Index.t) ->
          let old_key = Index.key_of_row i rowid old_row in
          let new_key = Index.key_of_row i rowid row in
          if Btree.compare_keys old_key new_key <> 0 then begin
            ignore (Btree.delete i.tree old_key);
            ignore (Btree.insert i.tree new_key)
          end)
        t.indexes;
      true

let delete_where t pred =
  let victims =
    Heap.fold t.heap
      (fun acc rowid row -> if pred row then rowid :: acc else acc)
      []
  in
  List.iter (fun rid -> ignore (delete_row t rid)) victims;
  List.length victims

let iter t f = Heap.iter t.heap f

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  Heap.check_invariants t.heap;
  List.iter
    (fun (i : Index.t) ->
      Btree.check_invariants ~occupancy:false i.tree;
      if Btree.count i.tree <> Heap.count t.heap then
        fail "index %s has %d entries for %d rows" i.name
          (Btree.count i.tree) (Heap.count t.heap);
      Heap.iter t.heap (fun rowid row ->
          if not (Btree.mem i.tree (Index.key_of_row i rowid row)) then
            fail "index %s is missing the entry for rowid %d" i.name rowid))
    t.indexes
