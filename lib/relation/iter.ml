type row = int array
type t = unit -> row option

let empty () = None

let of_list rows =
  let rest = ref rows in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
        rest := tl;
        Some r

let of_array rows =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length rows then None
    else begin
      let r = rows.(!i) in
      incr i;
      Some r
    end

let map f it () = Option.map f (it ())

let filter p it =
  let rec pull () =
    match it () with
    | None -> None
    | Some r when p r -> Some r
    | Some _ -> pull ()
  in
  pull

let union_all its =
  let rest = ref its in
  let rec pull () =
    match !rest with
    | [] -> None
    | it :: tl -> (
        match it () with
        | Some r -> Some r
        | None ->
            rest := tl;
            pull ())
  in
  pull

let nested_loop ~outer ~inner =
  let current = ref empty in
  let rec pull () =
    match !current () with
    | Some r -> Some r
    | None -> (
        match outer () with
        | None -> None
        | Some o ->
            current := inner o;
            pull ())
  in
  pull

let index_range index ~lo ~hi =
  let cursor = Btree.cursor (Table.Index.tree index) ~lo ~hi in
  fun () -> Btree.next cursor

let index_prefix index ~prefix =
  let tree = Table.Index.tree index in
  index_range index ~lo:(Btree.lo_pad tree prefix)
    ~hi:(Btree.hi_pad tree prefix)

let fetch table it =
  let rec pull () =
    match it () with
    | None -> None
    | Some r -> (
        let rowid = r.(Array.length r - 1) in
        match Table.fetch table rowid with
        | Some row -> Some row
        | None -> pull ())
  in
  pull

let heap_scan table =
  (* Page-at-a-time streaming off the heap's external cursor: no rowid
     materialization, no per-row base-table re-fetch. *)
  let c = Heap.cursor (Table.heap table) in
  fun () ->
    match Heap.next c with
    | None -> None
    | Some (rid, row) ->
        let n = Array.length row in
        Some (Array.init (n + 1) (fun i -> if i < n then row.(i) else rid))

let project cols it =
  map (fun r -> Array.map (fun c -> r.(c)) cols) it

let distinct_by key it =
  let seen = Hashtbl.create 64 in
  filter
    (fun r ->
      let k = key r in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    it

let to_list it =
  let rec go acc =
    match it () with Some r -> go (r :: acc) | None -> List.rev acc
  in
  go []

let count it =
  let rec go n = match it () with Some _ -> go (n + 1) | None -> n in
  go 0

let iter f it =
  let rec go () =
    match it () with
    | Some r ->
        f r;
        go ()
    | None -> ()
  in
  go ()

let fold f acc it =
  let rec go acc =
    match it () with Some r -> go (f acc r) | None -> acc
  in
  go acc
