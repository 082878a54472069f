module Ivl = Interval.Ivl

type t = {
  table : Relation.Table.t; (* (window, lower, upper, id) *)
  index : Relation.Table.Index.t;
  (* Window boundaries live in their own B+-tree, keyed by the negated
     left boundary so that "greatest boundary <= p" is one forward
     probe — locating a window costs real, counted I/O. *)
  boundary_tree : Btree.t;
  window_count : int;
  interval_count : int;
}

let build ?(name = "wlist") ?window_rows catalog data =
  let pool = Relation.Catalog.pool catalog in
  let window_rows =
    match window_rows with
    | Some r -> max 4 r
    | None ->
        (* roughly one heap page of 4-column rows *)
        let bs = Storage.Buffer_pool.block_size pool in
        max 4 ((bs - 24) / 32)
  in
  let endpoints =
    Array.concat [ Array.map Ivl.lower data; Array.map Ivl.upper data ]
  in
  Array.sort Int.compare endpoints;
  let boundaries = ref [] in
  Array.iteri
    (fun i p ->
      if i mod window_rows = 0 then
        match !boundaries with
        | b :: _ when b = p -> ()
        | _ -> boundaries := p :: !boundaries)
    endpoints;
  let boundaries =
    match List.rev !boundaries with [] -> [| 0 |] | l -> Array.of_list l
  in
  let boundary_tree =
    Btree.bulk_load pool ~key_width:2
      (Array.to_seq
         (Array.mapi (fun w b -> [| -b; w |]) boundaries)
       |> List.of_seq |> List.rev |> List.to_seq)
  in
  (* in-memory search only during the build *)
  let window_of_mem p =
    let lo = ref 0 and hi = ref (Array.length boundaries) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if boundaries.(mid) <= p then lo := mid + 1 else hi := mid
    done;
    max 0 (!lo - 1)
  in
  let table =
    Relation.Catalog.create_table catalog ~name
      ~columns:[ "window"; "lower"; "upper"; "id" ]
  in
  let index =
    Relation.Table.create_index table ~name:(name ^ "_idx")
      ~columns:[ "window"; "lower"; "upper"; "id" ]
  in
  Array.iteri
    (fun id ivl ->
      let w1 = window_of_mem (Ivl.lower ivl) in
      let w2 = window_of_mem (Ivl.upper ivl) in
      for w = w1 to w2 do
        ignore
          (Relation.Table.insert table [| w; Ivl.lower ivl; Ivl.upper ivl; id |])
      done)
    data;
  { table; index; boundary_tree; window_count = Array.length boundaries;
    interval_count = Array.length data }

let window_count t = t.window_count
let count t = t.interval_count

let index_entries t =
  Relation.Table.Index.entry_count t.index + Btree.count t.boundary_tree

(* Greatest boundary <= p, via one probe of the negated-boundary tree. *)
let window_of t p =
  let c =
    Btree.cursor t.boundary_tree
      ~lo:[| -p; min_int |]
      ~hi:[| max_int; max_int |]
  in
  match Btree.next c with Some key -> key.(1) | None -> 0

(* The windows [w1..w2] the query's bounds fall in, each scanned in
   full and filtered; an interval spanning several windows is kept
   once. *)
let plan t q =
  Exec.Planner.partition_join ~collection:("windows", "window") ~index:t.index
    ~bounds:("lower", "upper") ~first:(window_of t (Ivl.lower q))
    ~last:(window_of t (Ivl.upper q)) t.table q

let intersecting_ids t q = Exec.Planner.ids (plan t q)

let stabbing_ids t p = intersecting_ids t (Ivl.point p)

let insert ?id _ =
  ignore id;
  failwith "Window_list.insert: the Window-List is a static structure"
