module Ivl = Interval.Ivl

let shift = 21

let encode ivl =
  if Ivl.lower ivl < 0 || Ivl.upper ivl >= 1 lsl shift then
    invalid_arg "Map21.encode: bounds outside [0, 2^21)";
  (Ivl.lower ivl lsl shift) lor Ivl.upper ivl

type t = {
  table : Relation.Table.t;
  index : Relation.Table.Index.t;
  mutable next_id : int;
  mutable max_length : int;
}

let create ?(name = "map21") catalog =
  let table =
    Relation.Catalog.create_table catalog ~name ~columns:[ "z"; "id" ]
  in
  let index =
    Relation.Table.create_index table ~name:(name ^ "_idx")
      ~columns:[ "z"; "id" ]
  in
  { table; index; next_id = 0; max_length = 0 }

let insert ?id t ivl =
  let id =
    match id with
    | Some i ->
        if i >= t.next_id then t.next_id <- i + 1;
        i
    | None ->
        let i = t.next_id in
        t.next_id <- i + 1;
        i
  in
  if Ivl.length ivl > t.max_length then t.max_length <- Ivl.length ivl;
  ignore (Relation.Table.insert t.table [| encode ivl; id |]);
  id

let delete t ~id ivl =
  let tree = Relation.Table.Index.tree t.index in
  let z = encode ivl in
  let victim =
    Btree.fold_range tree ~lo:[| z; id; min_int |] ~hi:[| z; id; max_int |]
      (fun acc key -> match acc with Some _ -> acc | None -> Some key.(2))
      None
  in
  match victim with
  | Some rowid -> Relation.Table.delete_row t.table rowid
  | None -> false

let count t = Relation.Table.row_count t.table
let index_entries t = Relation.Table.Index.entry_count t.index
let max_length t = t.max_length

let decode z = Ivl.make (z lsr shift) (z land ((1 lsl shift) - 1))

(* The z range of every interval starting in [qlow - max_length, qup],
   filtered on the decoded bounds. The filter reads a bit field of z,
   which no plan predicate expresses, so the scan walks the index
   directly, as [delete] does. *)
let intersecting_ids t q =
  let qlow = Ivl.lower q and qup = Ivl.upper q in
  let lo_lower = max 0 (qlow - t.max_length) in
  Btree.fold_range
    (Relation.Table.Index.tree t.index)
    ~lo:[| lo_lower lsl shift; min_int; min_int |]
    ~hi:[| (qup lsl shift) lor ((1 lsl shift) - 1); max_int; max_int |]
    (fun acc k -> if Ivl.intersects (decode k.(0)) q then k.(1) :: acc else acc)
    []
  |> List.rev
