module Ivl = Interval.Ivl
module Temporal = Interval.Temporal

(* Upper-column codes for sentinel rows; the column is never scanned for
   them (only the lower index is probed), so any reserved code works. *)
let code_infinity = max_int
let code_now = max_int - 1

type t = { ri : Ri_tree.t }

let create ?(name = "valid_time") ?layout catalog =
  { ri = Ri_tree.create ~name ?layout catalog }

let ri t = t.ri

let insert ?id t (iv : Temporal.t) =
  match iv.Temporal.upper with
  | Temporal.Finite u -> Ri_tree.insert ?id t.ri (Ivl.make iv.Temporal.lower u)
  | Temporal.Infinity ->
      Ri_tree.insert_sentinel_row t.ri ~node:Ri_tree.fork_infinity
        ~lower:iv.Temporal.lower ~upper_code:code_infinity ~id
  | Temporal.Now ->
      Ri_tree.insert_sentinel_row t.ri ~node:Ri_tree.fork_now
        ~lower:iv.Temporal.lower ~upper_code:code_now ~id

let sentinel_hits t ~now q =
  let qlow = Ivl.lower q and qup = Ivl.upper q in
  let inf_rows =
    Ri_tree.sentinel_scan t.ri ~node:Ri_tree.fork_infinity ~max_lower:qup
  in
  let now_rows =
    (* fork_now joins rightNodes only when the query begins in the past;
       a now-interval is also only valid once lower <= now. *)
    if qlow <= now then
      Ri_tree.sentinel_scan t.ri ~node:Ri_tree.fork_now
        ~max_lower:(min qup now)
    else []
  in
  (inf_rows, now_rows)

let intersecting t ~now q =
  let finite =
    List.map
      (fun (ivl, id) -> (Temporal.fixed ivl, id))
      (Ri_tree.intersecting t.ri q)
  in
  let inf_rows, now_rows = sentinel_hits t ~now q in
  let of_row upper (lower, _, id) = (Temporal.make lower upper, id) in
  finite
  @ List.map (of_row Temporal.Infinity) inf_rows
  @ List.map (of_row Temporal.Now) now_rows

let intersecting_ids t ~now q =
  let finite = Ri_tree.intersecting_ids t.ri q in
  let inf_rows, now_rows = sentinel_hits t ~now q in
  finite
  @ List.map (fun (_, _, id) -> id) inf_rows
  @ List.map (fun (_, _, id) -> id) now_rows

let count t = Ri_tree.count t.ri
