module Ivl = Interval.Ivl
module Temporal = Interval.Temporal

(* Upper-column codes for sentinel rows; the column is never scanned for
   them (queries probe the lower index only), so any reserved code
   works. *)
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

let count t = Ri_tree.count t.ri
