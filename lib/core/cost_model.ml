module Ivl = Interval.Ivl

(* Equi-width histogram with running min/max. *)
module Histogram = struct
  type t = {
    lo : int;
    hi : int;
    counts : int array;
    total : int;
  }

  (* Bound arithmetic goes through floats: with the Sec. 4.6 infinity
     sentinels a histogram can legitimately span [min_int, max_int], and
     `hi - lo + 1` or `x - lo` in native ints would wrap. Floats lose
     precision at that scale but only blur bucket boundaries, which the
     estimate tolerates; wraparound flips signs and destroys it. *)
  let fspan lo hi = Float.max 1.0 (float_of_int hi -. float_of_int lo +. 1.0)

  let build ~buckets values =
    match values with
    | [] -> { lo = 0; hi = 0; counts = Array.make buckets 0; total = 0 }
    | v :: _ ->
        let lo = List.fold_left min v values in
        let hi = List.fold_left max v values in
        let counts = Array.make buckets 0 in
        let span = fspan lo hi in
        List.iter
          (fun x ->
            let b =
              int_of_float
                ((float_of_int x -. float_of_int lo)
                 *. float_of_int buckets /. span)
            in
            let b = min (buckets - 1) (max 0 b) in
            counts.(b) <- counts.(b) + 1)
          values;
        { lo; hi; counts; total = List.length values }

  (* Estimated number of values strictly below [x], assuming uniformity
     within buckets. *)
  let count_below t x =
    if t.total = 0 || x <= t.lo then 0.0
    else if x > t.hi then float_of_int t.total
    else begin
      let buckets = Array.length t.counts in
      let pos =
        (float_of_int x -. float_of_int t.lo)
        *. float_of_int buckets /. fspan t.lo t.hi
      in
      let pos = Float.max 0.0 (Float.min (float_of_int buckets) pos) in
      let full = int_of_float pos in
      let frac = pos -. float_of_int full in
      let acc = ref 0.0 in
      for b = 0 to min (buckets - 1) (full - 1) do
        acc := !acc +. float_of_int t.counts.(b)
      done;
      if full < buckets then acc := !acc +. (frac *. float_of_int t.counts.(full));
      !acc
    end
end

module Stats = struct
  type t = {
    n : int;
    lowers : Histogram.t;
    uppers : Histogram.t;
  }

  let analyze ?(buckets = 64) tree =
    let lowers = ref [] and uppers = ref [] in
    Relation.Table.iter (Ri_tree.table tree) (fun _ row ->
        lowers := row.(1) :: !lowers;
        uppers := row.(2) :: !uppers);
    { n = Ri_tree.count tree;
      lowers = Histogram.build ~buckets !lowers;
      uppers = Histogram.build ~buckets !uppers }

  let row_count t = t.n

  (* Misses: upper < qlow, or lower > qup. *)
  let estimate_result_size t q =
    if t.n = 0 then 0
    else begin
      let ends_before = Histogram.count_below t.uppers (Ivl.lower q) in
      (* "count_below (upper+1)" = "count at or below upper" — but the
         successor of the Sec. 4.6 infinity sentinel (max_int) wraps to
         min_int and collapses the count to 0, so clamp it. At max_int
         itself count_below may undercount by the values exactly equal
         to max_int; an [x, infinity) query instead takes the x > hi
         shortcut whenever the data contains no sentinel bounds. *)
      let upper_succ =
        if Ivl.upper q = max_int then max_int else Ivl.upper q + 1
      in
      let starts_after =
        float_of_int t.n -. Histogram.count_below t.lowers upper_succ
      in
      let est = float_of_int t.n -. ends_before -. starts_after in
      max 0 (min t.n (int_of_float (Float.round est)))
    end

  let estimate_selectivity t q =
    if t.n = 0 then 0.0
    else float_of_int (estimate_result_size t q) /. float_of_int t.n
end

type plan_choice = Index_plan | Full_scan | Mem_plan

let plan_to_string = function
  | Index_plan -> "index"
  | Full_scan -> "scan"
  | Mem_plan -> "mem"

(* What the tier-choice arithmetic needs to know about a RAM-resident
   HINT replica of the collection. *)
type mem_info = { mem_levels : int; mem_entries : int }

(* Blocks for the Fig. 9 plan. The node probes hit the two interval
   indexes whose upper levels are shared across probes and stay
   buffer-resident for the whole statement, so the root-to-leaf descent
   is charged once per index (2 * depth), not once per probe — charging
   it per probe overshot measured I/O by 2-5x on probe-heavy workloads.
   Each probe then costs one leaf visit, plus the leaves holding the
   estimated result. *)
let index_cost tree stats q =
  let n = max 2 (Stats.row_count stats) in
  let probes = float_of_int (Ri_tree.probe_count tree q + 1) in
  let lower = Relation.Table.Index.tree (Ri_tree.lower_index tree) in
  let fanout = float_of_int (Btree.leaf_capacity lower) in
  let depth = Float.max 1.0 (log (float_of_int n) /. log fanout) in
  let r = float_of_int (Stats.estimate_result_size stats q) in
  (2.0 *. depth) +. probes +. (r /. fanout)

let scan_cost tree =
  float_of_int (Relation.Heap.page_count (Relation.Table.heap (Ri_tree.table tree)))

(* A hot-tier probe does no physical I/O; to keep it comparable with the
   block-denominated disk costs it is priced in block-equivalents at a
   fixed CPU-to-I/O exchange rate: one block read buys ~50k in-memory
   partition visits / result touches. The probe walks at most two
   comparison-bearing partitions per HINT level plus the estimated
   result, so memory wins by orders of magnitude except against a
   same-statement warm cache — which the model deliberately ignores,
   matching the paper's cold-buffer costing. *)
let mem_ops_per_block = 50_000.0

let mem_cost (mi : mem_info) stats q =
  let r = float_of_int (Stats.estimate_result_size stats q) in
  let walk = float_of_int (mi.mem_levels * 8) in
  (walk +. r) /. mem_ops_per_block

let choose ?mem tree stats q =
  let ic = index_cost tree stats q and sc = scan_cost tree in
  let disk = if ic <= sc then (Index_plan, ic) else (Full_scan, sc) in
  match mem with
  | Some mi when mem_cost mi stats q <= snd disk -> Mem_plan
  | _ -> fst disk
