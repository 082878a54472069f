module Ivl = Interval.Ivl

(* Equi-width histogram with running min/max. *)
module Histogram = struct
  type t = {
    lo : int;
    hi : int;
    counts : int array;
    below : int array;
    total : int;
  }

  (* Bound arithmetic goes through floats: with the Sec. 4.6 infinity
     sentinels a histogram can legitimately span [min_int, max_int], and
     `hi - lo + 1` or `x - lo` in native ints would wrap. Floats lose
     precision at that scale but only blur bucket boundaries, which the
     estimate tolerates; wraparound flips signs and destroys it. *)
  let fspan lo hi =
    let s = float_of_int hi -. float_of_int lo +. 1.0 in
    if s < 1.0 then 1.0 else s

  (* [below] holds prefix sums, so [count_below] is O(1). *)
  let build ~buckets values =
    let counts = Array.make buckets 0 in
    let n = Array.length values in
    let lo = ref 0 and hi = ref 0 in
    if n > 0 then begin
      lo := values.(0);
      hi := values.(0);
      for i = 1 to n - 1 do
        lo := Int.min !lo values.(i);
        hi := Int.max !hi values.(i)
      done;
      let span = fspan !lo !hi in
      for i = 0 to n - 1 do
        let b =
          int_of_float
            ((float_of_int values.(i) -. float_of_int !lo)
             *. float_of_int buckets /. span)
        in
        let b = Int.min (buckets - 1) (Int.max 0 b) in
        counts.(b) <- counts.(b) + 1
      done
    end;
    let below = Array.make (buckets + 1) 0 in
    Array.iteri (fun b c -> below.(b + 1) <- below.(b) + c) counts;
    { lo = !lo; hi = !hi; counts; below; total = n }

  let total t = t.total

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
      let fb = float_of_int buckets in
      let pos = if pos < 0.0 then 0.0 else if pos > fb then fb else pos in
      let full = int_of_float pos in
      let frac = pos -. float_of_int full in
      let whole = float_of_int t.below.(min buckets full) in
      if full < buckets then whole +. (frac *. float_of_int t.counts.(full))
      else whole
    end
end

module Stats = struct
  type col = {
    hist : Histogram.t;
    fine : Histogram.t;
    distinct : int;
    corr : float;
  }

  type t = { table : string; rows : int; cols : (string * col) list }

  let clamp01 f = Float.max 0.0 (Float.min 1.0 f)

  (* |Pearson correlation| of value vs heap position (the sign is
     irrelevant for locality: a perfectly descending column is just as
     clustered as an ascending one). *)
  let heap_correlation values =
    let n = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
    let sxx = ref 0.0 and syy = ref 0.0 and sxy = ref 0.0 in
    for i = 0 to Array.length values - 1 do
      let x = float_of_int i and y = float_of_int values.(i) in
      n := !n +. 1.0;
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      syy := !syy +. (y *. y);
      sxy := !sxy +. (x *. y)
    done;
    let cov = (!n *. !sxy) -. (!sx *. !sy) in
    let vx = (!n *. !sxx) -. (!sx *. !sx)
    and vy = (!n *. !syy) -. (!sy *. !sy) in
    if vx <= 0.0 || vy <= 0.0 then 0.0
    else clamp01 (Float.abs (cov /. sqrt (vx *. vy)))

  (* Sorts [values] in place, so it runs after the position-dependent
     correlation. *)
  let distinct_count values =
    Array.sort Int.compare values;
    let d = ref 0 in
    for i = 0 to Array.length values - 1 do
      if i = 0 || values.(i) <> values.(i - 1) then incr d
    done;
    !d

  (* One heap scan fills one [int array] per column, sized by the row
     count the heap keeps. *)
  let of_table tbl =
    let columns = Relation.Table.columns tbl in
    let vals =
      Array.map (fun _ -> Array.make (Relation.Table.row_count tbl) 0) columns
    in
    let rows = ref 0 in
    Relation.Table.iter tbl (fun _ row ->
        for j = 0 to Array.length vals - 1 do
          vals.(j).(!rows) <- row.(j)
        done;
        incr rows);
    (* the estimator reads 32 buckets, the interval-identity estimate
       64 *)
    let col_of values =
      let hist = Histogram.build ~buckets:32 values
      and fine = Histogram.build ~buckets:64 values in
      let corr = heap_correlation values in
      { hist; fine; distinct = distinct_count values; corr }
    in
    { table = Relation.Table.name tbl;
      rows = !rows;
      cols =
        List.combine (Array.to_list columns)
          (Array.to_list (Array.map col_of vals)) }

  let analyze tree = of_table (Ri_tree.table tree)

  let table t = t.table
  let row_count t = t.rows
  let column t c =
    List.find_map (fun (c', col) -> if c' = c then Some col else None) t.cols

  (* Misses: upper < qlow, or lower > qup. *)
  let estimate_result_size t q =
    match (column t "lower", column t "upper") with
    | Some lowers, Some uppers when t.rows > 0 ->
        let ends_before = Histogram.count_below uppers.fine (Ivl.lower q) in
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
          float_of_int t.rows -. Histogram.count_below lowers.fine upper_succ
        in
        let est = float_of_int t.rows -. ends_before -. starts_after in
        max 0 (min t.rows (int_of_float (Float.round est)))
    | _ -> 0

  let estimate_selectivity t q =
    if t.rows = 0 then 0.0
    else float_of_int (estimate_result_size t q) /. float_of_int t.rows
end
