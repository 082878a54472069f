type roots = { left_root : int; right_root : int }

let empty_roots = { left_root = 0; right_root = 0 }
let max_level = 62

let level w =
  if w = 0 then invalid_arg "Backbone.level: node 0 has no level";
  let w = abs w in
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let floor_log2 x =
  if x < 1 then invalid_arg "Backbone.floor_log2: argument must be >= 1";
  let rec go x acc = if x <= 1 then acc else go (x lsr 1) (acc + 1) in
  go x 0

(* Root adjustment of Fig. 6. A right root r covers [1, 2r - 1]; a left
   root -r covers [-2r + 1, -1]. *)
let expand roots ~l ~u =
  let left_root =
    if u < 0 && l <= 2 * roots.left_root then - (1 lsl floor_log2 (-l))
    else roots.left_root
  in
  let right_root =
    if 0 < l && u >= 2 * roots.right_root then 1 lsl floor_log2 u
    else roots.right_root
  in
  { left_root; right_root }

let fork roots ~l ~u =
  if l > u then invalid_arg "Backbone.fork: lower exceeds upper";
  if u < 0 || 0 < l then begin
    let node = ref (if u < 0 then roots.left_root else roots.right_root) in
    let step = ref (abs !node / 2) in
    (try
       while !step >= 1 do
         if u < !node then node := !node - !step
         else if !node < l then node := !node + !step
         else raise Exit;
         step := !step / 2
       done
     with Exit -> ());
    !node
  end
  else (* l <= 0 <= u *) 0

let fork_level roots ~l ~u =
  let w = fork roots ~l ~u in
  (w, if w = 0 then max_level else level w)

(* Classify one visited node for the intersection query: strictly left
   of the query range -> scan its upper-bound list; strictly right ->
   scan its lower-bound list; inside -> covered by the BETWEEN range. *)
let classify ~ql ~qu ~left ~right w =
  if w < ql then left w else if w > qu then right w

(* Bisection descent within one subtree, starting below [(node, step)],
   visiting the path towards [target] down to [min_level]. *)
let descend_to ~min_pow ~visit node step target =
  let n = ref node and st = ref step in
  while !n <> target && !st >= min_pow do
    if target < !n then n := !n - !st else n := !n + !st;
    visit !n;
    st := !st / 2
  done

let collect roots ~min_level ~ql ~qu ~left ~right =
  if ql > qu then invalid_arg "Backbone.collect: lower exceeds upper";
  let min_pow = if min_level >= 62 then max_int else 1 lsl min_level in
  let classify = classify ~ql ~qu ~left ~right in
  classify 0;
  let subtree root =
    if root <> 0 then begin
      (* Phase 1: shared path from the subtree root to the fork of the
         query (the first node inside [ql, qu]). *)
      let node = ref root and step = ref (abs root / 2) in
      classify !node;
      while (not (ql <= !node && !node <= qu)) && !step >= min_pow do
        if qu < !node then node := !node - !step else node := !node + !step;
        classify !node;
        step := !step / 2
      done;
      if ql <= !node && !node <= qu then begin
        (* Phases 2 and 3: from the fork towards each query bound. *)
        descend_to ~min_pow ~visit:classify !node !step ql;
        descend_to ~min_pow ~visit:classify !node !step qu
      end
    end
  in
  if qu < 0 then subtree roots.left_root
  else if ql > 0 then subtree roots.right_root
  else begin
    (* The query straddles the global root: within the left subtree only
       the path towards ql matters, within the right one only qu. *)
    (if roots.left_root <> 0 && ql < 0 then begin
       classify roots.left_root;
       descend_to ~min_pow ~visit:classify roots.left_root
         (abs roots.left_root / 2) ql
     end);
    if roots.right_root <> 0 && qu > 0 then begin
      classify roots.right_root;
      descend_to ~min_pow ~visit:classify roots.right_root
        (roots.right_root / 2) qu
    end
  end

let path roots ~min_level x visit =
  let min_pow = if min_level >= 62 then max_int else 1 lsl min_level in
  visit 0;
  let root = if x < 0 then roots.left_root else roots.right_root in
  if x <> 0 && root <> 0 then begin
    visit root;
    descend_to ~min_pow ~visit root (abs root / 2) x
  end

let height roots ~min_level =
  let extent = max (-roots.left_root) roots.right_root in
  if extent = 0 then 0
  else
    let top = floor_log2 extent in
    let bottom = min min_level top in
    top - bottom + 2
