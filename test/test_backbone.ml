(* The virtual backbone: pure-arithmetic properties of fork/expand/
   collect, checked against brute force. *)

module B = Ritree.Backbone

let check = Alcotest.check

(* ---- level / floor_log2 ---- *)

let test_level () =
  List.iter
    (fun (w, l) -> check Alcotest.int (Printf.sprintf "level %d" w) l (B.level w))
    [ (1, 0); (3, 0); (2, 1); (6, 1); (4, 2); (8, 3); (-8, 3); (-5, 0) ];
  Alcotest.check_raises "level 0"
    (Invalid_argument "Backbone.level: node 0 has no level") (fun () ->
      ignore (B.level 0))

let test_floor_log2 () =
  List.iter
    (fun (x, l) -> check Alcotest.int (Printf.sprintf "log2 %d" x) l (B.floor_log2 x))
    [ (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10) ]

(* ---- expand ---- *)

let test_expand_growth () =
  let r = B.empty_roots in
  let r = B.expand r ~l:3 ~u:5 in
  check Alcotest.int "right" 4 r.B.right_root;
  check Alcotest.int "left" 0 r.B.left_root;
  let r = B.expand r ~l:3 ~u:5 in
  check Alcotest.int "idempotent" 4 r.B.right_root;
  let r = B.expand r ~l:100 ~u:300 in
  check Alcotest.int "grown" 256 r.B.right_root;
  let r = B.expand r ~l:(-9) ~u:(-9) in
  check Alcotest.int "left grown" (-8) r.B.left_root;
  (* straddling intervals do not expand anything *)
  let r = B.expand r ~l:(-1_000_000) ~u:1_000_000 in
  check Alcotest.int "straddle right" 256 r.B.right_root;
  check Alcotest.int "straddle left" (-8) r.B.left_root

let prop_expand_covers =
  QCheck.Test.make ~count:1000 ~name:"expand covers the interval"
    QCheck.(pair (int_range (-100_000) 100_000) (int_range 0 100_000))
    (fun (l, len) ->
      let u = l + len in
      let r = B.expand B.empty_roots ~l ~u in
      (* right subtree covers [1, 2rr-1]; left covers [2lr+1, -1];
         straddling intervals fork at the global root *)
      if l > 0 then r.B.right_root >= 1 && (2 * r.B.right_root) - 1 >= u
      else if u < 0 then r.B.left_root <= -1 && (2 * r.B.left_root) + 1 <= l
      else true)

(* ---- fork ---- *)

(* Brute force: the fork of (l,u) within one subtree is the unique value
   in [l,u] with the most trailing zeros. *)
let brute_fork l u =
  if l <= 0 && 0 <= u then 0
  else begin
    let best = ref l in
    for w = l to u do
      if w <> 0 && B.level w > B.level !best then best := w
    done;
    !best
  end

let test_fork_brute_force () =
  (* all intervals in [-63, 63] *)
  for l = -63 to 63 do
    for u = l to 63 do
      let r = B.expand B.empty_roots ~l ~u in
      let f = B.fork r ~l ~u in
      let expected = brute_fork l u in
      if f <> expected then
        Alcotest.failf "fork(%d,%d) = %d, expected %d" l u f expected
    done
  done

let test_fork_respects_growth_history () =
  (* forks computed under a small root stay valid after expansion *)
  let r1 = B.expand B.empty_roots ~l:3 ~u:5 in
  let f1 = B.fork r1 ~l:3 ~u:5 in
  let r2 = B.expand r1 ~l:500_000 ~u:900_000 in
  check Alcotest.int "same fork after growth" f1 (B.fork r2 ~l:3 ~u:5)

let prop_fork_in_range =
  QCheck.Test.make ~count:2000 ~name:"fork lies in [l,u] (or 0 when straddling)"
    QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range 0 1_000_000))
    (fun (l, len) ->
      let u = l + len in
      let r = B.expand B.empty_roots ~l ~u in
      let f = B.fork r ~l ~u in
      if l <= 0 && 0 <= u then f = 0 else l <= f && f <= u)

let prop_minstep_lemma =
  (* An interval (l,u) is never registered below level floor(log2(u-l)):
     the paper's lemma in Sec. 3.4. *)
  QCheck.Test.make ~count:2000 ~name:"minstep lemma"
    QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range 1 1_000_000))
    (fun (l, len) ->
      let u = l + len in
      let r = B.expand B.empty_roots ~l ~u in
      let f, flevel = B.fork_level r ~l ~u in
      ignore f;
      flevel >= B.floor_log2 (u - l))

(* ---- collect: completeness and disjointness ---- *)

(* Simulate a database: intervals inserted in order, with roots and
   min_level evolving as in Ri_tree.insert. For a query, an interval is
   "captured" when its fork lands in the BETWEEN range or on the correct
   side list with the scan predicate satisfied. *)
let simulate intervals =
  let roots = ref B.empty_roots and min_level = ref B.max_level in
  let stored =
    List.map
      (fun (l, u) ->
        roots := B.expand !roots ~l ~u;
        let f, flevel = B.fork_level !roots ~l ~u in
        if f <> 0 && flevel < !min_level then min_level := flevel;
        (f, l, u))
      intervals
  in
  (!roots, !min_level, stored)

let captured roots min_level stored (ql, qu) =
  let lefts = ref [] and rights = ref [] in
  B.collect roots ~min_level ~ql ~qu
    ~left:(fun w -> lefts := w :: !lefts)
    ~right:(fun w -> rights := w :: !rights);
  (* duplicates in the node lists would produce duplicate results *)
  let sorted_l = List.sort_uniq compare !lefts in
  let sorted_r = List.sort_uniq compare !rights in
  if List.length sorted_l <> List.length !lefts then
    Alcotest.fail "duplicate left nodes";
  if List.length sorted_r <> List.length !rights then
    Alcotest.fail "duplicate right nodes";
  List.iter
    (fun w -> if w >= ql && w <= qu then Alcotest.fail "left node in BETWEEN range")
    !lefts;
  List.iter
    (fun w -> if w >= ql && w <= qu then Alcotest.fail "right node in BETWEEN range")
    !rights;
  List.filter
    (fun (f, l, u) ->
      (f >= ql && f <= qu)
      || (List.mem f !lefts && u >= ql)
      || (List.mem f !rights && l <= qu))
    stored

let run_collect_oracle ~seed ~n ~range ~len ~queries =
  let rng = Workload.Prng.create ~seed in
  let intervals =
    List.init n (fun _ ->
        let l = Workload.Prng.int rng (2 * range) - range in
        (l, l + Workload.Prng.int rng len))
  in
  let roots, min_level, stored = simulate intervals in
  for _ = 1 to queries do
    let ql = Workload.Prng.int rng (3 * range) - (3 * range / 2) in
    let qu = ql + Workload.Prng.int rng (2 * len) in
    let got =
      List.sort compare (captured roots min_level stored (ql, qu))
    in
    let expected =
      List.sort compare
        (List.filter (fun (_, l, u) -> l <= qu && ql <= u) stored)
    in
    if got <> expected then
      Alcotest.failf "collect mismatch for query (%d,%d): got %d expected %d"
        ql qu (List.length got) (List.length expected)
  done

let test_collect_oracle_mixed () =
  run_collect_oracle ~seed:11 ~n:300 ~range:1000 ~len:200 ~queries:300

let test_collect_oracle_wide () =
  run_collect_oracle ~seed:12 ~n:200 ~range:100 ~len:400 ~queries:300

let test_collect_oracle_points () =
  run_collect_oracle ~seed:13 ~n:300 ~range:5000 ~len:1 ~queries:300

let test_collect_empty_tree () =
  let lefts = ref [] and rights = ref [] in
  B.collect B.empty_roots ~min_level:B.max_level ~ql:5 ~qu:9
    ~left:(fun w -> lefts := w :: !lefts)
    ~right:(fun w -> rights := w :: !rights);
  (* only the global root can appear *)
  check (Alcotest.list Alcotest.int) "left" [ 0 ] !lefts;
  check (Alcotest.list Alcotest.int) "right" [] !rights

(* ---- path ---- *)

let prop_path_contains_fork =
  (* every interval containing x is registered on x's backbone path *)
  QCheck.Test.make ~count:500 ~name:"path contains forks of containing intervals"
    QCheck.(
      pair
        (small_list (pair (int_range (-2000) 2000) (int_range 0 500)))
        (int_range (-2500) 2500))
    (fun (spec, x) ->
      let intervals = List.map (fun (l, len) -> (l, l + len)) spec in
      let roots, min_level, stored = simulate intervals in
      let path = ref [] in
      B.path roots ~min_level x (fun w -> path := w :: !path);
      List.for_all
        (fun (f, l, u) -> if l <= x && x <= u then List.mem f !path else true)
        stored)

(* ---- height ---- *)

let test_height () =
  check Alcotest.int "empty" 0 (B.height B.empty_roots ~min_level:B.max_level);
  let r = { B.left_root = 0; right_root = 1 lsl 19 } in
  check Alcotest.int "full granularity" 21 (B.height r ~min_level:0);
  check Alcotest.int "coarse granularity" 11 (B.height r ~min_level:10);
  let r2 = { B.left_root = -1024; right_root = 16 } in
  check Alcotest.int "left dominates" 12 (B.height r2 ~min_level:0)

let () =
  Alcotest.run "backbone"
    [
      ("arithmetic",
       [ Alcotest.test_case "level" `Quick test_level;
         Alcotest.test_case "floor_log2" `Quick test_floor_log2 ]);
      ("expand",
       [ Alcotest.test_case "growth" `Quick test_expand_growth;
         QCheck_alcotest.to_alcotest prop_expand_covers ]);
      ("fork",
       [ Alcotest.test_case "brute force over [-63,63]" `Quick
           test_fork_brute_force;
         Alcotest.test_case "stable across expansion" `Quick
           test_fork_respects_growth_history;
         QCheck_alcotest.to_alcotest prop_fork_in_range;
         QCheck_alcotest.to_alcotest prop_minstep_lemma ]);
      ("collect",
       [ Alcotest.test_case "oracle: mixed signs" `Quick
           test_collect_oracle_mixed;
         Alcotest.test_case "oracle: wide intervals" `Quick
           test_collect_oracle_wide;
         Alcotest.test_case "oracle: points" `Quick
           test_collect_oracle_points;
         Alcotest.test_case "empty tree" `Quick test_collect_empty_tree;
         QCheck_alcotest.to_alcotest prop_path_contains_fork ]);
      ("height", [ Alcotest.test_case "formula" `Quick test_height ]);
    ]
