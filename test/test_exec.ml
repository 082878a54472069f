(* The execution layer: every access path against a brute-force oracle
   across the paper's four distributions, the Allen and temporal
   rewrites, plan-rendering identity between the SQL text and typed
   entry points, the estimator's accuracy budget, and the plan cache. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module Temporal = Interval.Temporal
module Ri = Ritree.Ri_tree
module CM = Ritree.Cost_model
module Dist = Workload.Distribution
module Pl = Exec.Planner
module E = Sqlfront.Engine

let check = Alcotest.check
let sorted = List.sort compare

(* ---- fixtures: one small tree per paper distribution ---- *)

type fixture = {
  db : Relation.Catalog.t;
  tree : Ri.t;
  stats : CM.Stats.t;
  data : Ivl.t array;
}

let build kind ~n =
  let data = Dist.generate ~seed:7 kind ~n ~d:2_000 in
  let db = Relation.Catalog.create () in
  let tree = Ri.create db in
  Array.iteri (fun id ivl -> ignore (Ri.insert ~id tree ivl)) data;
  { db; tree; stats = CM.Stats.analyze tree; data }

let fixtures = lazy (List.map (fun k -> (k, build k ~n:1_000)) Dist.all_kinds)

let oracle data q = Workload.Oracle.ids_intersecting data q

(* ---- property: all access paths ≡ brute force ---- *)

let query_gen =
  QCheck.Gen.(
    let* l = int_bound Dist.domain_max in
    let* len =
      oneof [ return 0; int_bound 2_000; int_bound 60_000 ]
    in
    return (Ivl.make l (l + len)))

let query_arb =
  QCheck.make
    ~print:(fun q -> Ivl.to_string q)
    query_gen

let prop_paths_match_oracle =
  QCheck.Test.make ~count:50 ~name:"two-branch/seq/chosen ≡ oracle (D1-D4)"
    query_arb (fun q ->
      List.for_all
        (fun (_, f) ->
          let expect = oracle f.data q in
          sorted (Pl.intersecting_ids ~path:Pl.Two_branch f.tree q) = expect
          && sorted (Pl.intersecting_ids ~path:Pl.Seq f.tree q) = expect
          && sorted (Pl.intersecting_ids ~stats:f.stats f.tree q) = expect)
        (Lazy.force fixtures))

let prop_point_stabbing =
  QCheck.Test.make ~count:80 ~name:"point queries: stabbing ≡ oracle"
    QCheck.(make Gen.(int_bound Dist.domain_max) ~print:string_of_int)
    (fun p ->
      List.for_all
        (fun (_, f) ->
          sorted (Pl.stabbing_ids f.tree p) = oracle f.data (Ivl.point p))
        (Lazy.force fixtures))

(* The node tables filled in place list the same rows, in the same
   order, as the lists: the served forms probe in the lists' order. *)
let prop_node_buffers =
  QCheck.Test.make ~count:80 ~name:"node buffers = node lists" query_arb
    (fun q ->
      let b = Ri.node_buffers () in
      List.for_all
        (fun (_, f) ->
          Ri.fill_node_lists f.tree q b;
          let nl = Ri.node_lists f.tree q in
          List.init b.Ri.n_left (fun i -> (b.Ri.left.(2 * i), b.Ri.left.((2 * i) + 1)))
          = nl.Ri.left_nodes
          && List.init b.Ri.n_right (fun i -> b.Ri.right.(i)) = nl.Ri.right_nodes)
        (Lazy.force fixtures))

(* ---- property: the 13 Allen plans ≡ brute force ---- *)

let allen_oracle data r q =
  Array.to_list data
  |> List.mapi (fun id ivl -> (ivl, id))
  |> List.filter (fun (ivl, _) -> Allen.holds r ivl q)
  |> List.map snd |> sorted

let prop_allen_match_oracle =
  QCheck.Test.make ~count:20 ~name:"13 Allen plans ≡ oracle (D1-D4)"
    query_arb (fun q ->
      List.for_all
        (fun (_, f) ->
          List.for_all
            (fun r -> sorted (Pl.allen_ids f.tree r q) = allen_oracle f.data r q)
            Allen.all)
        (Lazy.force fixtures))

(* ---- property: the temporal now/infinity rewrite ≡ resolve spec ---- *)

let temporal_fixture =
  lazy
    (let rng = Workload.Prng.create ~seed:99 in
     let db = Relation.Catalog.create () in
     let s = Ritree.Temporal_store.create db in
     let stored = ref [] in
     for i = 0 to 399 do
       let lower = Workload.Prng.int rng 200_000 in
       let t =
         match Workload.Prng.int rng 3 with
         | 0 -> Temporal.make lower (Finite (lower + Workload.Prng.int rng 5_000))
         | 1 -> Temporal.make lower Now
         | _ -> Temporal.make lower Infinity
       in
       let id = Ritree.Temporal_store.insert ~id:i s t in
       stored := (t, id) :: !stored
     done;
     (s, !stored))

let prop_temporal_match_oracle =
  QCheck.Test.make ~count:100 ~name:"temporal now/infinity plan ≡ oracle"
    QCheck.(
      make
        Gen.(
          let* l = int_bound 250_000 in
          let* len = int_bound 20_000 in
          let* now = int_bound 250_000 in
          return (Ivl.make l (l + len), now))
        ~print:(fun (q, now) ->
          Printf.sprintf "%s @now=%d" (Ivl.to_string q) now))
    (fun (q, now) ->
      let s, stored = Lazy.force temporal_fixture in
      let expect =
        List.filter_map
          (fun (t, id) ->
            if Temporal.intersects ~now t q then Some id else None)
          stored
        |> sorted
      in
      sorted (Pl.temporal_ids s ~now q) = expect)

(* ---- plan-rendering identity across entry points ----

   The Fig. 9 SQL text and the typed planner compile to the same IR, so
   the shared renderer prints the same plans. Covered for both
   projections: id-only (covering) and the triple the wire ops use. The
   one difference is on purpose: SQL keeps every conjunct the text
   writes, so its upper-index step also filters on [i.upper >= :qlow],
   which the typed plan drops because the key bounds imply it. *)

let render_typed ~proj f q =
  let c = Pl.plan_intersection ~path:Pl.Two_branch ~proj f.tree q in
  Exec.Render.plan c.Pl.plan.Exec.Ir.branches

let session_with_nodes f q =
  let s = E.session f.db in
  let nl = Ri.node_lists f.tree q in
  E.set_collection s "leftNodes" ~columns:[ "min"; "max" ]
    (List.map (fun (a, b) -> [| a; b |]) nl.Ri.left_nodes);
  E.set_collection s "rightNodes" ~columns:[ "node" ]
    (List.map (fun w -> [| w |]) nl.Ri.right_nodes);
  s

let fig9 proj_cols =
  Printf.sprintf
    "SELECT %s FROM intervals i, leftNodes lft WHERE i.node BETWEEN lft.min \
     AND lft.max AND i.upper >= :qlow UNION ALL SELECT %s FROM intervals i, \
     rightNodes rgt WHERE i.node = rgt.node AND i.lower <= :qup"
    proj_cols proj_cols

(* The SQL rendering without the implied conjunct's FILTER line, which
   it must have once. *)
let without_implied_filter text =
  let line = "        FILTER i.upper >= :qlow\n" in
  let n = String.length line in
  let rec find i =
    if i + n > String.length text then
      Alcotest.failf "no implied FILTER line in:\n%s" text
    else if String.sub text i n = line then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ String.sub text (i + n) (String.length text - i - n)

let test_sql_and_typed_render_identically () =
  let f = List.assoc Dist.D1 (Lazy.force fixtures) in
  let q = Ivl.make 400_000 410_000 in
  let s = session_with_nodes f q in
  check Alcotest.string "id projection (covering)"
    (render_typed ~proj:Pl.Ids f q)
    (without_implied_filter (E.explain s (fig9 "id")));
  check Alcotest.string "triple projection (wire ops)"
    (render_typed ~proj:Pl.Triples f q)
    (without_implied_filter (E.explain s (fig9 "lower, upper, id")))

(* ---- satellite: distinct step numbering across UNION ALL ----

   Two branches probing the very same transient collection must render
   as two separately numbered steps. *)

let test_union_all_steps_distinct () =
  let db = Relation.Catalog.create () in
  let s = E.session db in
  E.set_collection s "c" ~columns:[ "node" ] [ [| 1 |]; [| 2 |] ];
  check Alcotest.string "golden"
    "SELECT STATEMENT\n\
    \  UNION-ALL\n\
    \    COLLECTION ITERATOR c [step 1]\n\
    \    COLLECTION ITERATOR c [step 2]\n"
    (E.explain s "SELECT node FROM c UNION ALL SELECT node FROM c")

let test_two_branch_golden () =
  let f = List.assoc Dist.D1 (Lazy.force fixtures) in
  let q = Ivl.make 400_000 410_000 in
  let text = render_typed ~proj:Pl.Ids f q in
  List.iter
    (fun needle ->
      if
        not
          (let nl = String.length needle and tl = String.length text in
           let rec scan i =
             i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "missing %S in:\n%s" needle text)
    [ "SELECT STATEMENT"; "UNION-ALL"; "COLLECTION ITERATOR leftNodes [step 1]";
      "INDEX RANGE SCAN INTERVALS_UPPER"; "[step 2]";
      "COLLECTION ITERATOR rightNodes [step 3]";
      "INDEX RANGE SCAN INTERVALS_LOWER"; "[step 4]" ]

(* EXPLAIN ANALYZE of the same plan reports each step's emitted rows.
   The counts are pinned: the node lists, the probes the outer rows
   drive and the rows each inner probe keeps. *)
let test_two_branch_analyze_counts () =
  let f = List.assoc Dist.D1 (Lazy.force fixtures) in
  let q = Ivl.make 400_000 410_000 in
  let text = Pl.explain ~analyze:true f.tree (Pl.Intersect_target q) in
  let counts label =
    let n = String.length label in
    let rec scan i acc =
      if i + n > String.length text then List.rev acc
      else if String.sub text i n = label then begin
        let j = ref (i + n) in
        while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        scan !j (int_of_string (String.sub text (i + n) (!j - i - n)) :: acc)
      end
      else scan (i + 1) acc
    in
    scan 0 []
  in
  check Alcotest.(list int) "per-step actual rows" [ 12; 6; 9; 0 ]
    (counts "actual rows=");
  check Alcotest.(list int) "ACTUAL footer"
    [ List.length (oracle f.data q) ]
    (counts "ACTUAL     rows=")

(* ---- the executor's allocation per returned row ----

   A warm covering D1 n=35 000 relation (the mixed-disk server's) answers
   a fixed seeded set of 0.6 % intersections through the planner's
   two-branch plan. Names resolve once per branch and each index step
   decodes its entries into one key array, so what is left per row is
   the output row and its list cells. Measured: 21.5 words per row (the
   bound adds 25 %), against 44.1 when the cursor built a key per entry
   and 200.2 when every row looked its names up in an association
   list. *)
let test_exec_words_per_row () =
  let data = Dist.generate ~seed:1 Dist.D1 ~n:35_000 ~d:2_000 in
  let db = Relation.Catalog.create ~cache_blocks:4_096 () in
  let tree =
    Ri.bulk_load ~layout:Ri.Covering db
      (Array.mapi (fun id ivl -> (ivl, id)) data)
  in
  let queries = Workload.Query_gen.queries ~seed:3 ~data ~count:50 0.006 in
  let run () =
    Array.fold_left
      (fun n q ->
        n
        + List.length
            (Pl.run (Pl.plan_intersection ~proj:Pl.Triples tree q))
              .Exec.Executor.rows)
      0 queries
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let rows = run () in
  let words = (Gc.minor_words () -. w0) /. float_of_int rows in
  if words > 27.0 then
    Alcotest.failf "%.1f minor words per returned row (%d rows), bound 27"
      words rows

(* ---- the words a served point read allocates ----

   The hot-point fixture: a durable covering D1 n = 2 000 preloaded into
   the default 200-frame pool, answering seeded point queries through
   [Session.handle] as a typed Intersect and as a prepared EXECUTE. The
   Fig. 9 forms are compiled once per tree and a prepared SELECT once
   per statement, so what is left per request is the node lists' walk,
   the price, the probes and the answer. Measured: 691.5 words per
   Intersect and 822.7 per EXECUTE (the bounds add 25 %), against 4 030
   and 4 444 when every request priced two candidate plans built as IR
   and compiled the one it ran. After every request no frame is pinned:
   a cursor kept from one query to the next holds no pin. *)
let hot_point =
  lazy
    (let sh = Server.Session.shared ~durable:true () in
     Server.Session.preload sh
       (Dist.generate ~seed:1 Dist.D1 ~n:2_000 ~d:2_000);
     let s = Server.Session.create sh in
     (match
        Server.Session.handle s
          (Server.Protocol.Prepare
             { name = "hp";
               sql =
                 "SELECT lower, upper, id FROM intervals WHERE lower <= :qup \
                  AND upper >= :qlow" })
      with
     | Server.Protocol.Ack _ -> ()
     | _ -> Alcotest.fail "PREPARE failed");
     (sh, s))

let words_per_request request =
  let sh, s = Lazy.force hot_point in
  let pool = Relation.Catalog.pool (Server.Session.catalog sh) in
  let queries = Workload.Query_gen.point_queries ~seed:5 ~count:500 () in
  let pass () =
    Array.iter
      (fun q ->
        (match Server.Session.handle s (request q) with
        | Server.Protocol.Rows _ -> ()
        | _ -> Alcotest.fail "a point read did not answer rows");
        if Storage.Buffer_pool.pinned_frames pool <> 0 then
          Alcotest.fail "a frame stays pinned after the request")
      queries
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. w0) /. float_of_int (Array.length queries)

let gate_words what ~bound request () =
  let words = words_per_request request in
  if words > bound then
    Alcotest.failf "%s: %.1f minor words per request, bound %.0f" what words
      bound

let intersect_request q =
  Server.Protocol.Intersect { lower = Ivl.lower q; upper = Ivl.upper q }

let execute_request q =
  Server.Protocol.Execute { name = "hp"; params = [ Ivl.upper q; Ivl.lower q ] }

(* ---- the compiled Fig. 9 forms against the brute-force oracle ----

   A server serves Intersect, the nine intersection-implying Allen
   relations and SQL intersections from one set of forms per tree,
   compiled once. Each property keeps a model of (lower, upper, id)
   rows and compares the served answers with it as multisets, through
   [Session.handle], while the forms' inputs change under them. *)

module S = Server.Session
module P = Server.Protocol

type row = int * int * int

let model_of data : row list =
  Array.to_list (Array.mapi (fun id ivl -> (Ivl.lower ivl, Ivl.upper ivl, id)) data)

let ivl_of (l, u, _) = Ivl.make l u
let sort_rows (l : row list) = List.sort compare l

let answer what = function
  | P.Rows { rows; _ } -> sort_rows (List.map (fun r -> (r.(0), r.(1), r.(2))) rows)
  | _ -> QCheck.Test.fail_reportf "%s answered no rows" what

let served_ok s req =
  match S.handle s req with
  | P.Ack _ -> ()
  | _ -> QCheck.Test.fail_reportf "request refused"

let sql_text q =
  Printf.sprintf
    "SELECT lower, upper, id FROM intervals WHERE lower <= %d AND upper >= %d"
    (Ivl.upper q) (Ivl.lower q)

let nine =
  Allen.[ Overlaps; Finished_by; Contains; Starts; Equals; Started_by;
          During; Finishes; Overlapped_by ]

(* Every way the session reads [q] against the model: typed Intersect,
   SQL text, and the nine relations' typed Allen. *)
let reads_match s (model : row list) q =
  let want = sort_rows (List.filter (fun r -> Ivl.intersects (ivl_of r) q) model) in
  let lower = Ivl.lower q and upper = Ivl.upper q in
  answer "Intersect" (S.handle s (P.Intersect { lower; upper })) = want
  && answer "SQL" (S.handle s (P.Sql (sql_text q))) = want
  && List.for_all
       (fun relation ->
         answer "Allen" (S.handle s (P.Allen { relation; lower; upper }))
         = sort_rows (List.filter (fun r -> Allen.holds relation (ivl_of r) q) model))
       nine

(* points, short and long ranges, the whole domain and beyond it, and
   queries wholly outside the data *)
let forms_queries rng =
  let dm = Dist.domain_max in
  List.init 12 (fun i ->
      let l = Workload.Prng.int rng (dm + 1) in
      match i mod 6 with
      | 0 -> Ivl.point l
      | 1 -> Ivl.make l (l + Workload.Prng.int rng 2_000)
      | 2 -> Ivl.make l (l + Workload.Prng.int rng 200_000)
      | 3 -> Ivl.make (-10) (dm + 10)
      | 4 -> Ivl.make (-5_000 - l) (-4_000)
      | _ -> Ivl.make (dm + 1 + l) (dm + 2 + l + Workload.Prng.int rng 100))

let remove_one x l =
  let rec go = function [] -> [] | y :: r -> if y = x then r else y :: go r in
  go l

let forms_case =
  QCheck.(pair (int_bound 1_000_000) (int_range 0 3))

let kind_of k = List.nth Dist.all_kinds k

(* A pinned snapshot with pending inserts and deletes reads its own
   writes and nothing another session commits after it pinned; the
   other session reads its commit. *)
let prop_forms_snapshot =
  QCheck.Test.make ~count:15 ~name:"forms = oracle under a pinned snapshot"
    forms_case (fun (seed, k) ->
      let data = Dist.generate ~seed (kind_of k) ~n:300 ~d:2_000 in
      let sh = S.shared () in
      S.preload sh data;
      let a = S.create sh and b = S.create sh in
      let rng = Workload.Prng.create ~seed in
      let base = model_of data in
      let pick model = List.nth model (Workload.Prng.int rng (List.length model)) in
      let insert s id =
        let l = Workload.Prng.int rng Dist.domain_max in
        let r = (l, l + Workload.Prng.int rng 5_000, id) in
        let l, u, id = r in
        served_ok s (P.Insert { lower = l; upper = u; id = Some id });
        r
      in
      let delete s model =
        let ((l, u, id) as r) = pick model in
        served_ok s (P.Delete { lower = l; upper = u; id });
        remove_one r model
      in
      served_ok a P.Begin;
      let seen_a = ref base in
      for i = 1 to 8 do seen_a := insert a (10_000 + i) :: !seen_a done;
      for _ = 1 to 5 do seen_a := delete a !seen_a done;
      let seen_b = ref base in
      served_ok b P.Begin;
      for i = 1 to 8 do seen_b := insert b (20_000 + i) :: !seen_b done;
      for _ = 1 to 5 do seen_b := delete b !seen_b done;
      served_ok b P.Commit;
      (* a's deletes may name rows b deleted too: its snapshot still
         holds them, so they stay deleted for a alone *)
      List.for_all
        (fun q -> reads_match a !seen_a q && reads_match b !seen_b q)
        (forms_queries rng))

(* The statistics refresh when the row count doubles; the choice moves
   with them, the answers do not. *)
let prop_forms_stats_refresh =
  QCheck.Test.make ~count:10 ~name:"forms = oracle across 2x stats refresh"
    forms_case (fun (seed, k) ->
      let data = Dist.generate ~seed (kind_of k) ~n:150 ~d:2_000 in
      let sh = S.shared () in
      S.preload sh data;
      let s = S.create sh in
      let rng = Workload.Prng.create ~seed in
      let model = ref (model_of data) in
      let before = List.for_all (reads_match s !model) (forms_queries rng) in
      for i = 1 to 200 do
        let l = Workload.Prng.int rng Dist.domain_max in
        let u = l + Workload.Prng.int rng 50_000 in
        served_ok s (P.Insert { lower = l; upper = u; id = Some (1_000 + i) });
        model := (l, u, 1_000 + i) :: !model
      done;
      served_ok s P.Commit;
      before && List.for_all (reads_match s !model) (forms_queries rng))

(* A reload swaps every handle: the forms are compiled again over the
   new tree. *)
let prop_forms_reload =
  QCheck.Test.make ~count:8 ~name:"forms = oracle after Session.reload"
    forms_case (fun (seed, k) ->
      let data = Dist.generate ~seed (kind_of k) ~n:200 ~d:2_000 in
      let sh = S.shared ~durable:true () in
      S.preload sh data;
      let s = S.create sh in
      let rng = Workload.Prng.create ~seed in
      let model = ref (model_of data) in
      let before = List.for_all (reads_match s !model) (forms_queries rng) in
      for i = 1 to 20 do
        let l = Workload.Prng.int rng Dist.domain_max in
        let u = l + Workload.Prng.int rng 5_000 in
        served_ok s (P.Insert { lower = l; upper = u; id = Some (1_000 + i) });
        model := (l, u, 1_000 + i) :: !model
      done;
      served_ok s P.Commit;
      (* the checkpoint puts the committed pages on the device the
         reload reads *)
      S.flush_shared sh;
      S.reload sh;
      before && List.for_all (reads_match s !model) (forms_queries rng))

(* A run that starts while another runs on the same forms plans its own;
   a UNION ALL of two intersections reuses one form twice in a
   statement. *)
let prop_forms_nested =
  QCheck.Test.make ~count:15 ~name:"forms = oracle, one run inside another"
    forms_case (fun (seed, k) ->
      let data = Dist.generate ~seed (kind_of k) ~n:300 ~d:2_000 in
      let sh = S.shared () in
      S.preload sh data;
      let s = S.create sh in
      let forms = Pl.prepare (S.tree sh) in
      let stats = CM.Stats.analyze (S.tree sh) in
      let model = model_of data in
      let want q = sort_rows (List.filter (fun r -> Ivl.intersects (ivl_of r) q) model) in
      let triples (out : Exec.Executor.output) =
        sort_rows (List.map (fun r -> (r.(0), r.(1), r.(2))) out.rows)
      in
      let rng = Workload.Prng.create ~seed in
      List.for_all
        (fun q ->
          let q2 = List.hd (forms_queries rng) in
          let inner = ref [] in
          (* the outer run reads its snapshot view once it has started *)
          let vis _ =
            inner := triples (Pl.intersect forms ~stats ~proj:Pl.Triples q2);
            None
          in
          let outer = triples (Pl.intersect forms ~stats ~vis ~proj:Pl.Triples q) in
          let union =
            answer "UNION ALL"
              (S.handle s
                 (P.Sql (sql_text q ^ " UNION ALL " ^ sql_text q2)))
          in
          outer = want q && !inner = want q2
          && union = sort_rows (want q @ want q2))
        (forms_queries rng))

(* ---- GROUP BY against a list oracle ----

   Rows are grouped as they stream: in an int-keyed table when the key
   is one column, else on the key cells. Either way the groups come out
   in first-seen order with the aggregates of a plain fold over each
   group's rows. *)

let group_oracle key rows =
  let keys =
    List.fold_left
      (fun seen r -> if List.mem (key r) seen then seen else key r :: seen)
      [] rows
    |> List.rev
  in
  List.map (fun k -> (k, List.filter (fun r -> key r = k) rows)) keys

let prop_group_by_oracle =
  QCheck.Test.make ~count:200 ~name:"GROUP BY = list oracle"
    QCheck.(
      list_of_size Gen.(int_range 0 60)
        (triple (int_range (-3) 6) (int_range (-50) 50) (int_range 0 2)))
    (fun cells ->
      let rows = List.map (fun (k, v, w) -> [| k; v; w |]) cells in
      let s = E.session (Relation.Catalog.create ()) in
      E.set_collection s "c" ~columns:[ "k"; "v"; "w" ] rows;
      let fold f g = List.fold_left (fun a r -> f a r.(1)) (List.hd g).(1) g in
      let one =
        List.map
          (fun (k, g) ->
            [| k; List.length g; List.fold_left (fun a r -> a + r.(1)) 0 g;
               fold min g; fold max g; List.length g |])
          (group_oracle (fun r -> r.(0)) rows)
      in
      let two =
        List.map
          (fun ((k, w), g) -> [| w; k; fold max g; List.length g |])
          (group_oracle (fun r -> (r.(0), r.(2))) rows)
      in
      (* no GROUP BY: one fold over both UNION ALL branches, either of
         which may be empty; an empty input still answers one row, and
         LIMIT 0 cuts it *)
      let both = List.filter (fun r -> r.(2) = 0) rows
                 @ List.filter (fun r -> r.(0) >= 5) rows in
      let union sel =
        Printf.sprintf
          "SELECT %s FROM c WHERE w = 0 UNION ALL SELECT %s FROM c WHERE k >= 5"
          sel sel
      in
      let n = List.length both in
      let counts = [ [| n; List.fold_left (fun a r -> a + r.(1)) 0 both; n |] ] in
      let extremes =
        match E.query s (union "min(v), max(v)") with
        | got -> both <> [] && got = [ [| fold min both; fold max both |] ]
        | exception E.Error msg ->
            both = [] && msg = "MIN over an empty result"
      in
      E.query s
        "SELECT k, count(*), sum(v), min(v), max(v), count(v) FROM c GROUP BY k"
      = one
      && E.query s "SELECT w, k, max(v), count(*) FROM c GROUP BY k, w" = two
      && E.query s (union "count(*), sum(v), count(v)") = counts
      && E.query s (union "count(*), sum(v), count(v)" ^ " LIMIT 0") = []
      && extremes)

(* An aggregate without GROUP BY answers one row, which LIMIT cuts like
   any other. *)
let test_aggregate_limit () =
  let s = E.session (Relation.Catalog.create ()) in
  E.set_collection s "c" ~columns:[ "k"; "v" ]
    [ [| 1; 10 |]; [| 2; 20 |]; [| 2; 5 |] ];
  let rows = Alcotest.(list (array int)) in
  check rows "count LIMIT 0" [] (E.query s "SELECT count(*) FROM c LIMIT 0");
  check rows "count LIMIT 1" [ [| 3 |] ]
    (E.query s "SELECT count(*) FROM c LIMIT 1");
  check rows "sum, max LIMIT 0" []
    (E.query s "SELECT sum(v), max(v) FROM c WHERE k = 2 LIMIT 0");
  check rows "sum, max LIMIT 1" [ [| 25; 20 |] ]
    (E.query s "SELECT sum(v), max(v) FROM c WHERE k = 2 LIMIT 1");
  check rows "empty input LIMIT 0" []
    (E.query s "SELECT count(*) FROM c WHERE k > 5 LIMIT 0")

(* ---- satellite: estimator accuracy budget ----

   Median relative I/O error of the cost model against a cold cache
   stays within 1.5x on every distribution. *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

let cold_io db f =
  Relation.Catalog.flush db;
  Relation.Catalog.drop_cache db;
  Relation.Catalog.reset_io_stats db;
  ignore (f ());
  (Relation.Catalog.io_stats db).Storage.Block_device.Stats.reads

(* Planned without statistics, a point query takes the two-branch plan,
   block for block: a single-branch probe of the point's backbone path
   would cost 1.2-8x its cold I/O. *)
let test_no_stats_point_is_two_branch () =
  List.iter
    (fun (kind, f) ->
      Array.iter
        (fun q ->
          let two =
            cold_io f.db (fun () ->
                Pl.intersecting_ids ~path:Pl.Two_branch f.tree q)
          in
          let check_io label io =
            if io <> two then
              Alcotest.failf "%s %s %s: %d blocks, two-branch %d"
                (Dist.kind_to_string kind) label (Ivl.to_string q) io two
          in
          check_io "no-stats"
            (cold_io f.db (fun () -> Pl.intersecting_ids f.tree q));
          check_io "stabbing"
            (cold_io f.db (fun () -> Pl.stabbing_ids f.tree (Ivl.lower q))))
        (Workload.Query_gen.point_queries ~seed:13 ~count:20 ()))
    (Lazy.force fixtures)

let test_estimate_error_budget () =
  List.iter
    (fun kind ->
      let f = build kind ~n:4_000 in
      let queries =
        Workload.Query_gen.queries ~seed:11 ~data:f.data ~count:11 0.01
      in
      let errs =
        Array.to_list queries
        |> List.map (fun q ->
               let actual =
                 cold_io f.db (fun () ->
                     Pl.intersecting_ids ~path:Pl.Two_branch f.tree q)
               in
               let rel pred =
                 Float.abs (pred -. float_of_int actual)
                 /. Float.max 1.0 (float_of_int actual)
               in
               let c =
                 Pl.plan_intersection ~path:Pl.Two_branch ~proj:Pl.Ids f.tree q
               in
               rel (Pl.price ~stats:f.stats c))
      in
      let p50 = median errs in
      if p50 > 1.0 then
        Alcotest.failf "%s: estimator median error %.2f > 1.0"
          (Dist.kind_to_string kind) p50)
    Dist.all_kinds

(* ---- the plan cache ---- *)

let cache_sql =
  "SELECT id FROM intervals WHERE lower <= 500000 AND upper >= 400000"

let test_plan_cache_hit_no_parse () =
  let f = build Dist.D1 ~n:500 in
  let s = E.session f.db in
  let r0 = E.query s cache_sql in
  (* a repeat of the same text must touch neither the parser nor the
     planner: the raw-text memo plus the normalized plan table answer
     it with two hashtable probes *)
  let p0 = E.parse_count () and pl0 = E.plan_count () in
  let r1 = E.query s cache_sql in
  check Alcotest.int "no parse on hit" p0 (E.parse_count ());
  check Alcotest.int "no plan on hit" pl0 (E.plan_count ());
  check Alcotest.bool "same result" true (r0 = r1);
  (* different literals, same shape: still a plan-table hit *)
  let pl1 = E.plan_count () in
  ignore
    (E.query s "SELECT id FROM intervals WHERE lower <= 9999 AND upper >= 5");
  check Alcotest.int "normalized shape shares the plan" pl1 (E.plan_count ());
  let hits, _misses = E.plan_cache_stats s in
  check Alcotest.bool "hits recorded" true (hits >= 2);
  (* DDL invalidates: the next execution replans *)
  ignore (E.exec s "CREATE TABLE zz (a INT)");
  let pl2 = E.plan_count () in
  ignore (E.query s cache_sql);
  check Alcotest.bool "DDL invalidates cached plans" true
    (E.plan_count () > pl2)

let test_plan_cache_speedup () =
  (* measured on a statement whose execution is trivial, so throughput
     is bounded by parse+plan — the regime the cache exists for.
     Data-bound statements spread the same absolute win over their
     index probes (the plan bench reports both). *)
  let s = E.session (Relation.Catalog.create ()) in
  E.set_collection s "ns" ~columns:[ "node" ] [ [| 1 |]; [| 2 |] ];
  let sql =
    "SELECT node FROM ns WHERE node = -1 UNION ALL SELECT node FROM ns WHERE \
     node = -2 UNION ALL SELECT node FROM ns WHERE node = -3"
  in
  let reps = 1000 in
  (* [exec_script] never consults the plan cache: it is the uncached
     path *)
  let cached () = ignore (E.query s sql)
  and uncached () = E.exec_script s sql ignore in
  let time run =
    run ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      run ()
    done;
    Unix.gettimeofday () -. t0
  in
  (* best of three to keep scheduler noise out of the ratio *)
  let best run = List.fold_left min infinity [ time run; time run; time run ] in
  let tu = best uncached and tc = best cached in
  check Alcotest.bool
    (Printf.sprintf "cache hits >= 2x uncached (%.1fx)" (tu /. tc))
    true
    (tu >= 2.0 *. tc)

(* A sequential scan binds every heap row, in heap order, with its rowid
   appended: a snapshot view that hides one rowid drops exactly that
   row, and the rows the view adds follow the heap's. *)
let test_seq_scan_rows () =
  let db = Relation.Catalog.create ~block_size:256 () in
  let t = Relation.Catalog.create_table db ~name:"t" ~columns:[ "k"; "v" ] in
  let rids =
    List.init 20 (fun i -> Relation.Table.insert t [| i mod 5; 100 + i |])
  in
  let heap_rows = ref [] in
  Relation.Table.iter t (fun rid row -> heap_rows := (rid, row) :: !heap_rows);
  let heap_rows = List.rev !heap_rows in
  let scan vis =
    let step =
      Exec.Ir.mk_step ~alias:"t" ~source:(Exec.Ir.Base t)
        ~columns:(Relation.Table.columns t) Exec.Ir.Seq_scan
    in
    (Exec.Executor.run
       { (Pl.make_ctx [] []) with Exec.Ir.vis }
       (Pl.plain_plan
          [ { Exec.Ir.steps = [ step ]; projections = [ Exec.Ir.Star ];
              group_by = [] } ]))
      .Exec.Executor.rows
  in
  let rows = Alcotest.list (Alcotest.array Alcotest.int) in
  check rows "every row, heap order" (List.map snd heap_rows)
    (scan Exec.Ir.no_vis);
  let hidden = List.nth rids 7 in
  let view =
    { Relation.Txn.visible = (fun rid -> rid <> hidden);
      extra = (fun () -> [ [| 9; 999 |] ]) }
  in
  check rows "the view's rowid test and extra rows"
    (List.filter_map
       (fun (rid, row) -> if rid = hidden then None else Some row)
       heap_rows
    @ [ [| 9; 999 |] ])
    (scan (fun _ -> Some view))

(* A batched index step under a collection loop defers each probe's
   scan until every probe has descended. It must still yield what the
   plain nested loop yields, in the same order, with each probe's outer
   row bound when its scan runs and a snapshot's extra rows injected
   into exactly the probe whose key range holds them. *)
let test_batched_probes () =
  let db = Relation.Catalog.create ~block_size:256 () in
  let t = Relation.Catalog.create_table db ~name:"t" ~columns:[ "k"; "v" ] in
  let rids =
    List.init 60 (fun i -> Relation.Table.insert t [| i mod 5; 100 + i |])
  in
  let index =
    Relation.Table.create_index t ~name:"t_kv" ~columns:[ "k"; "v" ]
  in
  let ks = [ [| 3 |]; [| 1 |]; [| 4 |] ] in
  let run ~batched vis =
    let outer =
      Exec.Ir.mk_step ~alias:"p" ~source:(Exec.Ir.Collection "ks")
        ~columns:[| "k" |] Exec.Ir.Seq_scan
    in
    let scan =
      Exec.Ir.mk_step ~alias:"i" ~source:(Exec.Ir.Base t)
        ~columns:(Relation.Table.Index.columns index)
        (Exec.Ir.Index_scan
           { index; eq = [ Exec.Ir.Field (Some "p", "k") ]; lo = None;
             hi = None; refine_lo = None; refine_hi = None; covering = true;
             batched })
    in
    (Exec.Executor.run
       { (Pl.make_ctx [] [ ("ks", Exec.Ir.coll [| "k" |] ks) ]) with Exec.Ir.vis }
       (Pl.plain_plan
          [ { Exec.Ir.steps = [ outer; scan ];
              projections =
                [ Exec.Ir.Col (Some "p", "k"); Exec.Ir.Col (Some "i", "v") ];
              group_by = [] } ]))
      .Exec.Executor.rows
  in
  let rows = Alcotest.list (Alcotest.array Alcotest.int) in
  let expected =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun i -> if i mod 5 = k.(0) then Some [| k.(0); 100 + i |] else None)
          (List.init 60 Fun.id))
      ks
  in
  check rows "plain nested loop" expected (run ~batched:false Exec.Ir.no_vis);
  check rows "batched = plain" expected (run ~batched:true Exec.Ir.no_vis);
  let hidden = List.nth rids 6 (* k = 1, v = 106 *) in
  let view =
    { Relation.Txn.visible = (fun rid -> rid <> hidden);
      extra = (fun () -> [ [| 1; 999 |] ]) }
  in
  let vis = fun _ -> Some view in
  check rows "batched = plain under a snapshot view"
    (run ~batched:false vis) (run ~batched:true vis);
  check Alcotest.bool "the view's rows reach the k = 1 probe only" true
    (let r = run ~batched:true vis in
     List.mem [| 1; 999 |] r
     && (not (List.mem [| 1; 106 |] r))
     && List.length r = List.length expected)

let () =
  Alcotest.run "exec"
    [
      ("paths",
       [ QCheck_alcotest.to_alcotest prop_paths_match_oracle;
         QCheck_alcotest.to_alcotest prop_point_stabbing;
         QCheck_alcotest.to_alcotest prop_allen_match_oracle;
         QCheck_alcotest.to_alcotest prop_temporal_match_oracle;
         Alcotest.test_case "no-stats point query = two-branch I/O" `Quick
           test_no_stats_point_is_two_branch;
         Alcotest.test_case "batched probes = nested loop" `Quick
           test_batched_probes;
         Alcotest.test_case "seq scan yields rows, rowids" `Quick
           test_seq_scan_rows;
         QCheck_alcotest.to_alcotest prop_node_buffers ]);
      ("explain",
       [ Alcotest.test_case "SQL text = typed plan, rendered" `Quick
           test_sql_and_typed_render_identically;
         Alcotest.test_case "UNION ALL steps numbered distinctly" `Quick
           test_union_all_steps_distinct;
         Alcotest.test_case "two-branch golden" `Quick test_two_branch_golden;
         Alcotest.test_case "two-branch EXPLAIN ANALYZE counts" `Quick
           test_two_branch_analyze_counts ]);
      ("group by",
       [ QCheck_alcotest.to_alcotest prop_group_by_oracle;
         Alcotest.test_case "aggregate LIMIT 0 and 1" `Quick
           test_aggregate_limit ]);
      ("allocation",
       [ Alcotest.test_case "covering intersection <= 27 words/row" `Quick
           test_exec_words_per_row;
         Alcotest.test_case "point Intersect <= 865 words" `Quick
           (gate_words "Intersect" ~bound:865. intersect_request);
         Alcotest.test_case "point EXECUTE <= 1030 words" `Quick
           (gate_words "EXECUTE" ~bound:1030. execute_request) ]);
      ( "compiled",
        List.map QCheck_alcotest.to_alcotest
          [ prop_forms_snapshot; prop_forms_stats_refresh; prop_forms_reload;
            prop_forms_nested ] );
      ("estimates",
       [ Alcotest.test_case "median I/O error within 1.0x" `Slow
           test_estimate_error_budget ]);
      ("plan cache",
       [ Alcotest.test_case "hit: no parse, no plan, DDL invalidates" `Quick
           test_plan_cache_hit_no_parse;
         Alcotest.test_case "hit throughput >= 2x uncached" `Slow
           test_plan_cache_speedup ]);
    ]
