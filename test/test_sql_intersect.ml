(* SQL intersection predicates on the server's RI-tree relation run the
   typed Intersect op's plan. The property compares SQL text, PREPARE /
   EXECUTE, the typed op and a brute-force filter over random D1-D4 data
   inside an open transaction that holds buffered inserts and deletes
   (and, in some cases, sees a concurrent commit it must not see). The
   unit cases pin the plan shape and the compile-once contract. *)

module S = Server.Session
module P = Server.Protocol
module Ivl = Interval.Ivl
module Dist = Workload.Distribution

let sorted l = List.sort compare l

(* ---- the generated case ---- *)

type query = {
  a : int; (* lower is bounded from above by A *)
  b : int; (* upper is bounded from below by B *)
  a_strict : bool; (* lower < A instead of lower <= A *)
  b_strict : bool; (* upper > B instead of upper >= B *)
  a_commuted : bool; (* A >= lower instead of lower <= A *)
  b_commuted : bool;
  upper_first : bool; (* conjunct order *)
  extra : int option; (* AND id > k *)
  proj : [ `Star | `Id | `Triple ];
  order : (bool * int) option; (* ORDER BY id [DESC] LIMIT m *)
}

type case = {
  kind : Dist.kind;
  n : int;
  seed : int;
  hot : bool; (* a hot tier the planner may pick when nothing is buffered *)
  own_writes : int; (* buffered inserts, and as many deletes *)
  concurrent : bool; (* another session commits after the snapshot *)
  queries : query list;
}

(* Bounds inside the data, around it, negative, far beyond the RI-tree's
   supported magnitude, and at the integer edges ([min_int] itself has
   no SQL literal). *)
let gen_value =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 Dist.domain_max);
        (2, int_range (-5_000) 5_000);
        (2, int_range (Dist.domain_max - 5_000) (Dist.domain_max + 5_000));
        (1,
         oneofl
           [ min_int + 1; -(1 lsl 50); -(1 lsl 40) - 7; (1 lsl 40) + 7;
             1 lsl 50; max_int ]) ])

let gen_query =
  QCheck.Gen.(
    let* b = gen_value in
    let* a =
      frequency
        [ (5, map (fun w -> b + w) (int_range 0 20_000)); (* B <= A *)
          (1, return b); (* A = B *)
          (2, gen_value) (* often A < B *) ]
    in
    let* a_strict = bool and* b_strict = bool in
    let* a_commuted = bool and* b_commuted = bool in
    let* upper_first = bool in
    let* extra = opt (int_range 0 3_000) in
    let* proj = oneofl [ `Star; `Id; `Triple ] in
    let* order = opt (pair bool (int_range 0 12)) in
    return
      { a; b; a_strict; b_strict; a_commuted; b_commuted; upper_first; extra;
        proj; order })

let gen_case =
  QCheck.Gen.(
    let* kind = oneofl Dist.all_kinds in
    let* n =
      frequency [ (1, return 0); (2, int_range 1 60); (4, int_range 600 2_500) ]
    in
    let* seed = int_range 1 10_000 in
    let* hot = bool in
    let* own_writes = frequency [ (1, return 0); (3, int_range 1 12) ] in
    let* concurrent = bool in
    let* queries = list_size (int_range 3 6) gen_query in
    return { kind; n; seed; hot; own_writes; concurrent; queries })

(* ---- SQL rendering ---- *)

let proj_sql = function
  | `Star -> "*"
  | `Id -> "id"
  | `Triple -> "lower, upper, id"

(* The statement with each value rendered by [v]: literals for SQL text,
   host variables for PREPARE. *)
let sql_of q v =
  let lower_c =
    let op = if q.a_strict then "<" else "<=" in
    let flip = if q.a_strict then ">" else ">=" in
    if q.a_commuted then Printf.sprintf "%s %s lower" (v "a" q.a) flip
    else Printf.sprintf "lower %s %s" op (v "a" q.a)
  in
  let upper_c =
    let op = if q.b_strict then ">" else ">=" in
    let flip = if q.b_strict then "<" else "<=" in
    if q.b_commuted then Printf.sprintf "%s %s upper" (v "b" q.b) flip
    else Printf.sprintf "upper %s %s" op (v "b" q.b)
  in
  let conj =
    if q.upper_first then [ upper_c; lower_c ] else [ lower_c; upper_c ]
  in
  let conj =
    match q.extra with
    | Some k -> conj @ [ Printf.sprintf "id > %s" (v "k" k) ]
    | None -> conj
  in
  Printf.sprintf "SELECT %s FROM intervals WHERE %s%s" (proj_sql q.proj)
    (String.concat " AND " conj)
    (match q.order with
    | None -> ""
    | Some (desc, m) ->
        Printf.sprintf " ORDER BY id%s LIMIT %d" (if desc then " DESC" else "") m)

let literal _ x = string_of_int x
let host name _ = ":" ^ name

(* EXECUTE binds host variables in first-appearance order. *)
let params_of q =
  (if q.upper_first then [ q.b; q.a ] else [ q.a; q.b ]) @ Option.to_list q.extra

let query_to_string q = sql_of q literal

let case_to_string c =
  Printf.sprintf "%s n=%d seed=%d hot=%b own_writes=%d concurrent=%b\n  %s"
    (Dist.kind_to_string c.kind) c.n c.seed c.hot c.own_writes c.concurrent
    (String.concat "\n  " (List.map query_to_string c.queries))

(* ---- the brute-force oracle ---- *)

(* Rows are (node, lower, upper, id). *)
let qualifies q (r : int array) =
  let l = r.(1) and u = r.(2) and id = r.(3) in
  (if q.a_strict then l < q.a else l <= q.a)
  && (if q.b_strict then u > q.b else u >= q.b)
  && match q.extra with Some k -> id > k | None -> true

let project q (r : int array) =
  match q.proj with
  | `Star -> r
  | `Id -> [| r.(3) |]
  | `Triple -> [| r.(1); r.(2); r.(3) |]

let expected q visible =
  let hits = List.filter (qualifies q) visible in
  let hits =
    match q.order with
    | None -> hits
    | Some (desc, m) ->
        let by_id = List.sort (fun x y -> compare x.(3) y.(3)) hits in
        let by_id = if desc then List.rev by_id else by_id in
        List.filteri (fun i _ -> i < m) by_id
  in
  sorted (List.map (project q) hits)

(* ---- running a case ---- *)

let resp_to_string = function
  | P.Ack m -> "ack: " ^ m
  | P.Error m -> "error: " ^ m
  | P.Invalid m -> "invalid: " ^ m
  | P.Conflict m -> "conflict: " ^ m
  | P.Rows _ -> "rows"
  | _ -> "other response"

let rows what = function
  | P.Rows { rows; _ } -> rows
  | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_to_string r)

let ack what = function
  | P.Ack _ -> ()
  | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_to_string r)

let triple_of (r : int array) = (r.(1), r.(2), r.(3))

let run_case c =
  let sh = S.shared ~hot_tier_mb:(if c.hot then 8 else 0) () in
  let data = Dist.generate ~seed:c.seed c.kind ~n:c.n ~d:2_000 in
  S.preload sh data;
  let s = S.create sh in
  ack "begin" (S.handle s P.Begin);
  (* a snapshot-stable reader must not see a commit after its pin: the
     deleted rows come back through the overlay, the new ones stay out *)
  if c.concurrent && c.n > 0 then begin
    let other = S.create sh in
    for i = 0 to min 4 (c.n - 1) do
      let id = i * 7 mod c.n in
      let v = data.(id) in
      ignore
        (S.handle other
           (P.Delete { lower = Ivl.lower v; upper = Ivl.upper v; id }))
    done;
    ack "concurrent insert"
      (S.handle other
         (P.Insert { lower = 10; upper = 2_000_000; id = Some 900_001 }));
    ack "concurrent commit" (S.handle other P.Commit)
  end;
  let model = Hashtbl.create (max 1 c.n) in
  Array.iteri
    (fun id v -> Hashtbl.replace model id (Ivl.lower v, Ivl.upper v))
    data;
  let rng = Random.State.make [| c.seed |] in
  for i = 1 to c.own_writes do
    let l = Random.State.int rng Dist.domain_max in
    let u = l + Random.State.int rng 5_000 in
    let id = 1_000_000 + i in
    ack "buffered insert"
      (S.handle s (P.Insert { lower = l; upper = u; id = Some id }));
    Hashtbl.replace model id (l, u);
    if c.n > 0 then begin
      let victim = Random.State.int rng c.n in
      match Hashtbl.find_opt model victim with
      | Some (l, u) ->
          ack "buffered delete"
            (S.handle s (P.Delete { lower = l; upper = u; id = victim }));
          Hashtbl.remove model victim
      | None -> ()
    end
  done;
  (* the generic plan (no WHERE) reads every visible row, node included;
     it must agree with the model before it serves as the oracle *)
  let visible =
    rows "full scan" (S.handle s (P.Sql "SELECT * FROM intervals"))
  in
  let model_triples =
    sorted (Hashtbl.fold (fun id (l, u) acc -> (l, u, id) :: acc) model [])
  in
  if sorted (List.map triple_of visible) <> model_triples then
    QCheck.Test.fail_report "full scan disagrees with the model";
  List.iteri
    (fun i q ->
      let want = expected q visible in
      let text = sql_of q literal in
      let got_sql = sorted (rows text (S.handle s (P.Sql text))) in
      let name = Printf.sprintf "q%d" i in
      ack "prepare" (S.handle s (P.Prepare { name; sql = sql_of q host }));
      let got_exec =
        sorted (rows ("execute " ^ text)
                  (S.handle s (P.Execute { name; params = params_of q })))
      in
      (* the typed op over the candidate interval, filtered the same way *)
      let typed =
        rows "intersect"
          (S.handle s (P.Intersect { lower = min q.a q.b; upper = q.a }))
      in
      let filtered_typed =
        sorted
          (List.filter_map
             (fun (r : int array) ->
               let row = [| 0; r.(0); r.(1); r.(2) |] in
               if qualifies q row then Some (triple_of row) else None)
             typed)
      in
      let want_triples =
        sorted (List.map triple_of (List.filter (qualifies q) visible))
      in
      if got_sql <> want then
        QCheck.Test.fail_reportf "SQL text differs: %s" text;
      if got_exec <> want then
        QCheck.Test.fail_reportf "EXECUTE differs: %s" text;
      if filtered_typed <> want_triples then
        QCheck.Test.fail_reportf "typed Intersect differs: %s" text)
    c.queries;
  ack "rollback" (S.handle s P.Rollback);
  true

let prop_sql_intersection_parity =
  QCheck.Test.make ~count:60
    ~name:"SQL text ≡ EXECUTE ≡ typed ≡ brute force (D1-D4, open txn)"
    (QCheck.make ~print:case_to_string gen_case)
    run_case

(* ---- plan shape and compile-once ---- *)

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let hot_point_session () =
  let sh = S.shared () in
  S.preload sh (Dist.generate ~seed:1 Dist.D1 ~n:2_000 ~d:2_000);
  S.create sh

let explain s target =
  match S.handle s (P.Explain { analyze = false; target }) with
  | P.Ack text -> text
  | r -> Alcotest.failf "explain: %s" (resp_to_string r)

(* The SQL form and the typed op pick the same access path for the same
   interval on the same session: the selective query takes the Fig. 9
   plan, the near-total one the heap scan. *)
let test_same_access_path () =
  let s = hot_point_session () in
  List.iter
    (fun (lower, upper, marker) ->
      let sql =
        explain s
          (P.Explain_sql
             (Printf.sprintf
                "SELECT lower, upper, id FROM intervals WHERE lower <= %d AND \
                 upper >= %d"
                upper lower))
      in
      let typed = explain s (P.Explain_intersect { lower; upper }) in
      check Alcotest.bool ("typed path " ^ marker) true (contains typed marker);
      check Alcotest.bool ("sql path " ^ marker) true (contains sql marker);
      check Alcotest.bool "sql renders the intersection step" true
        (contains sql "RI-TREE INTERSECTION INTERVALS"))
    [ (500_000, 506_000, "UNION-ALL"); (0, Dist.domain_max, "TABLE ACCESS FULL") ]

(* Node lists and the path are resolved per execution: a cached text
   and a prepared statement compile once across different intervals. *)
let test_compiled_once () =
  let s = hot_point_session () in
  let text l u =
    Printf.sprintf
      "SELECT lower, upper, id FROM intervals WHERE lower <= %d AND upper >= %d"
      u l
  in
  ignore (S.handle s (P.Sql (text 1 2)));
  (match
     S.handle s
       (P.Prepare
          { name = "hp";
            sql =
              "SELECT lower, upper, id FROM intervals WHERE lower <= :qup AND \
               upper >= :qlow" })
   with
  | P.Ack _ -> ()
  | r -> Alcotest.failf "prepare: %s" (resp_to_string r));
  let plans0 = Sqlfront.Engine.plan_count () in
  for i = 0 to 19 do
    let l = i * 50_000 in
    ignore (S.handle s (P.Sql (text l (l + 3_000))));
    ignore (S.handle s (P.Execute { name = "hp"; params = [ l + 3_000; l ] }))
  done;
  check Alcotest.int "no recompilation" 0 (Sqlfront.Engine.plan_count () - plans0)

(* EXPLAIN ANALYZE counts the sub-plan's rows on the rendered steps. *)
let test_explain_analyze () =
  let s = hot_point_session () in
  let text =
    match
      S.handle s
        (P.Explain
           { analyze = true;
             target =
               P.Explain_sql
                 "SELECT id FROM intervals WHERE lower <= 506000 AND upper >= \
                  500000 AND id > 1000" })
    with
    | P.Ack t -> t
    | r -> Alcotest.failf "explain analyze: %s" (resp_to_string r)
  in
  List.iter
    (fun frag -> check Alcotest.bool frag true (contains text frag))
    [ "RI-TREE INTERSECTION INTERVALS ([min(500000, 506000), 506000]) [step 1]";
      "FILTER lower <= 506000 AND upper >= 500000 AND id > 1000";
      "COLLECTION ITERATOR leftNodes [step 2]";
      "INDEX RANGE SCAN INTERVALS_UPPER";
      "INDEX RANGE SCAN INTERVALS_LOWER"; "actual rows="; "ACTUAL" ]

let () =
  Alcotest.run "sql_intersect"
    [ ("parity", [ QCheck_alcotest.to_alcotest prop_sql_intersection_parity ]);
      ( "plan",
        [ Alcotest.test_case "same access path as typed" `Quick
            test_same_access_path;
          Alcotest.test_case "compiled once" `Quick test_compiled_once;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze ] ) ]
