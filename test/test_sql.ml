(* SQL front end: lexer, parser, planner/executor, EXPLAIN. *)

module L = Sqlfront.Lexer
module P = Sqlfront.Parser
module A = Sqlfront.Ast
module E = Sqlfront.Engine

let check = Alcotest.check
let rows = Alcotest.list (Alcotest.array Alcotest.int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* ---- lexer ---- *)

let test_lexer_tokens () =
  let toks = L.tokenize "SELECT a.b, 42 FROM t WHERE x >= :lo -- comment" in
  check Alcotest.int "token count" 12 (List.length toks);
  check Alcotest.string "roundtrip"
    "SELECT a . b , 42 FROM t WHERE x >= :lo"
    (String.concat " " (List.map L.token_to_string toks))

let test_lexer_operators () =
  let toks = L.tokenize "= <> != < <= > >=" in
  check
    (Alcotest.list Alcotest.string)
    "ops"
    [ "="; "<>"; "<>"; "<"; "<="; ">"; ">=" ]
    (List.map L.token_to_string toks)

let test_lexer_errors () =
  (try
     ignore (L.tokenize "a ? b");
     Alcotest.fail "expected lexer error"
   with L.Error (_, off) -> check Alcotest.int "offset" 2 off);
  try
    ignore (L.tokenize "x = :");
    Alcotest.fail "expected empty host var error"
  with L.Error (msg, _) -> check Alcotest.string "msg" "empty host variable" msg

(* A literal beyond the native int range is a typed lex error at its
   first digit; the edges themselves still lex. *)
let test_lexer_int_range () =
  List.iter
    (fun (src, pos) ->
      match L.tokenize src with
      | _ -> Alcotest.failf "%s: expected a lex error" src
      | exception L.Error (msg, off) ->
          check Alcotest.string "msg" "integer literal out of range" msg;
          check Alcotest.int "offset" pos off)
    [ ("a = 9999999999999999999", 4); ("a = -4611686018427387904", 5) ];
  check Alcotest.string "max_int lexes" (string_of_int max_int)
    (L.token_to_string (List.hd (L.tokenize (string_of_int max_int))))

(* ---- parser ---- *)

let test_parse_create () =
  (match P.parse "CREATE TABLE t (a int, b int)" with
  | A.Create_table ("t", [ "a"; "b" ]) -> ()
  | _ -> Alcotest.fail "create table");
  match P.parse "CREATE INDEX i ON t (a, b)" with
  | A.Create_index ("i", "t", [ "a"; "b" ]) -> ()
  | _ -> Alcotest.fail "create index"

let test_parse_select_structure () =
  match
    P.parse
      "SELECT id FROM t i, c WHERE i.a = c.a AND i.b BETWEEN 1 AND :x OR NOT \
       i.c < -5"
  with
  | A.Select
      { A.branches =
          [ { A.projections = [ A.Proj_col (None, "id") ];
              froms = [ ("t", Some "i"); ("c", None) ];
              where = Some w; group_by = [] } ];
        order_by = [];
        limit = None } ->
      (* OR binds weakest: (A AND B) OR (NOT C) *)
      (match w with
      | A.Or (A.And _, A.Not (A.Cmp (A.Lt, _, A.Int (-5)))) -> ()
      | _ -> Alcotest.fail "precedence")
  | _ -> Alcotest.fail "select shape"

let test_parse_union_all () =
  match P.parse "SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v" with
  | A.Select { A.branches = [ _; _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "three branches"

let test_parse_errors () =
  List.iter
    (fun sql ->
      try
        ignore (P.parse sql);
        Alcotest.failf "no error for %s" sql
      with P.Error _ -> ())
    [ "SELECT"; "SELECT a FROM"; "CREATE t"; "INSERT INTO t (1)";
      "SELECT a FROM t WHERE"; "SELECT a FROM t extra junk here" ]

let test_parse_script () =
  let stmts = P.parse_script "CREATE TABLE a (x int); CREATE TABLE b (y int);" in
  check Alcotest.int "two statements" 2 (List.length stmts)

(* Printing an expression and re-parsing it must give the same AST:
   expr_to_string parenthesises boolean structure fully, so this checks
   precedence, BETWEEN, host variables and negative literals at once. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> A.Int n) (int_range (-50) 50);
        map (fun c -> A.Col (None, c)) (oneofl [ "a"; "b"; "c" ]);
        map (fun c -> A.Col (Some "t", c)) (oneofl [ "a"; "b" ]);
        map (fun h -> A.Host h) (oneofl [ "x"; "y" ]) ]
  in
  let cmp = oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof
          [ map3 (fun op a b -> A.Cmp (op, a, b)) cmp leaf leaf;
            map3 (fun e lo hi -> A.Between (e, lo, hi)) leaf leaf leaf ]
      else
        frequency
          [ (2, oneof
               [ map3 (fun op a b -> A.Cmp (op, a, b)) cmp leaf leaf;
                 map3 (fun e lo hi -> A.Between (e, lo, hi)) leaf leaf leaf ]);
            (2, map2 (fun a b -> A.And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> A.Or (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun e -> A.Not e) (self (depth - 1))) ])
    3

let prop_expr_roundtrip =
  QCheck.Test.make ~count:300 ~name:"expr print/parse round-trip"
    (QCheck.make gen_expr) (fun e ->
      let sql = "SELECT a FROM t WHERE " ^ A.expr_to_string e in
      match P.parse sql with
      | A.Select { A.branches = [ { A.where = Some e'; _ } ]; _ } -> e = e'
      | _ -> false)

(* ---- engine ---- *)

let mk_session () = E.session (Relation.Catalog.create ())

let seeded_session () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE t (a int, b int)");
  ignore (E.exec s "CREATE INDEX t_a ON t (a, b)");
  for i = 0 to 19 do
    ignore
      (E.exec s
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" (i mod 5) (100 + i)))
  done;
  s

let test_insert_select () =
  let s = seeded_session () in
  check rows "where a = 3"
    [ [| 103 |]; [| 108 |]; [| 113 |]; [| 118 |] ]
    (List.sort compare (E.query s "SELECT b FROM t WHERE a = 3"));
  check rows "count" [ [| 20 |] ] (E.query s "SELECT count(*) FROM t")

let test_select_star_and_multi_proj () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE p (x int, y int)");
  ignore (E.exec s "INSERT INTO p VALUES (1, 2)");
  check rows "star" [ [| 1; 2 |] ] (E.query s "SELECT * FROM p");
  check rows "reorder" [ [| 2; 1 |] ] (E.query s "SELECT y, x FROM p")

let test_host_variables () =
  let s = seeded_session () in
  check rows "bind" [ [| 104 |]; [| 109 |]; [| 114 |]; [| 119 |] ]
    (List.sort compare
       (E.query ~binds:[ ("v", 4) ] s "SELECT b FROM t WHERE a = :v"));
  try
    ignore (E.query s "SELECT b FROM t WHERE a = :missing");
    Alcotest.fail "missing bind accepted"
  with E.Error _ -> ()

let test_index_vs_scan_equivalence () =
  (* same predicate with and without a usable index must agree *)
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE d (k int, v int)");
  ignore (E.exec s "CREATE INDEX d_k ON d (k, v)");
  ignore (E.exec s "CREATE TABLE d2 (k int, v int)");
  let rng = Workload.Prng.create ~seed:61 in
  for _ = 1 to 300 do
    let k = Workload.Prng.int rng 40 and v = Workload.Prng.int rng 1000 in
    ignore (E.exec s (Printf.sprintf "INSERT INTO d VALUES (%d, %d)" k v));
    ignore (E.exec s (Printf.sprintf "INSERT INTO d2 VALUES (%d, %d)" k v))
  done;
  List.iter
    (fun pred ->
      let q t = Printf.sprintf "SELECT v FROM %s WHERE %s" t pred in
      check rows ("pred " ^ pred)
        (List.sort compare (E.query s (q "d2")))
        (List.sort compare (E.query s (q "d"))))
    [ "k = 7"; "k BETWEEN 5 AND 9"; "k >= 35"; "k < 3";
      "k = 7 AND v >= 500"; "k BETWEEN 10 AND 20 AND v < 100";
      "k > 15 AND k < 18"; "v = 999 OR k = 2" ]

let test_join_with_collection () =
  let s = seeded_session () in
  E.set_collection s "probe" ~columns:[ "a" ] [ [| 1 |]; [| 4 |] ];
  let got =
    List.sort compare
      (E.query s "SELECT t.b FROM t, probe WHERE t.a = probe.a")
  in
  check Alcotest.int "8 rows" 8 (List.length got);
  E.clear_collection s "probe";
  try
    ignore (E.query s "SELECT t.b FROM t, probe WHERE t.a = probe.a");
    Alcotest.fail "collection should be gone"
  with E.Error _ -> ()

let test_union_all_exec () =
  let s = seeded_session () in
  let got =
    E.query s
      "SELECT b FROM t WHERE a = 0 UNION ALL SELECT b FROM t WHERE a = 1"
  in
  check Alcotest.int "8 rows" 8 (List.length got)

let test_delete_where () =
  let s = seeded_session () in
  (match E.exec s "DELETE FROM t WHERE a = 0" with
  | E.Done msg -> check Alcotest.string "message" "4 rows deleted" msg
  | _ -> Alcotest.fail "delete result");
  check rows "count after" [ [| 16 |] ] (E.query s "SELECT count(*) FROM t")

let test_explain_plan_shape () =
  let s = seeded_session () in
  E.set_collection s "leftNodes" ~columns:[ "min"; "max" ] [ [| 0; 1 |] ];
  let plan =
    E.explain s
      "SELECT b FROM t i, leftNodes lft WHERE i.a BETWEEN lft.min AND \
       lft.max AND i.b >= :lower"
  in
  List.iter
    (fun needle ->
      if not (contains plan needle) then
        Alcotest.failf "plan misses %S:\n%s" needle plan)
    [ "NESTED LOOPS"; "COLLECTION ITERATOR leftNodes"; "INDEX RANGE SCAN";
      "start key" ];
  (* the collection iterator must be the outer loop *)
  let pos s sub =
    let rec go i = if contains (String.sub s 0 i) sub then i else go (i + 1) in
    go 0
  in
  check Alcotest.bool "collection before index scan" true
    (pos plan "COLLECTION" < pos plan "INDEX RANGE SCAN")

let test_covering_vs_fetch () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE w (a int, b int, c int)");
  ignore (E.exec s "CREATE INDEX w_ab ON w (a, b)");
  ignore (E.exec s "INSERT INTO w VALUES (1, 2, 3)");
  let covering = E.explain s "SELECT b FROM w WHERE a = 1" in
  check Alcotest.bool "covering" false
    (contains covering "TABLE ACCESS BY ROWID");
  let fetching = E.explain s "SELECT c FROM w WHERE a = 1" in
  check Alcotest.bool "fetch needed" true
    (contains fetching "TABLE ACCESS BY ROWID");
  (* both produce correct answers *)
  check rows "covering row" [ [| 2 |] ] (E.query s "SELECT b FROM w WHERE a = 1");
  check rows "fetched row" [ [| 3 |] ] (E.query s "SELECT c FROM w WHERE a = 1")

let test_errors () =
  let s = mk_session () in
  List.iter
    (fun sql ->
      try
        ignore (E.exec s sql);
        Alcotest.failf "no error for %s" sql
      with E.Error _ -> ())
    [ "SELECT a FROM missing"; "INSERT INTO missing VALUES (1)" ];
  ignore (E.exec s "CREATE TABLE e (a int)");
  ignore (E.exec s "INSERT INTO e VALUES (1)");
  List.iter
    (fun sql ->
      try
        ignore (E.exec s sql);
        Alcotest.failf "no error for %s" sql
      with E.Error _ -> ())
    [ "INSERT INTO e VALUES (1, 2)"; "SELECT nope FROM e";
      "SELECT a FROM e WHERE a" ]

(* Name resolution does not depend on the data: each statement raises
   over empty tables exactly as it does once rows exist. *)
let test_name_errors_without_rows () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE t (a int, b int)");
  ignore (E.exec s "CREATE TABLE u (a int, c int)");
  let expect_errors stage =
    List.iter
      (fun sql ->
        match E.exec s sql with
        | _ -> Alcotest.failf "%s: no error for %s" stage sql
        | exception E.Error _ -> ())
      [ "SELECT nope FROM t"; "SELECT a FROM t WHERE nope = 1";
        "SELECT a FROM t, u"; "SELECT a FROM t WHERE b = :x";
        "DELETE FROM t WHERE nope = 1"; "UPDATE t SET b = nope" ]
  in
  expect_errors "empty";
  ignore (E.exec s "INSERT INTO t VALUES (1, 2)");
  ignore (E.exec s "INSERT INTO u VALUES (1, 3)");
  expect_errors "one row each"

(* A bare column in a join conjunct filters at the step that binds it,
   not at the outermost one. *)
let test_bare_column_in_join () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE t (a int, b int)");
  ignore (E.exec s "CREATE TABLE u (x int, c int)");
  ignore (E.exec s "INSERT INTO t VALUES (1, 2)");
  ignore (E.exec s "INSERT INTO u VALUES (3, 4)");
  ignore (E.exec s "INSERT INTO u VALUES (5, 6)");
  check rows "filtered on u" [ [| 2; 4 |] ]
    (E.query s "SELECT b, c FROM t, u WHERE c = 4");
  check rows "filtered on both" [ [| 1; 2; 5; 6 |] ]
    (E.query s "SELECT * FROM t, u WHERE b = 2 AND x = 5")

(* SELECT * yields the declared columns only, never the rowid a heap
   row or an index key carries, on a seq scan, a covering index scan
   and a join, and under a transaction's snapshot overlay. *)
let test_star_declared_columns () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE h (x int, y int)");
  ignore (E.exec s "CREATE TABLE k (x int, y int)");
  ignore (E.exec s "CREATE INDEX k_xy ON k (x, y)");
  check Alcotest.bool "covering index scan" false
    (contains (E.explain s "SELECT * FROM k WHERE x = 1") "BY ROWID");
  let h = ref [] and k = ref [] in
  let insert name rel x y =
    ignore (E.exec s (Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" name x y));
    rel := [| x; y |] :: !rel
  in
  let delete name rel x =
    ignore (E.exec s (Printf.sprintf "DELETE FROM %s WHERE x = %d" name x));
    rel := List.filter (fun r -> r.(0) <> x) !rel
  in
  for i = 0 to 9 do
    insert "h" h i (10 * i);
    insert "k" k (i mod 4) (100 + i)
  done;
  let agree stage =
    let q sql = List.sort compare (E.query s sql) in
    check rows (stage ^ ": seq scan") (List.sort compare !h)
      (q "SELECT * FROM h");
    check rows (stage ^ ": covering index scan")
      (List.sort compare (List.filter (fun r -> r.(0) = 1) !k))
      (q "SELECT * FROM k WHERE x = 1");
    check rows (stage ^ ": join")
      (List.sort compare
         (List.concat_map
            (fun a ->
              List.filter_map
                (fun b -> if a.(0) = b.(0) then Some (Array.append a b) else None)
                !k)
            !h))
      (q "SELECT * FROM h, k WHERE h.x = k.x")
  in
  agree "committed";
  E.set_txn s (Relation.Txn.begin_txn (Relation.Txn.create ()));
  insert "h" h 2 7;
  insert "h" h 11 110;
  insert "k" k 1 200;
  insert "k" k 3 201;
  delete "h" h 3;
  delete "k" k 2;
  agree "open transaction"

let test_order_by_limit () =
  let s = seeded_session () in
  let got = E.query s "SELECT b FROM t WHERE a = 2 ORDER BY b DESC" in
  check rows "desc" [ [| 117 |]; [| 112 |]; [| 107 |]; [| 102 |] ] got;
  let got = E.query s "SELECT b FROM t WHERE a = 2 ORDER BY b ASC LIMIT 2" in
  check rows "asc limit" [ [| 102 |]; [| 107 |] ] got;
  let got = E.query s "SELECT a, b FROM t ORDER BY a DESC, b LIMIT 3" in
  check rows "two keys"
    [ [| 4; 104 |]; [| 4; 109 |]; [| 4; 114 |] ]
    got;
  (* ORDER BY spans UNION ALL branches *)
  let got =
    E.query s
      "SELECT b FROM t WHERE a = 0 UNION ALL SELECT b FROM t WHERE a = 1 \
       ORDER BY b LIMIT 2"
  in
  check rows "union sorted" [ [| 100 |]; [| 101 |] ] got;
  try
    ignore (E.query s "SELECT b FROM t ORDER BY nope");
    Alcotest.fail "unknown order key accepted"
  with E.Error _ -> ()

let test_aggregates () =
  let s = seeded_session () in
  check rows "min" [ [| 100 |] ] (E.query s "SELECT min(b) FROM t");
  check rows "max" [ [| 119 |] ] (E.query s "SELECT max(b) FROM t");
  check rows "sum of a=1" [ [| 101 + 106 + 111 + 116 |] ]
    (E.query s "SELECT sum(b) FROM t WHERE a = 1");
  check rows "count(col)" [ [| 4 |] ]
    (E.query s "SELECT count(b) FROM t WHERE a = 1");
  check rows "several" [ [| 4; 101; 116 |] ]
    (E.query s "SELECT count(*), min(b), max(b) FROM t WHERE a = 1");
  (* aggregates across UNION ALL *)
  check rows "union agg" [ [| 8 |] ]
    (E.query s
       "SELECT count(*) FROM t WHERE a = 0 UNION ALL SELECT count(*) FROM t \
        WHERE a = 1");
  (try
     ignore (E.query s "SELECT a, min(b) FROM t");
     Alcotest.fail "mixed projection accepted"
   with E.Error _ -> ());
  try
    ignore (E.query s "SELECT min(b) FROM t WHERE a = 99")
    |> ignore;
    Alcotest.fail "MIN of empty accepted"
  with E.Error _ -> ()

let test_update () =
  let s = seeded_session () in
  (match E.exec s "UPDATE t SET b = 0 WHERE a = 3" with
  | E.Done msg -> check Alcotest.string "message" "4 rows updated" msg
  | _ -> Alcotest.fail "update result");
  check rows "updated" [ [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] ]
    (E.query s "SELECT b FROM t WHERE a = 3");
  (* SET may reference the old row; the index keeps working *)
  ignore (E.exec s "UPDATE t SET b = a WHERE a = 1");
  check rows "self reference" [ [| 1 |]; [| 1 |]; [| 1 |]; [| 1 |] ]
    (E.query s "SELECT b FROM t WHERE a = 1");
  check rows "index still consistent" [ [| 20 |] ]
    (E.query s "SELECT count(*) FROM t");
  try
    ignore (E.exec s "UPDATE t SET nope = 1");
    Alcotest.fail "unknown column accepted"
  with E.Error _ -> ()

(* Every SET expression reads the old row, so assignments swap rather
   than cascade — in autocommit and inside an MVCC transaction, as every
   server session runs, where the swap must survive the commit. *)
let test_update_swap () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE t (a INT, b INT)");
  ignore (E.exec s "INSERT INTO t VALUES (5, 7)");
  ignore (E.exec s "UPDATE t SET a = b, b = a");
  check rows "autocommit swap" [ [| 7; 5 |] ] (E.query s "SELECT a, b FROM t");
  let mgr = Relation.Txn.create () in
  let txn = Relation.Txn.begin_txn mgr in
  E.set_txn s txn;
  ignore (E.exec s "UPDATE t SET a = b, b = a");
  check rows "swap inside the transaction" [ [| 5; 7 |] ]
    (E.query s "SELECT a, b FROM t");
  ignore (Relation.Txn.commit txn);
  E.set_txn s (Relation.Txn.begin_txn mgr);
  check rows "swap visible after commit" [ [| 5; 7 |] ]
    (E.query s "SELECT a, b FROM t")

let test_group_by () =
  let s = seeded_session () in
  (* per group: count and min/max of b *)
  let got =
    E.query s
      "SELECT a, count(*), min(b), max(b) FROM t GROUP BY a ORDER BY a"
  in
  check rows "group rows"
    [ [| 0; 4; 100; 115 |]; [| 1; 4; 101; 116 |]; [| 2; 4; 102; 117 |];
      [| 3; 4; 103; 118 |]; [| 4; 4; 104; 119 |] ]
    got;
  (* WHERE applies before grouping; ORDER BY on an output column *)
  let got =
    E.query s
      "SELECT a, sum(b) FROM t WHERE b >= 110 GROUP BY a ORDER BY a DESC \
       LIMIT 2"
  in
  check rows "filtered + limited" [ [| 4; 233 |]; [| 3; 231 |] ] got;
  (* a non-grouped plain column is rejected *)
  (try
     ignore (E.query s "SELECT b, count(*) FROM t GROUP BY a");
     Alcotest.fail "non-grouped column accepted"
   with E.Error _ -> ());
  try
    ignore
      (E.query s
         "SELECT a, count(*) FROM t GROUP BY a UNION ALL SELECT a, count(*) \
          FROM t GROUP BY a");
    Alcotest.fail "GROUP BY with UNION ALL accepted"
  with E.Error _ -> ()

let test_column_named_count_min_max () =
  (* contextual aggregate parsing keeps these usable as column names —
     the paper's leftNodes table has columns min and max *)
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE odd (min int, max int, count int)");
  ignore (E.exec s "INSERT INTO odd VALUES (1, 2, 3)");
  check rows "plain columns" [ [| 1; 2; 3 |] ]
    (E.query s "SELECT min, max, count FROM odd");
  check rows "aggregate over them" [ [| 1; 2; 3 |] ]
    (E.query s "SELECT min(min), max(max), sum(count) FROM odd")

(* ---- EXPLAIN / EXPLAIN ANALYZE ---- *)

let explain_text s sql =
  match E.exec s sql with
  | E.Done text -> text
  | E.Rows _ -> Alcotest.failf "EXPLAIN returned rows for %s" sql

let test_explain_analyze () =
  let s = seeded_session () in
  let plain = explain_text s "EXPLAIN SELECT b FROM t WHERE a = 3" in
  List.iter
    (fun needle ->
      if not (contains plain needle) then
        Alcotest.failf "EXPLAIN misses %S:\n%s" needle plain)
    [ "est rows="; "PREDICTED"; "nodes=" ];
  check Alcotest.bool "no actuals without ANALYZE" false
    (contains plain "actual rows=");
  let analyzed =
    explain_text s "EXPLAIN ANALYZE SELECT b FROM t WHERE a = 3"
  in
  List.iter
    (fun needle ->
      if not (contains analyzed needle) then
        Alcotest.failf "EXPLAIN ANALYZE misses %S:\n%s" needle analyzed)
    [ "est rows="; "actual rows=4"; "PREDICTED"; "ACTUAL     rows=4" ]

let test_explain_does_not_execute () =
  let s = seeded_session () in
  let plain = explain_text s "EXPLAIN INSERT INTO t VALUES (9, 999)" in
  check Alcotest.bool "refuses politely" true (contains plain "not executed");
  check rows "count unchanged" [ [| 20 |] ]
    (E.query s "SELECT count(*) FROM t");
  (* ...but EXPLAIN ANALYZE runs the statement for real *)
  let analyzed =
    explain_text s "EXPLAIN ANALYZE INSERT INTO t VALUES (9, 999)"
  in
  check Alcotest.bool "reports actuals" true (contains analyzed "ACTUAL");
  check rows "row landed" [ [| 21 |] ] (E.query s "SELECT count(*) FROM t")

(* Regression: consumed conjuncts were tracked in a hashtable keyed on
   [Obj.repr], whose generic hash/equality is structural — consuming
   one conjunct as an access predicate also marked every structurally
   identical twin as consumed. Here the unqualified [k = 3] appears
   twice and resolves against two identical sub-scans; the old tracker
   dropped the second copy, leaving rhs completely unconstrained (a
   20-row cross join instead of 4). *)
let test_duplicate_conjuncts () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE lhs (k int, v int)");
  ignore (E.exec s "CREATE INDEX lhs_k ON lhs (k, v)");
  ignore (E.exec s "CREATE TABLE rhs (k int, w int)");
  ignore (E.exec s "CREATE INDEX rhs_k ON rhs (k, w)");
  for i = 0 to 9 do
    ignore
      (E.exec s (Printf.sprintf "INSERT INTO lhs VALUES (%d, %d)" (i mod 5) i));
    ignore
      (E.exec s
         (Printf.sprintf "INSERT INTO rhs VALUES (%d, %d)" (i mod 5) (100 + i)))
  done;
  let sql = "SELECT v, w FROM lhs, rhs WHERE k = 3 AND k = 3" in
  check rows "each copy constrains its own table"
    [ [| 3; 103 |]; [| 3; 108 |]; [| 8; 103 |]; [| 8; 108 |] ]
    (List.sort compare (E.query s sql));
  (* both copies must stay visible to the planner: two index probes,
     no unconstrained full scan *)
  let plan = explain_text s ("EXPLAIN " ^ sql) in
  check Alcotest.bool "no full scan in plan" false
    (contains plan "TABLE ACCESS FULL")

(* An exclusive index bound at the integer edge admits no key. Adding or
   subtracting one there wraps round to the opposite edge, and the probe
   would return every row. *)
let test_strict_bounds_at_int_edges () =
  let s = mk_session () in
  ignore (E.exec s "CREATE TABLE e (a int, b int)");
  ignore (E.exec s "CREATE INDEX e_ab ON e (a, b)");
  List.iter
    (fun (a, b) ->
      ignore (E.exec s (Printf.sprintf "INSERT INTO e VALUES (%d, %d)" a b)))
    [ (-3, 1); (0, 2); (7, 3) ];
  let none ?binds what sql =
    check rows what [] (E.query ?binds s sql)
  in
  none "a > max_int, literal"
    (Printf.sprintf "SELECT a FROM e WHERE a > %d" max_int);
  none "max_int < a, literal"
    (Printf.sprintf "SELECT a FROM e WHERE %d < a" max_int);
  none ~binds:[ ("x", max_int) ] "a > :x at max_int"
    "SELECT a FROM e WHERE a > :x";
  none ~binds:[ ("x", min_int) ] "a < :x at min_int"
    "SELECT a FROM e WHERE a < :x";
  none ~binds:[ ("x", min_int) ] ":x > a at min_int"
    "SELECT a FROM e WHERE :x > a";
  (* refinement bounds on the column after the range *)
  none ~binds:[ ("y", max_int) ] "refined b > :y at max_int"
    "SELECT a FROM e WHERE a >= -10 AND b > :y";
  none ~binds:[ ("y", min_int) ] "refined b < :y at min_int"
    "SELECT a FROM e WHERE a <= 10 AND b < :y";
  check rows "inclusive edges keep every row"
    [ [| -3 |]; [| 0 |]; [| 7 |] ]
    (List.sort compare
       (E.query ~binds:[ ("lo", min_int); ("hi", max_int) ] s
          "SELECT a FROM e WHERE a >= :lo AND a <= :hi"))

let test_exec_script () =
  let s = mk_session () in
  let results = ref [] in
  E.exec_script s
    "CREATE TABLE z (a int); INSERT INTO z VALUES (5); SELECT a FROM z;"
    (fun r -> results := r :: !results);
  check Alcotest.int "three results" 3 (List.length !results)

(* ---- DML against a list oracle ---- *)

(* Random INSERT/DELETE/UPDATE scripts over t (a, b), each statement
   applied to a plain list of rows as well. The generators include SET
   swaps and updates whose result still matches their WHERE; small
   domains make deletes hit the transaction's own pending inserts. *)
type dml_pred = All | Cmp of int * string * int | Same
type dml_value = K of int | C of int

type dml =
  | Ins of int * int
  | Del of dml_pred
  | Upd of (int * dml_value) list * dml_pred

let dml_col i = if i = 0 then "a" else "b"

let dml_where = function
  | All -> ""
  | Cmp (i, op, k) -> Printf.sprintf " WHERE %s %s %d" (dml_col i) op k
  | Same -> " WHERE a = b"

let dml_sql = function
  | Ins (a, b) -> Printf.sprintf "INSERT INTO t VALUES (%d, %d)" a b
  | Del p -> "DELETE FROM t" ^ dml_where p
  | Upd (sets, p) ->
      Printf.sprintf "UPDATE t SET %s%s"
        (String.concat ", "
           (List.map
              (fun (i, v) ->
                dml_col i ^ " = "
                ^ match v with K k -> string_of_int k | C j -> dml_col j)
              sets))
        (dml_where p)

let dml_holds p row =
  match p with
  | All -> true
  | Same -> row.(0) = row.(1)
  | Cmp (i, op, k) -> (
      let x = row.(i) in
      match op with
      | "=" -> x = k
      | "<>" -> x <> k
      | "<" -> x < k
      | "<=" -> x <= k
      | ">" -> x > k
      | _ -> x >= k)

(* The oracle: the rows after the statement and its acknowledgement. *)
let dml_apply rows = function
  | Ins (a, b) -> (rows @ [ [| a; b |] ], "1 row inserted")
  | Del p ->
      let kept = List.filter (fun r -> not (dml_holds p r)) rows in
      ( kept,
        Printf.sprintf "%d rows deleted" (List.length rows - List.length kept) )
  | Upd (sets, p) ->
      let n = ref 0 in
      let set r =
        let r' = Array.copy r in
        List.iter
          (fun (i, v) -> r'.(i) <- (match v with K k -> k | C j -> r.(j)))
          sets;
        r'
      in
      let rows =
        List.map
          (fun r ->
            if dml_holds p r then begin
              incr n;
              set r
            end
            else r)
          rows
      in
      (rows, Printf.sprintf "%d rows updated" !n)

let gen_dml =
  let open QCheck.Gen in
  let k = int_range 0 4 and col = int_range 0 1 in
  let pred =
    frequency
      [ (1, return All);
        (1, return Same);
        ( 6,
          map3
            (fun i op k -> Cmp (i, op, k))
            col
            (oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ])
            k ) ]
  in
  frequency
    [ (5, map2 (fun a b -> Ins (a, b)) k k);
      (2, map (fun p -> Del p) pred);
      (1, map2 (fun i v -> Upd ([ (i, K v) ], Cmp (i, "<=", v))) col k);
      (1, map (fun p -> Upd ([ (0, C 1); (1, C 0) ], p)) pred);
      ( 2,
        map3
          (fun i v p -> Upd ([ (i, v) ], p))
          col
          (oneof [ map (fun k -> K k) k; map (fun j -> C j) col ])
          pred ) ]

let arb_script =
  QCheck.make
    ~print:(fun (init, script) ->
      let lines l = String.concat "\n" (List.map (fun d -> dml_sql d ^ ";") l) in
      Printf.sprintf "-- setup\n%s\n-- script\n%s"
        (lines (List.map (fun (a, b) -> Ins (a, b)) init))
        (lines script))
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6) (pair (int_range 0 4) (int_range 0 4)))
        (list_size (int_range 1 25) gen_dml))

(* The table through a seq scan and through an index range scan. *)
let table_rows s =
  ( List.sort compare (E.query s "SELECT a, b FROM t"),
    List.sort compare (E.query s "SELECT a, b FROM t WHERE a >= 0") )

(* A fresh table holding [init], written by a standalone session. *)
let dml_setup init =
  let cat = Relation.Catalog.create () in
  let s = E.session cat in
  ignore (E.exec s "CREATE TABLE t (a int, b int)");
  ignore (E.exec s "CREATE INDEX t_ab ON t (a, b)");
  List.iter (fun (a, b) -> ignore (E.exec s (dml_sql (Ins (a, b))))) init;
  (cat, s, List.map (fun (a, b) -> [| a; b |]) init)

let run_dml s rows stmt =
  let rows', ack = dml_apply rows stmt in
  (match E.exec s (dml_sql stmt) with
  | E.Done msg when msg = ack -> ()
  | E.Done msg ->
      QCheck.Test.fail_reportf "%s: acknowledged %S, expected %S"
        (dml_sql stmt) msg ack
  | E.Rows _ -> QCheck.Test.fail_reportf "%s returned rows" (dml_sql stmt));
  rows'

let expect what want (scan, index) =
  let want = List.sort compare want in
  if scan <> want || index <> want then
    QCheck.Test.fail_reportf "%s: %d rows scanned, %d indexed, %d expected"
      what (List.length scan) (List.length index) (List.length want)

(* Autocommit: each statement commits as it ends, so another session on
   the catalog sees it at once. *)
let prop_dml_autocommit =
  QCheck.Test.make ~count:200 ~name:"DML = list oracle, autocommit" arb_script
    (fun (init, script) ->
      let cat, s, rows = dml_setup init in
      let other = E.session cat in
      ignore
        (List.fold_left
           (fun rows stmt ->
             let rows = run_dml s rows stmt in
             expect "writer" rows (table_rows s);
             expect "second session" rows (table_rows other);
             rows)
           rows script);
      true)

(* One pinned transaction committed at the end: the writer reads its
   own writes, a second session on the same manager sees none of them
   before COMMIT and all of them after. *)
let prop_dml_transaction =
  QCheck.Test.make ~count:200 ~name:"DML = list oracle, one transaction"
    arb_script (fun (init, script) ->
      let cat, s, rows = dml_setup init in
      let mgr = Relation.Txn.create () in
      let txn = Relation.Txn.begin_txn mgr in
      Relation.Txn.pin txn;
      E.set_txn s txn;
      let reader = E.session cat in
      E.set_txn reader (Relation.Txn.begin_txn mgr);
      let final =
        List.fold_left
          (fun rows' stmt ->
            let rows' = run_dml s rows' stmt in
            expect "writer" rows' (table_rows s);
            expect "second session before COMMIT" rows (table_rows reader);
            rows')
          rows script
      in
      ignore (Relation.Txn.commit txn);
      expect "second session after COMMIT" final (table_rows reader);
      E.set_txn s (Relation.Txn.begin_txn mgr);
      expect "writer after COMMIT" final (table_rows s);
      true)

let () =
  Alcotest.run "sql"
    [
      ("lexer",
       [ Alcotest.test_case "tokens" `Quick test_lexer_tokens;
         Alcotest.test_case "operators" `Quick test_lexer_operators;
         Alcotest.test_case "errors" `Quick test_lexer_errors;
         Alcotest.test_case "integer range" `Quick test_lexer_int_range ]);
      ("parser",
       [ Alcotest.test_case "create" `Quick test_parse_create;
         Alcotest.test_case "select structure" `Quick
           test_parse_select_structure;
         Alcotest.test_case "union all" `Quick test_parse_union_all;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "script" `Quick test_parse_script;
         QCheck_alcotest.to_alcotest prop_expr_roundtrip ]);
      ("engine",
       [ Alcotest.test_case "insert/select" `Quick test_insert_select;
         Alcotest.test_case "projections" `Quick
           test_select_star_and_multi_proj;
         Alcotest.test_case "host variables" `Quick test_host_variables;
         Alcotest.test_case "index = scan equivalence" `Quick
           test_index_vs_scan_equivalence;
         Alcotest.test_case "collection join" `Quick
           test_join_with_collection;
         Alcotest.test_case "union all" `Quick test_union_all_exec;
         Alcotest.test_case "delete where" `Quick test_delete_where;
         Alcotest.test_case "explain plan shape" `Quick
           test_explain_plan_shape;
         Alcotest.test_case "covering index detection" `Quick
           test_covering_vs_fetch;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
         Alcotest.test_case "aggregates" `Quick test_aggregates;
         Alcotest.test_case "update" `Quick test_update;
         Alcotest.test_case "update swaps columns" `Quick test_update_swap;
         Alcotest.test_case "group by" `Quick test_group_by;
         Alcotest.test_case "aggregate names as columns" `Quick
           test_column_named_count_min_max;
         Alcotest.test_case "script execution" `Quick test_exec_script;
         Alcotest.test_case "strict bounds at the int edges" `Quick
           test_strict_bounds_at_int_edges;
         Alcotest.test_case "name errors without rows" `Quick
           test_name_errors_without_rows;
         Alcotest.test_case "bare column in a join" `Quick
           test_bare_column_in_join;
         Alcotest.test_case "SELECT * = declared columns" `Quick
           test_star_declared_columns ]);
      ("explain",
       [ Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
         Alcotest.test_case "explain does not execute" `Quick
           test_explain_does_not_execute;
         Alcotest.test_case "duplicate conjuncts" `Quick
           test_duplicate_conjuncts ]);
      ("dml",
       [ QCheck_alcotest.to_alcotest prop_dml_autocommit;
         QCheck_alcotest.to_alcotest prop_dml_transaction ]);
    ]
