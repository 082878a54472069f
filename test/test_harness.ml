(* The measurement harness itself: table rendering, CSV escaping, I/O
   accounting, and the bench drivers' JSON result record. *)

module Tbl = Harness.Tbl
module Measure = Harness.Measure
module Report = Harness.Report

let check = Alcotest.check

let test_table_render () =
  let t = Tbl.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Tbl.add_row t [ "alpha"; "1" ];
  Tbl.add_row t [ "b"; "22222" ];
  let out = Tbl.render t in
  check Alcotest.string "title" "demo" (Tbl.title t);
  (* header, separator, two rows, title line *)
  check Alcotest.int "lines" 5
    (List.length (String.split_on_char '\n' (String.trim out)));
  (* alignment: every body line has the same width *)
  (match String.split_on_char '\n' (String.trim out) with
  | _title :: header :: sep :: rows ->
      List.iter
        (fun r ->
          check Alcotest.int "aligned" (String.length header)
            (String.length r))
        (sep :: rows)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.check_raises "arity"
    (Invalid_argument "Tbl.add_row: 1 cells for 2 columns") (fun () ->
      Tbl.add_row t [ "only-one" ])

let test_csv_escaping () =
  let t = Tbl.create ~title:"x" ~columns:[ "a"; "b" ] in
  Tbl.add_row t [ "plain"; "with,comma" ];
  Tbl.add_row t [ "has\"quote"; "multi\nline" ];
  let csv = Tbl.to_csv t in
  check Alcotest.string "escaped"
    "a,b\nplain,\"with,comma\"\n\"has\"\"quote\",\"multi\nline\"\n" csv

let test_fmt () =
  check Alcotest.string "big" "1234" (Tbl.fmt_f 1234.4);
  check Alcotest.string "mid" "12.3" (Tbl.fmt_f 12.32);
  check Alcotest.string "small" "0.0042" (Tbl.fmt_f 0.00421)

let test_measure_io () =
  let db = Relation.Catalog.create ~cache_blocks:8 () in
  let t = Relation.Catalog.create_table db ~name:"t" ~columns:[ "x" ] in
  for i = 0 to 499 do
    ignore (Relation.Table.insert t [| i |])
  done;
  Relation.Catalog.drop_cache db;
  let n, io =
    Measure.io db (fun () ->
        let c = ref 0 in
        Relation.Table.iter t (fun _ _ -> incr c);
        !c)
  in
  check Alcotest.int "rows" 500 n;
  check Alcotest.bool "cold scan counted" true (io > 0);
  (* warm repeat with a big enough cache is cheaper *)
  let db2 = Relation.Catalog.create ~cache_blocks:500 () in
  let t2 = Relation.Catalog.create_table db2 ~name:"t" ~columns:[ "x" ] in
  for i = 0 to 499 do
    ignore (Relation.Table.insert t2 [| i |])
  done;
  let _, io_warm1 =
    Measure.io db2 (fun () -> Relation.Table.iter t2 (fun _ _ -> ()))
  in
  let _, io_warm2 =
    Measure.io db2 (fun () -> Relation.Table.iter t2 (fun _ _ -> ()))
  in
  ignore io_warm1;
  check Alcotest.int "fully cached rescan" 0 io_warm2

let test_query_batch () =
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  for i = 0 to 99 do
    ignore (Ritree.Ri_tree.insert tree (Interval.Ivl.make (i * 10) ((i * 10) + 5)))
  done;
  let queries =
    Array.init 10 (fun i -> Interval.Ivl.make (i * 100) ((i * 100) + 50))
  in
  let b =
    Measure.query_batch db
      (fun q -> List.length (Exec.Planner.intersecting_ids tree q))
      queries
  in
  check Alcotest.int "queries" 10 b.Measure.queries;
  check Alcotest.bool "results counted" true (b.Measure.total_results > 0);
  check Alcotest.bool "avg consistent" true
    (Float.abs
       ((b.Measure.avg_seconds *. 10.) -. b.Measure.total_seconds)
     < 1e-9)

let test_report_escaping () =
  check Alcotest.string "escaped"
    "\"q\\\"b\\\\s\\nl\\r\\t\\u0001\\u001f\"\n"
    (Report.to_string (Report.String "q\"b\\s\nl\r\t\001\031"))

let test_report_non_finite () =
  List.iter
    (fun x ->
      match Report.to_string (Report.Obj [ ("x", Report.Float x) ]) with
      | s -> Alcotest.failf "%F printed as %s" x s
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ]

let prop_float_round_trip =
  QCheck.Test.make ~count:5000 ~name:"finite floats read back equal"
    QCheck.(
      oneof [ float; map Int64.float_of_bits int64; float_range (-1e3) 1e3 ])
    (fun x ->
      QCheck.assume (Float.is_finite x);
      let s = String.trim (Report.to_string (Report.Float x)) in
      float_of_string s = x)

let test_report_nesting () =
  let doc =
    Report.Obj
      [ ("a", Report.Int 1);
        ("l",
         Report.List [ Report.Obj [ ("x", Report.Bool true) ]; Report.Obj [] ]);
        ("o", Report.Obj [ ("f", Report.Float 0.1); ("s", Report.String "x") ])
      ]
  in
  check Alcotest.string "layout"
    "{\n\
    \  \"a\": 1,\n\
    \  \"l\": [\n\
    \    {\"x\": true},\n\
    \    {}\n\
    \  ],\n\
    \  \"o\": {\"f\": 0.1, \"s\": \"x\"}\n\
     }\n"
    (Report.to_string doc)

let test_report_checks () =
  let doc, failed =
    Report.record ~bench:"demo" ~tiny:true
      (Report.Obj [ ("n", Report.Int 3) ])
      [ ("a_ok", true); ("b_ok", false); ("c_ok", true) ]
  in
  check Alcotest.(list string) "the false check is named" [ "b_ok" ] failed;
  check Alcotest.string "bench, tiny, fields, then checks"
    "{\"bench\": \"demo\", \"tiny\": true, \"n\": 3, \"a_ok\": true, \
     \"b_ok\": false, \"c_ok\": true}\n"
    (Report.to_string doc);
  Alcotest.check_raises "fields must be an object"
    (Invalid_argument "Report.record: fields must be an object") (fun () ->
      ignore (Report.record ~bench:"demo" ~tiny:false (Report.Int 1) []))

let () =
  Alcotest.run "harness"
    [
      ("tbl",
       [ Alcotest.test_case "render + alignment" `Quick test_table_render;
         Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
         Alcotest.test_case "float formatting" `Quick test_fmt ]);
      ("measure",
       [ Alcotest.test_case "io accounting" `Quick test_measure_io;
         Alcotest.test_case "query batch" `Quick test_query_batch ]);
      ("report",
       [ Alcotest.test_case "string escaping" `Quick test_report_escaping;
         Alcotest.test_case "non-finite floats raise" `Quick
           test_report_non_finite;
         QCheck_alcotest.to_alcotest prop_float_round_trip;
         Alcotest.test_case "nesting" `Quick test_report_nesting;
         Alcotest.test_case "failed checks are named" `Quick
           test_report_checks ]);
    ]
