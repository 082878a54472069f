(* The paper's SQL, executed literally.

   Fig. 2 creates the schema, Fig. 5/6 insert intervals at their fork
   nodes, Fig. 9 is the two-branch intersection query over the transient
   node tables, and Fig. 10's execution plan is reproduced by EXPLAIN.

   Run with:  dune exec examples/sql_session.exe *)

module Ivl = Interval.Ivl

let show_result = function
  | Sqlfront.Engine.Done msg -> Printf.printf "  -> %s\n" msg
  | Sqlfront.Engine.Rows { columns; rows } ->
      Printf.printf "  -> %s\n" (String.concat " | " columns);
      List.iter
        (fun r ->
          Printf.printf "     %s\n"
            (String.concat " | "
               (Array.to_list (Array.map string_of_int r))))
        rows

let exec session ?binds sql =
  Printf.printf "SQL> %s\n" sql;
  show_result (Sqlfront.Engine.exec ?binds session sql)

let () =
  let db = Relation.Catalog.create () in
  let session = Sqlfront.Engine.session db in

  (* Fig. 2: "SQL statements to instantiate an RI-Tree" — with the id
     included in the indexes as the experimental setup notes. *)
  exec session "CREATE TABLE Intervals (node int, lower int, upper int, id int)";
  exec session "CREATE INDEX lowerIndex ON Intervals (node, lower, id)";
  exec session "CREATE INDEX upperIndex ON Intervals (node, upper, id)";

  (* Fig. 5: insertion takes a single SQL statement once the fork node
     is computed (by the RI-tree's pure integer arithmetic). *)
  let roots = ref Ritree.Backbone.empty_roots in
  let insert (l, u) id =
    roots := Ritree.Backbone.expand !roots ~l ~u;
    let fork = Ritree.Backbone.fork !roots ~l ~u in
    exec session
      ~binds:[ ("node", fork); ("lower", l); ("upper", u); ("id", id) ]
      "INSERT INTO Intervals VALUES (:node, :lower, :upper, :id)"
  in
  List.iteri (fun i iv -> insert iv (i + 1))
    [ (3, 8); (10, 14); (1, 2); (6, 11); (13, 13) ];

  (* The intersection query for (lower, upper) = (7, 12): descend the
     virtual backbone to fill the transient tables... *)
  let qlow = 7 and qup = 12 in
  let lefts = ref [ (qlow, qup) ] and rights = ref [] in
  Ritree.Backbone.collect !roots ~min_level:0 ~ql:qlow ~qu:qup
    ~left:(fun w -> lefts := (w, w) :: !lefts)
    ~right:(fun w -> rights := w :: !rights);
  Sqlfront.Engine.set_collection session "leftNodes"
    ~columns:[ "min"; "max" ]
    (List.map (fun (a, b) -> [| a; b |]) !lefts);
  Sqlfront.Engine.set_collection session "rightNodes" ~columns:[ "node" ]
    (List.map (fun w -> [| w |]) !rights);
  Printf.printf "\ntransient tables: leftNodes = %s; rightNodes = %s\n\n"
    (String.concat " "
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) !lefts))
    (String.concat " " (List.map string_of_int !rights));

  (* ... and run Fig. 9's two-branch UNION ALL. *)
  let fig9 =
    "SELECT id FROM Intervals i, leftNodes lft \
     WHERE i.node BETWEEN lft.min AND lft.max AND i.upper >= :lower \
     UNION ALL \
     SELECT id FROM Intervals i, rightNodes rgt \
     WHERE i.node = rgt.node AND i.lower <= :upper"
  in
  let binds = [ ("lower", qlow); ("upper", qup) ] in
  Printf.printf "EXPLAIN (cf. the paper's Fig. 10):\n%s\n"
    (Sqlfront.Engine.explain session fig9);
  exec session ~binds fig9;

  (* Cross-check against the typed query path of the planner. *)
  let db2 = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db2 in
  List.iteri
    (fun i (l, u) -> ignore (Ritree.Ri_tree.insert ~id:(i + 1) tree (Ivl.make l u)))
    [ (3, 8); (10, 14); (1, 2); (6, 11); (13, 13) ];
  Printf.printf "\nplanner answers: %s\n"
    (String.concat ", "
       (List.map string_of_int
          (List.sort compare
             (Exec.Planner.intersecting_ids tree (Ivl.make qlow qup)))))
