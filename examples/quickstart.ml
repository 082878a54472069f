(* Quickstart: create a database, index intervals with the RI-tree, and
   run intersection / stabbing / topological queries through the query
   planner ([Exec.Planner]), which runs the paper's Fig. 9 statement.

   Run with:  dune exec examples/quickstart.exe *)

module Ivl = Interval.Ivl

let () =
  (* A database instance: simulated 2 KB-block device + 200-block cache,
     the setup of the paper's experiments. *)
  let db = Relation.Catalog.create () in

  (* The RI-tree is just a table (node, lower, upper, id) with two
     composite indexes; [create] sets all of that up. *)
  let tree = Ritree.Ri_tree.create db in

  (* Register some intervals: say, reservations with integer times. *)
  let reservations =
    [ (10, 40); (35, 60); (55, 80); (90, 120); (100, 101); (5, 200) ]
  in
  let ids =
    List.map (fun (l, u) -> Ritree.Ri_tree.insert tree (Ivl.make l u))
      reservations
  in
  Printf.printf "inserted %d intervals, ids %s\n"
    (Ritree.Ri_tree.count tree)
    (String.concat ", " (List.map string_of_int ids));

  (* Intersection query: everything overlapping [50, 95]. *)
  let q = Ivl.make 50 95 in
  let hits = Exec.Planner.intersecting tree q in
  Printf.printf "\nintervals intersecting %s:\n" (Ivl.to_string q);
  List.iter
    (fun (ivl, id) -> Printf.printf "  id %d: %s\n" id (Ivl.to_string ivl))
    hits;

  (* Stabbing (point) query. *)
  let p = 100 in
  Printf.printf "\nintervals containing %d: ids %s\n" p
    (String.concat ", "
       (List.map string_of_int (Exec.Planner.stabbing_ids tree p)));

  (* Topological queries (Allen relations, Sec. 4.5). *)
  let during = Exec.Planner.allen_matches tree Interval.Allen.During q in
  Printf.printf "\nintervals lying strictly inside %s:\n" (Ivl.to_string q);
  List.iter
    (fun (ivl, id) -> Printf.printf "  id %d: %s\n" id (Ivl.to_string ivl))
    during;

  (* Look under the hood: the virtual backbone parameters and the
     execution plan of the intersection query (cf. the paper's
     Fig. 10). *)
  let p = Ritree.Ri_tree.params tree in
  Printf.printf
    "\nbackbone: offset=%s leftRoot=%d rightRoot=%d minLevel=%d height=%d\n"
    (match p.Ritree.Ri_tree.offset with
    | Some o -> string_of_int o
    | None -> "unset")
    p.Ritree.Ri_tree.left_root p.Ritree.Ri_tree.right_root
    p.Ritree.Ri_tree.min_level
    (Ritree.Ri_tree.height tree);
  print_newline ();
  print_string (Exec.Planner.explain tree (Exec.Planner.Intersect_target q));

  (* Physical I/O of one query, as the paper measures it. *)
  let _, blocks =
    Harness.Measure.io db (fun () -> Exec.Planner.intersecting_ids tree q)
  in
  Printf.printf "\nphysical I/O for that query: %d blocks\n" blocks
