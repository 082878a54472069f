(* Durability example: the "industrial strength" recovery the paper
   inherits from the host RDBMS, demonstrated on the bundled engine.

   A booking system commits after every confirmed batch; a crash in the
   middle of an unconfirmed batch loses exactly that batch and nothing
   else.

   Run with:  dune exec examples/crash_recovery.exe *)

module Ivl = Interval.Ivl
module Catalog = Relation.Catalog
module Ri = Ritree.Ri_tree

let () =
  let db = Catalog.create ~durable:true () in
  let tree = Ri.create ~name:"bookings" db in

  (* batch 1: confirmed *)
  List.iter
    (fun (l, u) -> ignore (Ri.insert tree (Ivl.make l u)))
    [ (900, 1000); (1010, 1100); (1200, 1400) ];
  Catalog.commit db;
  Printf.printf "committed batch 1: %d bookings\n" (Ri.count tree);

  (* batch 2: in flight when the machine dies *)
  List.iter
    (fun (l, u) -> ignore (Ri.insert tree (Ivl.make l u)))
    [ (1500, 1600); (1650, 1700) ];
  ignore (Ri.delete tree ~id:0 (Ivl.make 900 1000));
  Printf.printf "uncommitted work in flight: %d bookings (one cancelled)\n"
    (Ri.count tree);
  (match Catalog.journal_stats db with
  | Some (records, bytes) ->
      Printf.printf "journal: %d records, %d bytes\n" records bytes
  | None -> ());

  (* the crash: buffer pool gone, device possibly torn *)
  print_endline "\n*** crash ***\n";
  let db = Catalog.simulate_crash db in
  let tree = Ri.open_existing ~name:"bookings" db in
  Ri.check_invariants tree;
  Printf.printf "after recovery: %d bookings\n" (Ri.count tree);
  List.iter
    (fun (ivl, id) ->
      Printf.printf "  id %d: %s\n" id (Ivl.to_string ivl))
    (Exec.Planner.intersecting tree (Ivl.make 0 2000));

  (* business continues on the recovered database *)
  ignore (Ri.insert tree (Ivl.make 1500 1600));
  Catalog.commit db;
  Printf.printf "\nnew booking accepted after recovery: %d total\n"
    (Ri.count tree)
