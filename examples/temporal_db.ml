(* Temporal database example (Sec. 4.6): valid-time intervals with the
   special upper bounds [now] and [infinity].

   An HR system tracks project assignments: some ended at a known date,
   some are open-ended until further notice (upper = now, the assignment
   is valid "until the current time"), and some are permanent
   (upper = infinity).

   Run with:  dune exec examples/temporal_db.exe *)

module Ivl = Interval.Ivl
module Temporal = Interval.Temporal

type assignment = { who : string; valid : Temporal.t }

let assignments =
  [
    { who = "ada on compiler"; valid = Temporal.make 100 (Finite 250) };
    { who = "grace on linker"; valid = Temporal.make 200 (Finite 400) };
    { who = "ada on runtime"; valid = Temporal.make 300 Now };
    { who = "alan on kernel"; valid = Temporal.make 150 Now };
    { who = "edsger on docs"; valid = Temporal.make 50 Infinity };
  ]

let () =
  let db = Relation.Catalog.create () in
  let store = Ritree.Temporal_store.create db in
  let by_id = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let id = Ritree.Temporal_store.insert store a.valid in
      Hashtbl.replace by_id id a)
    assignments;

  let show ~now q =
    Printf.printf "at time %d, assignments valid during %s:\n" now
      (Ivl.to_string q);
    List.iter
      (fun (iv, id) ->
        let a = Hashtbl.find by_id id in
        Printf.printf "  %-18s %s\n" a.who (Format.asprintf "%a" Temporal.pp iv))
      (Exec.Planner.temporal_matches store ~now q);
    print_newline ()
  in

  (* The same query window gives different answers as "now" advances:
     now-relative assignments keep growing. *)
  let window = Ivl.make 350 500 in
  show ~now:320 window;
  show ~now:380 window;
  show ~now:1000 window;

  (* An assignment starting in the future is not valid yet even though
     its start precedes the query window's end. *)
  let future = Ritree.Temporal_store.insert store (Temporal.make 900 Now) in
  Hashtbl.replace by_id future { who = "ada on ai"; valid = Temporal.make 900 Now };
  Printf.printf "after adding a now-assignment starting at 900:\n\n";
  show ~now:500 (Ivl.make 850 1000);
  (* valid once now >= 900 *)
  show ~now:950 (Ivl.make 850 1000)
