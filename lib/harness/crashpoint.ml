(* Exhaustive crash-schedule testing.

   One seeded insert/delete/commit workload is run twice over:
   - a counting pass, fault-free, to learn how many physical device
     writes the workload performs;
   - one replay per write index, with a Faulty_device crash point armed
     at that index. The replay dies mid-write, journal recovery runs,
     and the recovered database is checked against an in-memory oracle:
     everything in the last completed commit is present, nothing
     uncommitted survived, and seeded RI-tree intersection queries match
     the oracle exactly.

   Commits in this engine perform no device writes (the journal force is
   not a block write), so every crash point lands inside an insert or
   delete — precisely the moments a stolen page may reach the device
   with its undo image required to be on the log first. *)

type op =
  | Insert of int * Interval.Ivl.t
  | Delete of int * Interval.Ivl.t
  | Commit

type spec = {
  seed : int;
  ops : int;
  universe : int;
  block_size : int;
  cache_blocks : int;
  commit_every : int;
  torn : bool;
}

let default_spec =
  { seed = 42; ops = 120; universe = 1000; block_size = 256;
    cache_blocks = 8; commit_every = 13; torn = false }

(* The deterministic op list: delete targets are chosen against a
   simulated live set, so generation is pure and every replay sees the
   same sequence. *)
let build_ops spec =
  let rng = Workload.Prng.create ~seed:spec.seed in
  let live = ref [] in
  let next_id = ref 0 in
  let ops = ref [] in
  for i = 1 to spec.ops do
    (if !live <> [] && Workload.Prng.int rng 100 < 25 then begin
       let n = List.length !live in
       let victim = List.nth !live (Workload.Prng.int rng n) in
       live := List.filter (fun (id, _) -> id <> fst victim) !live;
       ops := Delete (fst victim, snd victim) :: !ops
     end
     else begin
       let lo = Workload.Prng.int rng spec.universe in
       let len = 1 + Workload.Prng.int rng (spec.universe / 10) in
       let ivl = Interval.Ivl.make lo (min (spec.universe - 1) (lo + len)) in
       let id = !next_id in
       incr next_id;
       live := (id, ivl) :: !live;
       ops := Insert (id, ivl) :: !ops
     end);
    if i mod spec.commit_every = 0 then ops := Commit :: !ops
  done;
  List.rev !ops

let queries spec =
  let rng = Workload.Prng.create ~seed:(spec.seed + 1) in
  List.init 8 (fun _ ->
      let lo = Workload.Prng.int rng spec.universe in
      let len = 1 + Workload.Prng.int rng (spec.universe / 5) in
      Interval.Ivl.make lo (min (spec.universe - 1) (lo + len)))

(* Fresh catalog + RI-tree over a fault-injection wrapper. Setup (table,
   indexes, initial commit) runs before the caller arms the crash point,
   so crash indexes cover only workload writes — a crash before the
   database even exists has nothing to recover to. *)
let build spec =
  let base = Storage.Block_device.create ~block_size:spec.block_size () in
  let fd = Storage.Faulty_device.create ~seed:spec.seed base in
  let cat =
    Relation.Catalog.create ~device:(Storage.Faulty_device.device fd)
      ~durable:true ~cache_blocks:spec.cache_blocks ()
  in
  let tree = Ritree.Ri_tree.create cat in
  Relation.Catalog.commit cat;
  Relation.Catalog.flush cat;
  (fd, cat, tree)

let sorted_ids pairs = List.sort_uniq Int.compare (List.map snd pairs)

let oracle_intersecting committed q =
  List.filter (fun (_, ivl) -> Interval.Ivl.intersects ivl q) committed
  |> List.map (fun (id, _) -> id)
  |> List.sort_uniq Int.compare

(* Run the workload. Returns the committed-state oracle as of the last
   completed commit, and whether (and where) the device crashed. *)
let run_workload spec fd cat tree =
  let ops = build_ops spec in
  let live = ref [] in
  let committed = ref [] in
  let cat = ref cat and tree = ref tree in
  let crashed = ref None in
  (try
     List.iter
       (fun op ->
         match op with
         | Insert (id, ivl) ->
             ignore (Ritree.Ri_tree.insert ~id !tree ivl);
             live := (id, ivl) :: !live
         | Delete (id, ivl) ->
             ignore (Ritree.Ri_tree.delete !tree ~id ivl);
             live := List.filter (fun (i, _) -> i <> id) !live
         | Commit ->
             Relation.Catalog.commit !cat;
             committed := !live)
       ops
   with Storage.Block_device.Crash n -> crashed := Some n);
  ignore fd;
  (!committed, !crashed, !cat, !tree)

(* Count the physical writes the fault-free workload performs past
   setup; crash schedules cover [first, first + count). *)
let count_writes spec =
  let fd, cat, tree = build spec in
  let first = Storage.Faulty_device.writes_done fd in
  let committed, crashed, _, _ = run_workload spec fd cat tree in
  assert (crashed = None);
  (first, Storage.Faulty_device.writes_done fd - first, committed)

type failure = { crash_at : int; reason : string }

type report = {
  writes : int;  (** workload writes = crash schedules exercised *)
  failures : failure list;
}

let check_recovered spec committed cat =
  let tree = Ritree.Ri_tree.open_existing cat in
  Ritree.Ri_tree.check_invariants tree;
  let everything = Interval.Ivl.make 0 spec.universe in
  let got = sorted_ids (Exec.Planner.intersecting tree everything) in
  let want = List.sort_uniq Int.compare (List.map fst committed) in
  if got <> want then
    failwith
      (Printf.sprintf
         "recovered ids differ from oracle: got %d ids, want %d \
          (lost committed rows or kept uncommitted ones)"
         (List.length got) (List.length want));
  List.iter
    (fun q ->
      let got = sorted_ids (Exec.Planner.intersecting tree q) in
      let want = oracle_intersecting committed q in
      if got <> want then
        failwith
          (Printf.sprintf "intersection [%d, %d] differs from oracle"
             (Interval.Ivl.lower q) (Interval.Ivl.upper q)))
    (queries spec)

let replay spec ~crash_at =
  let fd, cat, tree = build spec in
  Storage.Faulty_device.set_crash_point ~torn:spec.torn fd
    ~after_writes:crash_at;
  let committed, crashed, cat, _tree = run_workload spec fd cat tree in
  match crashed with
  | None ->
      failwith
        (Printf.sprintf "crash point %d never fired (workload shrank?)"
           crash_at)
  | Some _ ->
      Storage.Faulty_device.disarm fd;
      Storage.Faulty_device.clear_crash_point fd;
      let cat = Relation.Catalog.simulate_crash ~force:true cat in
      check_recovered spec committed cat

let run ?progress spec =
  let first, writes, _ = count_writes spec in
  let failures = ref [] in
  for i = 0 to writes - 1 do
    (match progress with Some f -> f i writes | None -> ());
    let crash_at = first + i in
    try replay spec ~crash_at
    with e ->
      failures :=
        { crash_at; reason = Printexc.to_string e } :: !failures
  done;
  { writes; failures = List.rev !failures }

let pp_report ppf r =
  Format.fprintf ppf "crash-schedule: %d write indexes, %d failures"
    r.writes (List.length r.failures);
  List.iter
    (fun f ->
      Format.fprintf ppf "@.  crash at write %d: %s" f.crash_at f.reason)
    r.failures
