(* The RAM-resident hot tier: materializes whole interval collections
   into main-memory HINT indexes and hands the planner zero-I/O probe
   handles for them.

   Residency is budgeted (bytes, LRU-demoted) and invalidated by table
   mutation: a resident replica is only served while it still points at
   the same physical table handle AND the table's mutation counter is
   unchanged since the build — `Table.version` resets on reopen, so the
   handle identity check covers crash/reopen cycles where the counter
   alone could alias.

   Handles are asked for per execution: a compiled SQL plan names the
   relation, not a replica, so residency changes need no replan and a
   stale handle never executes. *)

module Ivl = Interval.Ivl
module Ri = Ritree.Ri_tree
module Hint = Memindex.Hint

type entry = {
  e_name : string;
  e_hint : Hint.t;
  e_bytes : int;
  e_version : int; (* Table.version at build time *)
  e_table : Relation.Table.t; (* physical handle the version belongs to *)
  e_lsn : int; (* commit LSN of the table state the replica reflects *)
  mutable e_tick : int; (* last-use stamp for LRU demotion *)
}

type t = {
  budget_bytes : int; (* 0 = hot tier disabled *)
  entries : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable resident_bytes : int;
  mutable builds : int;
  mutable demotions : int;
  mutable invalidations : int;
  mutable probes : int;
}

type stats = {
  s_budget_bytes : int;
  s_resident_bytes : int;
  s_resident : int;
  s_builds : int;
  s_demotions : int;
  s_invalidations : int;
  s_probes : int;
}

let create ~budget_mb =
  { budget_bytes = max 0 budget_mb * 1024 * 1024;
    entries = Hashtbl.create 8;
    tick = 0;
    resident_bytes = 0;
    builds = 0;
    demotions = 0;
    invalidations = 0;
    probes = 0 }

let stats t =
  { s_budget_bytes = t.budget_bytes;
    s_resident_bytes = t.resident_bytes;
    s_resident = Hashtbl.length t.entries;
    s_builds = t.builds;
    s_demotions = t.demotions;
    s_invalidations = t.invalidations;
    s_probes = t.probes }

let resident t name = Hashtbl.mem t.entries name

let drop t e =
  Hashtbl.remove t.entries e.e_name;
  t.resident_bytes <- t.resident_bytes - e.e_bytes

let invalidate t name =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some e ->
      drop t e;
      t.invalidations <- t.invalidations + 1

let demote t name =
  match Hashtbl.find_opt t.entries name with
  | None -> false
  | Some e ->
      drop t e;
      t.demotions <- t.demotions + 1;
      true

(* Demote least-recently-used replicas until [need] more bytes fit. *)
let make_room t need =
  let continue_ = ref true in
  while !continue_ && t.resident_bytes + need > t.budget_bytes do
    let victim =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some b when b.e_tick <= e.e_tick -> acc
          | _ -> Some e)
        t.entries None
    in
    match victim with
    | None -> continue_ := false
    | Some e ->
        drop t e;
        t.demotions <- t.demotions + 1
  done


let build ?(lsn = 0) t ri =
  let tbl = Ri.table ri in
  let name = Ri.name ri in
  let rows = Ri.count ri in
  (* Rough pre-build gate (two registrations of seven words per row, on
     average) so a hopelessly oversized collection does not evict the
     whole tier just to be discarded after the build. *)
  let est = rows * 2 * 7 * 8 in
  if est > t.budget_bytes then None
  else begin
    let version = Relation.Table.version tbl in
    let hint =
      Obs.Trace.with_span "memtier.build" ~info:name @@ fun () ->
      (* Two passes: the grid universe must be the data's actual bound
         range — a sentinel-wide universe would collapse every interval
         into one grid cell and degrade the index to a scan list. Probes
         outside the universe stay exact (queries clamp monotonically;
         only inserts are range-checked). *)
      let triples = ref [] and dlo = ref max_int and dhi = ref min_int in
      Relation.Table.iter tbl (fun _ row ->
          let lo = row.(1) and up = row.(2) in
          if lo < !dlo then dlo := lo;
          if up > !dhi then dhi := up;
          triples := (lo, up, row.(3)) :: !triples);
      let lo, hi = if !dlo > !dhi then (0, 0) else (!dlo, !dhi) in
      let h = Hint.create ~lo ~hi ~m:(Hint.suggested_grid ~rows) () in
      List.iter
        (fun (lo, up, id) -> ignore (Hint.insert ~id h (Ivl.make lo up)))
        !triples;
      h
    in
    let bytes = Hint.approx_bytes hint in
    (* Exact-size gate BEFORE any eviction: an oversized collection whose
       rough pre-gate estimate undershot must not demote the whole tier
       only to be declined anyway. Once it is known to fit the budget,
       LRU demotion frees exactly what is needed. *)
    if bytes > t.budget_bytes then None
    else begin
      make_room t bytes;
      t.tick <- t.tick + 1;
      let e =
        { e_name = name; e_hint = hint; e_bytes = bytes; e_version = version;
          e_table = tbl; e_lsn = lsn; e_tick = t.tick }
      in
      Hashtbl.replace t.entries name e;
      t.resident_bytes <- t.resident_bytes + bytes;
      t.builds <- t.builds + 1;
      Some e
    end
  end

let handle t (e : entry) : Ir.mem_handle =
  let hint = e.e_hint in
  let triples pairs =
    List.map (fun (i, id) -> (Ivl.lower i, Ivl.upper i, id)) pairs
  in
  { Ir.mem_name = e.e_name;
    mem_rows = Hint.count hint;
    mem_bytes = e.e_bytes;
    mem_probe =
      (fun op ~lo ~up ->
        t.probes <- t.probes + 1;
        if lo > up then []
        else
          let q = Ivl.make lo up in
          match op with
          | Ir.Mem_intersect -> triples (Hint.intersecting hint q)
          | Ir.Mem_relation r -> triples (Hint.relation hint r q)) }

(* The one entry point the query paths use: a valid resident replica is
   served (and LRU-touched); a stale one is invalidated; a miss triggers
   a build when the budget allows. Returns [None] when the tier is
   disabled, the collection does not fit, or the build was declined.

   Snapshot gating: a replica reflects the table as of its build LSN.
   A snapshot with [snap_high] older than that LSN must not see the
   newer state, so the handle is withheld — WITHOUT dropping the
   replica, which every current-snapshot reader can still use. A fresh
   build is stamped with [lsn] (the table's last committed mutation). *)
let acquire ?(snap_high = max_int) ?(lsn = 0) t ri =
  if t.budget_bytes <= 0 then None
  else begin
    let tbl = Ri.table ri in
    let name = Ri.name ri in
    let live =
      match Hashtbl.find_opt t.entries name with
      | Some e
        when e.e_table == tbl && e.e_version = Relation.Table.version tbl ->
          t.tick <- t.tick + 1;
          e.e_tick <- t.tick;
          Some e
      | Some e ->
          drop t e;
          t.invalidations <- t.invalidations + 1;
          None
      | None -> None
    in
    match live with
    | Some e -> if snap_high >= e.e_lsn then Some (handle t e) else None
    | None -> (
        match build ~lsn t ri with
        | Some e when snap_high >= e.e_lsn -> Some (handle t e)
        | Some _ | None -> None)
  end
