(* MVCC transaction manager: per-session buffered write sets, snapshot
   visibility keyed by a commit LSN, and optimistic (first-committer-
   wins) validation at commit.

   Writes are *buffered*, not applied: a transaction's inserts and
   deletes live in its private write set until commit, so the shared
   heap pages only ever hold committed data — crucial because the
   journal images every dirty page at any commit force, and a
   direct-write scheme would let one session's group-commit force
   persist another session's uncommitted rows.

   Visibility sidecars per table:
   - [xmin]: rowid -> commit LSN of the insert that created the row.
     Absent means "born before tracking" (LSN 0): visible to every
     snapshot. Replaced in place when a freed slot is reused.
   - [deads]: recently deleted rows, kept so snapshots older than the
     deleting commit still see them, and so commit validation can
     detect a delete-delete race even after the heap slot was reused
     (the ABA case: same content, different row).

   Both sidecars are garbage-collected against the low-water mark of
   every live snapshot, so they stay bounded by the churn concurrent
   with the oldest open transaction. The engine is single-threaded (one
   reactor loop), so commit/GC never race a statement mid-scan. *)

exception Conflict of string

let conflict fmt = Printf.ksprintf (fun s -> raise (Conflict s)) fmt

type dead = { dead_row : int array; born : int; died : int }

type vtable = {
  xmin : (int, int) Hashtbl.t; (* rowid -> commit LSN of the insert *)
  mutable deads : (int * dead) list; (* (rowid, record), newest first *)
  mutable last_lsn : int; (* LSN of the last committed mutation *)
}

type state = Active | Committed | Aborted

type write =
  | W_insert of { table : Table.t; tname : string; row : int array }
  | W_delete of {
      table : Table.t;
      tname : string;
      rowid : int;
      row : int array; (* content at buffer time, for validation *)
      seen : int; (* snapshot high the victim was found under *)
    }

(* Heap slots, as (table, rowid). *)
module Slots = Map.Make (struct
  type t = string * int

  let compare (n, r) (n', r') =
    match Int.compare r r' with 0 -> String.compare n n' | c -> c
end)

type mgr = {
  mutable committed_lsn : int;
  mutable next_txn : int;
  vtables : (string, vtable) Hashtbl.t;
  mutable live : txn list;
  mutable commits : int;
  mutable aborts : int;
  mutable conflicts : int;
}

and txn = {
  id : int;
  mgr : mgr;
  mutable pinned : int option; (* explicit BEGIN: frozen snapshot high *)
  mutable writes : write list; (* newest first *)
  (* the [seen] of every buffered delete, by slot, so
     [deletes_occupant] never walks [writes] *)
  mutable deletes : int list Slots.t;
  mutable state : state;
}

(* A snapshot: every commit with LSN <= [high] is visible, with the
   owner's pending writes overlaid. *)
type snap = { high : int; owner : txn }

type view = {
  visible : int -> bool; (* is this physical rowid in the snapshot? *)
  extra : unit -> int array list; (* visible rows not physically present *)
}

type counters = {
  c_commits : int;
  c_aborts : int;
  c_conflicts : int;
  c_active : int;
  c_lsn : int;
}

let create () =
  { committed_lsn = 0; next_txn = 0; vtables = Hashtbl.create 8; live = [];
    commits = 0; aborts = 0; conflicts = 0 }

let counters m =
  { c_commits = m.commits; c_aborts = m.aborts; c_conflicts = m.conflicts;
    c_active = List.length m.live; c_lsn = m.committed_lsn }

let committed_lsn m = m.committed_lsn

let vtable_for m tname =
  match Hashtbl.find_opt m.vtables tname with
  | Some v -> v
  | None ->
      let v = { xmin = Hashtbl.create 64; deads = []; last_lsn = 0 } in
      Hashtbl.replace m.vtables tname v;
      v

let table_lsn m tname =
  match Hashtbl.find_opt m.vtables tname with
  | None -> 0
  | Some v -> v.last_lsn

(* ---------------- transaction lifecycle ---------------- *)

let begin_txn m =
  m.next_txn <- m.next_txn + 1;
  let t = { id = m.next_txn; mgr = m; pinned = None; writes = [];
            deletes = Slots.empty; state = Active } in
  m.live <- t :: m.live;
  t

let is_active t = t.state = Active
let pinned t = t.pinned <> None

let pin t =
  if t.state <> Active then invalid_arg "Txn.pin: transaction is not active";
  if t.pinned = None then t.pinned <- Some t.mgr.committed_lsn

(* The snapshot high a statement of [t] reads at. *)
let snapshot_high t =
  match t.pinned with Some h -> h | None -> t.mgr.committed_lsn

let snapshot t = { high = snapshot_high t; owner = t }

(* ---------------- write-set buffering ---------------- *)

let active_guard t op =
  if t.state <> Active then
    invalid_arg (Printf.sprintf "Txn.%s: transaction is not active" op)

let has_writes t = t.writes <> []

let writes_on t tname =
  List.exists
    (function
      | W_insert w -> w.tname = tname
      | W_delete w -> w.tname = tname)
    t.writes

let buffer_insert t ~table ~tname row =
  active_guard t "buffer_insert";
  t.writes <- W_insert { table; tname; row } :: t.writes

(* The commit LSN of the insert that put the occupant in [rowid]; 0
   for a row born before tracking. *)
let born_at m tname rowid =
  match Hashtbl.find_opt m.vtables tname with
  | None -> 0
  | Some v -> Option.value ~default:0 (Hashtbl.find_opt v.xmin rowid)

(* Does [t] hold a buffered delete of the row occupying [rowid]? [born]
   is the occupant's insert LSN: a buffered delete only refers to the
   occupant it was found under ([born <= seen]). Once that victim died
   and a concurrent commit reused the slot, the occupant is a DIFFERENT
   row — deleting it is legitimate, and the stale buffered delete
   surfaces as a typed Conflict at commit validation (its dead record
   is pinned by [low_water] until then). *)
let deletes_occupant t tname rowid ~born =
  match Slots.find_opt (tname, rowid) t.deletes with
  | None -> false
  | Some seens -> List.exists (fun seen -> born <= seen) seens

let buffer_delete t ~table ~tname ~rowid ~row =
  active_guard t "buffer_delete";
  if deletes_occupant t tname rowid ~born:(born_at t.mgr tname rowid) then
    invalid_arg "Txn.buffer_delete: row already deleted by this transaction";
  (* the victim was found in this statement, under this snapshot *)
  let seen = snapshot_high t in
  t.deletes <-
    Slots.update (tname, rowid)
      (fun seens -> Some (seen :: Option.value ~default:[] seens))
      t.deletes;
  t.writes <- W_delete { table; tname; rowid; row; seen } :: t.writes

(* Pending inserts in chronological (buffer) order. *)
let pending_inserts t tname =
  List.fold_left
    (fun acc w ->
      match w with
      | W_insert { tname = n; row; _ } when n = tname -> row :: acc
      | _ -> acc)
    [] t.writes

(* Remove the oldest buffered insert matching [f]; delete-your-own-
   insert never reaches the shared heap at all. *)
let take_pending_insert t tname f =
  active_guard t "take_pending_insert";
  let taken = ref None in
  let keep =
    List.fold_left
      (fun acc w ->
        match w with
        | W_insert { tname = n; row; _ }
          when n = tname && f row ->
            (* chronological fold over the reversed list: overwrite so
               the OLDEST match wins, and keep everything else *)
            (match !taken with
            | None ->
                taken := Some row;
                acc
            | Some _ -> w :: acc)
        | w -> w :: acc)
      []
      (List.rev t.writes)
  in
  match !taken with
  | None -> None
  | Some row ->
      t.writes <- keep;
      Some row

(* Remove every buffered insert matching [f]; returns them oldest
   first. *)
let remove_pending_inserts t tname f =
  active_guard t "remove_pending_inserts";
  let removed = ref [] in
  t.writes <-
    List.filter
      (function
        | W_insert { tname = n; row; _ } when n = tname && f row ->
            removed := row :: !removed;
            false
        | _ -> true)
      t.writes;
  !removed

(* ---------------- visibility ---------------- *)

(* Is the row occupying [rowid] hidden by the snapshot owner's pending
   delete? A later occupant of a reused slot is a different row and is
   not hidden. *)
let own_delete snap tname rowid ~born =
  snap.owner.state = Active && deletes_occupant snap.owner tname rowid ~born

(* Is the physically present row at [rowid] part of this snapshot? *)
let rowid_visible m snap tname rowid =
  let born = born_at m tname rowid in
  born <= snap.high && not (own_delete snap tname rowid ~born)

(* Deleted rows the snapshot can still see (born within, died after),
   excluding rows this transaction itself has a pending delete for. *)
let dead_visible m snap tname =
  match Hashtbl.find_opt m.vtables tname with
  | None -> []
  | Some v ->
      List.filter_map
        (fun (rowid, d) ->
          if
            d.born <= snap.high && d.died > snap.high
            && not (own_delete snap tname rowid ~born:d.born)
          then Some (rowid, d.dead_row)
          else None)
        v.deads

(* The one victim search of every delete: the visible candidates that
   match, then the matching rows a newer commit deleted but this
   snapshot still sees — buffering their delete surfaces the
   write-write race as a typed Conflict at commit instead of a silent
   no-op. *)
let victims ?candidates t ~table ~tname pred =
  let m = t.mgr and snap = snapshot t in
  let ok rowid row = rowid_visible m snap tname rowid && pred row in
  let live =
    match candidates with
    | Some find -> find ~ok
    | None ->
        let acc = ref [] in
        Table.iter table (fun rowid row ->
            if ok rowid row then acc := (rowid, row) :: !acc);
        List.rev !acc
  in
  live @ List.filter (fun (_, row) -> pred row) (dead_visible m snap tname)

(* The executor's overlay for one table: [None] means "physical state
   is exactly the snapshot" (the overwhelmingly common case), so scans
   pay nothing. *)
let view t =
  let m = t.mgr and snap = snapshot t in
  fun tname ->
    let tracked =
      match Hashtbl.find_opt m.vtables tname with
      | None -> false
      | Some v -> v.deads <> [] || Hashtbl.length v.xmin > 0
    in
    if (not tracked) && not (t.state = Active && writes_on t tname) then None
    else
      Some
        { visible = (fun rowid -> rowid_visible m snap tname rowid);
          extra =
            (fun () ->
              let deads = List.map snd (dead_visible m snap tname) in
              let own =
                if t.state = Active then pending_inserts t tname else []
              in
              deads @ own) }

(* ---------------- commit / abort ---------------- *)

let unregister t = t.mgr.live <- List.filter (fun x -> x != t) t.mgr.live

(* The lowest snapshot high any live transaction may still read at:
   pinned snapshots, and the snapshots buffered deletes were found
   under (their validation must still find dead records). Unpinned
   transactions take fresh snapshots per statement, so they never look
   below the current committed LSN. *)
let low_water m =
  List.fold_left
    (fun acc t ->
      let acc = match t.pinned with Some h -> min acc h | None -> acc in
      List.fold_left
        (fun acc w ->
          match w with
          | W_delete { seen; _ } -> min acc seen
          | W_insert _ -> acc)
        acc t.writes)
    m.committed_lsn m.live

let gc m =
  let low = low_water m in
  Hashtbl.iter
    (fun _ vt ->
      if List.exists (fun (_, d) -> d.died <= low) vt.deads then
        vt.deads <- List.filter (fun (_, d) -> d.died > low) vt.deads;
      let drop =
        Hashtbl.fold
          (fun rowid lsn acc -> if lsn <= low then rowid :: acc else acc)
          vt.xmin []
      in
      List.iter (Hashtbl.remove vt.xmin) drop)
    m.vtables

let finish_aborted t =
  t.state <- Aborted;
  t.writes <- [];
  t.deletes <- Slots.empty;
  t.pinned <- None;
  unregister t;
  t.mgr.aborts <- t.mgr.aborts + 1;
  gc t.mgr

let abort t = if t.state = Active then finish_aborted t

(* First-committer-wins: every buffered delete must still target the
   row it saw. Three ways to lose the race, all typed [Conflict]:
   - a concurrent commit deleted the row (slot now empty);
   - a concurrent commit updated it (delete + reinsert elsewhere, or
     slot reused with different content);
   - the slot holds identical content but the dead map proves the row
     died after we saw it (reuse ABA). *)
let validate m writes =
  List.iter
    (function
      | W_insert _ -> ()
      | W_delete { table; tname; rowid; row; seen } -> (
          (match Hashtbl.find_opt m.vtables tname with
          | None -> ()
          | Some v ->
              if
                List.exists
                  (fun (r, d) -> r = rowid && d.died > seen)
                  v.deads
              then
                conflict
                  "row %d of %s was deleted by a concurrent transaction"
                  rowid tname);
          match Table.fetch table rowid with
          | Some r when r = row -> ()
          | Some _ ->
              conflict "row %d of %s was updated by a concurrent transaction"
                rowid tname
          | None ->
              conflict "row %d of %s was deleted by a concurrent transaction"
                rowid tname))
    writes

let commit t =
  active_guard t "commit";
  let m = t.mgr in
  match List.rev t.writes with
  | [] ->
      (* Only a pinned snapshot held the low-water mark down; an
         unpinned read-only transaction (every autocommit SELECT) frees
         nothing for [gc] to reclaim. *)
      let was_pinned = t.pinned <> None in
      t.state <- Committed;
      t.pinned <- None;
      unregister t;
      m.commits <- m.commits + 1;
      if was_pinned then gc m;
      m.committed_lsn
  | writes ->
      (try validate m writes
       with Conflict _ as e ->
         m.conflicts <- m.conflicts + 1;
         finish_aborted t;
         raise e);
      let lsn = m.committed_lsn + 1 in
      List.iter
        (function
          | W_insert { table; tname; row } ->
              let rowid = Table.insert table row in
              let vt = vtable_for m tname in
              Hashtbl.replace vt.xmin rowid lsn;
              vt.last_lsn <- lsn
          | W_delete { table; tname; rowid; row; _ } ->
              let vt = vtable_for m tname in
              let born = born_at m tname rowid in
              vt.deads <- (rowid, { dead_row = row; born; died = lsn })
                          :: vt.deads;
              Hashtbl.remove vt.xmin rowid;
              ignore (Table.delete_row table rowid);
              vt.last_lsn <- lsn)
        writes;
      m.committed_lsn <- lsn;
      t.state <- Committed;
      t.writes <- [];
      t.deletes <- Slots.empty;
      t.pinned <- None;
      unregister t;
      m.commits <- m.commits + 1;
      gc m;
      lsn

(* After a crash/reopen the physical tables were replaced and recovery
   resurrected exactly the committed state: every sidecar entry refers
   to dead handles, and every in-flight transaction is gone. *)
let reset m =
  List.iter
    (fun t ->
      t.state <- Aborted;
      t.writes <- [];
      t.deletes <- Slots.empty;
      t.pinned <- None;
      m.aborts <- m.aborts + 1)
    m.live;
  m.live <- [];
  Hashtbl.reset m.vtables
