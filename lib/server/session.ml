type shared = {
  mutable cat : Relation.Catalog.t;
  mutable ritree : Ritree.Ri_tree.t;
  (* The tree's Fig. 9 statement, compiled once; replaced with the
     tree. The typed ops and the SQL engine's intersections run it. *)
  mutable forms : Exec.Planner.forms;
  tree_name : string;
  dur : bool;
  cache_blocks : int option;
  (* MVCC transaction manager: one per database. Sessions buffer writes
     into per-transaction write sets; COMMIT validates and applies them
     under a fresh commit LSN, ROLLBACK discards one session's set. *)
  txns : Relation.Txn.mgr;
  mutable generation : int;
  mutable next_session : int;
  (* The relation's statistics, tagged with the tree's row count at
     analyze time; refreshed when the count drifts by 2x either way
     ("stats refresh"). The typed-op planner chooses with them and
     every EXPLAIN (wire or SQL) prices with them. *)
  mutable stats : (int * Ritree.Cost_model.Stats.t) option;
  (* RAM-resident hot tier (budget 0 = disabled). *)
  memtier : Exec.Memtier.t;
}

(* The server answers (lower, upper, id): the covering layout serves
   that from the two indexes alone (Fig. 10), never the table. *)
let layout = Ritree.Ri_tree.Covering

let shared ?(durable = false) ?cache_blocks ?(tree_name = "intervals")
    ?(hot_tier_mb = 0) () =
  let cat = Relation.Catalog.create ~durable ?cache_blocks () in
  let ritree = Ritree.Ri_tree.create ~name:tree_name ~layout cat in
  if durable then Relation.Catalog.commit cat;
  { cat; ritree; forms = Exec.Planner.prepare ritree; tree_name;
    dur = durable; cache_blocks;
    txns = Relation.Txn.create ();
    generation = 0; next_session = 0;
    stats = None; memtier = Exec.Memtier.create ~budget_mb:hot_tier_mb }

let stats_for sh =
  let n = Ritree.Ri_tree.count sh.ritree in
  match sh.stats with
  | Some (n0, st) when n = n0 || (n0 > 0 && n < 2 * n0 && 2 * n > n0) -> st
  | _ ->
      let st = Ritree.Cost_model.Stats.analyze sh.ritree in
      sh.stats <- Some (n, st);
      st

let catalog sh = sh.cat
let tree sh = sh.ritree
let durable sh = sh.dur
let memtier sh = sh.memtier
let txns sh = sh.txns

let commit_force_shared sh = Relation.Catalog.commit_force sh.cat

(* The durable-log byte offset — the LSN token commit acks carry so a
   failover client can wait out replica lag (read-your-writes). 0 on a
   non-durable server. *)
let durable_lsn_shared sh =
  match Relation.Catalog.journal sh.cat with
  | Some j -> Storage.Journal.durable_lsn j
  | None -> 0

let flush_shared sh =
  if sh.dur then Relation.Catalog.checkpoint sh.cat
  else Relation.Catalog.flush sh.cat

(* Swap in a tree over [sh.cat]. *)
let attach sh ritree =
  sh.ritree <- ritree;
  sh.forms <- Exec.Planner.prepare ritree;
  (* The physical handles were replaced and recovery reinstated exactly
     the committed state: every in-flight write set is void and the
     visibility sidecars describe tables that no longer exist. *)
  Relation.Txn.reset sh.txns;
  sh.stats <- None;
  (* the replica indexed the replaced catalog's rows *)
  Exec.Memtier.invalidate sh.memtier sh.tree_name;
  sh.generation <- sh.generation + 1

let reattach sh =
  attach sh (Ritree.Ri_tree.open_existing ~name:sh.tree_name sh.cat)

(* The preload bulk-builds the relation bottom-up, its leaves at the
   B+-tree's default fill, so the journal logs each page about once
   rather than the splits of one insert per interval. The database must
   hold the empty RI-tree (its interval and parameter tables) and
   nothing else: the catalog is replaced by a fresh one with the same
   settings. *)
let preload_ids sh data =
  if
    Ritree.Ri_tree.count sh.ritree > 0
    || List.length (Relation.Catalog.tables sh.cat) > 2
  then invalid_arg "Session.preload: the database is not empty";
  let cat =
    Relation.Catalog.create ~durable:sh.dur ?cache_blocks:sh.cache_blocks ()
  in
  let ritree =
    Ritree.Ri_tree.bulk_load ~name:sh.tree_name ~layout cat
      (Array.map (fun (id, ivl) -> (ivl, id)) data)
  in
  Relation.Catalog.commit cat;
  sh.cat <- cat;
  attach sh ritree

let preload sh data = preload_ids sh (Array.mapi (fun id ivl -> (id, ivl)) data)

let reopen sh =
  if not sh.dur then failwith "Session.reopen: server is not durable";
  sh.cat <- Relation.Catalog.reopen sh.cat;
  reattach sh

(* Replica apply refresh: the device was rewritten by a replicated
   batch, so swap in handles that see it. Like [reopen] but without a
   checkpoint (the replica never owns dirty pages worth keeping). *)
let reload sh =
  if not sh.dur then failwith "Session.reload: server is not durable";
  sh.cat <- Relation.Catalog.reload sh.cat;
  reattach sh

(* Prepared statements a session may hold at once: plans pin table
   handles, so an unbounded map would let one client grow server memory
   without limit. *)
let max_prepared = 64

type t = {
  sh : shared;
  sid : int;
  engine : Sqlfront.Engine.session;
  mutable engine_gen : int;
  prepared : (string, Sqlfront.Engine.prepared) Hashtbl.t;
  mutable reqs : int;
  (* The session's current transaction. Always live between requests:
     COMMIT/ROLLBACK immediately begin the successor, so every
     statement — transactional or autocommit-style — runs inside one. *)
  mutable txn : Relation.Txn.txn;
}

(* The snapshot overlay for this session's typed-op planner paths. *)
let vis_for t = Relation.Txn.view t.txn

(* Residency handle for the shared tree, if the tier serves one for
   THIS session's snapshot. Taken per statement: mutation
   (Table.version) or a catalog swap invalidates stale replicas right
   here; a session with buffered writes on the tree bypasses the tier
   (the replica cannot see its write set); a pinned snapshot older than
   the replica's build LSN is refused the handle without dropping it. *)
let mem_for t =
  if Relation.Txn.writes_on t.txn t.sh.tree_name then None
  else
    let snap_high = Relation.Txn.snapshot_high t.txn in
    let lsn = Relation.Txn.table_lsn t.sh.txns t.sh.tree_name in
    Exec.Memtier.acquire ~snap_high ~lsn t.sh.memtier t.sh.ritree

(* The session's SQL engine plans intersection predicates with the same
   inputs as the typed Intersect op (its snapshot comes from the
   transaction). *)
let attach_tree t =
  Sqlfront.Engine.set_ritree t.engine t.sh.forms
    ~stats:(fun () -> stats_for t.sh)
    ~mem:(fun () -> mem_for t)

let create sh =
  sh.next_session <- sh.next_session + 1;
  let txn = Relation.Txn.begin_txn sh.txns in
  let engine = Sqlfront.Engine.session sh.cat in
  Sqlfront.Engine.set_txn engine txn;
  let t =
    { sh; sid = sh.next_session; engine; engine_gen = sh.generation;
      prepared = Hashtbl.create 8; reqs = 0; txn }
  in
  attach_tree t;
  t

let close t = Relation.Txn.abort t.txn
let id t = t.sid
let requests t = t.reqs

(* Does this session's transaction hold buffered writes — i.e. could a
   COMMIT from it still join an open group-commit window? *)
let has_pending_writes t = Relation.Txn.has_writes t.txn

(* Replace a finished (committed/aborted) transaction with a fresh
   implicit one and rebind the SQL engine to it. *)
let renew t =
  t.txn <- Relation.Txn.begin_txn t.sh.txns;
  Sqlfront.Engine.set_txn t.engine t.txn

(* After [reattach] ({!reopen}, crash recovery) the manager was reset
   and this session's transaction force-aborted behind its back. *)
let sync_txn t = if not (Relation.Txn.is_active t.txn) then renew t

(* Validate and apply the write set under a fresh commit LSN, begin
   the successor transaction and stage the dirty pages for the next log
   force. The one place a session's transaction commits; a Conflict
   (first committer wins) has already aborted the loser. *)
let apply_commit t =
  match Relation.Txn.commit t.txn with
  | _lsn ->
      renew t;
      Relation.Catalog.commit_request t.sh.cat
  | exception (Relation.Txn.Conflict _ as e) ->
      renew t;
      raise e

(* After a catalog swap ({!reopen}, {!reload}, {!preload}) rebind the
   engine to the new handles; the rebinding invalidates its plans, so
   prepared statements recompile against them at their next EXECUTE. *)
let engine t =
  if t.engine_gen <> t.sh.generation then begin
    Sqlfront.Engine.set_catalog t.engine t.sh.cat;
    attach_tree t;
    t.engine_gen <- t.sh.generation
  end;
  t.engine

(* Validation failures are the client's bug, not the server's: raise
   Invalid_argument so [handle] can answer with a typed [Invalid] frame
   and keep the session alive, instead of the generic [Error]. *)
let ivl lower upper =
  if lower > upper then
    invalid_arg (Printf.sprintf "empty interval [%d, %d]" lower upper)
  else Interval.Ivl.make lower upper

(* The typed ops run [Triples], so the executor's rows are already the
   wire's (lower, upper, id) rows. *)
let triple_rows (out : Exec.Executor.output) =
  Protocol.Rows { columns = [ "lower"; "upper"; "id" ]; rows = out.rows }

let exec t = function
  | Protocol.Sql text -> (
      match Sqlfront.Engine.exec (engine t) text with
      | Sqlfront.Engine.Done msg -> Protocol.Ack msg
      | Sqlfront.Engine.Rows { columns; rows } -> Protocol.Rows { columns; rows })
  | Insert { lower; upper; id } ->
      (* Fork computation and parameter persistence happen now (monotone
         metadata, safe if the transaction aborts); the physical row is
         buffered and applied at COMMIT. *)
      let assigned, row =
        Ritree.Ri_tree.prepare_insert ?id t.sh.ritree (ivl lower upper)
      in
      Relation.Txn.buffer_insert t.txn
        ~table:(Ritree.Ri_tree.table t.sh.ritree) ~tname:t.sh.tree_name row;
      Ack (Printf.sprintf "inserted id %d" assigned)
  | Delete { lower; upper; id } -> (
      let q = ivl lower upper in
      let tree = t.sh.ritree in
      let table = Ritree.Ri_tree.table tree and tname = t.sh.tree_name in
      let same row = row.(1) = lower && row.(2) = upper && row.(3) = id in
      (* Deleting your own uncommitted insert never touches the heap. *)
      match Relation.Txn.take_pending_insert t.txn tname same with
      | Some _ -> Ack "deleted 1 row"
      | None -> (
          (* the index probe names the candidates; the first visible
             one, or else one a newer commit deleted, is the victim *)
          let candidates ~ok =
            Option.to_list (Ritree.Ri_tree.find_victim ~ok tree ~id q)
          in
          match Relation.Txn.victims ~candidates t.txn ~table ~tname same with
          | (rowid, row) :: _ ->
              Relation.Txn.buffer_delete t.txn ~table ~tname ~rowid ~row;
              Ack "deleted 1 row"
          | [] ->
              Error (Printf.sprintf "no row ([%d, %d], id %d)" lower upper id)))
  | Intersect { lower; upper } ->
      (* the tree's compiled Fig. 9 forms; the cost model picks the
         memory tier, two-branch or seq scan *)
      triple_rows
        (Exec.Planner.intersect t.sh.forms ~stats:(stats_for t.sh)
           ?mem:(mem_for t) ~vis:(vis_for t) ~proj:Exec.Planner.Triples
           (ivl lower upper))
  | Allen { relation; lower; upper } ->
      triple_rows
        (Exec.Planner.allen t.sh.forms ?mem:(mem_for t) ~vis:(vis_for t)
           relation (ivl lower upper))
  | Begin ->
      if Relation.Txn.pinned t.txn then
        Protocol.Invalid "transaction already in progress"
      else begin
        Relation.Txn.pin t.txn;
        Ack "begin"
      end
  | Commit ->
      apply_commit t;
      ignore (commit_force_shared t.sh);
      Ack (Printf.sprintf "committed lsn %d" (durable_lsn_shared t.sh))
  | Rollback ->
      (* One session's write set only; everyone else is untouched. *)
      Relation.Txn.abort t.txn;
      renew t;
      Ack "rolled back"
  | Ping -> Ack "pong"
  | Stats -> Error "stats is handled by the dispatcher"
  | Metrics -> Error "metrics is handled by the dispatcher"
  | Repl_subscribe _ | Repl_ack _ | Repl_status ->
      Error "replication ops are handled by the dispatcher"
  | Shard_map_req -> Error "shard map is handled by the dispatcher"
  | Prepare { name; sql } ->
      let eng = engine t in
      if
        Hashtbl.length t.prepared >= max_prepared
        && not (Hashtbl.mem t.prepared name)
      then
        Error
          (Printf.sprintf "too many prepared statements (limit %d)"
             max_prepared)
      else begin
        let p = Sqlfront.Engine.prepare eng sql in
        Hashtbl.replace t.prepared name p;
        Ack
          (Printf.sprintf "prepared %s (%d parameters)" name
             (List.length (Sqlfront.Engine.prepared_params p)))
      end
  | Execute { name; params } -> (
      let eng = engine t in
      match Hashtbl.find_opt t.prepared name with
      | None -> Error (Printf.sprintf "unknown prepared statement %s" name)
      | Some p -> (
          match Sqlfront.Engine.execute_prepared eng p params with
          | Sqlfront.Engine.Done msg -> Ack msg
          | Sqlfront.Engine.Rows { columns; rows } -> Rows { columns; rows }))
  | Close_stmt name ->
      ignore (engine t);
      if Hashtbl.mem t.prepared name then begin
        Hashtbl.remove t.prepared name;
        Ack (Printf.sprintf "closed %s" name)
      end
      else Error (Printf.sprintf "unknown prepared statement %s" name)
  | Explain { analyze; target } -> (
      match target with
      | Protocol.Explain_sql text ->
          Ack (Sqlfront.Engine.explain_text ~analyze (engine t) text)
      | Protocol.Explain_intersect { lower; upper } ->
          Ack
            (Exec.Planner.explain ~stats:(stats_for t.sh) ~analyze
               ?mem:(mem_for t) ~vis:(vis_for t) t.sh.ritree
               (Exec.Planner.Intersect_target (ivl lower upper)))
      | Protocol.Explain_allen { relation; lower; upper } ->
          Ack
            (Exec.Planner.explain ~stats:(stats_for t.sh) ~analyze
               ?mem:(mem_for t) ~vis:(vis_for t) t.sh.ritree
               (Exec.Planner.Allen_target (relation, ivl lower upper))))

(* First keyword of a SQL text, lowercased — enough to classify
   statements for degraded mode without a parse. *)
let sql_keyword text =
  let n = String.length text in
  let rec skip i = if i < n && (text.[i] = ' ' || text.[i] = '\t'
                                || text.[i] = '\n' || text.[i] = '\r')
    then skip (i + 1) else i in
  let start = skip 0 in
  let rec word i =
    if i < n then
      match text.[i] with
      | 'a' .. 'z' | 'A' .. 'Z' -> word (i + 1)
      | _ -> i
    else i
  in
  String.lowercase_ascii (String.sub text start (word start - start))

let mutating t = function
  | Protocol.Insert _ | Delete _ | Commit -> true
  | Sql text -> (
      match sql_keyword text with "select" | "explain" -> false | _ -> true)
  | Execute { name; _ } -> (
      (* classify by the prepared statement's kind; an unknown name will
         error out downstream without touching the database *)
      match Hashtbl.find_opt t.prepared name with
      | None -> false
      | Some p -> (
          match Sqlfront.Engine.prepared_kind p with
          | "SELECT" | "EXPLAIN" -> false
          | _ -> true))
  | Intersect _ | Allen _ | Stats | Metrics | Ping | Prepare _ | Close_stmt _
  | Explain _ | Begin | Rollback | Repl_subscribe _ | Repl_ack _
  | Repl_status | Shard_map_req ->
      (* BEGIN pins a snapshot and ROLLBACK discards a private write
         set: neither touches the shared database, so both stay legal
         in degraded read-only mode. *)
      false

(* The typed frame answering a request that raised. *)
let error_frame t = function
  | Storage.Buffer_pool.Corrupt_page page ->
      (* Garbage came off the disk. Keep serving what still
         verifies, refuse to write on top of a damaged image. *)
      let reason = Printf.sprintf "corrupt page %d" page in
      Relation.Catalog.degrade t.sh.cat reason;
      Protocol.Error
        (Printf.sprintf
           "corruption detected (%s): server now degraded read-only; \
            run `rikit scrub` against this image" reason)
  | Storage.Block_device.Io_error { op; block } ->
      Protocol.Error
        (Printf.sprintf "transient I/O error: %s of block %d failed" op block)
  | Relation.Txn.Conflict m -> Protocol.Conflict m
  | Sqlfront.Engine.Error m -> Protocol.Error m
  | Exec.Ir.Error m -> Protocol.Error m
  | Sqlfront.Parser.Error m -> Protocol.Error ("parse error: " ^ m)
  | Sqlfront.Lexer.Error (m, pos) ->
      Protocol.Error (Printf.sprintf "lex error at %d: %s" pos m)
  | Failure m -> Protocol.Error m
  | Invalid_argument m -> Protocol.Invalid m
  | Not_found -> Protocol.Error "not found"
  | e -> Protocol.Error ("internal error: " ^ Printexc.to_string e)

(* The guard every request runs under, COMMIT's apply included: the
   request is counted, the transaction resynced after a catalog swap, a
   mutation refused in degraded mode, and an exception answered with a
   typed frame. *)
let guarded t req f =
  t.reqs <- t.reqs + 1;
  sync_txn t;
  match Relation.Catalog.degraded_reason t.sh.cat with
  | Some reason when mutating t req ->
      Result.Error
        (Protocol.Read_only (Printf.sprintf "server is read-only: %s" reason))
  | _ -> ( try Ok (f ()) with e -> Result.Error (error_frame t e))

let handle t req =
  match guarded t req (fun () -> exec t req) with Ok r | Error r -> r

let stage_commit t = guarded t Protocol.Commit (fun () -> apply_commit t)
