(* Normalized-statement plan cache: parse + plan once, execute many.

   Keys are normalized statement texts (literals replaced by parameter
   slots — see Sqlfront.Normalize); values are compiled plans. A small
   LRU bounds memory; invalidation (DDL, collection schema changes,
   stats refresh) drops everything, because plans bake in table handles,
   index choices and collection schemas.

   No memo of raw statement texts sits in front of the normalizer: a
   repeated text pays one normalize pass (a lex and a key string, a few
   hundred minor-heap words) and one plan-table probe, never a parse or
   a plan. Point queries rarely repeat a text exactly, so a bounded memo
   would mostly hold entries promoted to the major heap only to be
   dropped dead: garbage on every request.

   Per-cache counters feed tests; process-global totals feed the
   `rikit_plan_cache` families in `Server.Metrics`. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable invalidations : int;
}

let totals = { hits = 0; misses = 0; inserts = 0; invalidations = 0 }

type 'a entry = { value : 'a; mutable last : int }

type 'a t = {
  cap : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  stats : stats;
}

let default_capacity = 128

let create ?(cap = default_capacity) () =
  { cap = max 1 cap;
    tbl = Hashtbl.create 64;
    tick = 0;
    stats = { hits = 0; misses = 0; inserts = 0; invalidations = 0 } }

let size t = Hashtbl.length t.tbl

let find t key =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.last <- t.tick;
      t.stats.hits <- t.stats.hits + 1;
      totals.hits <- totals.hits + 1;
      Some e.value
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      totals.misses <- totals.misses + 1;
      None

(* O(size) eviction scan; the cache is small and eviction is rare. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, last) when last <= e.last -> ()
      | _ -> victim := Some (k, e.last))
    t.tbl;
  match !victim with
  | Some (k, _) -> Hashtbl.remove t.tbl k
  | None -> ()

let add t key value =
  if not (Hashtbl.mem t.tbl key) then begin
    if Hashtbl.length t.tbl >= t.cap then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key { value; last = t.tick };
    t.stats.inserts <- t.stats.inserts + 1;
    totals.inserts <- totals.inserts + 1
  end

(* Drop every cached plan (DDL, collection schema change, stats
   refresh): plans bake in physical handles, so staleness is corruption,
   not slowness. *)
let invalidate t =
  let n = Hashtbl.length t.tbl in
  if n > 0 then begin
    t.stats.invalidations <- t.stats.invalidations + n;
    totals.invalidations <- totals.invalidations + n
  end;
  Hashtbl.reset t.tbl

let stats t = t.stats
let hits t = t.stats.hits
let misses t = t.stats.misses

let global_hits () = totals.hits
let global_misses () = totals.misses
let global_invalidations () = totals.invalidations

let global_hit_rate () =
  let total = totals.hits + totals.misses in
  if total = 0 then 0.0 else float_of_int totals.hits /. float_of_int total
