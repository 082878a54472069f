(* Storage engine: block device counters, buffer-pool behaviour, frame
   recycling and the CRC-32 kernels. *)

module Dev = Storage.Block_device
module FD = Storage.Faulty_device
module Pool = Storage.Buffer_pool

let check = Alcotest.check

let test_device_alloc_rw () =
  let d = Dev.create ~block_size:128 () in
  check Alcotest.int "no blocks" 0 (Dev.allocated d);
  let a = Dev.alloc d and b = Dev.alloc d in
  check Alcotest.int "ids" 0 a;
  check Alcotest.int "ids" 1 b;
  let buf = Bytes.make 128 'x' in
  Dev.write d a buf;
  let out = Bytes.create 128 in
  Dev.read d a out;
  check Alcotest.bytes "round trip" buf out;
  let s = Dev.Stats.get d in
  check Alcotest.int "reads" 1 s.Dev.Stats.reads;
  check Alcotest.int "writes" 1 s.Dev.Stats.writes;
  Dev.Stats.reset d;
  check Alcotest.int "reset" 0 (Dev.Stats.total (Dev.Stats.get d));
  (* every byte keeps its place, including a tail shorter than a word,
     and a fresh block reads as zeros *)
  let d = Dev.create ~block_size:100 () in
  let a = Dev.alloc d and b = Dev.alloc d in
  let buf = Bytes.init 100 (fun i -> Char.chr ((i * 7) land 255)) in
  Dev.write d a buf;
  let out = Bytes.create 100 in
  Dev.read d a out;
  check Alcotest.bytes "odd-size round trip" buf out;
  Dev.read d b out;
  check Alcotest.bytes "zero-filled" (Bytes.make 100 '\000') out

let test_device_validation () =
  let d = Dev.create ~block_size:128 () in
  ignore (Dev.alloc d);
  Alcotest.check_raises "bad id"
    (Invalid_argument "Block_device.read: bad block id 7") (fun () ->
      Dev.read d 7 (Bytes.create 128));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Block_device.write: buffer size 4, expected 128")
    (fun () -> Dev.write d 0 (Bytes.create 4));
  Alcotest.check_raises "tiny blocks"
    (Invalid_argument "Block_device.create: block size 16 too small")
    (fun () -> ignore (Dev.create ~block_size:16 ()))

let test_pool_hit_miss () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:2 d in
  let a = Pool.alloc p in
  Pool.flush p;
  Dev.Stats.reset d;
  Pool.with_page p a ~dirty:false (fun _ -> ());
  Pool.with_page p a ~dirty:false (fun _ -> ());
  let s = Pool.Stats.get p in
  check Alcotest.int "both hits" 2 s.Pool.Stats.hits;
  check Alcotest.int "no miss" 0 s.Pool.Stats.misses;
  check Alcotest.int "no physical read" 0 (Dev.Stats.get d).Dev.Stats.reads

let test_pool_lru_eviction () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:2 d in
  let a = Pool.alloc p and b = Pool.alloc p in
  let c = Pool.alloc p in
  (* capacity 2: allocating c evicted the least recently used (a) *)
  check Alcotest.int "cached" 2 (Pool.cached p);
  Dev.Stats.reset d;
  Pool.with_page p b ~dirty:false (fun _ -> ());
  Pool.with_page p c ~dirty:false (fun _ -> ());
  check Alcotest.int "b,c still resident" 0 (Dev.Stats.get d).Dev.Stats.reads;
  Pool.with_page p a ~dirty:false (fun _ -> ());
  check Alcotest.int "a faulted in" 1 (Dev.Stats.get d).Dev.Stats.reads

let test_pool_write_back () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:1 d in
  let a = Pool.alloc p in
  Pool.with_page p a ~dirty:true (fun buf -> Bytes.set buf 0 'z');
  (* evict a by allocating another page *)
  ignore (Pool.alloc p);
  let buf = Bytes.create 128 in
  Dev.read d a buf;
  check Alcotest.char "dirty page written back" 'z' (Bytes.get buf 0)

let test_pool_pin_protects () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:1 d in
  let a = Pool.alloc p in
  let data = Pool.pin p a in
  Bytes.set data 0 'q';
  (* the only frame is pinned: allocating must fail to evict *)
  Alcotest.check_raises "pool exhausted"
    (Failure "Buffer_pool: all frames pinned, cannot evict") (fun () ->
      ignore (Pool.alloc p));
  Pool.unpin p a ~dirty:true;
  ignore (Pool.alloc p);
  let buf = Bytes.create 128 in
  Dev.read d a buf;
  check Alcotest.char "pinned mutation survived" 'q' (Bytes.get buf 0)

let test_unpin_unpinned () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create d in
  let a = Pool.alloc p in
  (* resident but pin count zero: a double unpin, called out as such *)
  Alcotest.check_raises "double unpin"
    (Invalid_argument "Buffer_pool.unpin: page 0 is not pinned (double unpin)")
    (fun () -> Pool.unpin p a ~dirty:false);
  (* not resident at all (evicted): the other misuse, distinguished *)
  let tiny = Pool.create ~capacity:1 d in
  let x = Pool.alloc tiny in
  ignore (Pool.alloc tiny);
  check Alcotest.int "x evicted" 1 (Pool.cached tiny);
  Alcotest.check_raises "unpin after eviction"
    (Invalid_argument
       (Printf.sprintf
          "Buffer_pool.unpin: page %d is not resident (evicted, or never \
           pinned)" x))
    (fun () -> Pool.unpin tiny x ~dirty:false)

let test_clear () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:8 d in
  let a = Pool.alloc p in
  Pool.with_page p a ~dirty:true (fun buf -> Bytes.set buf 1 'k');
  Pool.clear p;
  check Alcotest.int "cache empty" 0 (Pool.cached p);
  let buf = Bytes.create 128 in
  Dev.read d a buf;
  check Alcotest.char "flushed on clear" 'k' (Bytes.get buf 1);
  Dev.Stats.reset d;
  Pool.with_page p a ~dirty:false (fun _ -> ());
  check Alcotest.int "cold after clear" 1 (Dev.Stats.get d).Dev.Stats.reads

let test_with_page_exception_unpins () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:1 d in
  let a = Pool.alloc p in
  (try
     Pool.with_page p a ~dirty:false (fun _ -> failwith "boom")
   with Failure _ -> ());
  (* the page must have been unpinned: eviction possible again *)
  ignore (Pool.alloc p);
  check Alcotest.int "evicted fine" 1 (Pool.cached p)

(* Eviction storm: a cyclic sweep over a working set 8x the capacity.
   Every access must miss, every miss past the first [capacity] must
   evict, and the counters must account for each one exactly. *)
let test_eviction_storm () =
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity:4 d in
  let n_pages = 32 and sweeps = 3 in
  let pages = Array.init n_pages (fun _ -> Pool.alloc p) in
  Pool.clear p;
  Pool.Stats.reset p;
  for _ = 1 to sweeps do
    Array.iter (fun id -> Pool.with_page p id ~dirty:false (fun _ -> ())) pages
  done;
  let s = Pool.Stats.get p in
  let accesses = sweeps * n_pages in
  check Alcotest.int "logical reads" accesses s.Pool.Stats.logical_reads;
  check Alcotest.int "no hits" 0 s.Pool.Stats.hits;
  check Alcotest.int "all misses" accesses s.Pool.Stats.misses;
  check Alcotest.int "evictions" (accesses - 4) s.Pool.Stats.evictions;
  check Alcotest.int "cache full" 4 (Pool.cached p);
  check Alcotest.int "nothing pinned" 0 (Pool.pinned_frames p)

(* A pinned frame sits off the LRU ring: an eviction storm around it
   must never touch it, however hard the replacement pressure. *)
let test_pinned_survives_storm () =
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity:4 d in
  let keep = Pool.alloc p in
  let pages = Array.init 50 (fun _ -> Pool.alloc p) in
  let buf = Pool.pin p keep in
  Bytes.set buf 0 'K';
  check Alcotest.int "one pinned frame" 1 (Pool.pinned_frames p);
  for _ = 1 to 3 do
    Array.iter (fun id -> Pool.with_page p id ~dirty:false (fun _ -> ())) pages
  done;
  (* still resident: reading it is a hit, not a device read *)
  Dev.Stats.reset d;
  Pool.Stats.reset p;
  Pool.unpin p keep ~dirty:true;
  let c = Pool.with_page p keep ~dirty:false (fun b -> Bytes.get b 0) in
  check Alcotest.char "pinned content intact" 'K' c;
  check Alcotest.int "served from cache" 0 (Dev.Stats.get d).Dev.Stats.reads;
  check Alcotest.int "a hit" 1 (Pool.Stats.get p).Pool.Stats.hits;
  check Alcotest.int "nothing pinned" 0 (Pool.pinned_frames p)

(* The O(1) ring against a list-based LRU reference model (most recent
   first): an identical seeded workload must produce the same hit, miss
   and eviction counts and evict the same pages in the same order. *)
let test_ring_matches_lru_model () =
  let capacity = 5 in
  let rng = Workload.Prng.create ~seed:977 in
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity d in
  let pages = Array.to_list (Array.init 20 (fun _ -> Pool.alloc p)) in
  Pool.clear p;
  Pool.Stats.reset p;
  let model = ref [] and hits = ref 0 and misses = ref 0 in
  let model_evicted = ref [] and pool_evicted = ref [] in
  for step = 1 to 3_000 do
    let id = List.nth pages (Workload.Prng.int rng (List.length pages)) in
    if List.mem id !model then begin
      incr hits;
      model := id :: List.filter (( <> ) id) !model
    end
    else begin
      incr misses;
      if List.length !model = capacity then begin
        let victim = List.nth !model (capacity - 1) in
        model_evicted := victim :: !model_evicted;
        model := List.filter (( <> ) victim) !model
      end;
      model := id :: !model
    end;
    let before = List.filter (Pool.resident p) pages in
    (match Workload.Prng.int rng 3 with
    | 0 ->
        Pool.with_page p id ~dirty:true (fun b ->
            Bytes.set b 0 (Char.chr (step land 0xff)))
    | _ -> Pool.with_page p id ~dirty:false (fun _ -> ()));
    List.iter
      (fun pg ->
        if not (Pool.resident p pg) then pool_evicted := pg :: !pool_evicted)
      before
  done;
  let st = Pool.Stats.get p in
  check Alcotest.int "logical" 3_000 st.Pool.Stats.logical_reads;
  check Alcotest.int "hits" !hits st.Pool.Stats.hits;
  check Alcotest.int "misses" !misses st.Pool.Stats.misses;
  check Alcotest.int "evictions" (List.length !model_evicted)
    st.Pool.Stats.evictions;
  check (Alcotest.list Alcotest.int) "eviction order" (List.rev !model_evicted)
    (List.rev !pool_evicted)

(* The same reference model under every pool operation, on 1-8-frame
   pools: random allocs, nested pins, unpins (valid, double, of evicted
   pages, and of ids that are negative or past the page table),
   commits, flushes, clears and crashes. After every step the pool and
   the model must agree on the outcome (or the exception), the resident
   set — hence on the victim of every miss — the pinned frames and the
   [Stats]. *)
type pool_op =
  | Alloc
  | Pin of int (* the (k mod pages)-th device page *)
  | Unpin of int * bool (* the (k mod pinned)-th pinned page *)
  | Unpin_any of int * bool (* any device page: pinned, idle or evicted *)
  | Unpin_bad of int (* an id that is not a device page *)
  | Commit
  | Flush
  | Clear
  | Crash of bool

let show_op = function
  | Alloc -> "alloc"
  | Pin k -> Printf.sprintf "pin %d" k
  | Unpin (k, d) -> Printf.sprintf "unpin %d%s" k (if d then " dirty" else "")
  | Unpin_any (k, d) ->
      Printf.sprintf "unpin_any %d%s" k (if d then " dirty" else "")
  | Unpin_bad id -> Printf.sprintf "unpin_bad %d" id
  | Commit -> "commit"
  | Flush -> "flush"
  | Clear -> "clear"
  | Crash force -> Printf.sprintf "crash%s" (if force then " ~force" else "")

let bad_ids = [ -1; -64; min_int; 64; 65; 1 lsl 20; max_int ]

type lru_model = {
  cap : int;
  mutable ring : int list; (* idle resident pages, most recent first *)
  mutable pins : (int * int) list; (* pinned resident pages, pin count *)
  mutable reads : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let m_resident m id = List.mem id m.ring || List.mem_assoc id m.pins

(* Room for one more page: evict the least recently used idle page. *)
let m_make_room m =
  if List.length m.ring + List.length m.pins = m.cap then
    match List.rev m.ring with
    | [] -> failwith "Buffer_pool: all frames pinned, cannot evict"
    | victim :: _ ->
        m.ring <- List.filter (( <> ) victim) m.ring;
        m.evictions <- m.evictions + 1

let m_pin m id =
  m.reads <- m.reads + 1;
  if m_resident m id then begin
    m.hits <- m.hits + 1;
    let n = Option.value ~default:0 (List.assoc_opt id m.pins) in
    m.ring <- List.filter (( <> ) id) m.ring;
    m.pins <- (id, n + 1) :: List.remove_assoc id m.pins
  end
  else begin
    m.misses <- m.misses + 1;
    m_make_room m;
    m.pins <- (id, 1) :: m.pins
  end

let m_unpin m id =
  match List.assoc_opt id m.pins with
  | Some n ->
      m.pins <- List.remove_assoc id m.pins;
      if n = 1 then m.ring <- id :: m.ring else m.pins <- (id, n - 1) :: m.pins
  | None when List.mem id m.ring ->
      invalid_arg
        (Printf.sprintf
           "Buffer_pool.unpin: page %d is not pinned (double unpin)" id)
  | None ->
      invalid_arg
        (Printf.sprintf
           "Buffer_pool.unpin: page %d is not resident (evicted, or never \
            pinned)" id)

let m_drop m what ~force =
  match m.pins with
  | (id, _) :: _ when not force ->
      failwith (Printf.sprintf "Buffer_pool.%s: page %d is still pinned" what id)
  | _ ->
      m.ring <- [];
      m.pins <- []

(* Which pinned page a refused clear or crash names depends on the order
   of the pool's slots: any page the model has pinned is right. *)
let names_pinned m msg =
  match
    Scanf.sscanf msg "Failure Buffer_pool.%s@: page %d is still pinned%!"
      (fun _ id -> id)
  with
  | id -> List.mem_assoc id m.pins
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false

let outcome f =
  match f () with
  | () -> "ok"
  | exception Failure msg -> "Failure " ^ msg
  | exception Invalid_argument msg -> "Invalid_argument " ^ msg

let prop_pool_lru_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [ (2, return Alloc); (8, map (fun k -> Pin k) nat);
          (6, map2 (fun k d -> Unpin (k, d)) nat bool);
          (2, map2 (fun k d -> Unpin_any (k, d)) nat bool);
          (1, map (fun id -> Unpin_bad id) (oneofl bad_ids));
          (1, return Commit); (1, return Flush); (1, return Clear);
          (1, map (fun f -> Crash f) bool) ])
  in
  QCheck.Test.make ~count:300 ~name:"ops = list LRU model, 1-8 frames"
    QCheck.(
      make
        ~print:(fun (cap, pages, journal, ops) ->
          Printf.sprintf "capacity=%d pages=%d journal=%b [%s]" cap pages
            journal
            (String.concat "; " (List.map show_op ops)))
        Gen.(
          quad (int_range 1 8) (int_range 0 12) bool
            (list_size (int_range 1 200) gen_op)))
    (fun (cap, pages, journal, ops) ->
      let d = Dev.create ~block_size:64 () in
      for _ = 1 to pages do
        ignore (Dev.alloc d)
      done;
      let p = Pool.create ~capacity:cap d in
      if journal then Pool.attach_journal p (Storage.Journal.create ());
      let m =
        { cap; ring = []; pins = []; reads = 0; hits = 0; misses = 0;
          evictions = 0 }
      in
      List.iteri
        (fun step op ->
          let pages = Dev.allocated d in
          let pool_run, model_run =
            match op with
            | Alloc ->
                ( (fun () -> ignore (Pool.alloc p)),
                  fun () ->
                    m_make_room m;
                    m.ring <- pages :: m.ring )
            | Pin k when pages > 0 ->
                let id = k mod pages in
                ((fun () -> ignore (Pool.pin p id)), fun () -> m_pin m id)
            | Unpin (k, dirty) when m.pins <> [] ->
                let id = fst (List.nth m.pins (k mod List.length m.pins)) in
                ((fun () -> Pool.unpin p id ~dirty), fun () -> m_unpin m id)
            | Unpin_any (k, dirty) when pages > 0 ->
                let id = k mod pages in
                ((fun () -> Pool.unpin p id ~dirty), fun () -> m_unpin m id)
            | Unpin_bad id ->
                ( (fun () -> Pool.unpin p id ~dirty:false),
                  fun () -> m_unpin m id )
            | Commit -> ((fun () -> Pool.commit p), ignore)
            | Flush -> ((fun () -> Pool.flush p), ignore)
            | Clear ->
                ((fun () -> Pool.clear p), fun () -> m_drop m "clear" ~force:false)
            | Crash force ->
                ( (fun () -> Pool.crash ~force p),
                  fun () -> m_drop m "crash" ~force )
            | Pin _ | Unpin _ | Unpin_any _ -> (ignore, ignore)
          in
          let got = outcome pool_run and want = outcome model_run in
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s" step (show_op op) what
          in
          let same =
            got = want
            || match op with
               | Clear | Crash false -> names_pinned m got && names_pinned m want
               | _ -> false
          in
          if not same then fail (Printf.sprintf "%s, model %s" got want);
          for id = 0 to Dev.allocated d - 1 do
            if Pool.resident p id <> m_resident m id then
              fail (Printf.sprintf "page %d resident: %b" id (Pool.resident p id))
          done;
          List.iter
            (fun id ->
              if Pool.resident p id then
                fail (Printf.sprintf "bad id %d resident" id))
            bad_ids;
          if Pool.cached p <> List.length m.ring + List.length m.pins then
            fail "cached";
          if Pool.pinned_frames p <> List.length m.pins then
            fail "pinned frames";
          let s = Pool.Stats.get p in
          if
            (s.Pool.Stats.logical_reads, s.hits, s.misses, s.evictions)
            <> (m.reads, m.hits, m.misses, m.evictions)
          then
            fail
              (Format.asprintf "stats %a, model logical=%d hits=%d \
                                misses=%d evictions=%d"
                 Pool.Stats.pp s m.reads m.hits m.misses m.evictions))
        ops;
      true)

(* A pin and unpin of a resident page allocates nothing: the page table
   and the ring are int arrays, and a hit writes no pointer. *)
let test_hit_allocates_nothing () =
  let d = Dev.create ~block_size:128 () in
  let p = Pool.create ~capacity:8 d in
  let pages = Array.init 8 (fun _ -> Pool.alloc p) in
  let pairs () =
    for i = 0 to 9_999 do
      let pg = pages.(i land 7) in
      ignore (Pool.pin p pg);
      Pool.unpin p pg ~dirty:(i land 1 = 0)
    done
  in
  pairs ();
  let w0 = Gc.minor_words () in
  pairs ();
  let words = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words for 10 000 pairs" 0. words;
  check Alcotest.int "all hits" 0 (Pool.Stats.get p).Pool.Stats.misses

(* If the body of with_page raises and the cleanup unpin then fails too,
   the body's exception — not the unpin's — must reach the caller. *)
let test_with_page_exception_not_masked () =
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity:2 d in
  let a = Pool.alloc p in
  Alcotest.check_raises "original exception wins" (Failure "boom") (fun () ->
      Pool.with_page p a ~dirty:false (fun _ ->
          (* sabotage the cleanup: with_page's own unpin will now be a
             double unpin and raise *)
          Pool.unpin p a ~dirty:false;
          failwith "boom"))

(* Group commit at the pool level: requests stage only intent; one force
   writes one marker and one log force for the whole batch. *)
let test_group_commit_batching () =
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity:8 d in
  let j = Storage.Journal.create () in
  Pool.attach_journal p j;
  let pages = Array.init 3 (fun _ -> Pool.alloc p) in
  Array.iteri
    (fun i id ->
      Pool.with_page p id ~dirty:true (fun b -> Bytes.set b 0 (Char.chr i));
      Pool.commit_request p)
    pages;
  check Alcotest.int "three staged" 3 (Pool.pending_commits p);
  check Alcotest.int "nothing logged yet" 0 (Storage.Journal.record_count j);
  check Alcotest.int "batch size" 3 (Pool.commit_force p);
  check Alcotest.int "one marker" 1 (Storage.Journal.commit_count j);
  check Alcotest.int "one force" 1 (Storage.Journal.force_count j);
  check Alcotest.int "staged drained" 0 (Pool.pending_commits p);
  check Alcotest.int "one batch" 1 (Pool.commit_batches p);
  (* an empty force is a no-op: no marker, no force *)
  check Alcotest.int "empty batch" 0 (Pool.commit_force p);
  check Alcotest.int "still one marker" 1 (Storage.Journal.commit_count j);
  (* plain commit is a group of one *)
  Pool.with_page p pages.(0) ~dirty:true (fun b -> Bytes.set b 1 'x');
  Pool.commit p;
  check Alcotest.int "commit = batch of one" 2 (Pool.commit_batches p);
  check Alcotest.int "second marker" 2 (Storage.Journal.commit_count j)

(* Model-based test: random reads/writes through a tiny pool must behave
   like a plain array of pages, across any eviction pattern. *)
let test_pool_model_based () =
  let rng = Workload.Prng.create ~seed:131 in
  let d = Dev.create ~block_size:64 () in
  let p = Pool.create ~capacity:3 d in
  let n_pages = 12 in
  let pages = Array.init n_pages (fun _ -> Pool.alloc p) in
  let model = Array.make n_pages 0 in
  for step = 1 to 5_000 do
    let i = Workload.Prng.int rng n_pages in
    (match Workload.Prng.int rng 4 with
    | 0 | 1 ->
        (* write a fresh value through the pool, mirror it in the model *)
        Pool.with_page p pages.(i) ~dirty:true (fun buf ->
            Bytes.set_int32_be buf 0 (Int32.of_int step));
        model.(i) <- step
    | 2 ->
        (* read must always see the model's value, cached or faulted *)
        let v =
          Pool.with_page p pages.(i) ~dirty:false (fun buf ->
              Int32.to_int (Bytes.get_int32_be buf 0))
        in
        if v <> model.(i) then
          Alcotest.failf "step %d: page %d read %d, model %d" step i v
            model.(i)
    | _ -> if Workload.Prng.int rng 20 = 0 then Pool.flush p);
    if Workload.Prng.int rng 500 = 0 then Pool.clear p
  done;
  Array.iteri
    (fun i page ->
      let v =
        Pool.with_page p page ~dirty:false (fun buf ->
            Int32.to_int (Bytes.get_int32_be buf 0))
      in
      check Alcotest.int (Printf.sprintf "page %d content" i) model.(i) v)
    pages

(* ---- frame recycling ---- *)

(* Once the pool is full, a miss reads into the spare buffer, which is
   the data buffer of the previous miss's victim: on a sequential sweep
   with capacity [cap], miss [k] evicts page [k - cap], so from the
   second eviction on, page [k] lands in page [k - 1 - cap]'s buffer. *)
let test_miss_reuses_victim_buffer () =
  let cap = 3 and n = 10 in
  let d = Dev.create ~block_size:64 () in
  let pages = Array.init n (fun _ -> Dev.alloc d) in
  let p = Pool.create ~capacity:cap d in
  let bufs =
    Array.map
      (fun pg ->
        let b = Pool.pin p pg in
        Pool.unpin p pg ~dirty:false;
        b)
      pages
  in
  check Alcotest.int "every pin missed" n (Pool.Stats.get p).Pool.Stats.misses;
  for k = cap + 1 to n - 1 do
    if bufs.(k) != bufs.(k - 1 - cap) then
      Alcotest.failf "page %d did not reuse the buffer of victim page %d" k
        (k - 1 - cap)
  done

(* A bit flipped on the way in fails the page's CRC: the fault raises
   before anything is evicted, so the resident set and the LRU order are
   the ones from before, and the page's next (clean) read installs it. *)
let test_corrupt_fault_evicts_nothing () =
  let fd = FD.create (Dev.create ~block_size:64 ()) in
  let p = Pool.create ~capacity:3 ~checksums:true (FD.device fd) in
  let pages = Array.init 5 (fun _ -> Pool.alloc p) in
  Array.iteri
    (fun i pg ->
      Pool.with_page p pg ~dirty:true (fun b ->
          Bytes.fill b 0 8 (Char.chr (65 + i))))
    pages;
  Pool.clear p;
  let touch i =
    Pool.with_page p pages.(i) ~dirty:false (fun b -> Bytes.get b 0)
  in
  (* resident 0, 1, 2; least recently used first *)
  List.iter (fun i -> ignore (touch i)) [ 0; 1; 2 ];
  let resident () =
    List.filter (fun i -> Pool.resident p pages.(i)) [ 0; 1; 2; 3; 4 ]
  in
  let before = Pool.Stats.get p in
  FD.schedule_read_fault fd ~at:(FD.reads_done fd) (FD.Flip 9);
  (match touch 3 with
  | _ -> Alcotest.fail "a flipped bit was not detected"
  | exception Pool.Corrupt_page pg ->
      check Alcotest.int "names the page" pages.(3) pg);
  check Alcotest.(list int) "resident set unchanged" [ 0; 1; 2 ] (resident ());
  check Alcotest.int "nothing pinned" 0 (Pool.pinned_frames p);
  check Alcotest.int "no eviction" before.Pool.Stats.evictions
    (Pool.Stats.get p).Pool.Stats.evictions;
  (* the LRU order survived: clean faults evict 0, then 1 *)
  check Alcotest.char "clean reread" 'D' (touch 3);
  check Alcotest.(list int) "LRU page 0 went first" [ 1; 2; 3 ] (resident ());
  check Alcotest.char "next fault" 'E' (touch 4);
  check Alcotest.(list int) "then page 1" [ 2; 3; 4 ] (resident ());
  check Alcotest.char "recycled frames hold their pages" 'C' (touch 2)

(* ---- CRC-32 ---- *)

(* Byte-at-a-time CRC-32 with a table built bit by bit from the
   polynomial: the oracle for both C kernels. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_bytewise crc b ~pos ~len =
  let c = ref (crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF) in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Bytes.get_uint8 b i) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

let test_crc_check_value () =
  check Alcotest.int32 "check value" 0xCBF43926l
    (Storage.Checksum.string "123456789");
  check Alcotest.int "oracle check value" 0xCBF43926
    (crc_bytewise 0 (Bytes.of_string "123456789") ~pos:0 ~len:9)

(* Runs under 64 bytes take slice-by-8 only; longer ones, on a CPU with
   PCLMULQDQ, the fold over their first [len land lnot 15] bytes and
   slice-by-8 for the rest. A random [?crc] is a chained call. *)
let prop_crc_kernels =
  QCheck.Test.make ~count:1000 ~name:"Checksum.bytes = bytewise CRC-32"
    QCheck.(
      make
        ~print:(fun (pos, len, crc, seed) ->
          Printf.sprintf "pos=%d len=%d crc=%lx seed=%d" pos len crc seed)
        Gen.(
          quad (int_range 0 15)
            (frequency [ (1, int_range 0 130); (1, int_range 0 4_200) ])
            ui32 int))
    (fun (pos, len, crc, seed) ->
      let rng = Random.State.make [| seed |] in
      let b =
        Bytes.init (pos + len + 8) (fun _ ->
            Char.chr (Random.State.int rng 256))
      in
      let got = Storage.Checksum.bytes ~crc b ~pos ~len in
      Int32.to_int got land 0xFFFF_FFFF
      = crc_bytewise (Int32.to_int crc) b ~pos ~len
      && Storage.Checksum.update (Int32.to_int crc) b ~pos ~len
         = Int32.to_int got land 0xFFFF_FFFF)

let () =
  Alcotest.run "storage"
    [
      ("device",
       [ Alcotest.test_case "alloc/read/write/stats" `Quick
           test_device_alloc_rw;
         Alcotest.test_case "validation" `Quick test_device_validation ]);
      ("pool",
       [ Alcotest.test_case "hits vs misses" `Quick test_pool_hit_miss;
         Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
         Alcotest.test_case "dirty write-back" `Quick test_pool_write_back;
         Alcotest.test_case "pins protect pages" `Quick
           test_pool_pin_protects;
         Alcotest.test_case "unpin validation" `Quick test_unpin_unpinned;
         Alcotest.test_case "clear flushes and cools" `Quick test_clear;
         Alcotest.test_case "with_page unpins on exception" `Quick
           test_with_page_exception_unpins;
         Alcotest.test_case "model-based random ops" `Quick
           test_pool_model_based;
         Alcotest.test_case "resident pin+unpin: 0 words" `Quick
           test_hit_allocates_nothing ]);
      ("eviction",
       [ Alcotest.test_case "storm counters" `Quick test_eviction_storm;
         Alcotest.test_case "pinned frame survives storm" `Quick
           test_pinned_survives_storm;
         Alcotest.test_case "ring matches LRU model" `Quick
           test_ring_matches_lru_model;
         Alcotest.test_case "with_page does not mask exceptions" `Quick
           test_with_page_exception_not_masked;
         QCheck_alcotest.to_alcotest prop_pool_lru_model ]);
      ("group commit",
       [ Alcotest.test_case "one marker per batch" `Quick
           test_group_commit_batching ]);
      ("recycling",
       [ Alcotest.test_case "a miss reuses the last victim's buffer"
           `Quick test_miss_reuses_victim_buffer;
         Alcotest.test_case "a corrupt fault evicts nothing" `Quick
           test_corrupt_fault_evicts_nothing ]);
      ("crc32",
       [ Alcotest.test_case "check value" `Quick test_crc_check_value;
         QCheck_alcotest.to_alcotest prop_crc_kernels ]);
    ]
