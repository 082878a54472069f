(* The three workloads and the request streams their clients send.

   Everything here is a pure function of the seed: the preloaded data,
   the query pools, each client's op sequence and the answer-check set.
   The servers only ever receive requests built from these values. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module P = Server.Protocol

type topology =
  | Single  (** one rikitd *)
  | Routed  (** router -> 2 shards; shard 0 has one standby *)

type mix =
  | Disk_mix  (** 70 % Intersect, 20 % Allen, 10 % write txn *)
  | Hot_mix  (** 40 % point Intersect, 30 % SQL text, 30 % EXECUTE *)

(* The working-set assumption a workload stands for, checked at run time. *)
type sizes =
  | Exceeds_pool  (** relation + indexes >= 10 x the buffer pool *)
  | Fits_pool  (** no physical read in the timed window *)
  | Unchecked

type t = {
  name : string;
  sizes : sizes;
  n : int;  (** intervals in the preloaded D1 dataset *)
  d : int;  (** D1 duration parameter *)
  topology : topology;
  clients : int;  (** closed-loop client connections, one thread each *)
  mix : mix;
  setups : int;  (** set-ups per run; setup_s is their median *)
  warm_ops : int;  (** ops per client before the timed window *)
  replay_ops : int;  (** ops of client 0 replayed in-process *)
}

let selectivity = 0.006

(* Query intervals per seed. The slowest 1 % of reads are the costliest
   queries of the pool, so a large pool keeps p99 from hanging on a few
   draws. *)
let pool_size = 8192

(* Why each workload exists is recorded in BENCHMARK.json and
   perfbench/METRICS.md. Only [mixed-disk] runs two clients, to put a
   commit behind a scan on the one event loop. On the host's two vCPUs a
   second client made the other two workloads' p50 measure how the
   clients and servers interleave: on [hot-point] it added no throughput
   and made a request wait behind the other client's about half the
   time; on [routed-mixed], with four server processes, it spread the
   p50 of six seeds by 0.078 of the median against 0.050 with one. *)
let all =
  [ (* the paper's regime: the relation dwarfs the pool *)
    { name = "mixed-disk"; sizes = Exceeds_pool; n = 35_000; d = 2000;
      topology = Single; clients = 2; mix = Disk_mix; setups = 3; warm_ops = 100;
      replay_ops = 300 };
    (* cache-resident: per-request overhead dominates *)
    { name = "hot-point"; sizes = Fits_pool; n = 2_000; d = 2000;
      topology = Single; clients = 1; mix = Hot_mix; setups = 100; warm_ops = 300;
      replay_ops = 1000 };
    (* router scatter/merge, cross-shard commit, standby ack wait *)
    { name = "routed-mixed"; sizes = Unchecked; n = 20_000; d = 2000;
      topology = Routed; clients = 1; mix = Disk_mix; setups = 3; warm_ops = 100;
      replay_ops = 300 } ]

let find name = List.find_opt (fun s -> s.name = name) all

(* ---- ops ---- *)

type op =
  | Q_intersect of Ivl.t
  | Q_allen of Allen.relation * Ivl.t
  | Q_sql of Ivl.t
  | Q_exec of Ivl.t
  | Txn of Ivl.t array  (** BEGIN, one Insert each, COMMIT *)

(* Allen relations whose answers stay bounded by the query extent;
   before/after would return half the table. *)
let allen_rels =
  [| Allen.During; Contains; Overlaps; Starts; Finishes; Meets; Equals |]

let inserts_per_txn = 4
let prepared_name = "hp"

let sql_text q =
  Printf.sprintf
    "SELECT lower, upper, id FROM intervals WHERE lower <= %d AND upper >= %d"
    (Ivl.upper q) (Ivl.lower q)

let prepared_sql =
  "SELECT lower, upper, id FROM intervals WHERE lower <= :qup AND upper >= \
   :qlow"

let is_read = function Txn _ -> false | _ -> true

let op_kind = function
  | Q_intersect _ -> "intersect"
  | Q_allen _ -> "allen"
  | Q_sql _ -> "sql"
  | Q_exec _ -> "execute"
  | Txn _ -> "txn"

(* The requests a read op sends (exactly one). *)
let read_request = function
  | Q_intersect q -> P.Intersect { lower = Ivl.lower q; upper = Ivl.upper q }
  | Q_allen (relation, q) ->
      P.Allen { relation; lower = Ivl.lower q; upper = Ivl.upper q }
  | Q_sql q -> P.Sql (sql_text q)
  | Q_exec q -> P.Execute { name = prepared_name; params = [ Ivl.upper q; Ivl.lower q ] }
  | Txn _ -> invalid_arg "read_request"

let insert_request ivl =
  P.Insert { lower = Ivl.lower ivl; upper = Ivl.upper ivl; id = None }

(* Every request of an op, in send order. *)
let requests = function
  | Txn ivls ->
      (P.Begin :: Array.to_list (Array.map insert_request ivls)) @ [ P.Commit ]
  | op -> [ read_request op ]

(* ---- generated inputs ---- *)

type inputs = {
  data : Ivl.t array;  (** preload; the id of [data.(i)] is [i] *)
  pool : Ivl.t array;  (** query intervals (0.6 % ranges or points) *)
}

let inputs spec ~seed =
  let data =
    Workload.Distribution.generate ~seed Workload.Distribution.D1 ~n:spec.n
      ~d:spec.d
  in
  let pool =
    match spec.mix with
    | Disk_mix ->
        Workload.Query_gen.queries ~seed:(seed + 1) ~data ~count:pool_size
          selectivity
    | Hot_mix -> Workload.Query_gen.point_queries ~seed:(seed + 1) ~count:pool_size ()
  in
  { data; pool }

(* D1-shaped insert: start uniform over the domain, duration uniform in
   [0, 2d], upper bound clamped to the domain. *)
let d1_interval rng d =
  let dm = Workload.Distribution.domain_max in
  let lo = Workload.Prng.int rng (dm + 1) in
  Ivl.make lo (min dm (lo + Workload.Prng.int rng ((2 * d) + 1)))

let draw spec inp rng =
  let q () = inp.pool.(Workload.Prng.int rng (Array.length inp.pool)) in
  let r = Workload.Prng.int rng 100 in
  match spec.mix with
  | Disk_mix ->
      if r < 70 then Q_intersect (q ())
      else if r < 90 then
        let rel = allen_rels.(Workload.Prng.int rng (Array.length allen_rels)) in
        Q_allen (rel, q ())
      else Txn (Array.init inserts_per_txn (fun _ -> d1_interval rng spec.d))
  | Hot_mix ->
      if r < 40 then Q_intersect (q ())
      else if r < 70 then Q_sql (q ())
      else Q_exec (q ())

(* Client [c]'s op sequence: an endless generator seeded by (seed, c). *)
let stream spec inp ~seed ~client =
  let rng = Workload.Prng.create ~seed:((seed * 1_000_003) + (7919 * (client + 1))) in
  fun () -> draw spec inp rng

(* Requests a client sends once, right after it connects. *)
let connect_requests spec =
  match spec.mix with
  | Hot_mix -> [ P.Prepare { name = prepared_name; sql = prepared_sql } ]
  | Disk_mix -> []

(* A log of request frames, each encoded as [Server.Client.rpc] encodes
   it on a fresh connection: request ids numbered from 1. *)
type frame_log = { mutable id : int; frames : Buffer.t }

let frame_log () = { id = 0; frames = Buffer.create 65536 }

let log_frame log req =
  log.id <- log.id + 1;
  Buffer.add_bytes log.frames (P.encode_request ~id:(Int64.of_int log.id) req)

let log_digest log = Digest.to_hex (Digest.string (Buffer.contents log.frames))

(* Digest of the frames client [client] sends from connect through its
   first [k] ops. *)
let client_digest spec inp ~seed ~client ~k =
  let next = stream spec inp ~seed ~client in
  let log = frame_log () in
  List.iter (log_frame log) (connect_requests spec);
  for _ = 1 to k do
    List.iter (log_frame log) (requests (next ()))
  done;
  log_digest log

(* ---- answer check ---- *)

type check_q = C_intersect of Ivl.t | C_allen of Allen.relation * Ivl.t

let check_set spec inp ~seed =
  let rng = Workload.Prng.create ~seed:((seed * 7_919) + 99) in
  let q () = inp.pool.(Workload.Prng.int rng (Array.length inp.pool)) in
  let ints = List.init 40 (fun _ -> C_intersect (q ())) in
  let allens =
    match spec.mix with
    | Hot_mix -> []
    | Disk_mix ->
        List.init 28 (fun i ->
            C_allen (allen_rels.(i mod Array.length allen_rels), q ()))
  in
  ints @ allens

let check_op = function
  | C_intersect q -> Q_intersect q
  | C_allen (r, q) -> Q_allen (r, q)

(* Digest of everything the seed determines: every client's first [k]
   ops and the answer-check set. *)
let seed_digest spec inp ~seed ~k =
  let log = frame_log () in
  List.iter (fun cq -> List.iter (log_frame log) (requests (check_op cq)))
    (check_set spec inp ~seed);
  let parts =
    List.init spec.clients (fun client -> client_digest spec inp ~seed ~client ~k)
    @ [ log_digest log ]
  in
  Digest.to_hex (Digest.string (String.concat "" parts))

(* Brute-force answer as sorted (lower, upper, id) triples over every
   stored interval. *)
let expected stored cq =
  let keep =
    match cq with
    | C_intersect q -> fun ivl -> Ivl.intersects ivl q
    | C_allen (r, q) -> fun ivl -> Allen.holds r ivl q
  in
  List.sort compare
    (List.filter_map
       (fun (ivl, id) ->
         if keep ivl then Some (Ivl.lower ivl, Ivl.upper ivl, id) else None)
       stored)
