(* The bench harness: every table and figure of Sec. 6, and the drivers
   that record the system's own measurements.

   Usage: dune exec bench/main.exe -- [--tiny] [-o DIR] [NAME...]

     --tiny   reduced sizes (CI smoke runs)
     -o DIR   write Sec. 6 tables as DIR/<slug>.csv and driver records
              as DIR/BENCH_<name>.json; without it nothing is written

   With no NAME, the whole Sec. 6 set runs. An unknown NAME is rejected
   (exit 2) before anything runs. A driver whose acceptance check fails
   exits 1, after its record is printed and written.

   Sec. 6 experiments (cf. DESIGN.md's per-experiment index):
     table1   the D1..D4 distribution definitions, with measured samples
     fig12    index entries vs database size            (with fig14)
     fig13    I/O and response time vs query selectivity
     fig14    I/O and response time vs database size    (with fig12)
     fig15    response time vs minimum interval length (minstep effect)
     fig16    response time vs mean interval length
     fig17    sweeping point query (IST degeneration)
     wlist    Window-List vs RI-tree (Sec. 6.1 remark)
     ablation-cache, ablation-clustering, ablation-skeleton, join,
     adaptive  ablations and extensions
     micro    bechamel micro-benchmarks of the core operations

   Drivers (one BENCH_<name>.json record each):
     storage   buffer-pool eviction, hit rate, group commit, miss, hit
     explain   Sec. 5 cost model vs cold-cache I/O, EXPLAIN ANALYZE
     plan      plan-cache throughput, access-path win rates
     memindex  HINT and the interval tree vs the disk RI-tree
     txn       MVCC multi-writer commits vs the serialized baseline
     commit    CPU and journal bytes of one 4-insert COMMIT
     replica   semi-sync commit latency, standby reads per batch, lag,
               late-join catch-up, failover
     shard     scatter-gather under a head-of-line hotspot
     reactor   connection scaling of the event core *)

module Tbl = Harness.Tbl
module Report = Harness.Report

type job =
  | Tables of (tiny:bool -> Tbl.t list)
  | Record of (tiny:bool -> Report.t * (string * bool) list)

(* fig12 and fig14 are one routine: selecting both runs it once *)
let fig12_14 = Tables Figures.fig12_14

let registry =
  [ ("table1", Tables Figures.table1); ("fig12", fig12_14);
    ("fig13", Tables Figures.fig13); ("fig14", fig12_14);
    ("fig15", Tables Figures.fig15); ("fig16", Tables Figures.fig16);
    ("fig17", Tables Figures.fig17); ("wlist", Tables Figures.wlist);
    ("ablation-cache", Tables Figures.ablation_cache);
    ("ablation-clustering", Tables Figures.ablation_clustering);
    ("ablation-skeleton", Tables Figures.ablation_skeleton);
    ("join", Tables Figures.join_bench);
    ("adaptive", Tables Figures.adaptive_bench);
    ("micro", Tables Figures.micro);
    ("storage", Record Core_benches.storage);
    ("explain", Record Core_benches.explain);
    ("plan", Record Core_benches.plan);
    ("memindex", Record Core_benches.memindex);
    ("txn", Record Server_benches.txn);
    ("commit", Record Server_benches.commit);
    ("replica", Record Server_benches.replica);
    ("shard", Record Server_benches.shard);
    ("reactor", Record Server_benches.reactor) ]

let sec6 =
  [ "table1"; "fig12"; "fig13"; "fig15"; "fig16"; "fig17"; "wlist";
    "ablation-cache"; "ablation-clustering"; "ablation-skeleton"; "join";
    "adaptive"; "micro" ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let slug title =
  let s =
    String.map
      (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> Char.lowercase_ascii c
        | _ -> '_')
      title
  in
  if String.length s > 60 then String.sub s 0 60 else s

(* Run one job; the names of its failed checks. *)
let run ~tiny ~out name job =
  match job with
  | Tables f ->
      List.iter
        (fun t ->
          Tbl.print t;
          Option.iter
            (fun dir ->
              Tbl.save_csv t (Filename.concat dir (slug (Tbl.title t) ^ ".csv")))
            out)
        (f ~tiny);
      []
  | Record f ->
      let fields, checks = f ~tiny in
      let doc, failed = Report.record ~bench:name ~tiny fields checks in
      let json = Report.to_string doc in
      print_string json;
      Option.iter
        (fun dir ->
          write_file (Filename.concat dir ("BENCH_" ^ name ^ ".json")) json)
        out;
      failed

let usage () =
  Printf.eprintf "usage: main.exe [--tiny] [-o DIR] [NAME...]\nnames: %s\n"
    (String.concat " " (List.map fst registry))

let () =
  let rec parse tiny out names = function
    | [] -> (tiny, out, List.rev names)
    | "--" :: rest -> parse tiny out names rest
    | "--tiny" :: rest -> parse true out names rest
    | "-o" :: dir :: rest -> parse tiny (Some dir) names rest
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | name :: rest when List.mem_assoc name registry ->
        parse tiny out (name :: names) rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        usage ();
        exit 2
  in
  let tiny, out, names = parse false None [] (List.tl (Array.to_list Sys.argv)) in
  let names = if names = [] then sec6 else names in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    out;
  let jobs =
    List.fold_left
      (fun acc name ->
        let job = List.assoc name registry in
        if List.exists (fun (_, j) -> j == job) acc then acc
        else acc @ [ (name, job) ])
      [] names
  in
  let failed =
    List.concat_map
      (fun (name, job) ->
        let failed, secs = Harness.Measure.wall (fun () -> run ~tiny ~out name job) in
        Printf.printf "(%s took %.1f s)\n\n%!" name secs;
        List.map (fun check -> name ^ ": " ^ check) failed)
      jobs
  in
  if failed <> [] then begin
    Printf.eprintf "failed checks: %s\n" (String.concat ", " failed);
    exit 1
  end
