(* rikit — command-line driver for the RI-tree reproduction.

   Subcommands:
     generate   print a sample of a Table-1 distribution (optionally CSV)
     explain    show the backbone node lists and plan for a query
     compare    build every access method on a dataset and compare
                physical I/O and response time for a query batch
     sql        run a SQL script through the engine *)

open Cmdliner

let kind_conv =
  let parse s =
    match Workload.Distribution.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown distribution %S" s))
  in
  Arg.conv (parse, fun ppf k ->
      Format.pp_print_string ppf (Workload.Distribution.kind_to_string k))

let kind_arg =
  Arg.(value & opt kind_conv Workload.Distribution.D1
       & info [ "k"; "kind" ] ~doc:"Distribution kind (D1..D4, Table 1).")

let n_arg =
  Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Number of intervals.")

let d_arg =
  Arg.(value & opt int 2000
       & info [ "d" ] ~doc:"Duration parameter d of Table 1.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

(* ---- generate ---- *)

let generate kind n d seed csv =
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  if csv then begin
    print_endline "lower,upper";
    Array.iter
      (fun i ->
        Printf.printf "%d,%d\n" (Interval.Ivl.lower i) (Interval.Ivl.upper i))
      data
  end
  else begin
    Format.printf "%s(%d,%d): %a@."
      (Workload.Distribution.kind_to_string kind)
      n d Workload.Distribution.pp_summary data;
    Array.iteri
      (fun i ivl ->
        if i < 10 then Format.printf "  %a@." Interval.Ivl.pp ivl)
      data;
    if n > 10 then Format.printf "  ... (%d more)@." (n - 10)
  end

let generate_cmd =
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the full dataset as CSV.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Sample a Table-1 interval distribution")
    Term.(const generate $ kind_arg $ n_arg $ d_arg $ seed_arg $ csv)

(* ---- explain ---- *)

let explain kind n d seed trace qlow qup =
  if qlow > qup then failwith "query lower exceeds upper";
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let db = Relation.Catalog.create () in
  (* the server's relation: its plan reads the indexes alone *)
  let tree = Ritree.Ri_tree.create ~layout:Ritree.Ri_tree.Covering db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let q = Interval.Ivl.make qlow qup in
  let p = Ritree.Ri_tree.params tree in
  Printf.printf
    "dataset %s(%d,%d); backbone offset=%s leftRoot=%d rightRoot=%d \
     minLevel=%d height=%d\n\n"
    (Workload.Distribution.kind_to_string kind)
    n d
    (match p.Ritree.Ri_tree.offset with
    | Some o -> string_of_int o
    | None -> "unset")
    p.Ritree.Ri_tree.left_root p.Ritree.Ri_tree.right_root
    p.Ritree.Ri_tree.min_level
    (Ritree.Ri_tree.height tree);
  (* The shared execution layer: the same renderer, estimator and plan
     the SQL front end and the wire-op EXPLAIN use. *)
  let stats = Ritree.Cost_model.Stats.analyze tree in
  print_string
    (Exec.Planner.explain ~stats tree (Exec.Planner.Intersect_target q));
  Printf.printf "chosen access path: %s  (full scan: %.0f blocks)\n"
    (Exec.Planner.path_to_string (Exec.Planner.choose tree stats q))
    (Ritree.Cost_model.scan_cost tree);
  Relation.Catalog.flush db;
  Relation.Catalog.drop_cache db;
  if trace then Obs.Trace.set_enabled true;
  (* execute the very plan rendered above: the triple projection *)
  let (ids, span), blocks =
    Harness.Measure.io db (fun () ->
        Obs.Trace.traced "explain.query" ~info:(Interval.Ivl.to_string q)
          (fun () -> Exec.Planner.intersecting ~stats tree q))
  in
  Printf.printf "ACTUAL (cold cache)  rows=%d  io=%d\n"
    (List.length ids) blocks;
  match span with
  | Some sp when trace -> Printf.printf "\ntrace:\n%s" (Obs.Trace.render sp)
  | _ -> ()

let explain_cmd =
  let qlow =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"LOWER")
  in
  let qup = Arg.(required & pos 1 (some int) None & info [] ~docv:"UPPER") in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the hierarchical trace of the measured query \
                   (per-branch joins, B+-tree descents, pool faults).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the RI-tree plan, cost-model prediction and I/O for an \
             intersection query")
    Term.(const explain $ kind_arg $ n_arg $ d_arg $ seed_arg $ trace
          $ qlow $ qup)

(* ---- compare ---- *)

let compare_methods kind n d seed selectivity queries_n =
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let queries =
    Workload.Query_gen.queries ~data ~count:queries_n (selectivity /. 100.)
  in
  let level = Harness.Methods.calibrated_tile_level data ~queries in
  let methods =
    [ Harness.Methods.ri_tree (); Harness.Methods.tile ~level ();
      Harness.Methods.ist (); Harness.Methods.map21 () ]
  in
  let table =
    Harness.Tbl.create
      ~title:
        (Printf.sprintf "%s(%d,%d), %d queries at %.2f%% selectivity"
           (Workload.Distribution.kind_to_string kind)
           n d queries_n selectivity)
      ~columns:
        [ "method"; "index entries"; "avg I/O"; "avg time (ms)"; "results" ]
  in
  List.iter
    (fun (m : Harness.Methods.t) ->
      Harness.Methods.load m data;
      let b = Harness.Measure.query_batch m.catalog m.count_query queries in
      Harness.Tbl.add_row table
        [ m.label; string_of_int (m.index_entries ());
          Harness.Tbl.fmt_f b.Harness.Measure.avg_io;
          Harness.Tbl.fmt_f (1000. *. b.Harness.Measure.avg_seconds);
          string_of_int b.Harness.Measure.total_results ])
    methods;
  Harness.Tbl.print table

let compare_cmd =
  let sel =
    Arg.(value & opt float 1.0
         & info [ "s"; "selectivity" ] ~doc:"Query selectivity in percent.")
  in
  let qn =
    Arg.(value & opt int 20 & info [ "q"; "queries" ] ~doc:"Query count.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare RI-tree, T-index, IST and MAP21 on one workload")
    Term.(const compare_methods $ kind_arg $ n_arg $ d_arg $ seed_arg $ sel $ qn)

(* ---- topo ---- *)

let topo kind n d seed relation qlow qup =
  if qlow > qup then failwith "query lower exceeds upper";
  let rel =
    match Interval.Allen.of_string relation with
    | Some r -> r
    | None ->
        failwith
          (Printf.sprintf "unknown relation %S (one of: %s)" relation
             (String.concat ", "
                (List.map Interval.Allen.to_string Interval.Allen.all)))
  in
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let q = Interval.Ivl.make qlow qup in
  let hits = Ritree.Topological.query tree rel q in
  Printf.printf "%d stored intervals %s %s:\n" (List.length hits)
    (Interval.Allen.to_string rel)
    (Interval.Ivl.to_string q);
  List.iteri
    (fun i (ivl, id) ->
      if i < 20 then
        Printf.printf "  id %d: %s\n" id (Interval.Ivl.to_string ivl))
    hits;
  if List.length hits > 20 then
    Printf.printf "  ... (%d more)\n" (List.length hits - 20)

let topo_cmd =
  let rel =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RELATION")
  in
  let qlow = Arg.(required & pos 1 (some int) None & info [] ~docv:"LOWER") in
  let qup = Arg.(required & pos 2 (some int) None & info [] ~docv:"UPPER") in
  Cmd.v
    (Cmd.info "topo"
       ~doc:"Run an Allen-relation query (Sec. 4.5) on a generated dataset")
    Term.(const topo $ kind_arg $ n_arg $ d_arg $ seed_arg $ rel $ qlow $ qup)

(* ---- join ---- *)

let join kind n d seed =
  let left_data = Workload.Distribution.generate ~seed kind ~n ~d in
  let right_data =
    Workload.Distribution.generate ~seed:(seed + 1) kind ~n:(n / 2) ~d
  in
  let db = Relation.Catalog.create () in
  let left = Ritree.Ri_tree.create ~name:"left" db in
  let right = Ritree.Ri_tree.create ~name:"right" db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i left ivl)) left_data;
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i right ivl)) right_data;
  let run label f =
    Relation.Catalog.flush db;
    Relation.Catalog.drop_cache db;
    Relation.Catalog.reset_io_stats db;
    let pairs, secs = Harness.Measure.wall f in
    let s = Relation.Catalog.io_stats db in
    Printf.printf "%-18s %8d pairs  %6d I/O  %.3f s\n" label
      (List.length pairs)
      (s.Storage.Block_device.Stats.reads + s.Storage.Block_device.Stats.writes)
      secs
  in
  Printf.printf "intersection join %s(%d,%d) x %s(%d,%d)\n"
    (Workload.Distribution.kind_to_string kind)
    n d
    (Workload.Distribution.kind_to_string kind)
    (n / 2) d;
  run "index nested loop" (fun () -> Ritree.Join.index_nested_ids left right);
  run "plane sweep" (fun () -> Ritree.Join.sweep_ids left right)

let join_cmd =
  Cmd.v
    (Cmd.info "join"
       ~doc:"Compare intersection-join strategies on generated data")
    Term.(const join $ kind_arg $ n_arg $ d_arg $ seed_arg)

(* ---- bench-serve ---- *)

type bench_worker = {
  latencies : float array;  (* seconds, slot per attempted query *)
  mutable completed : int;
  mutable results : int;
  mutable overloaded : bool;  (* admission control rejected this client *)
  mutable failure : string option;
}

let bench_thread ~host ~port ~queries worker =
  try
    let c = Server.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        (try
           Array.iter
             (fun q ->
               let req =
                 Server.Protocol.Intersect
                   { lower = Interval.Ivl.lower q; upper = Interval.Ivl.upper q }
               in
               let t0 = Unix.gettimeofday () in
               match Server.Client.rpc c req with
               | Server.Protocol.Rows { rows; _ } ->
                   worker.latencies.(worker.completed) <-
                     Unix.gettimeofday () -. t0;
                   worker.completed <- worker.completed + 1;
                   worker.results <- worker.results + List.length rows
               | Server.Protocol.Overloaded _ ->
                   worker.overloaded <- true;
                   raise Exit
               | Server.Protocol.Error m -> failwith m
               | _ -> failwith "unexpected response")
             queries
         with Exit -> ()))
  with
  | Server.Client.Io_error m -> worker.failure <- Some m
  | Failure m -> worker.failure <- Some m

let bench_serve_run host port clients queries_total kind n d seed selectivity =
  if clients < 1 then failwith "need at least one client";
  (* Reconstruct the server's dataset (same kind/n/d/seed) so the query
     batch is calibrated to the actual stored intervals. *)
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let queries =
    Workload.Query_gen.queries ~seed:(seed + 1) ~data ~count:queries_total
      (selectivity /. 100.)
  in
  let fetch_stats () =
    (* Stats probes ride the same admission control as real clients:
       retry with backoff instead of giving up on a transient reject. *)
    let c = Server.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        match
          Server.Client.retry (fun () -> Server.Client.server_stats c)
        with
        | Ok s -> s
        | Error e ->
            raise (Server.Client.Io_error (Server.Client.error_to_string e)))
  in
  let stats0 = fetch_stats () in
  let per_client = (queries_total + clients - 1) / clients in
  let workers =
    Array.init clients (fun _ ->
        { latencies = Array.make per_client 0.0; completed = 0; results = 0;
          overloaded = false; failure = None })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i worker ->
           let lo = i * per_client in
           let hi = min queries_total (lo + per_client) in
           let slice = Array.sub queries lo (max 0 (hi - lo)) in
           Thread.create (fun () -> bench_thread ~host ~port ~queries:slice worker) ())
         workers)
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let stats1 = fetch_stats () in
  let ok = Array.fold_left (fun a w -> a + w.completed) 0 workers in
  let results = Array.fold_left (fun a w -> a + w.results) 0 workers in
  let rejected =
    Array.fold_left (fun a w -> a + if w.overloaded then 1 else 0) 0 workers
  in
  Array.iteri
    (fun i w ->
      match w.failure with
      | Some m -> Printf.printf "client %d failed: %s\n" i m
      | None -> ())
    workers;
  let latencies =
    Array.concat
      (Array.to_list
         (Array.map (fun w -> Array.sub w.latencies 0 w.completed) workers))
  in
  Printf.printf
    "bench-serve: %d clients, %d/%d queries ok, %d rejected by admission \
     control\n"
    clients ok queries_total rejected;
  if ok > 0 then begin
    let pct p = 1000. *. Harness.Measure.percentile latencies p in
    let io_delta =
      stats1.Server.Protocol.io_reads + stats1.Server.Protocol.io_writes
      - stats0.Server.Protocol.io_reads - stats0.Server.Protocol.io_writes
    in
    Printf.printf "  throughput      %.0f queries/s (%.3f s wall)\n"
      (float_of_int ok /. wall) wall;
    Printf.printf "  latency (ms)    p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
      (pct 0.5) (pct 0.95) (pct 0.99) (pct 1.0);
    Printf.printf "  results         %d total, %.1f per query\n" results
      (float_of_int results /. float_of_int ok);
    Printf.printf "  physical I/O    %d blocks, %.2f per query\n" io_delta
      (float_of_int io_delta /. float_of_int ok)
  end;
  Printf.printf "\nserver view:\n%s"
    (Server.Server_stats.render stats1)

let bench_serve host port clients queries_total kind n d seed selectivity =
  try bench_serve_run host port clients queries_total kind n d seed selectivity
  with Server.Client.Io_error m ->
    Printf.eprintf "bench-serve: %s (is rikitd running on %s:%d?)\n" m host port;
    exit 1

let bench_serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 7468 & info [ "p"; "port" ] ~doc:"Server port.")
  in
  let clients =
    Arg.(value & opt int 8
         & info [ "c"; "clients" ] ~doc:"Concurrent client connections.")
  in
  let queries =
    Arg.(value & opt int 1000
         & info [ "q"; "queries" ] ~doc:"Total queries across all clients.")
  in
  let sel =
    Arg.(value & opt float 1.0
         & info [ "s"; "selectivity" ] ~doc:"Query selectivity in percent.")
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:"Drive a running rikitd with N concurrent clients"
       ~man:
         [ `S Manpage.s_description;
           `P "Regenerates the dataset rikitd was started with (match \
               $(b,--kind), $(b,-n), $(b,-d) and $(b,--seed)), calibrates a \
               query batch at the requested selectivity, fans it out over \
               $(b,--clients) blocking connections, and reports aggregate \
               throughput, client-side latency percentiles, and the \
               server's physical I/O per query." ])
    Term.(const bench_serve $ host $ port $ clients $ queries $ kind_arg
          $ n_arg $ d_arg $ seed_arg $ sel)

(* ---- bench-storage ---- *)

(* Microbenchmark of the storage hot path: O(1) ring eviction
   throughput, hit rate across working-set sizes, and the group-commit
   amortization of log forces and page images. Emits both a
   human-readable table and machine-readable BENCH_storage.json. *)

(* Repeat [f] (performing [ops_per_round] operations) until at least
   [min_seconds] have elapsed, so the fast configurations are measured
   over a stable window rather than a single sub-millisecond sweep. *)
let time_ops ~min_seconds f ~ops_per_round =
  let total = ref 0 and elapsed = ref 0. in
  let continue = ref true in
  while !continue do
    let (), s = Harness.Measure.wall f in
    elapsed := !elapsed +. s;
    total := !total + ops_per_round;
    if !elapsed >= min_seconds then continue := false
  done;
  float_of_int !total /. Float.max !elapsed 1e-9

let sequential_sweep_device ~pages =
  let dev = Storage.Block_device.create ~block_size:64 () in
  for _ = 1 to pages do
    ignore (Storage.Block_device.alloc dev)
  done;
  dev

type eviction_row = {
  ev_capacity : int;
  ev_working_set : int;
  ev_ring_ops : float;
}

(* Cyclic sweep over a working set 4x the pool capacity: every access
   misses and evicts, so ops/s is eviction throughput. *)
let bench_eviction ~tiny =
  let caps = if tiny then [ 64 ] else [ 200; 2000 ] in
  let min_seconds = if tiny then 0. else 0.2 in
  List.map
    (fun capacity ->
      let ws = 4 * capacity in
      let dev = sequential_sweep_device ~pages:ws in
      let pool = Storage.Buffer_pool.create ~capacity dev in
      let i = ref 0 in
      let round () =
        for _ = 1 to ws do
          Storage.Buffer_pool.with_page pool (!i mod ws) ~dirty:false
            (fun _ -> ());
          incr i
        done
      in
      { ev_capacity = capacity; ev_working_set = ws;
        ev_ring_ops = time_ops ~min_seconds round ~ops_per_round:ws })
    caps

type hit_rate_row = {
  hr_working_set : int;
  hr_accesses : int;
  hr_hit_rate : float;
  hr_evictions : int;
  hr_ops : float;
}

(* Uniform random accesses at fixed capacity while the working set
   grows past it: the measured hit rate should track capacity/ws. *)
let bench_hit_rate ~tiny ~capacity =
  let accesses = if tiny then 5_000 else 100_000 in
  let sets =
    [ capacity / 2; capacity; 2 * capacity; 4 * capacity; 8 * capacity ]
  in
  List.map
    (fun ws ->
      let ws = max 1 ws in
      let dev = sequential_sweep_device ~pages:ws in
      let pool = Storage.Buffer_pool.create ~capacity dev in
      let rng = Random.State.make [| 0x5eed; ws |] in
      let (), secs =
        Harness.Measure.wall (fun () ->
            for _ = 1 to accesses do
              Storage.Buffer_pool.with_page pool (Random.State.int rng ws)
                ~dirty:false
                (fun _ -> ())
            done)
      in
      let st = Storage.Buffer_pool.Stats.get pool in
      { hr_working_set = ws; hr_accesses = accesses;
        hr_hit_rate =
          float_of_int st.Storage.Buffer_pool.Stats.hits
          /. float_of_int (max 1 st.Storage.Buffer_pool.Stats.logical_reads);
        hr_evictions = st.Storage.Buffer_pool.Stats.evictions;
        hr_ops = float_of_int accesses /. Float.max secs 1e-9 })
    sets

type commit_row = {
  gc_batch : int;
  gc_commits : int;
  gc_us_per_commit : float;
  gc_forces : int;
  gc_markers : int;
  gc_journal_bytes : int;
}

(* Each transaction updates one hot page (shared by every transaction)
   plus one of 32 rotating private pages, then requests a commit; every
   [g]-th request forces the batch. Grouping divides the log forces and
   commit markers by [g] and logs the hot page once per batch instead of
   once per transaction. *)
let bench_group_commit ~tiny =
  let batches = if tiny then [ 1; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let commits = if tiny then 64 else 512 in
  List.map
    (fun g ->
      let dev = Storage.Block_device.create ~block_size:256 () in
      let hot = Storage.Block_device.alloc dev in
      let pages = Array.init 32 (fun _ -> Storage.Block_device.alloc dev) in
      let pool = Storage.Buffer_pool.create ~capacity:64 dev in
      let j = Storage.Journal.create () in
      Storage.Buffer_pool.attach_journal pool j;
      let (), secs =
        Harness.Measure.wall (fun () ->
            for i = 0 to commits - 1 do
              Storage.Buffer_pool.with_page pool hot ~dirty:true (fun b ->
                  Bytes.set b 0 (Char.chr (i land 0xff)));
              Storage.Buffer_pool.with_page pool
                pages.(i mod Array.length pages)
                ~dirty:true
                (fun b -> Bytes.set b 1 (Char.chr (i land 0xff)));
              Storage.Buffer_pool.commit_request pool;
              if (i + 1) mod g = 0 then
                ignore (Storage.Buffer_pool.commit_force pool)
            done;
            ignore (Storage.Buffer_pool.commit_force pool))
      in
      { gc_batch = g; gc_commits = commits;
        gc_us_per_commit = 1e6 *. secs /. float_of_int commits;
        gc_forces = Storage.Journal.force_count j;
        gc_markers = Storage.Journal.commit_count j;
        gc_journal_bytes = Storage.Journal.byte_size j })
    batches

let bench_storage_json ~tiny ~eviction ~hit_rate ~hit_capacity ~group_commit =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let list xs row =
    List.iteri
      (fun i x ->
        if i > 0 then add ",";
        row x)
      xs
  in
  add "{\n  \"bench\": \"storage\",\n  \"tiny\": %b,\n" tiny;
  add "  \"eviction\": [";
  list eviction (fun e ->
      add
        "\n    {\"capacity\": %d, \"working_set\": %d, \
         \"ring_ops_per_sec\": %.0f}"
        e.ev_capacity e.ev_working_set e.ev_ring_ops);
  add "\n  ],\n";
  add "  \"hit_rate\": {\"capacity\": %d, \"sweep\": [" hit_capacity;
  list hit_rate (fun h ->
      add
        "\n    {\"working_set\": %d, \"accesses\": %d, \"hit_rate\": %.4f, \
         \"evictions\": %d, \"ops_per_sec\": %.0f}"
        h.hr_working_set h.hr_accesses h.hr_hit_rate h.hr_evictions h.hr_ops);
  add "\n  ]},\n";
  add "  \"group_commit\": [";
  list group_commit (fun c ->
      add
        "\n    {\"batch\": %d, \"commits\": %d, \"us_per_commit\": %.2f, \
         \"log_forces\": %d, \"commit_markers\": %d, \"journal_bytes\": %d, \
         \"bytes_per_commit\": %.0f}"
        c.gc_batch c.gc_commits c.gc_us_per_commit c.gc_forces c.gc_markers
        c.gc_journal_bytes
        (float_of_int c.gc_journal_bytes /. float_of_int c.gc_commits));
  add "\n  ]\n}\n";
  Buffer.contents b

let bench_storage tiny out =
  let eviction = bench_eviction ~tiny in
  let hit_capacity = if tiny then 32 else 200 in
  let hit_rate = bench_hit_rate ~tiny ~capacity:hit_capacity in
  let group_commit = bench_group_commit ~tiny in
  let t1 =
    Harness.Tbl.create
      ~title:"eviction throughput (cyclic sweep, working set = 4x capacity)"
      ~columns:[ "capacity"; "working set"; "ring ops/s" ]
  in
  List.iter
    (fun e ->
      Harness.Tbl.add_row t1
        [ string_of_int e.ev_capacity; string_of_int e.ev_working_set;
          Printf.sprintf "%.0f" e.ev_ring_ops ])
    eviction;
  Harness.Tbl.print t1;
  print_newline ();
  let t2 =
    Harness.Tbl.create
      ~title:
        (Printf.sprintf "hit rate, capacity %d (uniform random)" hit_capacity)
      ~columns:[ "working set"; "hit rate"; "evictions"; "ops/s" ]
  in
  List.iter
    (fun h ->
      Harness.Tbl.add_row t2
        [ string_of_int h.hr_working_set;
          Printf.sprintf "%.1f%%" (100. *. h.hr_hit_rate);
          string_of_int h.hr_evictions; Printf.sprintf "%.0f" h.hr_ops ])
    hit_rate;
  Harness.Tbl.print t2;
  print_newline ();
  let t3 =
    Harness.Tbl.create
      ~title:"group commit (hot page + rotating page per transaction)"
      ~columns:
        [ "batch"; "commits"; "us/commit"; "log forces"; "markers";
          "journal bytes" ]
  in
  List.iter
    (fun c ->
      Harness.Tbl.add_row t3
        [ string_of_int c.gc_batch; string_of_int c.gc_commits;
          Printf.sprintf "%.2f" c.gc_us_per_commit;
          string_of_int c.gc_forces; string_of_int c.gc_markers;
          string_of_int c.gc_journal_bytes ])
    group_commit;
  Harness.Tbl.print t3;
  let json =
    bench_storage_json ~tiny ~eviction ~hit_rate ~hit_capacity ~group_commit
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" out

let bench_storage_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"Small configurations for CI smoke runs (seconds, not \
                   minutes).")
  in
  let out =
    Arg.(value & opt string "BENCH_storage.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-storage"
       ~doc:"Microbenchmark the buffer pool and journal"
       ~man:
         [ `S Manpage.s_description;
           `P "Three experiments on the storage hot path: eviction \
               throughput of the O(1) intrusive LRU ring (cyclic sweep \
               over a working set 4x the pool capacity); cache hit rate \
               as the working set grows past a fixed capacity; and \
               commit cost against the group-commit batch size (log \
               forces, commit markers and journaled bytes amortized \
               across the batch)." ])
    Term.(const bench_storage $ tiny $ out)

(* ---- bench-explain ---- *)

(* Predicted-vs-actual for the Sec. 5 cost model over the Table-1
   distributions: per query, predict result size (histograms) and
   physical I/O (index cost formula), then measure both against a cold
   cache, and report the relative-error distribution. One query per
   distribution is also pushed through the SQL front end — transient
   leftNodes/rightNodes collections plus the Fig. 9 UNION ALL — under
   EXPLAIN ANALYZE, tying the engine's estimator to the same ground
   truth. *)

type explain_err = { ee_mean : float; ee_p50 : float; ee_p90 : float;
                     ee_max : float }

let err_stats errs =
  if Array.length errs = 0 then
    { ee_mean = 0.; ee_p50 = 0.; ee_p90 = 0.; ee_max = 0. }
  else
    { ee_mean =
        Array.fold_left ( +. ) 0. errs /. float_of_int (Array.length errs);
      ee_p50 = Harness.Measure.percentile errs 0.5;
      ee_p90 = Harness.Measure.percentile errs 0.9;
      ee_max = Array.fold_left Float.max 0. errs }

type explain_row = {
  ex_kind : string;
  ex_n : int;
  ex_queries : int;
  ex_pred_io : float;
  ex_actual_io : int;
  ex_pred_rows : int;
  ex_actual_rows : int;
  ex_io_err : explain_err;
  ex_rows_err : explain_err;
  ex_sql_explain : string;
}

let fig9_sql =
  "EXPLAIN ANALYZE \
   SELECT id FROM intervals i, leftNodes lft \
   WHERE i.node BETWEEN lft.min AND lft.max AND i.upper >= :qlow \
   UNION ALL \
   SELECT id FROM intervals i, rightNodes rgt \
   WHERE i.node = rgt.node AND i.lower <= :qup"

let bench_explain_kind ~tiny ~seed ~sel kind =
  let n = if tiny then 2_000 else 10_000 in
  let d = 2000 in
  let qcount = if tiny then 10 else 50 in
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let queries =
    Workload.Query_gen.queries ~seed ~data ~count:qcount (sel /. 100.)
  in
  let rel_err pred actual =
    Float.abs (pred -. float_of_int actual) /. float_of_int (max 1 actual)
  in
  let io_errs = Array.make (Array.length queries) 0. in
  let rows_errs = Array.make (Array.length queries) 0. in
  let pred_io_total = ref 0. and actual_io_total = ref 0 in
  let pred_rows_total = ref 0 and actual_rows_total = ref 0 in
  Array.iteri
    (fun i q ->
      let pred_io = Ritree.Cost_model.index_cost tree stats q in
      let pred_rows = Ritree.Cost_model.Stats.estimate_result_size stats q in
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      let ids, io =
        Harness.Measure.io db (fun () ->
            Ritree.Ri_tree.intersecting_ids tree q)
      in
      let actual_rows = List.length ids in
      io_errs.(i) <- rel_err pred_io io;
      rows_errs.(i) <- rel_err (float_of_int pred_rows) actual_rows;
      pred_io_total := !pred_io_total +. pred_io;
      actual_io_total := !actual_io_total + io;
      pred_rows_total := !pred_rows_total + pred_rows;
      actual_rows_total := !actual_rows_total + actual_rows)
    queries;
  (* Fig. 9 through the SQL front end, under EXPLAIN ANALYZE. *)
  let sql_explain =
    if Array.length queries = 0 then "(no queries)"
    else begin
      let q = queries.(0) in
      let session = Sqlfront.Engine.session db in
      let nl = Ritree.Ri_tree.node_lists tree q in
      Sqlfront.Engine.set_collection session "leftNodes"
        ~columns:[ "min"; "max" ]
        (List.map (fun (a, b) -> [| a; b |]) nl.Ritree.Ri_tree.left_nodes);
      Sqlfront.Engine.set_collection session "rightNodes"
        ~columns:[ "node" ]
        (List.map (fun v -> [| v |]) nl.Ritree.Ri_tree.right_nodes);
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      match
        Sqlfront.Engine.exec
          ~binds:
            [ ("qlow", Interval.Ivl.lower q); ("qup", Interval.Ivl.upper q) ]
          session fig9_sql
      with
      | Sqlfront.Engine.Done text -> text
      | Sqlfront.Engine.Rows _ -> "(unexpected rows)"
    end
  in
  { ex_kind = Workload.Distribution.kind_to_string kind;
    ex_n = n;
    ex_queries = Array.length queries;
    ex_pred_io = !pred_io_total;
    ex_actual_io = !actual_io_total;
    ex_pred_rows = !pred_rows_total;
    ex_actual_rows = !actual_rows_total;
    ex_io_err = err_stats io_errs;
    ex_rows_err = err_stats rows_errs;
    ex_sql_explain = sql_explain }

let bench_explain_json ~tiny ~sel rows =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"bench\": \"explain\",\n  \"tiny\": %b,\n" tiny;
  add "  \"selectivity_pct\": %.3f,\n" sel;
  add "  \"distributions\": [";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      let err e =
        Printf.sprintf
          "{\"mean\": %.4f, \"p50\": %.4f, \"p90\": %.4f, \"max\": %.4f}"
          e.ee_mean e.ee_p50 e.ee_p90 e.ee_max
      in
      add
        "\n    {\"kind\": %S, \"n\": %d, \"queries\": %d,\n\
        \     \"predicted_io_total\": %.1f, \"actual_io_total\": %d,\n\
        \     \"predicted_rows_total\": %d, \"actual_rows_total\": %d,\n\
        \     \"io_rel_err\": %s,\n\
        \     \"rows_rel_err\": %s}"
        r.ex_kind r.ex_n r.ex_queries r.ex_pred_io r.ex_actual_io
        r.ex_pred_rows r.ex_actual_rows (err r.ex_io_err)
        (err r.ex_rows_err))
    rows;
  add "\n  ]\n}\n";
  Buffer.contents b

let bench_explain tiny sel seed out =
  let kinds =
    [ Workload.Distribution.D1; Workload.Distribution.D2;
      Workload.Distribution.D3; Workload.Distribution.D4 ]
  in
  let rows = List.map (bench_explain_kind ~tiny ~seed ~sel) kinds in
  let table =
    Harness.Tbl.create
      ~title:
        (Printf.sprintf
           "cost model vs. cold-cache reality (%.2f%% selectivity)" sel)
      ~columns:
        [ "kind"; "queries"; "pred io"; "actual io"; "pred rows";
          "actual rows"; "io err p50"; "io err p90"; "io err max" ]
  in
  List.iter
    (fun r ->
      Harness.Tbl.add_row table
        [ r.ex_kind; string_of_int r.ex_queries;
          Printf.sprintf "%.0f" r.ex_pred_io; string_of_int r.ex_actual_io;
          string_of_int r.ex_pred_rows; string_of_int r.ex_actual_rows;
          Printf.sprintf "%.2f" r.ex_io_err.ee_p50;
          Printf.sprintf "%.2f" r.ex_io_err.ee_p90;
          Printf.sprintf "%.2f" r.ex_io_err.ee_max ])
    rows;
  Harness.Tbl.print table;
  List.iter
    (fun r ->
      Printf.printf "\n%s, Fig. 9 via SQL (EXPLAIN ANALYZE):\n%s" r.ex_kind
        r.ex_sql_explain)
    rows;
  let json = bench_explain_json ~tiny ~sel rows in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" out

let bench_explain_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"Small datasets and query batches for CI smoke runs.")
  in
  let sel =
    Arg.(value & opt float 1.0
         & info [ "s"; "selectivity" ] ~doc:"Query selectivity in percent.")
  in
  let out =
    Arg.(value & opt string "BENCH_explain.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-explain"
       ~doc:"Predicted-vs-actual error of the Sec. 5 cost model on D1-D4"
       ~man:
         [ `S Manpage.s_description;
           `P "For each Table-1 distribution, predicts every query's \
               result size and physical I/O from the registered cost \
               model, measures the true values against a cold cache, and \
               reports the relative-error distribution (mean/p50/p90/max) \
               to stdout and BENCH_explain.json. One query per \
               distribution is additionally materialized as transient \
               leftNodes/rightNodes collections and executed through the \
               SQL front end's Fig. 9 UNION ALL under EXPLAIN ANALYZE." ])
    Term.(const bench_explain $ tiny $ sel $ seed_arg $ out)

(* ---- bench-plan: the execution layer ----

   Two measurements of the typed execution layer: statement throughput
   with and without the plan cache (plus PREPARE/EXECUTE), and the
   cost-based planner's access-path win rate against per-path
   cold-cache ground truth on the Table-1 distributions. *)

let fig9_host =
  "SELECT id FROM intervals i, leftNodes lft WHERE i.node BETWEEN lft.min \
   AND lft.max AND i.upper >= :qlow UNION ALL SELECT id FROM intervals i, \
   rightNodes rgt WHERE i.node = rgt.node AND i.lower <= :qup"

let fig9_literal q =
  Printf.sprintf
    "SELECT id FROM intervals i, leftNodes lft WHERE i.node BETWEEN lft.min \
     AND lft.max AND i.upper >= %d UNION ALL SELECT id FROM intervals i, \
     rightNodes rgt WHERE i.node = rgt.node AND i.lower <= %d"
    (Interval.Ivl.lower q) (Interval.Ivl.upper q)

(* A statement whose execution is trivial, so its throughput is bounded
   by parse+plan: the regime where the plan cache pays. *)
let light_sql =
  "SELECT node FROM rightNodes WHERE node = -1 UNION ALL SELECT node FROM \
   rightNodes WHERE node = -2 UNION ALL SELECT node FROM rightNodes WHERE \
   node = -3"

type plan_thr = {
  th_light_uncached : float;
  th_light_cached : float;
  th_fig9_uncached : float;
  th_fig9_cached : float;
  th_prepared : float;
}

let stmts_per_sec reps f =
  f ();
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  float_of_int reps /. Float.max 1e-9 !best

let bench_plan_throughput ~tiny ~seed =
  let n = if tiny then 2_000 else 10_000 in
  let data =
    Workload.Distribution.generate ~seed Workload.Distribution.D1 ~n ~d:2000
  in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let q = (Workload.Query_gen.queries ~seed ~data ~count:1 0.001).(0) in
  let setup s =
    let nl = Ritree.Ri_tree.node_lists tree q in
    Sqlfront.Engine.set_collection s "leftNodes" ~columns:[ "min"; "max" ]
      (List.map (fun (a, b) -> [| a; b |]) nl.Ritree.Ri_tree.left_nodes);
    Sqlfront.Engine.set_collection s "rightNodes" ~columns:[ "node" ]
      (List.map (fun v -> [| v |]) nl.Ritree.Ri_tree.right_nodes);
    s
  in
  let cached = setup (Sqlfront.Engine.session db) in
  let uncached = setup (Sqlfront.Engine.session ~plan_cache:false db) in
  let reps = if tiny then 300 else 2_000 in
  let sql = fig9_literal q in
  let run s text () = ignore (Sqlfront.Engine.query s text) in
  let prepared = Sqlfront.Engine.prepare cached fig9_host in
  let args = [ Interval.Ivl.lower q; Interval.Ivl.upper q ] in
  { th_light_uncached = stmts_per_sec reps (run uncached light_sql);
    th_light_cached = stmts_per_sec reps (run cached light_sql);
    th_fig9_uncached = stmts_per_sec reps (run uncached sql);
    th_fig9_cached = stmts_per_sec reps (run cached sql);
    th_prepared =
      stmts_per_sec reps (fun () ->
          ignore (Sqlfront.Engine.execute_prepared cached prepared args)) }

type plan_row = {
  pr_kind : string;
  pr_queries : int;
  pr_wins : int;
  pr_two : int;
  pr_single : int;
  pr_seq : int;
}

let bench_plan_kind ~tiny ~seed kind =
  let n = if tiny then 2_000 else 10_000 in
  let data = Workload.Distribution.generate ~seed kind ~n ~d:2000 in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let per_sel = if tiny then 3 else 10 in
  let queries =
    List.concat_map
      (fun sel ->
        Array.to_list
          (Workload.Query_gen.queries ~seed ~data ~count:per_sel sel))
      [ 0.001; 0.01; 0.1 ]
    @ Array.to_list (Workload.Query_gen.point_queries ~seed ~count:per_sel ())
  in
  let cold f =
    Relation.Catalog.flush db;
    Relation.Catalog.drop_cache db;
    snd (Harness.Measure.io db f)
  in
  let wins = ref 0 and two = ref 0 and single = ref 0 and seq = ref 0 in
  List.iter
    (fun q ->
      let io p =
        cold (fun () -> Exec.Planner.intersecting_ids ~path:p tree q)
      in
      let candidates =
        (Exec.Planner.Two_branch, io Exec.Planner.Two_branch)
        :: (Exec.Planner.Seq, io Exec.Planner.Seq)
        :: (if Interval.Ivl.lower q = Interval.Ivl.upper q then
              [ (Exec.Planner.Single_branch, io Exec.Planner.Single_branch) ]
            else [])
      in
      let best = List.fold_left (fun a (_, c) -> min a c) max_int candidates in
      let chosen = Exec.Planner.choose tree stats q in
      (match chosen with
      | Exec.Planner.Two_branch -> incr two
      | Exec.Planner.Single_branch -> incr single
      | Exec.Planner.Seq -> incr seq
      | Exec.Planner.Mem_path -> () (* no hot tier in this bench *));
      let chosen_io =
        match List.assoc_opt chosen candidates with
        | Some c -> c
        | None -> io chosen
      in
      if chosen_io <= best then incr wins)
    queries;
  { pr_kind = Workload.Distribution.kind_to_string kind;
    pr_queries = List.length queries;
    pr_wins = !wins;
    pr_two = !two;
    pr_single = !single;
    pr_seq = !seq }

let bench_plan_json ~tiny thr rows =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"bench\": \"plan\",\n  \"tiny\": %b,\n" tiny;
  add "  \"throughput\": {\n";
  add "    \"light_uncached_sps\": %.0f,\n" thr.th_light_uncached;
  add "    \"light_cached_sps\": %.0f,\n" thr.th_light_cached;
  add "    \"light_cache_ratio\": %.2f,\n"
    (thr.th_light_cached /. Float.max 1.0 thr.th_light_uncached);
  add "    \"fig9_uncached_sps\": %.0f,\n" thr.th_fig9_uncached;
  add "    \"fig9_cached_sps\": %.0f,\n" thr.th_fig9_cached;
  add "    \"fig9_cache_ratio\": %.2f,\n"
    (thr.th_fig9_cached /. Float.max 1.0 thr.th_fig9_uncached);
  add "    \"execute_prepared_sps\": %.0f\n  },\n" thr.th_prepared;
  add "  \"distributions\": [";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      add
        "\n    {\"kind\": %S, \"queries\": %d, \"planner_wins\": %d,\n\
        \     \"win_rate\": %.3f,\n\
        \     \"choices\": {\"two_branch\": %d, \"single_branch\": %d, \
         \"seq_scan\": %d}}"
        r.pr_kind r.pr_queries r.pr_wins
        (float_of_int r.pr_wins /. float_of_int (max 1 r.pr_queries))
        r.pr_two r.pr_single r.pr_seq)
    rows;
  add "\n  ]\n}\n";
  Buffer.contents b

let bench_plan tiny seed out =
  let thr = bench_plan_throughput ~tiny ~seed in
  Printf.printf
    "statement throughput (statements/sec, best of 3):\n\
    \  planner-bound stmt  uncached %8.0f   cached %8.0f   (%.1fx)\n\
    \  Fig. 9 UNION ALL    uncached %8.0f   cached %8.0f   (%.1fx)\n\
    \  EXECUTE prepared    %8.0f\n\n"
    thr.th_light_uncached thr.th_light_cached
    (thr.th_light_cached /. Float.max 1.0 thr.th_light_uncached)
    thr.th_fig9_uncached thr.th_fig9_cached
    (thr.th_fig9_cached /. Float.max 1.0 thr.th_fig9_uncached)
    thr.th_prepared;
  let rows =
    List.map
      (bench_plan_kind ~tiny ~seed)
      [ Workload.Distribution.D1; Workload.Distribution.D2;
        Workload.Distribution.D3; Workload.Distribution.D4 ]
  in
  let table =
    Harness.Tbl.create
      ~title:"planner choice vs per-path cold-cache I/O"
      ~columns:
        [ "kind"; "queries"; "wins"; "win rate"; "two-branch";
          "single-branch"; "seq-scan" ]
  in
  List.iter
    (fun r ->
      Harness.Tbl.add_row table
        [ r.pr_kind; string_of_int r.pr_queries; string_of_int r.pr_wins;
          Printf.sprintf "%.0f%%"
            (100. *. float_of_int r.pr_wins
            /. float_of_int (max 1 r.pr_queries));
          string_of_int r.pr_two; string_of_int r.pr_single;
          string_of_int r.pr_seq ])
    rows;
  Harness.Tbl.print table;
  let json = bench_plan_json ~tiny thr rows in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" out

let bench_plan_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"Small datasets and query batches for CI smoke runs.")
  in
  let out =
    Arg.(value & opt string "BENCH_plan.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-plan"
       ~doc:"Plan-cache throughput and access-path win rates"
       ~man:
         [ `S Manpage.s_description;
           `P "Measures statement throughput through the SQL engine with \
               the plan cache on and off (plus PREPARE/EXECUTE), then \
               replays mixed-selectivity query batches on each Table-1 \
               distribution and scores the cost-based planner's access \
               path choice against the cold-cache I/O of every \
               candidate path. Results go to stdout and BENCH_plan.json." ])
    Term.(const bench_plan $ tiny $ seed_arg $ out)

(* ---- bench-memindex: the main-memory hot tier ----

   Three measurements per Table-1 distribution: query throughput of the
   four main-memory structures (HINT vs the interval-tree, segment-tree
   and skip-list baselines) on stabbing and intersection batches; the
   same batch against the disk RI-tree with a cold and a warm buffer
   pool (the memory/disk crossover the hot tier exploits); and the
   cost model's tier choice scored against exhaustive per-tier
   cold-cache I/O, the bench-plan methodology extended with the memory
   tier. *)

type mem_row = {
  mm_kind : string;
  mm_n : int;
  mm_stab : (string * float) list; (* structure -> queries/sec *)
  mm_inter : (string * float) list;
  mm_cold_qps : float; (* disk RI-tree, cold buffer pool *)
  mm_warm_qps : float;
  mm_tier_queries : int;
  mm_tier_wins : int;
  mm_tier_mem : int; (* statements where the model picked memory *)
}

(* Repeat the whole batch until ~50 ms elapsed: single-query timings on
   main-memory structures are far below timer resolution. *)
let batch_qps queries f =
  let n = Array.length queries in
  if n = 0 then 0.0
  else begin
    Array.iter (fun q -> ignore (f q)) queries;
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while elapsed () < 0.05 do
      Array.iter (fun q -> ignore (f q)) queries;
      incr reps
    done;
    float_of_int (!reps * n) /. elapsed ()
  end

(* Disk timing excludes the cache-dropping bookkeeping between
   queries. *)
let cold_disk_qps db queries f =
  let total = ref 0.0 in
  Array.iter
    (fun q ->
      Relation.Catalog.flush db;
      Relation.Catalog.drop_cache db;
      let t0 = Unix.gettimeofday () in
      ignore (f q);
      total := !total +. (Unix.gettimeofday () -. t0))
    queries;
  float_of_int (Array.length queries) /. Float.max 1e-9 !total

let bench_memindex_kind ~tiny ~seed kind =
  let n = if tiny then 2_000 else 10_000 in
  let data = Workload.Distribution.generate ~seed kind ~n ~d:2000 in
  let dlo = Array.fold_left (fun a i -> min a (Interval.Ivl.lower i)) max_int data in
  let dhi = Array.fold_left (fun a i -> max a (Interval.Ivl.upper i)) min_int data in
  (* the four main-memory structures over the same rows *)
  let it = Memindex.Interval_tree.create ~lo:dlo ~hi:dhi in
  Array.iteri (fun id ivl -> ignore (Memindex.Interval_tree.insert ~id it ivl)) data;
  let hint =
    Memindex.Hint.create ~lo:dlo ~hi:dhi
      ~m:(Memindex.Hint.suggested_grid ~rows:n) ()
  in
  Array.iteri (fun id ivl -> ignore (Memindex.Hint.insert ~id hint ivl)) data;
  let st = Memindex.Segment_tree.build data in
  let sl = Memindex.Skip_list.create () in
  Array.iteri (fun id ivl -> ignore (Memindex.Skip_list.insert ~id sl ivl)) data;
  (* the disk RI-tree over the same rows *)
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let qcount = if tiny then 10 else 40 in
  let inter_qs = Workload.Query_gen.queries ~seed ~data ~count:qcount 0.01 in
  let stab_qs = Workload.Query_gen.point_queries ~seed ~count:qcount () in
  let stab =
    [ ("hint", batch_qps stab_qs (fun q ->
           Memindex.Hint.stabbing_ids hint (Interval.Ivl.lower q)));
      ("interval_tree", batch_qps stab_qs (fun q ->
           Memindex.Interval_tree.stabbing_ids it (Interval.Ivl.lower q)));
      ("segment_tree", batch_qps stab_qs (fun q ->
           Memindex.Segment_tree.stabbing_ids st (Interval.Ivl.lower q)));
      ("skip_list", batch_qps stab_qs (fun q ->
           Memindex.Skip_list.stabbing_ids sl (Interval.Ivl.lower q))) ]
  in
  let inter =
    [ ("hint", batch_qps inter_qs (Memindex.Hint.intersecting_ids hint));
      ("interval_tree",
       batch_qps inter_qs (Memindex.Interval_tree.intersecting_ids it));
      ("segment_tree",
       batch_qps inter_qs (Memindex.Segment_tree.intersecting_ids st));
      ("skip_list",
       batch_qps inter_qs (Memindex.Skip_list.intersecting_ids sl)) ]
  in
  let cold_qps =
    cold_disk_qps db inter_qs (fun q -> Ritree.Ri_tree.intersecting_ids tree q)
  in
  let warm_qps =
    batch_qps inter_qs (fun q -> Ritree.Ri_tree.intersecting_ids tree q)
  in
  (* Tier choice vs exhaustive per-tier cold-cache I/O: the memory tier
     is a real Memtier residency (budget far above the collection), the
     disk paths are the bench-plan candidates. *)
  let memtier = Exec.Memtier.create ~budget_mb:256 in
  let mem = Exec.Memtier.acquire memtier tree in
  let mem_info =
    Option.map
      (fun (h : Exec.Ir.mem_handle) ->
        { Ritree.Cost_model.mem_levels = h.Exec.Ir.mem_levels;
          mem_entries = h.Exec.Ir.mem_entries })
      mem
  in
  let cold f =
    Relation.Catalog.flush db;
    Relation.Catalog.drop_cache db;
    snd (Harness.Measure.io db f)
  in
  let wins = ref 0 and mem_chosen = ref 0 in
  Array.iter
    (fun q ->
      let disk_io p =
        cold (fun () -> Exec.Planner.intersecting_ids ~path:p tree q)
      in
      let mem_io =
        cold (fun () -> Exec.Planner.intersecting_ids ?mem ~path:Exec.Planner.Mem_path tree q)
      in
      let candidates =
        [ (Exec.Planner.Mem_path, mem_io);
          (Exec.Planner.Two_branch, disk_io Exec.Planner.Two_branch);
          (Exec.Planner.Seq, disk_io Exec.Planner.Seq) ]
      in
      let best = List.fold_left (fun a (_, c) -> min a c) max_int candidates in
      let chosen = Exec.Planner.choose ?mem:mem_info tree stats q in
      if chosen = Exec.Planner.Mem_path then incr mem_chosen;
      let chosen_io =
        match List.assoc_opt chosen candidates with
        | Some c -> c
        | None -> disk_io chosen
      in
      if chosen_io <= best then incr wins)
    inter_qs;
  { mm_kind = Workload.Distribution.kind_to_string kind;
    mm_n = n;
    mm_stab = stab;
    mm_inter = inter;
    mm_cold_qps = cold_qps;
    mm_warm_qps = warm_qps;
    mm_tier_queries = Array.length inter_qs;
    mm_tier_wins = !wins;
    mm_tier_mem = !mem_chosen }

let bench_memindex_json ~tiny rows =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"bench\": \"memindex\",\n  \"tiny\": %b,\n" tiny;
  add "  \"distributions\": [";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      let qps l =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.0f" k v) l)
      in
      let hint_inter = List.assoc "hint" r.mm_inter in
      add
        "\n    {\"kind\": %S, \"n\": %d,\n\
        \     \"stabbing_qps\": {%s},\n\
        \     \"intersection_qps\": {%s},\n\
        \     \"disk_cold_qps\": %.1f, \"disk_warm_qps\": %.1f,\n\
        \     \"hint_vs_cold_disk\": %.1f, \"hint_vs_warm_disk\": %.1f,\n\
        \     \"tier\": {\"queries\": %d, \"wins\": %d, \"win_rate\": %.3f, \
         \"mem_chosen\": %d}}"
        r.mm_kind r.mm_n (qps r.mm_stab) (qps r.mm_inter) r.mm_cold_qps
        r.mm_warm_qps
        (hint_inter /. Float.max 1e-9 r.mm_cold_qps)
        (hint_inter /. Float.max 1e-9 r.mm_warm_qps)
        r.mm_tier_queries r.mm_tier_wins
        (float_of_int r.mm_tier_wins /. float_of_int (max 1 r.mm_tier_queries))
        r.mm_tier_mem)
    rows;
  add "\n  ]\n}\n";
  Buffer.contents b

let bench_memindex tiny seed out =
  let rows =
    List.map
      (bench_memindex_kind ~tiny ~seed)
      [ Workload.Distribution.D1; Workload.Distribution.D2;
        Workload.Distribution.D3; Workload.Distribution.D4 ]
  in
  let table =
    Harness.Tbl.create ~title:"main-memory structures vs disk RI-tree (queries/sec)"
      ~columns:
        [ "kind"; "hint stab"; "it stab"; "st stab"; "sl stab";
          "hint inter"; "it inter"; "st inter"; "sl inter";
          "disk cold"; "disk warm"; "hint/cold"; "tier wins" ]
  in
  List.iter
    (fun r ->
      let g l k = Printf.sprintf "%.0f" (List.assoc k l) in
      Harness.Tbl.add_row table
        [ r.mm_kind;
          g r.mm_stab "hint"; g r.mm_stab "interval_tree";
          g r.mm_stab "segment_tree"; g r.mm_stab "skip_list";
          g r.mm_inter "hint"; g r.mm_inter "interval_tree";
          g r.mm_inter "segment_tree"; g r.mm_inter "skip_list";
          Printf.sprintf "%.0f" r.mm_cold_qps;
          Printf.sprintf "%.0f" r.mm_warm_qps;
          Printf.sprintf "%.0fx"
            (List.assoc "hint" r.mm_inter /. Float.max 1e-9 r.mm_cold_qps);
          Printf.sprintf "%d/%d" r.mm_tier_wins r.mm_tier_queries ])
    rows;
  Harness.Tbl.print table;
  let json = bench_memindex_json ~tiny rows in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" out

let bench_memindex_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"Small datasets and query batches for CI smoke runs.")
  in
  let out =
    Arg.(value & opt string "BENCH_memindex.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-memindex"
       ~doc:"Main-memory HINT vs baselines vs the disk RI-tree on D1-D4"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds the four main-memory interval structures (HINT and \
               the interval-tree/segment-tree/skip-list baselines) and a \
               disk RI-tree over each Table-1 distribution, measures \
               stabbing and intersection query throughput for all of \
               them (disk with both a cold and a warm buffer pool), and \
               scores the cost model's memory-vs-disk tier choice \
               against exhaustive per-tier cold-cache I/O. Results go to \
               stdout and BENCH_memindex.json." ])
    Term.(const bench_memindex $ tiny $ seed_arg $ out)

(* ---- bench-txn: MVCC multi-writer throughput and conflict behaviour ----

   Three phases against live in-process servers (real sockets, real
   dispatcher):

   1. Serialized baseline — the only safe discipline before per-session
      write sets: one writer at a time, every COMMIT forced on its own.
   2. Multi-writer — N concurrent sessions buffering independent write
      sets, COMMITs validated per session and staged into a
      group-commit window. The headline is multi/serial throughput.
   3. Contention — every session buffers a delete of the SAME row, all
      commit: exactly one wins per round, the rest get the typed
      [Conflict] frame (first-committer-wins), never a silent no-op. *)

let with_txn_server ?(group_commit = 0.) ?(preload = [||]) ~sessions f =
  let cfg =
    { Server.Dispatcher.host = "127.0.0.1"; port = 0;
      max_sessions = sessions + 2; max_inflight = 64; max_queue = 4096;
      group_commit; idle_timeout = 0.; metrics_port = None;
      slow_query_ms = 0.; replica_of = None;
      write_high_water = Server.Dispatcher.default_config.write_high_water }
  in
  let sh = Server.Session.shared ~durable:true () in
  if Array.length preload > 0 then Server.Session.preload sh preload;
  let disp = Server.Dispatcher.create ~config:cfg sh in
  let thread = Thread.create (fun () -> Server.Dispatcher.serve disp) () in
  let result =
    try Ok (f (Server.Dispatcher.port disp)) with e -> Error e
  in
  Server.Dispatcher.stop disp;
  Thread.join thread;
  match result with Ok v -> v | Error e -> raise e

(* One client running [txns] transactions of [writes] inserts + COMMIT;
   returns the number of committed transactions. *)
let txn_writer ~port ~txns ~writes ~base =
  let c = Server.Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      let committed = ref 0 in
      for t = 0 to txns - 1 do
        for w = 0 to writes - 1 do
          let lo = base + (t * writes) + w in
          match Server.Client.insert c (Interval.Ivl.make lo (lo + 10)) with
          | Ok _ -> ()
          | Error e ->
              failwith ("insert: " ^ Server.Client.error_to_string e)
        done;
        match Server.Client.commit c with
        | Ok _ -> incr committed
        | Error e -> failwith ("commit: " ^ Server.Client.error_to_string e)
      done;
      !committed)

let bench_txn_serial ~sessions ~txns_per ~writes =
  with_txn_server ~sessions:1 (fun port ->
      let total = sessions * txns_per in
      let t0 = Unix.gettimeofday () in
      let committed = txn_writer ~port ~txns:total ~writes ~base:0 in
      let wall = Unix.gettimeofday () -. t0 in
      (float_of_int committed /. wall, committed))

let bench_txn_multi ~sessions ~txns_per ~writes ~group_commit =
  with_txn_server ~group_commit ~sessions (fun port ->
      let results = Array.make sessions 0 in
      let t0 = Unix.gettimeofday () in
      let threads =
        Array.to_list
          (Array.init sessions (fun i ->
               Thread.create
                 (fun () ->
                   results.(i) <-
                     txn_writer ~port ~txns:txns_per ~writes
                       ~base:(i * txns_per * writes * 2))
                 ()))
      in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let committed = Array.fold_left ( + ) 0 results in
      (float_of_int committed /. wall, committed))

let bench_txn_contention ~sessions ~rounds =
  (* rows 0..rounds-1 preloaded committed; round r: every session
     buffers DELETE of row r, then every session commits in turn *)
  let preload =
    Array.init rounds (fun i -> Interval.Ivl.make (i * 100) ((i * 100) + 50))
  in
  with_txn_server ~sessions ~preload (fun port ->
      let clients =
        Array.init sessions (fun _ -> Server.Client.connect ~port ())
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Server.Client.close clients)
        (fun () ->
          let commits = ref 0 and conflicts = ref 0 in
          for r = 0 to rounds - 1 do
            Array.iter
              (fun c ->
                match
                  Server.Client.rpc c
                    (Server.Protocol.Delete
                       { lower = r * 100; upper = (r * 100) + 50; id = r })
                with
                | Server.Protocol.Ack _ -> ()
                | _ -> failwith "contention: delete refused")
              clients;
            Array.iter
              (fun c ->
                incr commits;
                match Server.Client.commit c with
                | Ok _ -> ()
                | Error (Server.Client.Conflict _ as e) ->
                    (* must be a verdict, not something a client retries *)
                    if Server.Client.retryable e then
                      failwith "Conflict classified retryable";
                    incr conflicts
                | Error e ->
                    failwith ("commit: " ^ Server.Client.error_to_string e))
              clients
          done;
          (!commits, !conflicts)))

let bench_txn tiny sessions out =
  let sessions = max 4 sessions in
  let txns_per = if tiny then 25 else 150 in
  let writes = 4 in
  let rounds = if tiny then 10 else 50 in
  let serial_tps, serial_n = bench_txn_serial ~sessions ~txns_per ~writes in
  let multi_tps, multi_n =
    bench_txn_multi ~sessions ~txns_per ~writes ~group_commit:0.002
  in
  let speedup = multi_tps /. Float.max 1e-9 serial_tps in
  let commits, conflicts = bench_txn_contention ~sessions ~rounds in
  let conflict_rate = float_of_int conflicts /. float_of_int (max 1 commits) in
  Printf.printf "bench-txn: %d sessions, %d writes/txn\n" sessions writes;
  Printf.printf "  serialized      %.0f txn/s (%d txns, one writer at a time)\n"
    serial_tps serial_n;
  Printf.printf "  multi-writer    %.0f txn/s (%d txns over %d sessions)\n"
    multi_tps multi_n sessions;
  Printf.printf "  speedup         %.2fx\n" speedup;
  Printf.printf
    "  contention      %d commits, %d conflicts (rate %.3f; expected %.3f)\n"
    commits conflicts conflict_rate
    (float_of_int (sessions - 1) /. float_of_int sessions);
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\n  \"bench\": \"txn\",\n  \"tiny\": %b,\n  \"sessions\": %d,\n\
    \  \"writes_per_txn\": %d,\n  \"txns\": %d,\n\
    \  \"serial_tps\": %.1f,\n  \"multi_tps\": %.1f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"conflict\": {\"rounds\": %d, \"commits\": %d, \"conflicts\": %d, \
     \"conflict_rate\": %.3f}\n}\n"
    tiny sessions writes (sessions * txns_per) serial_tps multi_tps speedup
    rounds commits conflicts conflict_rate;
  let oc = open_out out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "\nwrote %s\n" out

let bench_txn_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"Small transaction counts for CI smoke runs.")
  in
  let sessions =
    Arg.(value & opt int 8
         & info [ "c"; "sessions" ]
             ~doc:"Concurrent writer sessions (minimum 4).")
  in
  let out =
    Arg.(value & opt string "BENCH_txn.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-txn"
       ~doc:"MVCC multi-writer commit throughput vs the serialized baseline"
       ~man:
         [ `S Manpage.s_description;
           `P "Starts in-process durable servers and measures transaction \
               throughput three ways: a serialized baseline (one writer \
               at a time, per-commit log force — the only safe discipline \
               before per-session write sets), N concurrent writers with \
               MVCC validation and group-commit staging, and a contended \
               workload where every session deletes the same row to \
               demonstrate first-committer-wins Conflict frames. Results \
               go to stdout and BENCH_txn.json." ])
    Term.(const bench_txn $ tiny $ sessions $ out)

(* ---- sql ---- *)

let run_sql file =
  let src =
    let ic = open_in file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let db = Relation.Catalog.create () in
  let session = Sqlfront.Engine.session db in
  List.iter
    (function
      | Sqlfront.Engine.Done msg -> Printf.printf "%s\n" msg
      | Sqlfront.Engine.Rows { columns; rows } ->
          Printf.printf "%s\n" (String.concat " | " columns);
          List.iter
            (fun r ->
              Printf.printf "%s\n"
                (String.concat " | "
                   (Array.to_list (Array.map string_of_int r))))
            rows)
    (Sqlfront.Engine.exec_script session src)

let sql_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT.sql")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Execute a SQL script against a fresh database")
    Term.(const run_sql $ file)

(* ---- scrub ---- *)

let run_scrub seed flips no_repair =
  (* Build a durable, checksummed database, damage it with seeded bit
     flips, then let the scrubber find — and unless told otherwise,
     repair from journal images — every one of them. Exits non-zero if
     any injected flip goes undetected or unrepaired. *)
  let db = Relation.Catalog.create ~durable:true () in
  let tree = Ritree.Ri_tree.create db in
  let rng = Workload.Prng.create ~seed in
  for i = 0 to 1999 do
    let l = Workload.Prng.int rng 100_000 in
    ignore
      (Ritree.Ri_tree.insert ~id:i tree
         (Interval.Ivl.make l (l + 1 + Workload.Prng.int rng 4000)))
  done;
  Relation.Catalog.commit db;
  Relation.Catalog.flush db;
  let dev = Relation.Catalog.device db in
  let blocks = Storage.Block_device.allocated dev in
  let bs = Storage.Block_device.block_size dev in
  Printf.printf "database: %d blocks of %d bytes (checksummed), journal %s\n"
    blocks bs
    (match Relation.Catalog.journal_stats db with
    | Some (r, b) -> Printf.sprintf "%d records / %d image bytes" r b
    | None -> "absent");
  (* injected damage: one bit in each of [flips] distinct non-zero blocks *)
  let buf = Bytes.create bs in
  let victims = Hashtbl.create 16 in
  let attempts = ref 0 in
  while Hashtbl.length victims < flips && !attempts < 10_000 do
    incr attempts;
    let b = Workload.Prng.int rng blocks in
    if not (Hashtbl.mem victims b) then begin
      Storage.Block_device.read dev b buf;
      if Bytes.exists (fun c -> c <> '\000') buf then begin
        let bit = Workload.Prng.int rng (8 * bs) in
        let byte = bit / 8 in
        Bytes.set_uint8 buf byte
          (Bytes.get_uint8 buf byte lxor (1 lsl (bit mod 8)));
        Storage.Block_device.write dev b buf;
        Hashtbl.replace victims b bit
      end
    end
  done;
  let injected =
    Hashtbl.fold (fun b _ acc -> b :: acc) victims [] |> List.sort compare
  in
  Printf.printf "injected %d bit flips into blocks [%s]\n\n"
    (List.length injected)
    (String.concat "; " (List.map string_of_int injected));
  let report = Relation.Catalog.scrub ~repair:(not no_repair) db in
  Format.printf "%a@." Storage.Scrub.render report;
  let detected = List.sort compare report.Storage.Scrub.corrupt in
  let missed = List.filter (fun b -> not (List.mem b detected)) injected in
  if missed <> [] then begin
    Printf.printf "\nFAILED: %d injected flips went undetected: [%s]\n"
      (List.length missed)
      (String.concat "; " (List.map string_of_int missed));
    exit 1
  end;
  Printf.printf "\nall %d injected flips detected" (List.length injected);
  if no_repair then print_newline ()
  else begin
    let after = Relation.Catalog.scrub db in
    if after.Storage.Scrub.corrupt <> [] then begin
      Printf.printf "; REPAIR FAILED: %d blocks still corrupt\n"
        (List.length after.Storage.Scrub.corrupt);
      exit 1
    end;
    Printf.printf " and repaired from journal images; the image is clean\n"
  end

let scrub_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let flips =
    Arg.(value & opt int 8
         & info [ "flips" ] ~docv:"N"
             ~doc:"Distinct blocks to hit with one bit flip each.")
  in
  let no_repair =
    Arg.(value & flag
         & info [ "no-repair" ]
             ~doc:"Report checksum failures only; do not restore blocks \
                   from journal images.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Verify page checksums and repair corruption from the journal"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds a durable, checksummed database, injects seeded \
               silent bit flips into allocated blocks, then walks every \
               block verifying its CRC-32 trailer and checks the journal \
               tail. Corrupt blocks are restored from valid journal \
               images unless --no-repair is given. Exits non-zero if any \
               injected flip is missed or cannot be repaired." ])
    Term.(const run_scrub $ seed $ flips $ no_repair)

(* ---- crash-schedule ---- *)

let run_crash_schedule seed ops universe block_size cache commit_every torn
    quiet =
  let spec =
    { Harness.Crashpoint.seed; ops; universe; block_size;
      cache_blocks = cache; commit_every; torn }
  in
  let progress i n =
    if (not quiet) && (i mod 25 = 0 || i = n - 1) then
      Printf.printf "\rreplay %d/%d%!" (i + 1) n
  in
  let report = Harness.Crashpoint.run ~progress spec in
  if not quiet then print_newline ();
  Format.printf "%a@." Harness.Crashpoint.pp_report report;
  if report.Harness.Crashpoint.failures <> [] then exit 1

let crash_schedule_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let ops =
    Arg.(value & opt int 120
         & info [ "ops" ] ~doc:"Workload operations (commits excluded).")
  in
  let universe =
    Arg.(value & opt int 1000
         & info [ "universe" ] ~doc:"Interval coordinate range.")
  in
  let block_size =
    Arg.(value & opt int 256
         & info [ "block-size" ] ~doc:"Device block size in bytes.")
  in
  let cache =
    Arg.(value & opt int 8
         & info [ "cache" ] ~doc:"Buffer-pool capacity in blocks.")
  in
  let commit_every =
    Arg.(value & opt int 13
         & info [ "commit-every" ] ~doc:"Operations per commit marker.")
  in
  let torn =
    Arg.(value & flag
         & info [ "torn" ]
             ~doc:"The fatal write persists a random prefix (torn \
                   in-flight write) instead of vanishing cleanly.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress line.")
  in
  Cmd.v
    (Cmd.info "crash-schedule"
       ~doc:"Exhaustive crash-point recovery check"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs a seeded insert/delete/commit workload once to count \
               its physical device writes, then replays it once per write \
               index with a crash injected there, recovering and checking \
               the survivor against an in-memory oracle: committed rows \
               present, uncommitted rows gone, RI-tree invariants intact, \
               intersection queries exact. Exits non-zero on the first \
               schedule that breaks an invariant." ])
    Term.(const run_crash_schedule $ seed $ ops $ universe $ block_size
          $ cache $ commit_every $ torn $ quiet)

(* ---- shard-process helpers (chaos-net --router, bench-shard) ---- *)

(* One shard process: preload the slice in the parent (cheap, and the
   child inherits it copy-on-write), bind the port pre-fork so the
   parent learns it, then fork and serve in the child. Shards must be
   processes, not threads: the whole point is that the kernel preempts
   a shard pinned by a fat scan, which one cooperative event loop — or
   one OCaml runtime lock — cannot do. *)
let spawn_shard_procs ~slices =
  let disps =
    List.map
      (fun slice ->
        let sh = Server.Session.shared () in
        Server.Session.preload_ids sh slice;
        Server.Dispatcher.create
          ~config:{ Server.Dispatcher.default_config with port = 0 }
          sh)
      slices
  in
  let procs =
    List.map
      (fun disp ->
        let port = Server.Dispatcher.port disp in
        match Unix.fork () with
        | 0 ->
            (* Every process except the serving child must drop its
               inherited copy of the listen fd, or a killed shard's port
               stays accept-able (a black hole) instead of refusing. *)
            List.iter
              (fun d -> if d != disp then Server.Dispatcher.release_listener d)
              disps;
            Sys.set_signal Sys.sigterm
              (Sys.Signal_handle (fun _ -> Server.Dispatcher.stop disp));
            Sys.set_signal Sys.sigint Sys.Signal_ignore;
            Server.Dispatcher.serve disp;
            Unix._exit 0
        | pid -> (pid, port))
      disps
  in
  List.iter Server.Dispatcher.release_listener disps;
  procs

let stop_shard_proc (pid, _port) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* The slice a shard preloads: every interval overlapping its range,
   under its global id — boundary spanners land on both neighbours and
   collapse at merge time by that shared identity. *)
let shard_slice data (lo, hi) =
  let out = ref [] in
  Array.iteri
    (fun id ivl ->
      if Interval.Ivl.lower ivl <= hi && Interval.Ivl.upper ivl >= lo then
        out := (id, ivl) :: !out)
    data;
  Array.of_list (List.rev !out)

let resp_label = function
  | Server.Protocol.Ack _ -> "ack"
  | Server.Protocol.Rows _ -> "rows"
  | Server.Protocol.Error m -> "error: " ^ m
  | Server.Protocol.Invalid m -> "invalid: " ^ m
  | Server.Protocol.Overloaded m -> "overloaded: " ^ m
  | Server.Protocol.Partial { msg; _ } -> "partial: " ^ msg
  | _ -> "unexpected response"

(* ---- chaos-net: network fault sweep over a primary/replica pair ---- *)

let run_chaos_net tiny txns deadline_ms quiet =
  let spec = if tiny then Chaos.tiny_spec else Chaos.default_spec in
  let spec =
    { spec with
      txns = (if txns > 0 then txns else spec.txns);
      deadline_ms =
        (if deadline_ms > 0. then deadline_ms else spec.deadline_ms) }
  in
  let progress i n fault =
    if not quiet then
      Printf.printf "\rtrial %d/%d (%-9s)%!" (i + 1) n fault
  in
  let report = Chaos.run ~progress spec in
  if not quiet then print_newline ();
  Format.printf "%a@." Chaos.pp_report report;
  if report.Chaos.failures <> [] then exit 1

(* Router chaos: a proxy in front of shard 0 of a two-shard routed
   cluster partitions, then kills, the shard mid-scatter. The contract
   under test: a query touching the faulted shard degrades to a typed
   Partial within the router's deadline — never a hang — while queries
   confined to the healthy shard keep answering fast, and the faulted
   shard is readopted once it heals. Runs from bin (not lib/chaos)
   because it forks real shard processes. *)
let run_chaos_router quiet =
  let say fmt =
    Printf.ksprintf (fun s -> if not quiet then print_string s) fmt
  in
  let failures = ref [] in
  let check name cond detail =
    if cond then say "  ok    %s\n%!" name
    else begin
      say "  FAIL  %s: %s\n%!" name detail;
      failures := (name, detail) :: !failures
    end
  in
  let domain_max = Workload.Distribution.domain_max in
  let data = Workload.Distribution.generate ~seed:42 Workload.Distribution.D1 ~n:2000 ~d:2000 in
  let cuts = Server.Router.Map.backbone_cuts ~domain_max ~shards:2 in
  let geometry =
    Server.Router.Map.create ~cuts
      ~endpoints:[ [ ("127.0.0.1", 1) ]; [ ("127.0.0.1", 1) ] ]
  in
  let slice i = shard_slice data (Server.Router.Map.range geometry i) in
  let s0, s1 =
    match spawn_shard_procs ~slices:[ slice 0; slice 1 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Thread.delay 0.3;
  (* frames 0-2 pass through; the 4th shard-0 request hits the fault *)
  let deadline_ms = 300. in
  let partition_s = 1.5 in
  let proxy =
    Harness.Netchaos.create
      ~target:("127.0.0.1", snd s0)
      ~schedule:[ (3, Harness.Netchaos.Partition partition_s) ]
      ()
  in
  let proxy_thread = Thread.create (fun () -> Harness.Netchaos.run proxy) () in
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:
        [ [ ("127.0.0.1", Harness.Netchaos.port proxy) ];
          [ ("127.0.0.1", snd s1) ] ]
  in
  let router =
    Server.Router.create
      { Server.Router.default_config with port = 0;
        shard_deadline_ms = deadline_ms }
      ~map
  in
  let router_thread = Thread.create (fun () -> Server.Router.serve router) () in
  let c = Server.Client.connect ~port:(Server.Router.port router) () in
  let q0 = Server.Protocol.Intersect { lower = 1000; upper = 2000 } in
  let q1 = Server.Protocol.Intersect { lower = 600_000; upper = 601_000 } in
  let timed req =
    let t0 = Unix.gettimeofday () in
    let r = Server.Client.rpc_result c req in
    (r, Unix.gettimeofday () -. t0)
  in
  let is_rows = function Ok (Server.Protocol.Rows _) -> true | _ -> false in
  let show = function
    | Ok r -> resp_label r
    | Error e -> Server.Client.error_to_string e
  in
  say "chaos-net --router: 2 shards, fault proxy on shard 0 (deadline %.0f ms)\n%!"
    deadline_ms;
  (* warm-up: 3 shard-0 frames through the proxy, plus shard-1 traffic *)
  let w1, _ = timed q0 in
  let w2, _ = timed q1 in
  let w3, _ = timed q0 in
  let w4, _ = timed q0 in
  check "baseline scatter answers" (List.for_all is_rows [ w1; w2; w3; w4 ])
    (String.concat "; " (List.map show [ w1; w2; w3; w4 ]));
  (* frame 3: the partition fires mid-scatter *)
  let (r, dt) = timed q0 in
  let partial_0 = function
    | Ok (Server.Protocol.Partial { missing; _ }) -> List.mem 0 missing
    | _ -> false
  in
  check "partitioned shard degrades to typed Partial" (partial_0 r) (show r);
  check "partial arrives within the deadline budget, not a hang"
    (dt < (4. *. deadline_ms /. 1000.) +. 0.5)
    (Printf.sprintf "%.2f s" dt);
  let (r1, dt1) = timed q1 in
  check "healthy shard keeps serving during the partition"
    (is_rows r1 && dt1 < 0.25)
    (Printf.sprintf "%s after %.2f s" (show r1) dt1);
  (* heal: the proxy readmits connections after the partition window *)
  Thread.delay (partition_s +. 0.3);
  let rec recover tries =
    let (r, _) = timed q0 in
    if is_rows r then r
    else if tries = 0 then r
    else begin
      Thread.delay 0.2;
      recover (tries - 1)
    end
  in
  let healed = recover 10 in
  check "healed shard is readopted" (is_rows healed) (show healed);
  (* now kill the shard process outright: its port must refuse, and the
     router must turn that into Partial verdicts, not hangs *)
  (try Unix.kill (fst s0) Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] (fst s0));
  let (rk, dtk) = timed q0 in
  let rk =
    (* the dying socket may surface one transport error on the proxied
       leg before the router's failover settles into Partial verdicts *)
    if partial_0 rk then rk else fst (timed q0)
  in
  check "killed shard degrades to typed Partial" (partial_0 rk) (show rk);
  check "kill verdict is bounded too"
    (dtk < (4. *. deadline_ms /. 1000.) +. 0.5)
    (Printf.sprintf "%.2f s" dtk);
  let (r1k, dt1k) = timed q1 in
  check "healthy shard keeps serving after the kill"
    (is_rows r1k && dt1k < 0.25)
    (Printf.sprintf "%s after %.2f s" (show r1k) dt1k);
  Server.Client.close c;
  Server.Router.stop router;
  Thread.join router_thread;
  Harness.Netchaos.stop proxy;
  Thread.join proxy_thread;
  stop_shard_proc s0;
  stop_shard_proc s1;
  if !failures <> [] then begin
    Printf.printf "chaos-net --router: %d check(s) FAILED\n"
      (List.length !failures);
    exit 1
  end;
  say "chaos-net --router: all checks passed\n%!"

let chaos_net_dispatch tiny txns deadline_ms quiet router =
  if router then run_chaos_router quiet
  else run_chaos_net tiny txns deadline_ms quiet

let chaos_net_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ] ~doc:"Small sweep for CI smoke runs.")
  in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Run the routed-cluster scenario instead of the \
                   primary/replica sweep: a fault proxy in front of one \
                   shard of a two-shard cluster partitions, then kills, \
                   the shard mid-scatter, asserting every affected query \
                   degrades to a typed Partial within the router's \
                   deadline while the healthy shard keeps serving, and \
                   that the shard is readopted after the partition \
                   heals.")
  in
  let txns =
    Arg.(value & opt int 0
         & info [ "txns" ]
             ~doc:"Transactions per trial (0 = spec default). Each adds \
                   three injection points.")
  in
  let deadline =
    Arg.(value & opt float 0.
         & info [ "deadline-ms" ]
             ~doc:"Failover client per-request deadline (0 = default).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress line.")
  in
  Cmd.v
    (Cmd.info "chaos-net"
       ~doc:"Network chaos sweep: one injected fault per request frame"
       ~man:
         [ `S Manpage.s_description;
           `P "Boots a durable primary with a journal-shipping replica and \
               a frame-aligned chaos proxy, then replays a deterministic \
               two-row-transaction workload once per injection point, \
               cycling delay, drop, duplication, truncation, partition \
               and primary-kill faults. After each trial the surviving \
               nodes are compared with an in-memory oracle: acknowledged \
               writes present everywhere, unsent commits absent, lost \
               commit answers atomically present-or-absent. Exits \
               non-zero on the first violated trial." ])
    Term.(const chaos_net_dispatch $ tiny $ txns $ deadline $ quiet $ router)

(* ---- bench-replica: replication lag, failover time, read scale-out ---- *)

let with_repl_node ?replica_of () =
  let cfg =
    { Server.Dispatcher.host = "127.0.0.1"; port = 0; max_sessions = 16;
      max_inflight = 64; max_queue = 4096; group_commit = 0.002;
      idle_timeout = 0.; metrics_port = None; slow_query_ms = 0.;
      replica_of;
      write_high_water = Server.Dispatcher.default_config.write_high_water }
  in
  let sh = Server.Session.shared ~durable:true () in
  let disp = Server.Dispatcher.create ~config:cfg sh in
  let thread = Thread.create (fun () -> Server.Dispatcher.serve disp) () in
  (disp, thread)

let repl_status_of ~port =
  let c = Server.Client.connect ~deadline_ms:1000. ~port () in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      match Server.Client.repl_status c with
      | Ok (_, durable, applied) -> (durable, applied)
      | Error e -> failwith (Server.Client.error_to_string e))

let wait_repl_applied ?(timeout = 30.) ~port lsn =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. timeout in
  let rec go () =
    let _, applied = repl_status_of ~port in
    if applied >= lsn then Some (Unix.gettimeofday () -. t0)
    else if Unix.gettimeofday () > deadline then None
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let bench_replica tiny out =
  let txns = if tiny then 60 else 400 in
  let writes = 4 in
  let reads = if tiny then 400 else 2000 in
  let pdisp, pthread = with_repl_node () in
  let pport = Server.Dispatcher.port pdisp in
  let rdisp, rthread =
    with_repl_node ~replica_of:("127.0.0.1", pport) ()
  in
  let rport = Server.Dispatcher.port rdisp in
  (* settle the subscription before measuring anything *)
  let c0 = Server.Client.connect ~port:pport () in
  (match
     ( Server.Client.insert c0 (Interval.Ivl.make 0 1),
       Server.Client.commit c0 )
   with
  | Ok _, Ok lsn -> ignore (wait_repl_applied ~port:rport lsn)
  | _ -> failwith "settle write failed");
  Server.Client.close c0;
  (* load phase: sample replica lag while a writer streams commits *)
  let lag_samples = ref [] in
  let loading = ref true in
  let sampler =
    Thread.create
      (fun () ->
        while !loading do
          (try
             let durable, applied = repl_status_of ~port:rport in
             lag_samples := max 0 (durable - applied) :: !lag_samples
           with _ -> ());
          Thread.delay 0.005
        done)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let committed = txn_writer ~port:pport ~txns ~writes ~base:1000 in
  let load_wall = Unix.gettimeofday () -. t0 in
  loading := false;
  Thread.join sampler;
  let lag_max = List.fold_left max 0 !lag_samples in
  let lag_mean =
    match !lag_samples with
    | [] -> 0.
    | l ->
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let durable_lsn, _ = repl_status_of ~port:pport in
  (* late joiner: a second replica replays the whole history *)
  let jdisp, jthread =
    with_repl_node ~replica_of:("127.0.0.1", pport) ()
  in
  let jport = Server.Dispatcher.port jdisp in
  let catchup = wait_repl_applied ~port:jport durable_lsn in
  (* read throughput: primary alone, then the same reads split across
     primary + replica *)
  let read_burst ~port n =
    let c = Server.Client.connect ~port () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        for i = 0 to n - 1 do
          let lo = 1000 + (i mod 500) in
          match Server.Client.intersect c (Interval.Ivl.make lo (lo + 20))
          with
          | Ok _ -> ()
          | Error e -> failwith (Server.Client.error_to_string e)
        done)
  in
  let t0 = Unix.gettimeofday () in
  read_burst ~port:pport reads;
  let primary_rps = float_of_int reads /. (Unix.gettimeofday () -. t0) in
  let t0 = Unix.gettimeofday () in
  let half = Thread.create (fun () -> read_burst ~port:rport (reads / 2)) ()
  in
  read_burst ~port:pport (reads - (reads / 2));
  Thread.join half;
  let scaled_rps = float_of_int reads /. (Unix.gettimeofday () -. t0) in
  (* failover: kill the primary, time the first successful read on the
     standby through the failover client *)
  let f =
    Server.Failover.create ~deadline_ms:500.
      ~endpoints:[ ("127.0.0.1", pport); ("127.0.0.1", rport) ]
      ()
  in
  (match Server.Failover.intersect f (Interval.Ivl.make 1000 1020) with
  | Ok _ -> ()
  | Error e -> failwith (Server.Client.error_to_string e));
  Server.Failover.note_lsn f durable_lsn;
  Server.Dispatcher.stop pdisp;
  Thread.join pthread;
  let t0 = Unix.gettimeofday () in
  let failover_deadline = t0 +. 10. in
  let rec first_read () =
    match Server.Failover.intersect f (Interval.Ivl.make 1000 1020) with
    | Ok _ -> Some (Unix.gettimeofday () -. t0)
    | Error _ when Unix.gettimeofday () < failover_deadline ->
        Thread.delay 0.01;
        first_read ()
    | Error _ -> None
  in
  let failover = first_read () in
  Server.Failover.close f;
  Server.Dispatcher.stop rdisp;
  Thread.join rthread;
  Server.Dispatcher.stop jdisp;
  Thread.join jthread;
  let ms = function Some s -> s *. 1000. | None -> -1. in
  Printf.printf "bench-replica: %d txns of %d writes (%.0f txn/s load)\n"
    committed writes
    (float_of_int committed /. load_wall);
  Printf.printf "  steady-state lag   max %d bytes, mean %.0f bytes\n"
    lag_max lag_mean;
  Printf.printf "  late-join catchup  %.1f ms to lsn %d (%s)\n"
    (ms catchup) durable_lsn
    (if catchup <> None then "caught up" else "TIMED OUT");
  Printf.printf "  reads              %.0f/s primary alone, %.0f/s with \
                 one replica\n"
    primary_rps scaled_rps;
  Printf.printf "  failover           %.1f ms to first standby read (%s)\n"
    (ms failover)
    (if failover <> None then "ok" else "NEVER SUCCEEDED");
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\n  \"bench\": \"replica\",\n  \"tiny\": %b,\n  \"txns\": %d,\n\
    \  \"writes_per_txn\": %d,\n  \"durable_lsn\": %d,\n\
    \  \"steady_lag_bytes\": {\"max\": %d, \"mean\": %.1f},\n\
    \  \"late_join_catchup_ms\": %.1f,\n  \"caught_up\": %b,\n\
    \  \"reads\": {\"primary_rps\": %.1f, \"with_replica_rps\": %.1f},\n\
    \  \"failover_ms\": %.1f,\n  \"failover_ok\": %b\n}\n"
    tiny committed writes durable_lsn lag_max lag_mean (ms catchup)
    (catchup <> None) primary_rps scaled_rps (ms failover)
    (failover <> None);
  let oc = open_out out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  if catchup = None || failover = None then exit 1

let bench_replica_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ] ~doc:"Small load for CI smoke runs.")
  in
  let out =
    Arg.(value & opt string "BENCH_replica.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-replica"
       ~doc:"Replication lag, late-join catch-up, failover time, read \
             scale-out"
       ~man:
         [ `S Manpage.s_description;
           `P "Boots a durable primary with one journal-shipping replica, \
               streams a commit-heavy load while sampling the replica's \
               byte lag, starts a second replica late to time a \
               full-history catch-up, measures read throughput with the \
               reads split across primary and replica, then kills the \
               primary and times the failover client's first successful \
               standby read. Results go to stdout and \
               BENCH_replica.json; exits non-zero if catch-up or \
               failover never completes." ])
    Term.(const bench_replica $ tiny $ out)

(* ---- bench-shard: scatter-gather scale-out under head-of-line load ---- *)

type shard_load = {
  mutable sl_smalls : int;  (* small queries completed *)
  mutable sl_fats : int;  (* fat scans completed *)
  sl_pings : float list ref;  (* ping round-trip seconds *)
  mutable sl_error : string option;
}

(* Drive one topology for [window] seconds: [fat_clients] run
   back-to-back fat scans over [fat_range] (a one-shard hotspot),
   [small_clients] cycle through range-local small queries, and a
   sampler measures PING round-trips — the head-of-line probe. *)
let drive_topology ~port ~window ~fat_range ~fat_clients ~small_clients
    ~queries =
  let load =
    { sl_smalls = 0; sl_fats = 0; sl_pings = ref []; sl_error = None }
  in
  let mu = Mutex.create () in
  let note f = Mutex.lock mu; f (); Mutex.unlock mu in
  let stop = ref false in
  let fail m = note (fun () -> if load.sl_error = None then load.sl_error <- Some m) in
  let fat_thread () =
    try
      let c = Server.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let lo, hi = fat_range in
          while not !stop do
            match
              Server.Client.rpc_result c
                (Server.Protocol.Intersect { lower = lo; upper = hi })
            with
            | Ok (Server.Protocol.Rows _) ->
                note (fun () -> load.sl_fats <- load.sl_fats + 1)
            | Ok r ->
                fail ("fat scan: unexpected " ^ resp_label r)
            | Error e -> fail (Server.Client.error_to_string e)
          done)
    with Server.Client.Io_error m -> fail m
  in
  let small_thread i () =
    try
      let c = Server.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let k = Array.length queries in
          let j = ref (i * 7) in
          while not !stop do
            let q = queries.(!j mod k) in
            incr j;
            match
              Server.Client.rpc_result c
                (Server.Protocol.Intersect
                   { lower = Interval.Ivl.lower q;
                     upper = Interval.Ivl.upper q })
            with
            | Ok (Server.Protocol.Rows _) ->
                note (fun () -> load.sl_smalls <- load.sl_smalls + 1)
            | Ok r ->
                fail ("small query: unexpected " ^ resp_label r)
            | Error e -> fail (Server.Client.error_to_string e)
          done)
    with Server.Client.Io_error m -> fail m
  in
  let ping_thread () =
    try
      let c = Server.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          while not !stop do
            let t0 = Unix.gettimeofday () in
            (match Server.Client.ping c with
            | Ok () ->
                let dt = Unix.gettimeofday () -. t0 in
                note (fun () -> load.sl_pings := dt :: !(load.sl_pings))
            | Error e -> fail (Server.Client.error_to_string e));
            Thread.delay 0.005
          done)
    with Server.Client.Io_error m -> fail m
  in
  let threads =
    List.init fat_clients (fun _ -> Thread.create fat_thread ())
    @ List.init small_clients (fun i -> Thread.create (small_thread i) ())
    @ [ Thread.create ping_thread () ]
  in
  Thread.delay window;
  stop := true;
  List.iter Thread.join threads;
  load

let pings_pct pings p =
  match pings with
  | [] -> 0.
  | l -> 1000. *. Harness.Measure.percentile (Array.of_list l) p

let bench_shard tiny out =
  let kind = Workload.Distribution.D1 in
  let n = if tiny then 10_000 else 60_000 in
  let d = 2000 in
  let seed = 42 in
  let shards = 4 in
  let window = if tiny then 2.0 else 6.0 in
  let fat_clients = 2 in
  let small_clients = 4 in
  let domain_max = Workload.Distribution.domain_max in
  let data = Workload.Distribution.generate ~seed kind ~n ~d in
  let cuts = Server.Router.Map.backbone_cuts ~domain_max ~shards in
  let dummy_eps = List.init shards (fun _ -> [ ("127.0.0.1", 1) ]) in
  let geometry = Server.Router.Map.create ~cuts ~endpoints:dummy_eps in
  (* Small queries confined inside one shard's range each (fan-out 1),
     round-robin across shards; the hotspot is shard 0's whole range. *)
  let queries =
    let per = 256 in
    let batches =
      List.init shards (fun i ->
          let lo, hi = Server.Router.Map.range geometry i in
          Workload.Query_gen.queries_within ~seed:(seed + i)
            ~range:(max 0 lo, min domain_max hi)
            ~count:per ~len:64 ())
    in
    Array.init (shards * per) (fun j ->
        (List.nth batches (j mod shards)).(j / shards))
  in
  let fat_range =
    let lo, hi = Server.Router.Map.range geometry 0 in
    (max 0 lo, min domain_max hi)
  in
  Printf.printf
    "bench-shard: D1 n=%d, %d shards, %.0f s window, hotspot = shard 0 \
     [%d, %d]\n%!"
    n shards window (fst fat_range) (snd fat_range);
  (* ---- topology A: one process holds everything ---- *)
  let single =
    List.hd
      (spawn_shard_procs ~slices:[ Array.mapi (fun i x -> (i, x)) data ])
  in
  Thread.delay 0.3;
  let single_load =
    drive_topology ~port:(snd single) ~window ~fat_range ~fat_clients
      ~small_clients ~queries
  in
  stop_shard_proc single;
  (* ---- topology B: four shard processes behind a router ---- *)
  let procs =
    spawn_shard_procs
      ~slices:
        (List.init shards (fun i ->
             shard_slice data (Server.Router.Map.range geometry i)))
  in
  Thread.delay 0.3;
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:(List.map (fun (_, p) -> [ ("127.0.0.1", p) ]) procs)
  in
  let router =
    Server.Router.create
      { Server.Router.default_config with port = 0 }
      ~map
  in
  let router_thread = Thread.create (fun () -> Server.Router.serve router) () in
  let sharded_load =
    drive_topology ~port:(Server.Router.port router) ~window ~fat_range
      ~fat_clients ~small_clients ~queries
  in
  Server.Router.stop router;
  Thread.join router_thread;
  List.iter stop_shard_proc procs;
  (match (single_load.sl_error, sharded_load.sl_error) with
  | Some m, _ -> Printf.printf "  single topology error: %s\n" m
  | _, Some m -> Printf.printf "  sharded topology error: %s\n" m
  | None, None -> ());
  let qps l = float_of_int l.sl_smalls /. window in
  let single_qps = qps single_load and sharded_qps = qps sharded_load in
  let speedup = if single_qps > 0. then sharded_qps /. single_qps else 0. in
  let report label l =
    Printf.printf
      "  %-8s %6.0f small q/s  (%d fat scans)  ping p50 %.2f ms  p99 %.2f \
       ms  max %.2f ms\n"
      label (qps l) l.sl_fats
      (pings_pct !(l.sl_pings) 0.5)
      (pings_pct !(l.sl_pings) 0.99)
      (pings_pct !(l.sl_pings) 1.0)
  in
  report "single" single_load;
  report "sharded" sharded_load;
  let sharded_p99 = pings_pct !(sharded_load.sl_pings) 0.99 in
  let need = if tiny then 2.0 else 3.0 in
  let speedup_ok = speedup >= need in
  let hol_ok = sharded_p99 < 50. in
  Printf.printf
    "  speedup %.2fx under the hotspot load (need >= %.1fx)%s; sharded \
     ping p99 %.2f ms (need < 50 ms)%s\n"
    speedup need
    (if speedup_ok then "" else " FAILED")
    sharded_p99
    (if hol_ok then "" else " FAILED");
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\n  \"bench\": \"shard\",\n  \"tiny\": %b,\n  \"kind\": \"D1\",\n\
    \  \"n\": %d,\n  \"shards\": %d,\n  \"window_s\": %.1f,\n\
    \  \"single\": {\"small_qps\": %.1f, \"fat_scans\": %d,\n\
    \    \"ping_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f}},\n\
    \  \"sharded\": {\"small_qps\": %.1f, \"fat_scans\": %d,\n\
    \    \"ping_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f}},\n\
    \  \"speedup\": %.2f,\n  \"speedup_ok\": %b,\n  \"hol_ok\": %b\n}\n"
    tiny n shards window single_qps single_load.sl_fats
    (pings_pct !(single_load.sl_pings) 0.5)
    (pings_pct !(single_load.sl_pings) 0.99)
    (pings_pct !(single_load.sl_pings) 1.0)
    sharded_qps sharded_load.sl_fats
    (pings_pct !(sharded_load.sl_pings) 0.5)
    sharded_p99
    (pings_pct !(sharded_load.sl_pings) 1.0)
    speedup speedup_ok hol_ok;
  let oc = open_out out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  if not (speedup_ok && hol_ok) then exit 1

let bench_shard_cmd =
  let tiny =
    Arg.(value & flag & info [ "tiny" ] ~doc:"Small load for CI smoke runs.")
  in
  let out =
    Arg.(value & opt string "BENCH_shard.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-shard"
       ~doc:"Sharded scatter-gather throughput under a head-of-line hotspot"
       ~man:
         [ `S Manpage.s_description;
           `P "Measures the head-of-line-blocking fix: a D1 dataset is \
               served first by one process, then by four shard processes \
               (split along the RI-tree backbone) behind the \
               scatter-gather router. Both topologies take the same \
               load — clients hammering fat scans over shard 0's whole \
               range while others run range-local small queries and a \
               sampler measures PING round-trips. On the single process \
               every small query and ping queues behind the fat scans; \
               behind the router only shard 0 does. Reports small-query \
               throughput, the speedup, and ping percentiles to stdout \
               and BENCH_shard.json; exits non-zero when the speedup or \
               the sharded ping p99 misses the acceptance bar." ])
    Term.(const bench_shard $ tiny $ out)

(* ---- bench-connections: connection scaling on the reactor core ---- *)

(* The payoff measurement for the poll-backed event core: one daemon,
   a sweep of concurrent live connections, and three numbers per level
   — ping throughput, ping p99, and the server's OS-thread count read
   from /proc/<pid>/status. The thread count must stay flat across the
   sweep (the reactor multiplexes every socket; nothing spawns per
   connection), and every opened connection must actually be served. *)

let proc_threads pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line ->
              if String.length line > 8 && String.sub line 0 8 = "Threads:"
              then
                int_of_string
                  (String.trim
                     (String.sub line 8 (String.length line - 8)))
              else go ()
          | exception End_of_file -> 0
        in
        go ())
  with Sys_error _ -> 0

(* Soft fd limit of this process (the connecting side holds one fd per
   live connection, same as the daemon). *)
let fd_soft_limit () =
  try
    let ic = open_in "/proc/self/limits" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line ->
              if String.length line > 14
                 && String.sub line 0 14 = "Max open files"
              then
                Scanf.sscanf
                  (String.sub line 14 (String.length line - 14))
                  " %d" (fun n -> n)
              else go ()
          | exception End_of_file -> max_int
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ -> max_int

let spawn_dispatcher_proc ~config ~preload =
  let sh = Server.Session.shared () in
  if Array.length preload > 0 then Server.Session.preload sh preload;
  let disp = Server.Dispatcher.create ~config sh in
  let port = Server.Dispatcher.port disp in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Server.Dispatcher.stop disp));
      Sys.set_signal Sys.sigint Sys.Signal_ignore;
      Server.Dispatcher.serve disp;
      Unix._exit 0
  | pid ->
      Server.Dispatcher.release_listener disp;
      (pid, port)

let spawn_router_proc ~config ~map =
  let router = Server.Router.create config ~map in
  let port = Server.Router.port router in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Server.Router.stop router));
      Sys.set_signal Sys.sigint Sys.Signal_ignore;
      Server.Router.serve router;
      Unix._exit 0
  | pid -> (pid, port)

type conn_level = {
  cl_conns : int;  (* requested *)
  cl_connected : int;
  cl_served : int;  (* connections whose ping round-tripped *)
  cl_qps : float;
  cl_p50_ms : float;
  cl_p99_ms : float;
  cl_threads : int;
}

(* Open [n] connections, ping every one (served check), then measure a
   burst of round-robin pings across them for throughput/latency, and
   read the daemon's thread count while all [n] are live. *)
let drive_level ~pid ~port n =
  let conns =
    Array.init n (fun _ ->
        try Some (Server.Client.connect ~deadline_ms:15_000. ~port ())
        with Server.Client.Io_error _ | Server.Client.Timed_out _ -> None)
  in
  let connected = Array.fold_left
      (fun a c -> if c = None then a else a + 1) 0 conns in
  let served = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some c -> (
          match Server.Client.ping c with Ok () -> incr served | Error _ -> ()))
    conns;
  let live =
    Array.of_list
      (Array.to_list conns |> List.filter_map Fun.id)
  in
  let shots = if Array.length live = 0 then 0 else min 20_000 (4 * n) in
  let lats = Array.make (max shots 1) 0. in
  let t0 = Unix.gettimeofday () in
  for i = 0 to shots - 1 do
    let c = live.(i mod Array.length live) in
    let s = Unix.gettimeofday () in
    (match Server.Client.ping c with Ok () -> () | Error _ -> ());
    lats.(i) <- Unix.gettimeofday () -. s
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let threads = proc_threads pid in
  Array.iter (function Some c -> Server.Client.close c | None -> ()) conns;
  { cl_conns = n;
    cl_connected = connected;
    cl_served = !served;
    cl_qps = (if elapsed > 0. then float_of_int shots /. elapsed else 0.);
    cl_p50_ms = 1000. *. Harness.Measure.percentile lats 0.5;
    cl_p99_ms = 1000. *. Harness.Measure.percentile lats 0.99;
    cl_threads = threads }

let bench_connections tiny out =
  let fd_limit = fd_soft_limit () in
  let headroom = 192 in
  let levels =
    let all = if tiny then [ 2048 ] else [ 100; 500; 1000; 2000; 5000 ] in
    List.filter (fun n -> n + headroom <= fd_limit) all
  in
  if levels = [] then begin
    Printf.eprintf
      "bench-connections: fd soft limit %d too low for any sweep level \
       (raise it with `ulimit -n`)\n"
      fd_limit;
    exit 1
  end;
  let top = List.fold_left max 0 levels in
  let data = Workload.Distribution.generate ~seed:42 Workload.Distribution.D1 ~n:2000 ~d:2000 in
  let config =
    { Server.Dispatcher.default_config with
      port = 0; max_sessions = top + 64; idle_timeout = 0. }
  in
  let pid, port = spawn_dispatcher_proc ~config ~preload:data in
  (* wait for a forked daemon to start accepting *)
  let rec await_up ?(tries = 50) port =
    match Server.Client.connect ~deadline_ms:2000. ~port () with
    | c -> Server.Client.close c
    | exception (Server.Client.Io_error _ | Server.Client.Timed_out _)
      when tries > 0 ->
        Thread.delay 0.1;
        await_up ~tries:(tries - 1) port
  in
  await_up port;
  Printf.printf "bench-connections: sweep %s (fd limit %d)\n%!"
    (String.concat " " (List.map string_of_int levels))
    (if fd_limit = max_int then -1 else fd_limit);
  let results = List.map (fun n ->
      let r = drive_level ~pid ~port n in
      Printf.printf
        "  %5d conns: %5d connected, %5d served, %7.0f ping/s, p50 %.3f \
         ms, p99 %.3f ms, %d server threads\n%!"
        r.cl_conns r.cl_connected r.cl_served r.cl_qps r.cl_p50_ms
        r.cl_p99_ms r.cl_threads;
      r)
      levels
  in
  stop_shard_proc (pid, port);
  (* ---- router phase: thread flatness under many idle clients ---- *)
  let domain_max = Workload.Distribution.domain_max in
  let cuts = Server.Router.Map.backbone_cuts ~domain_max ~shards:2 in
  let geometry =
    Server.Router.Map.create ~cuts
      ~endpoints:[ [ ("127.0.0.1", 1) ]; [ ("127.0.0.1", 1) ] ]
  in
  let shard_procs =
    spawn_shard_procs
      ~slices:
        (List.init 2 (fun i ->
             shard_slice data (Server.Router.Map.range geometry i)))
  in
  Thread.delay 0.3;
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:(List.map (fun (_, p) -> [ ("127.0.0.1", p) ]) shard_procs)
  in
  let router_levels =
    let lo = 100 and hi = min top 2000 in
    if tiny then [ lo; hi ] else [ lo; 1000; hi ]
  in
  let rtop = List.fold_left max 0 router_levels in
  let r_pid, r_port =
    spawn_router_proc
      ~config:
        { Server.Router.default_config with
          port = 0; max_sessions = rtop + 64 }
      ~map
  in
  await_up r_port;
  let router_results =
    List.map
      (fun n ->
        let r = drive_level ~pid:r_pid ~port:r_port n in
        (* a scatter across both shards must also work under full load *)
        let scatter_ok =
          let c = Server.Client.connect ~deadline_ms:15_000. ~port:r_port () in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              match
                Server.Client.rpc_result c
                  (Server.Protocol.Intersect
                     { lower = 0; upper = domain_max })
              with
              | Ok (Server.Protocol.Rows _) -> true
              | _ -> false)
        in
        Printf.printf
          "  router %5d conns: %5d served, %7.0f ping/s, p99 %.3f ms, %d \
           router threads, scatter %s\n%!"
          r.cl_conns r.cl_served r.cl_qps r.cl_p99_ms r.cl_threads
          (if scatter_ok then "ok" else "FAILED");
        (r, scatter_ok))
      router_levels
  in
  stop_shard_proc (r_pid, r_port);
  List.iter stop_shard_proc shard_procs;
  (* ---- acceptance ---- *)
  let served_ok =
    List.for_all (fun r -> r.cl_connected = r.cl_conns && r.cl_served = r.cl_conns)
      results
  in
  let top_level_ok = top >= 2000 in
  let threads_of rs = List.map (fun r -> r.cl_threads) rs in
  let flat ts =
    match ts with
    | [] -> true
    | t0 :: _ ->
        List.for_all (fun t -> abs (t - t0) <= 1) ts
        && List.for_all (fun t -> t > 0 && t <= 16) ts
  in
  let disp_flat = flat (threads_of results) in
  let router_flat = flat (threads_of (List.map fst router_results)) in
  let router_served_ok =
    List.for_all
      (fun (r, sc) -> r.cl_served = r.cl_conns && sc)
      router_results
  in
  Printf.printf
    "  served %s; >=2000-conn level %s; dispatcher threads flat %s; \
     router threads flat %s; router served %s\n"
    (if served_ok then "ok" else "FAILED")
    (if top_level_ok then "ok" else "MISSING")
    (if disp_flat then "ok" else "FAILED")
    (if router_flat then "ok" else "FAILED")
    (if router_served_ok then "ok" else "FAILED");
  let b = Buffer.create 1024 in
  let level_json r =
    Printf.sprintf
      "    {\"conns\": %d, \"connected\": %d, \"served\": %d, \"qps\": \
       %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"threads\": %d}"
      r.cl_conns r.cl_connected r.cl_served r.cl_qps r.cl_p50_ms r.cl_p99_ms
      r.cl_threads
  in
  Printf.bprintf b
    "{\n  \"bench\": \"connections\",\n  \"tiny\": %b,\n\
    \  \"dispatcher\": [\n%s\n  ],\n  \"router\": [\n%s\n  ],\n\
    \  \"served_ok\": %b,\n  \"threads_flat\": %b,\n\
    \  \"router_threads_flat\": %b,\n  \"router_served_ok\": %b\n}\n"
    tiny
    (String.concat ",\n" (List.map level_json results))
    (String.concat ",\n" (List.map (fun (r, _) -> level_json r) router_results))
    served_ok disp_flat router_flat router_served_ok;
  let oc = open_out out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  if not (served_ok && top_level_ok && disp_flat && router_flat
          && router_served_ok)
  then exit 1

let bench_connections_cmd =
  let tiny =
    Arg.(value & flag
         & info [ "tiny" ]
             ~doc:"CI smoke: one 2048-connection level instead of the \
                   full sweep.")
  in
  let out =
    Arg.(value & opt string "BENCH_reactor.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the JSON results.")
  in
  Cmd.v
    (Cmd.info "bench-connections"
       ~doc:"Connection scaling of the poll-backed event core"
       ~man:
         [ `S Manpage.s_description;
           `P "Sweeps concurrent live connections (100 to 5000) against \
               one forked rikitd daemon and reports ping throughput, ping \
               p99 and the daemon's OS-thread count at each level, then \
               repeats the thread-count check against the scatter-gather \
               router over two shard processes. Asserts every opened \
               connection is served and the server thread counts stay \
               flat across the sweep — the reactor multiplexes every \
               socket on one thread, so nothing scales with connection \
               count. Results go to stdout and BENCH_reactor.json; exits \
               non-zero when an assertion fails. Needs an fd soft limit \
               comfortably above the largest level (`ulimit -n`)." ])
    Term.(const bench_connections $ tiny $ out)

let () =
  let info =
    Cmd.info "rikit" ~version:"1.0.0"
      ~doc:"Relational Interval Tree toolkit (VLDB 2000 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info
       [ generate_cmd; explain_cmd; compare_cmd; topo_cmd; join_cmd; sql_cmd;
         bench_serve_cmd; bench_storage_cmd; bench_explain_cmd;
         bench_plan_cmd; bench_memindex_cmd; bench_txn_cmd; scrub_cmd;
         crash_schedule_cmd; chaos_net_cmd; bench_replica_cmd;
         bench_shard_cmd; bench_connections_cmd ]))
