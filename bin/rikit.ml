(* rikit — operator and correctness tools for the RI-tree reproduction.

   Subcommands:
     generate        print a sample of a Table-1 distribution (optionally CSV)
     explain         show the backbone node lists and plan for a query
     compare         build every access method on a dataset and compare
                     physical I/O and response time for a query batch
     topo, join      Allen-relation queries and intersection joins
     sql             run a SQL script through the engine
     bench-serve     drive a running rikitd with concurrent clients
     scrub           checksum scrub and repair from journal images
     crash-schedule  exhaustive crash-point recovery check
     chaos-net       network fault sweeps, replicated or routed

   The benchmarks that record BENCH_*.json files live in bench/main.exe. *)

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
  (* the chooser's candidates, priced by the estimator printed above *)
  let cands =
    Exec.Planner.candidates ~stats ~proj:Exec.Planner.Triples tree q
  in
  let chosen, _, _ = Exec.Planner.cheapest cands in
  Printf.printf "chosen access path: %s  (est io: %s)\n"
    (Exec.Planner.path_to_string chosen)
    (String.concat ", "
       (List.map
          (fun (p, _, io) ->
            Printf.sprintf "%s %.0f" (Exec.Planner.path_to_string p) io)
          cands));
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
  let hits = Exec.Planner.allen_matches tree rel q in
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
  run "index nested loop" (fun () -> Exec.Join.index_nested_ids left right);
  run "plane sweep" (fun () -> Exec.Join.sweep_ids left right)

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
           (* the last clients get empty slices when clients do not
              divide the batch *)
           let lo = min queries_total (i * per_client) in
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

(* ---- sql ---- *)

(* A bad statement is the script's fault, not the tool's: one line on
   stderr and exit 1, not an uncaught-exception dump. *)
let sql_error msg =
  Printf.eprintf "rikit sql: %s\n" msg;
  exit 1

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
  (* Each result is printed (and flushed) before the next statement
     runs, so a failing statement still leaves the earlier ones'
     output ahead of its error. *)
  let print = function
    | Sqlfront.Engine.Done msg -> Printf.printf "%s\n%!" msg
    | Sqlfront.Engine.Rows { columns; rows } ->
        Printf.printf "%s\n" (String.concat " | " columns);
        List.iter
          (fun r ->
            Printf.printf "%s\n"
              (String.concat " | " (Array.to_list (Array.map string_of_int r))))
          rows;
        flush stdout
  in
  try Sqlfront.Engine.exec_script session src print with
  | Sqlfront.Engine.Error m -> sql_error m
  | Sqlfront.Parser.Error m -> sql_error ("parse error: " ^ m)
  | Sqlfront.Lexer.Error (m, pos) ->
      sql_error (Printf.sprintf "lex error at %d: %s" pos m)

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
  let slice i = Testbed.slice data (Server.Router.Map.range geometry i) in
  let s0, s1 =
    match Testbed.fork [ slice 0; slice 1 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Thread.delay 0.3;
  (* frames 0-2 pass through; the 4th shard-0 request hits the fault *)
  let deadline_ms = 300. in
  let partition_s = 1.5 in
  let proxy =
    Harness.Netchaos.create
      ~target:("127.0.0.1", s0.Testbed.port)
      ~schedule:[ (3, Harness.Netchaos.Partition partition_s) ]
      ()
  in
  let proxy_thread = Thread.create (fun () -> Harness.Netchaos.run proxy) () in
  let map =
    Server.Router.Map.create ~cuts
      ~endpoints:
        [ [ ("127.0.0.1", Harness.Netchaos.port proxy) ];
          [ ("127.0.0.1", s1.Testbed.port) ] ]
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
    | Ok r -> Testbed.describe r
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
  Testbed.kill ~signal:Sys.sigkill s0;
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
  Testbed.kill s1;
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

let () =
  let info =
    Cmd.info "rikit" ~version:"1.0.0"
      ~doc:"Relational Interval Tree toolkit (VLDB 2000 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info
       [ generate_cmd; explain_cmd; compare_cmd; topo_cmd; join_cmd; sql_cmd;
         bench_serve_cmd; scrub_cmd; crash_schedule_cmd; chaos_net_cmd ]))
