(* The end-to-end interval-server benchmark.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload's servers up [setups] times, half before and half
   after the live run (setup_s is the median), drives the last set-up
   before the run with the closed-loop clients for S seconds, checks
   answers against brute force, and prints every
   metric by name with its unit. The last stdout line is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (which adds the
   traced in-process replay). Exits 1 on a wrong answer, a failed
   request, a broken workload-size assumption, or requests that are not
   a pure function of the seed (two generations of the inputs differ,
   or a client sent other frames than its seed's stream). *)

module P = Server.Protocol

let usage () =
  prerr_endline
    "usage: e2e.exe --workload mixed-disk|hot-point|routed-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> seed := s; go rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s; go rest
        | _ -> usage ())
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match Spec.find !workload with
  | Some spec -> (spec, !seed, !seconds, !trace)
  | None -> usage ()

let slices = 10

let stat_io (live : Live.result) roles =
  let io (s : Cluster.scrape) =
    List.fold_left
      (fun a (role, st) ->
        if List.mem role roles then
          a
          + List.fold_left
              (fun a op ->
                match Cluster.op_stat st op with
                | Some o -> a + o.P.total_io
                | None -> a)
              0 Layers.read_ops
        else a)
      0 s.Cluster.stats
  in
  io live.after - io live.before

let device_reads (live : Live.result) roles =
  let r (s : Cluster.scrape) =
    List.fold_left
      (fun a (role, (st : P.stats)) -> if List.mem role roles then a + st.io_reads else a)
      0 s.Cluster.stats
  in
  r live.after - r live.before

let () =
  let spec, seed, seconds, trace = parse_args () in
  let inp = Spec.inputs spec ~seed in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* The op sequences and the answer-check set are a pure function of
     the seed: generate every input twice from scratch and compare. The
     seed digest is printed, so two runs of one seed can be compared. *)
  let k = spec.warm_ops in
  let digests =
    List.init spec.clients (fun client -> Spec.client_digest spec inp ~seed ~client ~k)
  in
  let digest = Spec.seed_digest spec inp ~seed ~k in
  if digest <> Spec.seed_digest spec (Spec.inputs spec ~seed) ~seed ~k then
    fail "inputs differ between two generations of seed %d" seed;
  Printf.printf "perfbench %s: seed %d, %.0f s window, clients %d, seed digest %s\n%!"
    spec.name seed seconds spec.clients digest;
  (* ---- set-up, several times; the last set before the window serves
     the run ---- *)
  let setups = ref [] in
  let cluster = ref None in
  let stop_cluster () = Option.iter Cluster.stop !cluster; cluster := None in
  at_exit stop_cluster;
  let set_up () =
    stop_cluster ();
    let c = Cluster.spawn spec inp in
    cluster := Some c;
    setups := c.setup_s :: !setups
  in
  (* setup_s is an end-to-end metric only: a traced run sets up once.
     The set-ups are split around the live run, so that their median
     samples the host at both ends of the window, not one moment. *)
  let after_window = if trace then 0 else spec.setups / 2 in
  for _ = 1 to (if trace then 1 else spec.setups - after_window) do
    set_up ()
  done;
  let cl = Option.get !cluster in
  (* ---- workload-size assumptions, measured ---- *)
  let primaries = List.map (fun p -> p.Cluster.role) (Cluster.primaries cl) in
  let pages = List.fold_left (fun a p -> a +. Cluster.info p "relation_pages") 0. (Cluster.primaries cl) in
  let pool_pages =
    match Cluster.primaries cl with p :: _ -> Cluster.info p "pool_pages" | [] -> 0.
  in
  Printf.printf "sizes: %d intervals preloaded, relation+index pages %.0f, pool %.0f pages (%.1fx)\n%!"
    spec.n pages pool_pages (Util.ratio pages pool_pages);
  if spec.sizes = Spec.Exceeds_pool && pages < 10. *. pool_pages then
    fail "size assumption broken: %.0f relation+index pages < 10 x %.0f pool pages"
      pages pool_pages;
  (* ---- live run ---- *)
  let live =
    Live.run spec inp ~seed ~seconds ~port:cl.endpoint ~scrape:(fun () -> Cluster.scrape cl)
  in
  let rss = Cluster.rss_kb cl in
  let acked = List.concat_map (fun c -> c.Live.acked) live.clients in
  let check = Check.run spec inp ~seed ~port:cl.endpoint ~acked in
  stop_cluster ();
  for _ = 1 to after_window do
    set_up ()
  done;
  stop_cluster ();
  let setup_s = Util.median (Array.of_list !setups) in
  Printf.printf "set-up: %s s (median %.3f s)\n%!"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !setups)) setup_s;
  List.iter
    (fun (cl : Live.client) ->
      if cl.sent_digest <> List.nth digests cl.id then
        fail "client %d sent other frames than its seed's stream" cl.id;
      Option.iter (fun m -> Printf.printf "client %d first error: %s\n" cl.id m) cl.first_error)
    live.clients;
  List.iter (fun n -> Printf.printf "check: %s\n" n) check.notes;
  if check.mismatches > 0 then fail "%d of %d checked answers wrong" check.mismatches check.checked;
  let failed_ops = List.fold_left (fun a c -> a + c.Live.failed) 0 live.clients in
  if failed_ops > 0 then fail "%d requests failed" failed_ops;
  let window_reads = device_reads live primaries in
  let reads = List.concat_map (fun c -> c.Live.reads) live.clients in
  let nreads = List.length reads in
  if spec.sizes = Spec.Fits_pool then begin
    Printf.printf "sizes: %d physical reads over %d window queries\n" window_reads nreads;
    if window_reads <> 0 then
      fail "size assumption broken: %d physical reads in the window (want 0)" window_reads
  end;
  (* ---- end-to-end metrics ---- *)
  let txn_ms = Array.of_list (List.concat_map (fun c -> c.Live.txns) live.clients) in
  let attempted = List.fold_left (fun a c -> a + c.Live.attempted) 0 live.clients in
  let ends = List.concat_map (fun c -> c.Live.ends) live.clients in
  let completed = List.length ends in
  (* The window is cut into equal slices. Outside load on a shared host
     only ever slows a slice, so the gated figures come from the fast
     end of the slices: the highest slice throughput, and the lower
     quartile of the slices' p50s (not the lowest: a slice's p50 also
     moves with the queries it drew, which the lowest would pick up). A
     change to the program moves every slice, and a stall that recurs
     in nearly every slice as well; rarer stalls show in the printed tail
     percentiles, which are medians over slices. p99
     uses fewer, longer slices: each must hold >= 1000 reads, so ten
     samples lie beyond its p99. The tail percentiles stay out of the
     JSON line: on a shared host they moved by more than the largest
     bound between runs. *)
  let sliced n =
    let slice_s = live.elapsed /. float_of_int n in
    let slice_of t = max 0 (min (n - 1) (int_of_float ((t -. live.t_start) /. slice_s))) in
    let per_slice f tagged =
      Array.init n (fun i ->
          f (List.filter_map (fun (t, x) -> if slice_of t = i then Some x else None) tagged))
    in
    (slice_s, per_slice)
  in
  let slice_s, per_slice = sliced slices in
  let slice_ops =
    per_slice (fun l -> float_of_int (List.length l) /. slice_s) (List.map (fun t -> (t, 0.)) ends)
  in
  let read_at = List.map (fun (_, ms, t) -> (t, ms)) reads in
  let slice_p50 = per_slice (fun l -> Util.pct_list l 0.5) read_at in
  let slice_p90 = per_slice (fun l -> Util.pct_list l 0.9) read_at in
  let _, per_long = sliced (max 1 (min slices (nreads / 1000))) in
  let slice_p99 = per_long (fun l -> Util.pct_list l 0.99) read_at in
  let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") a)) in
  Printf.printf "slices: ops/s %s; query p50 ms %s; p90 ms %s; p99 ms %s\n" (show slice_ops)
    (show slice_p50) (show slice_p90) (show slice_p99);
  let ops_per_s = Array.fold_left Float.max 0. slice_ops in
  let query_p50 =
    (* a slice without reads has no p50 *)
    Util.pct_list (List.filter (fun x -> x > 0.) (Array.to_list slice_p50)) 0.25
  in
  let query_p90 = Util.median slice_p90 in
  let query_p99 = Util.median slice_p99 in
  let txn_p50 = Util.percentile txn_ms 0.5 and txn_p95 = Util.percentile txn_ms 0.95 in
  let io_per_query = Util.ratio_i (stat_io live primaries) nreads in
  let rss_mb = float_of_int (List.fold_left (fun a (_, kb) -> a + kb) 0 rss) /. 1024. in
  let total_attempted = attempted + check.checked in
  let total_failed = failed_ops + check.mismatches in
  let error_rate = Util.ratio_i total_failed total_attempted in
  Printf.printf "end-to-end (%s, %.2f s window):\n" spec.name live.elapsed;
  Printf.printf "  setup_s        %10.3f s   (median of %d set-ups)\n" setup_s
    (List.length !setups);
  Printf.printf "  ops_per_s      %10.1f 1/s (%d ops)\n" ops_per_s completed;
  Printf.printf "  query_p50_ms   %10.3f ms  (%d samples)\n" query_p50 nreads;
  Printf.printf "  query_p90_ms   %10.3f ms  (%d samples)\n" query_p90 nreads;
  Printf.printf "  query_p99_ms   %10.3f ms  (%d samples)\n" query_p99 nreads;
  if Array.length txn_ms > 0 then begin
    Printf.printf "  txn_p50_ms     %10.3f ms  (%d samples)\n" txn_p50 (Array.length txn_ms);
    Printf.printf "  txn_p95_ms     %10.3f ms  (%d samples)\n" txn_p95 (Array.length txn_ms)
  end
  else print_string "  txn_p50_ms, txn_p95_ms: absent (read-only workload)\n";
  Printf.printf "  error_rate     %10.4f     (%d of %d ops and checks)\n" error_rate
    total_failed total_attempted;
  Printf.printf "  io_per_query   %10.2f blocks (physical, charged to read ops)\n" io_per_query;
  Printf.printf "  server_rss_mb  %10.1f MB  (%s)\n" rss_mb
    (String.concat ", " (List.map (fun (r, kb) -> Printf.sprintf "%s %d kB" r kb) rss));
  Printf.printf "  answers        %d checked, %d wrong\n%!" check.checked check.mismatches;
  let metrics =
    if not trace then
      [ ("setup_s", setup_s, "s"); ("ops_per_s", ops_per_s, "1/s");
        ("query_p50_ms", query_p50, "ms");
        ("server_rss_mb", rss_mb, "MB") ]
    else
      Layers.metrics ~spec ~cluster:cl ~live ~rss ~primaries
        ~query_p90 ~query_p99 ~txn_p50 ~txn_p95 ~io_per_query ~error_rate ~window_reads
        ~replay:(Replay.run spec inp ~seed)
  in
  if trace then
    List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.4f %s\n" n v u) metrics;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct total_attempted total_failed
    (String.concat ", " (List.map Util.json_metric metrics));
  exit (if correct then 0 else 1)
