(* rikitd — the RI-tree interval-query daemon.

   Serves the wire protocol of Server.Protocol on a TCP port: SQL
   statements and typed interval operations against one shared database
   preloaded with a Table-1 distribution. Single-process poll(2) event
   loop with admission control; Ctrl-C (or SIGTERM) shuts down gracefully —
   a staged group commit is forced, the buffer pool is flushed (a durable
   catalog is checkpointed), and the stats dump is printed.

   With --router it holds no data and fans each query out to the
   --shard processes instead, on one thread as well: every request
   that talks to a shard runs as a fiber of that same event loop. *)

open Cmdliner

(* Addresses are numeric: there is no name resolution, so a host name
   is refused here rather than by every later connect or bind. *)
let numeric_host s =
  match Unix.inet_addr_of_string s with
  | _ -> Ok s
  | exception Failure _ ->
      Error (`Msg (Printf.sprintf "bad host %S: not a numeric address" s))

let host_conv = Arg.conv (numeric_host, Format.pp_print_string)

let parse_hostport s =
  let bad () = Error (`Msg (Printf.sprintf "bad HOST:PORT %S" s)) in
  match String.rindex_opt s ':' with
  | None -> bad ()
  | Some i -> (
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 ->
          Result.map (fun h -> (h, p)) (numeric_host (String.sub s 0 i))
      | _ -> bad ())

let kind_conv =
  let parse s =
    match Workload.Distribution.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown distribution %S" s))
  in
  Arg.conv (parse, fun ppf k ->
      Format.pp_print_string ppf (Workload.Distribution.kind_to_string k))

(* Router mode: no local database at all — fan queries out to the
   shard processes listed with --shard and merge the answers. *)
let serve_router host port max_sessions metrics_port shards domain_max
    shard_deadline_ms =
  if shards = [] then failwith "--router needs at least one --shard";
  if domain_max < 1 then failwith "--domain-max must be >= 1";
  if shard_deadline_ms <= 0. then failwith "--shard-deadline must be > 0";
  let cuts =
    Server.Router.Map.backbone_cuts ~domain_max ~shards:(List.length shards)
  in
  (* Nearest-backbone-multiple cuts can collide when there are very many
     shards over a small domain; the surviving cuts define the map, so
     trailing endpoint lists fold into the last shard. *)
  let shards =
    let keep = List.length cuts + 1 in
    List.filteri (fun i _ -> i < keep) shards
  in
  let map = Server.Router.Map.create ~cuts ~endpoints:shards in
  let config =
    { Server.Router.host; port; max_sessions;
      shard_deadline_ms; metrics_port }
  in
  let router =
    try Server.Router.create config ~map
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "rikitd: cannot listen on %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1
  in
  let stop _ = Server.Router.stop router in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf
    "rikitd router listening on %s:%d (protocol v%d, %d shards, max %d \
     sessions)\n%!"
    host
    (Server.Router.port router)
    Server.Protocol.version
    (Server.Router.Map.shards map)
    max_sessions;
  List.iteri
    (fun i eps ->
      let lo, hi = Server.Router.Map.range map i in
      Printf.printf "  shard %d: [%s, %s] -> %s\n%!" i
        (if lo = min_int then "-inf" else string_of_int lo)
        (if hi = max_int then "+inf" else string_of_int hi)
        (String.concat ","
           (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) eps)))
    shards;
  if metrics_port <> None then
    Printf.printf "metrics on http://%s:%d/metrics\n%!" host
      (Server.Router.metrics_port router);
  Server.Router.serve router;
  print_newline ();
  print_string
    (Server.Server_stats.dump
       (Server.Router.stats router)
       ~now:(Unix.gettimeofday ())
       ~io:{ Storage.Block_device.Stats.reads = 0; writes = 0 });
  print_string "shutdown complete: shard legs closed\n"

let serve host port kind n d seed max_sessions durable group_commit_ms idle_timeout metrics_port slow_query_ms hot_tier_mb
    replica_of router shards domain_max shard_deadline_ms =
  if router then
    serve_router host port max_sessions metrics_port shards domain_max
      shard_deadline_ms
  else if shards <> [] then
    failwith "--shard is only meaningful with --router"
  else begin
  if group_commit_ms < 0. then failwith "--group-commit must be >= 0";
  if idle_timeout < 0. then failwith "--idle-timeout must be >= 0";
  if slow_query_ms < 0. then failwith "--slow-query-ms must be >= 0";
  if hot_tier_mb < 0 then failwith "--hot-tier must be >= 0";
  (* A replica is meaningless without the journal: implied --durable. *)
  let durable = durable || replica_of <> None in
  let n = if replica_of <> None then 0 else n in
  let config =
    { Server.Dispatcher.host; port; max_sessions;
      group_commit = group_commit_ms /. 1000.; idle_timeout; metrics_port;
      slow_query_ms; replica_of;
      write_high_water = Server.Dispatcher.default_config.write_high_water }
  in
  let sh = Server.Session.shared ~durable ~hot_tier_mb () in
  if n > 0 then begin
    let data = Workload.Distribution.generate ~seed kind ~n ~d in
    Server.Session.preload sh data;
    Printf.printf "loaded %d %s(d=%d) intervals into %S\n%!" n
      (Workload.Distribution.kind_to_string kind)
      d
      (Ritree.Ri_tree.name (Server.Session.tree sh))
  end;
  let disp =
    try Server.Dispatcher.create ~config sh
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "rikitd: cannot listen on %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1
  in
  let stop _ = Server.Dispatcher.stop disp in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf
    "rikitd listening on %s:%d (protocol v%d, max %d sessions%s%s%s)\n%!"
    host
    (Server.Dispatcher.port disp)
    Server.Protocol.version max_sessions
    (if durable then ", durable" else "")
    (if group_commit_ms > 0. then
       Printf.sprintf ", group commit %.1f ms" group_commit_ms
     else "")
    (if idle_timeout > 0. then
       Printf.sprintf ", idle timeout %.0f s" idle_timeout
     else "");
  if hot_tier_mb > 0 then
    Printf.printf "hot tier: %d MB in-memory HINT budget\n%!" hot_tier_mb;
  if metrics_port <> None then
    Printf.printf "metrics on http://%s:%d/metrics\n%!" host
      (Server.Dispatcher.metrics_port disp);
  if slow_query_ms > 0. then
    Printf.printf "slow-query log at %.1f ms (tracing enabled)\n%!"
      slow_query_ms;
  (match replica_of with
  | Some (h, p) ->
      Printf.printf "replica of %s:%d (read-only; tailing journal)\n%!" h p
  | None -> ());
  Server.Dispatcher.serve disp;
  let io =
    Storage.Block_device.Stats.get
      (Relation.Catalog.device (Server.Session.catalog sh))
  in
  print_newline ();
  print_string
    (Server.Server_stats.dump
       (Server.Dispatcher.stats disp)
       ~now:(Unix.gettimeofday ()) ~io);
  Printf.printf "shutdown complete: buffer pool flushed%s\n"
    (if durable then ", journal checkpointed" else "")
  end

let cmd =
  let host =
    Arg.(value & opt host_conv "127.0.0.1"
         & info [ "host" ] ~doc:"Bind address (numeric).")
  in
  let port =
    Arg.(value & opt int 7468
         & info [ "p"; "port" ] ~doc:"TCP port (0 picks an ephemeral one).")
  in
  let kind =
    Arg.(value & opt kind_conv Workload.Distribution.D1
         & info [ "k"; "kind" ] ~doc:"Distribution of the preloaded data.")
  in
  let n =
    Arg.(value & opt int 10_000
         & info [ "n" ] ~doc:"Intervals to preload (0 starts empty).")
  in
  let d =
    Arg.(value & opt int 2000 & info [ "d" ] ~doc:"Duration parameter.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let max_sessions =
    Arg.(value & opt int 64
         & info [ "max-sessions" ]
             ~doc:"Connections admitted concurrently; beyond this a \
                   connection is answered Overloaded and closed.")
  in
  let durable =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"Enable the write-ahead journal (and ROLLBACK support).")
  in
  let group_commit =
    Arg.(value & opt float 0.
         & info [ "group-commit" ] ~docv:"MS"
             ~doc:"Group-commit window in milliseconds: COMMITs arriving \
                   within the window share one commit marker and one log \
                   force, and are acknowledged together when it closes. \
                   0 closes the window inside each COMMIT's own request.")
  in
  let idle_timeout =
    Arg.(value & opt float 0.
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Close connections idle longer than this (a typed \
                   Goodbye frame is sent first), freeing their session \
                   slots. 0 disables reaping.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Serve a Prometheus-style text exposition over plain \
                   HTTP GET on this port (0 picks an ephemeral one). \
                   Off by default.")
  in
  let slow_query_ms =
    Arg.(value & opt float 0.
         & info [ "slow-query-ms" ] ~docv:"MS"
             ~doc:"Enable tracing and print the full trace tree of any \
                   request that takes at least this many milliseconds \
                   to stderr. 0 disables the log.")
  in
  let hot_tier =
    Arg.(value & opt int 0
         & info [ "hot-tier" ] ~docv:"MB"
             ~doc:"RAM budget for the in-memory hot tier: collections \
                   are promoted to main-memory HINT indexes (LRU-demoted \
                   to fit) and the planner serves interval queries from \
                   RAM whenever the cost model prefers it. 0 disables \
                   the tier.")
  in
  let replica_of =
    let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
    Arg.(value & opt (some (conv (parse_hostport, print))) None
         & info [ "replica-of" ] ~docv:"HOST:PORT"
             ~doc:"Run as a hot standby of the primary at HOST:PORT: \
                   subscribe to its journal stream, replay committed \
                   batches locally, and serve reads while answering \
                   mutations with a typed Read_only. Implies --durable; \
                   starts empty (all data arrives via the stream). The \
                   link is redialled automatically when the primary \
                   goes away.")
  in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Serve as a scatter-gather router over the shard \
                   processes listed with --shard instead of hosting a \
                   database: queries fan out to the shards whose ranges \
                   they overlap and the results are merged, so one fat \
                   scan saturates one shard while the rest keep \
                   answering. Requires at least one --shard.")
  in
  let shard =
    let parse s =
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | hp :: tl -> (
            match parse_hostport hp with
            | Ok e -> go (e :: acc) tl
            | Error _ as e -> e)
      in
      if parts = [] || List.exists (fun p -> p = "") parts then
        Error (`Msg (Printf.sprintf "bad endpoint list %S" s))
      else go [] parts
    in
    let print ppf eps =
      Format.pp_print_string ppf
        (String.concat ","
           (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) eps))
    in
    Arg.(value & opt_all (conv (parse, print)) []
         & info [ "shard" ] ~docv:"HOST:PORT[,HOST:PORT...]"
             ~doc:"A shard of the cluster (repeat once per shard, in \
                   range order). Each occurrence lists the endpoints of \
                   one shard — primary first, standbys after — which \
                   the router rotates through on failure. The interval \
                   domain is split into one contiguous range per shard \
                   along the RI-tree backbone.")
  in
  let domain_max =
    Arg.(value & opt int Workload.Distribution.domain_max
         & info [ "domain-max" ] ~docv:"N"
             ~doc:"Upper bound of the interval domain the router \
                   partitions among its shards (split points are \
                   backbone-aligned within [1, N]).")
  in
  let shard_deadline =
    Arg.(value & opt float 15000.
         & info [ "shard-deadline" ] ~docv:"MS"
             ~doc:"Router-mode per-RPC deadline for each shard leg, in \
                   milliseconds: a shard that stays silent this long is \
                   failed over, then reported as missing in a typed \
                   Partial response rather than hanging the query.")
  in
  Cmd.v
    (Cmd.info "rikitd" ~version:"1.0.0"
       ~doc:"Concurrent interval-query server (RI-tree, VLDB 2000)")
    Term.(const serve $ host $ port $ kind $ n $ d $ seed $ max_sessions
          $ durable $ group_commit
          $ idle_timeout $ metrics_port $ slow_query_ms $ hot_tier
          $ replica_of $ router $ shard $ domain_max $ shard_deadline)

let () = exit (Cmd.eval cmd)
