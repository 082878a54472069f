(* The servers of one workload: real rikitd dispatchers (and, for the
   routed topology, a router and a standby) forked from the benchmark
   process. Each child builds its own database after the fork, so the
   set-up cost lands in the measured set-up time, and reports its port
   and sizes back over a pipe once it listens. *)

module P = Server.Protocol

type proc = {
  role : string;  (** single, shard0, shard1, standby, router *)
  pid : int;
  port : int;
  info : (string * float) list;  (** sizes the child measured at set-up *)
}

type t = {
  procs : proc list;
  endpoint : int;  (** port clients talk to *)
  setup_s : float;  (** spawn of the first process -> first PING Ok *)
  catchup_s : float;  (** standby spawn -> caught up (routed only) *)
  rss_setup_kb : (string * int) list;  (** VmHWM right after set-up *)
}

let dispatcher_config =
  (* synchronous commit, the default 200 x 2 KB pool, in-memory device *)
  { Server.Dispatcher.default_config with port = 0; group_commit = 0. }

(* Fork a child that runs [serve_setup ()] — build state, bind, report
   info, return a serve function — and wait for its report. *)
let fork_child role (serve_setup : unit -> (string * float) list * int * (unit -> unit)) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (* the benchmark's stdout carries its result; servers stay quiet *)
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null Unix.stdout;
      Unix.close null;
      Sys.set_signal Sys.sigint Sys.Signal_ignore;
      let code =
        try
          let info, port, serve = serve_setup () in
          let line =
            String.concat " "
              (string_of_int port
              :: List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) info)
            ^ "\n"
          in
          ignore (Unix.write_substring wr line 0 (String.length line));
          Unix.close wr;
          serve ();
          0
        with e ->
          prerr_endline ("perfbench: " ^ role ^ ": " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      (pid, rd)

let await_report role (pid, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match String.split_on_char ' ' line with
  | port :: kvs when int_of_string_opt port <> None ->
      let info =
        List.map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i ->
                ( String.sub kv 0 i,
                  float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
            | None -> (kv, 0.))
          kvs
      in
      { role; pid; port = int_of_string port; info }
  | _ -> failwith (Printf.sprintf "%s server failed to start" role)

let serve_dispatcher ?replica_of ~preload () =
  let t0 = Util.now () in
  let sh = Server.Session.shared ~durable:true () in
  let rows = preload sh in
  let preload_s = Util.now () -. t0 in
  let cat = Server.Session.catalog sh in
  let pages = Ritree.Ri_tree.relation_pages (Server.Session.tree sh) in
  let pool = Storage.Buffer_pool.capacity (Relation.Catalog.pool cat) in
  let jbytes =
    match Relation.Catalog.journal_stats cat with Some (_, b) -> b | None -> 0
  in
  let disp =
    Server.Dispatcher.create
      ~config:{ dispatcher_config with replica_of }
      sh
  in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Server.Dispatcher.stop disp));
  ( [ ("rows", float_of_int rows); ("preload_s", preload_s);
      ("relation_pages", float_of_int pages); ("pool_pages", float_of_int pool);
      ("journal_bytes", float_of_int jbytes) ],
    Server.Dispatcher.port disp,
    fun () -> Server.Dispatcher.serve disp )

let serve_router ~map () =
  let r =
    Server.Router.create { Server.Router.default_config with port = 0 } ~map
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.Router.stop r));
  ([], Server.Router.port r, fun () -> Server.Router.serve r)

(* A short-lived connection for one control request. *)
let with_conn port f =
  let c = Server.Client.connect ~deadline_ms:60_000. ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let rec ping_until_ok ?(tries = 2000) port =
  let ok =
    try with_conn port (fun c -> Server.Client.ping c = Ok ())
    with Server.Client.Io_error _ | Server.Client.Timed_out _ -> false
  in
  if not ok then
    if tries = 0 then failwith "server never answered PING"
    else begin
      Unix.sleepf 0.002;
      ping_until_ok ~tries:(tries - 1) port
    end

let repl_status port =
  with_conn port (fun c ->
      match Server.Client.repl_status c with
      | Ok (_, durable, applied) -> (durable, applied)
      | Error e -> failwith (Server.Client.error_to_string e))

let wait_caught_up ~primary ~standby =
  let target, _ = repl_status primary in
  let deadline = Util.now () +. 120. in
  let rec go () =
    let _, applied = repl_status standby in
    if applied < target then
      if Util.now () > deadline then failwith "standby never caught up"
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

(* The slice a shard preloads: every interval overlapping its range,
   under its global id. *)
let slice data (lo, hi) =
  let out = ref [] in
  Array.iteri
    (fun id ivl ->
      if Interval.Ivl.lower ivl <= hi && Interval.Ivl.upper ivl >= lo then
        out := (id, ivl) :: !out)
    data;
  Array.of_list (List.rev !out)

let geometry () =
  let cuts =
    Server.Router.Map.backbone_cuts
      ~domain_max:Workload.Distribution.domain_max ~shards:2
  in
  (cuts, Server.Router.Map.create ~cuts ~endpoints:[ [ ("127.0.0.1", 1) ]; [ ("127.0.0.1", 1) ] ])

let stop t =
  List.iter (fun p -> try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()) t.procs;
  List.iter
    (fun p -> try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    t.procs

let vmhwm_kb procs = List.map (fun p -> (p.role, Util.proc_status_kb p.pid "VmHWM")) procs

let spawn (spec : Spec.t) (inp : Spec.inputs) =
  let t0 = Util.now () in
  let procs, endpoint, catchup_s =
    match spec.topology with
    | Spec.Single ->
        let preload sh =
          Server.Session.preload sh inp.data;
          Array.length inp.data
        in
        let p =
          await_report "single"
            (fork_child "single" (serve_dispatcher ~preload))
        in
        ([ p ], p.port, 0.)
    | Spec.Routed ->
        let cuts, geo = geometry () in
        let shard i =
          let sl = slice inp.data (Server.Router.Map.range geo i) in
          let preload sh =
            Server.Session.preload_ids sh sl;
            Array.length sl
          in
          fork_child (Printf.sprintf "shard%d" i) (serve_dispatcher ~preload)
        in
        (* both shards preload in parallel *)
        let c0 = shard 0 in
        let c1 = shard 1 in
        let s0 = await_report "shard0" c0 in
        let s1 = await_report "shard1" c1 in
        let ts = Util.now () in
        let sb =
          await_report "standby"
            (fork_child "standby"
               (serve_dispatcher ~replica_of:("127.0.0.1", s0.port)
                  ~preload:(fun _ -> 0)))
        in
        let map =
          Server.Router.Map.create ~cuts
            ~endpoints:
              [ [ ("127.0.0.1", s0.port); ("127.0.0.1", sb.port) ];
                [ ("127.0.0.1", s1.port) ] ]
        in
        let r = await_report "router" (fork_child "router" (serve_router ~map)) in
        wait_caught_up ~primary:s0.port ~standby:sb.port;
        ([ s0; s1; sb; r ], r.port, Util.now () -. ts)
  in
  ping_until_ok endpoint;
  let setup_s = Util.now () -. t0 in
  { procs; endpoint; setup_s; catchup_s; rss_setup_kb = vmhwm_kb procs }

let find t role = List.find_opt (fun p -> p.role = role) t.procs

(* Servers that execute client reads: every dispatcher except the
   standby (the router forwards to primaries). *)
let primaries t =
  List.filter (fun p -> p.role = "single" || p.role = "shard0" || p.role = "shard1") t.procs

let info p key = Option.value ~default:0. (List.assoc_opt key p.info)

(* ---- scrapes (outside the timed window, on an extra connection) ---- *)

type scrape = {
  stats : (string * P.stats) list;  (** per role *)
  metrics : (string * Util.scrape) list;
  lag_bytes : int;  (** standby lag at scrape time (routed) *)
}

let scrape t =
  let stats, metrics =
    List.split
      (List.filter_map
         (fun p ->
           if p.role = "standby" then None
           else
             with_conn p.port (fun c ->
                 let st =
                   match Server.Client.server_stats c with
                   | Ok s -> s
                   | Error e -> failwith (Server.Client.error_to_string e)
                 in
                 let m =
                   match Server.Client.metrics c with
                   | Ok m -> Util.parse_metrics m
                   | Error e -> failwith (Server.Client.error_to_string e)
                 in
                 Some ((p.role, st), (p.role, m))))
         t.procs)
  in
  let lag_bytes =
    match find t "standby" with
    | Some sb ->
        let durable, applied = repl_status sb.port in
        max 0 (durable - applied)
    | None -> 0
  in
  { stats; metrics; lag_bytes }

let op_stat (st : P.stats) op = List.find_opt (fun (o : P.op_stat) -> o.op = op) st.ops

let rss_kb t = vmhwm_kb t.procs
