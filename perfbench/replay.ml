(* The in-process replay: client 0's first [replay_ops] ops, sent through
   [Server.Session.handle] against databases built with the identical
   preload — one session, or one per shard with the router's fan-out and
   merge done here. No sockets, one client, no timers: the physical I/O
   counts repeat exactly.

   Two passes, each from a fresh preload. The plain pass only calls
   [Session.handle]; its handle time is the untraced baseline. The
   traced pass enables [Obs.Trace]: each handle call becomes a root span
   over the spans the program already has (sql.stmt, sql.branch, exec.*,
   btree.descend, pool.fault, journal.force), [Obs.Counters] is
   snapshotted around every call, and the benchmark times the I/O-free
   entry points (node lists, planning, SQL parse, response decode) on
   the same request. Neither tracing nor those timed calls do I/O, so
   the two passes' I/O counts must agree exactly. *)

module Ivl = Interval.Ivl
module P = Server.Protocol
module Ri = Ritree.Ri_tree
module Map = Server.Router.Map

type shard = { sh : Server.Session.shared; sess : Server.Session.t }

type target = { shards : shard array; geo : Map.t option }

let build (spec : Spec.t) (inp : Spec.inputs) =
  let open_shard preload =
    let sh = Server.Session.shared ~durable:true () in
    preload sh;
    let sess = Server.Session.create sh in
    List.iter (fun req -> ignore (Server.Session.handle sess req)) (Spec.connect_requests spec);
    { sh; sess }
  in
  match spec.topology with
  | Spec.Single ->
      { shards = [| open_shard (fun sh -> Server.Session.preload sh inp.data) |];
        geo = None }
  | Spec.Routed ->
      let _, geo = Cluster.geometry () in
      let shards =
        Array.init 2 (fun i ->
            let sl = Cluster.slice inp.data (Map.range geo i) in
            open_shard (fun sh -> Server.Session.preload_ids sh sl))
      in
      { shards; geo = Some geo }

(* How a request reached a shard, for the per-call hook. *)
type call = { shard : int; req : P.request; read : bool }

let extent = function
  | P.Intersect { lower; upper } -> (lower, upper)
  | P.Allen { relation; lower; upper } -> (
      match Map.allen_extent relation ~lower ~upper with
      | Some e -> e
      | None -> (lower, upper))
  | P.Insert { lower; upper; _ } -> (lower, upper)
  | _ -> (0, Workload.Distribution.domain_max)

let rows_of = function P.Rows { rows; _ } -> rows | _ -> []

(* Execute one op the way the single server or the router would, with
   every shard call going through [handle]; a routed read hands its
   per-shard answers to [on_merge]. *)
let exec_op tgt ~handle ?(on_merge = fun _ _ -> ()) op =
  match tgt.geo with
  | None ->
      List.iter
        (fun req -> ignore (handle { shard = 0; req; read = Spec.is_read op }))
        (Spec.requests op)
  | Some geo -> (
      match op with
      | Spec.Txn ivls ->
          let targets ivl =
            Map.targets geo ~lower:(Ivl.lower ivl) ~upper:(Ivl.upper ivl)
          in
          let touched =
            List.sort_uniq compare (List.concat_map targets (Array.to_list ivls))
          in
          let call shard req = handle { shard; req; read = false } in
          List.iter (fun s -> ignore (call s P.Begin)) touched;
          Array.iter
            (fun ivl ->
              match targets ivl with
              | [] -> ()
              | own :: rest -> (
                  match call own (Spec.insert_request ivl) with
                  | P.Ack m -> (
                      match Live.assigned_id m with
                      | Some id ->
                          List.iter
                            (fun s ->
                              ignore
                                (call s
                                   (P.Insert
                                      { lower = Ivl.lower ivl;
                                        upper = Ivl.upper ivl; id = Some id })))
                            rest
                      | None -> ())
                  | _ -> ()))
            ivls;
          List.iter (fun s -> ignore (call s P.Commit)) touched
      | op ->
          let req = Spec.read_request op in
          let lower, upper = extent req in
          let answers =
            List.map
              (fun s -> rows_of (handle { shard = s; req; read = true }))
              (Map.targets geo ~lower ~upper)
          in
          on_merge req answers)

let replayed_ops (spec : Spec.t) inp ~seed =
  let next = Spec.stream spec inp ~seed ~client:0 in
  List.init spec.replay_ops (fun _ -> next ())

(* ---- the plain pass: handle calls only ---- *)

type plain = {
  reads : int;  (** physical reads over the whole replay *)
  writes : int;
  read_io : int list;  (** physical I/O of each read request, in order *)
  read_requests : int;
  handle_s : float;  (** summed handle time of read requests *)
}

let plain_pass tgt ops =
  let read_io = ref [] and n = ref 0 and handle_s = ref 0. in
  let c0 = Obs.Counters.snapshot () in
  let handle call =
    let s = tgt.shards.(call.shard) in
    let k0 = Obs.Counters.snapshot () in
    let t0 = Util.now () in
    let r = Server.Session.handle s.sess call.req in
    if call.read then begin
      handle_s := !handle_s +. (Util.now () -. t0);
      let d = Obs.Counters.diff (Obs.Counters.snapshot ()) k0 in
      read_io := (d.reads + d.writes) :: !read_io;
      incr n
    end;
    r
  in
  List.iter (exec_op tgt ~handle) ops;
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) c0 in
  { reads = d.reads; writes = d.writes; read_io = List.rev !read_io;
    read_requests = !n; handle_s = !handle_s }

(* ---- the traced pass, with the layers timed from outside ---- *)

let rec walk f (s : Obs.Trace.span) =
  f s;
  List.iter (walk f) s.children

let self_us (s : Obs.Trace.span) =
  s.elapsed_us - List.fold_left (fun a (c : Obs.Trace.span) -> a + c.elapsed_us) 0 s.children

let layer_of name =
  if name = "bench.handle" then "session"
  else if name = "sql.stmt" then "sql"
  else if name = "btree.descend" then "btree"
  else if name = "pool.fault" then "pool"
  else "exec"

(* The layers on a read's blocking path, as span self time. *)
let layers = [ "session"; "sql"; "exec"; "btree"; "pool" ]

type traced = {
  mutable reads : int;  (** physical reads over the whole replay *)
  mutable writes : int;
  mutable read_io : int list;  (** physical I/O of each read request, reversed *)
  mutable handle_us : float list;  (** read requests *)
  mutable handle_s : float;
  mutable self_by_layer : (string * float) list;  (** summed over read requests *)
  mutable read_n : int;
  mutable typed_self_us : float list;  (** handle - plan - run, typed reads *)
  mutable plan_us : float list;
  mutable run_us : float list;
  mutable rows : int;
  mutable intersects : int;
  mutable two_branch : int;
  mutable est_err : float list;
  mutable nl_us : float list;
  mutable left_nodes : int;
  mutable right_nodes : int;
  mutable left_us : float list;
  mutable right_us : float list;
  mutable descents : int;
  mutable descend_us : float list;
  mutable fault_us : float list;
  mutable force_us : float list;
  mutable resp_bytes : int;
  mutable decode_us : float;
  mutable read_ctr : Obs.Counters.snapshot;
  mutable txn_ctr : Obs.Counters.snapshot;
  mutable parse_us : float list;
  mutable stmts : int;
  mutable parses : int;
  mutable plans : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable merge_us : float;
  mutable merged_reads : int;
  mutable dup_rows : int;
  mutable to_cost : (Exec.Planner.compiled * int) list;
      (** sampled intersections: plan, I/O the request did *)
}

let zero_ctr = Obs.Counters.diff (Obs.Counters.snapshot ()) (Obs.Counters.snapshot ())

let add_ctr (a : Obs.Counters.snapshot) (b : Obs.Counters.snapshot) =
  { Obs.Counters.reads = a.reads + b.reads; writes = a.writes + b.writes;
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
    pool_evictions = a.pool_evictions + b.pool_evictions;
    journal_forces = a.journal_forces + b.journal_forces;
    journal_bytes = a.journal_bytes + b.journal_bytes }

let us f =
  let t0 = Util.now () in
  let r = f () in
  (r, (Util.now () -. t0) *. 1e6)

let est_sample = 20

(* Time the planning of a typed read from outside, on the same tree and
   the same query; planning does no I/O, so this leaves the pool as the
   request left it. Returns the plan time and the compiled plan. *)
let plan_outside tr ~tree ~stats req =
  match req with
  | P.Intersect { lower; upper } ->
      let q = Ivl.make lower upper in
      let nl, nl_us = us (fun () -> Ri.node_lists tree q) in
      tr.nl_us <- nl_us :: tr.nl_us;
      tr.left_nodes <- tr.left_nodes + List.length nl.Ri.left_nodes;
      tr.right_nodes <- tr.right_nodes + List.length nl.Ri.right_nodes;
      let c, plan_us =
        us (fun () ->
            Exec.Planner.plan_intersection ~stats ~proj:Exec.Planner.Triples tree q)
      in
      tr.plan_us <- plan_us :: tr.plan_us;
      Some (plan_us, Some c)
  | P.Allen { relation; lower; upper } ->
      let _, plan_us =
        us (fun () -> Exec.Planner.plan_allen tree relation (Ivl.make lower upper))
      in
      tr.plan_us <- plan_us :: tr.plan_us;
      Some (plan_us, None)
  | P.Sql text ->
      let _, parse_us = us (fun () -> Sqlfront.Parser.parse text) in
      tr.parse_us <- parse_us :: tr.parse_us;
      None
  | _ -> None

(* [stats] is analyzed on another build: analyzing this one would scan
   the heap through its pool and leave it in another state than the
   plain pass started from. *)
let traced_pass tgt ~stats ops =
  let tr =
    { reads = 0; writes = 0; read_io = []; handle_us = []; handle_s = 0.;
      self_by_layer = []; read_n = 0; typed_self_us = []; plan_us = []; run_us = []; rows = 0; intersects = 0;
      two_branch = 0; est_err = []; nl_us = []; left_nodes = 0;
      right_nodes = 0; left_us = []; right_us = []; descents = 0;
      descend_us = []; fault_us = []; force_us = []; resp_bytes = 0;
      decode_us = 0.; read_ctr = zero_ctr; txn_ctr = zero_ctr;
      parse_us = []; stmts = 0; parses = 0; plans = 0; cache_hits = 0;
      cache_lookups = 0; merge_us = 0.; merged_reads = 0; dup_rows = 0;
      to_cost = [] }
  in
  let handle call =
    let s = tgt.shards.(call.shard) in
    let is_sql = match call.req with P.Sql _ | P.Execute _ -> true | _ -> false in
    let p0 = Sqlfront.Engine.parse_count () and q0 = Sqlfront.Engine.plan_count () in
    let h0 = Exec.Plan_cache.totals.hits and m0 = Exec.Plan_cache.totals.misses in
    let k0 = Obs.Counters.snapshot () in
    let t0 = Util.now () in
    let r, span =
      Obs.Trace.traced "bench.handle" (fun () -> Server.Session.handle s.sess call.req)
    in
    let wall = Util.now () -. t0 in
    let d = Obs.Counters.diff (Obs.Counters.snapshot ()) k0 in
    if is_sql then begin
      tr.stmts <- tr.stmts + 1;
      tr.parses <- tr.parses + (Sqlfront.Engine.parse_count () - p0);
      tr.plans <- tr.plans + (Sqlfront.Engine.plan_count () - q0);
      tr.cache_hits <- tr.cache_hits + (Exec.Plan_cache.totals.hits - h0);
      tr.cache_lookups <-
        tr.cache_lookups + (Exec.Plan_cache.totals.hits - h0)
        + (Exec.Plan_cache.totals.misses - m0)
    end;
    Option.iter
      (walk (fun (sp : Obs.Trace.span) ->
           let e = float_of_int sp.elapsed_us in
           match sp.name with
           | "btree.descend" ->
               if call.read then tr.descents <- tr.descents + 1;
               tr.descend_us <- e :: tr.descend_us
           | "pool.fault" -> tr.fault_us <- e :: tr.fault_us
           | "journal.force" -> tr.force_us <- e :: tr.force_us
           | _ -> ()))
      span;
    if call.read then begin
      let h_us = wall *. 1e6 in
      tr.read_n <- tr.read_n + 1;
      tr.read_io <- (d.reads + d.writes) :: tr.read_io;
      tr.handle_s <- tr.handle_s +. wall;
      tr.handle_us <- h_us :: tr.handle_us;
      tr.read_ctr <- add_ctr tr.read_ctr d;
      tr.rows <- tr.rows + List.length (rows_of r);
      Option.iter
        (walk (fun sp ->
             let l = layer_of sp.Obs.Trace.name in
             let prev = Option.value ~default:0. (List.assoc_opt l tr.self_by_layer) in
             tr.self_by_layer <-
               (l, prev +. float_of_int (self_us sp))
               :: List.remove_assoc l tr.self_by_layer))
        span;
      (* wire: the frame this answer becomes, and decoding it *)
      let frame = P.encode_response ~id:1L r in
      tr.resp_bytes <- tr.resp_bytes + Bytes.length frame;
      let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
      let _, dec = us (fun () -> P.decode_response payload) in
      tr.decode_us <- tr.decode_us +. dec;
      match
        (plan_outside tr ~tree:(Server.Session.tree s.sh) ~stats:stats.(call.shard)
           call.req, span)
      with
      | Some (plan_us, compiled), Some root ->
          (* Planning runs inside handle outside any span, so the root's
             self time is session work plus planning; the executor's
             work is the time its child spans cover. Each UNION ALL
             branch of the Fig. 9 plan is one sql.branch child. *)
          let run_us = float_of_int (root.elapsed_us - self_us root) in
          tr.run_us <- run_us :: tr.run_us;
          tr.typed_self_us <- (float_of_int (self_us root) -. plan_us) :: tr.typed_self_us;
          let branches =
            List.filter (fun (sp : Obs.Trace.span) -> sp.name = "sql.branch") root.children
          in
          Option.iter
            (fun c ->
              tr.intersects <- tr.intersects + 1;
              (match branches with
              | [ left; right ] ->
                  tr.two_branch <- tr.two_branch + 1;
                  tr.left_us <- float_of_int left.elapsed_us :: tr.left_us;
                  tr.right_us <- float_of_int right.elapsed_us :: tr.right_us
              | _ -> ());
              if tr.intersects <= est_sample then
                tr.to_cost <- (c, d.reads + d.writes) :: tr.to_cost)
            compiled
      | _ -> ()
    end
    else tr.txn_ctr <- add_ctr tr.txn_ctr d;
    r
  in
  let on_merge _req answers =
    let merged, m_us = us (fun () -> Map.merge_rows answers) in
    tr.merge_us <- tr.merge_us +. m_us;
    tr.merged_reads <- tr.merged_reads + 1;
    tr.dup_rows <-
      tr.dup_rows
      + List.fold_left (fun a l -> a + List.length l) 0 answers
      - List.length merged
  in
  let c0 = Obs.Counters.snapshot () in
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () -> List.iter (exec_op tgt ~handle ~on_merge) ops);
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) c0 in
  tr.reads <- d.reads;
  tr.writes <- d.writes;
  tr.read_io <- List.rev tr.read_io;
  (* The estimator re-analyzes the table on every call (a full scan that
     churns the pool), so a sample is costed after the pass. *)
  tr.est_err <-
    List.map
      (fun ((c : Exec.Planner.compiled), actual) ->
        let pred =
          List.fold_left
            (fun a (e : Exec.Estimate.branch_est) -> a +. e.total_io)
            0. (Exec.Estimate.branches c.ctx c.plan.Exec.Ir.branches)
        in
        Float.abs (pred -. float_of_int actual) /. Float.max 1. (float_of_int actual))
      tr.to_cost;
  tr

type t = { plain : plain; traced : traced; ops : Spec.op list }

(* The passes' I/O counts agree exactly; false flags a replay whose
   counts depend on more than the seed. *)
let counts_match t =
  t.plain.reads = t.traced.reads
  && t.plain.writes = t.traced.writes
  && t.plain.read_io = t.traced.read_io

let run (spec : Spec.t) inp ~seed =
  let ops = replayed_ops spec inp ~seed in
  let t0 = Util.now () in
  let first = build spec inp in
  let t1 = Util.now () in
  let plain = plain_pass first ops in
  let stats =
    Array.map
      (fun s -> Ritree.Cost_model.Stats.analyze (Server.Session.tree s.sh))
      first.shards
  in
  let t2 = Util.now () in
  Gc.compact ();
  let second = build spec inp in
  let t3 = Util.now () in
  let traced = traced_pass second ~stats ops in
  Printf.printf "replay: build %.2f s, plain pass %.2f s, build %.2f s, traced pass %.2f s\n%!"
    (t1 -. t0) (t2 -. t1) (t3 -. t2) (Util.now () -. t3);
  { plain; traced; ops }
