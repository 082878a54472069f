let buckets = 40
(* bucket i holds latencies in [2^i, 2^(i+1)) microseconds; bucket 39
   tops out above 15 minutes, far beyond any single request here *)

type op = {
  mutable count : int;
  mutable total_io : int;
  mutable total_us : int;
  mutable min_us : int;
  mutable max_us : int;
  hist : int array;
}

type t = {
  started : float;
  ops : (string, op) Hashtbl.t;
  mutable sessions : int;
  mutable peak_sessions : int;
  mutable total_requests : int;
  mutable overload_rejections : int;
}

let create ~now =
  {
    started = now;
    ops = Hashtbl.create 8;
    sessions = 0;
    peak_sessions = 0;
    total_requests = 0;
    overload_rejections = 0;
  }

let bucket_of_us us =
  let rec go i v = if v <= 1 || i = buckets - 1 then i else go (i + 1) (v lsr 1) in
  if us <= 0 then 0 else go 0 us

let bucket_mid_us i =
  if i = 0 then 1
  else
    (* geometric midpoint of [2^i, 2^(i+1)) *)
    int_of_float (Float.round (Float.sqrt 2.0 *. float_of_int (1 lsl i)))

(* Exclusive upper bound of bucket i: 2^(i+1) microseconds. The last
   bucket is open-ended; callers render it as "+Inf". *)
let bucket_limit_us i = 1 lsl (i + 1)

let op_for t name =
  match Hashtbl.find_opt t.ops name with
  | Some o -> o
  | None ->
      let o =
        { count = 0; total_io = 0; total_us = 0; min_us = max_int; max_us = 0;
          hist = Array.make buckets 0 }
      in
      Hashtbl.add t.ops name o;
      o

let record t ~op ~seconds ~io =
  let us = int_of_float (Float.round (seconds *. 1e6)) in
  let us = max 0 us in
  let o = op_for t op in
  o.count <- o.count + 1;
  o.total_io <- o.total_io + io;
  o.total_us <- o.total_us + us;
  if us > o.max_us then o.max_us <- us;
  if us < o.min_us then o.min_us <- us;
  let b = bucket_of_us us in
  o.hist.(b) <- o.hist.(b) + 1;
  t.total_requests <- t.total_requests + 1

let overloaded t = t.overload_rejections <- t.overload_rejections + 1

let session_opened t =
  t.sessions <- t.sessions + 1;
  if t.sessions > t.peak_sessions then t.peak_sessions <- t.sessions

let session_closed t = t.sessions <- t.sessions - 1
let sessions t = t.sessions

let percentile_us o p =
  if o.count = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int o.count)) in
    let rank = max 1 (min o.count rank) in
    let acc = ref 0 and res = ref 0 in
    (try
       for i = 0 to buckets - 1 do
         acc := !acc + o.hist.(i);
         if !acc >= rank then begin
           res := bucket_mid_us i;
           raise Exit
         end
       done
     with Exit -> ());
    (* The geometric midpoint can land outside what was actually
       observed (e.g. a single 7 us sample falls in [4, 8), whose
       midpoint is 6). Clamp into the true envelope. *)
    max o.min_us (min o.max_us !res)
  end

let snapshot t ~now ~io : Protocol.stats =
  let ops =
    Hashtbl.fold
      (fun name o acc ->
        {
          Protocol.op = name;
          count = o.count;
          total_io = o.total_io;
          p50_us = percentile_us o 0.50;
          p95_us = percentile_us o 0.95;
          p99_us = percentile_us o 0.99;
          max_us = o.max_us;
        }
        :: acc)
      t.ops []
    |> List.sort (fun a b -> String.compare a.Protocol.op b.Protocol.op)
  in
  {
    Protocol.uptime_s = now -. t.started;
    sessions = t.sessions;
    peak_sessions = t.peak_sessions;
    total_requests = t.total_requests;
    overload_rejections = t.overload_rejections;
    (* Requests run where they are decoded: nothing waits in a queue. *)
    queue_depth = 0;
    peak_queue_depth = 0;
    io_reads = io.Storage.Block_device.Stats.reads;
    io_writes = io.Storage.Block_device.Stats.writes;
    ops;
  }

let render (s : Protocol.stats) =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "server stats (uptime %.1f s)\n\
    \  sessions: %d (peak %d)   requests: %d   overload rejections: %d\n\
    \  physical I/O: %d reads, %d writes\n"
    s.uptime_s s.sessions s.peak_sessions s.total_requests
    s.overload_rejections s.io_reads s.io_writes;
  if s.ops <> [] then begin
    Printf.bprintf b "  %-10s %8s %10s %9s %9s %9s %9s %8s\n" "op" "count"
      "io/req" "p50(us)" "p95(us)" "p99(us)" "max(us)" "io";
    List.iter
      (fun (o : Protocol.op_stat) ->
        Printf.bprintf b "  %-10s %8d %10.2f %9d %9d %9d %9d %8d\n" o.op
          o.count
          (if o.count = 0 then 0.0
           else float_of_int o.total_io /. float_of_int o.count)
          o.p50_us o.p95_us o.p99_us o.max_us o.total_io)
      s.ops
  end;
  Buffer.contents b

let dump t ~now ~io = render (snapshot t ~now ~io)

(* ---------------- raw view ----------------

   Everything the Prometheus renderer needs, copied out so the caller
   can't perturb the live accumulators. *)

type op_view = {
  v_op : string;
  v_count : int;
  v_total_io : int;
  v_total_us : int;
  v_min_us : int;  (** 0 when no samples *)
  v_max_us : int;
  v_hist : int array;
}

type view = {
  v_started : float;
  v_sessions : int;
  v_peak_sessions : int;
  v_total_requests : int;
  v_overload_rejections : int;
  v_ops : op_view list;
}

let view t =
  let v_ops =
    Hashtbl.fold
      (fun name o acc ->
        {
          v_op = name;
          v_count = o.count;
          v_total_io = o.total_io;
          v_total_us = o.total_us;
          v_min_us = (if o.count = 0 then 0 else o.min_us);
          v_max_us = o.max_us;
          v_hist = Array.copy o.hist;
        }
        :: acc)
      t.ops []
    |> List.sort (fun a b -> String.compare a.v_op b.v_op)
  in
  {
    v_started = t.started;
    v_sessions = t.sessions;
    v_peak_sessions = t.peak_sessions;
    v_total_requests = t.total_requests;
    v_overload_rejections = t.overload_rejections;
    v_ops;
  }
