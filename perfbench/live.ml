(* The live run: [spec.clients] closed-loop clients, one connection and
   one thread each, drive the serving endpoint. Each client sends its
   next request only after the reply arrives. The first [warm_ops] ops of
   every client fill caches; then the scrape callback runs and the timed
   window opens for all clients at once. *)

module Ivl = Interval.Ivl
module P = Server.Protocol

type client = {
  id : int;
  mutable reads : (string * float * float) list;  (** window: kind, ms, end time *)
  mutable ends : float list;  (** window: end time of every op completed *)
  mutable txns : float list;  (** window: whole BEGIN..COMMIT, ms *)
  mutable commits : (int list * float) list;  (** window: shards touched, COMMIT ms *)
  mutable fanouts : int list;  (** window: shards a read fans out to *)
  mutable attempted : int;  (** ops, warm-up included *)
  mutable failed : int;
  mutable acked : (Ivl.t * int) list;  (** committed inserts, all phases *)
  mutable first_error : string option;
  log : Spec.frame_log;  (** requests sent from connect through warm-up *)
  mutable logging : bool;
  mutable sent_digest : string;  (** digest of [log] *)
  mutable last_end : float;
}

type result = {
  clients : client list;
  t_start : float;
  elapsed : float;
  before : Cluster.scrape;
  after : Cluster.scrape;
}

let fail cl msg =
  cl.failed <- cl.failed + 1;
  if cl.first_error = None then cl.first_error <- Some msg

let describe = function
  | Ok r -> (
      match r with
      | P.Ack m -> "ack " ^ m
      | P.Rows _ -> "rows"
      | P.Error m -> "error: " ^ m
      | P.Invalid m -> "invalid: " ^ m
      | P.Conflict m -> "conflict: " ^ m
      | P.Overloaded m -> "overloaded: " ^ m
      | P.Partial { msg; _ } -> "partial: " ^ msg
      | _ -> "unexpected reply")
  | Error e -> Server.Client.error_to_string e

let assigned_id msg =
  match List.rev (String.split_on_char ' ' msg) with
  | last :: _ -> int_of_string_opt last
  | [] -> None

(* Every request goes out through here; from connect through warm-up it
   is also logged as the frame [Server.Client.rpc] writes for it. *)
let send cl c req =
  if cl.logging then Spec.log_frame cl.log req;
  Server.Client.rpc_result c req

(* One op; [Ok ()] when every reply was the expected shape. Latencies
   go to the client record only when [timed]. *)
let run_op ~geo ~timed cl c op =
  let rpc = send cl c in
  match op with
  | Spec.Txn ivls -> (
      let t0 = Util.now () in
      let ack = function Ok (P.Ack _) -> true | _ -> false in
      let b = rpc P.Begin in
      if not (ack b) then Error (describe b)
      else
        let rec inserts acc = function
          | [] -> Ok (List.rev acc)
          | ivl :: rest -> (
              match rpc (Spec.insert_request ivl) with
              | Ok (P.Ack m) as r -> (
                  match assigned_id m with
                  | Some id -> inserts ((ivl, id) :: acc) rest
                  | None -> Error (describe r))
              | r -> Error (describe r))
        in
        match inserts [] (Array.to_list ivls) with
        | Error m ->
            ignore (rpc P.Rollback);
            Error m
        | Ok acked -> (
            let tc = Util.now () in
            let r = rpc P.Commit in
            let t1 = Util.now () in
            match r with
            | Ok (P.Ack _) ->
                cl.acked <- acked @ cl.acked;
                if timed then begin
                  cl.txns <- ((t1 -. t0) *. 1000.) :: cl.txns;
                  let touched =
                    List.sort_uniq compare
                      (List.concat_map
                         (fun (ivl, _) ->
                           Server.Router.Map.targets geo ~lower:(Ivl.lower ivl)
                             ~upper:(Ivl.upper ivl))
                         acked)
                  in
                  cl.commits <- (touched, (t1 -. tc) *. 1000.) :: cl.commits
                end;
                Ok ()
            | r -> Error (describe r)))
  | op -> (
      let req = Spec.read_request op in
      let t0 = Util.now () in
      let r = rpc req in
      let t1 = Util.now () in
      match r with
      | Ok (P.Rows _) ->
          if timed then begin
            cl.reads <- (Spec.op_kind op, (t1 -. t0) *. 1000., t1) :: cl.reads;
            let lower, upper =
              match req with
              | P.Intersect { lower; upper } -> (lower, upper)
              | P.Allen { relation; lower; upper } -> (
                  match Server.Router.Map.allen_extent relation ~lower ~upper with
                  | Some e -> e
                  | None -> (lower, upper))
              | _ -> (0, Workload.Distribution.domain_max)
            in
            cl.fanouts <-
              List.length (Server.Router.Map.targets geo ~lower ~upper) :: cl.fanouts
          end;
          Ok ()
      | r -> Error (describe r))

(* A rendezvous: every client parks after warm-up until the main thread
   has scraped the servers and set the window's deadline. *)
type gate = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable warmed : int;
  mutable deadline : float option;
}

let run (spec : Spec.t) (inp : Spec.inputs) ~seed ~seconds ~port
    ~(scrape : unit -> Cluster.scrape) =
  let _, geo = Cluster.geometry () in
  let gate =
    { mu = Mutex.create (); cv = Condition.create (); warmed = 0; deadline = None }
  in
  let client_thread cl () =
    let next = Spec.stream spec inp ~seed ~client:cl.id in
    let c = Server.Client.connect ~deadline_ms:60_000. ~port () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        List.iter
          (fun req ->
            match send cl c req with
            | Ok (P.Ack _) -> ()
            | r -> fail cl ("connect: " ^ describe r))
          (Spec.connect_requests spec);
        for _ = 1 to spec.warm_ops do
          let op = next () in
          cl.attempted <- cl.attempted + 1;
          match run_op ~geo ~timed:false cl c op with
          | Ok () -> ()
          | Error m -> fail cl ("warm-up: " ^ m)
        done;
        cl.logging <- false;
        cl.sent_digest <- Spec.log_digest cl.log;
        Mutex.lock gate.mu;
        gate.warmed <- gate.warmed + 1;
        Condition.broadcast gate.cv;
        while gate.deadline = None do
          Condition.wait gate.cv gate.mu
        done;
        let deadline = Option.get gate.deadline in
        Mutex.unlock gate.mu;
        while Util.now () < deadline do
          let op = next () in
          cl.attempted <- cl.attempted + 1;
          (match run_op ~geo ~timed:true cl c op with
          | Ok () -> cl.ends <- Util.now () :: cl.ends
          | Error m -> fail cl m);
          cl.last_end <- Util.now ()
        done)
  in
  let clients =
    List.init spec.clients (fun id ->
        { id; reads = []; ends = []; txns = []; commits = []; fanouts = []; attempted = 0;
          failed = 0; acked = []; first_error = None; log = Spec.frame_log ();
          logging = true; sent_digest = "";
          last_end = 0. })
  in
  let threads =
    List.map
      (fun cl ->
        Thread.create
          (fun () ->
            try client_thread cl ()
            with e ->
              fail cl (Printexc.to_string e);
              (* never leave the main thread waiting on a dead client *)
              Mutex.lock gate.mu;
              gate.warmed <- spec.clients;
              Condition.broadcast gate.cv;
              Mutex.unlock gate.mu)
          ())
      clients
  in
  Mutex.lock gate.mu;
  while gate.warmed < spec.clients do
    Condition.wait gate.cv gate.mu
  done;
  Mutex.unlock gate.mu;
  let before = scrape () in
  let t_start = Util.now () in
  Mutex.lock gate.mu;
  gate.deadline <- Some (t_start +. seconds);
  Condition.broadcast gate.cv;
  Mutex.unlock gate.mu;
  List.iter Thread.join threads;
  let t_end = List.fold_left (fun a cl -> Float.max a cl.last_end) t_start clients in
  let after = scrape () in
  { clients; t_start; elapsed = Float.max 1e-3 (t_end -. t_start); before; after }
