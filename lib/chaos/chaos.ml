(* Network chaos sweep: drive a primary + hot-standby pair through a
   deterministic workload once per injection point, with a
   [Harness.Netchaos] proxy mangling exactly one scheduled request
   frame per trial, and check the replication contract against an
   in-memory oracle.

   The contract under test (ISSUE 8):
     - every ACKNOWLEDGED write (COMMIT returned Ok) is readable after
       failover, on every surviving node;
     - every UNacknowledged transaction is atomically present or
       absent — never half a transaction;
     - a transaction whose COMMIT was never sent (an insert failed
       first) is absent.

   Topology per trial: a fresh durable primary, a replica tailing it
   directly (replication frames do NOT traverse the proxy — the chaos
   models the CLIENT's network), and a failover client whose endpoint
   list is [proxy -> primary; replica]. The replica subscription is
   settled with one direct committed write before the workload, since
   the semi-synchronous ack guarantee only covers commits issued after
   a subscriber is attached.

   Every transaction writes two rows. Two, not one, because atomicity
   of an ambiguous commit is only observable with at least two rows:
   the oracle can then insist both-or-neither survived. *)

module D = Server.Dispatcher
module S = Server.Session
module C = Server.Client
module F = Server.Failover
module N = Harness.Netchaos

type spec = {
  txns : int;  (** transactions per trial; 3 request frames each *)
  deadline_ms : float;  (** failover client per-request deadline *)
  faults : N.fault list;  (** cycled over injection points *)
}

let default_faults =
  [
    N.Delay 0.05;  (* benign latency: nothing should even notice *)
    N.Drop;
    N.Duplicate;
    N.Truncate 5;
    N.Partition 0.35;
    N.Kill;
    N.Delay 0.45;  (* past the deadline: the classic ambiguous commit *)
  ]

let default_spec = { txns = 4; deadline_ms = 250.; faults = default_faults }
let tiny_spec = { txns = 2; deadline_ms = 150.; faults = default_faults }

type outcome =
  | Acked  (** COMMIT answered Ok: rows must survive everywhere *)
  | Ambiguous  (** COMMIT dispatched, answer lost: all-or-nothing *)
  | Aborted  (** an insert failed, COMMIT never sent: rows absent *)

type txn = { base : int; outcome : outcome }

type failure = { point : int; fault : string; reason : string }

type report = {
  trials : int;
  acked : int;  (** acked transactions verified present, summed *)
  ambiguous : int;
  aborted : int;
  failures : failure list;
}

let ivl lo up = Interval.Ivl.make lo up

(* Row identity is the interval's lower bound: every row of the sweep
   gets a distinct one, so presence is a membership test on intersect
   results (robust against the Duplicate fault inserting a row twice —
   presence, not cardinality). *)
let row_a t = t.base
let row_b t = t.base + 4

let start_node ?replica_of () =
  Testbed.start
    { D.default_config with max_sessions = 32; replica_of }
    (S.shared ~durable:true ())

let alive ~port =
  match C.connect ~deadline_ms:200. ~port () with
  | c ->
      C.close c;
      true
  | exception _ -> false

let wait_applied ~port lsn =
  match Testbed.wait_applied ~port lsn with
  | Some _ -> Ok ()
  | None ->
      Error
        (Printf.sprintf "node on port %d never applied through lsn %d" port
           lsn)

let present rows lo = List.exists (fun (iv, _) -> Interval.Ivl.lower iv = lo) rows

let read_rows ~deadline_ms ~port =
  match C.connect ~deadline_ms ~port () with
  | c ->
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          match C.intersect c (ivl 0 1_000_000) with
          | Ok rows -> Ok rows
          | Error e -> Error (C.error_to_string e))
  | exception e -> Error (Printexc.to_string e)

(* Verify the oracle against one surviving node's row set. *)
let verify_rows ~where txns rows =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun t ->
      let a = present rows (row_a t) and b = present rows (row_b t) in
      match t.outcome with
      | Acked ->
          if not (a && b) then
            note "acked txn at base %d lost on %s (a=%b b=%b)" t.base where a
              b
      | Aborted ->
          if a || b then
            note "aborted txn at base %d leaked onto %s (a=%b b=%b)" t.base
              where a b
      | Ambiguous ->
          if a <> b then
            note "ambiguous txn at base %d is HALF present on %s (a=%b b=%b)"
              t.base where a b)
    txns;
  !problems

(* One trial: fresh primary + replica + proxy, fault at frame [point]. *)
let trial spec ~point ~fault =
  let primary = start_node () in
  let pport = Testbed.port primary in
  let primary_alive = ref true in
  let stop_primary () =
    if !primary_alive then begin
      primary_alive := false;
      Testbed.stop primary
    end
  in
  Fun.protect ~finally:stop_primary @@ fun () ->
  let replica = start_node ~replica_of:("127.0.0.1", pport) () in
  Fun.protect ~finally:(fun () -> Testbed.stop replica) @@ fun () ->
  let rport = Testbed.port replica in
  (* Settle the subscription: semi-sync only covers commits made after
     the standby attached, so prove attachment with one direct write. *)
  let settle =
    match C.connect ~deadline_ms:2000. ~port:pport () with
    | c ->
        Fun.protect
          ~finally:(fun () -> C.close c)
          (fun () ->
            match (C.insert c (ivl 1 2), C.commit c) with
            | Ok _, Ok lsn -> wait_applied ~port:rport lsn
            | Error e, _ | _, Error e ->
                Error ("settle write failed: " ^ C.error_to_string e))
    | exception e -> Error ("settle connect failed: " ^ Printexc.to_string e)
  in
  match settle with
  | Error reason -> Error reason
  | Ok _ -> (
      let proxy =
        N.create
          ~target:("127.0.0.1", pport)
          ~schedule:[ (point, fault) ]
          ~on_kill:stop_primary ()
      in
      let proxy_thread = Thread.create (fun () -> N.run proxy) () in
      let stop_proxy () =
        N.stop proxy;
        Thread.join proxy_thread
      in
      Fun.protect ~finally:stop_proxy @@ fun () ->
      let f =
        F.create ~deadline_ms:spec.deadline_ms
          ~endpoints:
            [ ("127.0.0.1", N.port proxy); ("127.0.0.1", rport) ]
          ()
      in
      Fun.protect ~finally:(fun () -> F.close f) @@ fun () ->
      (* The workload: [txns] two-row transactions, unique intervals. *)
      let txns = ref [] in
      let dead = ref false in
      let j = ref 0 in
      while (not !dead) && !j < spec.txns do
        let base = 1000 + (!j * 10) in
        let outcome =
          match F.insert f (ivl base (base + 1)) with
          | Error _ -> Aborted
          | Ok _ -> (
              match F.insert f (ivl (base + 4) (base + 5)) with
              | Error _ -> Aborted
              | Ok _ -> (
                  match F.commit f with
                  | Ok _ -> Acked
                  | Error (C.Timeout _ | C.Io _) -> Ambiguous
                  | Error _ -> Ambiguous))
        in
        txns := { base; outcome } :: !txns;
        (* A Kill trial leaves every later mutation doomed to time out;
           once an op failed AND the primary is gone, stop driving. *)
        if outcome <> Acked && not (alive ~port:pport) then
          dead := true;
        incr j
      done;
      let txns = List.rev !txns in
      let acked_lsn = F.last_lsn f in
      (* Which nodes survive, and do they agree with the oracle? *)
      let problems = ref [] in
      (match wait_applied ~port:rport acked_lsn with
      | Error m -> problems := m :: !problems
      | Ok _ -> (
          match read_rows ~deadline_ms:2000. ~port:rport with
          | Error m -> problems := ("replica read: " ^ m) :: !problems
          | Ok rows ->
              problems := verify_rows ~where:"replica" txns rows @ !problems));
      if !primary_alive && alive ~port:pport then begin
        match read_rows ~deadline_ms:2000. ~port:pport with
        | Error m -> problems := ("primary read: " ^ m) :: !problems
        | Ok rows ->
            problems := verify_rows ~where:"primary" txns rows @ !problems
      end;
      match !problems with
      | [] ->
          let count o = List.length (List.filter (fun t -> t.outcome = o) txns)
          in
          Ok (count Acked, count Ambiguous, count Aborted)
      | ps -> Error (String.concat "; " ps))

let points spec = 3 * spec.txns

let fault_at spec i = List.nth spec.faults (i mod List.length spec.faults)

let run ?(progress = fun _ _ _ -> ()) spec =
  let n = points spec in
  let failures = ref [] in
  let acked = ref 0 and ambiguous = ref 0 and aborted = ref 0 in
  for point = 0 to n - 1 do
    let fault = fault_at spec point in
    progress point n (N.fault_name fault);
    match trial spec ~point ~fault with
    | Ok (a, am, ab) ->
        acked := !acked + a;
        ambiguous := !ambiguous + am;
        aborted := !aborted + ab
    | Error reason ->
        failures :=
          { point; fault = N.fault_name fault; reason } :: !failures
  done;
  {
    trials = n;
    acked = !acked;
    ambiguous = !ambiguous;
    aborted = !aborted;
    failures = List.rev !failures;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "chaos sweep: %d trials, %d acked / %d ambiguous / %d aborted txns, %d \
     failures"
    r.trials r.acked r.ambiguous r.aborted
    (List.length r.failures);
  List.iter
    (fun f ->
      Format.fprintf ppf "@.  point %d (%s): %s" f.point f.fault f.reason)
    r.failures
