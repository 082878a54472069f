(* Failover-aware client: one logical connection over a list of
   endpoints (primary first, then standbys).

   Every underlying call runs with a per-request deadline, so a hung or
   partitioned server surfaces as a typed [Timeout] instead of a stuck
   client. On [Timeout]/[Io] the endpoint is dropped and the next one
   dialled; a mutation refused with [Read_only] means we are talking to
   a replica — rotate towards the (new) primary and retry, since the
   refusal proves nothing was applied.

   Reads are retried freely across endpoints. A mutation that dies
   mid-flight ([Timeout]/[Io] AFTER the request may have reached the
   server) is NOT retried: the outcome is ambiguous — the caller gets
   the typed error and owns the decision (the chaos harness verifies
   exactly this present-or-absent contract).

   Read-your-writes across failover: every successful COMMIT carries
   the durable LSN it is covered by; the client remembers the highest
   and, before adopting a new endpoint, polls [Repl_status] until that
   endpoint has applied past it. Semi-synchronous primaries make this
   near-instant — the commit was only acked once every subscriber had
   applied it.

   Every wait — connect, request, and the pauses between attempts —
   goes through {!Reactor}: in a router fiber it parks that fiber, on
   a plain thread it blocks the thread. *)

type endpoint = { host : string; port : int }

type t = {
  endpoints : endpoint array;
  deadline_ms : float;
  mutable cur : int;
  mutable conn : Client.t option;
  mutable last_lsn : int;
  mutable failovers : int;
}

let create ?(deadline_ms = 1000.) ~endpoints () =
  if endpoints = [] then invalid_arg "Failover.create: no endpoints";
  {
    endpoints =
      Array.of_list (List.map (fun (host, port) -> { host; port }) endpoints);
    deadline_ms;
    cur = 0;
    conn = None;
    last_lsn = 0;
    failovers = 0;
  }

let last_lsn t = t.last_lsn
let note_lsn t lsn = if lsn > t.last_lsn then t.last_lsn <- lsn
let failovers t = t.failovers

let endpoint t =
  match t.conn with
  | None -> None
  | Some _ ->
      let e = t.endpoints.(t.cur) in
      Some (e.host, e.port)

let drop t =
  match t.conn with
  | None -> ()
  | Some c ->
      (try Client.close c with _ -> ());
      t.conn <- None

let rotate t =
  drop t;
  t.cur <- (t.cur + 1) mod Array.length t.endpoints;
  t.failovers <- t.failovers + 1

let close t = drop t

(* Has this endpoint applied everything we were ever acked? Bounded
   polling within roughly one deadline; [true] immediately when we have
   no commits to wait for. *)
let caught_up t c =
  if t.last_lsn = 0 then true
  else begin
    let polls = 20 in
    let pause = t.deadline_ms /. 1000. /. float_of_int polls in
    let rec go n =
      match Client.repl_status c with
      | Ok (_, _, applied) when applied >= t.last_lsn -> true
      | Ok _ when n > 0 ->
          Reactor.sleep pause;
          go (n - 1)
      | Ok _ -> false
      | Error _ -> false
    in
    go polls
  end

(* Dial endpoints round-robin until one accepts AND satisfies
   read-your-writes; short doubling pauses between full sweeps. *)
let ensure t =
  match t.conn with
  | Some c -> Ok c
  | None ->
      let n = Array.length t.endpoints in
      let attempts = (4 * n) + 4 in
      let rec go k =
        if k >= attempts then
          Result.Error
            (Client.Io
               (Printf.sprintf "no endpoint reachable after %d attempts"
                  attempts))
        else begin
          if k > 0 && k mod n = 0 then
            Reactor.sleep (Float.min 0.4 (0.05 *. float_of_int (k / n)));
          let e = t.endpoints.(t.cur) in
          match
            Client.connect ~host:e.host ~deadline_ms:t.deadline_ms
              ~port:e.port ()
          with
          | c ->
              if caught_up t c then begin
                t.conn <- Some c;
                Ok c
              end
              else begin
                (try Client.close c with _ -> ());
                rotate t;
                go (k + 1)
              end
          | exception (Client.Io_error _ | Client.Timed_out _) ->
              rotate t;
              go (k + 1)
        end
      in
      go 0

let rec with_conn t ~mutation ~attempts f =
  match ensure t with
  | Result.Error e -> Result.Error e
  | Ok c -> (
      match f c with
      | Ok v -> Ok v
      | Result.Error e -> (
          match e with
          | Client.Timeout _ | Client.Io _ ->
              (* The transport died under the request. For a read, move
                 on and re-ask; for a mutation the outcome is ambiguous
                 and must go back to the caller. *)
              drop t;
              rotate t;
              if mutation || attempts <= 1 then Result.Error e
              else with_conn t ~mutation ~attempts:(attempts - 1) f
          | Client.Read_only _ when mutation ->
              (* Cleanly refused — nothing applied; we are on a
                 standby. Retry towards the primary. *)
              rotate t;
              if attempts <= 1 then Result.Error e
              else with_conn t ~mutation ~attempts:(attempts - 1) f
          | Client.Overloaded _ when attempts > 1 ->
              Reactor.sleep 0.01;
              with_conn t ~mutation ~attempts:(attempts - 1) f
          | e -> Result.Error e))

let default_attempts t = (2 * Array.length t.endpoints) + 2

let read t f = with_conn t ~mutation:false ~attempts:(default_attempts t) f
let mutate t f = with_conn t ~mutation:true ~attempts:(default_attempts t) f

(* ---------------- typed conveniences ---------------- *)

let insert t ?id ivl = mutate t (fun c -> Client.insert c ?id ivl)
let intersect t ivl = read t (fun c -> Client.intersect c ivl)
let sql t text = read t (fun c -> Client.sql c text)
let begin_txn t = mutate t (fun c -> Client.begin_txn c)
let rollback t = mutate t (fun c -> Client.rollback c)
let repl_status t = read t (fun c -> Client.repl_status c)

let commit t =
  match mutate t (fun c -> Client.commit c) with
  | Ok lsn ->
      note_lsn t lsn;
      Ok lsn
  | Result.Error _ as e -> e
