(* The event core in isolation: timer-wheel firing discipline, the
   bounded non-blocking writer's backpressure contract, the poll(2)
   readiness backend with the reactor loop running on it, and the
   fibers that park on that loop. *)

module R = Reactor
module B = Reactor.Backend
module W = Reactor.Writer
module TW = Reactor.Timer_wheel

let check = Alcotest.check

(* writes to dead peers must surface as EPIPE, not kill the runner *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ---- timer wheel ---- *)

let test_wheel_order () =
  let w = TW.create ~now:0. in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (TW.add w ~now:0. ~at:0.030 (note "c"));
  ignore (TW.add w ~now:0. ~at:0.010 (note "a"));
  ignore (TW.add w ~now:0. ~at:0.020 (note "b"));
  check Alcotest.int "pending" 3 (TW.pending w);
  ignore (TW.advance w ~now:0.005);
  check (Alcotest.list Alcotest.string) "nothing early" [] !fired;
  ignore (TW.advance w ~now:0.012);
  check (Alcotest.list Alcotest.string) "first due" [ "a" ] !fired;
  ignore (TW.advance w ~now:0.100);
  check (Alcotest.list Alcotest.string) "rest in order" [ "c"; "b"; "a" ]
    !fired;
  check Alcotest.int "drained" 0 (TW.pending w)

let test_wheel_cancel () =
  let w = TW.create ~now:0. in
  let fired = ref 0 in
  let t1 = TW.add w ~now:0. ~at:0.010 (fun () -> incr fired) in
  let t2 = TW.add w ~now:0. ~at:0.010 (fun () -> incr fired) in
  TW.cancel w t1;
  TW.cancel w t1 (* double-cancel is a no-op *);
  check Alcotest.int "one left" 1 (TW.pending w);
  ignore (TW.advance w ~now:1.);
  TW.cancel w t2 (* cancelling a fired timer is a no-op *);
  check Alcotest.int "only survivor fired" 1 !fired

let test_wheel_past_deadline () =
  let w = TW.create ~now:10. in
  let fired = ref 0 in
  ignore (TW.add w ~now:10. ~at:3. (fun () -> incr fired));
  ignore (TW.advance w ~now:10.01);
  check Alcotest.int "past deadline fires on the next tick" 1 !fired

let test_wheel_reentrant_add () =
  let w = TW.create ~now:0. in
  let fired = ref [] in
  ignore
    (TW.add w ~now:0. ~at:0.010 (fun () ->
         fired := "outer" :: !fired;
         ignore
           (TW.add w ~now:0.010 ~at:0.020 (fun () ->
                fired := "inner" :: !fired))));
  ignore (TW.advance w ~now:0.015);
  check (Alcotest.list Alcotest.string) "outer only" [ "outer" ] !fired;
  ignore (TW.advance w ~now:0.050);
  check (Alcotest.list Alcotest.string) "inner after rearm"
    [ "inner"; "outer" ] !fired

(* Mass cancellation sweeps the wheel (cancelled timers must not pile
   up in far slots holding their closures); the sweep keeps every live
   timer, on every level. *)
let test_wheel_sweep_keeps_live () =
  let w = TW.create ~now:0. in
  let fired = ref [] in
  let timers =
    List.init 3000 (fun i ->
        let at = 0.001 *. float_of_int (1 + (i * 37 mod 100_000)) in
        (i, TW.add w ~now:0. ~at (fun () -> fired := i :: !fired)))
  in
  List.iter (fun (i, tm) -> if i mod 300 <> 0 then TW.cancel w tm) timers;
  check Alcotest.int "ten live" 10 (TW.pending w);
  ignore (TW.advance w ~now:200.);
  check
    Alcotest.(list int)
    "exactly the live ones fire"
    (List.init 10 (fun k -> k * 300))
    (List.sort compare !fired)

(* Random deadlines across cascade boundaries, advanced in random
   steps: every timer fires exactly once, never before it is due
   (modulo the 1 ms tick), and next_deadline never overshoots the true
   earliest deadline. *)
let prop_wheel_random =
  QCheck.Test.make ~count:200 ~name:"wheel fires each timer once, on time"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 600.))
        (list_of_size Gen.(1 -- 60) (float_bound_exclusive 30.)))
    (fun (deadlines, steps) ->
      QCheck.assume (deadlines <> [] && steps <> []);
      let w = TW.create ~now:0. in
      let now = ref 0. in
      let fire_times = Hashtbl.create 16 in
      List.iteri
        (fun i at ->
          ignore
            (TW.add w ~now:0. ~at (fun () ->
                 if Hashtbl.mem fire_times i then failwith "double fire";
                 Hashtbl.add fire_times i !now)))
        deadlines;
      (match TW.next_deadline w with
      | None -> failwith "no deadline with timers pending"
      | Some d ->
          let earliest = List.fold_left min infinity deadlines in
          if d > earliest +. 0.001 then failwith "next_deadline overshoots");
      List.iter
        (fun step ->
          now := !now +. step;
          ignore (TW.advance w ~now:!now))
        steps;
      now := 700.;
      ignore (TW.advance w ~now:!now);
      List.iteri
        (fun i at ->
          match Hashtbl.find_opt fire_times i with
          | None -> failwith "timer never fired"
          | Some t ->
              if t +. 0.0011 < at then
                failwith
                  (Printf.sprintf "fired %.4f before deadline %.4f" t at))
        deadlines;
      true)

(* ---- bounded writer ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let read_all_available fd buf acc =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes acc buf 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
  in
  go ()

let test_writer_backpressure () =
  with_socketpair (fun a b ->
      let hw = 64 * 1024 in
      let wr = W.create ~high_water:hw ~now:0. a in
      let frame = Bytes.make 4096 'x' in
      (* the peer is not reading: pushes succeed (queued) until the
         buffer crosses the high-water mark, then report pressure *)
      let rec fill n =
        if W.push wr frame then (
          ignore (W.flush wr ~now:0.);
          if n > 10_000 then failwith "high-water mark never reported";
          fill (n + 1))
      in
      fill 0;
      check Alcotest.bool "over high water" true (W.pending_bytes wr > 0);
      check Alcotest.bool "max_buffered tracks the peak" true
        (W.max_buffered wr >= W.pending_bytes wr);
      (* one last typed frame may ride out past the mark *)
      check Alcotest.bool "post-HW push still queues" false
        (W.push wr (Bytes.of_string "OVERLOADED"));
      check Alcotest.bool "stalled clock runs while pending" true
        (W.stalled_for wr ~now:5. >= 5.);
      (* now drain: peer reads, flush until Drained; bytes survive *)
      Unix.set_nonblock b;
      let got = Buffer.create (256 * 1024) in
      let buf = Bytes.create 8192 in
      let rec drain guard =
        if guard = 0 then failwith "never drained";
        match W.flush wr ~now:10. with
        | W.Drained -> read_all_available b buf got
        | W.Pending ->
            read_all_available b buf got;
            drain (guard - 1)
        | W.Peer_gone -> failwith "peer alive"
      in
      drain 1_000_000;
      check Alcotest.int "stalled_for resets when drained" 0
        (int_of_float (W.stalled_for wr ~now:20.));
      let s = Buffer.contents got in
      check Alcotest.bool "all queued bytes arrived in order" true
        (String.length s > hw
        && String.sub s (String.length s - 10) 10 = "OVERLOADED"))

let test_writer_peer_gone () =
  with_socketpair (fun a b ->
      let wr = W.create ~high_water:1024 ~now:0. a in
      Unix.close b;
      ignore (W.push wr (Bytes.make 4096 'y'));
      let rec poke n =
        if n = 0 then failwith "Peer_gone never reported"
        else
          match W.flush wr ~now:0. with
          | W.Peer_gone -> ()
          | W.Drained | W.Pending ->
              ignore (W.push wr (Bytes.make 4096 'y'));
              poke (n - 1)
      in
      poke 100)

(* A zero-length frame carries nothing to write: it must not leave the
   writer reporting Pending (with write interest on) forever. *)
let test_writer_empty_frame () =
  with_socketpair (fun a b ->
      Unix.set_nonblock b;
      let wr = W.create ~now:0. a in
      ignore (W.push wr Bytes.empty);
      ignore (W.push wr (Bytes.of_string "frame"));
      let flushed = W.flush wr ~now:0. in
      check Alcotest.bool "drained" true (flushed = W.Drained);
      check Alcotest.bool "nothing pending" false (W.has_pending wr);
      let got = Buffer.create 16 in
      read_all_available b (Bytes.create 64) got;
      check Alcotest.string "peer got the non-empty bytes" "frame"
        (Buffer.contents got))

(* Random frames pushed and flushed against a randomly-pacing reader:
   the peer receives exactly the concatenation, in order. *)
let prop_writer_roundtrip =
  QCheck.Test.make ~count:60 ~name:"writer delivers frames intact, in order"
    QCheck.(list_of_size Gen.(1 -- 30) (string_of_size Gen.(0 -- 5000)))
    (fun frames ->
      with_socketpair (fun a b ->
          Unix.set_nonblock b;
          let wr = W.create ~high_water:8192 ~now:0. a in
          let got = Buffer.create 65536 in
          let buf = Bytes.create 4096 in
          List.iteri
            (fun i f ->
              ignore (W.push wr (Bytes.of_string f));
              if i mod 3 = 0 then begin
                ignore (W.flush wr ~now:0.);
                read_all_available b buf got
              end)
            frames;
          let rec drain guard =
            if guard = 0 then failwith "never drained";
            match W.flush wr ~now:0. with
            | W.Drained -> read_all_available b buf got
            | W.Pending ->
                read_all_available b buf got;
                drain (guard - 1)
            | W.Peer_gone -> failwith "peer alive"
          in
          drain 1_000_000;
          Buffer.contents got = String.concat "" frames))

(* ---- poll backend ---- *)

let test_poll_readiness () =
  with_socketpair (fun a b ->
      (* empty socket: read not ready, timeout honoured *)
      let t0 = Unix.gettimeofday () in
      let r = B.wait [| (a, true, false) |] ~timeout:0.05 in
      check Alcotest.bool "quiet fd times out" true (r = []);
      check Alcotest.bool
        "timeout actually waited"
        true
        (Unix.gettimeofday () -. t0 >= 0.04);
      (* a writable socket reports writable *)
      (match B.wait [| (a, false, true) |] ~timeout:1. with
      | [ (fd, rd, wrt) ] ->
          check Alcotest.bool "writable fd" true
            (fd = a && wrt && not rd)
      | _ -> Alcotest.fail "expected one writable entry");
      (* data pending: readable, and only the armed direction *)
      ignore (Unix.write b (Bytes.of_string "hi") 0 2);
      (match B.wait [| (a, true, false) |] ~timeout:1. with
      | [ (fd, rd, wrt) ] ->
          check Alcotest.bool "readable fd" true
            (fd = a && rd && not wrt)
      | _ -> Alcotest.fail "expected one readable entry");
      (* wait_fd agrees *)
      check Alcotest.bool "wait_fd read" true
        (B.wait_fd a `Read ~timeout:1.);
      (* peer close: readable (EOF) *)
      let buf = Bytes.create 8 in
      ignore (Unix.read a buf 0 8);
      Unix.close b;
      check Alcotest.bool "EOF is readable" true
        (B.wait_fd a `Read ~timeout:1.))

(* Timers fire, fd callbacks fire, interest toggles work — the loop
   every server component runs on. *)
let test_reactor_loop () =
  let r = R.create () in
  with_socketpair (fun a b ->
      let got = Buffer.create 16 in
      let timer_fired = ref false in
      let buf = Bytes.create 64 in
      R.register r a
        ~readable:(fun () ->
          match Unix.read a buf 0 64 with
          | n -> Buffer.add_subbytes got buf 0 n
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ())
        ();
      ignore (R.after r 0.02 (fun () -> timer_fired := true));
      ignore (Unix.write b (Bytes.of_string "ping") 0 4);
      let deadline = Unix.gettimeofday () +. 5. in
      while
        (Buffer.length got < 4 || not !timer_fired)
        && Unix.gettimeofday () < deadline
      do
        R.run_once ~max_timeout:0.1 r
      done;
      check Alcotest.string "fd callback saw the bytes" "ping"
        (Buffer.contents got);
      check Alcotest.bool "timer fired" true !timer_fired;
      (* interest off: new bytes do not invoke the callback *)
      R.set_read_interest r a false;
      ignore (Unix.write b (Bytes.of_string "x") 0 1);
      R.run_once ~max_timeout:0.05 r;
      check Alcotest.string "interest off is quiet" "ping"
        (Buffer.contents got);
      R.set_read_interest r a true;
      let deadline = Unix.gettimeofday () +. 5. in
      while Buffer.length got < 5 && Unix.gettimeofday () < deadline do
        R.run_once ~max_timeout:0.1 r
      done;
      check Alcotest.string "interest back on delivers" "pingx"
        (Buffer.contents got);
      R.deregister r a;
      check Alcotest.bool "deregistered" false
        (R.is_registered r a))

(* ---- fibers ---- *)

let run_until r cond =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    R.run_once ~max_timeout:0.05 r
  done

let since t0 = Unix.gettimeofday () -. t0

(* A parked fiber resumes with [true] on readiness and with [false] at
   its timeout; either way its registration and timer are gone. *)
let test_fiber_await () =
  let r = R.create () in
  with_socketpair (fun a b ->
      let ready = ref None and timed = ref None in
      R.spawn r (fun () -> ready := Some (R.await_fd a `Read ~timeout:5.));
      R.spawn r (fun () ->
          let t0 = Unix.gettimeofday () in
          let v = R.await_fd b `Read ~timeout:0.05 in
          timed := Some (v, since t0));
      check Alcotest.(option bool) "parked, not blocked" None !ready;
      run_until r (fun () -> !timed <> None);
      (match !timed with
      | Some (v, dt) ->
          check Alcotest.bool "timeout resumes with false" false v;
          check Alcotest.bool
            (Printf.sprintf "not before the timeout (%.3f s)" dt)
            true (dt >= 0.045)
      | None -> Alcotest.fail "timeout never fired");
      check Alcotest.(option bool) "still parked while unreadable" None
        !ready;
      ignore (Unix.write b (Bytes.of_string "x") 0 1);
      run_until r (fun () -> !ready <> None);
      check Alcotest.(option bool) "readiness resumes with true" (Some true)
        !ready;
      check Alcotest.bool "registrations released" false
        (R.is_registered r a || R.is_registered r b);
      check Alcotest.int "timers released" 0 (R.timer_count r))

let test_fiber_sleep () =
  let r = R.create () in
  let slept = ref None in
  R.spawn r (fun () ->
      let t0 = Unix.gettimeofday () in
      R.sleep 0.05;
      slept := Some (since t0));
  check Alcotest.bool "parked" true (!slept = None);
  run_until r (fun () -> !slept <> None);
  match !slept with
  | Some dt ->
      check Alcotest.bool
        (Printf.sprintf "resumed after its delay (%.3f s)" dt)
        true (dt >= 0.045 && dt < 1.)
  | None -> Alcotest.fail "sleep never resumed"

(* The thunks run as interleaved fibers — the log shows each one
   parking while the others proceed — and the results still come back
   in input order; an exception waits for the join, then surfaces. *)
let test_fiber_all () =
  let r = R.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let result = ref None and raised = ref false in
  R.spawn r (fun () ->
      let got =
        R.all
          [ (fun () -> note "a0"; R.sleep 0.06; note "a1"; "a");
            (fun () -> note "b0"; R.sleep 0.02; note "b1"; "b");
            (fun () -> note "c0"; "c") ]
      in
      (match R.all [ (fun () -> R.sleep 0.01; raise Exit); (fun () -> ()) ]
       with
      | _ -> ()
      | exception Exit -> raised := true);
      result := Some got);
  check Alcotest.bool "parent parked on the join" true (!result = None);
  run_until r (fun () -> !result <> None);
  check
    Alcotest.(option (list string))
    "input order" (Some [ "a"; "b"; "c" ]) !result;
  check
    Alcotest.(list string)
    "interleaved" [ "a0"; "b0"; "c0"; "b1"; "a1" ] (List.rev !log);
  check Alcotest.bool "child exception re-raised after the join" true
    !raised

(* No fiber, no reactor: the same calls block the calling thread. *)
let test_fiber_fallback () =
  with_socketpair (fun a b ->
      ignore (Unix.write b (Bytes.of_string "x") 0 1);
      check Alcotest.bool "readable fd" true (R.await_fd a `Read ~timeout:1.);
      let t0 = Unix.gettimeofday () in
      check Alcotest.bool "timeout" false (R.await_fd b `Read ~timeout:0.05);
      check Alcotest.bool "waited out the timeout" true (since t0 >= 0.045);
      let t0 = Unix.gettimeofday () in
      R.sleep 0.02;
      check Alcotest.bool "sleep blocks" true (since t0 >= 0.019);
      check
        Alcotest.(list int)
        "all runs in order" [ 1; 2 ]
        (R.all [ (fun () -> 1); (fun () -> 2) ]))

let () =
  Alcotest.run "reactor"
    [
      ("timer-wheel",
       [ Alcotest.test_case "fires in deadline order" `Quick
           test_wheel_order;
         Alcotest.test_case "cancel is O(1) and idempotent" `Quick
           test_wheel_cancel;
         Alcotest.test_case "past deadlines fire at once" `Quick
           test_wheel_past_deadline;
         Alcotest.test_case "callbacks may re-arm" `Quick
           test_wheel_reentrant_add;
         Alcotest.test_case "mass cancel sweeps, live timers survive" `Quick
           test_wheel_sweep_keeps_live;
         QCheck_alcotest.to_alcotest prop_wheel_random ]);
      ("writer",
       [ Alcotest.test_case "high-water backpressure" `Quick
           test_writer_backpressure;
         Alcotest.test_case "peer gone" `Quick test_writer_peer_gone;
         Alcotest.test_case "empty frame is skipped" `Quick
           test_writer_empty_frame;
         QCheck_alcotest.to_alcotest prop_writer_roundtrip ]);
      ("poll",
       [ Alcotest.test_case "readiness" `Quick test_poll_readiness;
         Alcotest.test_case "reactor loop" `Quick test_reactor_loop ]);
      ("fibers",
       [ Alcotest.test_case "await_fd: readiness and timeout" `Quick
           test_fiber_await;
         Alcotest.test_case "sleep" `Quick test_fiber_sleep;
         Alcotest.test_case "all: input order, interleaved" `Quick
           test_fiber_all;
         Alcotest.test_case "outside a fiber: blocking waits" `Quick
           test_fiber_fallback ]);
    ]
