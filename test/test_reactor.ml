(* The event core in isolation: exact-timer firing discipline, the
   bounded non-blocking writer's backpressure contract, the poll(2)
   registry with the reactor loop running on it, and the fibers that
   park on that loop. *)

module R = Reactor
module W = Reactor.Writer
module T = Reactor.Timers

let check = Alcotest.check

(* writes to dead peers must surface as EPIPE, not kill the runner *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ---- timers ---- *)

let test_timers_order () =
  let w = T.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (T.add w ~at:0.030 (note "c"));
  ignore (T.add w ~at:0.010 (note "a"));
  ignore (T.add w ~at:0.020 (note "b"));
  check Alcotest.int "pending" 3 (T.pending w);
  ignore (T.advance w ~now:0.005);
  check (Alcotest.list Alcotest.string) "nothing early" [] !fired;
  ignore (T.advance w ~now:0.012);
  check (Alcotest.list Alcotest.string) "first due" [ "a" ] !fired;
  ignore (T.advance w ~now:0.100);
  check (Alcotest.list Alcotest.string) "rest in order" [ "c"; "b"; "a" ]
    !fired;
  check Alcotest.int "drained" 0 (T.pending w)

let test_timers_cancel () =
  let w = T.create () in
  let fired = ref 0 in
  let t1 = T.add w ~at:0.010 (fun () -> incr fired) in
  let t2 = T.add w ~at:0.010 (fun () -> incr fired) in
  T.cancel w t1;
  T.cancel w t1 (* double-cancel is a no-op *);
  check Alcotest.int "one left" 1 (T.pending w);
  ignore (T.advance w ~now:1.);
  T.cancel w t2 (* cancelling a fired timer is a no-op *);
  check Alcotest.int "only survivor fired" 1 !fired

let test_timers_past_deadline () =
  let w = T.create () in
  let fired = ref 0 in
  ignore (T.advance w ~now:10.);
  ignore (T.add w ~at:3. (fun () -> incr fired));
  check (Alcotest.option (Alcotest.float 0.)) "due now" (Some 10.)
    (T.next_deadline w);
  ignore (T.advance w ~now:10.01);
  check Alcotest.int "past deadline fires on the next advance" 1 !fired

let test_timers_reentrant_add () =
  let w = T.create () in
  let fired = ref [] in
  ignore
    (T.add w ~at:0.010 (fun () ->
         fired := "outer" :: !fired;
         ignore (T.add w ~at:0.020 (fun () -> fired := "inner" :: !fired))));
  ignore (T.advance w ~now:0.015);
  check (Alcotest.list Alcotest.string) "outer only" [ "outer" ] !fired;
  ignore (T.advance w ~now:0.050);
  check (Alcotest.list Alcotest.string) "inner after rearm"
    [ "inner"; "outer" ] !fired

(* Mass cancellation removes timers from every position in the heap;
   the live ones still fire, in deadline order. *)
let test_timers_mass_cancel () =
  let w = T.create () in
  let fired = ref [] in
  let timers =
    List.init 3000 (fun i ->
        let at = 0.001 *. float_of_int (1 + (i * 37 mod 100_000)) in
        (i, T.add w ~at (fun () -> fired := i :: !fired)))
  in
  List.iter (fun (i, tm) -> if i mod 300 <> 0 then T.cancel w tm) timers;
  check Alcotest.int "ten live" 10 (T.pending w);
  ignore (T.advance w ~now:200.);
  check
    Alcotest.(list int)
    "exactly the live ones fire, in order"
    (List.init 10 (fun k -> k * 300))
    (List.rev !fired)

(* Random deadlines, a random subset cancelled (removals from every
   position in the heap), then advanced in random steps: exactly the
   live timers fire, once each, in (deadline, insertion) order and
   never before their deadline, and next_deadline is the earliest live
   deadline. *)
let prop_timers_random =
  QCheck.Test.make ~count:200 ~name:"each timer fires once, on time"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (pair (float_bound_exclusive 600.) bool))
        (list_of_size Gen.(1 -- 60) (float_bound_exclusive 30.)))
    (fun (timers, steps) ->
      QCheck.assume (timers <> [] && steps <> []);
      let w = T.create () in
      let now = ref 0. in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (at, _) ->
            T.add w ~at (fun () -> fired := (i, at, !now) :: !fired))
          timers
      in
      List.iter2 (fun tm (_, cancel) -> if cancel then T.cancel w tm)
        handles timers;
      let expected =
        List.mapi (fun i (at, cancel) -> (i, at, cancel)) timers
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.map (fun (i, at, _) -> (i, at))
        |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
      in
      if T.pending w <> List.length expected then failwith "pending miscounts";
      (match (T.next_deadline w, expected) with
      | None, [] -> ()
      | Some d, (_, earliest) :: _ when d = earliest -> ()
      | Some d, _ -> failwith (Printf.sprintf "next_deadline %.4f" d)
      | None, _ -> failwith "no deadline with timers pending");
      List.iter
        (fun step ->
          now := !now +. step;
          ignore (T.advance w ~now:!now))
        steps;
      now := 700.;
      ignore (T.advance w ~now:!now);
      if List.rev_map (fun (i, at, _) -> (i, at)) !fired <> expected then
        failwith "wrong timers fired, or out of order";
      List.iter
        (fun (_, at, t) ->
          if t < at then
            failwith (Printf.sprintf "fired %.4f before deadline %.4f" t at))
        !fired;
      true)

let test_timers_fifo_ties () =
  let w = T.create () in
  let fired = ref [] in
  List.iter
    (fun tag -> ignore (T.add w ~at:0.010 (fun () -> fired := tag :: !fired)))
    [ "a"; "b"; "c" ];
  ignore (T.advance w ~now:0.010);
  check (Alcotest.list Alcotest.string) "insertion order" [ "a"; "b"; "c" ]
    (List.rev !fired)

(* A callback that adds a timer already due does not run it in the
   same advance — a callback re-arming itself at a past deadline would
   otherwise spin there — while older due timers still fire. *)
let test_timers_added_due () =
  let w = T.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore
    (T.add w ~at:0.010 (fun () ->
         note "outer" ();
         ignore (T.add w ~at:0.005 (note "inner"))));
  ignore (T.add w ~at:0.012 (note "older"));
  check Alcotest.int "two fired" 2 (T.advance w ~now:0.015);
  check (Alcotest.list Alcotest.string) "inner waits" [ "outer"; "older" ]
    (List.rev !fired);
  check Alcotest.int "one fired" 1 (T.advance w ~now:0.015);
  check (Alcotest.list Alcotest.string) "inner next"
    [ "outer"; "older"; "inner" ] (List.rev !fired)

(* A cancelled timer leaves nothing behind: a request deadline,
   cancelled once the answer arrived, once held its closure until the
   cursor passed its slot, and tripled the router's RSS. *)
let test_timers_cancel_frees () =
  let w = T.create () in
  ignore (T.add w ~at:1. ignore);
  let churn n =
    for i = 1 to n do
      let payload = ref i in
      T.cancel w (T.add w ~at:15. (fun () -> incr payload))
    done
  in
  let words () = Obj.reachable_words (Obj.repr w) in
  let idle = words () in
  churn 1_000;
  let after_1k = words () in
  churn 999_000;
  let after_1m = words () in
  check Alcotest.int "1 000 pairs leave nothing" idle after_1k;
  check Alcotest.bool
    (Printf.sprintf "1 000 000 pairs: %d words, 1 000 pairs: %d" after_1m
       after_1k)
    true (after_1m <= after_1k);
  check Alcotest.int "live timer kept" 1 (T.pending w)

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

(* A frame larger than the socket accepts at once is written in part;
   the rest stays owed, later pushes append behind it, and the peer
   receives every byte in order. *)
let test_writer_partial_write () =
  with_socketpair (fun a b ->
      Unix.set_nonblock b;
      let wr = W.create ~now:0. a in
      let big = Bytes.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
      ignore (W.push wr big);
      check Alcotest.bool "partial" true (W.flush wr ~now:1. = W.Pending);
      let owed = W.pending_bytes wr in
      check Alcotest.bool
        (Printf.sprintf "some written, some owed (%d owed)" owed)
        true
        (owed > 0 && owed < Bytes.length big);
      check Alcotest.bool "no stall right after progress" true
        (W.stalled_for wr ~now:1. = 0.);
      ignore (W.push wr (Bytes.of_string "tail"));
      check Alcotest.int "appended behind the owed bytes" (owed + 4)
        (W.pending_bytes wr);
      let got = Buffer.create (2 lsl 20) in
      let buf = Bytes.create 65536 in
      let rec drain guard =
        if guard = 0 then failwith "never drained";
        read_all_available b buf got;
        match W.flush wr ~now:2. with
        | W.Drained -> read_all_available b buf got
        | W.Pending -> drain (guard - 1)
        | W.Peer_gone -> failwith "peer alive"
      in
      drain 100_000;
      check Alcotest.bool "every byte, in order" true
        (Buffer.contents got = Bytes.to_string big ^ "tail"))

(* Past the high-water mark a protocol connection is cut off: its one
   typed Overloaded frame rides out past the mark, after the [Rows]
   answers already owed, which arrive as [encode_response] builds
   them. *)
let test_writer_overloaded_past_mark () =
  let r = R.create () in
  with_socketpair (fun a b ->
      let hw = 16 * 1024 in
      let c = Server.Conn.create r ~high_water:hw a in
      Server.Conn.serve c ignore;
      let rows = List.init 40 (fun i -> [| i; i + 1; i + 2 |]) in
      let answer =
        Server.Protocol.Rows { columns = [ "lower"; "upper"; "id" ]; rows }
      in
      let sent = ref 0 in
      while not c.cut_off do
        incr sent;
        if !sent > 1000 then Alcotest.fail "high-water mark never crossed";
        Server.Conn.send c ~id:(Int64.of_int !sent) answer
      done;
      check Alcotest.bool "closing" true c.closing;
      check Alcotest.bool "over the mark" true
        (W.pending_bytes c.wr > hw);
      let owed = W.pending_bytes c.wr in
      Server.Conn.send c ~id:99L answer;
      check Alcotest.int "nothing more once cut off" owed
        (W.pending_bytes c.wr);
      let got = Buffer.create 65536 in
      let buf = Bytes.create 65536 in
      Unix.set_nonblock b;
      let rec drain guard =
        if guard = 0 then failwith "never drained";
        read_all_available b buf got;
        match W.flush c.wr ~now:0. with
        | W.Drained -> read_all_available b buf got
        | _ -> drain (guard - 1)
      in
      drain 10_000;
      Server.Conn.close c;
      let stream = Buffer.to_bytes got in
      let frame1 = Server.Protocol.encode_response ~id:1L answer in
      check Alcotest.bool "a Rows frame is encode_response's bytes" true
        (Bytes.sub stream 0 (Bytes.length frame1) = frame1);
      let rec frames pos acc =
        if pos >= Bytes.length stream then List.rev acc
        else
          let n = Int32.to_int (Bytes.get_int32_be stream pos) in
          match
            Server.Protocol.decode_response (Bytes.sub stream (pos + 4) n)
          with
          | Ok (_, resp) -> frames (pos + 4 + n) (resp :: acc)
          | Error _ -> Alcotest.fail "undecodable frame"
      in
      match List.rev (frames 0 []) with
      | Server.Protocol.Overloaded _ :: answers ->
          check Alcotest.int "every owed answer first" !sent
            (List.length answers);
          check Alcotest.bool "all Rows" true
            (List.for_all (fun a -> a = answer) answers)
      | _ -> Alcotest.fail "the last frame is not Overloaded")

(* A drained buffer past 64 KB is released; a small one is kept for the
   next frame. *)
let test_writer_release_after_drain () =
  with_socketpair (fun a b ->
      Unix.set_nonblock b;
      let wr = W.create ~now:0. a in
      check Alcotest.int "nothing before the first push" 0 (W.capacity wr);
      let got = Buffer.create 65536 and buf = Bytes.create 65536 in
      let drain () =
        let rec go guard =
          if guard = 0 then failwith "never drained";
          read_all_available b buf got;
          match W.flush wr ~now:0. with
          | W.Drained -> read_all_available b buf got
          | _ -> go (guard - 1)
        in
        go 10_000
      in
      ignore (W.push wr (Bytes.make 100 's'));
      drain ();
      check Alcotest.int "a small buffer stays" 4096 (W.capacity wr);
      ignore (W.push wr (Bytes.make 200_000 'L'));
      check Alcotest.bool "grown for the large frame" true
        (W.capacity wr >= 200_000);
      drain ();
      check Alcotest.int "released once drained" 0 (W.capacity wr);
      check Alcotest.int "every byte arrived" 200_100 (Buffer.length got))

(* ---- wire words ----

   A request served through a [Conn] leaves almost nothing on the major
   heap: the read lands in the connection's framer and a [Rows] answer
   is encoded into the writer's buffer. The bound, 64 words per request,
   leaves room for what a minor collection promotes; a fresh 64 KB read
   buffer per request was 8 193 words. *)

let wire_data =
  lazy
    (let sh = Server.Session.shared () in
     Server.Session.preload sh
       (Workload.Distribution.generate ~seed:7 Workload.Distribution.D1
          ~n:2000 ~d:2000);
     sh)

let major_bound = 64.

let wire_case req ~min_rows () =
  let w = Testbed.wire_words (Lazy.force wire_data) req ~reps:2000 in
  (match w.answer with
  | Server.Protocol.Rows { rows; _ } ->
      check Alcotest.bool
        (Printf.sprintf "%d rows, at least %d" (List.length rows) min_rows)
        true
        (List.length rows >= min_rows)
  | Server.Protocol.Ack _ when min_rows = 0 -> ()
  | _ -> Alcotest.fail "unexpected answer");
  check Alcotest.bool
    (Printf.sprintf "%.1f major words per request (minor %.0f), bound %.0f"
       w.major w.minor major_bound)
    true (w.major <= major_bound)

(* ---- the poll registry ---- *)

(* One turn that must not wait: every fd under test is ready. *)
let turn r = R.run_once ~max_timeout:1. r

let test_poll_readiness () =
  let r = R.create () in
  with_socketpair (fun a b ->
      let fired = ref [] in
      let note d () = fired := d :: !fired in
      let take () =
        let l = List.rev !fired in
        fired := [];
        l
      in
      R.register r a ~readable:(note `R) ~writable:(note `W) ();
      (* empty socket, read interest only: nothing fires, the timeout
         is honoured *)
      R.set_write_interest r a false;
      let t0 = Unix.gettimeofday () in
      R.run_once ~max_timeout:0.05 r;
      check Alcotest.bool "quiet fd times out" true (take () = []);
      check Alcotest.bool "timeout actually waited" true
        (Unix.gettimeofday () -. t0 >= 0.04);
      let t0 = Unix.gettimeofday () in
      check Alcotest.bool "wait_fd times out" false
        (R.wait_fd a `Read ~timeout:0.05);
      check Alcotest.bool "wait_fd waited" true
        (Unix.gettimeofday () -. t0 >= 0.04);
      (* a writable socket reports writable, and only that *)
      R.set_read_interest r a false;
      R.set_write_interest r a true;
      turn r;
      check Alcotest.bool "writable fd" true (take () = [ `W ]);
      check Alcotest.bool "wait_fd write" true
        (R.wait_fd a `Write ~timeout:1.);
      (* data pending: readable, and only the armed direction, though
         the socket is writable too *)
      ignore (Unix.write b (Bytes.of_string "hi") 0 2);
      R.set_write_interest r a false;
      R.set_read_interest r a true;
      turn r;
      check Alcotest.bool "readable fd" true (take () = [ `R ]);
      check Alcotest.bool "wait_fd read" true (R.wait_fd a `Read ~timeout:1.);
      (* peer close: readable (EOF) *)
      let buf = Bytes.create 8 in
      ignore (Unix.read a buf 0 8);
      Unix.close b;
      turn r;
      check Alcotest.bool "EOF is readable" true (take () = [ `R ]);
      check Alcotest.bool "wait_fd EOF" true (R.wait_fd a `Read ~timeout:1.);
      (* the hung-up fd with no interest left does not cut a wait short *)
      R.set_read_interest r a false;
      let t0 = Unix.gettimeofday () in
      R.run_once ~max_timeout:0.05 r;
      check Alcotest.bool "no interest, no wakeup" true
        (take () = [] && Unix.gettimeofday () -. t0 >= 0.04);
      R.deregister r a)

(* [k] socketpairs whose near ends are readable (a byte waits in each)
   and writable. *)
let with_ready_pairs k f =
  let pairs =
    List.init k (fun _ ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        ignore (Unix.write_substring b "x" 0 1);
        (a, b))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (a, b) ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        pairs)
    (fun () -> f (Array.of_list (List.map fst pairs)))

(* Two fds ready in one turn; whichever callback runs first applies
   [mutate] to the other one, which then must not fire. *)
let same_turn_mutation mutate () =
  let r = R.create () in
  with_ready_pairs 2 (fun fds ->
      let fired = ref 0 in
      for turn_no = 0 to 1 do
        Array.iteri
          (fun i fd ->
            R.register r fd
              ~readable:(fun () ->
                incr fired;
                mutate r fds.(1 - i))
              ())
          fds;
        fired := 0;
        turn r;
        check Alcotest.int
          (Printf.sprintf "turn %d: one callback" turn_no)
          1 !fired
      done)

let test_deregister_same_turn =
  same_turn_mutation (fun r fd -> R.deregister r fd)

let test_interest_off_same_turn =
  same_turn_mutation (fun r fd -> R.set_read_interest r fd false)

(* A read callback closes its own fd and registers a new one that gets
   the same number: the old entry's write report is stale and must not
   fire the new entry's write callback. *)
let test_reused_fd_number () =
  let r = R.create () in
  let idle_r, idle_w = Unix.pipe () in
  with_ready_pairs 1 (fun fds ->
      let fd = fds.(0) in
      let log = ref [] in
      let note s () = log := s :: !log in
      R.register r fd
        ~readable:(fun () ->
          note "old r" ();
          Unix.close fd;
          (* the same number, now an idle pipe's read end *)
          Unix.dup2 idle_r fd;
          R.register r fd ~readable:(note "new r") ~writable:(note "new w") ())
        ~writable:(note "old w") ();
      turn r;
      check Alcotest.(list string) "only the old read callback" [ "old r" ]
        (List.rev !log);
      check Alcotest.bool "the new entry is registered" true
        (R.is_registered r fd);
      R.deregister r fd);
  Unix.close idle_r;
  Unix.close idle_w

(* With k fds ready on every turn, k turns serve each one first once. *)
let test_rotation () =
  let r = R.create () in
  let k = 5 in
  with_ready_pairs k (fun fds ->
      let order = ref [] in
      Array.iteri
        (fun i fd -> R.register r fd ~readable:(fun () -> order := i :: !order) ())
        fds;
      let firsts =
        List.init k (fun _ ->
            order := [];
            turn r;
            let served = List.rev !order in
            check Alcotest.int "all served" k (List.length served);
            List.hd served)
      in
      check Alcotest.(list int) "each fd first exactly once"
        (List.init k Fun.id) (List.sort compare firsts))

(* Random register/deregister/interest toggles against a model: after
   each step [is_registered] agrees with it, and one turn with every fd
   ready fires exactly the callbacks it predicts, of the current
   registration. *)
type churn =
  | Reg of int * bool * bool
  | Dereg of int
  | Interest of int * [ `R | `W ] * bool

let churn_gen =
  QCheck.Gen.(
    let fd = int_bound 5 in
    frequency
      [ (3, map3 (fun i r w -> Reg (i, r, w)) fd bool bool);
        (2, map (fun i -> Dereg i) fd);
        (4,
         map3
           (fun i d v -> Interest (i, (if d then `R else `W), v))
           fd bool bool) ])

let churn_print = function
  | Reg (i, r, w) -> Printf.sprintf "reg %d r=%b w=%b" i r w
  | Dereg i -> Printf.sprintf "dereg %d" i
  | Interest (i, d, v) ->
      Printf.sprintf "%s %d %b" (if d = `R then "read" else "write") i v

let prop_registry_churn =
  QCheck.Test.make ~count:150 ~name:"registry churn = model"
    QCheck.(
      make ~print:(Print.list churn_print) Gen.(list_size (1 -- 40) churn_gen))
    (fun steps ->
      let r = R.create () in
      with_ready_pairs 6 (fun fds ->
          (* model: fd index -> (generation, has r cb, has w cb, want r, want w) *)
          let model = Hashtbl.create 8 in
          let fired = ref [] in
          let gen = ref 0 in
          List.for_all
            (fun step ->
              (match step with
              | Reg (i, rd, wr) ->
                  incr gen;
                  let g = !gen in
                  let cb d = Some (fun () -> fired := (i, g, d) :: !fired) in
                  R.register r fds.(i)
                    ?readable:(if rd then cb `R else None)
                    ?writable:(if wr then cb `W else None)
                    ();
                  Hashtbl.replace model i (g, rd, wr, rd, wr)
              | Dereg i ->
                  R.deregister r fds.(i);
                  Hashtbl.remove model i
              | Interest (i, d, v) -> (
                  (if d = `R then R.set_read_interest else R.set_write_interest)
                    r fds.(i) v;
                  match Hashtbl.find_opt model i with
                  | Some (g, cr, cw, wr_, ww) ->
                      Hashtbl.replace model i
                        (if d = `R then (g, cr, cw, v, ww) else (g, cr, cw, wr_, v))
                  | None -> ()));
              let registered_ok =
                Array.for_all Fun.id
                  (Array.mapi
                     (fun i fd -> R.is_registered r fd = Hashtbl.mem model i)
                     fds)
              in
              fired := [];
              R.run_once ~max_timeout:0. r;
              let expected =
                Hashtbl.fold
                  (fun i (g, cr, cw, wr_, ww) acc ->
                    (if cr && wr_ then [ (i, g, `R) ] else [])
                    @ (if cw && ww then [ (i, g, `W) ] else [])
                    @ acc)
                  model []
              in
              registered_ok
              && List.sort compare !fired = List.sort compare expected)
            steps))

(* A turn allocates nothing per registered fd: with one fd ready among
   400 idle ones (dups of one idle pipe's read end) it allocates no
   major-heap word, and the same minor words as among 10. *)
let turn_words ~idle =
  let r = R.create () in
  let idle_r, idle_w = Unix.pipe () in
  let dups = List.init idle (fun _ -> Unix.dup idle_r) in
  List.iter (fun fd -> R.register r fd ~readable:ignore ()) dups;
  let ready_r, ready_w = Unix.pipe () in
  ignore (Unix.write_substring ready_w "x" 0 1);
  let fired = ref 0 in
  R.register r ready_r ~readable:(fun () -> incr fired) ();
  for _ = 1 to 10 do
    turn r
  done;
  let turns = 1000 in
  Gc.minor ();
  let minor0, _, major0 = Gc.counters () in
  for _ = 1 to turns do
    turn r
  done;
  let minor1, _, major1 = Gc.counters () in
  List.iter Unix.close (idle_r :: idle_w :: ready_r :: ready_w :: dups);
  check Alcotest.int "one callback per turn" (turns + 10) !fired;
  let per w = w /. float_of_int turns in
  (per (minor1 -. minor0), per (major1 -. major0))

let test_turn_allocation () =
  let minor10, _ = turn_words ~idle:10 in
  let minor400, major400 = turn_words ~idle:400 in
  check Alcotest.bool
    (Printf.sprintf "< 1 major word per turn over 400 idle fds (%.2f)" major400)
    true (major400 < 1.);
  check Alcotest.bool
    (Printf.sprintf "minor words per turn: 10 idle %.2f, 400 idle %.2f" minor10
       minor400)
    true
    (minor400 <= minor10 +. 0.5)

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

(* A fiber sends without parking: on a socket with room the write goes
   out at once, so the frame is on the wire when [spawn] returns,
   before the loop ever turns. *)
let test_fiber_client_send () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let c = Server.Client.connect ~deadline_ms:1000. ~port () in
  let peer, _ = Unix.accept lfd in
  Fun.protect
    ~finally:(fun () ->
      Server.Client.close c;
      Unix.close peer;
      Unix.close lfd)
    (fun () ->
      let r = R.create () in
      R.spawn r (fun () -> Server.Client.send c Server.Protocol.Ping);
      check Alcotest.bool "frame on the wire before any turn" true
        (R.wait_fd peer `Read ~timeout:0.);
      let rec read_n buf off n =
        if n > 0 then
          match Unix.read peer buf off n with
          | 0 -> Alcotest.fail "peer saw EOF"
          | k -> read_n buf (off + k) (n - k)
      in
      let header = Bytes.create 4 in
      read_n header 0 4;
      let payload = Bytes.create (Int32.to_int (Bytes.get_int32_be header 0)) in
      read_n payload 0 (Bytes.length payload);
      match Server.Protocol.decode_request payload with
      | Ok (_, Server.Protocol.Ping) -> ()
      | _ -> Alcotest.fail "expected a Ping frame")

let () =
  Alcotest.run "reactor"
    [
      ("exact-timer",
       [ Alcotest.test_case "fires in deadline order" `Quick
           test_timers_order;
         Alcotest.test_case "cancel is idempotent" `Quick
           test_timers_cancel;
         Alcotest.test_case "past deadlines fire at once" `Quick
           test_timers_past_deadline;
         Alcotest.test_case "callbacks may re-arm" `Quick
           test_timers_reentrant_add;
         Alcotest.test_case "mass cancel, live timers survive" `Quick
           test_timers_mass_cancel;
         QCheck_alcotest.to_alcotest prop_timers_random;
         Alcotest.test_case "equal deadlines: insertion order" `Quick
           test_timers_fifo_ties;
         Alcotest.test_case "added while due: next advance" `Quick
           test_timers_added_due;
         Alcotest.test_case "cancelled timers are not retained" `Quick
           test_timers_cancel_frees ]);
      ("writer",
       [ Alcotest.test_case "high-water backpressure" `Quick
           test_writer_backpressure;
         Alcotest.test_case "peer gone" `Quick test_writer_peer_gone;
         Alcotest.test_case "empty frame is skipped" `Quick
           test_writer_empty_frame;
         QCheck_alcotest.to_alcotest prop_writer_roundtrip;
         Alcotest.test_case "partial write" `Quick test_writer_partial_write;
         Alcotest.test_case "Overloaded past the high-water mark" `Quick
           test_writer_overloaded_past_mark;
         Alcotest.test_case "large buffer released after drain" `Quick
           test_writer_release_after_drain ]);
      ("wire words",
       [ Alcotest.test_case "PING" `Quick
           (wire_case Server.Protocol.Ping ~min_rows:0);
         Alcotest.test_case "point Intersect" `Quick
           (wire_case
              (Server.Protocol.Intersect { lower = 500_000; upper = 500_000 })
              ~min_rows:1);
         Alcotest.test_case "Intersect of 150+ rows" `Quick
           (wire_case
              (Server.Protocol.Intersect { lower = 500_000; upper = 600_000 })
              ~min_rows:150) ]);
      ("poll",
       [ Alcotest.test_case "readiness" `Quick test_poll_readiness;
         Alcotest.test_case "reactor loop" `Quick test_reactor_loop;
         Alcotest.test_case "deregistered in the turn" `Quick
           test_deregister_same_turn;
         Alcotest.test_case "interest off in the turn" `Quick
           test_interest_off_same_turn;
         Alcotest.test_case "reused fd number" `Quick test_reused_fd_number;
         Alcotest.test_case "each ready fd first in turn" `Quick test_rotation;
         QCheck_alcotest.to_alcotest prop_registry_churn;
         Alcotest.test_case "no allocation per idle fd" `Quick
           test_turn_allocation ]);
      ("fibers",
       [ Alcotest.test_case "await_fd: readiness and timeout" `Quick
           test_fiber_await;
         Alcotest.test_case "sleep" `Quick test_fiber_sleep;
         Alcotest.test_case "all: input order, interleaved" `Quick
           test_fiber_all;
         Alcotest.test_case "outside a fiber: blocking waits" `Quick
           test_fiber_fallback;
         Alcotest.test_case "Client.send writes without parking" `Quick
           test_fiber_client_send ]);
    ]
