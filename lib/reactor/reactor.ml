module Timers = Timers
module Writer = Writer

external fd_int : Unix.file_descr -> int = "%identity"

external poll_raw :
  int array -> int array -> int array -> int -> int -> int = "rikit_poll_stub"

let timeout_ms timeout =
  if timeout < 0. then -1
  else if timeout = 0. then 0
  else max 1 (int_of_float (ceil (timeout *. 1000.)))

let wait_fd fd dir ~timeout =
  let events = [| (match dir with `Read -> 1 | `Write -> 2) |] in
  poll_raw [| fd_int fd |] events [| 0 |] 1 (timeout_ms timeout) > 0

(* A registration. [slot] is its index in the poll arrays, or -1 once
   it is deregistered or replaced. *)
type entry = {
  fd : int;
  on_r : unit -> unit;
  on_w : unit -> unit;
  mutable slot : int;
}

(* The registry is poll's own input. Slots [0, n) hold one entry each:
   [fds.(i)] is its fd number, or -1 while it has no interest (poll
   skips a negative fd, so a hung-up fd that nobody watches cannot
   wake the loop), [events.(i)] its interest bits (1 = read,
   2 = write) and [revents.(i)] what the last poll reported. *)
type t = {
  mutable fds : int array;
  mutable events : int array;
  mutable revents : int array;
  mutable entries : entry array;
  mutable n : int;
  mutable slot_of : int array;  (* fd number -> slot, or -1 *)
  (* what one turn's poll reported, recorded before any callback runs;
     as long as [entries] *)
  mutable fired : entry array;
  mutable fired_bits : int array;
  timers : Timers.t;
  mutable turn : int;  (* run_once calls so far *)
}

type timer = Timers.timer

let nop () = ()
let vacant = { fd = -1; on_r = nop; on_w = nop; slot = -1 }

let create () =
  { fds = Array.make 16 (-1);
    events = Array.make 16 0;
    revents = Array.make 16 0;
    entries = Array.make 16 vacant;
    n = 0;
    slot_of = Array.make 64 (-1);
    fired = Array.make 16 vacant;
    fired_bits = Array.make 16 0;
    timers = Timers.create ();
    turn = 0 }

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slot t fd =
  let fd = fd_int fd in
  if fd < Array.length t.slot_of then t.slot_of.(fd) else -1

let set_events t i ev =
  t.events.(i) <- ev;
  t.fds.(i) <- (if ev = 0 then -1 else t.entries.(i).fd)

let register t fd ?readable ?writable () =
  let e =
    { fd = fd_int fd;
      on_r = Option.value readable ~default:nop;
      on_w = Option.value writable ~default:nop;
      slot = slot t fd }
  in
  if e.slot >= 0 then t.entries.(e.slot).slot <- -1
  else begin
    if t.n = Array.length t.entries then begin
      let len = 2 * t.n in
      t.fds <- grow t.fds len (-1);
      t.events <- grow t.events len 0;
      t.revents <- grow t.revents len 0;
      t.entries <- grow t.entries len vacant;
      t.fired <- Array.make len vacant;
      t.fired_bits <- Array.make len 0
    end;
    if e.fd >= Array.length t.slot_of then
      t.slot_of <- grow t.slot_of (2 * e.fd) (-1);
    e.slot <- t.n;
    t.slot_of.(e.fd) <- t.n;
    t.n <- t.n + 1
  end;
  t.entries.(e.slot) <- e;
  set_events t e.slot
    ((if readable = None then 0 else 1) lor if writable = None then 0 else 2)

(* Swap-remove: the last slot's entry moves into the hole. *)
let deregister t fd =
  let i = slot t fd in
  if i >= 0 then begin
    let last = t.n - 1 in
    let moved = t.entries.(last) in
    t.entries.(i).slot <- -1;
    t.slot_of.(fd_int fd) <- -1;
    t.entries.(i) <- moved;
    t.fds.(i) <- t.fds.(last);
    t.events.(i) <- t.events.(last);
    if i <> last then begin
      moved.slot <- i;
      t.slot_of.(moved.fd) <- i
    end;
    t.entries.(last) <- vacant;
    t.n <- last
  end

let is_registered t fd = slot t fd >= 0

let set_interest t fd bit v =
  let i = slot t fd in
  if i >= 0 then
    set_events t i
      (if v then t.events.(i) lor bit else t.events.(i) land lnot bit)

let set_read_interest t fd v = set_interest t fd 1 v
let set_write_interest t fd v = set_interest t fd 2 v

let after t delay f =
  Timers.add t.timers ~at:(Unix.gettimeofday () +. max 0. delay) f

let cancel t tm = Timers.cancel t.timers tm
let timer_count t = Timers.pending t.timers

(* A recorded report fires only an entry that is still registered and
   still wants that direction: an earlier callback or timer may have
   deregistered it, turned the interest off, or closed the fd and
   registered the reused number afresh. *)
let wants t e bit = e.slot >= 0 && t.events.(e.slot) land bit <> 0

let run_once ?(max_timeout = -1.) t =
  let timeout =
    match Timers.next_deadline t.timers with
    | None -> max_timeout
    | Some dl ->
        let left = max 0. (dl -. Unix.gettimeofday ()) in
        if max_timeout < 0. then left else min max_timeout left
  in
  (* a callback that grows the registry replaces [t.fired], not these *)
  let fired = t.fired and bits = t.fired_bits in
  let ready = ref 0 in
  if poll_raw t.fds t.events t.revents t.n (timeout_ms timeout) > 0 then
    for i = 0 to t.n - 1 do
      let b = t.revents.(i) land t.events.(i) in
      if b <> 0 then begin
        fired.(!ready) <- t.entries.(i);
        bits.(!ready) <- b;
        incr ready
      end
    done;
  let ready = !ready in
  (* Each turn starts its callbacks at a different ready fd. In slot
     order the same fd would go first on every turn: a request on it
     would never wait behind one that arrived in the same turn, and a
     request on the last fd always would. *)
  let first = if ready > 0 then t.turn mod ready else 0 in
  t.turn <- t.turn + 1;
  ignore (Timers.advance t.timers ~now:(Unix.gettimeofday ()));
  for j = 0 to ready - 1 do
    let k = if first + j < ready then first + j else first + j - ready in
    let e = fired.(k) and b = bits.(k) in
    if b land 1 <> 0 && wants t e 1 then e.on_r ();
    if b land 2 <> 0 && wants t e 2 then e.on_w ()
  done;
  (* a deregistered entry's callbacks must not outlive the turn here *)
  Array.fill fired 0 ready vacant

(* ---------------- fibers ---------------- *)

(* The one effect: park the current fiber. Its handler hands the
   registration function the fiber's reactor and a one-shot resumer,
   which whatever event it arranges calls exactly once. *)
type _ Effect.t += Suspend : (t -> ('a -> unit) -> unit) -> 'a Effect.t

let spawn t f =
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  register t (Effect.Deep.continue k))
          | _ -> None);
    }

(* Outside any fiber nothing handles [Suspend]: [fallback] does the
   same wait by blocking the calling thread. *)
let suspend register ~fallback =
  match Effect.perform (Suspend register) with
  | v -> v
  | exception Effect.Unhandled (Suspend _) -> fallback ()

let await_fd fd dir ~timeout =
  suspend
    ~fallback:(fun () -> wait_fd fd dir ~timeout)
    (fun t resume ->
      let timer = ref None in
      let finish ready =
        deregister t fd;
        Option.iter (cancel t) !timer;
        resume ready
      in
      (match dir with
      | `Read -> register t fd ~readable:(fun () -> finish true) ()
      | `Write -> register t fd ~writable:(fun () -> finish true) ());
      if timeout >= 0. then timer := Some (after t timeout (fun () -> finish false)))

let sleep d =
  suspend
    ~fallback:(fun () -> Unix.sleepf (Float.max 0. d))
    (fun t resume -> ignore (after t d resume))

let all thunks =
  let results = Array.make (List.length thunks) None in
  let run i f =
    results.(i) <- Some (match f () with v -> Ok v | exception e -> Error e)
  in
  if Array.length results > 1 then
    suspend
      ~fallback:(fun () -> List.iteri run thunks)
      (fun t resume ->
        let left = ref (Array.length results) in
        List.iteri
          (fun i f ->
            spawn t (fun () ->
                run i f;
                decr left;
                if !left = 0 then resume ()))
          thunks)
  else List.iteri run thunks;
  List.map
    (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
    (Array.to_list results)
