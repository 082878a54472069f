let slot_bits = 8
let slots = 1 lsl slot_bits (* 256 *)
let levels = 4
let capacity = 1 lsl (slot_bits * levels) (* ticks; ≈ 49.7 days at 1 ms *)
let tick_ms = 1. /. 1000.

type timer = {
  mutable t_active : bool;
  mutable t_tick : int; (* absolute due tick *)
  t_f : unit -> unit;
}

type t = {
  epoch : float;
  mutable cur : int; (* last fully-processed tick *)
  wheel : timer list array array; (* levels x slots *)
  mutable active : int;
  mutable cancelled : int; (* cancelled timers still sitting in slots *)
}

let create ~now =
  {
    epoch = now;
    cur = 0;
    wheel = Array.init levels (fun _ -> Array.make slots []);
    active = 0;
    cancelled = 0;
  }

let tick_of t time =
  let d = (time -. t.epoch) /. tick_ms in
  if d <= 0. then 0 else int_of_float d

let time_of t tick = t.epoch +. (float_of_int tick *. tick_ms)

(* Place [tm] by its distance from the cursor: level k holds timers
   due within 256^(k+1) ticks, slotted by bits [8k, 8k+8) of the due
   tick. Too-distant timers are clamped into the top level and get
   re-placed as cascades bring them closer. *)
let place t tm =
  let delta = max 1 (min (tm.t_tick - t.cur) (capacity - 1)) in
  let due = t.cur + delta in
  let level =
    if delta < slots then 0
    else if delta < slots * slots then 1
    else if delta < slots * slots * slots then 2
    else 3
  in
  let slot = (due lsr (slot_bits * level)) land (slots - 1) in
  t.wheel.(level).(slot) <- tm :: t.wheel.(level).(slot)

let add t ~now ~at f =
  if t.active = 0 then t.cur <- max t.cur (tick_of t now);
  let tm = { t_active = true; t_tick = tick_of t at; t_f = f } in
  place t tm;
  t.active <- t.active + 1;
  tm

(* Cancelling only marks the timer; the cursor drops it when it
   reaches its slot. A timer cancelled long before its deadline (a
   request deadline, once the answer arrived) would sit there holding
   its closure, so once cancelled timers outnumber live ones, every
   slot is swept — O(1) amortized per cancel. *)
let sweep t =
  Array.iter
    (fun level ->
      Array.iteri
        (fun i slot -> level.(i) <- List.filter (fun tm -> tm.t_active) slot)
        level)
    t.wheel;
  t.cancelled <- 0

let cancel t tm =
  if tm.t_active then begin
    tm.t_active <- false;
    t.active <- t.active - 1;
    t.cancelled <- t.cancelled + 1;
    if t.cancelled > slots + (2 * t.active) then sweep t
  end

let pending t = t.active

let next_deadline t =
  if t.active = 0 then None
  else begin
    let found = ref None in
    let k = ref (t.cur + 1) in
    while !found = None && !k <= t.cur + slots do
      let slot = t.wheel.(0).(!k land (slots - 1)) in
      if List.exists (fun tm -> tm.t_active && tm.t_tick <= !k) slot then
        found := Some (time_of t !k);
      incr k
    done;
    match !found with
    | Some _ as s -> s
    | None ->
        (* Level 0 is empty out to its horizon: the next interesting
           instant is the next level-1 cascade boundary. *)
        Some (time_of t (((t.cur lsr slot_bits) + 1) lsl slot_bits))
  end

let fire t fired tm =
  if tm.t_active then begin
    tm.t_active <- false;
    t.active <- t.active - 1;
    incr fired;
    tm.t_f ()
  end

(* Move every timer out of a higher-level slot: due ones fire, the
   rest drop into a lower level (or fire immediately if their clamped
   placement has caught up with them). *)
let cascade t fired level slot =
  let batch = t.wheel.(level).(slot) in
  t.wheel.(level).(slot) <- [];
  List.iter
    (fun tm ->
      if not tm.t_active then t.cancelled <- t.cancelled - 1
      else if tm.t_tick <= t.cur then fire t fired tm
      else place t tm)
    batch

let advance t ~now =
  let target = tick_of t now in
  let fired = ref 0 in
  while t.cur < target do
    if t.active = 0 then t.cur <- target
    else begin
      t.cur <- t.cur + 1;
      let c = t.cur in
      if c land (slots - 1) = 0 then begin
        cascade t fired 1 ((c lsr slot_bits) land (slots - 1));
        if c land ((slots * slots) - 1) = 0 then begin
          cascade t fired 2 ((c lsr (2 * slot_bits)) land (slots - 1));
          if c land ((slots * slots * slots) - 1) = 0 then
            cascade t fired 3 ((c lsr (3 * slot_bits)) land (slots - 1))
        end
      end;
      let slot = c land (slots - 1) in
      let batch = t.wheel.(0).(slot) in
      if batch <> [] then begin
        t.wheel.(0).(slot) <- [];
        List.iter
          (fun tm ->
            if not tm.t_active then t.cancelled <- t.cancelled - 1
            else if tm.t_tick <= c then fire t fired tm
            else place t tm)
          batch
      end
    end
  done;
  !fired
