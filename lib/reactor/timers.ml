type timer = {
  at : float;
  seq : int; (* insertion order: breaks deadline ties *)
  f : unit -> unit;
  mutable slot : int; (* index in the heap; -1 once fired or cancelled *)
}

type t = {
  mutable heap : timer array; (* [0, size) is a min-heap, the rest [empty] *)
  mutable size : int;
  mutable seq : int;
  mutable now : float; (* the last [advance]'s clock *)
}

let empty = { at = infinity; seq = max_int; f = ignore; slot = -1 }
let create () =
  { heap = Array.make 16 empty; size = 0; seq = 0; now = neg_infinity }

let pending t = t.size
let next_deadline t = if t.size = 0 then None else Some t.heap.(0).at
let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let put t i tm =
  t.heap.(i) <- tm;
  tm.slot <- i

(* Move [tm] from the hole at [i] towards the root / the leaves until
   the heap order holds, shifting the timers it passes. *)
let rec up t i tm =
  let p = (i - 1) / 2 in
  if i > 0 && before tm t.heap.(p) then begin
    put t i t.heap.(p);
    up t p tm
  end
  else put t i tm

let rec down t i tm =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l
  in
  if c < t.size && before t.heap.(c) tm then begin
    put t i t.heap.(c);
    down t c tm
  end
  else put t i tm

(* A deadline is never earlier than the clock of the last [advance]:
   a timer a callback adds, already due, then sorts after every timer
   that was due when that [advance] began, whose loop stops at the
   first timer younger than itself. *)
let add t ~at f =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (2 * t.size) empty in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  let tm = { at = Float.max at t.now; seq = t.seq; f; slot = -1 } in
  t.seq <- t.seq + 1;
  t.size <- t.size + 1;
  up t (t.size - 1) tm;
  tm

(* The last timer fills the hole at [i]; its vacated slot is cleared,
   so the heap keeps no reference to a removed timer's closure. *)
let remove t i =
  t.heap.(i).slot <- -1;
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- empty;
  if i < t.size then
    if i > 0 && before last t.heap.((i - 1) / 2) then up t i last
    else down t i last

let cancel t tm = if tm.slot >= 0 then remove t tm.slot

let advance t ~now =
  t.now <- now;
  let limit = t.seq in
  let rec go fired =
    let tm = t.heap.(0) in
    if t.size > 0 && tm.at <= now && tm.seq < limit then begin
      remove t 0;
      tm.f ();
      go (fired + 1)
    end
    else fired
  in
  go 0
