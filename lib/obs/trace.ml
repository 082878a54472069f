type span = {
  name : string;
  info : string;
  elapsed_us : int;
  io : Counters.snapshot;
  children : span list;
}

(* An open span under construction: children accumulate in reverse
   until the frame closes. *)
type frame = {
  f_name : string;
  f_info : string;
  t0 : float;
  c0 : Counters.snapshot;
  mutable kids_rev : span list;
  mutable n_kids : int;
}

(* A span keeps at most this many children; beyond it, finished child
   spans are dropped (their time and I/O still show up in the parent's
   deltas). Keeps a cold full scan from materializing one span per
   faulted page. *)
let max_children = 512

let flag = ref false
let set_enabled b = flag := b
let enabled () = !flag

(* Innermost frame first. *)
let stack : frame list ref = ref []

let ring_capacity = 64
let ring : span option array = Array.make ring_capacity None
let ring_next = ref 0
let ring_count = ref 0

let push_root sp =
  ring.(!ring_next) <- Some sp;
  ring_next := (!ring_next + 1) mod ring_capacity;
  if !ring_count < ring_capacity then incr ring_count

let recent () =
  let out = ref [] in
  for i = 0 to !ring_count - 1 do
    let idx = (!ring_next - 1 - i + 2 * ring_capacity) mod ring_capacity in
    match ring.(idx) with Some sp -> out := sp :: !out | None -> ()
  done;
  List.rev !out

let last () =
  if !ring_count = 0 then None
  else ring.((!ring_next - 1 + ring_capacity) mod ring_capacity)

let clear () =
  Array.fill ring 0 ring_capacity None;
  ring_next := 0;
  ring_count := 0

let open_frame name info =
  let f =
    { f_name = name; f_info = info; t0 = Unix.gettimeofday ();
      c0 = Counters.snapshot (); kids_rev = []; n_kids = 0 }
  in
  stack := f :: !stack;
  f

(* Close the innermost frame — tolerant of a stack perturbed by an
   exception path: close [f] specifically if it is still on the stack. *)
let close_frame f =
  (match !stack with
  | g :: rest when g == f -> stack := rest
  | other -> stack := List.filter (fun g -> g != f) other);
  let sp =
    { name = f.f_name; info = f.f_info;
      elapsed_us =
        int_of_float (Float.round ((Unix.gettimeofday () -. f.t0) *. 1e6));
      io = Counters.diff (Counters.snapshot ()) f.c0;
      children = List.rev f.kids_rev }
  in
  (match !stack with
  | parent :: _ ->
      if parent.n_kids < max_children then begin
        parent.kids_rev <- sp :: parent.kids_rev;
        parent.n_kids <- parent.n_kids + 1
      end
  | [] -> push_root sp);
  sp

let traced ?(info = "") name f =
  if not !flag then (f (), None)
  else begin
    let was_root = !stack = [] in
    let fr = open_frame name info in
    match f () with
    | v ->
        let sp = close_frame fr in
        (v, if was_root then Some sp else None)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (close_frame fr);
        Printexc.raise_with_backtrace e bt
  end

let with_span ?(info = "") name f =
  if not !flag then f ()
  else begin
    let fr = open_frame name info in
    match f () with
    | v ->
        ignore (close_frame fr);
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (close_frame fr);
        Printexc.raise_with_backtrace e bt
  end

let render ?max_bytes sp =
  let b = Buffer.create 256 in
  let budget = match max_bytes with Some n -> max n 0 | None -> max_int in
  let suppressed = ref 0 in
  let io_suffix (io : Counters.snapshot) =
    let parts = ref [] in
    let add label v = if v > 0 then parts := Printf.sprintf "%s=%d" label v :: !parts in
    add "jforces" io.journal_forces;
    add "evict" io.pool_evictions;
    add "miss" io.pool_misses;
    add "hit" io.pool_hits;
    add "writes" io.writes;
    add "reads" io.reads;
    if !parts = [] then "" else "  [" ^ String.concat " " !parts ^ "]"
  in
  let rec go indent sp =
    if !suppressed > 0 then incr suppressed
    else begin
      let line =
        Printf.sprintf "%s%s%s  %d us%s\n" indent sp.name
          (if sp.info = "" then "" else " (" ^ sp.info ^ ")")
          sp.elapsed_us (io_suffix sp.io)
      in
      (* Truncate only at line boundaries: a span line either fits whole
         or is suppressed (and counted) along with everything after it. *)
      if Buffer.length b + String.length line > budget then incr suppressed
      else Buffer.add_string b line
    end;
    List.iter (go (indent ^ "  ")) sp.children
  in
  go "" sp;
  if !suppressed > 0 then
    Buffer.add_string b
      (Printf.sprintf "… (%d span%s truncated)\n" !suppressed
         (if !suppressed = 1 then "" else "s"));
  Buffer.contents b
