module Backend = Backend
module Timers = Timers
module Writer = Writer

type entry = {
  mutable want_r : bool;
  mutable want_w : bool;
  on_r : unit -> unit;
  on_w : unit -> unit;
}

type t = {
  tbl : (Unix.file_descr, entry) Hashtbl.t;
  timers : Timers.t;
  mutable turn : int;  (* run_once calls so far *)
}

type timer = Timers.timer

let create () = { tbl = Hashtbl.create 64; timers = Timers.create (); turn = 0 }

let nop () = ()

let register t fd ?readable ?writable () =
  Hashtbl.replace t.tbl fd
    {
      want_r = readable <> None;
      want_w = writable <> None;
      on_r = Option.value readable ~default:nop;
      on_w = Option.value writable ~default:nop;
    }

let deregister t fd = Hashtbl.remove t.tbl fd
let is_registered t fd = Hashtbl.mem t.tbl fd

let set_read_interest t fd v =
  match Hashtbl.find_opt t.tbl fd with
  | Some e -> e.want_r <- v
  | None -> ()

let set_write_interest t fd v =
  match Hashtbl.find_opt t.tbl fd with
  | Some e -> e.want_w <- v
  | None -> ()

let after t delay f =
  Timers.add t.timers ~at:(Unix.gettimeofday () +. max 0. delay) f

let cancel t tm = Timers.cancel t.timers tm
let timer_count t = Timers.pending t.timers

let run_once ?(max_timeout = 1.0) t =
  let now = Unix.gettimeofday () in
  let timeout =
    match Timers.next_deadline t.timers with
    | None -> max_timeout
    | Some dl -> max 0. (min max_timeout (dl -. now))
  in
  let entries =
    let n = Hashtbl.length t.tbl in
    let buf = Array.make (max n 1) (Unix.stdin, false, false) in
    let i = ref 0 in
    Hashtbl.iter
      (fun fd e ->
        if (e.want_r || e.want_w) && !i < n then begin
          buf.(!i) <- (fd, e.want_r, e.want_w);
          incr i
        end)
      t.tbl;
    Array.sub buf 0 !i
  in
  (* Each turn starts its callbacks at a different ready fd. In table
     order the same fd would go first on every turn: a request on it
     would never wait behind one that arrived in the same turn, and a
     request on the last fd always would. *)
  let ready =
    match Backend.wait entries ~timeout with
    | ([] | [ _ ]) as ready -> ready
    | ready ->
        let k = t.turn mod List.length ready in
        List.filteri (fun i _ -> i >= k) ready
        @ List.filteri (fun i _ -> i < k) ready
  in
  t.turn <- t.turn + 1;
  ignore (Timers.advance t.timers ~now:(Unix.gettimeofday ()));
  List.iter
    (fun (fd, r, w) ->
      match Hashtbl.find_opt t.tbl fd with
      | None -> () (* deregistered by a timer or earlier callback *)
      | Some e ->
          if r && e.want_r then e.on_r ();
          if w then begin
            (* Re-check: on_r may have deregistered this fd, or even
               closed it and had the number reused by a fresh
               registration — only fire on the same entry. *)
            match Hashtbl.find_opt t.tbl fd with
            | Some e2 when e2 == e && e2.want_w -> e2.on_w ()
            | _ -> ()
          end)
    ready

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
    ~fallback:(fun () -> Backend.wait_fd fd dir ~timeout)
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
