(* Small helpers shared by the benchmark's modules: percentiles, /proc
   readers, and a parser for the Prometheus text the servers expose. *)

let now = Unix.gettimeofday

(* [Harness.Measure.percentile] (nearest rank, [p] in [0, 1]), with 0 on
   an empty sample. *)
let percentile xs p = if Array.length xs = 0 then 0. else Harness.Measure.percentile xs p

let median xs = percentile xs 0.5
let pct_list l p = percentile (Array.of_list l) p

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* A field of /proc/<pid>/status in kB (e.g. "VmHWM"); 0 when the
   process or the field is gone. *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let key = field ^ ":" in
  let kl = String.length key in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.length l > kl && String.sub l 0 kl = key ->
                Scanf.sscanf (String.sub l kl (String.length l - kl)) " %d"
                  Fun.id
            | _ -> go ()
            | exception End_of_file -> 0
          in
          go ())

(* ---- Prometheus text exposition ----

   A scrape is a table from the full series key ("name{labels}") to its
   value. Counters of two scrapes are diffed; histograms are diffed
   bucket-wise, so a percentile covers exactly the window between the
   two scrapes. *)

type scrape = (string, float) Hashtbl.t

let parse_metrics text : scrape =
  let t = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            let key = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace t key f
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  t

let get (s : scrape) key = Option.value ~default:0. (Hashtbl.find_opt s key)

(* Window delta of one series between two scrapes. *)
let delta ~before ~after key = get after key -. get before key

(* Window histogram of the latency of [ops] as (upper bound us,
   cumulative count) pairs, merged over several servers' scrape pairs. *)
let op_hist pairs ops =
  let buckets = Hashtbl.create 32 in
  List.iter
    (fun op ->
      let prefix = Printf.sprintf "rikit_op_latency_us_bucket{op=%S,le=" op in
      let pl = String.length prefix in
      List.iter
        (fun (before, after) ->
          Hashtbl.iter
            (fun key v ->
              if String.length key > pl && String.sub key 0 pl = prefix then begin
                (* the rest of the key is "\"<le>\"}" *)
                let le = String.sub key (pl + 1) (String.length key - pl - 3) in
                let bound = if le = "+Inf" then infinity else float_of_string le in
                let prev = Option.value ~default:0. (Hashtbl.find_opt buckets bound) in
                Hashtbl.replace buckets bound (prev +. v -. get before key)
              end)
            after)
        pairs)
    ops;
  List.sort compare (Hashtbl.fold (fun b c acc -> (b, c) :: acc) buckets [])

(* Percentile of a cumulative power-of-two histogram, interpolated
   linearly inside the bucket that holds the rank. *)
let hist_percentile cum p =
  match List.rev cum with
  | [] -> 0.
  | (_, total) :: _ when total <= 0. -> 0.
  | (_, total) :: _ ->
      let rank = p *. total in
      let rec go lo prev_c = function
        | [] -> lo
        | (b, c) :: rest ->
            if c >= rank then
              let hi = if Float.is_integer b then b else 2. *. lo in
              let frac = if c = prev_c then 1. else (rank -. prev_c) /. (c -. prev_c) in
              lo +. (frac *. (hi -. lo))
            else go b c rest
      in
      go 0. 0. cum

let hist_count cum = match List.rev cum with [] -> 0. | (_, c) :: _ -> c

(* ---- JSON output ---- *)

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer value && Float.abs value < 1e15 then
       Printf.sprintf "%.0f" value
     else Printf.sprintf "%.17g" value)
    unit
