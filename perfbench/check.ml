(* The answer check: after the timed window, a fixed seeded set of
   intersection and Allen queries goes through the serving endpoint and
   every answer is compared with brute force over the preload plus every
   acknowledged insert. Through the router, a replicated boundary
   spanner must also appear only once. *)

module Ivl = Interval.Ivl
module P = Server.Protocol

type outcome = { checked : int; mismatches : int; notes : string list }

let triples rows =
  List.map
    (fun (r : int array) ->
      if Array.length r < 3 then (-1, -1, -1) else (r.(0), r.(1), r.(2)))
    rows

let rec has_adjacent_dup = function
  | a :: (b :: _ as rest) -> a = b || has_adjacent_dup rest
  | _ -> false

let run (spec : Spec.t) (inp : Spec.inputs) ~seed ~port ~acked =
  let stored = Array.to_list (Array.mapi (fun id ivl -> (ivl, id)) inp.data) @ acked in
  let c = Server.Client.connect ~deadline_ms:60_000. ~port () in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      List.iter (fun req -> ignore (Server.Client.rpc_result c req)) (Spec.connect_requests spec);
      let checked = ref 0 and bad = ref 0 and notes = ref [] in
      let note fmt =
        Printf.ksprintf (fun s -> if List.length !notes < 5 then notes := s :: !notes) fmt
      in
      let compare_one label req want =
        incr checked;
        match Server.Client.rpc_result c req with
        | Ok (P.Rows { rows; _ }) ->
            let got = List.sort compare (triples rows) in
            if got <> want then begin
              incr bad;
              if spec.topology = Spec.Routed && has_adjacent_dup got then
                note "%s: a replicated row appears twice" label
              else
                note "%s: %d rows, expected %d" label (List.length got)
                  (List.length want)
            end
        | r ->
            incr bad;
            note "%s: %s" label (Live.describe r)
      in
      List.iter
        (fun cq ->
          let want = Spec.expected stored cq in
          match cq with
          | Spec.C_intersect q ->
              let label = "intersect " ^ Ivl.to_string q in
              compare_one label (Spec.read_request (Spec.Q_intersect q)) want;
              if spec.mix = Spec.Hot_mix then begin
                compare_one ("sql " ^ label) (Spec.read_request (Spec.Q_sql q)) want;
                compare_one ("execute " ^ label)
                  (Spec.read_request (Spec.Q_exec q)) want
              end
          | Spec.C_allen (r, q) ->
              compare_one
                (Printf.sprintf "allen %s %s" (Interval.Allen.to_string r)
                   (Ivl.to_string q))
                (Spec.read_request (Spec.Q_allen (r, q)))
                want)
        (Spec.check_set spec inp ~seed);
      { checked = !checked; mismatches = !bad; notes = List.rev !notes })
