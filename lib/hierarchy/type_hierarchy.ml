module Ivl = Interval.Ivl

type node = {
  id : int;
  interval : Ivl.t;
  mutable cursor : int; (* next free label within the interval *)
}

type t = {
  tree : Ritree.Ri_tree.t;
  by_name : (string, node) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable next_id : int;
}

let root_span = 1 lsl 40

let register t name interval =
  let id = t.next_id in
  t.next_id <- id + 1;
  let node = { id; interval; cursor = Ivl.lower interval } in
  Hashtbl.replace t.by_name name node;
  Hashtbl.replace t.names id name;
  ignore (Ritree.Ri_tree.insert ~id t.tree interval);
  node

let create ?(name = "types") ~root catalog =
  let t =
    { tree = Ritree.Ri_tree.create ~name catalog;
      by_name = Hashtbl.create 64; names = Hashtbl.create 64; next_id = 0 }
  in
  ignore (register t root (Ivl.make 0 root_span));
  t

(* A child receives a quarter of the parent's remaining space (at least
   one label), so later siblings and deeper descendants keep room. *)
let add t ~parent child =
  if Hashtbl.mem t.by_name child then
    invalid_arg (Printf.sprintf "Type_hierarchy.add: %s exists" child);
  match Hashtbl.find_opt t.by_name parent with
  | None ->
      invalid_arg (Printf.sprintf "Type_hierarchy.add: unknown parent %s" parent)
  | Some p ->
      let remaining = Ivl.upper p.interval - p.cursor + 1 in
      if remaining < 1 then
        invalid_arg
          (Printf.sprintf "Type_hierarchy.add: %s's label space is exhausted"
             parent);
      let span = max 1 (remaining / 4) in
      let lo = p.cursor in
      p.cursor <- p.cursor + span;
      ignore (register t child (Ivl.make lo (lo + span - 1)))

let mem t name = Hashtbl.mem t.by_name name
let type_count t = Hashtbl.length t.by_name

let interval_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some n -> n.interval
  | None -> raise Not_found

let is_subtype t ~sub ~super =
  Ivl.subset (interval_of t sub) (interval_of t super)

let subtypes t name =
  let q = interval_of t name in
  (* every type label range intersecting q: by construction either
     contains q or is contained in it; keep the contained ones *)
  Exec.Planner.intersecting t.tree q
  |> List.filter_map (fun (ivl, id) ->
         if Ivl.subset ivl q then Some (Hashtbl.find t.names id) else None)
  |> List.sort compare

let supertypes t name =
  let q = interval_of t name in
  Exec.Planner.stabbing_ids t.tree (Ivl.lower q)
  |> List.filter_map (fun id ->
         let super = Hashtbl.find t.names id in
         if Ivl.subset q (interval_of t super) then Some super else None)
  |> List.sort compare

let common_supertype t a b =
  let ia = interval_of t a and ib = interval_of t b in
  (* ancestors of a containing b's interval; the least is the one with
     the smallest range *)
  let candidates =
    Exec.Planner.stabbing_ids t.tree (Ivl.lower ia)
    |> List.filter_map (fun id ->
           let name = Hashtbl.find t.names id in
           let ivl = interval_of t name in
           if Ivl.subset ia ivl && Ivl.subset ib ivl then Some (ivl, name)
           else None)
  in
  match
    List.sort
      (fun (x, _) (y, _) -> Int.compare (Ivl.length x) (Ivl.length y))
      candidates
  with
  | (_, name) :: _ -> name
  | [] -> raise Not_found
