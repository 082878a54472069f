type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }
let title t = t.title

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Tbl.add_row: %d cells for %d columns"
         (List.length row) (List.length t.columns));
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let widths =
    List.fold_left
      (fun acc row ->
        List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all
  in
  let line row =
    String.concat "  "
      (List.map2
         (fun w cell -> cell ^ String.make (w - String.length cell) ' ')
         widths row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.columns ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf

let print t = print_string (render t)

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let buf = Buffer.create 256 in
  let row r =
    Buffer.add_string buf (String.concat "," (List.map csv_escape r));
    Buffer.add_char buf '\n'
  in
  row t.columns;
  List.iter row (List.rev t.rows);
  Buffer.contents buf

let save_csv t path =
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc

let fmt_f v =
  if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4f" v
