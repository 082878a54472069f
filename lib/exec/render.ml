(* The one plan renderer. Every EXPLAIN in the system — SQL text,
   typed wire ops, the CLI — prints through this module, so plan shape
   is directly comparable across entry points.

   Steps are numbered sequentially across the whole plan in execution
   order (branch by branch, outer to inner), so a UNION ALL whose
   branches probe the same transient collection still renders two
   distinct, attributable steps. An intersection step's sub-plan, when
   [sub] resolves it, renders nested under it and continues the
   numbering. *)

let plan ?(annot = fun (_ : Ir.step) -> "") ?(sub = fun (_ : Ir.step) -> None)
    branches =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "SELECT STATEMENT\n";
  let stepno = ref 0 in
  let next_step () =
    incr stepno;
    Printf.sprintf " [step %d]" !stepno
  in
  let rec union indent branches =
    let indent =
      if List.length branches > 1 then begin
        add "%sUNION-ALL\n" indent;
        indent ^ "  "
      end
      else indent
    in
    List.iter (fun (branch : Ir.branch) -> nest indent branch.Ir.steps) branches
  and nest indent = function
    | [] -> ()
    | [ step ] -> describe indent step
    | step :: rest ->
        add "%sNESTED LOOPS\n" indent;
        describe (indent ^ "  ") step;
        nest (indent ^ "  ") rest
  and describe indent (step : Ir.step) =
    (match (step.Ir.source, step.Ir.access) with
    | Ir.Intersection { table; upper; lower; _ }, _ ->
        let a = Ir.value_to_string upper in
        add "%sRI-TREE INTERSECTION %s ([min(%s, %s), %s])%s%s\n" indent
          (String.uppercase_ascii (Relation.Table.name table))
          (Ir.value_to_string lower) a a (next_step ()) (annot step)
    | Ir.Collection name, _ ->
        add "%sCOLLECTION ITERATOR %s%s%s\n" indent name (next_step ())
          (annot step)
    | Ir.Base tbl, Ir.Seq_scan ->
        add "%sTABLE ACCESS FULL %s%s%s\n" indent
          (Relation.Table.name tbl) (next_step ()) (annot step)
    | Ir.Mem h, Ir.Mem_probe { op; lo; hi; _ } ->
        add "%sMEM HINT PROBE %s (%s [%s, %s])%s%s\n" indent
          h.Ir.mem_name (Ir.mem_op_to_string op) (Ir.value_to_string lo)
          (Ir.value_to_string hi) (next_step ()) (annot step)
    | Ir.Mem h, (Ir.Seq_scan | Ir.Index_scan _) ->
        add "%sMEM HINT SCAN %s%s%s\n" indent h.Ir.mem_name (next_step ())
          (annot step)
    | Ir.Base _, Ir.Mem_probe _ ->
        add "%sINVALID STEP%s\n" indent (next_step ())
    | ( Ir.Base _,
        Ir.Index_scan
          { index; eq; lo; hi; refine_lo; refine_hi; covering; batched } ) ->
        let icols = Relation.Table.Index.columns index in
        let parts = ref [] in
        List.iteri
          (fun i e ->
            parts :=
              Printf.sprintf "%s = %s" icols.(i) (Ir.value_to_string e)
              :: !parts)
          eq;
        let rc = List.length eq in
        let bound_part col { Ir.v; inclusive } ge =
          Printf.sprintf "%s %s %s" col
            (match (ge, inclusive) with
            | true, true -> ">="
            | true, false -> ">"
            | false, true -> "<="
            | false, false -> "<")
            (Ir.value_to_string v)
        in
        Option.iter
          (fun b -> parts := bound_part icols.(rc) b true :: !parts)
          lo;
        Option.iter
          (fun b -> parts := bound_part icols.(rc) b false :: !parts)
          hi;
        let rpos = rc + if lo <> None || hi <> None then 1 else 0 in
        if rpos > rc && rpos < Array.length icols then begin
          Option.iter
            (fun b ->
              parts :=
                (bound_part icols.(rpos) b true ^ " [start key]")
                :: !parts)
            refine_lo;
          Option.iter
            (fun b ->
              parts :=
                (bound_part icols.(rpos) b false ^ " [stop key]")
                :: !parts)
            refine_hi
        end;
        List.iter
          (fun p ->
            parts :=
              (Ir.pred_to_string p ^ " [key filter]") :: !parts)
          step.Ir.key_filters;
        add "%sINDEX RANGE SCAN%s %s (%s)%s%s%s\n" indent
          (if batched then " BATCHED" else "")
          (String.uppercase_ascii (Relation.Table.Index.name index))
          (String.concat ", " (List.rev !parts))
          (if covering then "" else " + TABLE ACCESS BY ROWID")
          (next_step ()) (annot step));
    if step.Ir.filters <> [] then
      add "%s  FILTER %s\n" indent
        (String.concat " AND "
           (List.map Ir.pred_to_string step.Ir.filters));
    Option.iter (union (indent ^ "  ")) (sub step)
  in
  union "  " branches;
  Buffer.contents buf

(* ---- footers shared by EXPLAIN [ANALYZE] across entry points ---- *)

let est_note ~rows ~io = Printf.sprintf "  (est rows=%.0f io=%.0f)" rows io

let est_actual_note ~rows ~io ~actual =
  Printf.sprintf "  (est rows=%.0f io=%.0f, actual rows=%d)" rows io actual

let predicted_footer ~nodes ~rows ~io =
  Printf.sprintf "PREDICTED  nodes=%d  rows=%.0f  io=%.0f\n" nodes rows io

let actual_footer ~rows ~io ~ms =
  Printf.sprintf "ACTUAL     rows=%d  io=%d  time=%.1f ms\n" rows io ms

let statement_note kind =
  Printf.sprintf "%s STATEMENT (no plan; not executed — use EXPLAIN ANALYZE)"
    kind

let analyzed_statement ~kind ~summary ~io ~ms =
  Printf.sprintf "%s STATEMENT\n%s\nACTUAL     io=%d  time=%.1f ms\n" kind
    summary io ms
