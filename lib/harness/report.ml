type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_repr x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Report: non-finite float %F" x);
  let s15 = Printf.sprintf "%.15g" x in
  if float_of_string s15 = x then s15
  else
    let s16 = Printf.sprintf "%.16g" x in
    if float_of_string s16 = x then s16 else Printf.sprintf "%.17g" x

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let scalar = function List _ | Obj _ -> false | _ -> true

let to_string v =
  let b = Buffer.create 1024 in
  let rec value indent = function
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float x -> Buffer.add_string b (float_repr x)
    | String s -> escape b s
    | List xs -> members indent '[' ']' (List.map (fun x -> (None, x)) xs)
    | Obj fs -> members indent '{' '}' (List.map (fun (k, x) -> (Some k, x)) fs)
  and members indent opening closing ms =
    let flat = List.for_all (fun (_, x) -> scalar x) ms in
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, x) ->
        if i > 0 then Buffer.add_char b ',';
        if flat then (if i > 0 then Buffer.add_char b ' ')
        else begin
          Buffer.add_char b '\n';
          Buffer.add_string b inner
        end;
        Option.iter
          (fun k ->
            escape b k;
            Buffer.add_string b ": ")
          key;
        value inner x)
      ms;
    if (not flat) && ms <> [] then begin
      Buffer.add_char b '\n';
      Buffer.add_string b indent
    end;
    Buffer.add_char b closing
  in
  value "" v;
  Buffer.add_char b '\n';
  Buffer.contents b

let record ~bench ~tiny fields checks =
  match fields with
  | Obj fs ->
      ( Obj
          ((("bench", String bench) :: ("tiny", Bool tiny) :: fs)
          @ List.map (fun (k, ok) -> (k, Bool ok)) checks),
        List.filter_map (fun (k, ok) -> if ok then None else Some k) checks )
  | _ -> invalid_arg "Report.record: fields must be an object"
