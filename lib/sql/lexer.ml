type token =
  | Ident of string
  | Number of int
  | Host_var of string
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Dot
  | Op_eq
  | Op_ne
  | Op_lt
  | Op_le
  | Op_gt
  | Op_ge

exception Error of string * int

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> emit (Number v)
      | None -> raise (Error ("integer literal out of range", start))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      emit (Ident (String.sub src start (!i - start)))
    end
    else if c = ':' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      if !i = start then raise (Error ("empty host variable", start));
      emit (Host_var (String.sub src start (!i - start)))
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "<=" ->
          emit Op_le;
          i := !i + 2
      | Some ">=" ->
          emit Op_ge;
          i := !i + 2
      | Some "<>" ->
          emit Op_ne;
          i := !i + 2
      | Some "!=" ->
          emit Op_ne;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> emit Lparen
          | ')' -> emit Rparen
          | ',' -> emit Comma
          | ';' -> emit Semicolon
          | '*' -> emit Star
          | '.' -> emit Dot
          | '=' -> emit Op_eq
          | '<' -> emit Op_lt
          | '>' -> emit Op_gt
          | '-' ->
              (* unary minus is folded into the number by the parser;
                 emit as a pseudo-ident so the parser can see it *)
              emit (Ident "-")
          | _ ->
              raise
                (Error (Printf.sprintf "unexpected character %C" c, !i - 1)))
    end
  done;
  List.rev !tokens

let token_to_string = function
  | Ident s -> s
  | Number n -> string_of_int n
  | Host_var h -> ":" ^ h
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semicolon -> ";"
  | Star -> "*"
  | Dot -> "."
  | Op_eq -> "="
  | Op_ne -> "<>"
  | Op_lt -> "<"
  | Op_le -> "<="
  | Op_gt -> ">"
  | Op_ge -> ">="
