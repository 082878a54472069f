(** Tokeniser for the SQL subset. *)

type token =
  | Ident of string   (** identifier or keyword, original spelling *)
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
(** Message and character offset. *)

val tokenize : string -> token list
(** @raise Error on an unrecognised character, an empty host variable,
    or an integer literal beyond [max_int] (at its first digit). Handles
    [--] line comments; negative integer literals are produced by the
    parser, not here. *)

val token_to_string : token -> string
