(** Lexer for the SPI-variants textual format.

    Tokens are identifiers (possibly dotted/colon'd, as in mode or tag
    names), integers, single-quoted tag literals, punctuation and
    keywords.  Comments run from [#] to end of line. *)

type token =
  | IDENT of string
  | INT of int
  | TAG of string  (** ['name'] *)
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | ARROW  (** [->] *)
  | GE  (** [>=] *)
  | AND  (** [&&] *)
  | OR  (** [||] *)
  | NOT  (** [!] *)
  | EOF

type located = { token : token; line : int; col : int }

exception Lex_error of { line : int; col : int; message : string }

val tokenize : string -> located list
(** @raise Lex_error on illegal characters, unterminated tags and
    integer literals outside [min_int .. max_int]. *)

val pp_token : Format.formatter -> token -> unit
