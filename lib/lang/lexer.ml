type token =
  | IDENT of string
  | INT of int
  | TAG of string
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | ARROW
  | GE
  | AND
  | OR
  | NOT
  | EOF

type located = { token : token; line : int; col : int }

exception Lex_error of { line : int; col : int; message : string }

let error line col fmt =
  Format.kasprintf (fun message -> raise (Lex_error { line; col; message })) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* Dots, colons and [@] appear inside generated mode and process names
   ("P1.proc:fA", "g1.x1.default@v1"); accepting them keeps the format
   round-trippable. *)
let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.' || c = ':' || c = '@'
  || c = '-'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let emit token l c = tokens := { token; line = l; col = c } :: !tokens in
  let i = ref 0 in
  let advance () =
    (if !i < n && input.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  let peek k = if !i + k < n then Some input.[!i + k] else None in
  while !i < n do
    let c = input.[!i] in
    let l = !line and cl = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !i < n && input.[!i] <> '\n' do
        advance ()
      done
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        advance ()
      done;
      emit (IDENT (String.sub input start (!i - start))) l cl
    end
    else if is_digit c || (c = '-' && (match peek 1 with Some d -> is_digit d | None -> false))
    then begin
      let start = !i in
      advance ();
      while !i < n && is_digit input.[!i] do
        advance ()
      done;
      match int_of_string_opt (String.sub input start (!i - start)) with
      | Some v -> emit (INT v) l cl
      | None -> error l cl "integer literal out of range"
    end
    else
      match c with
      | '\'' ->
        advance ();
        let start = !i in
        while !i < n && input.[!i] <> '\'' && input.[!i] <> '\n' do
          advance ()
        done;
        if !i >= n || input.[!i] <> '\'' then error l cl "unterminated tag literal"
        else begin
          let tag = String.sub input start (!i - start) in
          advance ();
          if tag = "" then error l cl "empty tag literal";
          emit (TAG tag) l cl
        end
      | '{' -> emit LBRACE l cl; advance ()
      | '}' -> emit RBRACE l cl; advance ()
      | '[' -> emit LBRACKET l cl; advance ()
      | ']' -> emit RBRACKET l cl; advance ()
      | '(' -> emit LPAREN l cl; advance ()
      | ')' -> emit RPAREN l cl; advance ()
      | ',' -> emit COMMA l cl; advance ()
      | '=' -> emit EQUALS l cl; advance ()
      | '!' -> emit NOT l cl; advance ()
      | '-' when peek 1 = Some '>' ->
        advance (); advance ();
        emit ARROW l cl
      | '>' when peek 1 = Some '=' ->
        advance (); advance ();
        emit GE l cl
      | '&' when peek 1 = Some '&' ->
        advance (); advance ();
        emit AND l cl
      | '|' when peek 1 = Some '|' ->
        advance (); advance ();
        emit OR l cl
      | c -> error l cl "illegal character %C" c
  done;
  emit EOF !line !col;
  List.rev !tokens

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "identifier %S" s
  | INT n -> Format.fprintf ppf "integer %d" n
  | TAG t -> Format.fprintf ppf "tag '%s'" t
  | LBRACE -> Format.pp_print_string ppf "'{'"
  | RBRACE -> Format.pp_print_string ppf "'}'"
  | LBRACKET -> Format.pp_print_string ppf "'['"
  | RBRACKET -> Format.pp_print_string ppf "']'"
  | LPAREN -> Format.pp_print_string ppf "'('"
  | RPAREN -> Format.pp_print_string ppf "')'"
  | COMMA -> Format.pp_print_string ppf "','"
  | EQUALS -> Format.pp_print_string ppf "'='"
  | ARROW -> Format.pp_print_string ppf "'->'"
  | GE -> Format.pp_print_string ppf "'>='"
  | AND -> Format.pp_print_string ppf "'&&'"
  | OR -> Format.pp_print_string ppf "'||'"
  | NOT -> Format.pp_print_string ppf "'!'"
  | EOF -> Format.pp_print_string ppf "end of input"
