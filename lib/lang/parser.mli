(** Parser for the SPI-variants textual format.

    Grammar (comments run from [#] to end of line):

    {v
system   ::= "system" NAME "{" item* "}"
item     ::= channel | process | site | deadline
deadline ::= "deadline" NAME "from" PROC "to" PROC "within" INT
channel  ::= "channel" NAME ("queue" | "register")
             ("capacity" INT)? initial?
initial  ::= "initial" INT                 # n plain tokens
           | "initial" "[" TAG* "]"        # one token with tags
process  ::= "process" NAME "{" (mode | rule)* "}"
mode     ::= "mode" NAME "{" mode_item* "}"
mode_item::= "latency" interval
           | "consume" NAME interval
           | "produce" NAME interval ("[" TAG* "]")?
           | "payload" ("fresh" | "inherit")
interval ::= INT | "[" INT "," INT "]"
rule     ::= "rule" NAME "when" pred "->" NAME
pred     ::= conj ("||" conj)*
conj     ::= atom ("&&" atom)*
atom     ::= "!" atom | "(" pred ")" | "true" | "false"
           | "num" NAME ">=" INT | "tag" NAME TAG
site     ::= "interface" NAME "{" port* cluster* selection? "}"
port     ::= "port" ("in" | "out") NAME "=" NAME   # port = host channel
cluster  ::= "cluster" NAME "{" item* "}"          # may nest sites
selection::= "selection" "{" sel_item* "}"
sel_item ::= rule                                  # target is a cluster
           | "latency" NAME INT                    # t_conf per cluster
           | "initial" NAME
    v}

    Processes without rules get the library's default activation (enough
    tokens for a mode's upper consumption bounds).  Cluster port lists
    are inherited from the enclosing interface declaration. *)

exception Parse_error of { line : int; col : int; message : string }

exception Too_large of { line : int; col : int; limit : int; message : string }
(** The model asks for more than [limit] of something the parser would
    have to build in memory; the position is the offending literal. *)

val max_initial_tokens : int
(** The most initial tokens a model may declare over all its channels
    ([initial N] counts [N], [initial [tags]] counts one): 2{^20}.  The
    count is checked before any token list is built. *)

val system_of_string : string -> Variants.System.t
(** @raise Parse_error on syntax errors (lex errors are re-raised as
    parse errors); @raise Too_large past {!max_initial_tokens};
    @raise Invalid_argument when the parsed entities
    violate construction invariants (duplicate modes, bad intervals,
    ...). Structural validation is the caller's choice
    ({!Variants.System.validate}). *)

val system_of_file : string -> Variants.System.t
(** @raise Sys_error on unreadable files. *)
