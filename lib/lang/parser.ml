module I = Spi.Ids
module V = Variants

exception Parse_error of { line : int; col : int; message : string }
exception Too_large of { line : int; col : int; limit : int; message : string }

(* [initial N] builds an N-element token list, so a few bytes of model
   text could otherwise ask for gigabytes: a model's initial tokens are
   counted as they are parsed and refused past this total. *)
let max_initial_tokens = 1 lsl 20

type state = {
  mutable tokens : Lexer.located list;
  mutable initial_tokens : int;  (** initial tokens parsed so far *)
}

let error (loc : Lexer.located) fmt =
  Format.kasprintf
    (fun message ->
      raise (Parse_error { line = loc.Lexer.line; col = loc.Lexer.col; message }))
    fmt

let peek st =
  match st.tokens with
  | t :: _ -> t
  | [] -> assert false (* EOF is always present *)

let advance st =
  match st.tokens with
  | _ :: rest when rest <> [] -> st.tokens <- rest
  | _ -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect st want describe =
  let t = next st in
  if t.Lexer.token = want then ()
  else error t "expected %s, found %a" describe Lexer.pp_token t.Lexer.token

let ident st what =
  let t = next st in
  match t.Lexer.token with
  | Lexer.IDENT s -> s
  | tok -> error t "expected %s, found %a" what Lexer.pp_token tok

let int_lit st what =
  let t = next st in
  match t.Lexer.token with
  | Lexer.INT n -> n
  | tok -> error t "expected %s, found %a" what Lexer.pp_token tok

let keyword st kw =
  let t = next st in
  match t.Lexer.token with
  | Lexer.IDENT s when String.equal s kw -> ()
  | tok -> error t "expected keyword %s, found %a" kw Lexer.pp_token tok

let looking_at st kw =
  match (peek st).Lexer.token with
  | Lexer.IDENT s -> String.equal s kw
  | _ -> false

(* ---------------------------- intervals ----------------------------- *)

let interval st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.INT n ->
    advance st;
    Interval.point n
  | Lexer.LBRACKET ->
    advance st;
    let lo = int_lit st "interval lower bound" in
    expect st Lexer.COMMA "','";
    let hi = int_lit st "interval upper bound" in
    expect st Lexer.RBRACKET "']'";
    (try Interval.make lo hi
     with Interval.Empty_interval _ -> error t "empty interval [%d,%d]" lo hi)
  | tok -> error t "expected an interval, found %a" Lexer.pp_token tok

let tag_list st =
  (* assumes '[' already consumed; reads TAG* ']' *)
  let rec go acc =
    let t = peek st in
    match t.Lexer.token with
    | Lexer.TAG name ->
      advance st;
      go (Spi.Tag.make name :: acc)
    | Lexer.RBRACKET ->
      advance st;
      List.rev acc
    | tok -> error t "expected a tag or ']', found %a" Lexer.pp_token tok
  in
  go []

(* ---------------------------- predicates ---------------------------- *)

let rec pred st =
  let left = conj st in
  if (peek st).Lexer.token = Lexer.OR then begin
    advance st;
    Spi.Predicate.Or (left, pred st)
  end
  else left

and conj st =
  let left = atom st in
  if (peek st).Lexer.token = Lexer.AND then begin
    advance st;
    Spi.Predicate.And (left, conj st)
  end
  else left

and atom st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.NOT ->
    advance st;
    Spi.Predicate.Not (atom st)
  | Lexer.LPAREN ->
    advance st;
    let p = pred st in
    expect st Lexer.RPAREN "')'";
    p
  | Lexer.IDENT "true" ->
    advance st;
    Spi.Predicate.True
  | Lexer.IDENT "false" ->
    advance st;
    Spi.Predicate.False
  | Lexer.IDENT "num" ->
    advance st;
    let chan = ident st "a channel name" in
    expect st Lexer.GE "'>='";
    let k = int_lit st "a token count" in
    Spi.Predicate.num_at_least (I.Channel_id.of_string chan) k
  | Lexer.IDENT "tag" ->
    advance st;
    let chan = ident st "a channel name" in
    let t2 = next st in
    (match t2.Lexer.token with
    | Lexer.TAG name ->
      Spi.Predicate.has_tag (I.Channel_id.of_string chan) (Spi.Tag.make name)
    | tok -> error t2 "expected a tag literal, found %a" Lexer.pp_token tok)
  | tok -> error t "expected a predicate, found %a" Lexer.pp_token tok

(* ----------------------------- channels ----------------------------- *)

let count_initial st (loc : Lexer.located) n =
  if n > max_initial_tokens - st.initial_tokens then
    raise
      (Too_large
         {
           line = loc.Lexer.line;
           col = loc.Lexer.col;
           limit = max_initial_tokens;
           message =
             Printf.sprintf "a model holds at most %d initial tokens"
               max_initial_tokens;
         });
  st.initial_tokens <- st.initial_tokens + n

let channel st =
  keyword st "channel";
  let name = ident st "a channel name" in
  let kind = ident st "'queue' or 'register'" in
  let capacity =
    if looking_at st "capacity" then begin
      advance st;
      Some (int_lit st "a capacity")
    end
    else None
  in
  let initial =
    if looking_at st "initial" then begin
      advance st;
      let t = peek st in
      match t.Lexer.token with
      | Lexer.INT n ->
        advance st;
        count_initial st t n;
        Spi.Token.replicate n Spi.Token.plain
      | Lexer.LBRACKET ->
        advance st;
        count_initial st t 1;
        let tags = tag_list st in
        [ Spi.Token.make ~tags:(Spi.Tag.Set.of_list tags) () ]
      | tok -> error t "expected a count or '[tags]', found %a" Lexer.pp_token tok
    end
    else []
  in
  let cid = I.Channel_id.of_string name in
  match kind with
  | "queue" -> Spi.Chan.queue ~initial ?capacity cid
  | "register" -> (
    match initial with
    | [] -> Spi.Chan.register cid
    | [ tok ] -> Spi.Chan.register ~initial:tok cid
    | _ :: _ :: _ ->
      invalid_arg (Format.sprintf "channel %s: a register holds one token" name))
  | other -> invalid_arg (Format.sprintf "channel %s: unknown kind %s" name other)

(* ----------------------------- processes ---------------------------- *)

let mode_body st name =
  expect st Lexer.LBRACE "'{'";
  let latency = ref (Interval.point 0) in
  let consumes = ref [] and produces = ref [] in
  let payload = ref None in
  let rec go () =
    if (peek st).Lexer.token = Lexer.RBRACE then advance st
    else begin
      (if looking_at st "latency" then begin
         advance st;
         latency := interval st
       end
       else if looking_at st "consume" then begin
         advance st;
         let chan = ident st "a channel name" in
         let rate = interval st in
         consumes := (I.Channel_id.of_string chan, rate) :: !consumes
       end
       else if looking_at st "produce" then begin
         advance st;
         let chan = ident st "a channel name" in
         let rate = interval st in
         let tags =
           if (peek st).Lexer.token = Lexer.LBRACKET then begin
             advance st;
             Spi.Tag.Set.of_list (tag_list st)
           end
           else Spi.Tag.Set.empty
         in
         produces :=
           (I.Channel_id.of_string chan, Spi.Mode.produce ~tags rate) :: !produces
       end
       else if looking_at st "payload" then begin
         advance st;
         let which = ident st "'fresh' or 'inherit'" in
         match which with
         | "fresh" -> payload := Some Spi.Mode.Fresh
         | "inherit" -> payload := Some Spi.Mode.Inherit_first
         | other ->
           invalid_arg (Format.sprintf "mode %s: unknown payload policy %s" name other)
       end
       else
         let t = peek st in
         error t "expected a mode item, found %a" Lexer.pp_token t.Lexer.token);
      go ()
    end
  in
  go ();
  Spi.Mode.make ?payload_policy:!payload ~latency:!latency
    ~consumes:(List.rev !consumes) ~produces:(List.rev !produces)
    (I.Mode_id.of_string name)

let activation_rule st =
  keyword st "rule";
  let name = ident st "a rule name" in
  keyword st "when";
  let guard = pred st in
  expect st Lexer.ARROW "'->'";
  let target = ident st "a target name" in
  (name, guard, target)

let process st =
  keyword st "process";
  let name = ident st "a process name" in
  expect st Lexer.LBRACE "'{'";
  let modes = ref [] and rules = ref [] in
  let rec go () =
    if (peek st).Lexer.token = Lexer.RBRACE then advance st
    else begin
      (if looking_at st "mode" then begin
         advance st;
         let mode_name = ident st "a mode name" in
         modes := mode_body st mode_name :: !modes
       end
       else if looking_at st "rule" then rules := activation_rule st :: !rules
       else
         let t = peek st in
         error t "expected 'mode' or 'rule', found %a" Lexer.pp_token t.Lexer.token);
      go ()
    end
  in
  go ();
  let activation =
    match !rules with
    | [] -> None
    | rules ->
      Some
        (Spi.Activation.make
           (List.rev_map
              (fun (rname, guard, target) ->
                Spi.Activation.rule (I.Rule_id.of_string rname) ~guard
                  ~mode:(I.Mode_id.of_string target))
              rules))
  in
  Spi.Process.make ?activation ~modes:(List.rev !modes)
    (I.Process_id.of_string name)

(* --------------------------- sites / system ------------------------- *)

type item =
  | Item_channel of Spi.Chan.t
  | Item_process of Spi.Process.t
  | Item_site of V.Structure.site
  | Item_constraint of Spi.Constraint_.t

let deadline st =
  keyword st "deadline";
  let name = ident st "a constraint name" in
  keyword st "from";
  let from_ = ident st "a process name" in
  keyword st "to";
  let to_ = ident st "a process name" in
  keyword st "within";
  let bound = int_lit st "a latency bound" in
  Spi.Constraint_.latency_path ~name
    ~from_:(I.Process_id.of_string from_)
    ~to_:(I.Process_id.of_string to_)
    ~bound

let rec items st =
  let rec go acc =
    if looking_at st "channel" then go (Item_channel (channel st) :: acc)
    else if looking_at st "process" then go (Item_process (process st) :: acc)
    else if looking_at st "interface" then go (Item_site (site st) :: acc)
    else if looking_at st "deadline" then go (Item_constraint (deadline st) :: acc)
    else List.rev acc
  in
  go []

and site st =
  keyword st "interface";
  let name = ident st "an interface name" in
  expect st Lexer.LBRACE "'{'";
  let ports = ref [] and wiring = ref [] in
  while looking_at st "port" do
    advance st;
    let dir = ident st "'in' or 'out'" in
    let pname = ident st "a port name" in
    expect st Lexer.EQUALS "'='";
    let host = ident st "a host channel name" in
    let port =
      match dir with
      | "in" -> V.Port.input pname
      | "out" -> V.Port.output pname
      | other -> invalid_arg (Format.sprintf "interface %s: bad direction %s" name other)
    in
    ports := port :: !ports;
    wiring := (V.Port.id port, I.Channel_id.of_string host) :: !wiring
  done;
  let ports = List.rev !ports and wiring = List.rev !wiring in
  let clusters = ref [] in
  while looking_at st "cluster" do
    advance st;
    let cname = ident st "a cluster name" in
    expect st Lexer.LBRACE "'{'";
    let body = items st in
    expect st Lexer.RBRACE "'}'";
    let channels =
      List.filter_map (function Item_channel c -> Some c | _ -> None) body
    in
    let processes =
      List.filter_map (function Item_process p -> Some p | _ -> None) body
    in
    let sub_sites =
      List.filter_map (function Item_site s -> Some s | _ -> None) body
    in
    (match
       List.find_opt (function Item_constraint _ -> true | _ -> false) body
     with
    | Some _ -> invalid_arg (Format.sprintf "cluster %s: deadlines belong at the system level" cname)
    | None -> ());
    clusters := V.Cluster.make ~channels ~sub_sites ~ports ~processes cname :: !clusters
  done;
  let selection =
    if looking_at st "selection" then begin
      advance st;
      expect st Lexer.LBRACE "'{'";
      let rules = ref [] and latencies = ref [] and init = ref None in
      let rec go () =
        if (peek st).Lexer.token = Lexer.RBRACE then advance st
        else begin
          (if looking_at st "rule" then begin
             let rname, guard, target = activation_rule st in
             rules :=
               V.Selection.rule rname ~guard
                 ~target:(I.Cluster_id.of_string target)
               :: !rules
           end
           else if looking_at st "latency" then begin
             advance st;
             let cluster = ident st "a cluster name" in
             let latency = int_lit st "a configuration latency" in
             latencies := (I.Cluster_id.of_string cluster, latency) :: !latencies
           end
           else if looking_at st "initial" then begin
             advance st;
             init := Some (I.Cluster_id.of_string (ident st "a cluster name"))
           end
           else
             let t = peek st in
             error t "expected a selection item, found %a" Lexer.pp_token
               t.Lexer.token);
          go ()
        end
      in
      go ();
      Some
        (V.Selection.make
           ~config_latencies:(List.rev !latencies)
           ?initial:!init (List.rev !rules))
    end
    else None
  in
  expect st Lexer.RBRACE "'}'";
  let iface =
    V.Interface.make ?selection ~ports ~clusters:(List.rev !clusters) name
  in
  { V.Structure.iface; wiring }

let m_parses = Obs.Registry.counter "lang.parses"

let system_of_string input =
  Obs.Registry.with_span "lang.parse_ns" (fun () ->
      Obs.Metric.incr m_parses;
      let tokens =
        Obs.Registry.with_span "lang.lex_ns" (fun () ->
            try Lexer.tokenize input
            with Lexer.Lex_error { line; col; message } ->
              raise (Parse_error { line; col; message }))
      in
      let st = { tokens; initial_tokens = 0 } in
      keyword st "system";
      let name = ident st "a system name" in
      expect st Lexer.LBRACE "'{'";
      let body = items st in
      expect st Lexer.RBRACE "'}'";
      let t = peek st in
      (match t.Lexer.token with
      | Lexer.EOF -> ()
      | tok -> error t "trailing input: %a" Lexer.pp_token tok);
      let channels =
        List.filter_map (function Item_channel c -> Some c | _ -> None) body
      in
      let processes =
        List.filter_map (function Item_process p -> Some p | _ -> None) body
      in
      let sites =
        List.filter_map (function Item_site s -> Some s | _ -> None) body
      in
      let constraints =
        List.filter_map (function Item_constraint c -> Some c | _ -> None) body
      in
      (* elaboration: turning the parse into checked model structures is
         where construction invariants run; timed separately so a slow
         load can be attributed to syntax or to semantics *)
      Obs.Registry.with_span "lang.elaborate_ns" (fun () ->
          V.System.make ~processes ~channels ~sites ~constraints name))

let system_of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  system_of_string contents
