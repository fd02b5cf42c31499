module Cmap = Ids.Channel_id.Map

(* Queue contents are kept front-first: the head of the list is the first
   visible token.  Registers hold at most one token. *)
type channel_state = { decl : Chan.t; tokens : Token.t list }
type state = channel_state Cmap.t
type overflow = Reject | Drop_newest

exception Channel_overflow of Ids.Channel_id.t

let initial model =
  List.fold_left
    (fun acc decl ->
      Cmap.add (Chan.id decl) { decl; tokens = Chan.initial decl } acc)
    Cmap.empty (Model.channels model)

let tokens_available state cid =
  match Cmap.find_opt cid state with
  | None -> 0
  | Some cs -> List.length cs.tokens

let first_token state cid =
  match Cmap.find_opt cid state with
  | None | Some { tokens = []; _ } -> None
  | Some { tokens = tok :: _; _ } -> Some tok

let first_tags state cid = Option.map Token.tags (first_token state cid)

let contents state cid =
  match Cmap.find_opt cid state with None -> [] | Some cs -> cs.tokens

let view state =
  {
    Predicate.tokens_available = tokens_available state;
    first_tags = first_tags state;
  }

let push_token ~overflow cid cs tok =
  match Chan.kind cs.decl with
  | Chan.Register -> { cs with tokens = [ tok ] }
  | Chan.Queue -> (
    match Chan.capacity cs.decl with
    | Some cap when List.length cs.tokens >= cap -> (
      match overflow with
      | Reject -> raise (Channel_overflow cid)
      | Drop_newest -> cs)
    | Some _ | None -> { cs with tokens = cs.tokens @ [ tok ] })

let inject ?(overflow = Reject) model cid tok state =
  let cs =
    match Cmap.find_opt cid state with
    | Some cs -> cs
    | None -> { decl = Model.get_channel cid model; tokens = [] }
  in
  Cmap.add cid (push_token ~overflow cid cs tok) state

let clear_channel cid state =
  Cmap.update cid
    (function None -> None | Some cs -> Some { cs with tokens = [] })
    state

let set_contents cid tokens state =
  Cmap.update cid
    (function
      | None -> ( match tokens with [] -> None | _ :: _ -> raise Not_found)
      | Some cs ->
        let fits =
          match Chan.kind cs.decl, Chan.capacity cs.decl with
          | Chan.Register, _ -> List.compare_length_with tokens 1 <= 0
          | Chan.Queue, Some cap -> List.compare_length_with tokens cap <= 0
          | Chan.Queue, None -> true
        in
        if not fits then
          invalid_arg
            (Format.asprintf "Semantics.set_contents: %a cannot hold %d tokens"
               Ids.Channel_id.pp cid (List.length tokens));
        Some { cs with tokens })
    state

let enabled_rule model state pid =
  let p = Model.get_process pid model in
  Activation.select (view state) (Process.activation p)

let enabled_mode model state pid =
  match enabled_rule model state pid with
  | None -> None
  | Some rule ->
    let p = Model.get_process pid model in
    Process.find_mode (Activation.target_mode rule) p

type firing = {
  process : Ids.Process_id.t;
  mode : Ids.Mode_id.t;
  consumed : (Ids.Channel_id.t * Token.t list) list;
  produced : (Ids.Channel_id.t * Token.t list) list;
}

let take n tokens =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | tok :: rest -> go (n - 1) (tok :: acc) rest
  in
  go n [] tokens

let consume_from state cid n =
  match Cmap.find_opt cid state with
  | None -> ([], state)
  | Some cs -> (
    match Chan.kind cs.decl with
    | Chan.Register ->
      (* Sampling read: the register keeps its token. *)
      let seen, _ = take (min n (List.length cs.tokens)) cs.tokens in
      (seen, state)
    | Chan.Queue ->
      let seen, rest = take n cs.tokens in
      (seen, Cmap.add cid { cs with tokens = rest } state))

let consume ?(choose_rate = Interval.lo) mode state =
  let step (state, consumed) (cid, rate) =
    let wanted = choose_rate rate in
    let n = min wanted (tokens_available state cid) in
    let tokens, state = consume_from state cid n in
    (state, (cid, tokens) :: consumed)
  in
  let state, consumed =
    List.fold_left step (state, []) (Mode.consumptions mode)
  in
  (state, List.rev consumed)

(* The first consumed token that actually carries a payload: state or
   control tokens without payloads never mask the data stream. *)
let inherited_payload mode consumed =
  match Mode.payload_policy mode with
  | Mode.Fresh -> None
  | Mode.Inherit_first ->
    List.find_map Token.payload (List.concat_map snd consumed)

let produce ?(overflow = Reject) ?(choose_rate = Interval.lo) model mode
    ~inherited_payload:payload state =
  let step (state, produced) (cid, prod) =
    let n = choose_rate prod.Mode.rate in
    let tok = Token.make ~tags:prod.Mode.tags ?payload () in
    let tokens = Token.replicate n tok in
    let state =
      List.fold_left
        (fun state tok -> inject ~overflow model cid tok state)
        state tokens
    in
    (state, (cid, tokens) :: produced)
  in
  let state, produced =
    List.fold_left step (state, []) (Mode.productions mode)
  in
  (state, List.rev produced)

let fire ?(overflow = Reject) ?(choose_rate = Interval.lo) model pid mode state =
  let state, consumed = consume ~choose_rate mode state in
  let payload = inherited_payload mode consumed in
  let state, produced =
    produce ~overflow ~choose_rate model mode ~inherited_payload:payload state
  in
  (state, { process = pid; mode = Mode.id mode; consumed; produced })

let pp_firing ppf f =
  let pp_moved ppf (cid, toks) =
    Format.fprintf ppf "%a:%d" Ids.Channel_id.pp cid (List.length toks)
  in
  let pp_list = Format.pp_print_list ~pp_sep:Format.pp_print_space pp_moved in
  Format.fprintf ppf "%a[%a] -(%a)-> [%a]" Ids.Process_id.pp f.process pp_list
    f.consumed Ids.Mode_id.pp f.mode pp_list f.produced

let total_tokens state =
  Cmap.fold (fun _ cs n -> n + List.length cs.tokens) state 0
