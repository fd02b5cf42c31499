type t = {
  id : Ids.Process_id.t;
  modes : Mode.t list;
  activation : Activation.t;
}

let default_activation pid modes =
  let rule_for i mode =
    let atoms =
      List.map
        (fun (chan, rate) -> Predicate.num_at_least chan (Interval.hi rate))
        (Mode.consumptions mode)
    in
    Activation.rule
      (Ids.Rule_id.of_string
         (Format.asprintf "%a.auto%d" Ids.Process_id.pp pid i))
      ~guard:(Predicate.conj atoms) ~mode:(Mode.id mode)
  in
  Activation.make (List.mapi rule_for modes)

let validate id modes activation =
  if modes = [] then
    invalid_arg
      (Format.asprintf "Process %a: empty mode list" Ids.Process_id.pp id);
  let mode_ids =
    List.fold_left
      (fun acc m ->
        let mid = Mode.id m in
        if Ids.Mode_id.Set.mem mid acc then
          invalid_arg
            (Format.asprintf "Process %a: duplicate mode %a" Ids.Process_id.pp
               id Ids.Mode_id.pp mid)
        else Ids.Mode_id.Set.add mid acc)
      Ids.Mode_id.Set.empty modes
  in
  Ids.Mode_id.Set.iter
    (fun target ->
      if not (Ids.Mode_id.Set.mem target mode_ids) then
        invalid_arg
          (Format.asprintf "Process %a: activation targets unknown mode %a"
             Ids.Process_id.pp id Ids.Mode_id.pp target))
    (Activation.modes activation)

let make ?activation ~modes id =
  let activation =
    match activation with
    | Some a -> a
    | None -> default_activation id modes
  in
  validate id modes activation;
  { id; modes; activation }

let simple ?payload_policy ~latency ~consumes ~produces id =
  let mode_id =
    Ids.Mode_id.of_string (Format.asprintf "%a.default" Ids.Process_id.pp id)
  in
  let mode = Mode.make ?payload_policy ~latency ~consumes ~produces mode_id in
  make ~modes:[ mode ] id

let id p = p.id
let modes p = p.modes

let mode_ids p =
  List.fold_left
    (fun acc m -> Ids.Mode_id.Set.add (Mode.id m) acc)
    Ids.Mode_id.Set.empty p.modes

let find_mode mid p =
  List.find_opt (fun m -> Ids.Mode_id.equal (Mode.id m) mid) p.modes

let get_mode mid p =
  match find_mode mid p with Some m -> m | None -> raise Not_found

let activation p = p.activation

let inputs p =
  let from_modes =
    List.fold_left
      (fun acc m -> Ids.Channel_id.Set.union acc (Mode.consumed_channels m))
      Ids.Channel_id.Set.empty p.modes
  in
  Ids.Channel_id.Set.union from_modes (Activation.channels p.activation)

let outputs p =
  List.fold_left
    (fun acc m -> Ids.Channel_id.Set.union acc (Mode.produced_channels m))
    Ids.Channel_id.Set.empty p.modes

let hull_over_modes f p =
  match p.modes with
  | [] -> Interval.zero
  | m :: rest -> List.fold_left (fun acc m -> Interval.join acc (f m)) (f m) rest

let latency_hull p = hull_over_modes Mode.latency p

let consumption_hull p chan =
  hull_over_modes (fun m -> Mode.consumption m chan) p

let production_hull p chan =
  hull_over_modes
    (fun m ->
      match Mode.production_on m chan with
      | None -> Interval.zero
      | Some prod -> prod.Mode.rate)
    p

let map_channels f p =
  {
    p with
    modes = List.map (Mode.map_channels f) p.modes;
    activation = Activation.map_channels f p.activation;
  }

let rename id p = { p with id }

let with_activation activation p =
  validate p.id p.modes activation;
  { p with activation }

let pp ppf p =
  Format.fprintf ppf "@[<v2>process %a:@,%a@,activation:@,%a@]"
    Ids.Process_id.pp p.id
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Mode.pp)
    p.modes Activation.pp p.activation
