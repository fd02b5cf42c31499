module Cmap = Ids.Channel_id.Map

type production = { rate : Interval.t; tags : Tag.Set.t }
type payload_policy = Fresh | Inherit_first

type t = {
  id : Ids.Mode_id.t;
  latency : Interval.t;
  consumes : Interval.t Cmap.t;
  produces : production Cmap.t;
  payload_policy : payload_policy;
}

let check_rate what rate =
  if Interval.lo rate < 0 then
    invalid_arg (Format.asprintf "Mode: negative %s rate %a" what Interval.pp rate)

let map_of_list what check pairs =
  List.fold_left
    (fun acc (chan, v) ->
      if Cmap.mem chan acc then
        invalid_arg
          (Format.asprintf "Mode: duplicate %s entry for channel %a" what
             Ids.Channel_id.pp chan)
      else begin
        check v;
        Cmap.add chan v acc
      end)
    Cmap.empty pairs

let make ?(payload_policy = Inherit_first) ~latency ~consumes ~produces id =
  if Interval.lo latency < 0 then
    invalid_arg "Mode.make: negative latency bound";
  {
    id;
    latency;
    consumes = map_of_list "consumption" (check_rate "consumption") consumes;
    produces =
      map_of_list "production" (fun p -> check_rate "production" p.rate) produces;
    payload_policy;
  }

let produce ?(tags = Tag.Set.empty) rate = { rate; tags }
let id m = m.id
let latency m = m.latency
let payload_policy m = m.payload_policy

let consumption m chan =
  match Cmap.find_opt chan m.consumes with
  | None -> Interval.zero
  | Some rate -> rate

let production_on m chan = Cmap.find_opt chan m.produces

let consumed_channels m =
  Cmap.fold (fun c _ s -> Ids.Channel_id.Set.add c s) m.consumes
    Ids.Channel_id.Set.empty

let produced_channels m =
  Cmap.fold (fun c _ s -> Ids.Channel_id.Set.add c s) m.produces
    Ids.Channel_id.Set.empty

let consumptions m = Cmap.bindings m.consumes
let productions m = Cmap.bindings m.produces
let rename id m = { m with id }

let remap_keys what f map =
  Cmap.fold
    (fun chan v acc ->
      let chan' = f chan in
      if Cmap.mem chan' acc then
        invalid_arg
          (Format.asprintf "Mode.map_channels: %s collision on %a" what
             Ids.Channel_id.pp chan')
      else Cmap.add chan' v acc)
    map Cmap.empty

let map_channels f m =
  {
    m with
    consumes = remap_keys "consumption" f m.consumes;
    produces = remap_keys "production" f m.produces;
  }

let scale_latency k m =
  if k < 0 then invalid_arg "Mode.scale_latency: negative factor";
  { m with latency = Interval.scale k m.latency }

let join id a b =
  let join_rates ra rb =
    Cmap.merge
      (fun _ x y ->
        match x, y with
        | None, None -> None
        | Some r, None | None, Some r -> Some (Interval.join Interval.zero r)
        | Some r1, Some r2 -> Some (Interval.join r1 r2))
      ra rb
  in
  let join_prods pa pb =
    Cmap.merge
      (fun _ x y ->
        match x, y with
        | None, None -> None
        | Some p, None | None, Some p ->
          Some { p with rate = Interval.join Interval.zero p.rate }
        | Some p1, Some p2 ->
          Some
            {
              rate = Interval.join p1.rate p2.rate;
              tags = Tag.Set.union p1.tags p2.tags;
            })
      pa pb
  in
  {
    id;
    latency = Interval.join a.latency b.latency;
    consumes = join_rates a.consumes b.consumes;
    produces = join_prods a.produces b.produces;
    payload_policy =
      (match a.payload_policy, b.payload_policy with
      | Inherit_first, _ | _, Inherit_first -> Inherit_first
      | Fresh, Fresh -> Fresh);
  }

let pp ppf m =
  let pp_rates ppf rates =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf (c, r) ->
        Format.fprintf ppf "%a:%a" Ids.Channel_id.pp c Interval.pp r)
      ppf (Cmap.bindings rates)
  in
  let pp_prods ppf prods =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf (c, p) ->
        Format.fprintf ppf "%a:%a%a" Ids.Channel_id.pp c Interval.pp p.rate
          Tag.Set.pp p.tags)
      ppf (Cmap.bindings prods)
  in
  Format.fprintf ppf "@[mode %a: lat=%a in=[%a] out=[%a]@]" Ids.Mode_id.pp m.id
    Interval.pp m.latency pp_rates m.consumes pp_prods m.produces
