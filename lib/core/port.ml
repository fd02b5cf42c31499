type direction = Input | Output
type t = { id : Spi.Ids.Port_id.t; direction : direction }

let make direction id = { id; direction }
let input name = make Input (Spi.Ids.Port_id.of_string name)
let output name = make Output (Spi.Ids.Port_id.of_string name)
let id p = p.id
let direction p = p.direction
let is_input p = p.direction = Input
let is_output p = p.direction = Output

let equal a b = Spi.Ids.Port_id.equal a.id b.id && a.direction = b.direction

let compare a b =
  match Spi.Ids.Port_id.compare a.id b.id with
  | 0 -> Stdlib.compare a.direction b.direction
  | c -> c

let channel_of pid = Spi.Ids.Channel_id.of_string (Spi.Ids.Port_id.to_string pid)

let signature ports =
  List.fold_left
    (fun (ins, outs) p ->
      let mem set = Spi.Ids.Port_id.Set.mem p.id set in
      if mem ins || mem outs then
        invalid_arg
          (Format.asprintf "Port.signature: duplicate port %a"
             Spi.Ids.Port_id.pp p.id)
      else
        match p.direction with
        | Input -> (Spi.Ids.Port_id.Set.add p.id ins, outs)
        | Output -> (ins, Spi.Ids.Port_id.Set.add p.id outs))
    (Spi.Ids.Port_id.Set.empty, Spi.Ids.Port_id.Set.empty)
    ports

let duplicates ports =
  let rec go seen dups = function
    | [] -> List.rev dups
    | p :: rest when Spi.Ids.Port_id.Set.mem p.id seen ->
      go seen
        (if List.exists (Spi.Ids.Port_id.equal p.id) dups then dups
         else p.id :: dups)
        rest
    | p :: rest -> go (Spi.Ids.Port_id.Set.add p.id seen) dups rest
  in
  go Spi.Ids.Port_id.Set.empty [] ports

let same_signature a b =
  let ia, oa = signature a and ib, ob = signature b in
  Spi.Ids.Port_id.Set.equal ia ib && Spi.Ids.Port_id.Set.equal oa ob

let pp ppf p =
  let arrow = match p.direction with Input -> "in" | Output -> "out" in
  Format.fprintf ppf "%s:%a" arrow Spi.Ids.Port_id.pp p.id
