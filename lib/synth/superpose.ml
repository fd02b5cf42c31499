module I = Spi.Ids

type result = {
  per_app : (string * Explore.solution) list;
  merged : Binding.t;
  cost : Cost.breakdown;
  conflicts : I.Process_id.t list;
}

(* The superposed architecture instantiates every hardware block any
   application chose, and keeps the processor as soon as any application
   runs anything in software.  A process implemented in hardware by one
   application and software by another therefore exists twice; only the
   hardware copy carries a cost of its own.  The reported [merged]
   binding resolves such conflicts toward hardware (the block physically
   exists); [conflicts] lists them. *)
let superpose ?capacity tech apps =
  let solutions =
    List.map
      (fun (a : App.t) ->
        (a.App.name, Explore.optimal ?capacity tech [ a ]))
      apps
  in
  if List.exists (fun (_, s) -> Option.is_none s) solutions then None
  else
    let per_app = List.map (fun (name, s) -> (name, Option.get s)) solutions in
    let hw_union, sw_union =
      List.fold_left
        (fun (hw, sw) (_, (s : Explore.solution)) ->
          ( I.Process_id.Set.union hw (Binding.hw_processes s.Explore.binding),
            I.Process_id.Set.union sw (Binding.sw_processes s.Explore.binding) ))
        (I.Process_id.Set.empty, I.Process_id.Set.empty)
        per_app
    in
    let conflicts = I.Process_id.Set.inter hw_union sw_union in
    let merged =
      I.Process_id.Set.fold
        (fun p acc -> Binding.bind p Binding.Hw acc)
        hw_union
        (I.Process_id.Set.fold
           (fun p acc -> Binding.bind p Binding.Sw acc)
           sw_union Binding.empty)
    in
    let asics =
      List.map
        (fun p ->
          match (Tech.options_of tech p).Tech.hw with
          | Some { Tech.area } -> (p, area)
          | None -> raise Not_found)
        (I.Process_id.Set.elements hw_union)
    in
    let processor =
      if I.Process_id.Set.is_empty sw_union then 0 else Tech.processor_cost tech
    in
    let total = processor + List.fold_left (fun acc (_, a) -> acc + a) 0 asics in
    Some
      {
        per_app;
        merged;
        cost = { Cost.processor; asics; total };
        conflicts = I.Process_id.Set.elements conflicts;
      }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>merged: %a@,cost: %a@,conflicts: %d@]" Binding.pp
    r.merged Cost.pp r.cost (List.length r.conflicts)
