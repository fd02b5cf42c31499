type application_report = {
  app : App.t;
  model : Spi.Model.t option;
  schedule : (List_schedule.t, List_schedule.error) result option;
  timing : (Spi.Constraint_.t * Spi.Constraint_.outcome) list;
}

type t = {
  tech : Tech.t;
  optimal : Explore.solution option;
  superposition : Superpose.result option;
  serial_spread : (int * int) option;
  frontier : Pareto.point list;
  design_time_speedup : float;
  applications : application_report list;
}

let build ?capacity ?(models = []) ?(constraints = []) tech apps =
  let optimal = Explore.optimal ?capacity tech apps in
  let superposition = Superpose.superpose ?capacity tech apps in
  let serial_spread =
    if List.length apps <= 4 then
      Serial.cost_spread (Serial.all_orders ?capacity tech apps)
    else None
  in
  let frontier =
    if Binding.cardinal Binding.empty = 0 && List.length apps <= 4 then
      fst (Pareto.frontier ?capacity tech apps)
    else []
  in
  let applications =
    List.map
      (fun (app : App.t) ->
        let model = List.assoc_opt app.App.name models in
        let schedule, timing =
          match model, optimal with
          | Some m, Some sol ->
            ( Some (List_schedule.schedule tech sol.Explore.binding m),
              Timing.check tech sol.Explore.binding m constraints )
          | _, _ -> (None, [])
        in
        { app; model; schedule; timing })
      apps
  in
  {
    tech;
    optimal;
    superposition;
    serial_spread;
    frontier;
    design_time_speedup = Design_time.speedup apps;
    applications;
  }

let pp ppf r =
  Format.fprintf ppf "@[<v>=== Synthesis report ===@,";
  (match r.optimal with
  | Some s ->
    Format.fprintf ppf "optimal (variant-aware): %a@," Cost.pp s.Explore.cost;
    Format.fprintf ppf "  binding: %a@," Binding.pp s.Explore.binding
  | None -> Format.fprintf ppf "optimal: INFEASIBLE@,");
  (match r.superposition with
  | Some s ->
    Format.fprintf ppf "superposition baseline: total %d@,"
      s.Superpose.cost.Cost.total
  | None -> Format.fprintf ppf "superposition: infeasible@,");
  (match r.serial_spread with
  | Some (best, worst) ->
    Format.fprintf ppf "serialization orders: best %d, worst %d@," best worst
  | None -> ());
  if r.frontier <> [] then begin
    Format.fprintf ppf "pareto frontier:@,";
    List.iter (fun p -> Format.fprintf ppf "  %a@," Pareto.pp_point p) r.frontier
  end;
  Format.fprintf ppf "design-time speedup: %.2fx@," r.design_time_speedup;
  List.iter
    (fun ar ->
      Format.fprintf ppf "@,--- %s ---@," ar.app.App.name;
      (match ar.schedule with
      | Some (Ok s) -> Format.fprintf ppf "%a@," List_schedule.pp_gantt s
      | Some (Error e) ->
        Format.fprintf ppf "schedule: %a@," List_schedule.pp_error e
      | None -> ());
      List.iter
        (fun (c, o) ->
          Format.fprintf ppf "%a: %a@," Spi.Constraint_.pp c
            Spi.Constraint_.pp_outcome o)
        ar.timing)
    r.applications;
  Format.fprintf ppf "@]"
