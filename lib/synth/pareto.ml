type point = { binding : Binding.t; total_cost : int; worst_load : int }

let dominates a b =
  a.total_cost <= b.total_cost && a.worst_load <= b.worst_load
  && (a.total_cost < b.total_cost || a.worst_load < b.worst_load)

let m_frontiers = Obs.Registry.counter "pareto.frontiers"
let m_points = Obs.Registry.counter "pareto.points"

(* The epsilon-constraint walk: each solve is the cheapest binding whose
   worst load fits [capacity], and the next solve asks for strictly less
   load.  A solve that keeps the last point's cost only lowers that
   point's load, so it replaces the point.  [points] holds the last
   point found at its head, so it runs from dearest to cheapest. *)
let frontier ?(capacity = Schedule.default_capacity) ?deadline_ns tech apps =
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_frontiers;
  let rec walk capacity points =
    match Explore.solve ~capacity ?deadline_ns tech apps with
    | Error Explore.Deadline_no_incumbent -> (points, true)
    | Error (Explore.Infeasible | Explore.Pinned_impl_unavailable _) ->
      (points, false)
    | Ok s ->
      let p =
        {
          binding = s.binding;
          total_cost = s.cost.Cost.total;
          worst_load = s.worst_load;
        }
      in
      let points =
        match points with
        | last :: rest when last.total_cost = p.total_cost -> p :: rest
        | _ -> p :: points
      in
      if s.degraded then (points, true)
      else if p.worst_load = 0 then (points, false)
      else walk (p.worst_load - 1) points
  in
  let points, degraded = walk capacity [] in
  Obs.Metric.add m_points (List.length points);
  Obs.Registry.record_span ~name:"pareto.frontier_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  (List.rev points, degraded)

let pp_point ppf p =
  Format.fprintf ppf "cost=%d load=%d [%a]" p.total_cost p.worst_load
    Binding.pp p.binding
