(* Tests for binding-aware timing verification and the cost/load
   Pareto frontier. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = I.Process_id.of_string
let cid = I.Channel_id.of_string
let one = Interval.point 1

(* a -> p -> b -> q -> c, with a deadline p ~> q *)
let chain_model =
  Spi.Model.build_exn
    ~processes:
      [
        Spi.Process.simple ~latency:one
          ~consumes:[ (cid "a", one) ]
          ~produces:[ (cid "b", Spi.Mode.produce one) ]
          (pid "p");
        Spi.Process.simple ~latency:one
          ~consumes:[ (cid "b", one) ]
          ~produces:[ (cid "c", Spi.Mode.produce one) ]
          (pid "q");
      ]
    ~channels:[ Spi.Chan.queue (cid "a"); Spi.Chan.queue (cid "b"); Spi.Chan.queue (cid "c") ]

let chain_tech =
  Synth.Tech.make
    [
      (pid "p", Synth.Tech.both ~load:30 ~area:20);
      (pid "q", Synth.Tech.both ~load:40 ~area:25);
    ]

let deadline bound =
  Spi.Constraint_.latency_path ~name:"pq" ~from_:(pid "p") ~to_:(pid "q") ~bound

let test_timing_latency_of () =
  let b =
    Synth.Binding.of_list [ (pid "p", Synth.Binding.Sw); (pid "q", Synth.Binding.Hw) ]
  in
  Alcotest.(check int) "sw latency = load" 30
    (Synth.Timing.latency_of chain_tech b (pid "p"));
  Alcotest.(check int) "hw latency = 1" 1
    (Synth.Timing.latency_of chain_tech b (pid "q"));
  Alcotest.(check int) "unbound = 0" 0
    (Synth.Timing.latency_of chain_tech b (pid "ghost"))

let test_timing_binding_flips_verdict () =
  let all_sw =
    Synth.Binding.of_list [ (pid "p", Synth.Binding.Sw); (pid "q", Synth.Binding.Sw) ]
  and all_hw =
    Synth.Binding.of_list [ (pid "p", Synth.Binding.Hw); (pid "q", Synth.Binding.Hw) ]
  in
  (* software: 30 + 40 = 70 > 50; hardware: 1 + 1 = 2 <= 50 *)
  Alcotest.(check bool) "software misses deadline" false
    (Synth.Timing.all_satisfied chain_tech all_sw chain_model [ deadline 50 ]);
  Alcotest.(check bool) "hardware meets deadline" true
    (Synth.Timing.all_satisfied chain_tech all_hw chain_model [ deadline 50 ])

let test_timing_custom_model () =
  let latency_model =
    { Synth.Timing.sw_latency_of_load = (fun l -> l * 2); hw_latency_of_area = (fun a -> a / 5) }
  in
  let b = Synth.Binding.of_list [ (pid "p", Synth.Binding.Sw) ] in
  Alcotest.(check int) "custom sw" 60
    (Synth.Timing.latency_of ~latency_model chain_tech b (pid "p"))

let test_pareto_frontier_table1 () =
  let points, _ = Synth.Pareto.frontier F2.table1_tech [ F2.app1; F2.app2 ] in
  Alcotest.(check bool) "nonempty" true (points <> []);
  (* sorted by cost, loads strictly decreasing along the frontier *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "cost increases" true
        (a.Synth.Pareto.total_cost < b.Synth.Pareto.total_cost);
      Alcotest.(check bool) "load decreases" true
        (a.Synth.Pareto.worst_load > b.Synth.Pareto.worst_load);
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted points;
  (* the cheapest frontier point is the cost optimum *)
  (match points with
  | first :: _ ->
    Alcotest.(check int) "cheapest = optimal" 41 first.Synth.Pareto.total_cost
  | [] -> Alcotest.fail "frontier empty");
  (* the all-hardware point closes the frontier at load 0 *)
  match List.rev points with
  | last :: _ -> Alcotest.(check int) "all-hw load" 0 last.Synth.Pareto.worst_load
  | [] -> Alcotest.fail "frontier empty"

let test_pareto_no_dominated_points () =
  let points, _ = Synth.Pareto.frontier F2.table1_tech [ F2.app1; F2.app2 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) "not dominated" false
        (List.exists (fun q -> Synth.Pareto.dominates q p) points))
    points

let test_pareto_infeasible () =
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:500) ] in
  let points, _ =
    Synth.Pareto.frontier tech [ Synth.App.make "a" [ pid "x" ] ]
  in
  Alcotest.(check int) "empty frontier" 0 (List.length points)

(* A deadline that has already passed: the first solve answers the
   explorer's greedy completion, degraded, and the walk stops there. *)
let test_pareto_deadline_passed () =
  let apps = [ F2.app1; F2.app2 ] in
  let points, degraded =
    Synth.Pareto.frontier ~deadline_ns:0 F2.table1_tech apps
  in
  Alcotest.(check bool) "degraded" true degraded;
  match points with
  | [ p ] ->
    Alcotest.(check bool) "feasible" true
      (Synth.Schedule.is_feasible
         (Synth.Schedule.check F2.table1_tech p.Synth.Pareto.binding apps))
  | _ -> Alcotest.fail "expected the one greedy point"

(* The walk against the exhaustive enumeration on random, mixed-option
   and tie-heavy instances under capacities that bind: the same
   (cost, load) list, and every point's binding binds every process,
   prices to its cost and has its worst load. *)
let prop_pareto_oracle =
  QCheck.Test.make ~name:"pareto = exhaustive enumeration (300 instances)"
    ~count:300
    QCheck.(triple (int_range 1 10) (int_range 0 2) (int_range 0 100_000))
    (fun (n, kind, seed) ->
      let (tech, apps), capacity =
        match kind with
        | 0 -> (Harness.random_instance ~n ~seed, seed mod 121)
        | 1 -> (Harness.random_mixed_instance ~n ~seed, seed mod 121)
        | _ -> (Harness.random_tie_instance ~n ~seed, seed mod 16)
      in
      let points, degraded = Synth.Pareto.frontier ~capacity tech apps in
      let procs = Synth.App.union_procs apps in
      let sound (p : Synth.Pareto.point) =
        let cost = Synth.Cost.of_binding tech p.binding in
        I.Process_id.Set.equal procs
          (I.Process_id.Set.of_list (Synth.Binding.processes p.binding))
        && cost.Synth.Cost.total = p.total_cost
        && List.fold_left
             (fun m a -> max m (Synth.Schedule.app_load tech p.binding a))
             0 apps
           = p.worst_load
      in
      let objectives (p : Synth.Pareto.point) = (p.total_cost, p.worst_load) in
      (not degraded)
      && List.map objectives points = Harness.pareto_oracle ~capacity tech apps
      && List.for_all sound points)

let test_dominates () =
  let mk c l = { Synth.Pareto.binding = Synth.Binding.empty; total_cost = c; worst_load = l } in
  Alcotest.(check bool) "strictly better" true (Synth.Pareto.dominates (mk 1 1) (mk 2 2));
  Alcotest.(check bool) "one axis" true (Synth.Pareto.dominates (mk 1 2) (mk 2 2));
  Alcotest.(check bool) "equal" false (Synth.Pareto.dominates (mk 2 2) (mk 2 2));
  Alcotest.(check bool) "trade-off" false (Synth.Pareto.dominates (mk 1 3) (mk 3 1))

let suite =
  ( "timing-pareto",
    [
      Alcotest.test_case "timing latency_of" `Quick test_timing_latency_of;
      Alcotest.test_case "timing binding flips verdict" `Quick
        test_timing_binding_flips_verdict;
      Alcotest.test_case "timing custom model" `Quick test_timing_custom_model;
      Alcotest.test_case "pareto frontier table1" `Quick
        test_pareto_frontier_table1;
      Alcotest.test_case "pareto no dominated points" `Quick
        test_pareto_no_dominated_points;
      Alcotest.test_case "pareto infeasible" `Quick test_pareto_infeasible;
      Alcotest.test_case "pareto past its deadline" `Quick
        test_pareto_deadline_passed;
      QCheck_alcotest.to_alcotest ~long:false prop_pareto_oracle;
      Alcotest.test_case "dominates" `Quick test_dominates;
    ] )
