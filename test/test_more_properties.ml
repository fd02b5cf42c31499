(* A second round of cross-module properties: printer idempotence,
   budget monotonicity, Pareto consistency. *)

module I = Spi.Ids
module V = Variants

let gen_system (seed, sites, cluster_processes) =
  V.Generator.generate
    {
      V.Generator.seed;
      shared_processes = 2;
      sites;
      variants_per_site = 2;
      cluster_processes;
      latency_range = (1, 9);
    }

let arb_system_params =
  QCheck.triple
    (QCheck.int_range 0 999)
    (QCheck.int_range 1 2)
    (QCheck.int_range 1 3)

let prop_printer_idempotent =
  QCheck.Test.make ~name:"printer is a fixpoint after one round trip" ~count:25
    arb_system_params
    (fun params ->
      let system = gen_system params in
      let once = Lang.Printer.to_string system in
      let twice =
        Lang.Printer.to_string (Lang.Parser.system_of_string once)
      in
      String.equal once twice)

let prop_budget_monotone =
  QCheck.Test.make ~name:"larger firing budgets never reduce firings"
    ~count:30
    (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range 0 5))
    (fun (b1, b2) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let model =
        Harness.model_of_spi
          {|system budget {
              channel c queue
              process gen { mode gen.default { latency 1 produce c 1 } }
              process eat { mode eat.default { latency 1 consume c 1 } }
            }|}
      in
      let firings budget =
        (Sim.Engine.run
           ~firing_budget:[ (I.Process_id.of_string "gen", budget) ]
           model)
          .Sim.Engine.firings
      in
      firings lo <= firings hi)

let random_tech rng pids =
  Synth.Tech.make
    (List.map
       (fun p ->
         ( p,
           Synth.Tech.both
             ~load:(5 + Random.State.int rng 60)
             ~area:(5 + Random.State.int rng 60) ))
       pids)

let prop_pareto_contains_optimum =
  QCheck.Test.make ~name:"Pareto frontier starts at the cost optimum" ~count:40
    (QCheck.int_range 0 2000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pids =
        List.init (2 + Random.State.int rng 3) (fun i ->
            I.Process_id.of_string (Format.sprintf "q%d" i))
      in
      let tech = random_tech rng pids in
      let apps = [ Synth.App.make "a" pids ] in
      match Synth.Explore.optimal tech apps, Synth.Pareto.frontier tech apps with
      | None, [] -> true
      | Some s, first :: _ ->
        first.Synth.Pareto.total_cost = s.Synth.Explore.cost.Synth.Cost.total
      | Some _, [] | None, _ :: _ -> false)

let suite =
  ( "more-properties",
    List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_printer_idempotent;
        prop_budget_monotone;
        prop_pareto_contains_optimum;
      ] )
