(* Determinism and consistency properties of the simulator. *)

module I = Spi.Ids

let trace_signature (result : Sim.Engine.result) =
  List.map
    (fun entry ->
      match entry with
      | Sim.Trace.Injected { time; channel; _ } ->
        Format.asprintf "i:%d:%a" time I.Channel_id.pp channel
      | Sim.Trace.Started { time; process; mode; _ } ->
        Format.asprintf "s:%d:%a:%a" time I.Process_id.pp process
          I.Mode_id.pp mode
      | Sim.Trace.Completed { time; process; _ } ->
        Format.asprintf "c:%d:%a" time I.Process_id.pp process
      | Sim.Trace.Faulted { time; fault } ->
        Format.asprintf "f:%d:%s" time (Sim.Fault.event_kind fault)
      | Sim.Trace.Quiescent { time } -> Format.sprintf "q:%d" time)
    result.Sim.Engine.trace

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine is deterministic" ~count:30
    QCheck.(pair (int_range 0 999) (int_range 1 3))
    (fun (seed, sites) ->
      let system =
        Variants.Generator.generate
          {
            Variants.Generator.seed;
            shared_processes = 2;
            sites;
            variants_per_site = 2;
            cluster_processes = 2;
            latency_range = (1, 8);
          }
      in
      let model =
        Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)
      in
      let inputs = Spi.Model.unwritten_channels model in
      let stimuli =
        List.concat_map
          (fun cid ->
            List.init 3 (fun i ->
                {
                  Sim.Engine.at = 1 + (4 * i);
                  channel = cid;
                  token = Spi.Token.make ~payload:i ();
                }))
          (I.Channel_id.Set.elements inputs)
      in
      let run () = Sim.Engine.run ~stimuli model in
      trace_signature (run ()) = trace_signature (run ()))

let prop_sim_matches_untimed_firing_count =
  (* for an acyclic single-token pipeline, the timed engine performs the
     same number of firings as repeatedly applying the untimed update
     rules to saturation *)
  QCheck.Test.make ~name:"timed firings = untimed firings" ~count:30
    QCheck.(pair (int_range 0 999) (int_range 1 4))
    (fun (seed, cluster_processes) ->
      let system =
        Variants.Generator.generate
          {
            Variants.Generator.seed;
            shared_processes = 2;
            sites = 1;
            variants_per_site = 2;
            cluster_processes;
            latency_range = (1, 5);
          }
      in
      let model =
        Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)
      in
      let inputs = Spi.Model.unwritten_channels model in
      let n_tokens = 2 in
      let stimuli =
        List.concat_map
          (fun cid ->
            List.init n_tokens (fun i ->
                { Sim.Engine.at = 1 + i; channel = cid; token = Spi.Token.plain }))
          (I.Channel_id.Set.elements inputs)
      in
      let timed = (Sim.Engine.run ~stimuli model).Sim.Engine.firings in
      (* untimed: inject everything, then fire any enabled process until
         quiescence *)
      let state =
        ref
          (List.fold_left
             (fun st s -> Spi.Semantics.inject model s.Sim.Engine.channel s.Sim.Engine.token st)
             (Spi.Semantics.initial model)
             stimuli)
      in
      let fired = ref 0 in
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun proc ->
            let pid = Spi.Process.id proc in
            match Spi.Semantics.enabled_mode model !state pid with
            | Some mode ->
              let st, _ = Spi.Semantics.fire model pid mode !state in
              state := st;
              incr fired;
              progress := true
            | None -> ())
          (Spi.Model.processes model)
      done;
      timed = !fired)

let prop_policy_monotone_makespan =
  QCheck.Test.make ~name:"best <= typical <= worst makespan" ~count:30
    QCheck.(int_range 0 999)
    (fun seed ->
      let system =
        Variants.Generator.generate
          {
            Variants.Generator.seed;
            shared_processes = 3;
            sites = 1;
            variants_per_site = 2;
            cluster_processes = 3;
            latency_range = (1, 20);
          }
      in
      let model =
        Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)
      in
      let inputs = Spi.Model.unwritten_channels model in
      let stimuli =
        List.map
          (fun cid -> { Sim.Engine.at = 1; channel = cid; token = Spi.Token.plain })
          (I.Channel_id.Set.elements inputs)
      in
      let span policy = (Sim.Engine.run ~policy ~stimuli model).Sim.Engine.end_time in
      let b = span Sim.Engine.Best_case
      and t = span Sim.Engine.Typical
      and w = span Sim.Engine.Worst_case in
      b <= t && t <= w)

(* Fault-campaign determinism across the domain pool: the
   faultsim CLI fans independent seeds out with {!Synth.Par.map} and
   prints in seed order afterwards, so the per-seed report lines must be
   byte-identical for every job count.  This reproduces the CLI's
   campaign loop (per-seed fault plan, checker report, stats, deadline
   misses) at the library level and compares rendered report signatures
   for jobs 1, 2 and 4. *)
let prop_fault_campaign_jobs_invariant =
  QCheck.Test.make ~name:"fault campaign is job-count invariant" ~count:6
    QCheck.(pair (int_range 3 6) (int_range 0 3))
    (fun (seeds, knob) ->
      let built = Video.System.build Video.System.default_params in
      let stimuli =
        Video.Scenario.switching_demo ~frames:20 ~period:5
          ~switches:[ (32, "fB") ]
          ()
      in
      let drop = 0.01 *. float_of_int (1 + knob)
      and transient = 0.02 *. float_of_int (1 + knob) in
      let deadline = 25 in
      let run_seed seed =
        let faults =
          Video.Scenario.fault_plan ~drop_probability:drop
            ~transient_probability:transient ~seed built
        in
        let result =
          Sim.Engine.run
            ~configurations:built.Video.System.configurations
            ~stimuli ~faults built.Video.System.model
        in
        let report = Video.Checker.check result in
        let stats = Sim.Stats.of_result built.Video.System.model result in
        let misses =
          List.length
            (List.filter
               (fun (_, l) -> l > deadline)
               report.Video.Checker.frame_latencies)
        in
        Format.asprintf "%d|%d|%d|%d|%d|%d|%d|%d|%d" seed
          result.Sim.Engine.firings
          (Sim.Stats.total_faults stats.Sim.Stats.faults)
          stats.Sim.Stats.faults.Sim.Stats.degradations
          report.Video.Checker.clean report.Video.Checker.held
          report.Video.Checker.dropped misses
          report.Video.Checker.reconfiguration_time
      in
      let campaign jobs =
        Array.to_list
          (Synth.Par.map ~jobs run_seed (Array.init seeds (fun i -> i + 1)))
      in
      let reference = campaign 1 in
      List.for_all (fun jobs -> campaign jobs = reference) [ 2; 4 ])

let suite =
  ( "determinism",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_engine_deterministic;
      QCheck_alcotest.to_alcotest ~long:false prop_sim_matches_untimed_firing_count;
      QCheck_alcotest.to_alcotest ~long:false prop_policy_monotone_makespan;
      QCheck_alcotest.to_alcotest ~long:false prop_fault_campaign_jobs_invariant;
    ] )
