(* Differential proof that the compiled engine (Sim.Compile) is
   observationally identical to the interpreter (Sim.Engine): same trace
   entry for entry and token for token, same final state, same outcome,
   counters and reconfiguration time — across generated workloads,
   policies, fault plans (with degradations and reconfigurations),
   overflow modes, budgets, limits and job-count sweeps. *)

module I = Spi.Ids

(* ------------------------ deep result equality ----------------------- *)

let toks_eq a b =
  List.length a = List.length b && List.for_all2 Spi.Token.equal a b

let moved_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (c1, t1) (c2, t2) -> I.Channel_id.equal c1 c2 && toks_eq t1 t2)
       a b

let firing_eq (a : Spi.Semantics.firing) (b : Spi.Semantics.firing) =
  I.Process_id.equal a.process b.process
  && I.Mode_id.equal a.mode b.mode
  && moved_eq a.consumed b.consumed
  && moved_eq a.produced b.produced

let fault_eq (a : Sim.Fault.event) (b : Sim.Fault.event) =
  match (a, b) with
  | ( Token_dropped { channel = c1; token = t1 },
      Token_dropped { channel = c2; token = t2 } )
  | ( Token_corrupted { channel = c1; token = t1 },
      Token_corrupted { channel = c2; token = t2 } )
  | ( Token_duplicated { channel = c1; token = t1 },
      Token_duplicated { channel = c2; token = t2 } ) ->
    I.Channel_id.equal c1 c2 && Spi.Token.equal t1 t2
  | ( Transient_failure { process = p1; mode = m1; retry = r1; backoff = b1 },
      Transient_failure { process = p2; mode = m2; retry = r2; backoff = b2 }
    ) ->
    I.Process_id.equal p1 p2 && I.Mode_id.equal m1 m2 && r1 = r2 && b1 = b2
  | ( Retries_exhausted { process = p1; mode = m1 },
      Retries_exhausted { process = p2; mode = m2 } ) ->
    I.Process_id.equal p1 p2 && I.Mode_id.equal m1 m2
  | Crashed { process = p1 }, Crashed { process = p2 } ->
    I.Process_id.equal p1 p2
  | ( Latency_overrun { process = p1; mode = m1; extra = e1 },
      Latency_overrun { process = p2; mode = m2; extra = e2 } ) ->
    I.Process_id.equal p1 p2 && I.Mode_id.equal m1 m2 && e1 = e2
  | ( Reconfiguration_failed { process = p1; target = t1; latency = l1 },
      Reconfiguration_failed { process = p2; target = t2; latency = l2 } ) ->
    I.Process_id.equal p1 p2 && I.Config_id.equal t1 t2 && l1 = l2
  | ( Degraded { process = p1; from_ = f1; to_ = t1; latency = l1 },
      Degraded { process = p2; from_ = f2; to_ = t2; latency = l2 } ) ->
    I.Process_id.equal p1 p2
    && Option.equal I.Config_id.equal f1 f2
    && I.Config_id.equal t1 t2 && l1 = l2
  | _ -> false

let entry_eq (a : Sim.Trace.entry) (b : Sim.Trace.entry) =
  match (a, b) with
  | ( Injected { time = t1; channel = c1; token = k1 },
      Injected { time = t2; channel = c2; token = k2 } ) ->
    t1 = t2 && I.Channel_id.equal c1 c2 && Spi.Token.equal k1 k2
  | ( Started { time = t1; process = p1; mode = m1; reconfiguration = r1 },
      Started { time = t2; process = p2; mode = m2; reconfiguration = r2 } )
    ->
    t1 = t2
    && I.Process_id.equal p1 p2
    && I.Mode_id.equal m1 m2
    && Option.equal
         (fun (c1, l1) (c2, l2) -> I.Config_id.equal c1 c2 && l1 = l2)
         r1 r2
  | ( Completed { time = t1; started_at = s1; process = p1; firing = f1 },
      Completed { time = t2; started_at = s2; process = p2; firing = f2 } )
    ->
    t1 = t2 && s1 = s2 && I.Process_id.equal p1 p2 && firing_eq f1 f2
  | ( Faulted { time = t1; fault = f1 },
      Faulted { time = t2; fault = f2 } ) ->
    t1 = t2 && fault_eq f1 f2
  | Quiescent { time = t1 }, Quiescent { time = t2 } -> t1 = t2
  | _ -> false

let trace_eq a b = List.length a = List.length b && List.for_all2 entry_eq a b

let state_eq model s1 s2 =
  List.for_all
    (fun c ->
      let cid = Spi.Chan.id c in
      toks_eq (Spi.Semantics.contents s1 cid) (Spi.Semantics.contents s2 cid))
    (Spi.Model.channels model)

let stats_rendering model r =
  Format.asprintf "%a" Sim.Stats.pp (Sim.Stats.of_result model r)

let result_eq model (a : Sim.Engine.result) (b : Sim.Engine.result) =
  trace_eq a.trace b.trace
  && state_eq model a.final_state b.final_state
  && a.end_time = b.end_time
  && a.outcome = b.outcome
  && a.firings = b.firings
  && a.reconfiguration_time = b.reconfiguration_time
  (* byte-level: the rendered trace and stats must match too *)
  && Format.asprintf "%a" Sim.Trace.pp a.trace
     = Format.asprintf "%a" Sim.Trace.pp b.trace
  && stats_rendering model a = stats_rendering model b

let differential ?policy ?limits ?overflow ?(configurations = []) ?stimuli
    ?firing_budget ?faults model =
  (* fault plans carry mutable RNG state: give each engine its own *)
  let interpreted =
    Sim.Engine.run ?policy ?limits ?overflow ~configurations ?stimuli
      ?firing_budget ?faults model
  in
  let plan = Sim.Compile.compile ~configurations model in
  let compiled =
    Sim.Compile.run ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults
      plan
  in
  result_eq model interpreted compiled

(* --------------------------- qcheck properties ----------------------- *)

let prop_generated_workloads =
  QCheck.Test.make ~name:"compiled = interpreted (generated workloads)"
    ~count:60
    QCheck.(int_range 0 9999)
    (fun seed ->
      let model = Harness.sim_model ~seed in
      let stimuli = Harness.sim_stimuli model in
      List.for_all
        (fun policy -> differential ~policy ~stimuli model)
        [ Sim.Engine.Best_case; Sim.Engine.Typical; Sim.Engine.Worst_case ])

let prop_generated_with_faults =
  QCheck.Test.make ~name:"compiled = interpreted (fault plans)" ~count:40
    QCheck.(int_range 0 9999)
    (fun seed ->
      let model = Harness.sim_model ~seed in
      let stimuli = Harness.sim_stimuli ~tokens:5 model in
      let faults = Harness.sim_fault_plan ~seed model in
      differential ~stimuli ~faults model)

let prop_video_campaign =
  QCheck.Test.make
    ~name:"compiled = interpreted (video faults + reconfigurations)"
    ~count:8
    QCheck.(int_range 1 500)
    (fun seed ->
      let built = Video.System.build Video.System.default_params in
      let stimuli =
        Video.Scenario.switching_demo ~frames:25 ~period:5
          ~switches:[ (32, "fB"); (70, "fA") ]
          ()
      in
      let faults =
        Video.Scenario.fault_plan ~drop_probability:0.05
          ~transient_probability:0.08 ~seed built
      in
      differential
        ~configurations:built.Video.System.configurations
        ~stimuli ~faults built.Video.System.model)

let prop_limits_and_budgets =
  QCheck.Test.make ~name:"compiled = interpreted (limits, budgets)" ~count:20
    QCheck.(pair (int_range 0 999) (int_range 1 30))
    (fun (seed, max_firings) ->
      let model = Harness.sim_model ~seed in
      let stimuli = Harness.sim_stimuli ~tokens:4 model in
      let limits = { Sim.Engine.max_time = 200; max_firings } in
      let firing_budget =
        List.filteri
          (fun i _ -> i mod 2 = 0)
          (List.map
             (fun p -> (Spi.Process.id p, 1 + (seed mod 3)))
             (Spi.Model.processes model))
      in
      differential ~limits ~stimuli ~firing_budget model)

(* The faultsim campaign shape: many seeds fanned over the domain pool,
   each compiled run compared against an interpreted reference —
   and the whole campaign must be job-count invariant. *)
let prop_jobs_sweep =
  QCheck.Test.make ~name:"compiled campaign is job-count invariant" ~count:4
    QCheck.(int_range 4 8)
    (fun seeds ->
      let built = Video.System.build Video.System.default_params in
      let stimuli =
        Video.Scenario.switching_demo ~frames:15 ~period:5
          ~switches:[ (32, "fB") ]
          ()
      in
      let plan =
        Sim.Compile.compile
          ~configurations:built.Video.System.configurations
          built.Video.System.model
      in
      let compiled_seed seed =
        let faults =
          Video.Scenario.fault_plan ~drop_probability:0.03
            ~transient_probability:0.05 ~seed built
        in
        Format.asprintf "%a"
          Sim.Trace.pp
          (Sim.Compile.run ~stimuli ~faults plan).Sim.Engine.trace
      in
      let interpreted_seed seed =
        let faults =
          Video.Scenario.fault_plan ~drop_probability:0.03
            ~transient_probability:0.05 ~seed built
        in
        Format.asprintf "%a" Sim.Trace.pp
          (Sim.Engine.run
             ~configurations:built.Video.System.configurations
             ~stimuli ~faults built.Video.System.model)
            .Sim.Engine.trace
      in
      let seed_ids = Array.init seeds (fun i -> i + 1) in
      let reference = Array.map interpreted_seed seed_ids in
      List.for_all
        (fun jobs ->
          Synth.Par.map ~jobs compiled_seed seed_ids = reference)
        [ 1; 2; 4 ])

(* ------------------------------ unit tests --------------------------- *)

(* The acceptance sweep: 200 seeded workloads mixing policies and fault
   plans, every one byte-identical across the two engines. *)
let test_200_workloads () =
  for seed = 0 to 199 do
    let model = Harness.sim_model ~seed in
    let stimuli = Harness.sim_stimuli model in
    let policy =
      match seed mod 3 with
      | 0 -> Sim.Engine.Best_case
      | 1 -> Sim.Engine.Typical
      | _ -> Sim.Engine.Worst_case
    in
    let faults =
      if seed mod 2 = 1 then Some (Harness.sim_fault_plan ~seed model)
      else None
    in
    Alcotest.(check bool)
      (Format.sprintf "workload %d" seed)
      true
      (differential ~policy ~stimuli ?faults model)
  done

let overflow_model () =
  let c = I.Channel_id.of_string "c" in
  let src = I.Process_id.of_string "src" in
  let model =
    Spi.Model.build_exn
      ~channels:[ Spi.Chan.queue ~capacity:1 c ]
      ~processes:
        [
          Spi.Process.simple ~latency:(Interval.point 1) ~consumes:[]
            ~produces:[ (c, Spi.Mode.produce (Interval.point 2)) ]
            src;
        ]
  in
  (model, c, src)

let test_overflow_reject () =
  let model, c, src = overflow_model () in
  let budget = [ (src, 1) ] in
  let run_with engine =
    match engine ~firing_budget:budget model with
    | (_ : Sim.Engine.result) -> None
    | exception Spi.Semantics.Channel_overflow cid -> Some cid
  in
  let interp =
    run_with (fun ~firing_budget model -> Sim.Engine.run ~firing_budget model)
  in
  let compiled =
    run_with (fun ~firing_budget model ->
        Sim.Compile.run ~firing_budget (Sim.Compile.compile model))
  in
  Alcotest.(check bool) "both overflow on the same channel" true
    (Option.equal I.Channel_id.equal interp compiled
    && interp = Some c)

let test_overflow_drop_newest () =
  let model, _, src = overflow_model () in
  Alcotest.(check bool) "drop-newest identical" true
    (differential ~overflow:Spi.Semantics.Drop_newest
       ~firing_budget:[ (src, 2) ]
       model)

let test_plan_reuse () =
  let built = Video.System.build Video.System.default_params in
  let stimuli =
    Video.Scenario.switching_demo ~frames:20 ~period:5 ~switches:[ (32, "fB") ]
      ()
  in
  let plan =
    Sim.Compile.compile ~configurations:built.Video.System.configurations
      built.Video.System.model
  in
  let run () = Sim.Compile.run ~stimuli plan in
  let a = run () and b = run () in
  Alcotest.(check bool) "a plan is reusable" true
    (result_eq built.Video.System.model a b)

let test_key_stability () =
  let built = Video.System.build Video.System.default_params in
  let key () =
    Sim.Compile.key
      (Sim.Compile.compile ~configurations:built.Video.System.configurations
         built.Video.System.model)
  in
  Alcotest.(check string) "key is deterministic" (key ()) (key ());
  let other = Sim.Compile.key (Sim.Compile.compile (Harness.sim_model ~seed:7)) in
  Alcotest.(check bool) "distinct models get distinct keys" true
    (key () <> other)

(* The CLI's default fault campaign (faultsim: video with valves, 40
   frames, period 5, switches at 52 and 120, drop 0.02, transient 0.05,
   seeds 1-3), rendered to one buffered timeline per engine with a pid
   per seed: the interpreter's and the compiled timeline are the same
   bytes. *)
let test_campaign_timelines () =
  let built =
    Video.System.build { Video.System.default_params with with_valves = true }
  in
  let model = built.Video.System.model
  and configurations = built.Video.System.configurations in
  let stimuli =
    Video.Scenario.switching_demo ~frames:40 ~period:5
      ~switches:[ (52, "fB"); (120, "fA") ]
      ()
  in
  let plan = Sim.Compile.compile ~configurations model in
  let timeline run =
    let builder = Obs.Trace_event.create () in
    List.iter
      (fun seed ->
        let faults =
          Video.Scenario.fault_plan ~drop_probability:0.02
            ~transient_probability:0.05 ~seed built
        in
        Sim.Timeline.emit ~pid:seed
          ~name:(Printf.sprintf "seed %d" seed)
          (Obs.Trace_event.buffer_sink builder)
          model (run faults))
      [ 1; 2; 3 ];
    Obs.Json.to_string (Obs.Trace_event.to_json builder)
  in
  let interpreted =
    timeline (fun faults ->
        Sim.Engine.run ~configurations ~stimuli ~faults model)
  in
  let compiled = timeline (fun faults -> Sim.Compile.run ~stimuli ~faults plan) in
  Alcotest.(check bool) "the campaign fires" true (String.length compiled > 10_000);
  Alcotest.(check string) "compiled timeline = interpreted timeline" interpreted
    compiled

let suite =
  ( "compile",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_generated_workloads;
      QCheck_alcotest.to_alcotest ~long:false prop_generated_with_faults;
      QCheck_alcotest.to_alcotest ~long:false prop_video_campaign;
      QCheck_alcotest.to_alcotest ~long:false prop_limits_and_budgets;
      QCheck_alcotest.to_alcotest ~long:false prop_jobs_sweep;
      Alcotest.test_case "200 seeded workloads are byte-identical" `Slow
        test_200_workloads;
      Alcotest.test_case "overflow: Reject raises identically" `Quick
        test_overflow_reject;
      Alcotest.test_case "overflow: Drop_newest identical" `Quick
        test_overflow_drop_newest;
      Alcotest.test_case "compiled plans are reusable" `Quick test_plan_reuse;
      Alcotest.test_case "plan keys are stable" `Quick test_key_stability;
      Alcotest.test_case "fault campaign timelines are byte-identical" `Quick
        test_campaign_timelines;
    ] )
