(* Three-way differential proof for the family engine: for every
   configuration of a variant space, the compiled per-configuration
   engine (Sim.Compile) and the featured pass (Sim.Family_compiled)
   produce exactly what the interpreter (Sim.Engine, the oracle)
   produces on that configuration's flattened model — trace entry for
   entry, final channel contents, outcome, counters, and rendered
   trace/stats bytes (Test_compile.result_eq).  The family-level
   statistics answer to the oracle as well: the leaves partition the
   configurations, and every member's leaf makespan is the last
   completion of its reference trace.  A fourth arm, the summary pass
   (Sim.Family_compiled.summarize), must report every scalar field,
   counter and leaf of the recording pass.  Exercised across generated
   flat and nested systems, split-adversarial stimulus schedules,
   policies, fault plans, limits and firing budgets, split heuristics
   and job counts. *)

module I = Spi.Ids

let render_assignment a =
  Format.asprintf "%a" Variants.Variant_space.pp_assignment a

let last_completion trace =
  List.fold_left
    (fun acc entry ->
      match entry with
      | Sim.Trace.Completed { time; _ } -> max acc time
      | _ -> acc)
    0 trace

(* Leaf invariants against the oracle: one leaf per finished
   sub-family, member lists partitioning 0..n-1, and each member's
   [leaf_makespan] equal to the last completion in its reference trace. *)
let leaves_agree (report : Sim.Family.report)
    (references : Sim.Engine.result array) =
  let members =
    Array.to_list report.Sim.Family.leaves
    |> List.concat_map (fun leaf -> leaf.Sim.Family.leaf_members)
    |> List.sort compare
  in
  Array.length report.Sim.Family.leaves = report.Sim.Family.subfamilies
  && members = List.init (Array.length references) Fun.id
  && Array.for_all
       (fun leaf ->
         List.for_all
           (fun i ->
             leaf.Sim.Family.leaf_makespan
             = last_completion references.(i).Sim.Engine.trace)
           leaf.Sim.Family.leaf_members)
       report.Sim.Family.leaves

(* The summary pass against the recording pass under the same scenario:
   every configuration's index, assignment, end time, firings, outcome
   and reconfiguration time, the four counters, and the leaves, whose
   makespans (read off the runs' [makespan], not the traces) must be
   [Family.makespans] of the recorded traces. *)
let summary_agrees (report : Sim.Family.report)
    (s : Sim.Family_compiled.summary) =
  let spans = Sim.Family.makespans report in
  let leaf_spans_agree leaves =
    Array.for_all
      (fun leaf ->
        List.for_all
          (fun i -> snd spans.(i) = leaf.Sim.Family.leaf_makespan)
          leaf.Sim.Family.leaf_members)
      leaves
  in
  Array.length s.configs = Array.length report.Sim.Family.runs
  && Array.for_all2
       (fun (c : Sim.Family_compiled.config_summary) (cr : Sim.Family.config_run) ->
         let r = cr.Sim.Family.result in
         c.index = cr.Sim.Family.index
         && render_assignment c.assignment
            = render_assignment cr.Sim.Family.assignment
         && c.end_time = r.Sim.Engine.end_time
         && c.firings = r.Sim.Engine.firings
         && c.outcome = r.Sim.Engine.outcome
         && c.reconfiguration_time = r.Sim.Engine.reconfiguration_time)
       s.configs report.Sim.Family.runs
  && s.splits = report.Sim.Family.splits
  && s.subfamilies = report.Sim.Family.subfamilies
  && s.executed_firings = report.Sim.Family.executed_firings
  && s.shared_firings = report.Sim.Family.shared_firings
  && s.leaves = report.Sim.Family.leaves
  && leaf_spans_agree report.Sim.Family.leaves

(* The tentpole check: the featured pass and per-configuration compiled
   runs vs the per-configuration interpreter, under one scenario, and
   the summary pass vs the featured pass. *)
let three_way ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults
    ?(jobs = 1) system =
  let plan = Sim.Family_compiled.plan system in
  let report =
    Sim.Family_compiled.run ?policy ?limits ?overflow ?stimuli ?firing_budget
      ?faults ~jobs plan
  in
  let summary =
    Sim.Family_compiled.summarize ?policy ?limits ?overflow ?stimuli
      ?firing_budget ?faults ~jobs plan
  in
  let assignments = Array.of_list (Variants.Variant_space.enumerate system) in
  let models =
    Array.map
      (fun a ->
        Variants.Flatten.flatten system (Variants.Variant_space.to_choice a))
      assignments
  in
  let references =
    Array.map
      (Sim.Engine.run ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults)
      models
  in
  Array.length report.Sim.Family.runs = Array.length assignments
  && leaves_agree report references
  && summary_agrees report summary
  && Array.for_all Fun.id
       (Array.mapi
          (fun i model ->
            let compiled_ref =
              Sim.Compile.run ?policy ?limits ?overflow ?stimuli ?firing_budget
                ?faults
                (Sim.Compile.compile model)
            in
            let cr = report.Sim.Family.runs.(i) in
            cr.Sim.Family.index = i
            && render_assignment cr.Sim.Family.assignment
               = render_assignment assignments.(i)
            && Test_compile.result_eq model references.(i) compiled_ref
            && Test_compile.result_eq model references.(i) cr.Sim.Family.result)
          models)

(* Every job count must report the identical per-configuration results
   and the identical family statistics. *)
let jobs_invariant ?faults ~stimuli system =
  let plan = Sim.Family_compiled.plan system in
  let fingerprint jobs =
    let r = Sim.Family_compiled.run ~stimuli ?faults ~jobs plan in
    let runs =
      Array.to_list r.Sim.Family.runs
      |> List.map (fun cr ->
             Format.asprintf "%d %s %a" cr.Sim.Family.index
               (render_assignment cr.Sim.Family.assignment)
               Sim.Trace.pp cr.Sim.Family.result.Sim.Engine.trace)
      |> String.concat "\n"
    in
    ( runs,
      r.Sim.Family.splits,
      r.Sim.Family.subfamilies,
      r.Sim.Family.executed_firings,
      r.Sim.Family.shared_firings )
  in
  let reference = fingerprint 1 in
  List.for_all (fun jobs -> fingerprint jobs = reference) [ 2; 4 ]

let run_family ?faults ~stimuli system =
  Sim.Family_compiled.run ~stimuli ?faults (Sim.Family_compiled.plan system)

(* --------------------------- qcheck properties ----------------------- *)

(* Zero-site systems are one-member families: the shared loop with no
   presence bookkeeping at all. *)
let prop_generated_workloads =
  QCheck.Test.make
    ~name:"three-way differential (generated systems, all policies)" ~count:20
    QCheck.(int_range 0 9999)
    (fun seed ->
      List.for_all
        (fun system ->
          let stimuli = Harness.family_stimuli system in
          List.for_all
            (fun policy -> three_way ~policy ~stimuli ~jobs:(1 + (seed mod 2)) system)
            [ Sim.Engine.Best_case; Sim.Engine.Typical; Sim.Engine.Worst_case ])
        [ Harness.family_system ~seed (); Harness.family_system ~sites:0 ~seed () ])

let prop_nested_adversarial =
  QCheck.Test.make
    ~name:"three-way differential (nested sites, adversarial stimuli)"
    ~count:20
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      three_way ~stimuli ~jobs:(1 + (seed mod 2)) system)

let prop_nested_with_faults =
  QCheck.Test.make ~name:"three-way differential (nested sites, fault plans)"
    ~count:15
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli ~tokens:4 system in
      let faults = Harness.family_fault_plan ~seed system in
      three_way ~stimuli ~faults system)

(* Sub-families are pool tasks, and one plan serves every run. *)
let prop_jobs_invariant =
  QCheck.Test.make ~name:"compiled family run is job-count invariant" ~count:5
    QCheck.(int_range 0 999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      let faults = Harness.family_fault_plan ~seed system in
      jobs_invariant ~faults ~stimuli system)

(* Flat generated systems, the family-level properties. *)

let prop_flat_with_faults =
  QCheck.Test.make ~name:"family = per-config engine (fault plans)" ~count:25
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.family_system ~seed () in
      let stimuli = Harness.family_stimuli ~tokens:5 system in
      let faults = Harness.family_fault_plan ~seed system in
      three_way ~stimuli ~faults system)

let prop_limits_and_budgets =
  QCheck.Test.make ~name:"family = per-config engine (limits, budgets)"
    ~count:20
    QCheck.(pair (int_range 0 999) (int_range 1 30))
    (fun (seed, max_firings) ->
      let system = Harness.family_system ~seed () in
      let stimuli = Harness.family_stimuli ~tokens:4 system in
      let limits = { Sim.Engine.max_time = 200; max_firings } in
      let firing_budget =
        List.filteri
          (fun i _ -> i mod 2 = 0)
          (List.map
             (fun p -> (Spi.Process.id p, 1 + (seed mod 3)))
             (Spi.Model.processes
                (Variants.Flatten.flatten system
                   (Variants.Flatten.first_cluster system))))
      in
      three_way ~limits ~stimuli ~firing_budget system)

let prop_flat_jobs_invariant =
  QCheck.Test.make ~name:"family run is job-count invariant" ~count:6
    QCheck.(int_range 0 999)
    (fun seed ->
      let system = Harness.family_system ~seed:((seed * 3) + 2) () in
      let stimuli = Harness.family_stimuli ~tokens:4 system in
      let faults = Harness.family_fault_plan ~seed system in
      jobs_invariant ~faults ~stimuli system)

(* ------------------------------ unit tests --------------------------- *)

(* The acceptance sweep: 200 seeded workloads alternating flat and
   nested systems, policies and fault plans — every
   configuration byte-identical across the three engines. *)
let test_200_workloads () =
  for seed = 0 to 199 do
    let system, stimuli =
      if seed mod 2 = 0 then
        let s = Harness.family_system ~seed () in
        (s, Harness.family_stimuli s)
      else
        let s = Harness.nested_family_system ~seed in
        (s, Harness.nested_family_stimuli s)
    in
    let policy =
      match seed mod 3 with
      | 0 -> Sim.Engine.Best_case
      | 1 -> Sim.Engine.Typical
      | _ -> Sim.Engine.Worst_case
    in
    let faults =
      if seed mod 4 = 3 then Some (Harness.family_fault_plan ~seed system)
      else None
    in
    Alcotest.(check bool)
      (Format.sprintf "workload %d" seed)
      true
      (three_way ~policy ~stimuli ?faults system)
  done

(* The flat-system acceptance sweep: 200 seeded flat systems mixing
   policies and fault plans, every configuration byte-identical across
   the three engines under the default split heuristic. *)
let test_200_flat_systems () =
  for seed = 0 to 199 do
    let system = Harness.family_system ~seed () in
    let stimuli = Harness.family_stimuli system in
    let policy =
      match seed mod 3 with
      | 0 -> Sim.Engine.Best_case
      | 1 -> Sim.Engine.Typical
      | _ -> Sim.Engine.Worst_case
    in
    let faults =
      if seed mod 2 = 1 then Some (Harness.family_fault_plan ~seed system)
      else None
    in
    Alcotest.(check bool)
      (Format.sprintf "system %d" seed)
      true
      (three_way ~policy ~stimuli ?faults system)
  done

(* Headroom is computed once per leaf and must agree with the
   per-configuration makespans. *)
let test_headroom_per_leaf () =
  let system = Harness.nested_family_system ~seed:6 in
  let report =
    run_family ~stimuli:(Harness.nested_family_stimuli system) system
  in
  let deadline = 50 in
  let spans = Sim.Family.makespans report in
  let head = Sim.Family.headroom ~deadline report in
  Alcotest.(check int) "one headroom per configuration" (Array.length spans)
    (Array.length head);
  Array.iteri
    (fun i (index, h) ->
      let mi, makespan = spans.(i) in
      Alcotest.(check int) (Format.sprintf "index %d" i) mi index;
      Alcotest.(check int)
        (Format.sprintf "headroom of config %d" i)
        (deadline - makespan) h)
    head

(* One plan, many runs: scenario parameters bind at run time, and a
   reused plan must behave exactly like a fresh one. *)
let test_plan_reuse () =
  let system = Harness.nested_family_system ~seed:3 in
  let plan = Sim.Family_compiled.plan system in
  let stim_a = Harness.nested_family_stimuli system in
  let stim_b = Harness.nested_family_stimuli ~tokens:5 system in
  let render stimuli plan =
    let r = Sim.Family_compiled.run ~stimuli plan in
    Array.to_list r.Sim.Family.runs
    |> List.map (fun cr ->
           Format.asprintf "%a" Sim.Trace.pp
             cr.Sim.Family.result.Sim.Engine.trace)
    |> String.concat "\n"
  in
  let a1 = render stim_a plan in
  let b1 = render stim_b plan in
  let a2 = render stim_a (Sim.Family_compiled.plan system) in
  let b2 = render stim_b (Sim.Family_compiled.plan system) in
  Alcotest.(check bool) "scenario A reproduces on a reused plan" true
    (a1 = a2);
  Alcotest.(check bool) "scenario B reproduces on a reused plan" true
    (b1 = b2);
  Alcotest.(check bool) "the scenarios differ" true (a1 <> b1)

let test_plan_key () =
  let sys_a = Harness.nested_family_system ~seed:1 in
  let sys_b = Harness.nested_family_system ~seed:2 in
  let plan_a = Sim.Family_compiled.plan sys_a in
  Alcotest.(check string) "plan_key matches the compiled plan's key"
    (Sim.Family_compiled.plan_key sys_a)
    (Sim.Family_compiled.key plan_a);
  Alcotest.(check bool) "different systems, different keys" true
    (Sim.Family_compiled.plan_key sys_a <> Sim.Family_compiled.plan_key sys_b);
  Alcotest.(check int) "configuration count"
    (List.length (Variants.Variant_space.enumerate sys_a))
    (Sim.Family_compiled.configurations plan_a)

(* Flattened per-configuration models have no configuration to fall
   back to, so a degradation plan is refused up front, whatever the
   system shape or job count. *)
let degradation_rejected ?jobs system () =
  let plan = Sim.Family_compiled.plan system in
  let faults =
    Sim.Fault.plan
      ~degrade:(Sim.Fault.degradation ~fallback:(fun _ _ -> None) ())
      ~seed:7 ()
  in
  let rejected =
    match Sim.Family_compiled.run ~faults ?jobs plan with
    | (_ : Sim.Family.report) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "degradation plans are rejected" true rejected

(* 3^64 configurations overflow an int: counting, enumerating and
   planning must refuse the space instead of wrapping or allocating. *)
let test_oversized_space () =
  let system =
    Variants.Generator.generate
      { Variants.Generator.default with sites = 64; variants_per_site = 3 }
  in
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  refused "independent_count" (fun () ->
      ignore (Variants.Variant_space.independent_count system));
  refused "count" (fun () -> ignore (Variants.Variant_space.count system));
  refused "enumerate" (fun () ->
      ignore (Variants.Variant_space.enumerate system));
  refused "plan" (fun () -> ignore (Sim.Family_compiled.plan system));
  (* below the overflow the counts stay exact *)
  let small =
    Variants.Generator.generate
      { Variants.Generator.default with sites = 39; variants_per_site = 3 }
  in
  let expected =
    List.fold_left (fun acc _ -> acc * 3) 1 (List.init 39 Fun.id)
  in
  Alcotest.(check int) "3^39" expected (Variants.Variant_space.count small)

(* The point of the whole exercise: on a sharing-friendly workload the
   featured pass executes strictly fewer firings than the
   per-configuration sweep it replaces, because the shared prefix ran
   once for every member. *)
let test_sharing_pays () =
  let system = Harness.family_system ~seed:2 () (* 3 sites, 8 configurations *) in
  let report = run_family ~stimuli:(Harness.family_stimuli system) system in
  let per_config =
    Array.fold_left
      (fun acc cr -> acc + cr.Sim.Family.result.Sim.Engine.firings)
      0 report.Sim.Family.runs
  in
  Alcotest.(check int) "8 configurations" 8
    (Array.length report.Sim.Family.runs);
  Alcotest.(check bool) "some firings were shared" true
    (report.Sim.Family.shared_firings > 0);
  Alcotest.(check bool) "family executed fewer firings than N passes" true
    (report.Sim.Family.executed_firings < per_config)

(* The firing counters answer to the oracle: the width histogram gets
   one observation per executed firing, of the width of the sub-family
   that executed it, so its sum is the total of the configurations' own
   firing counts. *)
let test_firing_counters () =
  let h = Obs.Registry.histogram "sim.family.configs_per_firing" in
  for seed = 0 to 19 do
    List.iter
      (fun (shape, system, stimuli) ->
        let what = Format.sprintf "%s system %d" shape seed in
        let c0 = Obs.Metric.count h and s0 = Obs.Metric.sum h in
        let report =
          Sim.Family_compiled.run ~stimuli ~jobs:(1 + (seed mod 2))
            (Sim.Family_compiled.plan system)
        in
        let oracle =
          List.fold_left
            (fun acc a ->
              let model =
                Variants.Flatten.flatten system (Variants.Variant_space.to_choice a)
              in
              acc + (Sim.Engine.run ~stimuli model).Sim.Engine.firings)
            0
            (Variants.Variant_space.enumerate system)
        in
        Alcotest.(check int) (what ^ ": one observation per executed firing")
          report.Sim.Family.executed_firings (Obs.Metric.count h - c0);
        Alcotest.(check int) (what ^ ": widths sum to the oracle's firings")
          oracle (Obs.Metric.sum h - s0);
        Alcotest.(check bool) (what ^ ": shared <= executed") true
          (report.Sim.Family.shared_firings <= report.Sim.Family.executed_firings))
      (let flat = Harness.family_system ~seed () in
       let nested = Harness.nested_family_system ~seed in
       [
         ("flat", flat, Harness.family_stimuli flat);
         ("nested", nested, Harness.nested_family_stimuli nested);
       ])
  done

let test_makespans () =
  let system = Harness.family_system ~seed:5 () in
  let report = run_family ~stimuli:(Harness.family_stimuli system) system in
  let spans = Sim.Family.makespans report in
  Alcotest.(check int) "one makespan per configuration"
    (Array.length report.Sim.Family.runs)
    (Array.length spans);
  Array.iteri
    (fun i (index, makespan) ->
      let cr = report.Sim.Family.runs.(i) in
      Alcotest.(check int) (Format.sprintf "index %d" i) i index;
      Alcotest.(check int)
        (Format.sprintf "makespan of config %d" i)
        (last_completion cr.Sim.Family.result.Sim.Engine.trace)
        makespan)
    spans

(* ------------------------ hand-built family systems ------------------ *)

let chan = I.Channel_id.of_string

let proc ?(lat = 1) ?(take = 1) ?(give = 1) name ~from_ ~to_ =
  Spi.Process.simple ~latency:(Interval.point lat)
    ~consumes:[ (from_, Interval.point take) ]
    ~produces:(List.map (fun c -> (c, Spi.Mode.produce (Interval.point give))) to_)
    (I.Process_id.of_string name)

let pin = Variants.Port.channel_of (I.Port_id.of_string "pin")
let pout = Variants.Port.channel_of (I.Port_id.of_string "pout")

(* A two-port site wired [from_] -> [to_] with one cluster per
   [(channels, processes)] variant. *)
let site name ~from_ ~to_ variants =
  let ports () = [ Variants.Port.input "pin"; Variants.Port.output "pout" ] in
  {
    Variants.Structure.iface =
      Variants.Interface.make ~ports:(ports ())
        ~clusters:
          (List.mapi
             (fun v (channels, processes) ->
               Variants.Cluster.make ~channels ~ports:(ports ()) ~processes
                 (Format.sprintf "%s_var%d" name (v + 1)))
             variants)
        name;
    wiring =
      [ (I.Port_id.of_string "pin", from_); (I.Port_id.of_string "pout", to_) ];
  }

let system name ~channels ~processes sites =
  let s = Variants.System.make ~processes ~channels ~sites name in
  Variants.System.validate_exn s;
  s

(* [tokens] initial tokens stream through sites A and B (variants that
   double and halve the stream) into the sink [c3], which nobody reads,
   so thousands of tokens are left at quiescence; a register keeps the
   last one.  Site C is never reached: its members keep their own
   initial tokens (one or two) in [C.k]. *)
let leftover_system ~tokens =
  let c i = chan (Format.sprintf "c%d" i) in
  let k_with n = Spi.Chan.queue ~initial:(Spi.Token.replicate n Spi.Token.plain) (chan "k") in
  let c_variant n =
    ( [ k_with n ],
      [ proc "cin" ~from_:pin ~to_:[ chan "k" ];
        proc "cout" ~take:3 ~from_:(chan "k") ~to_:[ pout ] ] )
  in
  system "leftovers"
    ~channels:
      (Spi.Chan.queue
         ~initial:(List.init tokens (fun i -> Spi.Token.make ~payload:i ()))
         (c 0)
      :: Spi.Chan.register (chan "r")
      :: List.init 5 (fun i -> Spi.Chan.queue (c (i + 1))))
    ~processes:[ proc "S1" ~from_:(c 0) ~to_:[ c 1; chan "r" ] ]
    [
      site "A" ~from_:(c 1) ~to_:(c 2)
        [ ([], [ proc "a" ~from_:pin ~to_:[ pout ] ]);
          ([], [ proc "a" ~lat:2 ~give:2 ~from_:pin ~to_:[ pout ] ]) ];
      site "B" ~from_:(c 2) ~to_:(c 3)
        [ ([], [ proc "b" ~from_:pin ~to_:[ pout ] ]);
          ([], [ proc "b" ~take:2 ~from_:pin ~to_:[ pout ] ]) ];
      site "C" ~from_:(c 4) ~to_:(c 5) [ c_variant 1; c_variant 2 ];
    ]

(* Leaf finish with large leftovers: every member's final state —
   thousands of tokens on the sink, per-member initial tokens on the
   never-reached site — matches the oracle's. *)
let test_large_leftovers () =
  let system = leftover_system ~tokens:1500 in
  Alcotest.(check bool) "three-way, jobs 1" true (three_way system);
  Alcotest.(check bool) "three-way, jobs 2" true (three_way ~jobs:2 system);
  let report = run_family ~stimuli:[] system in
  let left =
    Array.map
      (fun cr ->
        Spi.Semantics.tokens_available cr.Sim.Family.result.Sim.Engine.final_state
          (chan "c3"))
      report.Sim.Family.runs
  in
  Alcotest.(check bool) "thousands of tokens left on the sink" true
    (Array.for_all (fun n -> n >= 750) left && Array.exists (fun n -> n >= 3000) left)

(* Probe invalidation: site X's only way in is its internal channel
   [X.k], and X's probes fold [X.k] to "empty" while it is cold.  Site Y
   splits the run at t=2, the probes are rebuilt and cached, and at t=5
   a stimulus into [X.k] warms the channel (every variant declares it
   alike).  The cached probes must be rebuilt then,
   or X would never be seen hot and its processes never fire. *)
let warm_probe_system () =
  let c i = chan (Format.sprintf "c%d" i) in
  let x_variant lat =
    ( [ Spi.Chan.queue (chan "k") ],
      [ proc "xin" ~from_:pin ~to_:[ chan "k" ];
        proc "xk" ~lat ~from_:(chan "k") ~to_:[ pout ] ] )
  in
  system "warm_probe"
    ~channels:
      (Spi.Chan.queue ~initial:(Spi.Token.replicate 3 Spi.Token.plain) (c 0)
      :: List.init 4 (fun i -> Spi.Chan.queue (c (i + 1))))
    ~processes:[ proc "S1" ~lat:2 ~from_:(c 0) ~to_:[ c 1 ] ]
    [
      site "Y" ~from_:(c 1) ~to_:(c 2)
        [ ([], [ proc "y" ~from_:pin ~to_:[ pout ] ]);
          ([], [ proc "y" ~lat:3 ~from_:pin ~to_:[ pout ] ]) ];
      site "X" ~from_:(c 3) ~to_:(c 4) [ x_variant 1; x_variant 4 ];
    ]

let test_warm_invalidates_probes () =
  let system = warm_probe_system () in
  let stimuli =
    List.map
      (fun at ->
        { Sim.Engine.at; channel = chan "X.k"; token = Spi.Token.make ~payload:at () })
      [ 5; 9 ]
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Format.sprintf "three-way, jobs %d" jobs)
        true
        (three_way ~stimuli ~jobs system))
    [ 1; 2 ];
  let report =
    Sim.Family_compiled.run ~stimuli (Sim.Family_compiled.plan system)
  in
  Alcotest.(check int) "X split every Y sub-family" 4
    report.Sim.Family.subfamilies

(* Narrow splitting: both variants of site X declare [X.k] alike, and
   [xk] fires only on two tokens there.  One stimulus into [X.k] warms
   the channel and rides the whole family unsplit; a second one
   activates [xk], and only then does the family split. *)
let deferred_split_system () =
  let x_variant lat =
    ( [ Spi.Chan.queue (chan "k") ],
      [ proc "xin" ~from_:pin ~to_:[ chan "k" ];
        proc "xk" ~lat ~take:2 ~from_:(chan "k") ~to_:[ pout ] ] )
  in
  system "deferred_split"
    ~channels:[ Spi.Chan.queue (chan "c0"); Spi.Chan.queue (chan "c1") ]
    ~processes:[]
    [ site "X" ~from_:(chan "c0") ~to_:(chan "c1") [ x_variant 1; x_variant 4 ] ]

let test_narrow_defers_split () =
  let system = deferred_split_system () in
  let plan = Sim.Family_compiled.plan system in
  List.iter
    (fun (ats, splits, subfamilies) ->
      let stimuli =
        List.map
          (fun at ->
            { Sim.Engine.at; channel = chan "X.k"; token = Spi.Token.make ~payload:at () })
          ats
      in
      let label = Format.sprintf "%d stimuli" (List.length ats) in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Format.sprintf "%s: three-way, jobs %d" label jobs)
            true
            (three_way ~stimuli ~jobs system))
        [ 1; 2 ];
      let report = Sim.Family_compiled.run ~stimuli plan in
      Alcotest.(check (pair int int))
        (label ^ ": splits, subfamilies")
        (splits, subfamilies)
        (report.Sim.Family.splits, report.Sim.Family.subfamilies))
    [ ([ 3 ], 0, 1); ([ 3; 6 ], 1, 2) ]

(* Two variants that read different input ports: v1 reads [pa] (host
   [ca]), v2 reads [pb] (host [cb]).  S moves three initial tokens from
   [a] to [cb], so tokens arrive only on the port that the root
   sub-family's representative (site=v1) does not read: its table has no
   reader for [cb] at all.  The probe of v2's part reads [cb] and must
   see them, so the site splits and site=v2 runs 6 firings to time 7, as
   in its own run.  examples/models/ports.spi is this system. *)
let two_port_system () =
  let port name = Variants.Port.channel_of (I.Port_id.of_string name) in
  let ports () =
    [ Variants.Port.input "pa"; Variants.Port.input "pb"; Variants.Port.output "po" ]
  in
  let variant name p reads =
    Variants.Cluster.make ~channels:[] ~ports:(ports ())
      ~processes:[ proc p ~from_:(port reads) ~to_:[ port "po" ] ]
      name
  in
  system "ports"
    ~channels:
      [ Spi.Chan.queue ~initial:(Spi.Token.replicate 3 Spi.Token.plain) (chan "a");
        Spi.Chan.queue (chan "ca");
        Spi.Chan.queue (chan "cb");
        Spi.Chan.queue (chan "o") ]
    ~processes:[ proc "S" ~lat:2 ~from_:(chan "a") ~to_:[ chan "cb" ] ]
    [
      {
        Variants.Structure.iface =
          Variants.Interface.make ~ports:(ports ())
            ~clusters:[ variant "v1" "p1" "pa"; variant "v2" "p2" "pb" ]
            "site";
        wiring =
          [ (I.Port_id.of_string "pa", chan "ca");
            (I.Port_id.of_string "pb", chan "cb");
            (I.Port_id.of_string "po", chan "o") ];
      };
    ]

let test_two_port_site () =
  let system = two_port_system () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Format.sprintf "three-way, jobs %d" jobs)
        true
        (three_way ~jobs system))
    [ 1; 2 ];
  let s = Sim.Family_compiled.summarize (Sim.Family_compiled.plan system) in
  let c = s.configs.(1) in
  Alcotest.(check string) "configuration 1" "site=v2" (render_assignment c.assignment);
  Alcotest.(check (pair int int)) "site=v2: firings, end time" (6, 7)
    (c.firings, c.end_time);
  Alcotest.(check (list int)) "executed, shared, splits" [ 8; 1; 1 ]
    [ s.executed_firings; s.shared_firings; s.splits ]

(* The sim-family workload's shape: 3 sites x 3 variants, [tokens]
   initial tokens on the last site's input.  That site splits at once;
   the earlier sites stay cold for the whole run, so their probes are
   skipped after every event. *)
let last_site_loaded ~seed ~tokens =
  let system =
    Variants.Generator.generate
      {
        Variants.Generator.seed;
        shared_processes = 8;
        sites = 3;
        variants_per_site = 3;
        cluster_processes = 3;
        latency_range = (1, 10);
      }
  in
  let input =
    match List.rev (Variants.System.sites system) with
    | [] -> assert false
    | site :: _ ->
      Option.get
        (List.find_map
           (fun port ->
             if Variants.Port.is_input port then
               List.assoc_opt (Variants.Port.id port) site.Variants.Structure.wiring
             else None)
           site.Variants.Structure.iface.Variants.Structure.iface_ports)
  in
  Variants.System.make ~processes:(Variants.System.processes system)
    ~channels:
      (List.map
         (fun c ->
           if I.Channel_id.equal (Spi.Chan.id c) input then
             Spi.Chan.queue ~initial:(Spi.Token.replicate tokens Spi.Token.plain) input
           else c)
         (Variants.System.channels system))
    ~sites:(Variants.System.sites system)
    ~constraints:(Variants.System.constraints system)
    (Variants.System.name system)

let test_last_site_loaded () =
  List.iter
    (fun seed ->
      let system = last_site_loaded ~seed ~tokens:12 in
      Alcotest.(check bool)
        (Format.sprintf "seed %d: three-way, jobs 1 and 2" seed)
        true
        (three_way system && three_way ~jobs:2 system);
      let s = Sim.Family_compiled.summarize (Sim.Family_compiled.plan system) in
      Alcotest.(check int) (Format.sprintf "seed %d: one split site" seed) 3
        s.subfamilies)
    [ 1; 2; 3 ]

(* A firing allocates nothing: on the summary pass, 2,000 more initial
   tokens (18,000 more firings) cost under one minor word per extra
   firing.  Each plan runs once first, so its demand-built tables exist. *)
let test_firing_allocates_nothing () =
  let plan tokens = Sim.Family_compiled.plan (last_site_loaded ~seed:1 ~tokens) in
  let small = plan 1000 and large = plan 3000 in
  let words p =
    ignore (Sim.Family_compiled.summarize ~jobs:1 p);
    let w0 = Gc.minor_words () in
    let s = Sim.Family_compiled.summarize ~jobs:1 p in
    (Gc.minor_words () -. w0, s.executed_firings)
  in
  let w_small, f_small = words small and w_large, f_large = words large in
  Alcotest.(check int) "18,000 more firings" 18_000 (f_large - f_small);
  let extra = w_large -. w_small in
  Alcotest.(check bool)
    (Format.sprintf "%.0f more minor words, under 18,000" extra)
    true (extra < 18_000.)

(* Limits the runs hit, a firing limit and a horizon: the four arms
   stop at the same event, with every job count, and every
   configuration reports the limit. *)
let test_limits_hit () =
  let system = Harness.family_system ~seed:2 () in
  let stimuli = Harness.family_stimuli system in
  List.iter
    (fun (what, limits, outcome) ->
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Format.sprintf "%s: four arms agree, jobs %d" what jobs)
            true
            (three_way ~limits ~stimuli ~jobs system))
        [ 1; 2 ];
      let s =
        Sim.Family_compiled.summarize ~limits ~stimuli
          (Sim.Family_compiled.plan system)
      in
      Alcotest.(check bool) (what ^ ": every run hits it") true
        (Array.for_all
           (fun (c : Sim.Family_compiled.config_summary) -> c.outcome = outcome)
           s.configs))
    [
      ( "firing limit",
        { Sim.Engine.max_time = 10_000; max_firings = 4 },
        Sim.Engine.Firing_limit_reached );
      ( "horizon",
        { Sim.Engine.default_limits with max_time = 3 },
        Sim.Engine.Time_limit_reached );
    ]

(* [c] feeds itself through [p]: without a limit the run never ends. *)
let spin_system () =
  system "spin"
    ~channels:[ Spi.Chan.queue ~initial:[ Spi.Token.plain ] (chan "c") ]
    ~processes:[ proc "p" ~from_:(chan "c") ~to_:[ chan "c" ] ]
    []

(* Deadlines: an expired one fails before the run starts, one that
   passes mid-run stops it at the next clock poll, and a far one
   changes nothing. *)
let test_deadlines () =
  let system = spin_system () in
  let plan = Sim.Family_compiled.plan system in
  let model =
    Sim.Compile.compile
      (Variants.Flatten.flatten system (Variants.Flatten.first_cluster system))
  in
  let endless = { Sim.Engine.max_time = max_int; max_firings = 50_000_000 } in
  let stopped what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Sim.Crt.Deadline_exceeded -> true)
  in
  let now = Obs.Clock.now_ns in
  stopped "summarize, expired" (fun () ->
      ignore (Sim.Family_compiled.summarize ~deadline_ns:(now ()) plan));
  stopped "Compile.run, expired" (fun () ->
      ignore (Sim.Compile.run ~deadline_ns:(now ()) model));
  stopped "summarize, mid-run" (fun () ->
      ignore
        (Sim.Family_compiled.summarize ~limits:endless
           ~deadline_ns:(now () + 5_000_000) plan));
  stopped "Compile.run, mid-run" (fun () ->
      ignore
        (Sim.Compile.run ~limits:endless ~deadline_ns:(now () + 5_000_000) model));
  let far = Sim.Family_compiled.summarize ~deadline_ns:max_int plan in
  Alcotest.(check bool) "a far deadline changes nothing" true
    (far = Sim.Family_compiled.summarize plan)

let timeline_bytes emit =
  let t = Obs.Trace_event.create () in
  emit (Obs.Trace_event.buffer_sink t);
  (t, Obs.Json.to_string (Obs.Trace_event.to_json t))

(* The family lane convention: configuration [i] exports as process
   group [pid = i + 1], so one trace file holds every configuration's
   schedule side by side. *)
let test_timeline_lanes () =
  let system = Harness.family_system ~seed:4 () in
  let report = run_family ~stimuli:(Harness.family_stimuli system) system in
  let t, _ =
    timeline_bytes (fun sink -> Sim.Family.emit_timeline sink system report)
  in
  let configs = Array.length report.Sim.Family.runs in
  let pids =
    List.sort_uniq compare
      (List.map Obs.Trace_event.pid_of (Obs.Trace_event.events t))
  in
  Alcotest.(check bool) "events were emitted" true
    (Obs.Trace_event.length t > 0);
  Alcotest.(check bool)
    (Format.sprintf "pids cover 1..%d" configs)
    true
    (List.for_all (fun pid -> pid >= 1 && pid <= configs) pids
    && List.length pids = configs)

(* Timeline identity against the oracle: the family export must be the
   trace/v1 bytes of each configuration's own Sim.Engine run emitted
   under the family lane convention. *)
let test_timeline_matches_oracle () =
  List.iter
    (fun (system, stimuli, faults) ->
      let report = run_family ?faults ~stimuli system in
      let _, family =
        timeline_bytes (fun sink -> Sim.Family.emit_timeline sink system report)
      in
      let _, oracle =
        timeline_bytes (fun sink ->
            List.iteri
              (fun i a ->
                let model =
                  Variants.Flatten.flatten system
                    (Variants.Variant_space.to_choice a)
                in
                Sim.Timeline.emit ~pid:(i + 1)
                  ~name:(Format.asprintf "cfg %d: %s" i (render_assignment a))
                  sink model
                  (Sim.Engine.run ~stimuli ?faults model))
              (Variants.Variant_space.enumerate system))
      in
      Alcotest.(check string) "family timeline = per-config oracle timelines"
        oracle family)
    (let flat = Harness.family_system ~seed:4 () in
     let nested = Harness.nested_family_system ~seed:7 in
     [
       (flat, Harness.family_stimuli flat, None);
       ( nested,
         Harness.nested_family_stimuli nested,
         Some (Harness.family_fault_plan ~seed:7 nested) );
     ])

let suite =
  ( "family_compiled",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_generated_workloads;
      QCheck_alcotest.to_alcotest ~long:false prop_nested_adversarial;
      QCheck_alcotest.to_alcotest ~long:false prop_nested_with_faults;
      QCheck_alcotest.to_alcotest ~long:false prop_jobs_invariant;
      Alcotest.test_case "narrow splitting waits for a variant to activate"
        `Quick test_narrow_defers_split;
      Alcotest.test_case "200 seeded workloads, three engines byte-identical"
        `Slow test_200_workloads;
      Alcotest.test_case "headroom agrees with per-config makespans" `Quick
        test_headroom_per_leaf;
      Alcotest.test_case "plans are reusable across scenarios" `Quick
        test_plan_reuse;
      Alcotest.test_case "plan keys are stable and discriminating" `Quick
        test_plan_key;
      Alcotest.test_case "degradation plans are rejected" `Quick
        (degradation_rejected ~jobs:2
           (Harness.nested_family_system ~seed:1));
      Alcotest.test_case "oversized variant spaces are refused" `Quick
        test_oversized_space;
      Alcotest.test_case "thousands of leftover tokens, three engines agree"
        `Quick test_large_leftovers;
      Alcotest.test_case "warming a cold site's channel re-probes it" `Quick
        test_warm_invalidates_probes;
      Alcotest.test_case "firing counters answer to the oracle" `Quick
        test_firing_counters;
      Alcotest.test_case "limits stop all four arms alike" `Quick
        test_limits_hit;
      Alcotest.test_case "deadlines stop the summary pass and compiled runs"
        `Quick test_deadlines;
      Alcotest.test_case "a port only another variant reads wakes its probe"
        `Quick test_two_port_site;
      Alcotest.test_case "sites cold for the whole run, three engines agree"
        `Quick test_last_site_loaded;
      Alcotest.test_case "a firing allocates nothing" `Quick
        test_firing_allocates_nothing;
    ] )

(* Family semantics and the Sim.Family report read-outs, on flat
   generated systems. *)
let family_suite =
  ( "family",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_flat_with_faults;
      QCheck_alcotest.to_alcotest ~long:false prop_limits_and_budgets;
      QCheck_alcotest.to_alcotest ~long:false prop_flat_jobs_invariant;
      Alcotest.test_case "shared prefixes execute once" `Quick
        test_sharing_pays;
      Alcotest.test_case "200 seeded systems are byte-identical" `Slow
        test_200_flat_systems;
      Alcotest.test_case "degradation plans are rejected" `Quick
        (degradation_rejected (Harness.family_system ~seed:1 ()));
      Alcotest.test_case "makespans follow the traces" `Quick test_makespans;
      Alcotest.test_case "timeline lanes per configuration" `Quick
        test_timeline_lanes;
      Alcotest.test_case "timeline identical to the engine oracle's" `Quick
        test_timeline_matches_oracle;
    ] )
