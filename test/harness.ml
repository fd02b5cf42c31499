(* Shared workload builders for the synthesis test-suite: seeded random
   instances for every explorer entry point, plus the exhaustive Pareto
   enumeration as an oracle.  Every builder is deterministic in [seed]
   so failures reported by qcheck shrink to a reproducible instance. *)

module I = Spi.Ids

let pid = I.Process_id.of_string

let seeded seed = Random.State.make [| seed |]

(* The model of a variant-free system written in the .spi format. *)
let model_of_spi text =
  let system = Lang.Parser.system_of_string text in
  Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)

(* Random single-processor instance in the style of the brute-force
   property in [Test_synth]: overlapping applications over a random
   technology. *)
let random_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "q%d" i)) in
  let tech =
    Synth.Tech.make ~processor_cost:(5 + Random.State.int rng 20)
      (List.map
         (fun p ->
           ( p,
             Synth.Tech.both
               ~load:(5 + Random.State.int rng 60)
               ~area:(5 + Random.State.int rng 60) ))
         pids)
  in
  let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
  let apps =
    [
      Synth.App.make "a" (match subset () with [] -> [ List.hd pids ] | s -> s);
      Synth.App.make "b" (match subset () with [] -> [ List.hd pids ] | s -> s);
      Synth.App.make "c" (match subset () with [] -> [ List.hd pids ] | s -> s);
    ]
  in
  (tech, apps)

(* Random instance with a mix of sw-only / hw-only / both options, so
   the search tree has uneven branching. *)
let random_mixed_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "m%d" i)) in
  let option_for _ =
    match Random.State.int rng 4 with
    | 0 -> Synth.Tech.sw_only ~load:(5 + Random.State.int rng 40)
    | 1 -> Synth.Tech.hw_only ~area:(5 + Random.State.int rng 40)
    | _ ->
      Synth.Tech.both
        ~load:(5 + Random.State.int rng 60)
        ~area:(5 + Random.State.int rng 60)
  in
  let tech =
    Synth.Tech.make
      ~processor_cost:(5 + Random.State.int rng 20)
      (List.map (fun p -> (p, option_for p)) pids)
  in
  let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
  let apps =
    List.init (1 + Random.State.int rng 3) (fun i ->
        Synth.App.make
          (Format.sprintf "a%d" i)
          (match subset () with [] -> [ List.hd pids ] | s -> s))
  in
  (tech, apps)

(* Random instance whose loads, areas and processor cost lie in 1..3,
   so many bindings tie on cost, on load or on both. *)
let random_tie_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "t%d" i)) in
  let small () = 1 + Random.State.int rng 3 in
  let tech =
    Synth.Tech.make ~processor_cost:(small ())
      (List.map
         (fun p -> (p, Synth.Tech.both ~load:(small ()) ~area:(small ())))
         pids)
  in
  let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
  let apps =
    List.init (small ()) (fun i ->
        Synth.App.make
          (Format.sprintf "a%d" i)
          (match subset () with [] -> [ List.hd pids ] | s -> s))
  in
  (tech, apps)

(* The Pareto oracle: the (cost, worst load) vector of every feasible
   leaf of the binding tree, with dominated vectors dropped and equal
   ones merged, sorted by cost.  A software placement that overloads
   one of its applications cuts its subtree, as in the explorer. *)
let pareto_oracle ?(capacity = Synth.Schedule.default_capacity) tech apps =
  let procs =
    Array.of_list (I.Process_id.Set.elements (Synth.App.union_procs apps))
  in
  let apps = Array.of_list apps in
  let members p =
    List.filter
      (fun i -> I.Process_id.Set.mem p apps.(i).Synth.App.procs)
      (List.init (Array.length apps) Fun.id)
  in
  let loads = Array.make (Array.length apps) 0 in
  let leaves = ref [] in
  let rec go i area any_sw =
    if i = Array.length procs then
      leaves :=
        ( (area + if any_sw then Synth.Tech.processor_cost tech else 0),
          Array.fold_left max 0 loads )
        :: !leaves
    else begin
      let o = Synth.Tech.options_of tech procs.(i) and ms = members procs.(i) in
      (match o.Synth.Tech.sw with
      | Some { Synth.Tech.load } ->
        List.iter (fun a -> loads.(a) <- loads.(a) + load) ms;
        if List.for_all (fun a -> loads.(a) <= capacity) ms then
          go (i + 1) area true;
        List.iter (fun a -> loads.(a) <- loads.(a) - load) ms
      | None -> ());
      match o.Synth.Tech.hw with
      | Some { Synth.Tech.area = a } -> go (i + 1) (area + a) any_sw
      | None -> ()
    end
  in
  go 0 0 false;
  let dominates (c, l) (c', l') = c <= c' && l <= l' && (c < c' || l < l') in
  let all = !leaves in
  List.filter (fun p -> not (List.exists (fun q -> dominates q p) all)) all
  |> List.sort_uniq compare

(* Pool workload that forces work onto a second domain,
   deterministically: the single seed task pushes [children] subtasks
   and then refuses to return until one of them has run.  The seed's
   domain is stuck inside the seed, so that child runs on another
   domain.  Returns the number of tasks that ran ([children + 1]) and
   the number of children that ran on a domain other than the seed's.
   Needs [jobs >= 2]. *)
let force_steals ~jobs ~children () =
  let children_run = Atomic.make 0 and moved = Atomic.make 0 in
  let seed_domain = Atomic.make (-1) in
  let tasks =
    Synth.Par.fold ~jobs
      ~init:(fun () -> 0)
      ~merge:( + )
      ~f:(fun ctx acc -> function
        | `Seed ->
          Atomic.set seed_domain (Domain.self () :> int);
          for _ = 1 to children do
            Synth.Par.push ctx `Child
          done;
          while Atomic.get children_run = 0 do
            Domain.cpu_relax ()
          done;
          acc + 1
        | `Child ->
          if (Domain.self () :> int) <> Atomic.get seed_domain then
            Atomic.incr moved;
          Atomic.incr children_run;
          acc + 1)
      [| `Seed |]
  in
  (tasks, Atomic.get moved)

(* ------------------- simulation workloads (Compile) ------------------ *)

(* Seeded simulation workloads for the compiled-vs-interpreted
   differential harness: a generated variant system flattened to a
   model, environment stimuli on its unwritten channels, and the
   configuration sets of its abstraction.  Deterministic in [seed]. *)

let sim_model ~seed =
  let sites = 1 + (seed mod 3) in
  let cluster_processes = 1 + (seed mod 2) in
  let system =
    Variants.Generator.generate
      {
        Variants.Generator.seed;
        shared_processes = 2;
        sites;
        variants_per_site = 2;
        cluster_processes;
        latency_range = (1, 8 + (seed mod 13));
      }
  in
  Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)

let sim_stimuli ?(tokens = 3) model =
  List.concat_map
    (fun cid ->
      List.init tokens (fun i ->
          {
            Sim.Engine.at = 1 + (3 * i);
            channel = cid;
            token = Spi.Token.make ~payload:i ();
          }))
    (I.Channel_id.Set.elements (Spi.Model.unwritten_channels model))

(* ------------------- family simulation workloads --------------------- *)

(* The same generated workload family as [sim_model], but kept as a
   variant system: [Sim.Family_compiled.plan] takes the system itself,
   and the differential harness flattens it once per configuration for
   the per-configuration reference runs.  [sites] defaults to 1-3 by
   seed; with 0 the space has one configuration. *)
let family_system ?sites ~seed () =
  let sites = Option.value sites ~default:(1 + (seed mod 3)) in
  let cluster_processes = 1 + (seed mod 2) in
  Variants.Generator.generate
    {
      Variants.Generator.seed;
      shared_processes = 2;
      sites;
      variants_per_site = 2;
      cluster_processes;
      latency_range = (1, 8 + (seed mod 13));
    }

(* Stimuli restricted to the system's shared (unprefixed) boundary
   channels — every configuration of the space has them, so the family
   run keeps its prefix shared for as long as the variants agree. *)
let family_stimuli ?tokens system =
  List.filter
    (fun s ->
      not (String.contains (I.Channel_id.to_string s.Sim.Engine.channel) '.'))
    (sim_stimuli ?tokens
       (Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)))

(* A fault plan over the model's own processes and channels, scripted
   from [seed]: transients with retries and backoff on half the
   processes, token faults on the first input channel, one scripted
   crash, and a watchdog degradation when the model has configurations
   to fall back to. *)
let sim_fault_plan ~seed ?(configurations = []) model =
  let processes = Spi.Model.processes model in
  let channels = I.Channel_id.Set.elements (Spi.Model.unwritten_channels model) in
  let process_plans =
    List.filteri
      (fun i _ -> (i + seed) mod 2 = 0)
      (List.mapi
         (fun i p ->
           let pid = Spi.Process.id p in
           Sim.Fault.on_process
             ~transient:(Sim.Fault.Probability (0.05 +. (0.05 *. float_of_int (seed mod 4))))
             ~max_retries:(1 + ((seed + i) mod 3))
             ~backoff:(1 + (i mod 3))
             ?crash_at:(if i = 0 && seed mod 5 = 0 then Some (20 + seed mod 17) else None)
             ~overrun:(Sim.Fault.Probability 0.1, 2 + (seed mod 3))
             ~reconf_failure:
               (if seed mod 3 = 0 then Sim.Fault.Probability 0.3 else Sim.Fault.Never)
             pid)
         processes)
  in
  let channel_plans =
    match channels with
    | [] -> []
    | cid :: _ ->
      let fault =
        match seed mod 3 with
        | 0 -> Sim.Fault.Drop
        | 1 -> Sim.Fault.Corrupt
        | _ -> Sim.Fault.Duplicate
      in
      [ Sim.Fault.on_channel cid fault (Sim.Fault.Probability 0.15) ]
  in
  let degrade =
    if configurations = [] then None
    else
      Some
        (Sim.Fault.degradation ~failure_threshold:(1 + (seed mod 2))
           ~fallback:(Sim.Fault.fallback_of_configurations configurations)
           ())
  in
  Sim.Fault.plan ~channels:channel_plans ~processes:process_plans ?degrade
    ~seed ()

(* Family fault plan: [sim_fault_plan] scripted over the first
   configuration's flattened model.  Plan entries naming processes or
   channels absent from another configuration's model are inert there —
   identically in the family engine and in that configuration's own
   [Engine.run].  No degradation: the family engine rejects it. *)
let family_fault_plan ~seed system =
  (* flatten via the first enumerated assignment: unlike
     [Flatten.first_cluster], it also resolves interfaces nested inside
     clusters *)
  let model =
    match Variants.Variant_space.enumerate system with
    | a :: _ -> Variants.Flatten.flatten system (Variants.Variant_space.to_choice a)
    | [] -> assert false
  in
  sim_fault_plan ~seed model

(* ---------------- nested / split-adversarial workloads ---------------- *)

(* A system with a hierarchical variant site: site [nestA] has two outer
   clusters, each embedding an [inner] interface with two variants, plus
   a flat second site [siteB] — 4 subtree choices x 2 = 8
   configurations.  Every cluster level declares internal channels under
   stable names ([nestA.h], [nestA.g], [nestA.inner.w], [siteB.m]), so
   stimuli can target site internals that every configuration declares.
   On odd seeds the second inner variant declares [w] with an initial
   token: the declarations disagree across the space, so the family
   engine's narrowing test must reject the injection and split the
   site at once.  Deterministic in [seed]. *)
let nested_family_system ~seed =
  let rng = seeded seed in
  let chan = I.Channel_id.of_string in
  let lat () =
    let mid = 1 + Random.State.int rng 12 in
    let spread = Random.State.int rng (1 + (mid / 2)) in
    Interval.make (max 0 (mid - spread)) (mid + spread)
  in
  let proc name ~from_ ~to_ =
    Spi.Process.simple ~latency:(lat ())
      ~consumes:[ (from_, Interval.point 1) ]
      ~produces:[ (to_, Spi.Mode.produce (Interval.point 1)) ]
      (pid name)
  in
  let top i = chan (Format.sprintf "c%d" i) in
  let channels = List.init 5 (fun i -> Spi.Chan.queue (top i)) in
  let shared =
    [ proc "S1" ~from_:(top 0) ~to_:(top 1);
      proc "S2" ~from_:(top 1) ~to_:(top 2) ]
  in
  let pin () = Variants.Port.input "pin"
  and pout () = Variants.Port.output "pout" in
  let pin_chan = Variants.Port.channel_of (I.Port_id.of_string "pin")
  and pout_chan = Variants.Port.channel_of (I.Port_id.of_string "pout") in
  let inner_cluster v =
    let w = chan "w" in
    let wchan =
      if v = 2 && seed mod 2 = 1 then
        Spi.Chan.queue ~initial:[ Spi.Token.plain ] w
      else Spi.Chan.queue w
    in
    Variants.Cluster.make ~channels:[ wchan ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "iv%d_1" v) ~from_:pin_chan ~to_:w;
          proc (Format.sprintf "iv%d_2" v) ~from_:w ~to_:pout_chan;
        ]
      (Format.sprintf "inner_var%d" v)
  in
  let inner_site () =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ inner_cluster 1; inner_cluster 2 ]
        "inner"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", chan "h");
          (I.Port_id.of_string "pout", chan "g");
        ];
    }
  in
  let outer_cluster v =
    Variants.Cluster.make
      ~channels:[ Spi.Chan.queue (chan "h"); Spi.Chan.queue (chan "g") ]
      ~sub_sites:[ inner_site () ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "ov%d_in" v) ~from_:pin_chan ~to_:(chan "h");
          proc (Format.sprintf "ov%d_out" v) ~from_:(chan "g") ~to_:pout_chan;
        ]
      (Format.sprintf "nest_var%d" v)
  in
  let nest_site =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ outer_cluster 1; outer_cluster 2 ]
        "nestA"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", top 2); (I.Port_id.of_string "pout", top 3);
        ];
    }
  in
  let flat_cluster v =
    Variants.Cluster.make
      ~channels:[ Spi.Chan.queue (chan "m") ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "bv%d_1" v) ~from_:pin_chan ~to_:(chan "m");
          proc (Format.sprintf "bv%d_2" v) ~from_:(chan "m") ~to_:pout_chan;
        ]
      (Format.sprintf "siteB_var%d" v)
  in
  let site_b =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ flat_cluster 1; flat_cluster 2 ]
        "siteB"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", top 3); (I.Port_id.of_string "pout", top 4);
        ];
    }
  in
  let system =
    Variants.System.make ~processes:shared ~channels
      ~sites:[ nest_site; site_b ]
      (Format.sprintf "nested_seed%d" seed)
  in
  Variants.System.validate_exn system;
  system

(* Split-adversarial stimulus schedule for [nested_family_system]:
   interleaves boundary injections with injections straight into site
   internals — including the nested site's innermost channel — while
   those sites are still cold, forcing the engines through the
   warm-or-split decision at every level.  Every target channel is
   declared by every configuration, so each per-configuration reference
   run accepts the same schedule. *)
let nested_family_stimuli ?(tokens = 3) system =
  ignore system;
  let mk at name i =
    {
      Sim.Engine.at;
      channel = I.Channel_id.of_string name;
      token = Spi.Token.make ~payload:i ();
    }
  in
  List.concat
    (List.init tokens (fun i ->
         [
           mk (1 + (4 * i)) "c0" i;
           mk (2 + (4 * i)) "nestA.h" i;
           mk (3 + (4 * i)) "nestA.inner.w" i;
           mk (4 + (4 * i)) "siteB.m" i;
         ]))
