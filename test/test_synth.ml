(* Tests for the synthesis substrate: technology libraries, bindings,
   schedulability, cost, the branch-and-bound explorer and the
   baselines — including exact reproduction of Table 1. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = I.Process_id.of_string

(* ------------------------------- tech ------------------------------- *)

let test_tech_basics () =
  let tech = F2.table1_tech in
  Alcotest.(check int) "processor cost" 15 (Synth.Tech.processor_cost tech);
  Alcotest.(check bool) "mem" true (Synth.Tech.mem tech F2.pa);
  Alcotest.(check int) "four entries" 4 (List.length (Synth.Tech.process_ids tech));
  let o = Synth.Tech.options_of tech F2.pa in
  Alcotest.(check (option int))
    "PA load" (Some 40)
    (Option.map (fun s -> s.Synth.Tech.load) o.Synth.Tech.sw);
  Alcotest.(check (option int))
    "PA area" (Some 26)
    (Option.map (fun h -> h.Synth.Tech.area) o.Synth.Tech.hw)

let test_tech_validation () =
  (try
     ignore (Synth.Tech.make [ (pid "p", { Synth.Tech.sw = None; hw = None }) ]);
     Alcotest.fail "no-option process accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Synth.Tech.make
          [
            (pid "p", Synth.Tech.sw_only ~load:1);
            (pid "p", Synth.Tech.sw_only ~load:2);
          ]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Synth.Tech.make [ (pid "p", Synth.Tech.sw_only ~load:(-1)) ]);
    Alcotest.fail "negative load accepted"
  with Invalid_argument _ -> ()

let test_tech_of_weights () =
  let pids = [ pid "a"; pid "b" ] in
  let tech = Synth.Tech.of_weights ~weight:(fun _ -> 30) pids in
  let o = Synth.Tech.options_of tech (pid "a") in
  Alcotest.(check (option int))
    "load formula" (Some 15)
    (Option.map (fun s -> s.Synth.Tech.load) o.Synth.Tech.sw);
  Alcotest.(check (option int))
    "area formula" (Some 40)
    (Option.map (fun h -> h.Synth.Tech.area) o.Synth.Tech.hw)

(* ------------------------------ binding ----------------------------- *)

let test_binding () =
  let b =
    Synth.Binding.of_list
      [ (pid "a", Synth.Binding.Sw); (pid "b", Synth.Binding.Hw) ]
  in
  Alcotest.(check int) "cardinal" 2 (Synth.Binding.cardinal b);
  Alcotest.(check bool) "sw set" true
    (I.Process_id.Set.mem (pid "a") (Synth.Binding.sw_processes b));
  Alcotest.(check bool) "hw set" true
    (I.Process_id.Set.mem (pid "b") (Synth.Binding.hw_processes b));
  let b2 = Synth.Binding.of_list [ (pid "c", Synth.Binding.Sw) ] in
  (match Synth.Binding.merge b b2 with
  | Ok m -> Alcotest.(check int) "merged" 3 (Synth.Binding.cardinal m)
  | Error _ -> Alcotest.fail "merge must succeed");
  let conflicting = Synth.Binding.of_list [ (pid "a", Synth.Binding.Hw) ] in
  match Synth.Binding.merge b conflicting with
  | Error [ p ] -> Alcotest.(check string) "conflict on a" "a" (I.Process_id.to_string p)
  | Error ps -> Alcotest.failf "expected one conflict, got %d" (List.length ps)
  | Ok _ -> Alcotest.fail "conflict expected"

(* ----------------------------- schedule ----------------------------- *)

let all_sw app =
  Synth.Binding.of_list
    (List.map
       (fun p -> (p, Synth.Binding.Sw))
       (I.Process_id.Set.elements app.Synth.App.procs))

let test_schedule () =
  let tech = F2.table1_tech in
  (* App1 all software: 40 + 30 + 60 = 130 > 100 *)
  (match Synth.Schedule.check tech (all_sw F2.app1) [ F2.app1 ] with
  | Synth.Schedule.Overload { load; capacity; _ } ->
    Alcotest.(check int) "load" 130 load;
    Alcotest.(check int) "capacity" 100 capacity
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v);
  (* move g1 to hardware: 70 <= 100 *)
  let b =
    Synth.Binding.bind F2.unit_g1 Synth.Binding.Hw (all_sw F2.app1)
  in
  (match Synth.Schedule.check tech b [ F2.app1 ] with
  | Synth.Schedule.Feasible { worst_load; _ } ->
    Alcotest.(check int) "worst load" 70 worst_load
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v);
  (* unbound process detected *)
  match Synth.Schedule.check tech Synth.Binding.empty [ F2.app1 ] with
  | Synth.Schedule.Unbound_process _ -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v

let test_schedule_mutual_exclusion () =
  let tech = F2.table1_tech in
  (* both variants in software: each application alone fits (if PA,PB in
     hardware), although the summed loads would not *)
  let b =
    Synth.Binding.of_list
      [
        (F2.pa, Synth.Binding.Hw);
        (F2.pb, Synth.Binding.Hw);
        (F2.unit_g1, Synth.Binding.Sw);
        (F2.unit_g2, Synth.Binding.Sw);
      ]
  in
  match Synth.Schedule.check tech b [ F2.app1; F2.app2 ] with
  | Synth.Schedule.Feasible { worst_load; _ } ->
    Alcotest.(check int) "per-app max" 60 worst_load
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v

(* ------------------------------- cost ------------------------------- *)

let test_cost () =
  let tech = F2.table1_tech in
  let b =
    Synth.Binding.of_list
      [
        (F2.pa, Synth.Binding.Sw);
        (F2.pb, Synth.Binding.Sw);
        (F2.unit_g1, Synth.Binding.Hw);
      ]
  in
  let c = Synth.Cost.of_binding tech b in
  Alcotest.(check int) "processor" 15 c.Synth.Cost.processor;
  Alcotest.(check int) "total" 34 c.Synth.Cost.total;
  (* all-hardware binding pays no processor *)
  let all_hw =
    Synth.Binding.of_list
      [ (F2.pa, Synth.Binding.Hw); (F2.pb, Synth.Binding.Hw) ]
  in
  let c2 = Synth.Cost.of_binding tech all_hw in
  Alcotest.(check int) "no processor" 0 c2.Synth.Cost.processor;
  Alcotest.(check int) "areas" 56 c2.Synth.Cost.total

(* ------------------------------ explore ----------------------------- *)

let test_table1_exact () =
  let tech = F2.table1_tech in
  let s1 = Synth.Explore.optimal_exn tech [ F2.app1 ] in
  let s2 = Synth.Explore.optimal_exn tech [ F2.app2 ] in
  let var = Synth.Explore.optimal_exn tech [ F2.app1; F2.app2 ] in
  let sup =
    match Synth.Superpose.superpose tech [ F2.app1; F2.app2 ] with
    | Some r -> r
    | None -> Alcotest.fail "superposition infeasible"
  in
  Alcotest.(check int) "App1 total" 34 s1.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check int) "App2 total" 38 s2.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check int) "Superposition total" 57 sup.Synth.Superpose.cost.Synth.Cost.total;
  Alcotest.(check int) "With variants total" 41 var.Synth.Explore.cost.Synth.Cost.total;
  (* mapping shapes match the paper rows *)
  Alcotest.(check (option bool))
    "App1: g1 in HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.unit_g1 s1.Synth.Explore.binding));
  Alcotest.(check (option bool))
    "variants: PA in HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.pa var.Synth.Explore.binding));
  Alcotest.(check (option bool))
    "variants: g1 in SW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Sw)
       (Synth.Binding.impl_of F2.unit_g1 var.Synth.Explore.binding))

let brute_force ?(capacity = 100) ?(fixed = Synth.Binding.empty)
    ?(accept = fun _ -> true) tech apps =
  let procs = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  let rec go procs binding =
    match procs with
    | [] ->
      if
        Synth.Schedule.is_feasible
          (Synth.Schedule.check ~capacity tech binding apps)
        && accept binding
      then Some (Synth.Cost.total tech binding)
      else None
    | p :: rest ->
      let try_impl impl =
        let o = Synth.Tech.options_of tech p in
        let available =
          (match impl with
          | Synth.Binding.Sw -> Option.is_some o.Synth.Tech.sw
          | Synth.Binding.Hw -> Option.is_some o.Synth.Tech.hw)
          &&
          match Synth.Binding.impl_of p fixed with
          | Some pin -> pin = impl
          | None -> true
        in
        if available then go rest (Synth.Binding.bind p impl binding) else None
      in
      (match try_impl Synth.Binding.Sw, try_impl Synth.Binding.Hw with
      | Some a, Some b -> Some (min a b)
      | (Some _ as r), None | None, (Some _ as r) -> r
      | None, None -> None)
  in
  go procs Synth.Binding.empty

(* Two generators against brute force: two overlapping applications
   over processes with both options, and the mixed family (software-only,
   hardware-only and both; one to three applications) on three more
   processes, whose search trees branch unevenly.  A returned binding
   must also be schedulable and priced at its reported cost. *)
let prop_explore_matches_bruteforce =
  QCheck.Test.make ~name:"explorer is exact vs brute force" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let pids = List.init n (fun i -> pid (Format.sprintf "w%d" i)) in
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
      (* two overlapping applications over random subsets *)
      let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
      let apps =
        [
          Synth.App.make "a" (match subset () with [] -> [ List.hd pids ] | s -> s);
          Synth.App.make "b" (match subset () with [] -> [ List.hd pids ] | s -> s);
        ]
      in
      let exact (tech, apps) =
        match Synth.Explore.optimal tech apps with
        | None -> brute_force tech apps = None
        | Some s ->
          let b = s.Synth.Explore.binding
          and cost = s.Synth.Explore.cost.Synth.Cost.total in
          brute_force tech apps = Some cost
          && Synth.Schedule.is_feasible (Synth.Schedule.check tech b apps)
          && (Synth.Cost.of_binding tech b).Synth.Cost.total = cost
      in
      exact (tech, apps)
      && exact (Harness.random_mixed_instance ~n:(n + 3) ~seed:(seed * 97)))

(* Variant-structured instances, the shape the explorer's variant-aware
   bound reasons about: 1-3 shared processes plus 1-3 sites of 1-3
   mutually exclusive variants, each a cluster of 1-2 processes (at
   most 16 processes), and one application per variant combination, as
   [App.of_system] builds them.  Options mix software-only,
   hardware-only and both; some processes are pinned; random name
   prefixes shuffle the decision order.  [shared] and [sites] narrow
   the ranges of shared processes and sites. *)
let variant_instance ?(shared = (1, 3)) ?(sites = (1, 3)) rng =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let shared = int (fst shared) (snd shared)
  and sites = int (fst sites) (snd sites)
  and variants = int 1 3 in
  let cluster = if shared + (sites * variants * 2) <= 16 then int 1 2 else 1 in
  let name fmt =
    Printf.ksprintf (fun s -> pid (Printf.sprintf "%02d%s" (int 0 99) s)) fmt
  in
  let shared_pids = List.init shared (name "s%d") in
  let site_pids =
    List.init sites (fun s ->
        List.init variants (fun v -> List.init cluster (name "x%d_%d_%d" s v)))
  in
  let apps =
    List.fold_left
      (fun partial choices ->
        List.concat_map
          (fun (label, procs) ->
            List.mapi
              (fun v ps -> (Printf.sprintf "%s.%d" label v, procs @ ps))
              choices)
          partial)
      [ ("a", shared_pids) ]
      site_pids
    |> List.map (fun (label, procs) -> Synth.App.make label procs)
  in
  let pids = shared_pids @ List.concat (List.concat site_pids) in
  let options () =
    match int 0 4 with
    | 0 -> Synth.Tech.sw_only ~load:(int 0 59)
    | 1 -> Synth.Tech.hw_only ~area:(int 0 59)
    | _ -> Synth.Tech.both ~load:(int 0 59) ~area:(int 0 59)
  in
  let tech =
    Synth.Tech.make ~processor_cost:(int 0 29)
      (List.map (fun p -> (p, options ())) pids)
  in
  let fixed =
    List.fold_left
      (fun b p ->
        if int 0 5 > 0 then b
        else
          let o = Synth.Tech.options_of tech p in
          match (o.Synth.Tech.sw, o.Synth.Tech.hw) with
          | Some _, Some _ ->
            Synth.Binding.bind p
              (if Random.State.bool rng then Synth.Binding.Sw else Synth.Binding.Hw)
              b
          | Some _, None -> Synth.Binding.bind p Synth.Binding.Sw b
          | None, _ -> Synth.Binding.bind p Synth.Binding.Hw b)
      Synth.Binding.empty pids
  in
  (tech, apps, fixed, int 20 139)

(* The optimum (or its absence) matches brute force at jobs 1 and 2, and
   every returned binding respects the pins and the capacity. *)
let prop_variant_bound_exact =
  QCheck.Test.make ~name:"variant-aware bound keeps the explorer exact"
    ~count:3000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tech, apps, fixed, capacity =
        variant_instance (Random.State.make [| seed |])
      in
      let expected = brute_force ~capacity ~fixed tech apps in
      List.for_all
        (fun jobs ->
          match Synth.Explore.solve ~jobs ~capacity ~fixed tech apps with
          | Error Synth.Explore.Infeasible -> expected = None
          | Error _ -> false
          | Ok s ->
            let b = s.Synth.Explore.binding in
            expected = Some s.Synth.Explore.cost.Synth.Cost.total
            && Synth.Schedule.is_feasible
                 (Synth.Schedule.check ~capacity tech b apps)
            && List.for_all
                 (fun p -> Synth.Binding.impl_of p b = Synth.Binding.impl_of p fixed)
                 (Synth.Binding.processes fixed))
        [ 1; 2 ])

(* A process's options under the pins of [fixed]. *)
let pinned_options ~fixed tech p =
  let o = Synth.Tech.options_of tech p in
  let pin = Synth.Binding.impl_of p fixed in
  ( (if pin = Some Synth.Binding.Hw then None else o.Synth.Tech.sw),
    if pin = Some Synth.Binding.Sw then None else o.Synth.Tech.hw )

(* The greedy completion of the empty binding, visiting [procs] in
   order: software when every application it belongs to keeps its load
   within [capacity], hardware otherwise.  [None] when some process
   then has no allowed option. *)
let greedy_in_order ~capacity ~fixed tech apps procs =
  let loads = Array.make (List.length apps) 0 in
  List.fold_left
    (fun acc p ->
      Option.bind acc (fun (area, any_sw) ->
          let sw, hw = pinned_options ~fixed tech p in
          let members =
            List.concat
              (List.mapi
                 (fun i (a : Synth.App.t) ->
                   if I.Process_id.Set.mem p a.Synth.App.procs then [ i ] else [])
                 apps)
          in
          match sw with
          | Some s
            when List.for_all
                   (fun i -> loads.(i) + s.Synth.Tech.load <= capacity)
                   members ->
            List.iter (fun i -> loads.(i) <- loads.(i) + s.Synth.Tech.load) members;
            Some (area, true)
          | Some _ | None ->
            Option.map (fun h -> (area + h.Synth.Tech.area, any_sw)) hw))
    (Some (0, false)) procs
  |> Option.map (fun (area, any_sw) ->
         area + if any_sw then Synth.Tech.processor_cost tech else 0)

(* The greedy completion in decision order. *)
let root_greedy ~capacity ~fixed tech apps =
  greedy_in_order ~capacity ~fixed tech apps
    (I.Process_id.Set.elements (Synth.App.union_procs apps))

(* The greedy completion in knapsack order: first every process that
   can move no load to hardware (software-only, hardware-only or of
   load 0), then the rest by hardware area per unit of software load,
   dearest first, equal ratios in reverse decision order. *)
let knapsack_greedy ~capacity ~fixed tech apps =
  let item p =
    match pinned_options ~fixed tech p with
    | Some s, Some h when s.Synth.Tech.load > 0 ->
      Some (s.Synth.Tech.load, h.Synth.Tech.area)
    | _ -> None
  in
  let items, rest =
    List.partition
      (fun p -> Option.is_some (item p))
      (I.Process_id.Set.elements (Synth.App.union_procs apps))
  in
  let cheapest_first p q =
    let l1, a1 = Option.get (item p) and l2, a2 = Option.get (item q) in
    Int.compare (a1 * l2) (a2 * l1)
  in
  greedy_in_order ~capacity ~fixed tech apps
    (rest @ List.rev (List.stable_sort cheapest_first items))

(* The one search at every job count, on variant instances of every
   size; half the seeds draw fewer than four processes.  A solve
   returns brute force's optimum, and a solve whose deadline has
   already expired answers the cheapest seed, degraded: at most the
   greedy completion's cost in decision order and in knapsack order,
   and [Deadline_no_incumbent] only when neither exists. *)
let prop_one_search =
  QCheck.Test.make ~name:"one search: exact at jobs 1 and 2, greedy when expired"
    ~count:600
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rec tiny () =
        let ((_, apps, _, _) as i) =
          variant_instance ~shared:(0, 1) ~sites:(1, 1) rng
        in
        if I.Process_id.Set.cardinal (Synth.App.union_procs apps) < 4 then i
        else tiny ()
      in
      let tech, apps, fixed, capacity =
        if seed mod 2 = 0 then tiny () else variant_instance rng
      in
      let expected = brute_force ~capacity ~fixed tech apps in
      let greedy = root_greedy ~capacity ~fixed tech apps in
      let knapsack = knapsack_greedy ~capacity ~fixed tech apps in
      let at_most bound cost =
        match bound with Some b -> cost <= b | None -> true
      in
      let valid (s : Synth.Explore.solution) =
        let b = s.Synth.Explore.binding in
        Synth.Schedule.is_feasible (Synth.Schedule.check ~capacity tech b apps)
        && List.for_all
             (fun p -> Synth.Binding.impl_of p b = Synth.Binding.impl_of p fixed)
             (Synth.Binding.processes fixed)
        && (Synth.Cost.of_binding tech b).Synth.Cost.total
           = s.Synth.Explore.cost.Synth.Cost.total
      in
      List.for_all
        (fun jobs ->
          let exact =
            match Synth.Explore.solve ~jobs ~capacity ~fixed tech apps with
            | Error Synth.Explore.Infeasible -> expected = None
            | Error _ -> false
            | Ok s ->
              expected = Some s.Synth.Explore.cost.Synth.Cost.total
              && (not s.Synth.Explore.degraded)
              && valid s
          in
          let expired =
            match
              Synth.Explore.solve ~jobs ~capacity ~fixed
                ~deadline_ns:(Obs.Clock.now_ns ()) tech apps
            with
            | Error Synth.Explore.Deadline_no_incumbent ->
              greedy = None && knapsack = None
            | Error _ -> false
            | Ok s ->
              let cost = s.Synth.Explore.cost.Synth.Cost.total in
              s.Synth.Explore.degraded && valid s
              && (match expected with Some e -> cost >= e | None -> false)
              && at_most greedy cost && at_most knapsack cost
          in
          exact && expired)
        [ 1; 2 ])

(* figure2-gen-medium of the explore benchmark: 26 processes, 8
   applications, capacity 120, with the first six processes in decision
   order ASIC-expensive and cheap in software. *)
let figure2_medium ?(seed = 9) () =
  let system =
    Variants.Generator.generate
      {
        Variants.Generator.seed;
        shared_processes = 8;
        sites = 3;
        variants_per_site = 2;
        cluster_processes = 3;
        latency_range = (1, 10);
      }
  in
  let apps = Synth.App.of_system system in
  let pids = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.mapi
         (fun i p ->
           let w =
             1 + (((Variants.Generator.process_weight p * 31) + (seed * 53)) mod 100)
           in
           if i < 6 then (p, Synth.Tech.both ~load:(4 + (w mod 5)) ~area:(300 + w))
           else (p, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
         pids)
  in
  (tech, apps)

(* The bound is live: without it the search expands 37,746 nodes on
   this instance at jobs=1, with it about 1,600. *)
let test_bound_is_live () =
  let tech, apps = figure2_medium () in
  let s = Synth.Explore.optimal_exn ~capacity:120 tech apps in
  Alcotest.(check int) "optimum" 728 s.Synth.Explore.cost.Synth.Cost.total;
  if s.Synth.Explore.explored >= 50_000 then
    Alcotest.failf "expanded %d nodes, expected fewer than 50,000"
      s.Synth.Explore.explored

(* Warm starts under the bound: seeded with the cold optimum, jobs=1
   keeps that binding (no strictly cheaper leaf exists) and expands no
   more nodes; seeded with the all-hardware binding it still proves the
   same optimum. *)
let test_bound_warm_start () =
  let tech, apps = figure2_medium () in
  let cold = Synth.Explore.optimal_exn ~capacity:120 tech apps in
  let solve warm =
    match Synth.Explore.solve ~capacity:120 ~warm tech apps with
    | Ok s -> s
    | Error d -> Alcotest.failf "%a" Synth.Explore.pp_diagnostic d
  in
  let same = solve cold.Synth.Explore.binding in
  Alcotest.(check int) "cost" cold.Synth.Explore.cost.Synth.Cost.total
    same.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check string) "binding kept"
    (Format.asprintf "%a" Synth.Binding.pp cold.Synth.Explore.binding)
    (Format.asprintf "%a" Synth.Binding.pp same.Synth.Explore.binding);
  Alcotest.(check bool) "no more nodes than cold" true
    (same.Synth.Explore.explored <= cold.Synth.Explore.explored);
  let all_hw =
    Synth.Binding.of_list
      (List.map
         (fun p -> (p, Synth.Binding.Hw))
         (I.Process_id.Set.elements (Synth.App.union_procs apps)))
  in
  Alcotest.(check int) "cost from an all-hardware warm start"
    cold.Synth.Explore.cost.Synth.Cost.total
    (solve all_hw).Synth.Explore.cost.Synth.Cost.total

(* The same liveness at both job counts ([jobs] is accepted and
   ignored), tight enough that a search without the bound (37,746 nodes
   at jobs=1) fails it. *)
let test_bound_live_every_jobs () =
  let tech, apps = figure2_medium () in
  List.iter
    (fun jobs ->
      let s =
        match Synth.Explore.solve ~jobs ~capacity:120 tech apps with
        | Ok s -> s
        | Error d -> Alcotest.failf "%a" Synth.Explore.pp_diagnostic d
      in
      Alcotest.(check int) (Printf.sprintf "optimum, jobs=%d" jobs) 728
        s.Synth.Explore.cost.Synth.Cost.total;
      if s.Synth.Explore.explored >= 5_000 then
        Alcotest.failf "jobs=%d expanded %d nodes, expected fewer than 5,000"
          jobs s.Synth.Explore.explored)
    [ 1; 2 ]

(* Neither a cold solve at jobs=1 nor a warm one at jobs=2, seeded
   with the cold optimum, starts a domain pool, and the warm cost is
   the cold one, on figure2_medium and on the same generator at seeds
   1-5. *)
let test_warm_start_no_pool () =
  let pools = Obs.Registry.counter "par.pools" in
  List.iter
    (fun seed ->
      let tech, apps = figure2_medium ~seed () in
      let solve ?warm jobs =
        match Synth.Explore.solve ~jobs ~capacity:120 ?warm tech apps with
        | Ok s -> s
        | Error d -> Alcotest.failf "%a" Synth.Explore.pp_diagnostic d
      in
      let p0 = Obs.Metric.value pools in
      let cold = solve 1 in
      Alcotest.(check int) (Printf.sprintf "seed %d: jobs=1 starts no pool" seed)
        p0 (Obs.Metric.value pools);
      let warm = solve ~warm:cold.Synth.Explore.binding 2 in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: warm jobs=2 starts no pool" seed)
        p0 (Obs.Metric.value pools);
      Alcotest.(check int) (Printf.sprintf "seed %d: warm cost" seed)
        cold.Synth.Explore.cost.Synth.Cost.total
        warm.Synth.Explore.cost.Synth.Cost.total)
    [ 9; 1; 2; 3; 4; 5 ]

(* [accept] under the bound: rejecting every binding at the optimal cost
   makes the explorer return the next cheapest accepted one, as brute
   force does, at jobs 1 and 2. *)
let test_bound_accept () =
  let rng = Random.State.make [| 7 |] in
  let rec instance () =
    let ((tech, apps, fixed, capacity) as i) = variant_instance rng in
    match brute_force ~capacity ~fixed tech apps with
    | Some opt
      when I.Process_id.Set.cardinal (Synth.App.union_procs apps) >= 8
           && List.length apps >= 4 ->
      (i, opt)
    | Some _ | None -> instance ()
  in
  let (tech, apps, fixed, capacity), opt = instance () in
  let accept b = Synth.Cost.total tech b <> opt in
  let expected = brute_force ~capacity ~fixed ~accept tech apps in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Option.map
           (fun (s : Synth.Explore.solution) -> s.Synth.Explore.cost.Synth.Cost.total)
           (Result.to_option
              (Synth.Explore.solve ~jobs ~capacity ~fixed ~accept tech apps))))
    [ 1; 2 ]

(* Many shared processes named ahead of six binary sites: 64
   applications, each needing one unit of load moved to hardware, at
   cost 10.  Every row of the bound table over the shared prefix copies
   all 64 groups' item arrays, processes^2 x applications words in all,
   so the table is built for 20 shared processes and dropped past its
   budget for 600.  The warm start is optimal: with the table the root
   is cut, without it the search walks the all-software path. *)
let shared_ahead_of_sites ~shared =
  let shared_pids =
    List.init shared (fun k -> pid (Printf.sprintf "s%04d" k))
  in
  let site_pids =
    List.init 6 (fun s ->
        List.init 2 (fun v -> pid (Printf.sprintf "x%d_%d" s v)))
  in
  let apps =
    List.fold_left
      (fun partial choices ->
        List.concat_map (fun procs -> List.map (fun p -> p :: procs) choices) partial)
      [ shared_pids ] site_pids
    |> List.mapi (fun k procs -> Synth.App.make (Printf.sprintf "a%d" k) procs)
  in
  let pids = shared_pids @ List.concat site_pids in
  let tech =
    Synth.Tech.make ~processor_cost:0
      (List.map (fun p -> (p, Synth.Tech.both ~load:1 ~area:10)) pids)
  in
  let warm =
    Synth.Binding.of_list
      (List.mapi
         (fun k p -> (p, if k = 0 then Synth.Binding.Hw else Synth.Binding.Sw))
         pids)
  in
  (tech, apps, warm, shared + 5)

let test_bound_budget jobs () =
  let solve ~shared =
    let tech, apps, warm, capacity = shared_ahead_of_sites ~shared in
    let before = Gc.allocated_bytes () in
    match Synth.Explore.solve ~jobs ~capacity ~warm tech apps with
    | Ok s ->
      let words =
        (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
      in
      Alcotest.(check int) "optimum" 10 s.Synth.Explore.cost.Synth.Cost.total;
      (s.Synth.Explore.explored, words)
    | Error d -> Alcotest.failf "%a" Synth.Explore.pp_diagnostic d
  in
  let explored, _ = solve ~shared:20 in
  Alcotest.(check int) "table built: the root is cut" 0 explored;
  (* the plain search allocates ~0.8M words here, the table's build
     budget is 2^21 words, and the whole table would take ~13M *)
  let explored, words = solve ~shared:600 in
  Alcotest.(check int) "table dropped: the all-software path" 611 explored;
  if words > 4_194_304. then
    Alcotest.failf "solve allocated %.0f words, expected at most 2^22" words

let test_explore_fixed () =
  let tech = F2.table1_tech in
  let fixed = Synth.Binding.of_list [ (F2.pa, Synth.Binding.Sw) ] in
  let s = Synth.Explore.optimal_exn ~fixed tech [ F2.app1; F2.app2 ] in
  Alcotest.(check (option bool))
    "PA stays SW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Sw)
       (Synth.Binding.impl_of F2.pa s.Synth.Explore.binding));
  (* with PA pinned to software the optimum moves PB to hardware so the
     variants can still share the processor: 15 + 30 = 45 *)
  Alcotest.(check int) "pinned optimum" 45 s.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check (option bool))
    "PB moves to HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.pb s.Synth.Explore.binding))

let test_explore_infeasible () =
  let tech =
    Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:200) ]
  in
  Alcotest.(check bool) "no feasible binding" true
    (Option.is_none (Synth.Explore.optimal tech [ Synth.App.make "a" [ pid "x" ] ]))

(* ---------------------------- baselines ----------------------------- *)

let test_serial_all_in_one () =
  match Synth.Serial.all_in_one F2.table1_tech [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "all-in-one should be feasible"
  | Some s ->
    (* serialized loads lose mutual exclusion: optimum is superposition-like *)
    Alcotest.(check int) "cost" 57 s.Synth.Explore.cost.Synth.Cost.total

let test_serial_incremental () =
  let results = Synth.Serial.all_orders F2.table1_tech [ F2.app1; F2.app2 ] in
  Alcotest.(check int) "two orders" 2 (List.length results);
  List.iter
    (fun (r : Synth.Serial.incremental_result) ->
      Alcotest.(check bool) "feasible" true r.feasible;
      (* incremental never beats the variant-aware optimum *)
      Alcotest.(check bool) "not better than optimal" true
        (r.cost.Synth.Cost.total >= 41))
    results;
  match Synth.Serial.cost_spread results with
  | Some (best, worst) ->
    Alcotest.(check bool) "spread ordered" true (best <= worst)
  | None -> Alcotest.fail "spread expected"

let test_design_time () =
  let apps = [ F2.app1; F2.app2 ] in
  Alcotest.(check int) "independent" 6 (Synth.Design_time.decisions_independent apps);
  Alcotest.(check int) "variant aware" 4
    (Synth.Design_time.decisions_variant_aware apps);
  Alcotest.(check bool) "speedup > 1" true (Synth.Design_time.speedup apps > 1.0);
  Alcotest.(check int) "time model" 25
    (Synth.Design_time.time ~effort_per_decision:6 ~fixed_overhead:1 ~decisions:4 ())

let test_superpose_per_app () =
  match Synth.Superpose.superpose F2.table1_tech [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "superposition expected"
  | Some r ->
    Alcotest.(check int) "two per-app solutions" 2 (List.length r.Synth.Superpose.per_app);
    Alcotest.(check int) "no conflicts" 0 (List.length r.Synth.Superpose.conflicts)

let prop_variant_aware_never_worse =
  QCheck.Test.make ~name:"variant-aware <= superposition" ~count:60
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pids = List.init 5 (fun i -> pid (Format.sprintf "p%d" i)) in
      let tech =
        Synth.Tech.make
          (List.map
             (fun p ->
               ( p,
                 Synth.Tech.both
                   ~load:(10 + Random.State.int rng 50)
                   ~area:(10 + Random.State.int rng 50) ))
             pids)
      in
      let shared = [ List.nth pids 0; List.nth pids 1 ] in
      let apps =
        [
          Synth.App.make "a" (List.nth pids 2 :: shared);
          Synth.App.make "b" (List.nth pids 3 :: List.nth pids 4 :: shared);
        ]
      in
      match Synth.Superpose.superpose tech apps, Synth.Explore.optimal tech apps with
      | Some sup, Some var ->
        var.Synth.Explore.cost.Synth.Cost.total
        <= sup.Synth.Superpose.cost.Synth.Cost.total
      | None, _ -> true (* single app infeasible: nothing to compare *)
      | Some _, None -> false (* superposable implies feasible *))

(* ------------------------- diagnostics ----------------------------- *)

let diagnostic =
  Alcotest.testable Synth.Explore.pp_diagnostic (fun a b ->
      match (a, b) with
      | Synth.Explore.Infeasible, Synth.Explore.Infeasible -> true
      | ( Synth.Explore.Pinned_impl_unavailable a,
          Synth.Explore.Pinned_impl_unavailable b ) ->
        I.Process_id.equal a.process b.process && a.impl = b.impl
      | _ -> false)

let solution_cost = Alcotest.testable Synth.Explore.pp_solution (fun _ _ -> true)

let result_t = Alcotest.result solution_cost diagnostic

let test_pinned_impl_unavailable () =
  let x = pid "x" and y = pid "y" in
  let tech =
    Synth.Tech.make
      [
        (x, Synth.Tech.sw_only ~load:10);
        (y, Synth.Tech.both ~load:10 ~area:5);
      ]
  in
  let apps = [ Synth.App.make "a" [ x; y ] ] in
  (* pinning x to hardware is unsatisfiable: its entry has no hw option *)
  let fixed = Synth.Binding.of_list [ (x, Synth.Binding.Hw) ] in
  Alcotest.check result_t "names the pinned process and impl"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = x; impl = Synth.Binding.Hw }))
    (Synth.Explore.solve ~fixed tech apps);
  (* the mirror image: pinning a hw-only process to software *)
  let tech_hw =
    Synth.Tech.make
      [ (x, Synth.Tech.hw_only ~area:7); (y, Synth.Tech.both ~load:10 ~area:5) ]
  in
  let fixed_sw = Synth.Binding.of_list [ (x, Synth.Binding.Sw) ] in
  Alcotest.check result_t "sw pin on hw-only process"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = x; impl = Synth.Binding.Sw }))
    (Synth.Explore.solve ~fixed:fixed_sw tech_hw apps)

let test_genuinely_infeasible_is_distinct () =
  (* a software-only process whose load exceeds any capacity is a
     capacity infeasibility, not a pinning error *)
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:200) ] in
  let apps = [ Synth.App.make "a" [ pid "x" ] ] in
  Alcotest.check result_t "plain Infeasible" (Error Synth.Explore.Infeasible)
    (Synth.Explore.solve tech apps);
  (* five such processes: the search splits them into prefix tasks and
     reports the same diagnostic *)
  let tech5 =
    Synth.Tech.make
      (List.init 5 (fun i ->
           (pid (Format.sprintf "x%d" i), Synth.Tech.sw_only ~load:200)))
  in
  let apps5 =
    [ Synth.App.make "a" (List.init 5 (fun i -> pid (Format.sprintf "x%d" i))) ]
  in
  Alcotest.check result_t "five processes, Infeasible"
    (Error Synth.Explore.Infeasible)
    (Synth.Explore.solve tech5 apps5)

let test_pinned_diagnostic_six_processes () =
  (* validation fires before any search on a six-process instance *)
  let xs = List.init 6 (fun i -> pid (Format.sprintf "x%d" i)) in
  let tech =
    Synth.Tech.make
      (List.map
         (fun p ->
           if I.Process_id.equal p (List.hd xs) then
             (p, Synth.Tech.sw_only ~load:5)
           else (p, Synth.Tech.both ~load:5 ~area:10))
         xs)
  in
  let apps = [ Synth.App.make "a" xs ] in
  let fixed = Synth.Binding.of_list [ (List.hd xs, Synth.Binding.Hw) ] in
  Alcotest.check result_t "pinning diagnostic"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = List.hd xs; impl = Synth.Binding.Hw }))
    (Synth.Explore.solve ~fixed tech apps)

(* [jobs] is accepted and ignored: a cold solve of figure2_medium
   returns the same cost, binding and node counts at jobs 1, 2 and 4,
   and none of them starts a domain pool.  (The deleted pool search
   expanded 1,581 nodes here at jobs 2, against 1,566 at jobs 1.) *)
let test_solve_ignores_jobs () =
  let tech, apps = figure2_medium () in
  let pools = Obs.Registry.counter "par.pools" in
  let p0 = Obs.Metric.value pools in
  let solve jobs =
    match Synth.Explore.solve ~jobs ~capacity:120 tech apps with
    | Ok s ->
      ( s.Synth.Explore.cost.Synth.Cost.total,
        Format.asprintf "%a" Synth.Binding.pp s.Synth.Explore.binding,
        s.Synth.Explore.explored,
        s.Synth.Explore.pruned )
    | Error d -> Alcotest.failf "%a" Synth.Explore.pp_diagnostic d
  in
  let one = solve 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (pair (pair int string) (pair int int)))
        (Printf.sprintf "jobs=%d as jobs=1" jobs)
        (let c, b, e, p = one in
         ((c, b), (e, p)))
        (let c, b, e, p = solve jobs in
         ((c, b), (e, p))))
    [ 2; 4 ];
  Alcotest.(check int) "no domain pool" p0 (Obs.Metric.value pools)

let suite =
  ( "synth",
    [
      Alcotest.test_case "tech basics" `Quick test_tech_basics;
      Alcotest.test_case "tech validation" `Quick test_tech_validation;
      Alcotest.test_case "tech of_weights" `Quick test_tech_of_weights;
      Alcotest.test_case "binding" `Quick test_binding;
      Alcotest.test_case "schedule" `Quick test_schedule;
      Alcotest.test_case "schedule mutual exclusion" `Quick
        test_schedule_mutual_exclusion;
      Alcotest.test_case "cost" `Quick test_cost;
      Alcotest.test_case "Table 1 exact" `Quick test_table1_exact;
      Alcotest.test_case "explore with fixed bindings" `Quick test_explore_fixed;
      Alcotest.test_case "explore infeasible" `Quick test_explore_infeasible;
      Alcotest.test_case "variant-aware bound is live" `Quick test_bound_is_live;
      Alcotest.test_case "warm starts under the bound" `Quick
        test_bound_warm_start;
      Alcotest.test_case "accept filter under the bound" `Quick
        test_bound_accept;
      Alcotest.test_case "bound table past its budget" `Quick
        (test_bound_budget 1);
      Alcotest.test_case "bound table past its budget, jobs=2" `Quick
        (test_bound_budget 2);
      Alcotest.test_case "bound is live at jobs 1 and 2" `Quick
        test_bound_live_every_jobs;
      Alcotest.test_case "an optimal warm start starts no pool" `Quick
        test_warm_start_no_pool;
      Alcotest.test_case "serial all-in-one" `Quick test_serial_all_in_one;
      Alcotest.test_case "serial incremental" `Quick test_serial_incremental;
      Alcotest.test_case "design time" `Quick test_design_time;
      Alcotest.test_case "superpose per-app" `Quick test_superpose_per_app;
      QCheck_alcotest.to_alcotest ~long:false prop_explore_matches_bruteforce;
      QCheck_alcotest.to_alcotest ~long:false prop_variant_bound_exact;
      QCheck_alcotest.to_alcotest ~long:false prop_one_search;
      QCheck_alcotest.to_alcotest ~long:false prop_variant_aware_never_worse;
      Alcotest.test_case "pinned impl unavailable" `Quick
        test_pinned_impl_unavailable;
      Alcotest.test_case "infeasible stays distinct" `Quick
        test_genuinely_infeasible_is_distinct;
      Alcotest.test_case "pinned diagnostic, six processes" `Quick
        test_pinned_diagnostic_six_processes;
      Alcotest.test_case "solve ignores jobs and starts no pool" `Quick
        test_solve_ignores_jobs;
    ] )
