(* Tests for multi-processor partitioning, including consistency with
   the single-processor explorer and VCD export sanity. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = Harness.pid

let test_single_cpu_matches_explore () =
  (* one processor with the default capacity and cost 15 must reproduce
     the Table 1 variant-aware optimum *)
  let cpu = Synth.Multi.processor ~name:"cpu0" ~capacity:100 ~cost:15 in
  match Synth.Multi.optimal F2.table1_tech [ cpu ] [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "solution expected"
  | Some s ->
    Alcotest.(check int) "same optimum as Explore" 41 s.Synth.Multi.total_cost;
    let simple = Synth.Multi.to_simple s.Synth.Multi.binding in
    Alcotest.(check (option bool))
      "PA in HW" (Some true)
      (Option.map (fun i -> i = Synth.Binding.Hw) (Synth.Binding.impl_of F2.pa simple))

let heavy_tech =
  (* two software-only processes, each loading 80: a single CPU of
     capacity 100 cannot host both *)
  Synth.Tech.make
    [
      (pid "x", Synth.Tech.sw_only ~load:80);
      (pid "y", Synth.Tech.sw_only ~load:80);
    ]

let both = Synth.App.make "both" [ pid "x"; pid "y" ]

let test_second_processor_needed () =
  let cpu cost name = Synth.Multi.processor ~name ~capacity:100 ~cost in
  (* one CPU: infeasible *)
  Alcotest.(check bool) "one cpu infeasible" true
    (Option.is_none (Synth.Multi.optimal heavy_tech [ cpu 15 "cpu0" ] [ both ]));
  (* two CPUs: feasible, pays both *)
  match Synth.Multi.optimal heavy_tech [ cpu 15 "cpu0"; cpu 20 "cpu1" ] [ both ] with
  | None -> Alcotest.fail "two cpus must suffice"
  | Some s ->
    Alcotest.(check int) "pays both processors" 35 s.Synth.Multi.total_cost;
    Alcotest.(check int) "two used" 2 (List.length s.Synth.Multi.processors_used)

let test_unused_processor_free () =
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:10) ] in
  let app = Synth.App.make "a" [ pid "x" ] in
  let cheap = Synth.Multi.processor ~name:"cheap" ~capacity:100 ~cost:5 in
  let dear = Synth.Multi.processor ~name:"dear" ~capacity:100 ~cost:50 in
  match Synth.Multi.optimal tech [ dear; cheap ] [ app ] with
  | None -> Alcotest.fail "solution expected"
  | Some s ->
    Alcotest.(check int) "only the cheap one" 5 s.Synth.Multi.total_cost;
    Alcotest.(check (list string)) "used" [ "cheap" ]
      (List.map I.Resource_id.to_string s.Synth.Multi.processors_used)

let test_mutual_exclusion_across_cpus () =
  (* variants may share each processor; only shared processes add up *)
  let tech =
    Synth.Tech.make
      [
        (pid "shared", Synth.Tech.sw_only ~load:40);
        (pid "v1", Synth.Tech.sw_only ~load:60);
        (pid "v2", Synth.Tech.sw_only ~load:60);
      ]
  in
  let apps =
    [
      Synth.App.make "a1" [ pid "shared"; pid "v1" ];
      Synth.App.make "a2" [ pid "shared"; pid "v2" ];
    ]
  in
  let cpu = Synth.Multi.processor ~name:"cpu0" ~capacity:100 ~cost:15 in
  match Synth.Multi.optimal tech [ cpu ] apps with
  | None -> Alcotest.fail "mutual exclusion should make one CPU enough"
  | Some s ->
    Alcotest.(check int) "single cpu" 15 s.Synth.Multi.total_cost;
    (match s.Synth.Multi.worst_load with
    | [ (_, load) ] -> Alcotest.(check int) "per-app worst load" 100 load
    | _ -> Alcotest.fail "one processor expected")

let test_heterogeneous_capacity () =
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:80) ] in
  let app = Synth.App.make "a" [ pid "x" ] in
  let small = Synth.Multi.processor ~name:"small" ~capacity:50 ~cost:1 in
  let big = Synth.Multi.processor ~name:"big" ~capacity:100 ~cost:30 in
  match Synth.Multi.optimal tech [ small; big ] [ app ] with
  | None -> Alcotest.fail "big cpu fits"
  | Some s ->
    Alcotest.(check (list string)) "placed on the big one" [ "big" ]
      (List.map I.Resource_id.to_string s.Synth.Multi.processors_used)

(* On the shared harness builder, a reported solution prices to its
   reported total: the ASIC area is the area of the hardware-placed
   processes, the processor set is exactly the processors some software
   placement uses, and area plus their costs is [total_cost]. *)
let prop_solution_prices_to_total =
  QCheck.Test.make
    ~name:"multi: the processor set and ASIC area price to the reported total"
    ~count:30
    QCheck.(triple (int_range 4 8) (int_range 1 2) (int_range 0 1000))
    (fun (n, n_cpu, seed) ->
      let tech, procs, apps = Harness.random_multi_instance ~n ~n_cpu ~seed in
      match Synth.Multi.optimal tech procs apps with
      | None -> true
      | Some s ->
        let placements = I.Process_id.Map.bindings s.Synth.Multi.binding in
        let area =
          List.fold_left
            (fun acc (p, placement) ->
              match placement with
              | Synth.Multi.Hw ->
                Option.bind acc (fun a ->
                    Option.map
                      (fun h -> a + h.Synth.Tech.area)
                      (Synth.Tech.options_of tech p).Synth.Tech.hw)
              | Synth.Multi.Sw_on _ -> acc)
            (Some 0) placements
        in
        let used (pr : Synth.Multi.processor) =
          List.exists
            (fun (_, placement) ->
              match placement with
              | Synth.Multi.Sw_on r -> I.Resource_id.equal r pr.Synth.Multi.id
              | Synth.Multi.Hw -> false)
            placements
        in
        let reported (pr : Synth.Multi.processor) =
          List.exists (I.Resource_id.equal pr.Synth.Multi.id)
            s.Synth.Multi.processors_used
        in
        area = Some s.Synth.Multi.asic_area
        && List.for_all (fun pr -> used pr = reported pr) procs
        && List.length s.Synth.Multi.processors_used
           = List.length (List.filter reported procs)
        && s.Synth.Multi.asic_area
           + List.fold_left
               (fun acc (pr : Synth.Multi.processor) ->
                 if reported pr then acc + pr.Synth.Multi.cost else acc)
               0 procs
           = s.Synth.Multi.total_cost)

let test_processor_validation () =
  (try
     ignore (Synth.Multi.processor ~name:"p" ~capacity:0 ~cost:1);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let cpu = Synth.Multi.processor ~name:"p" ~capacity:10 ~cost:1 in
  try
    ignore (Synth.Multi.optimal heavy_tech [ cpu; cpu ] [ both ]);
    Alcotest.fail "duplicate processor accepted"
  with Invalid_argument _ -> ()

(* ------------------------------- VCD -------------------------------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_vcd_export () =
  let model = Paper.Figure1.model in
  let result =
    Sim.Engine.run ~stimuli:(Paper.Figure1.stimuli_mixed ~n:4) model
  in
  let vcd = Sim.Vcd.of_result model result in
  Alcotest.(check bool) "header" true (contains ~needle:"$timescale" vcd);
  Alcotest.(check bool) "definitions closed" true
    (contains ~needle:"$enddefinitions" vcd);
  Alcotest.(check bool) "process var" true (contains ~needle:"proc_p2" vcd);
  Alcotest.(check bool) "channel var" true (contains ~needle:"chan_c1" vcd);
  Alcotest.(check bool) "dumpvars" true (contains ~needle:"$dumpvars" vcd);
  Alcotest.(check bool) "has timestamps" true (contains ~needle:"#1" vcd);
  (* every binary value line references a declared id code *)
  let lines = String.split_on_char '\n' vcd in
  Alcotest.(check bool) "non-trivial dump" true (List.length lines > 20)

let test_vcd_reconfiguration_marks () =
  let built = Video.System.build Video.System.default_params in
  let stimuli =
    Video.Scenario.switching_demo ~frames:10 ~period:5 ~switches:[ (22, "fB") ] ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  let vcd = Sim.Vcd.of_result built.Video.System.model result in
  (* the reconfiguration prefix is encoded as value 2 = binary 10 *)
  Alcotest.(check bool) "reconfiguration state present" true
    (contains ~needle:"b10 " vcd)

let suite =
  ( "multi-vcd",
    [
      Alcotest.test_case "single cpu matches explore" `Quick
        test_single_cpu_matches_explore;
      Alcotest.test_case "second processor needed" `Quick
        test_second_processor_needed;
      Alcotest.test_case "unused processor free" `Quick test_unused_processor_free;
      Alcotest.test_case "mutual exclusion across cpus" `Quick
        test_mutual_exclusion_across_cpus;
      Alcotest.test_case "heterogeneous capacity" `Quick
        test_heterogeneous_capacity;
      Alcotest.test_case "processor validation" `Quick test_processor_validation;
      QCheck_alcotest.to_alcotest prop_solution_prices_to_total;
      Alcotest.test_case "vcd export" `Quick test_vcd_export;
      Alcotest.test_case "vcd reconfiguration marks" `Quick
        test_vcd_reconfiguration_marks;
    ] )
