(* Tests for process mode correlation and the N-stage video chain. *)

module I = Spi.Ids
module C = Spi.Correlation

let pid = I.Process_id.of_string
let cid = I.Channel_id.of_string
let mid = I.Mode_id.of_string
let one = Interval.point 1

(* Two processes in a chain, each with a fast and a slow mode; the tags
   of the stream correlate them: both run fast or both run slow. *)
let correlated_model =
  let mk_proc name input output =
    let mode latency mname =
      Spi.Mode.make ~latency:(Interval.point latency)
        ~consumes:[ (cid input, one) ]
        ~produces:
          (match output with
          | None -> []
          | Some out -> [ (cid out, Spi.Mode.produce one) ])
        (mid mname)
    in
    Spi.Process.make
      ~modes:[ mode 2 (name ^ ".fast"); mode 10 (name ^ ".slow") ]
      (pid name)
  in
  Spi.Model.build_exn
    ~processes:[ mk_proc "u" "a" (Some "b"); mk_proc "v" "b" None ]
    ~channels:[ Spi.Chan.queue (cid "a"); Spi.Chan.queue (cid "b") ]

let correlation =
  C.make
    [
      C.scenario "both-fast" [ (pid "u", mid "u.fast"); (pid "v", mid "v.fast") ];
      C.scenario "both-slow" [ (pid "u", mid "u.slow"); (pid "v", mid "v.slow") ];
    ]

let uv_constraint bound =
  Spi.Constraint_.latency_path ~name:"uv" ~from_:(pid "u") ~to_:(pid "v") ~bound

let test_correlation_tightens () =
  (* hull: 10 + 10 = 20; correlated worst: both-slow = 20, but a bound
     of 12 separates hull (20 > 12 violated) from... both are 20 here.
     The interesting case: anti-correlated scenarios. *)
  let anti =
    C.make
      [
        C.scenario "u-fast-v-slow" [ (pid "u", mid "u.fast"); (pid "v", mid "v.slow") ];
        C.scenario "u-slow-v-fast" [ (pid "u", mid "u.slow"); (pid "v", mid "v.fast") ];
      ]
  in
  let c = uv_constraint 15 in
  (* hull assumes slow+slow = 20: violated *)
  (match C.hull_outcome correlated_model c with
  | Spi.Constraint_.Violated { worst; _ } -> Alcotest.(check int) "hull worst" 20 worst
  | o -> Alcotest.failf "hull: unexpected %a" Spi.Constraint_.pp_outcome o);
  (* anti-correlation caps the path at 10 + 2 = 12: satisfied *)
  match C.worst_case correlated_model anti c with
  | Spi.Constraint_.Satisfied { worst; _ } ->
    Alcotest.(check int) "correlated worst" 12 worst
  | o -> Alcotest.failf "correlated: unexpected %a" Spi.Constraint_.pp_outcome o

let test_correlation_never_looser_than_hull () =
  let c = uv_constraint 15 in
  (* fully correlated scenarios still include both-slow: violated, same
     worst as the hull *)
  match C.worst_case correlated_model correlation c with
  | Spi.Constraint_.Violated { worst; _ } -> Alcotest.(check int) "worst" 20 worst
  | o -> Alcotest.failf "unexpected %a" Spi.Constraint_.pp_outcome o

let test_correlation_per_scenario () =
  let outcomes = C.check correlated_model correlation (uv_constraint 15) in
  Alcotest.(check int) "two scenarios" 2 (List.length outcomes);
  (match List.assoc_opt "both-fast" outcomes with
  | Some (Spi.Constraint_.Satisfied { worst; _ }) ->
    Alcotest.(check int) "fast path" 4 worst
  | _ -> Alcotest.fail "both-fast should satisfy");
  match List.assoc_opt "both-slow" outcomes with
  | Some (Spi.Constraint_.Violated _) -> ()
  | _ -> Alcotest.fail "both-slow should violate"

let test_correlation_unconstrained_process () =
  (* a scenario that pins only u leaves v at its hull *)
  let partial = C.make [ C.scenario "u-fast" [ (pid "u", mid "u.fast") ] ] in
  match C.worst_case correlated_model partial (uv_constraint 15) with
  | Spi.Constraint_.Satisfied { worst; _ } ->
    Alcotest.(check int) "2 + hull(10)" 12 worst
  | o -> Alcotest.failf "unexpected %a" Spi.Constraint_.pp_outcome o

let test_correlation_validation () =
  (try
     ignore (C.make []);
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (C.make [ C.scenario "s" [ (pid "u", mid "a"); (pid "u", mid "b") ] ]);
     Alcotest.fail "double assignment accepted"
   with Invalid_argument _ -> ());
  let bad =
    C.make [ C.scenario "s" [ (pid "ghost", mid "m"); (pid "u", mid "nope") ] ]
  in
  let errors = C.validate_against correlated_model bad in
  Alcotest.(check bool) "unknown process" true
    (List.exists (function C.Unknown_process _ -> true | _ -> false) errors);
  Alcotest.(check bool) "unknown mode" true
    (List.exists (function C.Unknown_mode _ -> true | _ -> false) errors);
  Alcotest.(check int) "good correlation validates" 0
    (List.length (C.validate_against correlated_model correlation))

(* --------------------------- N-stage video -------------------------- *)

let run_nstage ~stages switches =
  let built =
    Video.System.build { Video.System.default_params with stages }
  in
  let stimuli =
    Video.Scenario.switching_demo ~frames:30 ~period:6 ~switches ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  (result, Video.Checker.check ~stages result)

let test_nstage_passthrough () =
  List.iter
    (fun stages ->
      let result, report = run_nstage ~stages [] in
      Alcotest.(check int)
        (Format.sprintf "%d stages: all clean" stages)
        30 report.Video.Checker.clean;
      Alcotest.(check bool) "quiescent" true
        (result.Sim.Engine.outcome = Sim.Engine.Quiescent))
    [ 1; 3; 4 ]

let test_nstage_switch_safe () =
  List.iter
    (fun stages ->
      let _, report = run_nstage ~stages [ (40, "fB") ] in
      Alcotest.(check bool)
        (Format.sprintf "%d stages safe" stages)
        true
        (Video.Checker.is_safe report);
      Alcotest.(check int)
        (Format.sprintf "%d stages reconfigure" stages)
        stages report.Video.Checker.reconfigurations;
      Alcotest.(check int) "accounting closes" report.Video.Checker.frames_in
        (report.Video.Checker.clean + report.Video.Checker.held
       + report.Video.Checker.dropped))
    [ 1; 3; 4 ]

let test_nstage_latency_grows () =
  let mean stages =
    let _, report = run_nstage ~stages [] in
    match Video.Checker.latency_stats report with
    | Some (mean, _) -> mean
    | None -> Alcotest.fail "latency stats expected"
  in
  let m1 = mean 1 and m4 = mean 4 in
  Alcotest.(check bool)
    (Format.sprintf "pipeline latency grows (%.1f < %.1f)" m1 m4)
    true (m1 < m4)

let test_latency_stats_accounting () =
  let _, report = run_nstage ~stages:2 [] in
  Alcotest.(check int) "one latency sample per clean frame"
    report.Video.Checker.clean
    (List.length report.Video.Checker.frame_latencies);
  match Video.Checker.latency_stats report with
  | Some (mean, worst) ->
    Alcotest.(check bool) "mean <= worst" true (mean <= float_of_int worst)
  | None -> Alcotest.fail "stats expected"

let test_nstage_bad_params () =
  try
    ignore (Video.System.build { Video.System.default_params with stages = 0 });
    Alcotest.fail "stages=0 accepted"
  with Invalid_argument _ -> ()

let suite =
  ( "correlation-nstage",
    [
      Alcotest.test_case "correlation tightens" `Quick test_correlation_tightens;
      Alcotest.test_case "correlation never looser" `Quick
        test_correlation_never_looser_than_hull;
      Alcotest.test_case "correlation per scenario" `Quick
        test_correlation_per_scenario;
      Alcotest.test_case "correlation unconstrained process" `Quick
        test_correlation_unconstrained_process;
      Alcotest.test_case "correlation validation" `Quick
        test_correlation_validation;
      Alcotest.test_case "n-stage passthrough" `Quick test_nstage_passthrough;
      Alcotest.test_case "n-stage switch safe" `Quick test_nstage_switch_safe;
      Alcotest.test_case "n-stage latency grows" `Quick test_nstage_latency_grows;
      Alcotest.test_case "latency stats accounting" `Quick
        test_latency_stats_accounting;
      Alcotest.test_case "n-stage bad params" `Quick test_nstage_bad_params;
    ] )

(* appended: correlation inference from tag-driven activation *)
let test_infer_figure1 () =
  (* p2's rules key on tags 'a'/'b' of c1: two scenarios inferred *)
  match C.infer ~channel:Paper.Figure1.c1 Paper.Figure1.model with
  | None -> Alcotest.fail "correlation expected"
  | Some corr ->
    Alcotest.(check int) "two scenarios" 2 (List.length (C.scenarios corr));
    Alcotest.(check int) "validates against the model" 0
      (List.length (C.validate_against Paper.Figure1.model corr));
    (* scenario 'a' pins p2 to m1 (latency 3), 'b' to m2 (latency 5) *)
    let lat tag =
      let s =
        List.find
          (fun s -> s.C.scenario_name = "tag:" ^ tag)
          (C.scenarios corr)
      in
      C.scenario_latency_of Paper.Figure1.model s Paper.Figure1.p2
    in
    Alcotest.(check int) "scenario a" 3 (lat "a");
    Alcotest.(check int) "scenario b" 5 (lat "b")

let test_infer_tightens_figure1 () =
  (* end-to-end p1 ~> p3 under correlation: the worst scenario pins p2
     to m2 (5); the hull gives the same here (hull = max mode), but the
     'a' scenario alone shows the tightening *)
  let c =
    Spi.Constraint_.latency_path ~name:"e2e" ~from_:Paper.Figure1.p1
      ~to_:Paper.Figure1.p3 ~bound:8
  in
  match C.infer ~channel:Paper.Figure1.c1 Paper.Figure1.model with
  | None -> Alcotest.fail "correlation expected"
  | Some corr ->
    let outcomes = C.check Paper.Figure1.model corr c in
    (match List.assoc_opt "tag:a" outcomes with
    | Some (Spi.Constraint_.Satisfied { worst; _ }) ->
      Alcotest.(check int) "scenario a path" 7 worst
    | _ -> Alcotest.fail "'a' scenario should satisfy 8");
    match List.assoc_opt "tag:b" outcomes with
    | Some (Spi.Constraint_.Violated { worst; _ }) ->
      Alcotest.(check int) "scenario b path" 9 worst
    | _ -> Alcotest.fail "'b' scenario should violate 8"

let test_infer_none_without_tags () =
  let plain =
    Harness.model_of_spi
      {|system plain {
          channel a queue
          channel b queue
          process p { mode p.default { latency 1 consume a 1 produce b 1 } }
        }|}
  in
  Alcotest.(check bool) "no tags, no correlation" true
    (Option.is_none (C.infer ~channel:(cid "a") plain))

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [
        Alcotest.test_case "infer figure1" `Quick test_infer_figure1;
        Alcotest.test_case "infer tightens figure1" `Quick
          test_infer_tightens_figure1;
        Alcotest.test_case "infer none without tags" `Quick
          test_infer_none_without_tags;
      ] )
