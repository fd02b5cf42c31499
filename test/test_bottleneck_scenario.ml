(* Tests for the bottleneck analysis and the extended video scenarios. *)

module I = Spi.Ids

let cid = I.Channel_id.of_string

(* fast producer, slow consumer: tokens pile up on "mid" *)
let unbalanced =
  Harness.model_of_spi
    {|system unbalanced {
        channel in queue
        channel mid queue
        channel out queue
        process fast {
          mode fast.default { latency 1 consume in 1 produce mid 1 }
        }
        process slow {
          mode slow.default { latency 7 consume mid 1 produce out 1 }
        }
      }|}

let workload n =
  List.init n (fun i ->
      { Sim.Engine.at = 1 + i; channel = cid "in"; token = Spi.Token.make ~payload:i () })

let test_bottleneck () =
  match Spi.Analysis.bottleneck unbalanced with
  | Some (pid, latency) ->
    Alcotest.(check string) "slow is the bottleneck" "slow"
      (I.Process_id.to_string pid);
    Alcotest.(check int) "latency" 7 latency;
    Alcotest.(check int) "initiation interval" 7
      (Spi.Analysis.min_initiation_interval unbalanced)
  | None -> Alcotest.fail "bottleneck expected"

let test_bottleneck_vs_throughput () =
  (* observed steady-state spacing of outputs >= the analytic bound *)
  let result = Sim.Engine.run ~stimuli:(workload 8) unbalanced in
  let times =
    List.map fst (Sim.Trace.tokens_produced_on (cid "out") result.Sim.Engine.trace)
  in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | [ _ ] | [] -> []
  in
  let bound = Spi.Analysis.min_initiation_interval unbalanced in
  List.iter
    (fun gap -> Alcotest.(check bool) "gap >= bound" true (gap >= bound))
    (gaps times)

(* ------------------------------ scenarios --------------------------- *)

let test_bursty_stream () =
  let stims = Video.Scenario.bursty_stream ~burst:5 ~gap:20 ~bursts:3 () in
  Alcotest.(check int) "15 frames" 15 (List.length stims);
  (* payloads are consecutive and unique *)
  let payloads =
    List.sort compare
      (List.filter_map (fun s -> Spi.Token.payload s.Sim.Engine.token) stims)
  in
  Alcotest.(check (list int)) "payloads" (List.init 15 (fun i -> i + 1)) payloads;
  (* bursty traffic needs deeper buffers than a smooth stream *)
  let built = Video.System.build Video.System.default_params in
  let smooth = Video.Scenario.video_stream ~period:5 ~frames:15 () in
  (* compare the first chain queue: CVout is unread and grows with the
     frame count in both runs, so the global maximum is uninformative *)
  let plan =
    Sim.Compile.compile ~configurations:built.Video.System.configurations
      built.Video.System.model
  in
  let deep l =
    let result = Sim.Compile.run ~stimuli:l plan in
    match
      Sim.Stats.channel Video.System.c_v1
        (Sim.Stats.of_result built.Video.System.model result)
    with
    | Some c -> c.Sim.Stats.high_water
    | None -> Alcotest.fail "CV1 has no statistics"
  in
  Alcotest.(check bool) "bursts need deeper queues" true (deep stims > deep smooth)

let test_periodic_requests () =
  let reqs =
    Video.Scenario.periodic_requests ~first:30 ~every:40 ~count:4
      ~variants:[ "fA"; "fB" ]
  in
  Alcotest.(check int) "four requests" 4 (List.length reqs);
  (* a request storm keeps the protocol safe *)
  let built = Video.System.build Video.System.default_params in
  let stimuli = Video.Scenario.video_stream ~period:5 ~frames:40 () @ reqs in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  let report = Video.Checker.check result in
  Alcotest.(check bool) "storm safe" true (Video.Checker.is_safe report)

(* The suite keeps the name it had when it also tested buffer sizing, so
   its test IDs stay stable. *)
let suite =
  ( "sizing-scenario",
    [
      Alcotest.test_case "bottleneck" `Quick test_bottleneck;
      Alcotest.test_case "bottleneck vs throughput" `Quick
        test_bottleneck_vs_throughput;
      Alcotest.test_case "bursty stream" `Quick test_bursty_stream;
      Alcotest.test_case "periodic requests" `Quick test_periodic_requests;
    ] )
