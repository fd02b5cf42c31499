(* Tests for the channel overflow policies. *)

module I = Spi.Ids

let bounded_model =
  let cid = I.Channel_id.of_string in
  let p =
    Spi.Process.simple ~latency:(Interval.point 10)
      ~consumes:[ (cid "q", Interval.point 1) ]
      ~produces:[] (I.Process_id.of_string "slow")
  in
  Spi.Model.build_exn ~processes:[ p ]
    ~channels:[ Spi.Chan.queue ~capacity:2 (cid "q") ]

let burst =
  List.init 5 (fun i ->
      {
        Sim.Engine.at = 1 + i;
        channel = I.Channel_id.of_string "q";
        token = Spi.Token.make ~payload:i ();
      })

let test_overflow_reject_raises () =
  Alcotest.check_raises "overflow propagates"
    (Spi.Semantics.Channel_overflow (I.Channel_id.of_string "q"))
    (fun () -> ignore (Sim.Engine.run ~stimuli:burst bounded_model))

let test_overflow_drop_runs () =
  let result =
    Sim.Engine.run ~overflow:Spi.Semantics.Drop_newest ~stimuli:burst bounded_model
  in
  Alcotest.(check bool) "completes" true
    (result.Sim.Engine.outcome = Sim.Engine.Quiescent);
  (* capacity 2 + one consumed during the burst: some tokens were lost *)
  Alcotest.(check bool) "fewer firings than injections" true
    (result.Sim.Engine.firings < 5)

(* The suite keeps the name it had when it also tested variant evolution
   and refinement, so its test IDs stay stable. *)
let suite =
  ( "evolution-refine",
    [
      Alcotest.test_case "overflow reject raises" `Quick
        test_overflow_reject_raises;
      Alcotest.test_case "overflow drop runs" `Quick test_overflow_drop_runs;
    ] )
