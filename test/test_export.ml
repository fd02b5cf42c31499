(* Tests for the run exports (JSON, CSV, VCD) and the variant-structure
   dot export. *)

module I = Spi.Ids
module V = Variants
module F2 = Paper.Figure2

let one = Interval.point 1

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------- JSON ------------------------------- *)

let test_json_export () =
  let model = Paper.Figure1.model in
  let result = Sim.Engine.run ~stimuli:(Paper.Figure1.stimuli_mixed ~n:4) model in
  let json = Sim.Json.result_to_string model result in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Format.sprintf "contains %s" needle) true
        (contains ~needle json))
    [
      "\"summary\"";
      "\"outcome\":\"quiescent\"";
      "\"trace\"";
      "\"kind\":\"inject\"";
      "\"kind\":\"complete\"";
      "\"process\":\"p2\"";
      "\"high_water\"";
      "\"utilization\"";
    ];
  (* crude balance check on the emitted document *)
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_json_escaping () =
  (* ids with quotes are not constructible (our ids are plain), but tag
     names with backslashes are *)
  let cid = I.Channel_id.of_string "c" in
  let p =
    Spi.Process.simple ~latency:one
      ~consumes:[ (cid, one) ]
      ~produces:[] (I.Process_id.of_string "p")
  in
  let model = Spi.Model.build_exn ~processes:[ p ] ~channels:[ Spi.Chan.queue cid ] in
  let tok = Spi.Token.make ~tags:(Spi.Tag.Set.singleton (Spi.Tag.make {|a\b|})) () in
  let result =
    Sim.Engine.run ~stimuli:[ { Sim.Engine.at = 1; channel = cid; token = tok } ] model
  in
  let json = Sim.Json.result_to_string model result in
  Alcotest.(check bool) "backslash escaped" true
    (contains ~needle:{|a\\b|} json)

let test_json_reconfiguration_fields () =
  let built = Video.System.build Video.System.default_params in
  let stimuli =
    Video.Scenario.switching_demo ~frames:10 ~period:5 ~switches:[ (22, "fB") ] ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  let json = Sim.Json.result_to_string built.Video.System.model result in
  Alcotest.(check bool) "reconfigure_to present" true
    (contains ~needle:"\"reconfigure_to\"" json)

(* ------------------------------- dot -------------------------------- *)

let test_dot_system () =
  let dot = V.Dot_system.to_string F2.system_with_selection in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Format.sprintf "contains %s" needle) true
        (contains ~needle dot))
    [
      "digraph variants";
      "interface iface1";
      "cluster g1";
      "cluster g2";
      "shape=diamond";
      "style=\"dashed\"";
      "CV (reg)";
    ];
  (* nested systems render too *)
  let nested =
    V.Generator.generate { V.Generator.default with sites = 2 }
  in
  Alcotest.(check bool) "generated renders" true
    (String.length (V.Dot_system.to_string nested) > 100)

(* ------------------------------- CSV -------------------------------- *)

let test_csv_export () =
  let model = Paper.Figure1.model in
  let result = Sim.Engine.run ~stimuli:(Paper.Figure1.stimuli_mixed ~n:3) model in
  let trace_csv = Sim.Csv.trace_to_string result in
  let lines = String.split_on_char '\n' trace_csv in
  (match lines with
  | header :: _ ->
    Alcotest.(check string) "header" "time,kind,subject,mode,detail" header
  | [] -> Alcotest.fail "empty csv");
  (* one row per trace entry plus header and trailing newline *)
  Alcotest.(check int) "row count"
    (List.length result.Sim.Engine.trace)
    (List.length (List.filter (fun l -> l <> "") lines) - 1);
  let pstats = Sim.Csv.process_stats_to_string model result in
  Alcotest.(check bool) "process stats rows" true
    (List.length (String.split_on_char '\n' pstats) >= 4);
  let cstats = Sim.Csv.channel_stats_to_string model result in
  Alcotest.(check bool) "channel stats rows" true
    (List.length (String.split_on_char '\n' cstats) >= 4);
  (* quoting: a field with a comma round-trips quoted *)
  Alcotest.(check bool) "quoting" true
    (let q =
       Sim.Csv.trace_to_string
         {
           result with
           Sim.Engine.trace =
             [
               Sim.Trace.Injected
                 {
                   time = 1;
                   channel = Spi.Ids.Channel_id.of_string "c";
                   token =
                     Spi.Token.make
                       ~tags:(Spi.Tag.Set.singleton (Spi.Tag.make "a,b"))
                       ();
                 };
             ];
         }
     in
     contains ~needle:"\"" q)

(* ------------------------------- VCD -------------------------------- *)

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

(* The two suites keep the names they had when they also tested reuse
   checks and multi-processor synthesis, so their test IDs stay stable. *)
let suite =
  ( "reuse-json",
    [
      Alcotest.test_case "json export" `Quick test_json_export;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "json reconfiguration fields" `Quick
        test_json_reconfiguration_fields;
      Alcotest.test_case "dot system" `Quick test_dot_system;
      Alcotest.test_case "csv export" `Quick test_csv_export;
    ] )

let vcd_suite =
  ( "multi-vcd",
    [
      Alcotest.test_case "vcd export" `Quick test_vcd_export;
      Alcotest.test_case "vcd reconfiguration marks" `Quick
        test_vcd_reconfiguration_marks;
    ] )
