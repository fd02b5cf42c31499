(* Buffer sizing: static bounds vs empirical high-water marks.

   SPI's purpose is to carry enough information for scheduling and
   allocation — buffer sizing included.  This example compares the
   conservative static queue bounds (Spi.Analysis) against the
   high-water marks a simulation observes (Sim.Stats) on a bursty
   workload, then shows what the paper's valves do to the video
   system's buffers during a reconfiguration.

   Run with: dune exec examples/buffer_sizing.exe *)

module I = Spi.Ids

let cid = I.Channel_id.of_string

let pipeline =
  let system =
    Lang.Parser.system_of_string
      {|system pipeline {
          channel in queue
          channel s1 queue
          channel s2 queue
          channel out queue
          process parse {
            mode parse.default { latency 1 consume in 1 produce s1 1 }
          }
          process expand {
            mode expand.default { latency 2 consume s1 1 produce s2 3 }
          }
          process pack {
            mode pack.default { latency 4 consume s2 3 produce out 1 }
          }
        }|}
  in
  Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)

let bursty =
  (* 3 bursts of 6 tokens *)
  List.concat
    (List.init 3 (fun b ->
         List.init 6 (fun i ->
             {
               Sim.Engine.at = 1 + (b * 40) + i;
               channel = cid "in";
               token = Spi.Token.make ~payload:((b * 6) + i) ();
             })))

let () =
  Format.printf "=== Static vs empirical buffer bounds ===@.";
  Format.printf "%-8s | %12s | %12s@." "channel" "static bound" "observed";
  let stats =
    Sim.Stats.of_result pipeline (Sim.Engine.run ~stimuli:bursty pipeline)
  in
  List.iter
    (fun (cid_, static) ->
      Format.printf "%-8s | %12s | %12s@."
        (I.Channel_id.to_string cid_)
        (match static with Some b -> string_of_int b | None -> "cyclic")
        (match Sim.Stats.channel cid_ stats with
        | Some c -> string_of_int c.Sim.Stats.high_water
        | None -> "-"))
    (Spi.Analysis.queue_bounds ~source_executions:18 pipeline);

  (match Spi.Analysis.bottleneck pipeline with
  | Some (pid, latency) ->
    Format.printf "@.bottleneck: %a at latency %d (min initiation interval %d)@."
      I.Process_id.pp pid latency
      (Spi.Analysis.min_initiation_interval pipeline)
  | None -> ());

  Format.printf "@.=== Video system: buffers across a reconfiguration ===@.";
  let built = Video.System.build Video.System.default_params in
  let stimuli =
    Video.Scenario.switching_demo ~frames:30 ~period:5 ~switches:[ (40, "fB") ] ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  let stats = Sim.Stats.of_result built.Video.System.model result in
  List.iter
    (fun name ->
      match Sim.Stats.channel (cid name) stats with
      | Some c ->
        Format.printf "  %-6s high-water %d (through %d)@." name
          c.Sim.Stats.high_water c.Sim.Stats.tokens_through
      | None -> ())
    [ "CVin"; "CV1"; "CV2"; "CV3" ];
  Format.printf "The input valve keeps CV1..CV3 shallow even while the \
                 stages are being reconfigured.@."
