(* Hierarchical function variants (Def. 1 allows clusters to embed
   interfaces).  A multi-standard TV receiver: the decoder interface
   selects between PAL and NTSC; the PAL decoder itself embeds an audio
   sub-interface with stereo and mono variants.  Flattening resolves
   nested choices recursively.

   Run with: dune exec examples/hierarchical_variants.exe *)

module I = Spi.Ids
module V = Variants

let one = Interval.point 1

let chain_proc ~latency ~from_ ~to_ name =
  Spi.Process.simple ~latency:(Interval.point latency)
    ~consumes:[ (from_, one) ]
    ~produces:[ (to_, Spi.Mode.produce one) ]
    (I.Process_id.of_string name)

let port_in = V.Port.input "sin"
let port_out = V.Port.output "sout"
let pin = V.Port.channel_of (V.Port.id port_in)
let pout = V.Port.channel_of (V.Port.id port_out)

(* audio sub-interface: stereo / mono clusters with the same ports *)
let audio_cluster name latency =
  V.Cluster.make
    ~ports:[ port_in; port_out ]
    ~processes:[ chain_proc ~latency ~from_:pin ~to_:pout name ]
    name

let audio_interface =
  V.Interface.make
    ~ports:[ port_in; port_out ]
    ~clusters:[ audio_cluster "stereo" 4; audio_cluster "mono" 2 ]
    "audio"

(* PAL decoder: demodulate -> (audio sub-interface) -> frame *)
let pal_cluster =
  let k1 = I.Channel_id.of_string "k1" and k2 = I.Channel_id.of_string "k2" in
  V.Cluster.make
    ~channels:[ Spi.Chan.queue k1; Spi.Chan.queue k2 ]
    ~sub_sites:
      [
        {
          V.Structure.iface = audio_interface;
          wiring = [ (V.Port.id port_in, k1); (V.Port.id port_out, k2) ];
        };
      ]
    ~ports:[ port_in; port_out ]
    ~processes:
      [
        chain_proc ~latency:3 ~from_:pin ~to_:k1 "pal_demod";
        chain_proc ~latency:2 ~from_:k2 ~to_:pout "pal_frame";
      ]
    "pal"

(* NTSC decoder: a flat two-stage chain *)
let ntsc_cluster =
  let k = I.Channel_id.of_string "k" in
  V.Cluster.make
    ~channels:[ Spi.Chan.queue k ]
    ~ports:[ port_in; port_out ]
    ~processes:
      [
        chain_proc ~latency:2 ~from_:pin ~to_:k "ntsc_demod";
        chain_proc ~latency:3 ~from_:k ~to_:pout "ntsc_frame";
      ]
    "ntsc"

let c_ant = I.Channel_id.of_string "ANT"
let c_tuner = I.Channel_id.of_string "TUNED"
let c_dec = I.Channel_id.of_string "DECODED"
let c_screen = I.Channel_id.of_string "SCREEN"

let tv_system =
  let decoder =
    V.Interface.make
      ~ports:[ port_in; port_out ]
      ~clusters:[ pal_cluster; ntsc_cluster ]
      "decoder"
  in
  V.System.make
    ~processes:
      [
        chain_proc ~latency:1 ~from_:c_ant ~to_:c_tuner "tuner";
        chain_proc ~latency:1 ~from_:c_dec ~to_:c_screen "display";
      ]
    ~channels:
      [
        Spi.Chan.queue c_ant;
        Spi.Chan.queue c_tuner;
        Spi.Chan.queue c_dec;
        Spi.Chan.queue c_screen;
      ]
    ~sites:
      [
        {
          V.Structure.iface = decoder;
          wiring =
            [ (V.Port.id port_in, c_tuner); (V.Port.id port_out, c_dec) ];
        };
      ]
    "tv-receiver"

let () =
  V.System.validate_exn tv_system;
  Format.printf
    "=== A multi-standard TV receiver (hierarchical variants) ===@.";
  Format.printf "%a@." V.System.pp tv_system;

  (* top-level choices multiply with nested ones: pal{stereo,mono} + ntsc *)
  let derive name choices =
    let model = V.Flatten.flatten tv_system (V.Flatten.choice_of_list choices) in
    Format.printf "@.%s -> %a@." name Spi.Model.pp_stats model;
    List.iter
      (fun p -> Format.printf "  %a@." Spi.Ids.Process_id.pp (Spi.Process.id p))
      (Spi.Model.processes model);
    model
  in
  let pal_stereo =
    derive "PAL + stereo" [ ("decoder", "pal"); ("audio", "stereo") ]
  in
  ignore (derive "PAL + mono" [ ("decoder", "pal"); ("audio", "mono") ]);
  ignore (derive "NTSC" [ ("decoder", "ntsc") ]);

  (* run the PAL+stereo product end to end *)
  let stimuli =
    List.init 6 (fun i ->
        {
          Sim.Engine.at = 1 + (2 * i);
          channel = c_ant;
          token = Spi.Token.make ~payload:(i + 1) ();
        })
  in
  let result = Sim.Engine.run ~stimuli pal_stereo in
  Format.printf "@.PAL+stereo simulation: %a@." Sim.Engine.pp_summary result;
  Format.printf "frames on screen: %d@."
    (List.length (Sim.Trace.tokens_produced_on c_screen result.Sim.Engine.trace))
