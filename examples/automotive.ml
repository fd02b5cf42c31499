(* Automotive control with regional function variants.

   The paper's introduction motivates variants with "automotive control
   systems to be used in countries with different emission laws".  This
   example builds an engine controller whose emission strategy and
   whose diagnostic protocol both exist in EU and US variants.  The two
   variant sets are *related*: a product always picks the same region
   for both (Variant_space linkage), and every linked product is
   checked against an end-to-end deadline.

   Run with: dune exec examples/automotive.exe *)

module I = Spi.Ids
module V = Variants

let one = Interval.point 1

let chain_proc ~latency ~from_ ~to_ name =
  Spi.Process.simple ~latency
    ~consumes:[ (from_, one) ]
    ~produces:[ (to_, Spi.Mode.produce one) ]
    (I.Process_id.of_string name)

let cid = I.Channel_id.of_string
let pid = I.Process_id.of_string

let port_in = V.Port.input "pi"
let port_out = V.Port.output "po"
let pi_chan = V.Port.channel_of (V.Port.id port_in)
let po_chan = V.Port.channel_of (V.Port.id port_out)

let leaf name latency =
  V.Cluster.make
    ~ports:[ port_in; port_out ]
    ~processes:[ chain_proc ~latency ~from_:pi_chan ~to_:po_chan name ]
    name

(* emission strategies: the EU variant needs a particulate model *)
let emission_eu =
  let k = cid "k" in
  V.Cluster.make
    ~channels:[ Spi.Chan.queue k ]
    ~ports:[ port_in; port_out ]
    ~processes:
      [
        chain_proc ~latency:(Interval.make 2 3) ~from_:pi_chan ~to_:k "lambda_eu";
        chain_proc ~latency:(Interval.make 3 5) ~from_:k ~to_:po_chan "particulate";
      ]
    "emission_eu"

let emission_us = leaf "emission_us" (Interval.make 4 6)

(* diagnostics: OBD variants per region *)
let diag_eu = leaf "obd_eu" (Interval.make 1 2)
let diag_us = leaf "obd_us" (Interval.make 2 3)

let sensors = cid "SENSORS"
let cooked = cid "COOKED"
let actuation = cid "ACTUATION"
let injectors = cid "INJECTORS"
let diag_in = cid "DIAG_IN"
let diag_out = cid "DIAG_OUT"

let system =
  let site ports_iface wiring = { V.Structure.iface = ports_iface; wiring } in
  let emission =
    V.Interface.make ~ports:[ port_in; port_out ]
      ~clusters:[ emission_eu; emission_us ]
      "emission"
  and diagnostics =
    V.Interface.make ~ports:[ port_in; port_out ]
      ~clusters:[ diag_eu; diag_us ]
      "diagnostics"
  in
  V.System.make
    ~processes:
      [
        chain_proc ~latency:(Interval.point 1) ~from_:sensors ~to_:cooked "acquire";
        Spi.Process.simple ~latency:(Interval.point 2)
          ~consumes:[ (actuation, one) ]
          ~produces:
            [
              (injectors, Spi.Mode.produce one);
              (diag_in, Spi.Mode.produce one);
            ]
          (pid "actuate");
      ]
    ~channels:
      [
        Spi.Chan.queue sensors;
        Spi.Chan.queue cooked;
        Spi.Chan.queue actuation;
        Spi.Chan.queue injectors;
        Spi.Chan.queue diag_in;
        Spi.Chan.queue diag_out;
      ]
    ~sites:
      [
        site emission
          [ (V.Port.id port_in, cooked); (V.Port.id port_out, actuation) ];
        site diagnostics
          [ (V.Port.id port_in, diag_in); (V.Port.id port_out, diag_out) ];
      ]
    ~constraints:
      [
        Spi.Constraint_.latency_path ~name:"control-loop" ~from_:(pid "acquire")
          ~to_:(pid "actuate") ~bound:12;
      ]
    "engine-controller"

let () =
  V.System.validate_exn system;
  Format.printf "=== Engine controller with regional variants ===@.";
  Format.printf "%a@." V.System.pp system;

  (* related variant sets: emission and diagnostics pick the same region *)
  let linkage =
    [ [ I.Interface_id.of_string "emission"; I.Interface_id.of_string "diagnostics" ] ]
  in
  Format.printf "@.variant space: %d unlinked, %d with regional linkage@."
    (V.Variant_space.independent_count system)
    (V.Variant_space.count ~linkage system);
  List.iter
    (fun assignment ->
      Format.printf "  product: %a@." V.Variant_space.pp_assignment assignment)
    (V.Variant_space.enumerate ~linkage system);

  (* check the control-loop deadline on every linked product *)
  Format.printf "@.=== Deadline check (hull latencies) ===@.";
  List.iter
    (fun assignment ->
      let model = V.Flatten.flatten system (V.Variant_space.to_choice assignment) in
      let latency_of p =
        match Spi.Model.find_process p model with
        | Some proc -> Interval.hi (Spi.Process.latency_hull proc)
        | None -> 0
      in
      List.iter
        (fun (c, o) ->
          Format.printf "  %-40s %a: %a@."
            (Format.asprintf "%a" V.Variant_space.pp_assignment assignment)
            Spi.Constraint_.pp c Spi.Constraint_.pp_outcome o)
        (Spi.Constraint_.check_all ~latency_of model (V.System.constraints system)))
    (V.Variant_space.enumerate ~linkage system)
