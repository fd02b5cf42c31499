(* Tests for hierarchical (nested) variants. *)

module I = Spi.Ids
module V = Variants

let pid = I.Process_id.of_string
let cid = I.Channel_id.of_string
let one = Interval.point 1

(* ---------------------------- hierarchy ----------------------------- *)

let chain_proc ~from_ ~to_ name =
  Spi.Process.simple ~latency:one
    ~consumes:[ (from_, one) ]
    ~produces:[ (to_, Spi.Mode.produce one) ]
    (pid name)

let port_in = V.Port.input "hi"
let port_out = V.Port.output "ho"
let pin = V.Port.channel_of (V.Port.id port_in)
let pout = V.Port.channel_of (V.Port.id port_out)

let leaf_cluster name =
  V.Cluster.make
    ~ports:[ port_in; port_out ]
    ~processes:[ chain_proc ~from_:pin ~to_:pout name ]
    name

let nested_system =
  let inner =
    V.Interface.make
      ~ports:[ port_in; port_out ]
      ~clusters:[ leaf_cluster "i1"; leaf_cluster "i2"; leaf_cluster "i3" ]
      "inner"
  in
  let outer_with_inner =
    let k1 = cid "k1" and k2 = cid "k2" in
    V.Cluster.make
      ~channels:[ Spi.Chan.queue k1; Spi.Chan.queue k2 ]
      ~sub_sites:
        [
          {
            V.Structure.iface = inner;
            wiring = [ (V.Port.id port_in, k1); (V.Port.id port_out, k2) ];
          };
        ]
      ~ports:[ port_in; port_out ]
      ~processes:
        [ chain_proc ~from_:pin ~to_:k1 "pre"; chain_proc ~from_:k2 ~to_:pout "post" ]
      "deep"
  in
  let outer =
    V.Interface.make
      ~ports:[ port_in; port_out ]
      ~clusters:[ outer_with_inner; leaf_cluster "flat" ]
      "outer"
  in
  V.System.make
    ~processes:
      [ chain_proc ~from_:(cid "src") ~to_:(cid "mid_in") "head";
        chain_proc ~from_:(cid "mid_out") ~to_:(cid "dst") "tail" ]
    ~channels:
      [
        Spi.Chan.queue (cid "src");
        Spi.Chan.queue (cid "mid_in");
        Spi.Chan.queue (cid "mid_out");
        Spi.Chan.queue (cid "dst");
      ]
    ~sites:
      [
        {
          V.Structure.iface = outer;
          wiring =
            [ (V.Port.id port_in, cid "mid_in"); (V.Port.id port_out, cid "mid_out") ];
        };
      ]
    "nested"

let test_nested_validates () =
  Alcotest.(check int) "valid" 0 (List.length (V.System.validate nested_system))

let test_nested_applications () =
  let apps = V.Flatten.applications nested_system in
  (* deep{i1,i2,i3} + flat = 4 derivable applications *)
  Alcotest.(check int) "four applications" 4 (List.length apps);
  let names =
    List.sort compare
      (List.map
         (fun (clusters, _) ->
           String.concat "+" (List.map I.Cluster_id.to_string clusters))
         apps)
  in
  Alcotest.(check (list string)) "combinations"
    [ "deep+i1"; "deep+i2"; "deep+i3"; "flat" ]
    names

let test_nested_flatten_names () =
  let model =
    V.Flatten.flatten nested_system
      (V.Flatten.choice_of_list [ ("outer", "deep"); ("inner", "i2") ])
  in
  let names =
    List.sort compare
      (List.map (fun p -> I.Process_id.to_string (Spi.Process.id p))
         (Spi.Model.processes model))
  in
  Alcotest.(check (list string)) "nested prefixes"
    [ "head"; "outer.inner.i2"; "outer.post"; "outer.pre"; "tail" ]
    names

let test_nested_dataflow () =
  let model =
    V.Flatten.flatten nested_system
      (V.Flatten.choice_of_list [ ("outer", "deep"); ("inner", "i3") ])
  in
  let stimuli =
    List.init 3 (fun i ->
        { Sim.Engine.at = 1 + i; channel = cid "src"; token = Spi.Token.make ~payload:i () })
  in
  let result = Sim.Engine.run ~stimuli model in
  Alcotest.(check int) "all delivered through 5 stages" 3
    (List.length (Sim.Trace.tokens_produced_on (cid "dst") result.Sim.Engine.trace));
  Alcotest.(check bool) "quiescent" true
    (result.Sim.Engine.outcome = Sim.Engine.Quiescent)

let test_nested_unwired_subsite_rejected () =
  let bad_inner =
    V.Cluster.make
      ~sub_sites:[ { V.Structure.iface = V.Interface.make ~ports:[ port_in; port_out ] ~clusters:[ leaf_cluster "x" ] "sub"; wiring = [] } ]
      ~ports:[ port_in; port_out ]
      ~processes:[ chain_proc ~from_:pin ~to_:pout "p" ]
      "bad"
  in
  let errors = V.Cluster.validate bad_inner in
  Alcotest.(check bool) "unwired sub-site flagged" true
    (List.exists
       (function V.Cluster.Sub_site_unwired _ -> true | _ -> false)
       errors)

let suite =
  ( "commonality-hierarchy",
    [
      Alcotest.test_case "nested validates" `Quick test_nested_validates;
      Alcotest.test_case "nested applications" `Quick test_nested_applications;
      Alcotest.test_case "nested flatten names" `Quick test_nested_flatten_names;
      Alcotest.test_case "nested dataflow" `Quick test_nested_dataflow;
      Alcotest.test_case "nested unwired sub-site rejected" `Quick
        test_nested_unwired_subsite_rejected;
    ] )
