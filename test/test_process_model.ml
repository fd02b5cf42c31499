(* Tests for process declarations and the SPI model graph. *)

module I = Spi.Ids

let cid = I.Channel_id.of_string
let pid = I.Process_id.of_string
let one = Interval.point 1

let simple name ~consumes ~produces =
  Spi.Process.simple ~latency:one
    ~consumes:(List.map (fun c -> (cid c, one)) consumes)
    ~produces:(List.map (fun c -> (cid c, Spi.Mode.produce one)) produces)
    (pid name)

(* ----------------------------- process ----------------------------- *)

let test_simple_process () =
  let p = simple "p" ~consumes:[ "a" ] ~produces:[ "b" ] in
  Alcotest.(check int) "one mode" 1 (List.length (Spi.Process.modes p));
  Alcotest.(check int) "inputs" 1
    (I.Channel_id.Set.cardinal (Spi.Process.inputs p));
  Alcotest.(check int) "outputs" 1
    (I.Channel_id.Set.cardinal (Spi.Process.outputs p));
  Alcotest.(check bool) "auto-activation nonempty" false
    (Spi.Activation.is_empty (Spi.Process.activation p))

let test_default_activation_thresholds () =
  (* default activation requires the upper bound of each consumption *)
  let mode =
    Spi.Mode.make ~latency:one
      ~consumes:[ (cid "a", Interval.make 1 3) ]
      ~produces:[]
      (I.Mode_id.of_string "m")
  in
  let p = Spi.Process.make ~modes:[ mode ] (pid "p") in
  let view n =
    {
      Spi.Predicate.tokens_available = (fun _ -> n);
      first_tags = (fun _ -> None);
    }
  in
  Alcotest.(check bool) "not enabled at lower bound" true
    (Option.is_none (Spi.Activation.select (view 1) (Spi.Process.activation p)));
  Alcotest.(check bool) "enabled at upper bound" true
    (Option.is_some (Spi.Activation.select (view 3) (Spi.Process.activation p)))

let test_process_validation () =
  (try
     ignore (Spi.Process.make ~modes:[] (pid "p"));
     Alcotest.fail "empty modes accepted"
   with Invalid_argument _ -> ());
  let m = Spi.Mode.make ~latency:one ~consumes:[] ~produces:[] (I.Mode_id.of_string "m") in
  (try
     ignore (Spi.Process.make ~modes:[ m; m ] (pid "p"));
     Alcotest.fail "duplicate modes accepted"
   with Invalid_argument _ -> ());
  let bad_rule =
    Spi.Activation.make
      [
        Spi.Activation.rule (I.Rule_id.of_string "r") ~guard:Spi.Predicate.True
          ~mode:(I.Mode_id.of_string "ghost");
      ]
  in
  try
    ignore (Spi.Process.make ~activation:bad_rule ~modes:[ m ] (pid "p"));
    Alcotest.fail "rule to unknown mode accepted"
  with Invalid_argument _ -> ()

let test_process_hulls () =
  let m1 =
    Spi.Mode.make ~latency:(Interval.point 3)
      ~consumes:[ (cid "a", Interval.point 1) ]
      ~produces:[ (cid "b", Spi.Mode.produce (Interval.point 2)) ]
      (I.Mode_id.of_string "m1")
  and m2 =
    Spi.Mode.make ~latency:(Interval.point 5)
      ~consumes:[ (cid "a", Interval.point 3) ]
      ~produces:[ (cid "b", Spi.Mode.produce (Interval.point 5)) ]
      (I.Mode_id.of_string "m2")
  in
  let p = Spi.Process.make ~modes:[ m1; m2 ] (pid "p2") in
  Alcotest.(check bool) "latency hull" true
    (Interval.equal (Spi.Process.latency_hull p) (Interval.make 3 5));
  Alcotest.(check bool) "consumption hull" true
    (Interval.equal (Spi.Process.consumption_hull p (cid "a")) (Interval.make 1 3));
  Alcotest.(check bool) "production hull" true
    (Interval.equal (Spi.Process.production_hull p (cid "b")) (Interval.make 2 5))

let test_process_map_channels () =
  let p = simple "p" ~consumes:[ "a" ] ~produces:[ "b" ] in
  let q =
    Spi.Process.map_channels
      (fun c -> cid (I.Channel_id.to_string c ^ "2"))
      p
  in
  Alcotest.(check bool) "inputs renamed" true
    (I.Channel_id.Set.mem (cid "a2") (Spi.Process.inputs q));
  Alcotest.(check bool) "outputs renamed" true
    (I.Channel_id.Set.mem (cid "b2") (Spi.Process.outputs q))

(* ------------------------------ model ------------------------------ *)

let build_result ~processes ~channels =
  Spi.Model.build ~processes
    ~channels:(List.map (fun c -> Spi.Chan.queue (cid c)) channels)

let test_model_ok () =
  match
    build_result
      ~processes:
        [
          simple "p" ~consumes:[ "a" ] ~produces:[ "b" ];
          simple "q" ~consumes:[ "b" ] ~produces:[];
        ]
      ~channels:[ "a"; "b" ]
  with
  | Error _ -> Alcotest.fail "expected valid model"
  | Ok m ->
    Alcotest.(check int) "processes" 2 (List.length (Spi.Model.processes m));
    Alcotest.(check (option string))
      "writer of b" (Some "p")
      (Option.map I.Process_id.to_string (Spi.Model.writer_of (cid "b") m));
    Alcotest.(check (option string))
      "reader of b" (Some "q")
      (Option.map I.Process_id.to_string (Spi.Model.reader_of (cid "b") m));
    Alcotest.(check int) "unwritten = a" 1
      (I.Channel_id.Set.cardinal (Spi.Model.unwritten_channels m));
    Alcotest.(check int) "unread = none" 0
      (I.Channel_id.Set.cardinal (Spi.Model.unread_channels m))

let expect_error ~processes ~channels pred name =
  match build_result ~processes ~channels with
  | Ok _ -> Alcotest.fail (name ^ ": expected failure")
  | Error errors ->
    Alcotest.(check bool) name true (List.exists pred errors)

let test_model_errors () =
  expect_error
    ~processes:
      [ simple "p" ~consumes:[] ~produces:[ "a" ]; simple "p" ~consumes:[ "a" ] ~produces:[] ]
    ~channels:[ "a" ]
    (function Spi.Model.Duplicate_process _ -> true | _ -> false)
    "duplicate process";
  expect_error
    ~processes:[ simple "p" ~consumes:[ "ghost" ] ~produces:[] ]
    ~channels:[]
    (function Spi.Model.Unknown_channel _ -> true | _ -> false)
    "unknown channel";
  expect_error
    ~processes:
      [
        simple "p" ~consumes:[] ~produces:[ "a" ];
        simple "q" ~consumes:[] ~produces:[ "a" ];
      ]
    ~channels:[ "a" ]
    (function Spi.Model.Multiple_writers _ -> true | _ -> false)
    "multiple writers";
  expect_error
    ~processes:
      [
        simple "p" ~consumes:[ "a" ] ~produces:[];
        simple "q" ~consumes:[ "a" ] ~produces:[];
      ]
    ~channels:[ "a" ]
    (function Spi.Model.Multiple_readers _ -> true | _ -> false)
    "multiple readers";
  match
    Spi.Model.build ~processes:[]
      ~channels:[ Spi.Chan.queue (cid "a"); Spi.Chan.queue (cid "a") ]
  with
  | Ok _ -> Alcotest.fail "duplicate channel accepted"
  | Error errors ->
    Alcotest.(check bool) "duplicate channel" true
      (List.exists
         (function Spi.Model.Duplicate_channel _ -> true | _ -> false)
         errors)

let test_model_graph () =
  let m =
    Spi.Model.build_exn
      ~processes:
        [
          simple "p" ~consumes:[ "a" ] ~produces:[ "b" ];
          simple "q" ~consumes:[ "b" ] ~produces:[];
        ]
      ~channels:[ Spi.Chan.queue (cid "a"); Spi.Chan.queue (cid "b") ]
  in
  let g = Spi.Model.to_graph m in
  Alcotest.(check int) "nodes = procs + chans" 4 (Spi.Model.Graph.node_count g);
  Alcotest.(check bool) "p -> b" true
    (Spi.Model.Graph.mem_edge (Spi.Model.P (pid "p")) (Spi.Model.C (cid "b")) g);
  Alcotest.(check bool) "b -> q" true
    (Spi.Model.Graph.mem_edge (Spi.Model.C (cid "b")) (Spi.Model.P (pid "q")) g);
  (* bipartite: no P->P or C->C edge *)
  Spi.Model.Graph.fold_edges
    (fun u v () ->
      match u, v with
      | Spi.Model.P _, Spi.Model.P _ | Spi.Model.C _, Spi.Model.C _ ->
        Alcotest.fail "non-bipartite edge"
      | Spi.Model.P _, Spi.Model.C _ | Spi.Model.C _, Spi.Model.P _ -> ())
    g ()

let test_model_union () =
  let m1 =
    Spi.Model.build_exn
      ~processes:[ simple "p" ~consumes:[ "a" ] ~produces:[] ]
      ~channels:[ Spi.Chan.queue (cid "a") ]
  and m2 =
    Spi.Model.build_exn
      ~processes:[ simple "q" ~consumes:[ "b" ] ~produces:[] ]
      ~channels:[ Spi.Chan.queue (cid "b") ]
  in
  match Spi.Model.union m1 m2 with
  | Error _ -> Alcotest.fail "disjoint union must succeed"
  | Ok m -> Alcotest.(check int) "four elements" 2 (List.length (Spi.Model.processes m))

let test_source_processes () =
  let m =
    Spi.Model.build_exn
      ~processes:
        [
          simple "src" ~consumes:[] ~produces:[ "a" ];
          simple "sink" ~consumes:[ "a" ] ~produces:[];
        ]
      ~channels:[ Spi.Chan.queue (cid "a") ]
  in
  Alcotest.(check int) "one source" 1
    (I.Process_id.Set.cardinal (Spi.Model.source_processes m));
  Alcotest.(check bool) "src is source" true
    (I.Process_id.Set.mem (pid "src") (Spi.Model.source_processes m))

let suite =
  ( "process-model",
    [
      Alcotest.test_case "simple process" `Quick test_simple_process;
      Alcotest.test_case "default activation thresholds" `Quick
        test_default_activation_thresholds;
      Alcotest.test_case "process validation" `Quick test_process_validation;
      Alcotest.test_case "process hulls" `Quick test_process_hulls;
      Alcotest.test_case "process map_channels" `Quick test_process_map_channels;
      Alcotest.test_case "model ok" `Quick test_model_ok;
      Alcotest.test_case "model errors" `Quick test_model_errors;
      Alcotest.test_case "model graph" `Quick test_model_graph;
      Alcotest.test_case "model union" `Quick test_model_union;
      Alcotest.test_case "source processes" `Quick test_source_processes;
    ] )
