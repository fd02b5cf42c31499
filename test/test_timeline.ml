(* The timeline layer: the Sim.Trace -> trace-event converter keeps its
   structural invariants over randomized runs (spans on a lane never
   overlap, every flow head follows its tail, begin/end nest), fault
   instants land on the affected process's lane, t_conf spans carry the
   configuration switch, the deadline-headroom report flags violations,
   and the explorer lane carries every incumbent improvement. *)

module T = Obs.Trace_event
module J = Obs.Json
module VS = Video.System

let built = VS.build VS.default_params

let run_video ?faults ~frames ~switches () =
  let stimuli =
    Video.Scenario.switching_demo ~frames ~period:5 ~switches ()
  in
  Sim.Engine.run
    ~configurations:built.VS.configurations
    ~stimuli ?faults built.VS.model

let timeline_of ?(pid = 0) result =
  let b = T.create () in
  Sim.Timeline.add ~pid ~name:"test run" b built.VS.model result;
  b

(* lane tid of a video process, mirroring the converter's layout *)
let tid_of pid_str =
  let rec find i = function
    | [] -> Alcotest.failf "process %s not in model" pid_str
    | p :: rest ->
      if Spi.Ids.Process_id.to_string (Spi.Process.id p) = pid_str then i + 1
      else find (i + 1) rest
  in
  find 0 (Spi.Model.processes built.VS.model)

(* ------------------------ structural checks ------------------------ *)

type lane_span = { s : float; e : float; label : string }

let check_wellformed b =
  let spans : (int * int, lane_span list ref) Hashtbl.t = Hashtbl.create 16 in
  let lane pid tid =
    match Hashtbl.find_opt spans (pid, tid) with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace spans (pid, tid) l;
      l
  in
  let tails = Hashtbl.create 64 in
  let depth = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | T.Complete { name; pid; tid; ts; dur; _ } ->
        if dur < 0. then Alcotest.failf "span %s has negative dur" name;
        let l = lane pid tid in
        l := { s = ts; e = ts +. dur; label = name } :: !l
      | T.Begin { pid; tid; _ } ->
        Hashtbl.replace depth (pid, tid)
          (1 + Option.value ~default:0 (Hashtbl.find_opt depth (pid, tid)))
      | T.End { pid; tid; _ } ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth (pid, tid)) in
        if d <= 0 then Alcotest.fail "End without matching Begin";
        Hashtbl.replace depth (pid, tid) (d - 1)
      | T.Flow_start { id; _ } -> Hashtbl.replace tails id ()
      | T.Flow_end { id; name; _ } ->
        if not (Hashtbl.mem tails id) then
          Alcotest.failf "flow head %s (id %d) has no preceding tail" name id
      | T.Instant _ | T.Counter _ -> ())
    (T.events b);
  Hashtbl.iter
    (fun (pid, tid) l ->
      let sorted =
        List.sort
          (fun a b ->
            match Float.compare a.s b.s with
            | 0 -> Float.compare a.e b.e
            | c -> c)
          !l
      in
      ignore
        (List.fold_left
           (fun prev sp ->
             (match prev with
             | Some (pe, plabel) when sp.s +. 1e-6 < pe ->
               Alcotest.failf
                 "lane pid=%d tid=%d: %S (at %g) overlaps %S (ending %g)" pid
                 tid sp.label sp.s plabel pe
             | _ -> ());
             Some (sp.e, sp.label))
           None sorted))
    spans;
  Hashtbl.iter
    (fun _ d -> if d <> 0 then Alcotest.fail "unbalanced Begin/End")
    depth

let test_wellformed_random =
  QCheck.Test.make ~count:40
    ~name:"video timelines are well-formed (faulty and clean)"
    QCheck.(triple (int_range 1 10_000) (int_range 5 25) bool)
    (fun (seed, frames, inject) ->
      let faults =
        if inject then
          Some
            (Video.Scenario.fault_plan ~drop_probability:0.05
               ~transient_probability:0.1 ~seed built)
        else None
      in
      let result =
        run_video ?faults ~frames ~switches:[ (17, "fB"); (40, "fA") ] ()
      in
      check_wellformed (timeline_of result);
      true)

(* ------------------------------ lanes ------------------------------ *)

let test_fault_instants_on_affected_lane () =
  (* transients scripted on P1 only: every transient instant must land
     on P1's lane, never on the environment or another process *)
  let p1 = VS.stage_process 1 in
  let faults =
    Sim.Fault.plan
      ~processes:
        [
          Sim.Fault.on_process
            ~transient:(Sim.Fault.Probability 0.4)
            ~max_retries:5 ~backoff:2 p1;
        ]
      ~seed:11 ()
  in
  let result = run_video ~faults ~frames:20 ~switches:[] () in
  let transients =
    List.filter
      (fun (_, f) ->
        match f with Sim.Fault.Transient_failure _ -> true | _ -> false)
      (Sim.Trace.faults result.Sim.Engine.trace)
  in
  if transients = [] then
    Alcotest.fail "seed 11 injected no transient (pick another seed)";
  let b = timeline_of result in
  let expected = tid_of "P1" in
  let seen = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | T.Instant { name = "transient_failure"; tid; _ } ->
        incr seen;
        Alcotest.(check int) "transient instant on P1's lane" expected tid
      | _ -> ())
    (T.events b);
  Alcotest.(check int)
    "every trace transient became an instant" (List.length transients) !seen

let test_tconf_span_args () =
  (* the switching demo forces reconfigurations on both stages *)
  let result = run_video ~frames:20 ~switches:[ (22, "fB") ] () in
  if Sim.Trace.reconfigurations result.Sim.Engine.trace = [] then
    Alcotest.fail "switching demo did not reconfigure";
  let b = timeline_of result in
  let found = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | T.Complete { name = "t_conf"; cat; dur; args; _ } ->
        incr found;
        Alcotest.(check string) "category" "reconf" cat;
        (match List.assoc_opt "t_conf" args with
        | Some (J.Int l) ->
          Alcotest.(check (float 0.001))
            "span covers t_conf" (float_of_int l) dur
        | _ -> Alcotest.fail "t_conf span lacks t_conf arg");
        (match List.assoc_opt "target" args with
        | Some (J.String _) -> ()
        | _ -> Alcotest.fail "t_conf span lacks target configuration");
        if not (List.mem_assoc "source" args) then
          Alcotest.fail "t_conf span lacks source configuration"
      | _ -> ())
    (T.events b);
  if !found = 0 then Alcotest.fail "no t_conf span in timeline"

(* ------------------------- deadline headroom ------------------------ *)

let test_headroom_flags_violations () =
  Obs.Registry.reset ();
  (* reconfiguration adds t_conf (4 or 6) to a stage execution whose
     declared worst-case latency is 3: a guaranteed deadline violation,
     even before faults *)
  let faults =
    Video.Scenario.fault_plan ~drop_probability:0.02
      ~transient_probability:0.1 ~seed:3 built
  in
  let result = run_video ~faults ~frames:25 ~switches:[ (22, "fB") ] () in
  let rows = Video.Checker.deadline_headroom built.VS.model [ result ] in
  Alcotest.(check int)
    "one row per process"
    (List.length (Spi.Model.processes built.VS.model))
    (List.length rows);
  let violated =
    List.filter (fun r -> r.Video.Checker.hr_violations <> []) rows
  in
  if violated = [] then Alcotest.fail "no process over its deadline";
  List.iter
    (fun r ->
      List.iter
        (fun (_, lat) ->
          if lat <= r.Video.Checker.hr_deadline then
            Alcotest.failf "violation latency %d within deadline %d" lat
              r.Video.Checker.hr_deadline)
        r.Video.Checker.hr_violations)
    rows;
  (* quantiles come from the registry histograms the run just fed *)
  List.iter
    (fun r ->
      if r.Video.Checker.hr_count > 0 && r.Video.Checker.hr_p50 = None then
        Alcotest.failf "process %s has observations but no p50"
          r.Video.Checker.hr_process)
    rows

(* -------------------------- explorer lanes -------------------------- *)

(* The explorer records its incumbent improvements on the calling
   domain: one lane, with one instant and one counter sample per
   improvement, in recording order. *)
let test_explorer_lane_incumbents () =
  Synth.Domain_trace.enable ();
  List.iter
    (fun cost -> Synth.Domain_trace.record_improvement ~cost)
    [ 90; 57; 41 ];
  let b = T.create () in
  Synth.Domain_trace.append_timeline ~pid:9 b;
  Synth.Domain_trace.disable ();
  let instants, counters =
    List.fold_left
      (fun (instants, counters) ev ->
        match ev with
        | T.Instant { name = "incumbent"; pid = 9; tid; args; _ } -> (
          match List.assoc_opt "cost" args with
          | Some (J.Int c) -> ((tid, c) :: instants, counters)
          | _ -> Alcotest.fail "incumbent instant lacks its cost")
        | T.Counter { name = "incumbent cost"; pid = 9; values; _ } ->
          (instants, List.assoc "cost" values :: counters)
        | _ -> (instants, counters))
      ([], []) (T.events b)
  in
  Alcotest.(check (list int)) "one instant per improvement" [ 90; 57; 41 ]
    (List.rev_map snd instants);
  Alcotest.(check (list (float 0.))) "one counter sample per improvement"
    [ 90.; 57.; 41. ] (List.rev counters);
  Alcotest.(check int) "one lane" 1
    (List.length (List.sort_uniq compare (List.map fst instants)))

let test_domain_trace_drops () =
  Synth.Domain_trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Synth.Domain_trace.record_improvement ~cost:i
  done;
  Alcotest.(check int) "overflow counted" 6 (Synth.Domain_trace.dropped ());
  Synth.Domain_trace.reset ();
  Alcotest.(check int) "reset clears drops" 0 (Synth.Domain_trace.dropped ());
  Synth.Domain_trace.disable ()

(* ------------------------- span ring capacity ----------------------- *)

let test_span_ring_capacity_and_drops () =
  let original = Obs.Registry.span_capacity () in
  Obs.Registry.set_span_capacity 8;
  Obs.Registry.reset ();
  for i = 1 to 20 do
    Obs.Registry.record_span ~name:"t.ring" ~start_ns:i ~dur_ns:1
  done;
  let doc = Obs.Registry.snapshot () in
  let field k =
    match Option.bind (J.member k doc) J.to_int with
    | Some v -> v
    | None -> Alcotest.failf "snapshot lacks %s" k
  in
  Alcotest.(check int) "span_capacity" 8 (field "span_capacity");
  Alcotest.(check int) "spans_dropped" 12 (field "spans_dropped");
  Alcotest.(check int) "retained" 8 (List.length (Obs.Registry.spans ()));
  Obs.Registry.set_span_capacity original;
  Obs.Registry.reset ()

let suite =
  ( "timeline",
    [
      QCheck_alcotest.to_alcotest test_wellformed_random;
      Alcotest.test_case "fault instants land on the affected lane" `Quick
        test_fault_instants_on_affected_lane;
      Alcotest.test_case "t_conf spans carry the configuration switch" `Quick
        test_tconf_span_args;
      Alcotest.test_case "deadline headroom flags violations" `Quick
        test_headroom_flags_violations;
      Alcotest.test_case "explorer lane carries every incumbent" `Quick
        test_explorer_lane_incumbents;
      Alcotest.test_case "per-domain buffers count overflow" `Quick
        test_domain_trace_drops;
      Alcotest.test_case "span ring capacity is configurable" `Quick
        test_span_ring_capacity_and_drops;
    ] )
