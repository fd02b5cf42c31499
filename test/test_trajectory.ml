(* The bench-trajectory regression gate: parsing of bench-explore/v1
   records and its failure arms (cost divergence across job counts, a
   cost changed against the baseline, aggregate and per-field speedup
   regressions past the tolerance), and re-baseline records. *)

module T = Trajectory

let record ?(label = "") ?(name = "w") ?(speedup = 2.0) ?sim ?family_compiled
    ?(costs = [ 34; 34; 34 ]) () =
  {
    T.label;
    max_jobs = 4;
    aggregate_speedup = speedup;
    workloads =
      [
        {
          T.w_name = name;
          speedup;
          sim_speedup = sim;
          family_compiled_speedup = family_compiled;
          runs =
            List.mapi
              (fun i c ->
                {
                  T.jobs = (match i with 0 -> 1 | 1 -> 2 | _ -> 4);
                  wall_s = 0.1 /. float_of_int (i + 1);
                  cost = Some c;
                })
              costs;
        };
      ];
  }

let check = T.check ~tolerance:0.3

let test_pass () =
  match
    check ~baseline:(Some (record ~speedup:2.0 ())) ~fresh:(record ~speedup:1.8 ()) ()
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

let test_no_baseline () =
  match check ~baseline:None ~fresh:(record ()) () with
  | Ok summary ->
    Alcotest.(check bool) "summary mentions missing baseline" true
      (String.length summary > 0)
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

let test_fails_on_regression () =
  (* fabricated regressed record: the baseline explored at 10x, the
     fresh record limps at 1x — far below the 30% budget *)
  match
    check ~baseline:(Some (record ~speedup:10.0 ())) ~fresh:(record ~speedup:1.0 ()) ()
  with
  | Ok s -> Alcotest.failf "regressed record passed the gate: %s" s
  | Error fs ->
    Alcotest.(check bool) "failure names the speedup regression" true
      (List.exists
         (fun f ->
           let has_sub sub =
             let n = String.length sub and m = String.length f in
             let rec go i = i + n <= m && (String.sub f i n = sub || go (i + 1)) in
             go 0
           in
           has_sub "speedup regressed")
         fs)

let test_within_tolerance () =
  (* 25% down is inside the 30% budget *)
  match
    check ~baseline:(Some (record ~speedup:2.0 ())) ~fresh:(record ~speedup:1.5 ()) ()
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

let test_fails_on_divergent_costs () =
  match
    check
      ~baseline:(Some (record ()))
      ~fresh:(record ~costs:[ 34; 34; 38 ] ())
      ()
  with
  | Ok s -> Alcotest.failf "divergent costs passed the gate: %s" s
  | Error fs ->
    Alcotest.(check bool) "at least one failure" true (List.length fs >= 1)

let test_divergence_without_baseline () =
  (* the cost arm must fire even on the very first record *)
  match check ~baseline:None ~fresh:(record ~costs:[ 34; 35; 34 ] ()) () with
  | Ok s -> Alcotest.failf "divergent costs passed without baseline: %s" s
  | Error _ -> ()

let test_different_workload_sets () =
  (* a tiny CI record against a committed full-size record: wall times
     are incomparable, only the cost arm applies *)
  match
    check
      ~baseline:(Some (record ~name:"full" ~speedup:10.0 ()))
      ~fresh:(record ~name:"tiny" ~speedup:0.5 ())
      ()
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

let has_sub f sub =
  let n = String.length sub and m = String.length f in
  let rec go i = i + n <= m && (String.sub f i n = sub || go (i + 1)) in
  go 0

(* ------------------- mixed-version trajectories --------------------- *)

(* A baseline written before the sim/family fields existed must not make
   the gate crash or fail: the per-field arms are skipped. *)
let test_old_baseline_skips_new_fields () =
  match
    check
      ~baseline:(Some (record ~speedup:2.0 ()))
      ~fresh:(record ~speedup:1.9 ~sim:5.0 ~family_compiled:6.0 ())
      ()
  with
  | Ok summary ->
    Alcotest.(check bool) "summary says the field was not gated" true
      (has_sub summary "not gated")
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

(* The converse mix: a fresh record without the fields against a
   baseline that has them — also a skip, not a crash. *)
let test_old_fresh_skips_new_fields () =
  match
    check
      ~baseline:
        (Some (record ~speedup:2.0 ~sim:5.0 ~family_compiled:6.0 ()))
      ~fresh:(record ~speedup:1.9 ())
      ()
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

let test_family_compiled_gate_fires () =
  match
    check
      ~baseline:(Some (record ~family_compiled:8.0 ()))
      ~fresh:(record ~family_compiled:1.0 ())
      ()
  with
  | Ok s -> Alcotest.failf "regressed family_compiled speedup passed: %s" s
  | Error fs ->
    Alcotest.(check bool) "failure names the family_compiled arm" true
      (List.exists (fun f -> has_sub f "family_compiled speedup regressed") fs)

let test_sim_gate_fires () =
  match
    check ~baseline:(Some (record ~sim:6.0 ())) ~fresh:(record ~sim:1.0 ()) ()
  with
  | Ok s -> Alcotest.failf "regressed sim speedup passed: %s" s
  | Error fs ->
    Alcotest.(check bool) "failure names the sim arm" true
      (List.exists (fun f -> has_sub f "sim speedup regressed") fs)

let test_family_within_tolerance () =
  match
    check
      ~baseline:(Some (record ~sim:2.0 ~family_compiled:2.0 ()))
      ~fresh:(record ~sim:1.6 ~family_compiled:1.5 ())
      ()
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "expected pass, got: %s" (String.concat "; " fs)

(* --------------------------- re-baselines -------------------------- *)

let expect_ok what = function
  | Ok _ -> ()
  | Error fs ->
    Alcotest.failf "%s: expected pass, got: %s" what (String.concat "; " fs)

let expect_failure what sub = function
  | Ok s -> Alcotest.failf "%s: passed the gate: %s" what s
  | Error fs ->
    if not (List.exists (fun f -> has_sub f sub) fs) then
      Alcotest.failf "%s: no failure mentions %S in: %s" what sub
        (String.concat "; " fs)

(* A stronger bound that cuts the jobs=1 search far more than the
   parallel one lowers the aggregate speedup by design: the labelled
   record skips that floor, the same record unlabelled does not. *)
let test_rebaseline_skips_aggregate_floor () =
  let baseline = Some (record ~speedup:10.0 ()) in
  expect_ok "labelled re-baseline"
    (check ~baseline ~fresh:(record ~label:"rebaseline-bound" ~speedup:2.0 ()) ());
  expect_failure "unlabelled" "aggregate speedup regressed"
    (check ~baseline ~fresh:(record ~label:"bound" ~speedup:2.0 ()) ())

(* A re-baseline changes what the speedup measures, never the answers,
   and it leaves the per-field floors in force. *)
let test_rebaseline_keeps_other_arms () =
  let baseline = Some (record ~speedup:10.0 ~sim:6.0 ()) in
  expect_failure "cost change" "optimal cost changed"
    (check ~baseline
       ~fresh:(record ~label:"rebaseline-bound" ~speedup:2.0 ~sim:6.0
                 ~costs:[ 35; 35; 35 ] ())
       ());
  expect_failure "sim floor" "sim speedup regressed"
    (check ~baseline
       ~fresh:(record ~label:"rebaseline-bound" ~speedup:2.0 ~sim:1.0 ())
       ())

(* The cost arm compares workloads by name even when the workload sets
   differ, so a tiny record cannot hide a changed answer. *)
let test_cost_change_across_workload_sets () =
  let base = record ~name:"table1" ~costs:[ 41; 41; 41 ] () in
  let tiny = record ~name:"tiny" () in
  let fresh =
    {
      tiny with
      T.workloads =
        (record ~name:"table1" ~costs:[ 42; 42; 42 ] ()).T.workloads
        @ tiny.T.workloads;
    }
  in
  expect_failure "changed table1" "optimal cost changed"
    (check ~baseline:(Some base) ~fresh ())

(* The record after a re-baseline is gated against it. *)
let test_next_record_gated_against_rebaseline () =
  let rebaseline = Some (record ~label:"rebaseline-bound" ~speedup:2.0 ()) in
  expect_ok "within the budget"
    (check ~baseline:rebaseline ~fresh:(record ~speedup:1.8 ()) ());
  expect_failure "regressed" "aggregate speedup regressed"
    (check ~baseline:rebaseline ~fresh:(record ~speedup:1.0 ()) ())

(* bench-explore/v1 text: one jobs=1 run per named workload, each with
   the given sim speedup. *)
let record_json ~names ~sim =
  let workload name =
    Printf.sprintf
      {|{"name":"%s","runs":[{"jobs":1,"wall_s":0.1,"cost":41}],"speedup_max_jobs":1.0,"sim":{"speedup":%g}}|}
      name sim
  in
  Printf.sprintf
    {|{"schema":"bench-explore/v1","max_jobs":1,"workloads":[%s],"aggregate":{"speedup_max_jobs":1.0}}|}
    (String.concat "," (List.map workload names))

(* In a full, tiny, full, tiny trajectory the last (tiny) record is
   gated against the first tiny one, not against the full record right
   before it, so its sim arm is gated. *)
let test_file_gates_like_records () =
  let full = [ "table1"; "figure2-gen-large" ]
  and tiny = [ "table1"; "figure2-gen-tiny" ] in
  let gate last_sim =
    let path = Filename.temp_file "trajectory" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              ("["
              ^ String.concat ","
                  [
                    record_json ~names:full ~sim:4.0;
                    record_json ~names:tiny ~sim:4.0;
                    record_json ~names:full ~sim:4.0;
                    record_json ~names:tiny ~sim:last_sim;
                  ]
              ^ "]"));
        T.check_file ~tolerance:0.3 path)
  in
  expect_ok "tiny record inside the budget" (gate 3.5);
  expect_failure "tiny record below the floor" "sim speedup regressed" (gate 1.0)

let sample_json =
  {|[
  {
    "schema": "bench-explore/v1",
    "timestamp": 1754000000,
    "label": "seed",
    "max_jobs": 4,
    "workloads": [
      {
        "name": "table1",
        "processes": 4,
        "applications": 2,
        "capacity": 100,
        "runs": [
          {"jobs": 1, "wall_s": 0.4, "cost": 41, "explored": 10, "pruned": 3},
          {"jobs": 2, "wall_s": 0.25, "cost": 41, "explored": 12, "pruned": 4},
          {"jobs": 4, "wall_s": 0.1, "cost": 41, "explored": 15, "pruned": 5}
        ],
        "speedup_max_jobs": 4.0,
        "costs_identical": true
      }
    ],
    "aggregate": {"wall_s_jobs1": 0.4, "wall_s_max_jobs": 0.1, "speedup_max_jobs": 4.0},
    "metrics": {"schema": "obs/v1", "counters": {"explore.solves": 9}}
  }
]|}

let test_parse_record () =
  match T.records_of_string sample_json with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ r ] ->
    Alcotest.(check string) "label" "seed" r.T.label;
    Alcotest.(check int) "max_jobs" 4 r.T.max_jobs;
    Alcotest.(check (float 1e-9)) "aggregate" 4.0 r.T.aggregate_speedup;
    (match r.T.workloads with
    | [ w ] ->
      Alcotest.(check string) "workload name" "table1" w.T.w_name;
      Alcotest.(check int) "runs" 3 (List.length w.T.runs);
      Alcotest.(check (list (option int)))
        "costs"
        [ Some 41; Some 41; Some 41 ]
        (List.map (fun r -> r.T.cost) w.T.runs);
      (* a record from before the sim/family fields existed *)
      Alcotest.(check (option (float 1e-9))) "no sim field" None w.T.sim_speedup;
      Alcotest.(check (option (float 1e-9)))
        "no family_compiled field" None w.T.family_compiled_speedup
    | ws -> Alcotest.failf "expected 1 workload, got %d" (List.length ws))
  | Ok rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let sample_json_with_fields =
  {|[
  {
    "schema": "bench-explore/v1",
    "timestamp": 1754600000,
    "max_jobs": 4,
    "workloads": [
      {
        "name": "table1",
        "runs": [
          {"jobs": 1, "wall_s": 0.4, "cost": 41},
          {"jobs": 4, "wall_s": 0.1, "cost": 41}
        ],
        "speedup_max_jobs": 4.0,
        "sim": {"interpreted_wall_s": 0.2, "compiled_wall_s": 0.05, "compile_s": 0.01, "speedup": 4.0},
        "family": {"npass_wall_s": 0.3, "family_wall_s": 0.12, "configs": 2, "speedup": 2.5},
        "family_compiled": {"npass_wall_s": 0.3, "family_wall_s": 0.05, "configs": 2, "speedup": 6.0}
      }
    ],
    "aggregate": {"wall_s_jobs1": 0.4, "wall_s_max_jobs": 0.1, "speedup_max_jobs": 4.0},
    "metrics": {}
  }
]|}

let test_parse_sim_and_family_fields () =
  match T.records_of_string sample_json_with_fields with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ { T.workloads = [ w ]; _ } ] ->
    (* the old interpreted "family" object is still accepted, unread *)
    Alcotest.(check (option (float 1e-9))) "sim" (Some 4.0) w.T.sim_speedup;
    Alcotest.(check (option (float 1e-9)))
      "family_compiled" (Some 6.0) w.T.family_compiled_speedup
  | Ok _ -> Alcotest.fail "expected 1 record with 1 workload"

let test_parse_rejects_bad_schema () =
  let bad = {|[{"schema": "bench-explore/v2", "max_jobs": 1}]|} in
  match T.records_of_string bad with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ()

let suite =
  ( "trajectory",
    [
      Alcotest.test_case "gate passes on a healthy record" `Quick test_pass;
      Alcotest.test_case "first record has no baseline" `Quick test_no_baseline;
      Alcotest.test_case "gate fails on a regressed record" `Quick
        test_fails_on_regression;
      Alcotest.test_case "25% regression is inside the budget" `Quick
        test_within_tolerance;
      Alcotest.test_case "gate fails on divergent costs" `Quick
        test_fails_on_divergent_costs;
      Alcotest.test_case "cost arm fires without a baseline" `Quick
        test_divergence_without_baseline;
      Alcotest.test_case "different workload sets skip the speedup arm" `Quick
        test_different_workload_sets;
      Alcotest.test_case "parses bench-explore/v1" `Quick test_parse_record;
      Alcotest.test_case "rejects unknown schemas" `Quick
        test_parse_rejects_bad_schema;
      Alcotest.test_case "old baseline skips the sim/family arms" `Quick
        test_old_baseline_skips_new_fields;
      Alcotest.test_case "old fresh record skips the sim/family arms" `Quick
        test_old_fresh_skips_new_fields;
      Alcotest.test_case "family_compiled arm fires on regression" `Quick
        test_family_compiled_gate_fires;
      Alcotest.test_case "sim arm fires on regression" `Quick
        test_sim_gate_fires;
      Alcotest.test_case "sim/family regressions inside the budget pass"
        `Quick test_family_within_tolerance;
      Alcotest.test_case "parses the sim and family speedup fields" `Quick
        test_parse_sim_and_family_fields;
      Alcotest.test_case "a re-baseline skips only the aggregate floor" `Quick
        test_rebaseline_skips_aggregate_floor;
      Alcotest.test_case "a re-baseline keeps the cost and field arms" `Quick
        test_rebaseline_keeps_other_arms;
      Alcotest.test_case "costs compare by workload name" `Quick
        test_cost_change_across_workload_sets;
      Alcotest.test_case "a file's last record meets a like baseline" `Quick
        test_file_gates_like_records;
      Alcotest.test_case "the next record is gated against a re-baseline"
        `Quick test_next_record_gated_against_rebaseline;
    ] )
