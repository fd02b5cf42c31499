(* The serve/v1 protocol and the request handler: parsing, idempotency,
   warm-start over the exploration store, and deadline degradation. *)

module J = Obs.Json
module P = Serve.Protocol
module F2 = Paper.Figure2
module V = Variants

(* A five-process pipeline whose loads force a mixed hw/sw optimum
   under the default capacity (sum of sw loads 165 > 100). *)
let model_source =
  {|system t {
  channel A queue
  channel B queue
  channel C queue
  channel D queue
  channel E queue
  process p1 { mode m { latency 1 consume A 1 produce B 1 } }
  process p2 { mode m { latency 1 consume B 1 produce C 1 } }
  process p3 { mode m { latency 1 consume C 1 produce D 1 } }
  process p4 { mode m { latency 1 consume D 1 produce E 1 } }
  process p5 { mode m { latency 1 consume E 1 } }
}
|}

let tech_source =
  {|tech t {
  processor 12
  impl p1 sw 25 hw 30
  impl p2 sw 10 hw 18
  impl p3 sw 55 hw 22
  impl p4 sw 40 hw 20
  impl p5 sw 35 hw 15
}
|}

let roundtrip r =
  match P.request_of_json (P.request_to_json r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* ---------------------------- protocol ---------------------------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Ping };
      { P.id = Some "r1"; deadline_ms = Some 250; jobs = Some 4;
        trace = false; op = P.Stats };
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Shutdown };
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Metrics };
      {
        P.id = Some "r2";
        deadline_ms = None;
        jobs = None;
        trace = true;
        op = P.Synthesize { model = "m"; tech = "t"; capacity = Some 60 };
      };
      {
        P.id = None;
        deadline_ms = Some 1;
        jobs = None;
        trace = false;
        op = P.Pareto { model = "m"; tech = "t"; capacity = None };
      };
      {
        P.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op =
          P.Simulate
            { model = "m"; until = Some 40; compiled = true; family = false };
      };
      {
        P.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op =
          P.Simulate
            { model = "m"; until = None; compiled = false; family = true };
      };
    ]
  in
  List.iter (fun r -> if roundtrip r <> r then Alcotest.fail "mismatch") requests;
  let batch =
    { P.id = Some "b"; deadline_ms = None; jobs = None; trace = false;
      op = P.Batch requests }
  in
  if roundtrip batch <> batch then Alcotest.fail "batch mismatch"

let test_protocol_rejects () =
  let reject line why =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error _ -> ()
  in
  reject "not json" "garbage";
  reject {|{"schema":"serve/v2","op":"ping"}|} "wrong schema";
  reject {|{"op":"frobnicate"}|} "unknown op";
  reject {|{"op":"synthesize"}|} "synthesize without model/tech";
  reject
    {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|}
    "nested batch"

let test_status_of_response () =
  Alcotest.(check string) "ok" "ok" (P.status_of_response (P.ok [ ]));
  Alcotest.(check string) "error" "error" (P.status_of_response (P.error "x"));
  Alcotest.(check string) "overloaded" "overloaded"
    (P.status_of_response
       (P.overloaded ~queue_depth:3 ~queue_limit:3 ~retry_after_ms:200 ()));
  Alcotest.(check string) "invalid" "invalid"
    (P.status_of_response (J.Int 3))

let test_overloaded_shape () =
  let r =
    P.overloaded ~id:"r9" ~queue_depth:64 ~queue_limit:64 ~retry_after_ms:3250
      ()
  in
  let get k = Option.bind (J.member k r) J.to_int in
  Alcotest.(check (option int)) "depth" (Some 64) (get "queue_depth");
  Alcotest.(check (option int)) "limit" (Some 64) (get "queue_limit");
  Alcotest.(check (option int)) "retry hint" (Some 3250) (get "retry_after_ms");
  Alcotest.(check (option string)) "id echoed" (Some "r9")
    (Option.bind (J.member "id" r) J.to_string_opt)

(* ---------------------------- handler ----------------------------- *)

let tmp_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-serve-test-%d-%d.journal" (Unix.getpid ()) !counter)

let handle ?handler request =
  let t =
    match handler with Some t -> t | None -> Serve.Handler.create ~jobs:1 ()
  in
  Serve.Handler.handle t ~admitted_ns:(Obs.Clock.now_ns ()) ~queue_depth:0
    request

let plain op =
  { P.id = None; deadline_ms = None; jobs = None; trace = false; op }

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let message r =
  Option.value ~default:"" (Option.bind (J.member "message" r) J.to_string_opt)

let test_handler_ping () =
  let r = handle (plain P.Ping) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r)

let test_handler_bad_model () =
  let r =
    handle
      (plain (P.Synthesize { model = "not spi"; tech = tech_source; capacity = None }))
  in
  Alcotest.(check string) "error" "error" (P.status_of_response r)

let test_handler_idempotency () =
  let t = Serve.Handler.create ~jobs:1 () in
  let request = { (plain P.Ping) with P.id = Some "same-key" } in
  let first = handle ~handler:t request in
  let second = handle ~handler:t request in
  Alcotest.(check bool) "first not cached" true
    (J.member "cached" first = None);
  Alcotest.(check (option bool)) "second replayed" (Some true)
    (Option.bind (J.member "cached" second) J.to_bool)

let cost_of response =
  match J.member "cost" response with
  | Some c -> J.to_string c
  | None -> Alcotest.failf "no cost in %s" (J.to_string response)

let test_handler_warm_equals_cold () =
  let path = tmp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let synth =
        plain
          (P.Synthesize
             { model = model_source; tech = tech_source; capacity = None })
      in
      (* cold: no store at all *)
      let cold = handle (plain synth.P.op) in
      if P.status_of_response cold <> "ok" then
        Alcotest.failf "cold failed: %s" (J.to_string cold);
      (* populate the store, then reopen it as a fresh daemon would *)
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let t = Serve.Handler.create ~store ~jobs:1 () in
      let first = handle ~handler:t synth in
      Alcotest.(check (option bool)) "first run is cold" (Some false)
        (Option.bind (J.member "warm" first) J.to_bool);
      Store.Keyed.close store;
      let store, tail = Store.Keyed.open_store ~fsync:false path in
      Alcotest.(check bool) "clean reopen" true (tail = None);
      let t = Serve.Handler.create ~store ~jobs:1 () in
      let warm = handle ~handler:t synth in
      Store.Keyed.close store;
      Alcotest.(check (option bool)) "second run is warm" (Some true)
        (Option.bind (J.member "warm" warm) J.to_bool);
      (* the acceptance differential: warm costs byte-identical to cold *)
      Alcotest.(check string) "warm cost == cold cost" (cost_of cold)
        (cost_of warm);
      Alcotest.(check string) "store-first cost == cold cost" (cost_of cold)
        (cost_of first))

(* An exact store hit that answers with the stored record hashes no
   application key and writes nothing, even where a per-application
   record holds another problem's binding: the store keeps its size,
   the journal gains no append, and the answer is warm at the stored
   cost. *)
let test_handler_exact_hit_writes_nothing () =
  let path = tmp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let synth =
        plain
          (P.Synthesize
             { model = model_source; tech = tech_source; capacity = None })
      in
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let first = handle ~handler:(Serve.Handler.create ~store ~jobs:1 ()) synth in
      (* the application's record now holds the all-hardware binding, as
         if another problem sharing the application was solved last *)
      let tech = Lang.Tech_file.of_string tech_source in
      let apps =
        Synth.App.of_system (Lang.Parser.system_of_string model_source)
      in
      let all_hw =
        Synth.Binding.of_list
          (List.map
             (fun p -> (p, Synth.Binding.Hw))
             (Spi.Ids.Process_id.Set.elements (Synth.App.union_procs apps)))
      in
      Store.Keyed.put store
        (List.map
           (fun a ->
             ( Synth.Bound_store.app_key tech a,
               J.Obj
                 [
                   ("schema", J.String "bound/v1");
                   ("cost", J.Int (Synth.Cost.total tech all_hw));
                   ("degraded", J.Bool false);
                   ("binding", Synth.Bound_store.binding_to_json all_hw);
                 ] ))
           apps);
      Store.Keyed.close store;
      (* reopen: the exact record comes back from the journal *)
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let appends = Obs.Registry.counter "store.journal_appends" in
      let size0 = Store.Keyed.size store and a0 = Obs.Metric.value appends in
      let hit = handle ~handler:(Serve.Handler.create ~store ~jobs:2 ()) synth in
      let size1 = Store.Keyed.size store in
      Store.Keyed.close store;
      Alcotest.(check (option bool)) "warm" (Some true)
        (Option.bind (J.member "warm" hit) J.to_bool);
      Alcotest.(check string) "stored cost" (cost_of first) (cost_of hit);
      Alcotest.(check int) "no record added" size0 size1;
      Alcotest.(check int) "no journal append" a0 (Obs.Metric.value appends))

let test_handler_batch () =
  let t = Serve.Handler.create ~jobs:2 () in
  let batch =
    plain
      (P.Batch
         [
           plain P.Ping;
           plain
             (P.Synthesize
                { model = model_source; tech = tech_source; capacity = None });
           plain
             (P.Simulate
                {
                  model = model_source;
                  until = Some 30;
                  compiled = false;
                  family = false;
                });
         ])
  in
  let r = handle ~handler:t batch in
  Alcotest.(check string) "batch ok" "ok" (P.status_of_response r);
  match J.member "results" r with
  | Some (J.List items) ->
    Alcotest.(check int) "three results" 3 (List.length items);
    List.iter
      (fun item ->
        Alcotest.(check string) "item ok" "ok" (P.status_of_response item))
      items
  | _ -> Alcotest.fail "no results array"

let test_handler_shutdown () =
  let t = Serve.Handler.create ~jobs:1 () in
  Alcotest.(check bool) "not requested" false (Serve.Handler.shutdown_requested t);
  let r = handle ~handler:t (plain P.Shutdown) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check bool) "requested" true (Serve.Handler.shutdown_requested t)

(* ------------------------- deadline path -------------------------- *)

(* A workload big enough that the search cannot finish instantly: an
   expired deadline must still return the greedy incumbent, marked
   degraded.  (The search seeds the incumbent from greedy completions
   before the first deadline poll.) *)
let big_workload () =
  let system =
    V.Generator.generate
      { V.Generator.default with sites = 3; variants_per_site = 3; seed = 9 }
  in
  let apps = Synth.App.of_system system in
  let pids =
    Spi.Ids.Process_id.Set.elements (Synth.App.union_procs apps)
  in
  let weight pid = 1 + ((V.Generator.process_weight pid * 31) mod 100) in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.map
         (fun pid ->
           let w = weight pid in
           (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
         pids)
  in
  (tech, apps)

let test_deadline_returns_degraded_incumbent () =
  let tech, apps = big_workload () in
  match
    Synth.Explore.solve ~jobs:2 ~capacity:140
      ~deadline_ns:(Obs.Clock.now_ns ()) tech apps
  with
  | Ok s ->
    Alcotest.(check bool) "marked degraded" true s.Synth.Explore.degraded;
    Alcotest.(check bool) "carries a real binding" true
      (Synth.Binding.processes s.Synth.Explore.binding <> [])
  | Error Synth.Explore.Deadline_no_incumbent ->
    Alcotest.fail "expected the greedy incumbent, got no incumbent"
  | Error d ->
    Alcotest.failf "unexpected diagnostic: %s"
      (Format.asprintf "%a" Synth.Explore.pp_diagnostic d)

let test_no_deadline_not_degraded () =
  match Synth.Explore.solve ~jobs:2 F2.table1_tech [ F2.app1; F2.app2 ] with
  | Ok s ->
    Alcotest.(check bool) "not degraded" false s.Synth.Explore.degraded
  | Error _ -> Alcotest.fail "solve failed"

(* ---------------------------- client ------------------------------ *)

let test_client_fresh_ids () =
  let a = Serve.Client.fresh_id () in
  let b = Serve.Client.fresh_id () in
  Alcotest.(check bool) "distinct" true (a <> b)

let test_client_unreachable () =
  match
    Serve.Client.request ~timeout_s:0.2 ~attempts:2 ~base_backoff_s:0.01
      ~seed:1 ~socket:"/nonexistent/spi-serve.sock" (plain P.Ping)
  with
  | Serve.Client.Unreachable _ -> ()
  | Serve.Client.Response _ | Serve.Client.Overloaded _ ->
    Alcotest.fail "expected unreachable"


(* The retry-after hint comes from an untrusted daemon: however large
   the hint (or however deep the exponential backoff), no single wait
   may exceed max_backoff_s before jitter (jitter tops out at 1.5). *)
let test_backoff_clamped =
  QCheck.Test.make ~count:200 ~name:"backoff delay is clamped to the ceiling"
    QCheck.(
      quad (int_range 0 20) (float_range 0.5 1.5) (float_range 0.01 2.)
        (option (float_range 0. 1e6)))
    (fun (attempt, jitter, max_backoff_s, hint) ->
      let d =
        Serve.Client.backoff_delay ~base_backoff_s:0.25 ~max_backoff_s ~jitter
          ~attempt hint
      in
      d >= 0. && d <= (max_backoff_s *. jitter) +. 1e-9)

let test_backoff_shape () =
  let delay ?hint attempt =
    Serve.Client.backoff_delay ~base_backoff_s:0.25 ~max_backoff_s:5.
      ~jitter:1. ~attempt hint
  in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.25 (delay 0);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles twice" 1. (delay 2);
  Alcotest.(check (float 1e-9)) "hint raises a small backoff" 2.
    (delay ~hint:2. 0);
  Alcotest.(check (float 1e-9)) "huge hint clamps to the ceiling" 5.
    (delay ~hint:3600. 0);
  Alcotest.(check (float 1e-9)) "deep attempt clamps to the ceiling" 5.
    (delay 16)

(* ------------------------ compiled simulate ----------------------- *)

let run_fields response =
  match Option.bind (J.member "runs" response) J.to_list with
  | Some runs -> runs
  | None -> Alcotest.fail "response has no runs"

(* What a flat simulate must answer: [Sim.Engine.run] (the oracle) on
   every [Flatten.applications] model of the request's text, in order. *)
let oracle_runs ?until source =
  let limits =
    match until with
    | None -> Sim.Engine.default_limits
    | Some max_time -> { Sim.Engine.default_limits with max_time }
  in
  V.Flatten.applications (Lang.Parser.system_of_string source)
  |> List.map (fun (clusters, model) ->
         let r = Sim.Engine.run ~limits model in
         J.Obj
           [
             ( "application",
               J.String
                 (String.concat "+"
                    (List.map Spi.Ids.Cluster_id.to_string clusters)) );
             ("end_time", J.Int r.Sim.Engine.end_time);
             ("firings", J.Int r.Sim.Engine.firings);
             ( "outcome",
               J.String
                 (Format.asprintf "%a" Sim.Engine.pp_outcome
                    r.Sim.Engine.outcome) );
           ])

(* [compiled] is a no-op: both settings answer with the same bytes,
   [compiled: true] included, and the runs are the oracle's. *)
let test_handler_simulate_compiled () =
  let t = Serve.Handler.create ~jobs:1 () in
  let simulate compiled =
    handle ~handler:t
      (plain
         (P.Simulate
            { model = model_source; until = Some 50; compiled; family = false }))
  in
  let hits = Obs.Registry.counter "serve.plan_cache_hits" in
  let misses = Obs.Registry.counter "serve.plan_cache_misses" in
  let h0 = Obs.Metric.value hits and m0 = Obs.Metric.value misses in
  let uncompiled = simulate false in
  let compiled1 = simulate true in
  let compiled2 = simulate true in
  Alcotest.(check string) "ok" "ok" (P.status_of_response compiled1);
  Alcotest.(check (option bool)) "compiled:false answers compiled" (Some true)
    (Option.bind (J.member "compiled" uncompiled) J.to_bool);
  Alcotest.(check string) "compiled:false = compiled:true"
    (J.to_string ~minify:true uncompiled)
    (J.to_string ~minify:true compiled1);
  Alcotest.(check bool) "runs = oracle" true
    (run_fields compiled1 = oracle_runs ~until:50 model_source);
  Alcotest.(check bool) "repeat request is stable" true
    (run_fields compiled1 = run_fields compiled2);
  (* the first request misses the plan cache, the next two hit *)
  Alcotest.(check int) "one miss" (m0 + 1) (Obs.Metric.value misses);
  Alcotest.(check int) "two hits" (h0 + 2) (Obs.Metric.value hits)

(* ------------------------- family simulate ------------------------ *)

(* Figure 2's shape with initial tokens so the run actually fires: the
   feeder drains CX into the site's input port, both variants can
   activate, and the family pass must split g1 from g2. *)
let family_model_source =
  {|system fam {
  channel CX queue initial 2
  channel CA queue
  channel CB queue
  channel CY queue
  process PA {
    mode PA.default { latency 3 consume CX 1 produce CA 1 }
    rule PA.auto0 when num CX >= 1 -> PA.default
    }
  process PB {
    mode PB.default { latency 2 consume CB 1 produce CY 1 }
    rule PB.auto0 when num CB >= 1 -> PB.default
    }
  interface iface1 {
    port in i = CA
    port out o = CB
    cluster g1 {
      process x1 {
        mode x1.default { latency 4 consume i 1 produce o 1 }
        rule x1.auto0 when num i >= 1 -> x1.default
        }
      }
    cluster g2 {
      channel k1 queue
      process y1 {
        mode y1.default { latency 2 consume i 1 produce k1 1 }
        rule y1.auto0 when num i >= 1 -> y1.default
        }
      process y2 {
        mode y2.default { latency 5 consume k1 1 produce o 1 }
        rule y2.auto0 when num k1 >= 1 -> y2.default
        }
      }
    }
  }
|}

let test_handler_simulate_family () =
  let t = Serve.Handler.create ~jobs:1 () in
  let simulate compiled =
    handle ~handler:t
      (plain
         (P.Simulate
            {
              model = family_model_source;
              until = Some 500;
              compiled;
              family = true;
            }))
  in
  let hits = Obs.Registry.counter "serve.plan_cache_hits" in
  let misses = Obs.Registry.counter "serve.plan_cache_misses" in
  let h0 = Obs.Metric.value hits and m0 = Obs.Metric.value misses in
  let first = simulate false in
  Alcotest.(check string) "ok" "ok" (P.status_of_response first);
  Alcotest.(check (option bool)) "family tagged" (Some true)
    (Option.bind (J.member "family" first) J.to_bool);
  Alcotest.(check (option int)) "two configurations" (Some 2)
    (Option.bind (J.member "configurations" first) J.to_int);
  Alcotest.(check (option int)) "split into two subfamilies" (Some 2)
    (Option.bind (J.member "subfamilies" first) J.to_int);
  (* one family engine: [compiled] is ignored, so both settings answer
     with the same response, byte for byte, [compiled: true] included *)
  let compiled = simulate true in
  Alcotest.(check (option bool)) "always compiled" (Some true)
    (Option.bind (J.member "compiled" first) J.to_bool);
  Alcotest.(check string) "compiled:false = compiled:true"
    (J.to_string ~minify:true first)
    (J.to_string ~minify:true compiled);
  (* the family plan cache warms like the per-configuration one *)
  Alcotest.(check int) "one miss" (m0 + 1) (Obs.Metric.value misses);
  Alcotest.(check int) "one hit" (h0 + 1) (Obs.Metric.value hits);
  (* the flat and family paths disagree on nothing but sharing: each
     configuration's end_time matches a per-configuration simulate *)
  let flat =
    handle ~handler:t
      (plain
         (P.Simulate
            {
              model = family_model_source;
              until = Some 500;
              compiled = false;
              family = false;
            }))
  in
  let end_times r =
    run_fields r
    |> List.filter_map (fun run -> Option.bind (J.member "end_time" run) J.to_int)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "family end times = flat end times"
    (end_times flat) (end_times first)

(* 8 sites x 3 variants = 6561 configurations, over the handler's cap:
   the request, family or flat, gets a structured too_large error naming
   the limit before any plan is built, and the handler keeps serving. *)
let test_family_request_capped () =
  let model =
    Lang.Printer.to_string
      (V.Generator.generate
         { V.Generator.default with sites = 8; variants_per_site = 3 })
  in
  let misses = Obs.Registry.counter "serve.plan_cache_misses" in
  List.iter
    (fun family ->
      let t = Serve.Handler.create ~jobs:1 () in
      let shape = if family then "family" else "flat" in
      let m0 = Obs.Metric.value misses in
      let r =
        handle ~handler:t
          { (plain (P.Simulate { model; until = None; compiled = true; family }))
            with P.id = Some "too-big" }
      in
      Alcotest.(check string) (shape ^ ": error") "error" (P.status_of_response r);
      Alcotest.(check (option string)) (shape ^ ": too_large") (Some "too_large")
        (Option.bind (J.member "error" r) J.to_string_opt);
      Alcotest.(check (option int)) (shape ^ ": names the limit")
        (Some Serve.Handler.max_configurations)
        (Option.bind (J.member "limit" r) J.to_int);
      Alcotest.(check (option string)) (shape ^ ": id echoed") (Some "too-big")
        (Option.bind (J.member "id" r) J.to_string_opt);
      Alcotest.(check int) (shape ^ ": no plan was built") m0
        (Obs.Metric.value misses);
      let next =
        handle ~handler:t
          (plain
             (P.Simulate
                { model = family_model_source; until = Some 500; compiled = true;
                  family }))
      in
      Alcotest.(check string) (shape ^ ": next request served") "ok"
        (P.status_of_response next))
    [ true; false ]

(* Synthesize and pareto flatten one model per configuration, so they
   share simulate's cap: the same 6561-configuration space is refused
   before any flattening, alone and as a batch item, and the handler
   serves the next request. *)
let test_synthesis_request_capped () =
  let model =
    Lang.Printer.to_string
      (V.Generator.generate
         { V.Generator.default with sites = 8; variants_per_site = 3 })
  in
  let t = Serve.Handler.create ~jobs:1 () in
  let check_too_large what r =
    Alcotest.(check string) (what ^ ": error") "error" (P.status_of_response r);
    Alcotest.(check (option string)) (what ^ ": too_large") (Some "too_large")
      (Option.bind (J.member "error" r) J.to_string_opt);
    Alcotest.(check (option int)) (what ^ ": names the limit")
      (Some Serve.Handler.max_configurations)
      (Option.bind (J.member "limit" r) J.to_int)
  in
  let synth = P.Synthesize { model; tech = tech_source; capacity = None } in
  check_too_large "synthesize" (handle ~handler:t (plain synth));
  check_too_large "pareto"
    (handle ~handler:t
       (plain (P.Pareto { model; tech = tech_source; capacity = None })));
  (match
     Option.bind
       (J.member "results" (handle ~handler:t (plain (P.Batch [ plain synth ]))))
       J.to_list
   with
  | Some [ item ] -> check_too_large "batch item" item
  | _ -> Alcotest.fail "expected one batch result");
  let next =
    handle ~handler:t
      (plain
         (P.Synthesize
            { model = model_source; tech = tech_source; capacity = None }))
  in
  Alcotest.(check string) "next request served" "ok" (P.status_of_response next)

(* A model asking for more initial tokens than the parser builds is
   refused while it is parsed, as [too_large] with the token limit and
   the literal's position, by every op that carries a model. *)
let test_initial_tokens_capped () =
  let model = "system s {\n  channel a queue initial 10000000000\n}\n" in
  let t = Serve.Handler.create ~jobs:1 () in
  let check_too_large what r =
    Alcotest.(check (option string)) (what ^ ": too_large") (Some "too_large")
      (Option.bind (J.member "error" r) J.to_string_opt);
    Alcotest.(check (option int)) (what ^ ": names the limit")
      (Some Lang.Parser.max_initial_tokens)
      (Option.bind (J.member "limit" r) J.to_int);
    Alcotest.(check bool) (what ^ ": positioned") true
      (contains ~sub:"model:2:27:" (message r))
  in
  check_too_large "synthesize"
    (handle ~handler:t
       (plain (P.Synthesize { model; tech = tech_source; capacity = None })));
  check_too_large "pareto"
    (handle ~handler:t
       (plain (P.Pareto { model; tech = tech_source; capacity = None })));
  check_too_large "simulate"
    (handle ~handler:t
       (plain (P.Simulate { model; until = None; compiled = true; family = false })))

(* A request's [jobs] may lower the handler's domain count, never raise
   it: on a one-domain handler neither a request nor a batch item asking
   for 64 domains spawns a pool. *)
let test_request_jobs_capped () =
  let t = Serve.Handler.create ~jobs:1 () in
  let pools = Obs.Registry.counter "par.pools" in
  let sim =
    {
      (plain
         (P.Simulate
            { model = family_model_source; until = Some 500; compiled = true;
              family = true }))
      with
      P.jobs = Some 64;
    }
  in
  let p0 = Obs.Metric.value pools in
  let r = handle ~handler:t sim in
  Alcotest.(check string) "request ok" "ok" (P.status_of_response r);
  Alcotest.(check int) "no pool for the request" p0 (Obs.Metric.value pools);
  let b = handle ~handler:t (plain (P.Batch [ sim ])) in
  (match Option.bind (J.member "results" b) J.to_list with
  | Some [ item ] ->
    Alcotest.(check string) "item ok" "ok" (P.status_of_response item)
  | _ -> Alcotest.fail "batch has no single result");
  Alcotest.(check int) "no pool for the batch item" p0 (Obs.Metric.value pools)

(* ------------------- flat answers from the family plan ------------ *)

(* Every queue the first configuration leaves unwritten starts with
   [n] tokens, so the daemon's stimulus-free runs fire. *)
let with_inputs n system =
  let inputs =
    Spi.Model.unwritten_channels (snd (List.hd (V.Flatten.applications system)))
  in
  let channels =
    List.map
      (fun c ->
        let cid = Spi.Chan.id c in
        if Spi.Ids.Channel_id.Set.mem cid inputs && Spi.Chan.kind c = Spi.Chan.Queue
        then Spi.Chan.queue ~initial:(Spi.Token.replicate n Spi.Token.plain) cid
        else c)
      (V.System.channels system)
  in
  V.System.make ~processes:(V.System.processes system) ~channels
    ~sites:(V.System.sites system) ~constraints:(V.System.constraints system)
    (V.System.name system)

(* Valid, but the shared process [iface1.PA] sits inside site
   [iface1]'s prefix, so the system has no family plan. *)
let colliding_model_source =
  {|system clash {
  channel CX queue initial 3
  channel CA queue
  channel CB queue
  process iface1.PA {
    mode PA.default { latency 3 consume CX 1 produce CA 1 }
    rule PA.auto0 when num CX >= 1 -> PA.default
    }
  interface iface1 {
    port in i = CA
    port out o = CB
    cluster g1 {
      process x1 {
        mode x1.default { latency 4 consume i 1 produce o 1 }
        rule x1.auto0 when num i >= 1 -> x1.default
        }
      }
    cluster g2 {
      process y1 {
        mode y1.default { latency 2 consume i 1 produce o 1 }
        rule y1.auto0 when num i >= 1 -> y1.default
        }
      }
    }
  }
|}

(* For generated flat, nested and zero-site systems, with and without a
   horizon, a flat request's runs are the oracle's — names, order,
   end times, firings and outcomes — and a repeated request is served
   from the cached family plan.  A prefix-colliding system keeps its
   flat answer, its family request gets the collision error, and the
   handler keeps serving. *)
let test_flat_from_family_plan () =
  let t = Serve.Handler.create ~jobs:2 () in
  let hits = Obs.Registry.counter "serve.plan_cache_hits" in
  let misses = Obs.Registry.counter "serve.plan_cache_misses" in
  let simulate ?until ~family source =
    handle ~handler:t
      (plain (P.Simulate { model = source; until; compiled = true; family }))
  in
  let check_oracle what ?until source =
    let r = simulate ?until ~family:false source in
    Alcotest.(check string) (what ^ ": ok") "ok" (P.status_of_response r);
    Alcotest.(check bool) (what ^ ": runs = oracle") true
      (run_fields r = oracle_runs ?until source);
    run_fields r
  in
  (* the comparison is not vacuous: the runs fire, and the horizon cuts
     some of them short *)
  let fired = ref 0 and cut = ref 0 in
  let tally runs =
    List.iter
      (fun run ->
        let get k = Option.bind (J.member k run) in
        fired := !fired + Option.value ~default:0 (get "firings" J.to_int);
        if get "outcome" J.to_string_opt <> Some "quiescent" then incr cut)
      runs
  in
  let generated seed =
    [
      (Printf.sprintf "flat seed %d" seed, Harness.family_system ~seed ());
      (Printf.sprintf "nested seed %d" seed, Harness.nested_family_system ~seed);
      ( Printf.sprintf "zero-site seed %d" seed,
        Harness.family_system ~sites:0 ~seed () );
    ]
  in
  List.iter
    (fun (what, system) ->
      let source = Lang.Printer.to_string (with_inputs 3 system) in
      let h0 = Obs.Metric.value hits and m0 = Obs.Metric.value misses in
      tally (check_oracle what source);
      tally (check_oracle (what ^ ", until 7") ~until:7 source);
      ignore (check_oracle (what ^ ", repeated") source);
      Alcotest.(check int) (what ^ ": one plan built") (m0 + 1)
        (Obs.Metric.value misses);
      Alcotest.(check int) (what ^ ": then served from the cache") (h0 + 2)
        (Obs.Metric.value hits))
    (List.concat_map generated [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "the runs fire" true (!fired > 0);
  Alcotest.(check bool) "the horizon cuts runs" true (!cut > 0);
  ignore (check_oracle "colliding" colliding_model_source);
  ignore (check_oracle "colliding, until 7" ~until:7 colliding_model_source);
  let r = simulate ~family:true colliding_model_source in
  Alcotest.(check string) "colliding family: error" "error"
    (P.status_of_response r);
  Alcotest.(check bool) "colliding family: names the collision" true
    (contains ~sub:"collides with a site prefix" (message r));
  ignore (check_oracle "next request served" family_model_source)

(* Valid, but configuration g2 does not flatten: its [y1] and the
   shared [PZ] both write CB. *)
let unflattenable_model_source =
  {|system twowriters {
  channel CX queue initial 2
  channel CZ queue
  channel CA queue
  channel CB queue
  process PA {
    mode PA.default { latency 3 consume CX 1 produce CA 1 }
    rule PA.auto0 when num CX >= 1 -> PA.default
    }
  process PZ {
    mode PZ.default { latency 1 consume CZ 1 produce CB 1 }
    rule PZ.auto0 when num CZ >= 1 -> PZ.default
    }
  interface iface1 {
    port in i = CA
    port out o = CB
    cluster g1 {
      process x1 {
        mode x1.default { latency 4 consume i 1 }
        rule x1.auto0 when num i >= 1 -> x1.default
        }
      }
    cluster g2 {
      process y1 {
        mode y1.default { latency 2 consume i 1 produce o 1 }
        rule y1.auto0 when num i >= 1 -> y1.default
        }
      }
    }
  }
|}

(* A configuration that fails to flatten mid-run is an error in both
   shapes, every time: the cached plan stays usable after the failed
   run (its lock is released), also when the failure happens on a pool
   domain. *)
let test_unflattenable_configuration () =
  let t = Serve.Handler.create ~jobs:2 () in
  let simulate family =
    handle ~handler:t
      (plain
         (P.Simulate
            { model = unflattenable_model_source; until = None; compiled = true;
              family }))
  in
  List.iter
    (fun family ->
      let r = simulate family in
      Alcotest.(check string) "error" "error" (P.status_of_response r);
      Alcotest.(check bool) "names the two writers" true
        (contains ~sub:"multiple writers" (message r)))
    [ false; false; true; true; false ];
  let next =
    handle ~handler:t
      (plain
         (P.Simulate
            { model = family_model_source; until = None; compiled = true;
              family = false }))
  in
  Alcotest.(check string) "next request served" "ok"
    (P.status_of_response next)

(* [deadline_ms: 0] has passed before any run starts: the request,
   family or flat, gets a structured deadline_exceeded error, and the
   plan it cached serves the next request.  The uncached flat fallback
   of a prefix-colliding system honours the deadline as well. *)
let test_simulate_deadline () =
  let t = Serve.Handler.create ~jobs:1 () in
  let hits = Obs.Registry.counter "serve.plan_cache_hits" in
  let simulate ?id ?deadline_ms ~family model =
    handle ~handler:t
      {
        (plain (P.Simulate { model; until = Some 500; compiled = true; family }))
        with
        P.id;
        deadline_ms;
      }
  in
  let expired what r =
    Alcotest.(check string) (what ^ ": error") "error" (P.status_of_response r);
    Alcotest.(check (option string)) (what ^ ": deadline_exceeded")
      (Some "deadline_exceeded")
      (Option.bind (J.member "error" r) J.to_string_opt)
  in
  List.iter
    (fun family ->
      let shape = if family then "family" else "flat" in
      let r = simulate ~id:shape ~deadline_ms:0 ~family family_model_source in
      expired shape r;
      Alcotest.(check (option string)) (shape ^ ": id echoed") (Some shape)
        (Option.bind (J.member "id" r) J.to_string_opt);
      let h0 = Obs.Metric.value hits in
      let next = simulate ~family family_model_source in
      Alcotest.(check string) (shape ^ ": next request served") "ok"
        (P.status_of_response next);
      Alcotest.(check int) (shape ^ ": from the cached plan") (h0 + 1)
        (Obs.Metric.value hits))
    [ true; false ];
  expired "colliding flat"
    (simulate ~deadline_ms:0 ~family:false colliding_model_source)

(* --------------------------- line framing ------------------------- *)

(* Lines of cap-1, cap and cap+1 bytes, each fed in uneven chunks with
   its newline in the last one: the first two come out whole, the third
   is refused with the cap as soon as its tail passes it. *)
let test_split_lines_cap () =
  let cap = Serve.Daemon.max_line_bytes in
  let feed line =
    let pending = Buffer.create 16 in
    let input = line ^ "\n" in
    let n = String.length input in
    let rec go off acc =
      if off >= n then Ok (List.rev acc)
      else
        let len = min (n - off) (1 + (off mod 65521) + 40_000) in
        match Serve.Daemon.split_lines pending (String.sub input off len) with
        | Error limit -> Error limit
        | Ok lines -> go (off + len) (List.rev_append lines acc)
    in
    go 0 []
  in
  List.iter
    (fun size ->
      let line = String.make size 'x' in
      match feed line with
      | Ok [ got ] ->
        Alcotest.(check int) (Printf.sprintf "%d bytes intact" size) size
          (String.length got)
      | Ok lines ->
        Alcotest.failf "%d bytes: %d lines" size (List.length lines)
      | Error _ -> Alcotest.failf "%d bytes refused" size)
    [ cap - 1; cap ];
  (match feed (String.make (cap + 1) 'x') with
  | Error limit -> Alcotest.(check int) "refused at the cap" cap limit
  | Ok _ -> Alcotest.fail "cap+1 bytes accepted");
  (* several lines per chunk, one split across chunks *)
  let pending = Buffer.create 16 in
  let step chunk =
    match Serve.Daemon.split_lines pending chunk with
    | Ok lines -> lines
    | Error _ -> Alcotest.fail "short lines refused"
  in
  Alcotest.(check (list string)) "two whole lines" [ "a"; "bc" ] (step "a\nbc\nd");
  Alcotest.(check (list string)) "tail kept" [] (step "e");
  Alcotest.(check (list string)) "joined across chunks" [ "def"; "" ]
    (step "f\n\n")

(* --------------------------- telemetry ---------------------------- *)

let get_path doc path =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some doc) path

let test_handler_metrics_verb () =
  let series = Obs.Series.create ~windows:4 () in
  let t = Serve.Handler.create ~series ~jobs:1 () in
  Obs.Series.sample series;
  ignore (handle ~handler:t (plain P.Ping));
  Unix.sleepf 0.005;
  Obs.Series.sample series;
  let r = handle ~handler:t (plain P.Metrics) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check (option string)) "snapshot is obs/v1" (Some "obs/v1")
    (Option.bind (get_path r [ "snapshot"; "schema" ]) J.to_string_opt);
  (match get_path r [ "snapshot"; "counters"; "serve.requests" ] with
  | Some (J.Int n) when n > 0 -> ()
  | _ -> Alcotest.fail "snapshot misses the request counter");
  (match Option.bind (get_path r [ "exposition" ]) J.to_string_opt with
  | Some text ->
    Alcotest.(check bool) "exposition has TYPE headers" true
      (contains ~sub:"# TYPE serve_requests counter" text)
  | None -> Alcotest.fail "no exposition");
  Alcotest.(check (option string)) "series is series/v1" (Some "series/v1")
    (Option.bind (get_path r [ "series"; "schema" ]) J.to_string_opt);
  Alcotest.(check (option int)) "both windows retained" (Some 2)
    (Option.bind (get_path r [ "series"; "windows" ]) J.to_int);
  (* without a series the verb still answers, minus that member *)
  let bare = handle (plain P.Metrics) in
  Alcotest.(check string) "ok without series" "ok"
    (P.status_of_response bare);
  Alcotest.(check bool) "no series member" true
    (J.member "series" bare = None)

let test_handler_trace_spans () =
  let t = Serve.Handler.create ~jobs:2 () in
  let synth op = { (plain op) with P.id = Some "tr-1"; trace = true } in
  let op =
    P.Synthesize { model = model_source; tech = tech_source; capacity = None }
  in
  let r = handle ~handler:t (synth op) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  let trace =
    match J.member "trace" r with
    | Some tr -> tr
    | None -> Alcotest.fail "trace requested but absent"
  in
  Alcotest.(check (option string)) "rtrace/v1" (Some "rtrace/v1")
    (Option.bind (J.member "schema" trace) J.to_string_opt);
  Alcotest.(check (option string)) "rid is the request id" (Some "tr-1")
    (Option.bind (J.member "rid" trace) J.to_string_opt);
  let spans =
    match Option.bind (J.member "spans" trace) J.to_list with
    | Some spans -> spans
    | None -> Alcotest.fail "no spans"
  in
  let name s = Option.bind (J.member "name" s) J.to_string_opt in
  let root =
    match List.find_opt (fun s -> name s = Some "serve.request") spans with
    | Some s -> s
    | None -> Alcotest.fail "no serve.request root span"
  in
  Alcotest.(check (option int)) "root parents to 0" (Some 0)
    (Option.bind (J.member "parent" root) J.to_int);
  Alcotest.(check bool) "explore landed in the request tree" true
    (List.exists (fun s -> name s = Some "explore.solve_ns") spans);
  (* replays serve the cached response: no stale trace attached *)
  let replay = handle ~handler:t (synth op) in
  Alcotest.(check (option bool)) "replayed" (Some true)
    (Option.bind (J.member "cached" replay) J.to_bool);
  Alcotest.(check bool) "no trace on a replay" true
    (J.member "trace" replay = None);
  (* and without the flag, no trace member at all *)
  let quiet = handle ~handler:t (plain P.Ping) in
  Alcotest.(check bool) "opt-in only" true (J.member "trace" quiet = None)

(* A traced pareto walk keeps its whole tree: on the serve corpus's
   generated 3 x 2 system (26 processes, 8 applications) at capacity
   100 the frontier has 59 points, so the walk makes at least 59
   solves, and the root, the walk and every solve land in the tree. *)
let test_traced_pareto_walk () =
  let system =
    V.Generator.generate
      {
        V.Generator.seed = 1;
        shared_processes = 8;
        sites = 3;
        variants_per_site = 2;
        cluster_processes = 3;
        latency_range = (1, 10);
      }
  in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.map
         (fun pid ->
           let w = V.Generator.process_weight pid in
           (pid, Synth.Tech.both ~load:(5 + (w / 4)) ~area:(10 + w)))
         (Spi.Ids.Process_id.Set.elements
            (Synth.App.union_procs (Synth.App.of_system system))))
  in
  let op =
    P.Pareto
      {
        model = Lang.Printer.to_string system;
        tech = Lang.Tech_file.to_string ~name:"weighted" tech;
        capacity = Some 100;
      }
  in
  let solves = Obs.Registry.counter "explore.solves" in
  let before = Obs.Metric.value solves in
  let r = handle { (plain op) with P.trace = true } in
  let solves = Obs.Metric.value solves - before in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check (option int)) "points" (Some 59)
    (Option.map List.length (Option.bind (J.member "points" r) J.to_list));
  let trace =
    match J.member "trace" r with
    | Some tr -> tr
    | None -> Alcotest.fail "trace requested but absent"
  in
  Alcotest.(check (option int)) "nothing dropped" (Some 0)
    (Option.bind (J.member "dropped" trace) J.to_int);
  let spans =
    Option.value ~default:[] (Option.bind (J.member "spans" trace) J.to_list)
  in
  let count name =
    List.length
      (List.filter
         (fun s -> Option.bind (J.member "name" s) J.to_string_opt = Some name)
         spans)
  in
  Alcotest.(check int) "one serve.request" 1 (count "serve.request");
  Alcotest.(check int) "one pareto.frontier_ns" 1 (count "pareto.frontier_ns");
  Alcotest.(check bool) "a solve per point at least" true (solves >= 59);
  Alcotest.(check int) "one explore.solve_ns per solve" solves
    (count "explore.solve_ns");
  Alcotest.(check int) "no explore.task_ns" 0 (count "explore.task_ns")

(* Metrics polls against a live batch workload: the shared registry,
   exposition and series are the concurrency surface (handlers are
   per-connection state, so each side gets its own). *)
let test_metrics_under_load () =
  let series = Obs.Series.create ~windows:8 () in
  let load = Serve.Handler.create ~jobs:2 () in
  let poll = Serve.Handler.create ~series ~jobs:1 () in
  let stop = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        let batch =
          plain
            (P.Batch
               [
                 plain
                   (P.Synthesize
                      {
                        model = model_source;
                        tech = tech_source;
                        capacity = None;
                      });
                 plain
                   (P.Simulate
                      {
                        model = model_source;
                        until = Some 30;
                        compiled = true;
                        family = false;
                      });
               ])
        in
        while not (Atomic.get stop) do
          let r = handle ~handler:load batch in
          if P.status_of_response r <> "ok" then
            Atomic.set stop true (* surface the failure to the checks below *)
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join worker)
    (fun () ->
      for _ = 1 to 10 do
        Obs.Series.sample series;
        let r = handle ~handler:poll (plain P.Metrics) in
        Alcotest.(check string) "poll ok" "ok" (P.status_of_response r);
        (* well-formed under concurrent writers: the document serializes
           and parses back, and both payloads carry their schema tags *)
        (match J.parse (J.to_string ~minify:true r) with
        | Error e -> Alcotest.failf "snapshot does not round-trip: %s" e
        | Ok _ -> ());
        Alcotest.(check (option string)) "obs/v1" (Some "obs/v1")
          (Option.bind (get_path r [ "snapshot"; "schema" ]) J.to_string_opt);
        Alcotest.(check (option string)) "series/v1" (Some "series/v1")
          (Option.bind (get_path r [ "series"; "schema" ]) J.to_string_opt)
      done;
      Alcotest.(check bool) "load kept running" false (Atomic.get stop))

let test_client_retry_logged () =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink (Some (Obs.Log.channel_sink stderr)))
    (fun () ->
      (match
         Serve.Client.request ~timeout_s:0.2 ~attempts:2 ~base_backoff_s:0.01
           ~seed:1 ~socket:"/nonexistent/spi-serve.sock"
           { (plain P.Ping) with P.id = Some "retry-rid" }
       with
      | Serve.Client.Unreachable _ -> ()
      | Serve.Client.Response _ | Serve.Client.Overloaded _ ->
        Alcotest.fail "expected unreachable");
      let retries =
        List.rev !lines
        |> List.filter_map (fun line ->
               match J.parse line with
               | Ok doc
                 when Option.bind (J.member "event" doc) J.to_string_opt
                      = Some "client.retry" ->
                 Some doc
               | Ok _ | Error _ -> None)
      in
      Alcotest.(check int) "one line per failed attempt" 2
        (List.length retries);
      let first = List.hd retries in
      let field k = get_path first [ "fields"; k ] in
      Alcotest.(check (option string)) "warn level" (Some "warn")
        (Option.bind (J.member "level" first) J.to_string_opt);
      Alcotest.(check (option string)) "idempotency key" (Some "retry-rid")
        (Option.bind (field "id") J.to_string_opt);
      Alcotest.(check (option int)) "attempt number" (Some 1)
        (Option.bind (field "attempt") J.to_int);
      Alcotest.(check (option int)) "attempt budget" (Some 2)
        (Option.bind (field "of") J.to_int);
      (match Option.bind (field "backoff_ms") J.to_int with
      | Some ms when ms >= 0 -> ()
      | _ -> Alcotest.fail "no backoff_ms field");
      match Option.bind (field "reason") J.to_string_opt with
      | Some reason when reason <> "" -> ()
      | _ -> Alcotest.fail "no reason field")

(* ------------------------ daemon connections ---------------------- *)

(* One process feeding itself: every simulate runs to the firing limit. *)
let spin_model =
  {|system spin {
  channel c queue initial 1
  process p { mode m { latency 1 consume c 1 produce c 1 } }
}
|}

let connect_retrying path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 500

let send_lines fd requests =
  let text =
    String.concat ""
      (List.map
         (fun r -> J.to_string ~minify:true (P.request_to_json r) ^ "\n")
         requests)
  in
  let n = String.length text in
  let rec go o = if o < n then go (o + Unix.write_substring fd text o (n - o)) in
  go 0

let read_response fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    if Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n' then begin
      Buffer.add_char buf (Bytes.get b 0);
      go ()
    end
  in
  go ();
  match J.parse (Buffer.contents buf) with
  | Ok r -> r
  | Error e -> Alcotest.failf "unparseable response: %s" e

let rec wait_until what ?(tries = 30_000) cond =
  if not (cond ()) then
    if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.001;
      wait_until what ~tries:(tries - 1) cond
    end

(* Runs [f socket_path] against a daemon on a fresh socket in a domain
   of this process, its log lines going to [on_log], then shuts it down
   unless [f] did (the daemon removes its socket on the way out) and
   restores the log settings. *)
let with_daemon ?(on_log = ignore) f =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-serve-test-%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      Serve.Daemon.socket_path;
      store_path = None;
      metrics_path = None;
      trace_path = None;
      log_path = None;
      log_level = Obs.Log.Debug;
      sample_interval_ms = 0;
      series_windows = 4;
      jobs = 1;
      queue_limit = Serve.Daemon.default_queue_limit;
      default_deadline_ms = None;
      fsync = false;
    }
  in
  Obs.Log.set_sink (Some on_log);
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run config) in
  Fun.protect
    ~finally:(fun () ->
      (try
         if not (Sys.file_exists socket_path) then raise Exit;
         let fd = connect_retrying socket_path in
         (* a daemon that died must fail the test, not hang it *)
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
         send_lines fd [ plain P.Shutdown ];
         ignore (read_response fd);
         Unix.close fd
       with Unix.Unix_error _ | Exit -> ());
      Domain.join daemon;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.set_sink (Some (Obs.Log.channel_sink stderr)))
    (fun () -> f socket_path)

let log_events lines event =
  List.filter_map
    (fun line ->
      match J.parse line with
      | Ok doc when Option.bind (J.member "event" doc) J.to_string_opt = Some event ->
        Some doc
      | Ok _ | Error _ -> None)
    lines

(* A client that hangs up with requests still queued must not have them
   executed, nor their answers written to whatever socket reuses its fd
   number.  Client A queues two batches and a ping, then closes.  Once
   the daemon has read A's EOF and taken the second batch off the queue,
   client C connects — daemon and test share one fd table, so one end of
   C's connection takes A's old fd number — and pings: C's first answer
   must be its own.  A batch is calibrated to ~0.3 s, so C connects
   while the second batch would still run. *)
let test_closed_connection_skipped () =
  let spin =
    P.Simulate
      { model = spin_model; until = Some 100_000; compiled = true; family = false }
  in
  let t0 = Unix.gettimeofday () in
  ignore (handle (plain spin));
  let one = Unix.gettimeofday () -. t0 in
  let items = max 1 (min 50 (int_of_float (0.3 /. Float.max one 1e-3))) in
  let batch id =
    { (plain (P.Batch (List.init items (fun _ -> plain spin)))) with P.id = Some id }
  in
  let lines = ref [] in
  let admitted = Obs.Registry.counter "serve.admitted" in
  let depth = Obs.Registry.gauge "serve.queue_depth" in
  let runs = Obs.Registry.counter "sim.family.runs" in
  let first, ran =
    with_daemon ~on_log:(fun l -> lines := l :: !lines) (fun socket_path ->
        let a = connect_retrying socket_path in
        let a0 = Obs.Metric.value admitted in
        let r0 = Obs.Metric.value runs in
        send_lines a
          [ batch "A-1"; batch "A-2"; { (plain P.Ping) with P.id = Some "A-3" } ];
        Unix.close a;
        wait_until "A's requests admitted" (fun () ->
            Obs.Metric.value admitted >= a0 + 3);
        wait_until "A's second batch taken" (fun () ->
            Obs.Metric.gauge_value depth <= 1);
        let c = connect_retrying socket_path in
        Unix.setsockopt_float c Unix.SO_RCVTIMEO 30.;
        send_lines c [ { (plain P.Ping) with P.id = Some "C-1" } ];
        let first = read_response c in
        Unix.close c;
        (first, Obs.Metric.value runs - r0))
  in
  Alcotest.(check (option string)) "C's first answer is its own" (Some "C-1")
    (Option.bind (J.member "id" first) J.to_string_opt);
  Alcotest.(check int) "only A's first batch ran" items ran;
  let skipped =
    List.filter_map
      (fun doc -> Option.bind (get_path doc [ "fields"; "rid" ]) J.to_string_opt)
      (log_events !lines "serve.skipped_closed")
  in
  Alcotest.(check (list string)) "skips logged" [ "A-2"; "A-3" ]
    (List.sort compare skipped)

(* The next [n] response lines of [fd], read in socket-sized chunks. *)
let read_lines fd n =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go seen =
    if seen < n then begin
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k = 0 then Alcotest.failf "connection closed after %d of %d lines" seen n;
      Buffer.add_subbytes buf chunk 0 k;
      go (seen + List.length (String.split_on_char '\n' (Bytes.sub_string chunk 0 k)) - 1)
    end
  in
  go 0;
  List.filteri (fun i _ -> i < n) (String.split_on_char '\n' (Buffer.contents buf))

(* A batch of family simulates whose one-line answer is several socket
   buffers long (243 configurations per item). *)
let big_batch id =
  let model =
    Lang.Printer.to_string
      (with_inputs 2
         (V.Generator.generate
            { V.Generator.default with sites = 5; variants_per_site = 3 }))
  in
  let sim = plain (P.Simulate { model; until = None; compiled = true; family = true }) in
  { (plain (P.Batch (List.init 48 (fun _ -> sim)))) with P.id = Some id }

let check_big_answer what line =
  Alcotest.(check bool) (what ^ " outgrows a socket buffer") true
    (String.length line > 1 lsl 20);
  match J.parse line with
  | Error e -> Alcotest.failf "%s does not parse: %s" what e
  | Ok r ->
    let results = Option.value ~default:[] (Option.bind (J.member "results" r) J.to_list) in
    Alcotest.(check int) (what ^ ": every item answered") 48 (List.length results);
    Alcotest.(check bool) (what ^ ": every item ok") true
      (List.for_all (fun item -> P.status_of_response item = "ok") results)

(* A client that stops reading must neither kill nor stall the daemon.
   Client A sends one batch whose answer is several socket buffers long
   and reads nothing.  Once the daemon has answered it, client B pings
   and is answered while A's answer still waits; then A reads all of
   it. *)
let test_slow_reader () =
  let lines = ref [] in
  let pong, answer =
    with_daemon ~on_log:(fun l -> lines := l :: !lines) (fun socket_path ->
        let a = connect_retrying socket_path in
        send_lines a [ big_batch "A" ];
        wait_until "A's batch answered" (fun () ->
            List.exists
              (fun doc -> get_path doc [ "fields"; "rid" ] = Some (J.String "A"))
              (log_events !lines "serve.request"));
        let b = connect_retrying socket_path in
        Unix.setsockopt_float b Unix.SO_RCVTIMEO 30.;
        send_lines b [ { (plain P.Ping) with P.id = Some "B" } ];
        let pong = read_response b in
        Unix.close b;
        Unix.setsockopt_float a Unix.SO_RCVTIMEO 30.;
        let answer = List.hd (read_lines a 1) in
        Unix.close a;
        (pong, answer))
  in
  Alcotest.(check (option string)) "B is answered while A waits" (Some "B")
    (Option.bind (J.member "id" pong) J.to_string_opt);
  check_big_answer "A's answer" answer

(* A graceful shutdown still delivers backlogged answers to a client
   that reads them: A pipelines a large batch and a shutdown, and by
   the time the daemon starts shutting down most of the batch's answer
   and the shutdown's are still in A's backlog.  A gets both, whole. *)
let test_shutdown_drains_backlog () =
  let answers =
    with_daemon (fun socket_path ->
        let a = connect_retrying socket_path in
        send_lines a [ big_batch "A"; { (plain P.Shutdown) with P.id = Some "S" } ];
        Unix.setsockopt_float a Unix.SO_RCVTIMEO 30.;
        let answers = read_lines a 2 in
        Unix.close a;
        wait_until "the daemon removes its socket" (fun () ->
            not (Sys.file_exists socket_path));
        answers)
  in
  match answers with
  | [ batch; shutdown ] ->
    check_big_answer "the batch's answer" batch;
    Alcotest.(check string) "the shutdown's answer" "ok"
      (match J.parse shutdown with Ok r -> P.status_of_response r | Error e -> e)
  | _ -> Alcotest.failf "expected two answers, got %d lines" (List.length answers)

(* ------------------- one-domain synthesis, bad input -------------- *)

(* The synthesis search runs on the calling domain whatever the
   handler's domain count: a cold synthesize on a two-domain handler
   starts no domain pool, and neither does a warm one. *)
let test_synthesize_starts_no_pool () =
  let path = tmp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let t = Serve.Handler.create ~store ~jobs:2 () in
      let pools = Obs.Registry.counter "par.pools" in
      let synth =
        plain
          (P.Synthesize
             { model = model_source; tech = tech_source; capacity = None })
      in
      let p0 = Obs.Metric.value pools in
      let cold = handle ~handler:t synth in
      let warm = handle ~handler:t synth in
      Store.Keyed.close store;
      Alcotest.(check (option bool)) "cold" (Some false)
        (Option.bind (J.member "warm" cold) J.to_bool);
      Alcotest.(check (option bool)) "warm" (Some true)
        (Option.bind (J.member "warm" warm) J.to_bool);
      Alcotest.(check string) "same cost" (cost_of cold) (cost_of warm);
      Alcotest.(check int) "no domain pool" p0 (Obs.Metric.value pools))

(* An integer literal past [max_int] answers a positioned parse error,
   not the catch-all's message for an escaped exception. *)
let test_int_literal_out_of_range () =
  let model =
    "system s {\n  channel a queue initial 99999999999999999999999\n}\n"
  in
  let r =
    handle (plain (P.Synthesize { model; tech = tech_source; capacity = None }))
  in
  Alcotest.(check string) "error" "error" (P.status_of_response r);
  Alcotest.(check string) "message"
    "model:2:27: integer literal out of range" (message r)

(* A port declared twice is a validation error naming the port, not an
   escaped [Invalid_argument]. *)
let test_duplicate_port () =
  let model =
    {|system s {
  channel A queue
  channel B queue
  interface f {
    port in i = A
    port in i = A
    port out o = B
    cluster c {
      process p { mode m { latency 1 consume i 1 produce o 1 } }
    }
  }
}
|}
  in
  let r =
    handle
      (plain
         (P.Simulate { model; until = None; compiled = false; family = false }))
  in
  Alcotest.(check string) "error" "error" (P.status_of_response r);
  Alcotest.(check bool)
    (Printf.sprintf "names the port: %s" (message r))
    true
    (contains ~sub:"duplicate port i" (message r));
  Alcotest.(check bool) "no escaped exception" false
    (contains ~sub:"Invalid_argument" (J.to_string r))

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "protocol rejects bad requests" `Quick
        test_protocol_rejects;
      Alcotest.test_case "status_of_response" `Quick test_status_of_response;
      Alcotest.test_case "overloaded response shape" `Quick
        test_overloaded_shape;
      Alcotest.test_case "handler ping" `Quick test_handler_ping;
      Alcotest.test_case "handler rejects bad model" `Quick
        test_handler_bad_model;
      Alcotest.test_case "handler idempotency replay" `Quick
        test_handler_idempotency;
      Alcotest.test_case "handler warm equals cold" `Quick
        test_handler_warm_equals_cold;
      Alcotest.test_case "handler batch fan-out" `Quick test_handler_batch;
      Alcotest.test_case "handler shutdown request" `Quick
        test_handler_shutdown;
      Alcotest.test_case "expired deadline returns degraded incumbent" `Quick
        test_deadline_returns_degraded_incumbent;
      Alcotest.test_case "no deadline, no degradation" `Quick
        test_no_deadline_not_degraded;
      Alcotest.test_case "client ids distinct" `Quick test_client_fresh_ids;
      QCheck_alcotest.to_alcotest test_backoff_clamped;
      Alcotest.test_case "backoff shape and clamp" `Quick test_backoff_shape;
      Alcotest.test_case "handler compiled simulate" `Quick
        test_handler_simulate_compiled;
      Alcotest.test_case "handler family simulate" `Quick
        test_handler_simulate_family;
      Alcotest.test_case "client reports unreachable" `Quick
        test_client_unreachable;
      Alcotest.test_case "metrics verb payload" `Quick
        test_handler_metrics_verb;
      Alcotest.test_case "trace spans in the response" `Quick
        test_handler_trace_spans;
      Alcotest.test_case "a traced pareto walk keeps its tree" `Quick
        test_traced_pareto_walk;
      Alcotest.test_case "metrics polls under batch load" `Quick
        test_metrics_under_load;
      Alcotest.test_case "client retries are logged" `Quick
        test_client_retry_logged;
      Alcotest.test_case "over-cap family request is refused" `Quick
        test_family_request_capped;
      Alcotest.test_case "oversized synthesize and pareto are refused" `Quick
        test_synthesis_request_capped;
      Alcotest.test_case "too many initial tokens are refused" `Quick
        test_initial_tokens_capped;
      Alcotest.test_case "an exact store hit writes nothing" `Quick
        test_handler_exact_hit_writes_nothing;
      Alcotest.test_case "a request's jobs cannot exceed the handler's" `Quick
        test_request_jobs_capped;
      Alcotest.test_case "flat answers from the family plan equal the oracle"
        `Quick test_flat_from_family_plan;
      Alcotest.test_case "an unflattenable configuration leaves the plan usable"
        `Quick test_unflattenable_configuration;
      Alcotest.test_case "an expired deadline stops a simulate" `Quick
        test_simulate_deadline;
      Alcotest.test_case "request lines are capped" `Quick
        test_split_lines_cap;
      Alcotest.test_case "a closed connection's queued requests are skipped"
        `Quick test_closed_connection_skipped;
      Alcotest.test_case "a client that stops reading stalls nobody" `Quick
        test_slow_reader;
      Alcotest.test_case "a shutdown drains backlogged answers" `Quick
        test_shutdown_drains_backlog;
      Alcotest.test_case "a synthesize starts no domain pool" `Quick
        test_synthesize_starts_no_pool;
      Alcotest.test_case "an out-of-range literal is a positioned error"
        `Quick test_int_literal_out_of_range;
      Alcotest.test_case "a duplicate port is a validation error" `Quick
        test_duplicate_port;
    ] )
