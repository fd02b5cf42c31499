(* Differential proof of the work-stealing scheduler: the Pareto
   enumeration must produce the same frontier as its sequential
   reference on randomized workloads, across job counts that cover an
   odd worker and oversubscription.  Plus direct regression tests for
   the scheduler itself: deterministic forced stealing, prompt
   cancellation after a failure, and re-split accounting. *)

let jobs_sweep = Harness.default_jobs (* 2, 4, 8 *)

(* ----------------------- differential property ---------------------- *)

(* The Pareto enumeration is the one synthesis entry point that still
   runs on the pool: its frontier objectives must not depend on the job
   count. *)
let prop_pareto_differential =
  QCheck.Test.make ~name:"pareto: par == seq (200 workloads)" ~count:200
    QCheck.(pair (int_range 4 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let tech, apps = Harness.random_instance ~n ~seed in
      let objectives pts =
        List.map
          (fun p -> (p.Synth.Pareto.total_cost, p.Synth.Pareto.worst_load))
          pts
      in
      let seq = objectives (Synth.Pareto.frontier ~jobs:1 tech apps) in
      Harness.sweep_jobs ~jobs:jobs_sweep (fun jobs ->
          objectives (Synth.Pareto.frontier ~jobs tech apps) = seq))

(* --------------------- scheduler regression tests ------------------- *)

let steals_total = Obs.Registry.counter "par.steals"

(* Deterministic forced steal: one seed task pushes children and then
   refuses to finish until one of them has run.  The owner is stuck
   inside the seed, the cursor is exhausted, so the only way a child can
   run is a steal by the other worker.  Termination is guaranteed: the
   second worker parks in the steal loop (pending > 0) and its next
   sweep finds the victim deque non-empty. *)
let test_forced_steal () =
  let before = Obs.Metric.value steals_total in
  let total = Harness.force_steals ~jobs:2 ~children:8 () in
  Alcotest.(check int) "all tasks ran" 9 total;
  Alcotest.(check bool) "at least one steal recorded" true
    (Obs.Metric.value steals_total - before >= 1)

(* Prompt cancellation: once a task raises, claimed-but-unrun tasks are
   skipped.  Sequentially this is exact: seeds run in order, seed 3
   raises, seeds 4.. are claimed and cancelled, so exactly 3 tasks
   complete. *)
exception Boom

let test_cancellation_seq () =
  let ran = Atomic.make 0 in
  (match
     Synth.Par.fold ~jobs:1
       ~init:(fun () -> ())
       ~merge:(fun () () -> ())
       ~f:(fun _ctx () i ->
         if i = 3 then raise Boom else Atomic.incr ran)
       (Array.init 100 Fun.id)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "tasks after the failure are cancelled" 3
    (Atomic.get ran)

(* Parallel: tasks block until the failing task has announced itself,
   so only tasks already in flight at failure time can complete — a
   bounded handful, never the whole array. *)
let test_cancellation_par () =
  let n = 200 in
  let announced = Atomic.make false in
  let ran = Atomic.make 0 in
  (match
     Synth.Par.map ~jobs:4
       (fun i ->
         if i = 0 then begin
           Atomic.set announced true;
           raise Boom
         end
         else begin
           while not (Atomic.get announced) do
             Domain.cpu_relax ()
           done;
           Atomic.incr ran
         end)
       (Array.init n Fun.id)
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check bool)
    (Format.sprintf "only in-flight tasks completed (%d)" (Atomic.get ran))
    true
    (Atomic.get ran < 16)

(* Deque overflow: pushes beyond the per-worker capacity are refused
   (the caller runs the task inline) and counted, never silently
   dropped.  jobs=1 keeps it deterministic. *)
let test_push_overflow () =
  let overflows = Obs.Registry.counter "par.deque_overflows" in
  let before = Obs.Metric.value overflows in
  let accepted = ref 0 and refused = ref 0 in
  let ran =
    Synth.Par.fold ~jobs:1
      ~init:(fun () -> 0)
      ~merge:( + )
      ~f:(fun ctx acc -> function
        | `Seed ->
          for _ = 1 to 400 do
            if Synth.Par.push ctx `Child then incr accepted else incr refused
          done;
          acc + 1
        | `Child -> acc + 1)
      [| `Seed |]
  in
  Alcotest.(check bool) "capacity bounded" true (!refused > 0);
  Alcotest.(check int) "accepted pushes all ran" (!accepted + 1) ran;
  Alcotest.(check int) "overflows counted" !refused
    (Obs.Metric.value overflows - before)

(* Every accepted push runs exactly once even under heavy stealing:
   checksum of task payloads is conserved across 8 workers. *)
let test_no_lost_tasks () =
  let rng = Harness.seeded 42 in
  let payload = Array.init 64 (fun _ -> Random.State.int rng 1_000_000) in
  let expected = Array.fold_left ( + ) 0 payload in
  let extra = Atomic.make 0 in
  let sum =
    Synth.Par.fold ~jobs:8
      ~init:(fun () -> 0)
      ~merge:( + )
      ~f:(fun ctx acc (v, depth) ->
        (* re-split: spread value over two children while splitting *)
        if depth < 6 && v mod 2 = 0 && Synth.Par.push ctx (v / 2, depth + 1) then begin
          ignore (Atomic.fetch_and_add extra 1);
          acc + (v - (v / 2))
        end
        else acc + v)
      (Array.map (fun v -> (v, 0)) payload)
  in
  Alcotest.(check int) "checksum conserved across steals" expected sum;
  Alcotest.(check bool) "re-splitting happened" true (Atomic.get extra > 0)

let suite =
  ( "worksteal",
    [
      QCheck_alcotest.to_alcotest prop_pareto_differential;
      Alcotest.test_case "forced steal" `Quick test_forced_steal;
      Alcotest.test_case "cancellation, sequential" `Quick
        test_cancellation_seq;
      Alcotest.test_case "cancellation, parallel" `Quick test_cancellation_par;
      Alcotest.test_case "push overflow is counted" `Quick test_push_overflow;
      Alcotest.test_case "no lost tasks under stealing" `Quick
        test_no_lost_tasks;
    ] )
