(* Differential proof of the domain pool: the Pareto enumeration must
   produce the same frontier as its sequential reference on randomized
   workloads, across job counts that cover an odd worker and
   oversubscription.  Plus direct regression tests for the pool itself:
   work that deterministically moves to a second domain, prompt
   cancellation after a failure, unrefused pushes and re-split
   accounting. *)

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

(* Deterministic forced move: one seed task pushes children and then
   refuses to finish until one of them has run.  Its domain is stuck
   inside the seed, so the other worker, blocked on the empty stack, is
   woken by a push and runs a child. *)
let test_forced_steal () =
  let total, moved = Harness.force_steals ~jobs:2 ~children:8 () in
  Alcotest.(check int) "all tasks ran" 9 total;
  Alcotest.(check bool) "a child ran on another domain" true (moved >= 1)

(* Prompt cancellation: once a task raises, unclaimed tasks are
   skipped.  Sequentially this is exact: seeds run in order, seed 3
   raises, seeds 4.. are never claimed, so exactly 3 tasks complete. *)
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

(* Pushes are never refused: one seed pushes 400 children, and all of
   them run; [par.tasks] counts every push, plus the seed when a pool
   starts (jobs > 1). *)
let test_pushes_never_refused () =
  let tasks = Obs.Registry.counter "par.tasks" in
  List.iter
    (fun jobs ->
      let before = Obs.Metric.value tasks in
      let ran =
        Synth.Par.fold ~jobs
          ~init:(fun () -> 0)
          ~merge:( + )
          ~f:(fun ctx acc -> function
            | `Seed ->
              for _ = 1 to 400 do
                Synth.Par.push ctx `Child
              done;
              acc + 1
            | `Child -> acc + 1)
          [| `Seed |]
      in
      Alcotest.(check int) (Printf.sprintf "jobs %d: every task ran" jobs) 401 ran;
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: par.tasks counts the pushes" jobs)
        (if jobs = 1 then 400 else 401)
        (Obs.Metric.value tasks - before))
    [ 1; 2 ]

(* Every push runs exactly once on 8 workers: the checksum of task
   payloads is conserved. *)
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
        if depth < 6 && v mod 2 = 0 then begin
          Synth.Par.push ctx (v / 2, depth + 1);
          Atomic.incr extra;
          acc + (v - (v / 2))
        end
        else acc + v)
      (Array.map (fun v -> (v, 0)) payload)
  in
  Alcotest.(check int) "checksum conserved" expected sum;
  Alcotest.(check bool) "re-splitting happened" true (Atomic.get extra > 0)

let suite =
  ( "worksteal",
    [
      QCheck_alcotest.to_alcotest prop_pareto_differential;
      Alcotest.test_case "forced steal" `Quick test_forced_steal;
      Alcotest.test_case "cancellation, sequential" `Quick
        test_cancellation_seq;
      Alcotest.test_case "cancellation, parallel" `Quick test_cancellation_par;
      Alcotest.test_case "pushes are never refused" `Quick
        test_pushes_never_refused;
      Alcotest.test_case "no lost tasks under stealing" `Quick
        test_no_lost_tasks;
    ] )
