let available_jobs () = Domain.recommended_domain_count ()

(* Pool observability: a handful of counter bumps and two histogram
   observations per task.  [par.task_queue_wait_ns] measures how long a
   task sat on the stack (seed: since the pool started; pushed child:
   since its push) before a worker claimed it. *)
let m_tasks = Obs.Registry.counter "par.tasks"
let m_pools = Obs.Registry.counter "par.pools"
let m_queue_wait = Obs.Registry.histogram "par.task_queue_wait_ns"
let m_task_run = Obs.Registry.histogram "par.task_run_ns"

(* A scheduled task: [enq_ns] stamps when it became claimable. *)
type 'a cell = { enq_ns : int; v : 'a }

(* The pool is one task stack under one lock, shared by every worker;
   a worker's handle on it is the pool itself. *)
type 'a ctx = {
  lock : Mutex.t;
  idle : Condition.t;  (** signalled on a push, a failure or quiescence *)
  mutable stack : 'a cell list;
      (** pushed children on top (LIFO), then the unclaimed seeds in order *)
  mutable running : int;  (** tasks claimed and not yet finished *)
  mutable failure : exn option;  (** the first exception any task raised *)
}

let push p v =
  let cell = { enq_ns = Obs.Clock.now_ns (); v } in
  Mutex.lock p.lock;
  p.stack <- cell :: p.stack;
  Mutex.unlock p.lock;
  Condition.signal p.idle;
  Obs.Metric.incr m_tasks

(* Under the lock: the next task, or [None] once a task has failed
   (unclaimed tasks are skipped) or nothing is left to run.  An empty
   stack with tasks still running may yet be pushed to, so the worker
   blocks until a push, a failure or the last task's end. *)
let rec claim p =
  match (p.failure, p.stack) with
  | Some _, _ -> None
  | None, cell :: rest ->
    p.stack <- rest;
    p.running <- p.running + 1;
    Some cell
  | None, [] ->
    if p.running = 0 then None
    else begin
      Condition.wait p.idle p.lock;
      claim p
    end

(* A task ended, raising [failure] or not: the first failure is kept,
   and blocked workers wake to stop on it or on quiescence. *)
let finish p failure =
  Mutex.lock p.lock;
  p.running <- p.running - 1;
  if Option.is_none p.failure then p.failure <- failure;
  let wake = Option.is_some p.failure || (p.running = 0 && p.stack = []) in
  Mutex.unlock p.lock;
  if wake then Condition.broadcast p.idle

(* One worker: claim, run, repeat, threading its own accumulator. *)
let run_worker p ~init ~f =
  let rec loop acc =
    Mutex.lock p.lock;
    let next = claim p in
    Mutex.unlock p.lock;
    match next with
    | None -> acc
    | Some cell -> (
      let claimed_ns = Obs.Clock.now_ns () in
      Obs.Metric.observe m_queue_wait (claimed_ns - cell.enq_ns);
      match f p acc cell.v with
      | acc ->
        Obs.Metric.observe m_task_run (Obs.Clock.now_ns () - claimed_ns);
        finish p None;
        loop acc
      | exception e ->
        finish p (Some e);
        loop acc)
  in
  loop (init ())

(* The calling domain is worker 0, and [jobs - 1] more start here.  A
   one-domain run (the sequential reference) is not a pool: it bumps
   neither [par.pools] nor [par.tasks] for its seeds. *)
let run ~jobs ~init ~merge ~f seeds =
  if jobs > 1 then begin
    Obs.Metric.incr m_pools;
    Obs.Metric.add m_tasks (Array.length seeds)
  end;
  let enq_ns = Obs.Clock.now_ns () in
  let p =
    {
      lock = Mutex.create ();
      idle = Condition.create ();
      stack = Array.fold_right (fun v rest -> { enq_ns; v } :: rest) seeds [];
      running = 0;
      failure = None;
    }
  in
  (* pool tasks inherit the spawning domain's request trace (batch
     items, family splits): capture once here, restore on each spawned
     domain so spans recorded inside tasks join the request's tree *)
  let rctx = Obs.Rtrace.capture () in
  let others =
    Array.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Obs.Rtrace.restore rctx;
            run_worker p ~init ~f))
  in
  let acc0 = run_worker p ~init ~f in
  let accs = Array.map Domain.join others in
  Option.iter raise p.failure;
  Array.fold_left merge acc0 accs

let fold ~jobs ~init ~merge ~f seeds =
  if jobs < 1 then invalid_arg "Par.fold: jobs < 1";
  if Array.length seeds = 0 then init () else run ~jobs ~init ~merge ~f seeds

let map ~jobs f tasks =
  if jobs < 1 then invalid_arg "Par.map: jobs < 1";
  let n = Array.length tasks in
  if jobs = 1 || n < 2 then Array.map f tasks
  else begin
    let results = Array.make n None in
    run ~jobs:(min jobs n) ~init:ignore
      ~merge:(fun () () -> ())
      ~f:(fun _ () i -> results.(i) <- Some (f tasks.(i)))
      (Array.init n Fun.id);
    (* every index was claimed and succeeded *)
    Array.map Option.get results
  end
