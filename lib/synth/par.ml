let available_jobs () = Domain.recommended_domain_count ()

(* Pool observability: a handful of counter bumps and two histogram
   observations per task — nothing per node, so the search loops stay
   allocation- and atomic-free.  [par.task_queue_wait_ns] measures how
   long a task sat enqueued (seed: since the pool started; pushed child:
   since its push) before a worker claimed it — the long tail the old
   static split produced on front-loaded trees is what work-stealing
   removes.  Steal failures are accumulated in worker-local ints and
   folded into the registry at worker exit, so an idle spinning worker
   costs no atomics. *)
let m_tasks = Obs.Registry.counter "par.tasks"
let m_pools = Obs.Registry.counter "par.pools"
let m_queue_wait = Obs.Registry.histogram "par.task_queue_wait_ns"
let m_task_run = Obs.Registry.histogram "par.task_run_ns"
let m_steals = Obs.Registry.counter "par.steals"
let m_steal_failures = Obs.Registry.counter "par.steal_failures"
let m_overflows = Obs.Registry.counter "par.deque_overflows"

(* Per-worker steal counters, [par.steals.w<i>]: handles are created
   lazily (registry creation takes a mutex) and cached, so a pool spawn
   registers at most [jobs] names once per process. *)
let steal_counters = Atomic.make ([||] : Obs.Metric.counter array)

let steal_counter w =
  let rec grow () =
    let cur = Atomic.get steal_counters in
    if w < Array.length cur then cur.(w)
    else begin
      let next =
        Array.init (w + 1) (fun i ->
            if i < Array.length cur then cur.(i)
            else Obs.Registry.counter (Printf.sprintf "par.steals.w%d" i))
      in
      (* lost races leak a duplicate handle, which the registry
         deduplicates by name — harmless *)
      ignore (Atomic.compare_and_set steal_counters cur next);
      grow ()
    end
  in
  grow ()

(* A scheduled task: [enq_ns] stamps when it became claimable. *)
type 'a cell = { enq_ns : int; v : 'a }

type 'a pool = {
  jobs : int;
  deques : 'a cell Ws_deque.t array;
  seeds : 'a cell array;
  cursor : int Atomic.t;  (** next unclaimed seed index *)
  pending : int Atomic.t;  (** tasks enqueued or running, not yet done *)
  failure : exn option Atomic.t;
  cancel : unit -> bool;
}

type 'a ctx = {
  pool : 'a pool;
  worker : int;
  mutable rng : int;
  mutable lost_races : int;
  w_steals : Obs.Metric.counter;
}

let worker_index ctx = ctx.worker

let deque_capacity = 256

let push ctx v =
  let p = ctx.pool in
  let cell = { enq_ns = Obs.Clock.now_ns (); v } in
  (* count it before it becomes stealable, so [pending] never
     under-reports an enqueued task *)
  Atomic.incr p.pending;
  if Ws_deque.push p.deques.(ctx.worker) cell then begin
    Obs.Metric.incr m_tasks;
    true
  end
  else begin
    Atomic.decr p.pending;
    Obs.Metric.incr m_overflows;
    false
  end

let xorshift ctx =
  let x = ctx.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) in
  ctx.rng <- x;
  x land max_int

(* One sweep over the victims in a pseudo-random rotation.  [Empty]
   probes are free misses; [Lost_race] is genuine contention and is
   counted (locally) as a steal failure. *)
let try_steal ctx =
  let p = ctx.pool in
  let n = p.jobs in
  let start = xorshift ctx mod n in
  let rec probe k =
    if k = n then None
    else
      let v = (start + k) mod n in
      if v = ctx.worker then probe (k + 1)
      else
        match Ws_deque.steal p.deques.(v) with
        | Ws_deque.Stolen cell ->
          Obs.Metric.incr m_steals;
          Obs.Metric.incr ctx.w_steals;
          Some cell
        | Ws_deque.Empty -> probe (k + 1)
        | Ws_deque.Lost_race ->
          ctx.lost_races <- ctx.lost_races + 1;
          probe (k + 1)
  in
  probe 0

(* The generic worker.  Claim order: own deque (LIFO), seed cursor
   (global best-first), steal (FIFO from a random victim).  A worker
   only parks in the steal loop once every seed has been claimed, so
   termination needs no cursor re-check there; [pending] reaching zero
   is the pool-wide quiescence signal (workers spin — the pool's
   lifetime is one search, not a service). *)
let run_worker pool ~init ~f worker =
  let ctx =
    {
      pool;
      worker;
      rng = (worker * 0x9e3779b9) + 0x12345 lor 1;
      lost_races = 0;
      w_steals = steal_counter worker;
    }
  in
  let acc = ref (init ()) in
  let n_seeds = Array.length pool.seeds in
  let run cell =
    (* claimed tasks are cancelled, not run, once a failure is
       published or the pool's cancel predicate trips *)
    if Option.is_none (Atomic.get pool.failure) && not (pool.cancel ()) then begin
      let claimed_ns = Obs.Clock.now_ns () in
      Obs.Metric.observe m_queue_wait (claimed_ns - cell.enq_ns);
      (match f ctx !acc cell.v with
      | acc' ->
        Obs.Metric.observe m_task_run (Obs.Clock.now_ns () - claimed_ns);
        acc := acc'
      | exception e ->
        (* keep the first failure; losing later ones is fine *)
        ignore (Atomic.compare_and_set pool.failure None (Some e)))
    end;
    Atomic.decr pool.pending
  in
  (* Empty-handed workers briefly spin (steals usually become available
     within a few sweeps), then yield their timeslice with a bounded
     sleep: on machines with fewer cores than domains, a spinning thief
     would otherwise steal cycles from the workers that still hold
     work, stretching exactly the tail the deques exist to shorten. *)
  let rec steal_loop spins =
    if Option.is_some (Atomic.get pool.failure) then None
    else if pool.cancel () then None
    else if Atomic.get pool.pending = 0 then None
    else
      match try_steal ctx with
      | Some cell -> Some cell
      | None ->
        if spins < 32 then Domain.cpu_relax () else Unix.sleepf 2e-5;
        steal_loop (spins + 1)
  in
  let rec loop () =
    if Option.is_some (Atomic.get pool.failure) then ()
    else if pool.cancel () then ()
    else
      match Ws_deque.pop pool.deques.(worker) with
      | Some cell ->
        run cell;
        loop ()
      | None ->
        let i =
          if Atomic.get pool.cursor < n_seeds then
            Atomic.fetch_and_add pool.cursor 1
          else n_seeds
        in
        if i < n_seeds then begin
          run pool.seeds.(i);
          loop ()
        end
        else if Atomic.get pool.pending = 0 then ()
        else
          match steal_loop 0 with
          | Some cell ->
            run cell;
            loop ()
          | None -> ()
  in
  loop ();
  if ctx.lost_races > 0 then Obs.Metric.add m_steal_failures ctx.lost_races;
  !acc

let make_pool ~jobs ~cancel seeds =
  let n = Array.length seeds in
  let start_ns = Obs.Clock.now_ns () in
  {
    jobs;
    deques = Array.init jobs (fun _ -> Ws_deque.create ~capacity:deque_capacity);
    seeds = Array.map (fun v -> { enq_ns = start_ns; v }) seeds;
    cursor = Atomic.make 0;
    pending = Atomic.make n;
    failure = Atomic.make None;
    cancel;
  }

let run_pool ~jobs ~cancel ~init ~merge ~f seeds =
  Obs.Metric.incr m_pools;
  Obs.Metric.add m_tasks (Array.length seeds);
  let pool = make_pool ~jobs ~cancel seeds in
  (* pool tasks inherit the spawning domain's request trace (batch
     items, family splits): capture once here, restore on each spawned
     domain so spans recorded inside tasks join the request's tree.
     Worker 0 runs on the calling domain and needs nothing. *)
  let rctx = Obs.Rtrace.capture () in
  let others =
    Array.init (jobs - 1) (fun k ->
        Domain.spawn (fun () ->
            Obs.Rtrace.restore rctx;
            run_worker pool ~init ~f (k + 1)))
  in
  let acc0 = run_worker pool ~init ~f 0 in
  let accs = Array.map Domain.join others in
  (match Atomic.get pool.failure with Some e -> raise e | None -> ());
  Array.fold_left merge acc0 accs

(* Sequential reference: in-order over the seeds, local LIFO stack for
   pushes, same cancellation semantics. *)
let run_seq ~cancel ~init ~f seeds =
  let pool = make_pool ~jobs:1 ~cancel seeds in
  let acc = run_worker pool ~init ~f 0 in
  (match Atomic.get pool.failure with Some e -> raise e | None -> ());
  acc

let no_cancel () = false

let fold ?(cancel = no_cancel) ~jobs ~init ~merge ~f seeds =
  if jobs < 1 then invalid_arg "Par.fold: jobs < 1";
  if Array.length seeds = 0 then init ()
  else if jobs = 1 then run_seq ~cancel ~init ~f seeds
  else run_pool ~jobs ~cancel ~init ~merge ~f seeds

let map ~jobs f tasks =
  if jobs < 1 then invalid_arg "Par.map: jobs < 1";
  let n = Array.length tasks in
  if jobs = 1 || n < 2 then Array.map f tasks
  else begin
    let results = Array.make n None in
    let jobs = min jobs n in
    ignore
      (run_pool ~jobs ~cancel:no_cancel
         ~init:(fun () -> ())
         ~merge:(fun () () -> ())
         ~f:(fun _ctx () i -> results.(i) <- Some (f tasks.(i)))
         (Array.init n Fun.id));
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index was claimed and succeeded *))
      results
  end
