(* Stress harness for the domain pool (Synth.Par).

   Seeded and deterministic in its *expected* results (scheduling is
   free to vary): randomized task graphs through {!Synth.Par.fold} —
   chain / wide / tree / front-loaded shapes (deep re-splitting, one
   task pushing thousands of children, irregular branching, all work
   under one seed) — executed across a 2..8 domain sweep and compared
   against a sequential reference walk for lost or duplicated results,
   then re-run with injected exceptions to check failure propagation
   without deadlock.  Tasks record the domain they ran on, and some
   run must have spread over more than one.

   Budgets scale with the CLI flags so CI smoke and manual soak runs
   share one binary:
     stress.exe [--tasks N] [--rounds N] [--seed N] [--max-domains N]
                [--verbose] *)

let tasks_budget = ref 12_000
let rounds = ref 2
let base_seed = ref 7
let max_domains = ref 8
let verbose = ref false

let speclist =
  [
    ("--tasks", Arg.Set_int tasks_budget, "N  tasks per graph (default 12000)");
    ("--rounds", Arg.Set_int rounds, "N  randomized rounds (default 2)");
    ("--seed", Arg.Set_int base_seed, "N  base seed (default 7)");
    ( "--max-domains",
      Arg.Set_int max_domains,
      "N  cap on the domain sweep (default 8)" );
    ("--verbose", Arg.Set verbose, "  per-graph progress output");
  ]

let say fmt = Format.printf fmt
let debug fmt =
  if !verbose then Format.printf fmt else Format.ifprintf Format.std_formatter fmt

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    say "FAIL: %s@." name
  end

(* xorshift*-style avalanche; all task decisions derive from it *)
let hash x =
  let x = x + 0x1fceb (* keep 0 out of the fixed point *) in
  let x = x lxor (x lsr 12) in
  let x = x lxor (x lsl 25) in
  let x = x lxor (x lsr 27) in
  x * 0x2545F4914F6CDD1D land max_int

(* ------------------------ randomized task graphs --------------------- *)

type shape = Chain | Wide | Tree | Front

let shape_index = function Chain -> 0 | Wide -> 1 | Tree -> 2 | Front -> 3

let shape_name = function
  | Chain -> "chain"
  | Wide -> "wide"
  | Tree -> "tree"
  | Front -> "front-loaded"

type spec = { shape : shape; budget : int; salt : int; inject : bool }

type node = { v : int; depth : int; seed_ix : int }

let n_seeds = 4

let seeds_of spec =
  Array.init n_seeds (fun i ->
      { v = hash (spec.salt + i); depth = 0; seed_ix = i })

(* Deterministic children of a node.  Chains probe deep re-splitting,
   wide graphs push thousands of children from one task, trees give
   irregular branching, and front-loaded graphs put almost all work
   under the first seed, so the other workers live off its pushes. *)
let children_of spec n =
  let child k =
    { v = hash ((n.v * 131) + k); depth = n.depth + 1; seed_ix = n.seed_ix }
  in
  match spec.shape with
  | Chain ->
    if n.depth + 1 < spec.budget / n_seeds then [ child 0 ] else []
  | Wide ->
    if n.depth = 0 then List.init ((spec.budget / n_seeds) - 1) child else []
  | Tree ->
    let b =
      if n.depth < 8 then hash (spec.salt lxor n.v) land 3
      else if n.depth < 24 then hash (spec.salt lxor n.v) land 1
      else 0
    in
    List.init b child
  | Front ->
    if n.seed_ix = 0 then
      if n.depth + 1 < spec.budget - n_seeds + 1 then [ child 0 ] else []
    else []

let raises spec n = spec.inject && hash (spec.salt lxor n.v) land 0xfff = 0

exception Injected of int

(* Sequential reference walk: exact task count, value checksum, and the
   number of raising nodes (raising nodes still count their children —
   the parallel run may or may not reach them, so with injection only
   failure propagation is compared, not the checksum). *)
let reference spec =
  let count = ref 0 and sum = ref 0 and raisers = ref 0 in
  let rec walk n =
    incr count;
    sum := !sum + n.v;
    if raises spec n then incr raisers;
    List.iter walk (children_of spec n)
  in
  Array.iter walk (seeds_of spec);
  (!count, !sum, !raisers)

(* Graph runs whose tasks ran on more than one domain. *)
let spread_runs = ref 0

(* One pool task per node: execute it and push its children.  Each
   worker's accumulator records the domain it runs on once it has run a
   task, so the merged list holds one entry per domain that did work. *)
let run_graph spec ~jobs =
  let count, sum, domains =
    Synth.Par.fold ~jobs
      ~init:(fun () -> (0, 0, []))
      ~merge:(fun (c1, s1, d1) (c2, s2, d2) -> (c1 + c2, s1 + s2, d1 @ d2))
      ~f:(fun ctx (c, s, d) n ->
        if raises spec n then raise (Injected n.v);
        List.iter (Synth.Par.push ctx) (children_of spec n);
        (c + 1, s + n.v, if d = [] then [ (Domain.self () :> int) ] else d))
      (seeds_of spec)
  in
  if List.length domains > 1 then incr spread_runs;
  (count, sum)

let jobs_sweep () =
  List.filter (fun j -> j <= !max_domains) [ 2; 3; 4; 6; 8 ]

let test_graphs () =
  let shapes = [ Chain; Wide; Tree; Front ] in
  for round = 1 to !rounds do
    List.iter
      (fun shape ->
        let spec =
          {
            shape;
            budget = !tasks_budget;
            salt = hash ((!base_seed * 8191) + (round * 127)) + shape_index shape;
            inject = false;
          }
        in
        let count, sum, _ = reference spec in
        debug "round %d %-12s: %d tasks@." round (shape_name spec.shape) count;
        (match shape with
        | Chain | Wide | Front ->
          check
            (Printf.sprintf "%s graph meets the task budget"
               (shape_name shape))
            (count >= !tasks_budget - n_seeds)
        | Tree -> ());
        List.iter
          (fun jobs ->
            let pc, ps = run_graph spec ~jobs in
            check
              (Printf.sprintf "round %d %s jobs=%d: no lost or duplicated tasks"
                 round (shape_name shape) jobs)
              (pc = count && ps = sum))
          (1 :: jobs_sweep ()))
      shapes
  done;
  say "task graphs (%d rounds, %d shapes, jobs up to %d): done@." !rounds 4
    !max_domains

let test_injected_exceptions () =
  let shapes = [ Chain; Wide; Tree; Front ] in
  for round = 1 to !rounds do
    List.iter
      (fun shape ->
        let spec =
          {
            shape;
            budget = !tasks_budget;
            salt = hash ((!base_seed * 524287) + (round * 8209)) + shape_index shape;
            inject = true;
          }
        in
        let count, sum, raisers = reference spec in
        List.iter
          (fun jobs ->
            match run_graph spec ~jobs with
            | pc, ps ->
              check
                (Printf.sprintf
                   "round %d %s jobs=%d: clean graph completes exactly" round
                   (shape_name shape) jobs)
                (raisers = 0 && pc = count && ps = sum)
            | exception Injected _ ->
              check
                (Printf.sprintf
                   "round %d %s jobs=%d: exception only when injected" round
                   (shape_name shape) jobs)
                (raisers > 0))
          (1 :: jobs_sweep ()))
      shapes
  done;
  say "injected exceptions (%d rounds): done@." !rounds

let test_spread () =
  say "graph runs spread over more than one domain: %d@." !spread_runs;
  check "work ran on more than one domain" (!spread_runs > 0)

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %s" a)))
    "stress.exe: domain pool stress harness";
  if !tasks_budget < n_seeds + 1 then begin
    say "stress: --tasks must be at least %d@." (n_seeds + 1);
    exit 2
  end;
  let t0 = Obs.Clock.now_ns () in
  test_graphs ();
  test_injected_exceptions ();
  test_spread ();
  say "elapsed: %.2fs@."
    (float_of_int (Obs.Clock.elapsed_ns t0) /. 1e9);
  if !failures > 0 then begin
    say "%d stress check(s) failed@." !failures;
    exit 1
  end
  else say "all stress checks passed@."
