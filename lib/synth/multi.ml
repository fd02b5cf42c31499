module I = Spi.Ids

type processor = { id : I.Resource_id.t; capacity : int; cost : int }

let processor ~name ~capacity ~cost =
  if capacity < 1 then invalid_arg "Multi.processor: capacity < 1";
  if cost < 0 then invalid_arg "Multi.processor: negative cost";
  { id = I.Resource_id.of_string name; capacity; cost }

type placement = Hw | Sw_on of I.Resource_id.t
type binding = placement I.Process_id.Map.t

type solution = {
  binding : binding;
  total_cost : int;
  processors_used : I.Resource_id.t list;
  asic_area : int;
  worst_load : (I.Resource_id.t * int) list;
  explored : int;
  pruned : int;
  degraded : bool;
}

let check_processors procs =
  ignore
    (List.fold_left
       (fun seen p ->
         if List.exists (I.Resource_id.equal p.id) seen then
           invalid_arg
             (Format.asprintf "Multi: duplicate processor %a" I.Resource_id.pp
                p.id)
         else p.id :: seen)
       [] procs)

(* Per-process search data, memoized once per [optimal] call (same
   scheme as {!Explore}): technology options and application membership
   as an index list. *)
type node = {
  pid : I.Process_id.t;
  sw : int option;
  hw : int option;
  members : int array;
}

type counters = { mutable explored : int; mutable pruned : int }

(* Node totals fold into the registry once per optimal call — see the
   note in {!Explore}. *)
let m_nodes = Obs.Registry.counter "multi.nodes_expanded"
let m_pruned = Obs.Registry.counter "multi.pruned"
let m_solves = Obs.Registry.counter "multi.solves"
let m_resplits = Obs.Registry.counter "multi.resplits"

(* Mutable per-search state: per (application, processor) accumulated
   load and the set of processors in use.  The processor cost of the
   used set is threaded through the recursion incrementally instead of
   being rescanned at every node.  Lower bound: area + cost of
   processors used so far — placements only ever add processors and
   area. *)
type state = { loads : int array array; used : bool array }

let copy_state st =
  { loads = Array.map Array.copy st.loads; used = Array.copy st.used }

(* Decisions are plain ints in a preallocated vector — [choice_unset]
   before node [i] is decided, [choice_hw] for hardware, [choice_sw_base
   + c] for software on processor [c] — so the search loop mutates one
   array slot per decision instead of building a [Map] at every node,
   and a stolen task's state is three flat arrays.  The [Map] binding is
   materialized only at leaves that survive the bound check (incumbent
   improvements or [accept] probes), keeping allocation off the hot
   path. *)
let choice_hw = 1
let choice_sw_base = 2

let materialize ~procs_arr ~nodes ~n choices =
  let b = ref I.Process_id.Map.empty in
  for j = 0 to n - 1 do
    let c = choices.(j) in
    if c = choice_hw then b := I.Process_id.Map.add nodes.(j).pid Hw !b
    else if c >= choice_sw_base then
      b :=
        I.Process_id.Map.add nodes.(j).pid
          (Sw_on procs_arr.(c - choice_sw_base).id)
          !b
  done;
  !b

(* Counter semantics match {!Explore}: [explored] counts decision nodes
   expanded, [pruned] counts subtrees cut by the bound or a capacity
   overload.  The sequential reference visits the hardware child first
   while the parallel path sets [sw_first], the order {!Explore.search}
   always uses: a software placement on an already-used processor adds
   no cost, so descending software first is best-first. *)
(* [try_split i area cpu_cost] — see {!Explore.search}: consulted at
   every branch node with both a hardware and a software option;
   returning [true] means the hardware sibling was captured as a pool
   task and only the software placements descend in place. *)
let search ?(try_split = fun _ _ _ -> false)
    ?(should_stop = fun () -> false) ?(stopped = ref false) ~sw_first
    ~procs_arr ~accept ~nodes ~n ~st ~choices ~counters ~current_bound
    ~improve start area0 cpu_cost0 =
  let n_cpu = Array.length procs_arr in
  let rec go i area cpu_cost =
    let lower = area + cpu_cost in
    if !stopped then ()
    else if lower >= current_bound () then
      counters.pruned <- counters.pruned + 1
    else if i = n then begin
      let binding = materialize ~procs_arr ~nodes ~n choices in
      if accept binding then improve lower binding area
    end
    else begin
      counters.explored <- counters.explored + 1;
      if counters.explored land 1023 = 0 && should_stop () then
        stopped := true
      else if sw_first then begin
        if
          Option.is_some nodes.(i).hw
          && Option.is_some nodes.(i).sw
          && try_split i area cpu_cost
        then try_sw i area cpu_cost
        else begin
          try_sw i area cpu_cost;
          try_hw i area cpu_cost
        end
      end
      else begin
        try_hw i area cpu_cost;
        try_sw i area cpu_cost
      end
    end
  and try_hw i area cpu_cost =
    match nodes.(i).hw with
    | Some a ->
      choices.(i) <- choice_hw;
      go (i + 1) (area + a) cpu_cost
    | None -> ()
  and try_sw i area cpu_cost =
    match nodes.(i).sw with
    | Some load ->
      let members = nodes.(i).members in
      for c = 0 to n_cpu - 1 do
        let ok = ref true in
        Array.iter
          (fun ai ->
            st.loads.(ai).(c) <- st.loads.(ai).(c) + load;
            if st.loads.(ai).(c) > procs_arr.(c).capacity then ok := false)
          members;
        let was_used = st.used.(c) in
        st.used.(c) <- true;
        let cpu_cost' =
          if was_used then cpu_cost else cpu_cost + procs_arr.(c).cost
        in
        if !ok then begin
          choices.(i) <- choice_sw_base + c;
          go (i + 1) area cpu_cost'
        end
        else counters.pruned <- counters.pruned + 1;
        if not was_used then st.used.(c) <- false;
        Array.iter
          (fun ai -> st.loads.(ai).(c) <- st.loads.(ai).(c) - load)
          members
      done
    | None -> ()
  in
  go start area0 cpu_cost0

(* A subtree task: the decision prefix as the flat choice vector plus
   its incremental state — plain ints and bools throughout, so stealing
   a task moves no closures between domains. *)
type task = {
  t_choices : int array;
  t_area : int;
  t_cpu_cost : int;
  t_state : state;
  t_bound : int;
  t_depth : int;
}

let split_depth ~jobs ~n ~branching =
  let target = jobs * 32 in
  let rec depth d reach =
    if reach >= target || d >= 10 then d else depth (d + 1) (reach * branching)
  in
  min (n - 2) (depth 0 1)

let candidate ~procs_arr ~st cost binding area =
  let n_cpu = Array.length procs_arr in
  let n_app = Array.length st.loads in
  let worst_load =
    List.init n_cpu (fun c ->
        let w = ref 0 in
        for a = 0 to n_app - 1 do
          w := max !w st.loads.(a).(c)
        done;
        (procs_arr.(c).id, !w))
  in
  let processors_used =
    List.filter_map
      (fun c -> if st.used.(c) then Some procs_arr.(c).id else None)
      (List.init n_cpu Fun.id)
  in
  {
    binding;
    total_cost = cost;
    processors_used;
    asic_area = area;
    worst_load;
    explored = 0;
    pruned = 0;
    degraded = false;
  }

(* Domain-local accumulator for the work-stealing fold. *)
type par_acc = {
  c_best : solution option ref;
  c_cost : int ref;
  c_counters : counters;
}

let m_deadline_hits = Obs.Registry.counter "multi.deadline_hits"

let optimal ?(jobs = 1) ?(accept = fun _ -> true) ?deadline_ns tech
    processors apps =
  let jobs = match jobs with
    | 0 -> Par.available_jobs ()
    | j when j < 0 -> invalid_arg "Multi: negative jobs"
    | j -> j
  in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_solves;
  (* same cooperative cancellation scheme as {!Explore}: one shared
     latch, polled every 1024 expanded nodes on every domain *)
  let cancelled =
    (* an already-expired deadline degrades immediately, even on trees
       too small for the throttled in-search poll to fire *)
    Atomic.make
      (match deadline_ns with
      | Some dl -> Obs.Clock.now_ns () >= dl
      | None -> false)
  in
  let should_stop =
    match deadline_ns with
    | None -> fun () -> Atomic.get cancelled
    | Some dl ->
      fun () ->
        Atomic.get cancelled
        ||
        if Obs.Clock.now_ns () >= dl then begin
          Atomic.set cancelled true;
          true
        end
        else false
  in
  let note counters =
    Obs.Metric.add m_nodes counters.explored;
    Obs.Metric.add m_pruned counters.pruned;
    Obs.Registry.record_span ~name:"multi.optimal_ns" ~start_ns
      ~dur_ns:(Obs.Clock.elapsed_ns start_ns)
  in
  check_processors processors;
  let procs_arr = Array.of_list processors in
  let n_cpu = Array.length procs_arr in
  let apps_arr = Array.of_list apps in
  let n_app = Array.length apps_arr in
  let union =
    Array.of_list (I.Process_id.Set.elements (App.union_procs apps))
  in
  let nodes =
    Array.map
      (fun pid ->
        let o = Tech.options_of tech pid in
        let hits = ref [] in
        Array.iteri
          (fun i (a : App.t) ->
            if I.Process_id.Set.mem pid a.App.procs then hits := i :: !hits)
          apps_arr;
        {
          pid;
          sw = Option.map (fun s -> s.Tech.load) o.Tech.sw;
          hw = Option.map (fun h -> h.Tech.area) o.Tech.hw;
          members = Array.of_list (List.rev !hits);
        })
      union
  in
  let n = Array.length nodes in
  let fresh_state () =
    { loads = Array.make_matrix n_app n_cpu 0; used = Array.make n_cpu false }
  in
  if jobs = 1 || n < 4 then begin
    let st = fresh_state () in
    let choices = Array.make n 0 in
    let counters = { explored = 0; pruned = 0 } in
    let best = ref None and best_cost = ref max_int in
    search ~should_stop ~sw_first:false ~procs_arr ~accept ~nodes ~n ~st
      ~choices ~counters
      ~current_bound:(fun () -> !best_cost)
      ~improve:(fun cost binding area ->
        if cost < !best_cost then begin
          best_cost := cost;
          best := Some (candidate ~procs_arr ~st cost binding area)
        end)
      0 0 0;
    note counters;
    if Atomic.get cancelled then Obs.Metric.incr m_deadline_hits;
    Option.map
      (fun (s : solution) ->
        {
          s with
          explored = counters.explored;
          pruned = counters.pruned;
          degraded = Atomic.get cancelled;
        })
      !best
  end
  else begin
    (* enumerate subtree tasks at the split depth, best-first by bound *)
    let depth = split_depth ~jobs ~n ~branching:(1 + n_cpu) in
    let prefix_counters = { explored = 0; pruned = 0 } in
    let st = fresh_state () in
    let choices = Array.make n 0 in
    let tasks = ref [] in
    let rec enumerate i area cpu_cost =
      if i = depth then
        tasks :=
          {
            t_choices = Array.copy choices;
            t_area = area;
            t_cpu_cost = cpu_cost;
            t_state = copy_state st;
            t_bound = area + cpu_cost;
            t_depth = depth;
          }
          :: !tasks
      else begin
        prefix_counters.explored <- prefix_counters.explored + 1;
        let nd = nodes.(i) in
        (match nd.hw with
        | Some a ->
          choices.(i) <- choice_hw;
          enumerate (i + 1) (area + a) cpu_cost
        | None -> ());
        match nd.sw with
        | Some load ->
          for c = 0 to n_cpu - 1 do
            let ok = ref true in
            Array.iter
              (fun ai ->
                st.loads.(ai).(c) <- st.loads.(ai).(c) + load;
                if st.loads.(ai).(c) > procs_arr.(c).capacity then ok := false)
              nd.members;
            let was_used = st.used.(c) in
            st.used.(c) <- true;
            let cpu_cost' =
              if was_used then cpu_cost else cpu_cost + procs_arr.(c).cost
            in
            if !ok then begin
              choices.(i) <- choice_sw_base + c;
              enumerate (i + 1) area cpu_cost'
            end
            else prefix_counters.pruned <- prefix_counters.pruned + 1;
            if not was_used then st.used.(c) <- false;
            Array.iter
              (fun ai -> st.loads.(ai).(c) <- st.loads.(ai).(c) - load)
              nd.members
          done
        | None -> ()
      end
    in
    enumerate 0 0 0;
    let tasks = Array.of_list !tasks in
    Array.sort (fun a b -> Int.compare a.t_bound b.t_bound) tasks;
    let incumbent = Atomic.make max_int in
    let seed_best = ref None and seed_cost = ref max_int in
    (* Root incumbent seeding, as in {!Explore.solve}: dive the best
       subtree sequentially so the pool never starts with a cold bound. *)
    if Array.length tasks > 0 then begin
      let t = tasks.(0) in
      search ~should_stop ~sw_first:true ~procs_arr ~accept ~nodes ~n
        ~st:t.t_state ~choices:t.t_choices ~counters:prefix_counters
        ~current_bound:(fun () -> Atomic.get incumbent)
        ~improve:(fun cost binding area ->
          if cost < !seed_cost then begin
            seed_cost := cost;
            seed_best :=
              Some (candidate ~procs_arr ~st:t.t_state cost binding area);
            Atomic.set incumbent cost
          end)
        t.t_depth t.t_area t.t_cpu_cost
    end;
    let tasks =
      if Array.length tasks > 0 then Array.sub tasks 1 (Array.length tasks - 1)
      else tasks
    in
    let acc_init () =
      { c_best = ref None; c_cost = ref max_int;
        c_counters = { explored = 0; pruned = 0 } }
    in
    let acc_merge a b =
      a.c_counters.explored <- a.c_counters.explored + b.c_counters.explored;
      a.c_counters.pruned <- a.c_counters.pruned + b.c_counters.pruned;
      (match !(b.c_best) with
      | Some s when !(b.c_cost) < !(a.c_cost) ->
        a.c_cost := !(b.c_cost);
        a.c_best := Some s
      | Some _ | None -> ());
      a
    in
    let run_task ctx acc t =
      let counters = acc.c_counters in
      let improve_for st cost binding area =
        if cost < !(acc.c_cost) then begin
          acc.c_cost := cost;
          acc.c_best := Some (candidate ~procs_arr ~st cost binding area)
        end;
        let rec lower () =
          let cur = Atomic.get incumbent in
          if cost < cur && not (Atomic.compare_and_set incumbent cur cost)
          then lower ()
        in
        lower ()
      in
      (* Shed the hardware sibling at any branch node while a worker is
         hungry (same scheme as {!Explore.solve}): the snapshot
         copies the task's mutable choice vector and load state; stale
         entries beyond node [i] are overwritten by the thief's own
         descent before [materialize] reads them. *)
      let try_split i area cpu_cost =
        Par.should_split ctx
        && begin
             let a = Option.get nodes.(i).hw in
             let ch = Array.copy t.t_choices in
             ch.(i) <- choice_hw;
             let pushed =
               Par.push ctx
                 {
                   t_choices = ch;
                   t_area = area + a;
                   t_cpu_cost = cpu_cost;
                   t_state = copy_state t.t_state;
                   t_bound = area + a + cpu_cost;
                   t_depth = i + 1;
                 }
             in
             if pushed then Obs.Metric.incr m_resplits;
             pushed
           end
      in
      search ~try_split ~should_stop ~sw_first:true ~procs_arr ~accept
        ~nodes ~n ~st:t.t_state ~choices:t.t_choices ~counters
        ~current_bound:(fun () -> Atomic.get incumbent)
        ~improve:(improve_for t.t_state) t.t_depth t.t_area t.t_cpu_cost;
      acc
    in
    let folded =
      Par.fold
        ~cancel:(fun () -> Atomic.get cancelled)
        ~jobs ~init:acc_init ~merge:acc_merge ~f:run_task tasks
    in
    let best = ref !seed_best and best_cost = ref !seed_cost in
    prefix_counters.explored <-
      prefix_counters.explored + folded.c_counters.explored;
    prefix_counters.pruned <- prefix_counters.pruned + folded.c_counters.pruned;
    (match !(folded.c_best) with
    | Some s when !(folded.c_cost) < !best_cost ->
      best_cost := !(folded.c_cost);
      best := Some s
    | Some _ | None -> ());
    note prefix_counters;
    if Atomic.get cancelled then Obs.Metric.incr m_deadline_hits;
    Option.map
      (fun (s : solution) ->
        {
          s with
          explored = prefix_counters.explored;
          pruned = prefix_counters.pruned;
          degraded = Atomic.get cancelled;
        })
      !best
  end

let to_simple binding =
  I.Process_id.Map.fold
    (fun pid placement acc ->
      let impl = match placement with Hw -> Binding.Hw | Sw_on _ -> Binding.Sw in
      Binding.bind pid impl acc)
    binding Binding.empty

let pp_placement ppf = function
  | Hw -> Format.pp_print_string ppf "HW"
  | Sw_on r -> Format.fprintf ppf "SW@%a" I.Resource_id.pp r

let pp_solution ppf s =
  Format.fprintf ppf "@[<v>cost %d (asics %d, cpus: %s)@,%a@]" s.total_cost
    s.asic_area
    (String.concat ", " (List.map I.Resource_id.to_string s.processors_used))
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (pid, p) ->
         Format.fprintf ppf "%a:%a" I.Process_id.pp pid pp_placement p))
    (I.Process_id.Map.bindings s.binding)
