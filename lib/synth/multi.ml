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
let m_deadline_hits = Obs.Registry.counter "multi.deadline_hits"

(* Mutable per-search state: per (application, processor) accumulated
   load and the set of processors in use.  The processor cost of the
   used set is threaded through the recursion incrementally instead of
   being rescanned at every node.  Lower bound: area + cost of
   processors used so far — placements only ever add processors and
   area. *)
type state = { loads : int array array; used : bool array }

(* Decisions are plain ints in a preallocated vector — 0 before node
   [i] is decided, [choice_hw] for hardware, [choice_sw_base + c] for
   software on processor [c] — so the search loop mutates one array
   slot per decision instead of building a [Map] at every node.  The
   [Map] binding is materialized only at leaves that survive the bound
   check (incumbent improvements or [accept] probes), keeping
   allocation off the hot path. *)
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
   overload.  The hardware child is visited first, then the software
   placements in processor order.  [should_stop] is polled every 1024
   expanded nodes, as in {!Explore.search}; once it fires [stopped]
   latches and the recursion unwinds. *)
let search ~should_stop ~procs_arr ~accept ~nodes ~n ~st ~choices ~counters
    ~current_bound ~improve =
  let n_cpu = Array.length procs_arr in
  let stopped = ref false in
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
  go 0 0 0

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

let optimal ?(accept = fun _ -> true) ?deadline_ns tech processors apps =
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_solves;
  (* same cooperative cancellation scheme as {!Explore}: one latch,
     polled every 1024 expanded nodes *)
  let cancelled =
    (* an already-expired deadline degrades immediately, even on trees
       too small for the throttled in-search poll to fire *)
    ref
      (match deadline_ns with
      | Some dl -> Obs.Clock.now_ns () >= dl
      | None -> false)
  in
  let should_stop =
    match deadline_ns with
    | None -> fun () -> !cancelled
    | Some dl ->
      fun () ->
        !cancelled
        ||
        if Obs.Clock.now_ns () >= dl then begin
          cancelled := true;
          true
        end
        else false
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
  let st =
    { loads = Array.make_matrix n_app n_cpu 0; used = Array.make n_cpu false }
  in
  let choices = Array.make n 0 in
  let counters = { explored = 0; pruned = 0 } in
  let best = ref None and best_cost = ref max_int in
  search ~should_stop ~procs_arr ~accept ~nodes ~n ~st ~choices ~counters
    ~current_bound:(fun () -> !best_cost)
    ~improve:(fun cost binding area ->
      if cost < !best_cost then begin
        best_cost := cost;
        best := Some (candidate ~procs_arr ~st cost binding area)
      end);
  Obs.Metric.add m_nodes counters.explored;
  Obs.Metric.add m_pruned counters.pruned;
  Obs.Registry.record_span ~name:"multi.optimal_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  if !cancelled then Obs.Metric.incr m_deadline_hits;
  Option.map
    (fun (s : solution) ->
      {
        s with
        explored = counters.explored;
        pruned = counters.pruned;
        degraded = !cancelled;
      })
    !best

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
