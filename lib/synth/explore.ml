module I = Spi.Ids

type solution = {
  binding : Binding.t;
  cost : Cost.breakdown;
  worst_load : int;
  explored : int;
  pruned : int;
  degraded : bool;
}

type diagnostic =
  | Pinned_impl_unavailable of {
      process : I.Process_id.t;
      impl : Binding.impl;
    }
  | Infeasible
  | Deadline_no_incumbent

let pp_diagnostic ppf = function
  | Pinned_impl_unavailable { process; impl } ->
    Format.fprintf ppf
      "process %a is pinned to %a but its technology entry offers no %a option"
      I.Process_id.pp process Binding.pp_impl impl Binding.pp_impl impl
  | Infeasible -> Format.pp_print_string ppf "no feasible binding"
  | Deadline_no_incumbent ->
    Format.pp_print_string ppf
      "deadline expired before any feasible binding was found"

(* Per-process search data, memoized once per [solve] call: technology
   options with any [fixed] pin already applied, and application
   membership as an index list — the inner loop touches only the
   applications a process actually belongs to, instead of re-deriving
   membership and re-querying the technology map at every node. *)
type node = {
  pid : I.Process_id.t;
  sw : int option;  (** software load, [None] when unavailable or pinned HW *)
  hw : int option;  (** hardware area, [None] when unavailable or pinned SW *)
  members : int array;  (** indices of the applications containing [pid] *)
}

type counters = { mutable explored : int; mutable pruned : int }

(* Domain-local accumulator for the work-stealing fold: the best
   (binding, worst-load) seen by this worker and its node counters. *)
type par_acc = {
  c_best : (Binding.t * int) option ref;
  c_cost : int ref;
  c_counters : counters;
}

exception Diagnosed of diagnostic

(* Observability: node totals are folded into the registry once per
   solve (and per parallel task), never from the search loop itself, so
   instrumentation adds a handful of atomic operations to a search that
   expands millions of nodes.  Incumbent improvements and the
   time-to-first-incumbent gauge are bumped from the (rare) improve
   path. *)
let m_nodes = Obs.Registry.counter "explore.nodes_expanded"
let m_pruned = Obs.Registry.counter "explore.pruned"
let m_solves = Obs.Registry.counter "explore.solves"
let m_tasks = Obs.Registry.counter "explore.tasks"
let m_improvements = Obs.Registry.counter "explore.incumbent_improvements"
let m_ttfi = Obs.Registry.gauge "explore.time_to_first_incumbent_ns"
let m_resplits = Obs.Registry.counter "explore.resplits"
let m_deadline_hits = Obs.Registry.counter "explore.deadline_hits"
let m_warm_accepted = Obs.Registry.counter "explore.warm_starts_accepted"
let m_warm_rejected = Obs.Registry.counter "explore.warm_starts_rejected"

let compile ~fixed tech apps procs =
  let member_indices pid =
    let hits = ref [] in
    Array.iteri
      (fun i (a : App.t) ->
        if I.Process_id.Set.mem pid a.App.procs then hits := i :: !hits)
      apps;
    Array.of_list (List.rev !hits)
  in
  Array.map
    (fun pid ->
      let o = Tech.options_of tech pid in
      let pin = Binding.impl_of pid fixed in
      (match pin with
      | Some Binding.Hw when Option.is_none o.Tech.hw ->
        raise (Diagnosed (Pinned_impl_unavailable { process = pid; impl = Binding.Hw }))
      | Some Binding.Sw when Option.is_none o.Tech.sw ->
        raise (Diagnosed (Pinned_impl_unavailable { process = pid; impl = Binding.Sw }))
      | Some _ | None -> ());
      let sw =
        match pin with
        | Some Binding.Hw -> None
        | Some Binding.Sw | None ->
          Option.map (fun s -> s.Tech.load) o.Tech.sw
      and hw =
        match pin with
        | Some Binding.Sw -> None
        | Some Binding.Hw | None ->
          Option.map (fun h -> h.Tech.area) o.Tech.hw
      in
      { pid; sw; hw; members = member_indices pid })
    procs

(* Variant-aware lower bound, one row per depth [i]: nodes [0, i) are
   decided, [i, n) are open.  Applications whose open software-capable
   process sets are identical form a group.  A completion keeps every
   application within capacity, so each group's most loaded member must
   move at least [loads + sw_load - capacity] of load to hardware, out
   of [movable]; past [movable] the subtree is infeasible, and otherwise
   the move costs at least the fractional-knapsack area of the group's
   [items].  Groups whose movable processes are pairwise disjoint pay
   for disjoint processes, so a packing's terms add up: applications
   that pick different variants of a site move load from disjoint
   cluster processes.

   Rows are built backward from depth [n], where every application has
   the empty set: the groups of row [i] split those of row [i + 1] by
   membership of node [i], and a group node [i] does not touch keeps
   its record. *)
type group = {
  sw_load : int;  (** open software-capable load of every member *)
  movable : int;  (** the part of [sw_load] that could move to hardware *)
  items : int array;
      (** nodes of the [movable] load with a positive load, ascending
          area/load: the fractional-knapsack order *)
}

type row = {
  hw_only_area : int;  (** area of the open hardware-only nodes *)
  sw_forced : bool;  (** some open node is software-only *)
  group_of : int array;  (** application index -> group index *)
  groups : group array;
  max_sw_load : int;  (** the largest [sw_load] of [groups] *)
  packings : int array array;
      (** sets of at least two groups with pairwise disjoint [items] *)
}

type bound = {
  rows : row array;  (** indexed by depth, [0 .. n] *)
  item_load : int array;  (** per node: software load, 0 when none *)
  item_area : int array;  (** per node: hardware area, 0 when none *)
  max_groups : int;
}

(* Packings per row: greedy packings, each from the first group no
   earlier packing covers, at most [max_packings] of them.  The cap
   keeps a row at O(applications) packing entries and its build at
   O(max_packings x applications x processes). *)
let max_packings = 32

(* Exact comparison of [a1 / l1] and [a2 / l2] for positive loads,
   without the overflow of cross-multiplying: compare the quotients,
   then the remainders' ratios inverted (Euclid's recursion). *)
let rec compare_ratio a1 l1 a2 l2 =
  let q1 = a1 / l1 and q2 = a2 / l2 in
  if q1 <> q2 then Int.compare q1 q2
  else
    let r1 = a1 - (q1 * l1) and r2 = a2 - (q2 * l2) in
    match (r1, r2) with
    | 0, 0 -> 0
    | 0, _ -> -1
    | _, 0 -> 1
    | _ -> compare_ratio l2 r2 l1 r1

(* [ceil (area * need / load)] for [0 < need <= load].  With
   [area = q * load + r] it is [q * need + ceil (r * need / load)]; the
   second term is dropped (a weaker, still valid bound) when [r * need]
   could overflow. *)
let pro_rata ~area ~load ~need =
  let q = area / load and r = area mod load in
  (q * need) + if load <= 1 lsl 30 then ((r * need) + load - 1) / load else 0

(* [mark.(j) = !stamp] flags node [j] as taken by the packing being
   built; a fresh stamp per packing clears every flag at once.  Each
   packing holds its first pick, which no earlier packing covers, so no
   two packings are equal. *)
let packings ~spend ~mark ~stamp groups =
  let k = Array.length groups in
  spend k;
  let covered = Array.make k false in
  let found = ref [] and attempts = ref 0 in
  for first = 0 to k - 1 do
    if !attempts < max_packings && (not covered.(first))
       && groups.(first).items <> [||]
    then begin
      incr attempts;
      incr stamp;
      spend k;
      let picked = ref [] in
      let take g =
        let items = groups.(g).items in
        spend (Array.length items);
        for x = 0 to Array.length items - 1 do
          mark.(items.(x)) <- !stamp
        done;
        covered.(g) <- true;
        picked := g :: !picked
      in
      let free g =
        let items = groups.(g).items in
        let x = ref 0 in
        while !x < Array.length items && mark.(items.(!x)) <> !stamp do
          incr x
        done;
        spend (!x + 1);
        !x = Array.length items
      in
      take first;
      for g = 0 to k - 1 do
        if g <> first && groups.(g).items <> [||] && free g then take g
      done;
      if List.compare_length_with !picked 1 > 0 then begin
        spend (List.length !picked);
        found := Array.of_list !picked :: !found
      end
    end
  done;
  Array.of_list (List.rev !found)

(* The build charges one unit per word it writes (group indices, group
   records, item arrays, packings) or reads (the grouping and packing
   scans).  Past [max_table_words] units [build_bound] raises
   [Over_budget] and [solve] searches with the plain bound alone, so a
   table costs at most 16 MB, and an abandoned build up to ~30 ms on a
   2-vCPU host.  The item arrays dominate: a group that node [i]
   extends copies its items, so open processes shared by many groups
   cost processes^2 x groups words.  600 shared processes ahead of 6
   binary sites (64 applications) would copy ~11.5M words, 3000 ~288M,
   and a single site of 3500 one-process variants holds 3500 x 3500
   group indices.  A figure2-gen-large-class problem (35 processes,
   27 applications) needs ~60k units. *)
let max_table_words = 1 lsl 21

exception Over_budget

let build_bound ~capacity ~nodes ~n_apps =
  let budget = ref max_table_words in
  let spend words =
    budget := !budget - words;
    if !budget < 0 then raise_notrace Over_budget
  in
  let n = Array.length nodes in
  let item_load = Array.map (fun nd -> Option.value nd.sw ~default:0) nodes in
  let item_area = Array.map (fun nd -> Option.value nd.hw ~default:0) nodes in
  (* one exact sort of the possible items; groups then keep theirs in
     ascending [rank] by insertion *)
  let rank = Array.make n 0 in
  let order =
    List.filter
      (fun j -> item_load.(j) > 0 && Option.is_some nodes.(j).hw)
      (List.init n Fun.id)
    |> List.stable_sort (fun j1 j2 ->
           compare_ratio item_area.(j1) item_load.(j1) item_area.(j2)
             item_load.(j2))
  in
  List.iteri (fun r j -> rank.(j) <- r) order;
  let insert items j =
    let m = Array.length items in
    spend (m + 1);
    let k = ref 0 in
    while !k < m && rank.(items.(!k)) < rank.(j) do
      incr k
    done;
    Array.init (m + 1) (fun x ->
        if x < !k then items.(x) else if x = !k then j else items.(x - 1))
  in
  let last =
    {
      hw_only_area = 0;
      sw_forced = false;
      group_of = Array.make n_apps 0;
      groups = [| { sw_load = 0; movable = 0; items = [||] } |];
      max_sw_load = 0;
      packings = [||];
    }
  in
  let rows = Array.make (n + 1) last in
  (* when every application's whole software-capable load fits, no
     group ever needs to move load and rows keep the one empty group *)
  let roomy =
    let total = Array.make n_apps 0 in
    Array.iter
      (fun nd ->
        let load = Option.value nd.sw ~default:0 in
        Array.iter (fun a -> total.(a) <- total.(a) + load) nd.members)
      nodes;
    Array.for_all (fun t -> t <= capacity) total
  in
  let member = Array.make n_apps false in
  let mark = Array.make n 0 and stamp = ref 0 in
  for i = n - 1 downto 0 do
    let next = rows.(i + 1) and nd = nodes.(i) in
    rows.(i) <-
      (match nd.sw with
      | None -> { next with hw_only_area = next.hw_only_area + item_area.(i) }
      | Some _ when roomy ->
        { next with sw_forced = next.sw_forced || Option.is_none nd.hw }
      | Some load ->
        let has_hw = Option.is_some nd.hw in
        let extend g =
          spend 4;
          {
            sw_load = g.sw_load + load;
            movable = (g.movable + if has_hw then load else 0);
            items = (if has_hw && load > 0 then insert g.items i else g.items);
          }
        in
        spend (n_apps + (2 * Array.length next.groups));
        Array.iter (fun a -> member.(a) <- true) nd.members;
        let key a = (2 * next.group_of.(a)) + Bool.to_int member.(a) in
        let remap = Array.make (2 * Array.length next.groups) (-1) in
        let groups = ref [] and count = ref 0 in
        for a = 0 to n_apps - 1 do
          if remap.(key a) < 0 then begin
            remap.(key a) <- !count;
            incr count;
            let parent = next.groups.(next.group_of.(a)) in
            groups := (if member.(a) then extend parent else parent) :: !groups
          end
        done;
        (* groups are numbered by first member, so when node [i] splits
           none of them the numbering is the next row's *)
        let group_of =
          if !count = Array.length next.groups then next.group_of
          else begin
            spend n_apps;
            Array.init n_apps (fun a -> remap.(key a))
          end
        in
        Array.iter (fun a -> member.(a) <- false) nd.members;
        let groups = Array.of_list (List.rev !groups) in
        spend (Array.length groups);
        {
          hw_only_area = next.hw_only_area;
          sw_forced = next.sw_forced || not has_hw;
          group_of;
          groups;
          max_sw_load =
            Array.fold_left (fun m g -> max m g.sw_load) 0 groups;
          packings = packings ~spend ~mark ~stamp groups;
        })
  done;
  let max_groups =
    Array.fold_left (fun m r -> max m (Array.length r.groups)) 0 rows
  in
  { rows; item_load; item_area; max_groups }

(* The variant-aware cut of one search call, for nodes that survive
   the plain check: [true] when the table's bound at depth [i] reaches
   [incumbent] or no completion fits.  [worst] is the highest load in
   [loads]; when it leaves room for every group's open load no group
   needs to move anything, and the per-application scan is skipped.
   [terms] is the call's per-group scratch, so tasks on several domains
   share [bound] read-only. *)
let variant_cut ~capacity ~processor_cost ~loads bound =
  let n_apps = Array.length loads in
  let terms = Array.make bound.max_groups 0 in
  let item_load = bound.item_load and item_area = bound.item_area in
  (* fractional knapsack: the cheapest area that moves [need] load *)
  let rec cover items k need acc =
    let j = items.(k) in
    let load = item_load.(j) in
    if load >= need then acc + pro_rata ~area:item_area.(j) ~load ~need
    else cover items (k + 1) (need - load) (acc + item_area.(j))
  in
  (* [true] when one group, or one packing, uses up [slack]; stops as
     soon as one does.  A group whose need exceeds its movable load has
     no completion. *)
  let groups_cut row slack =
    let groups = row.groups and group_of = row.group_of in
    let k = Array.length groups in
    Array.fill terms 0 k 0;
    for a = 0 to n_apps - 1 do
      let g = group_of.(a) in
      if loads.(a) > terms.(g) then terms.(g) <- loads.(a)
    done;
    let cut = ref false and g = ref 0 in
    while (not !cut) && !g < k do
      let grp = groups.(!g) in
      let need = terms.(!g) + grp.sw_load - capacity in
      let term =
        if need <= 0 then 0
        else if need > grp.movable then slack
        else cover grp.items 0 need 0
      in
      terms.(!g) <- term;
      cut := term >= slack;
      incr g
    done;
    let packings = row.packings in
    let p = ref 0 in
    while (not !cut) && !p < Array.length packings do
      let pk = packings.(!p) in
      let sum = ref 0 in
      for q = 0 to Array.length pk - 1 do
        sum := !sum + terms.(pk.(q))
      done;
      cut := !sum >= slack;
      incr p
    done;
    !cut
  in
  fun i area any_sw worst incumbent ->
    let row = bound.rows.(i) in
    let base =
      area + row.hw_only_area
      + if any_sw || row.sw_forced then processor_cost else 0
    in
    base >= incumbent
    || (worst + row.max_sw_load > capacity && groups_cut row (incumbent - base))

(* The branch-and-bound core.  Search state: index into [nodes], the
   binding prefix, accumulated ASIC area, whether any process went to
   software (the processor cost trigger), the per-application software
   loads in [loads] and the highest of them ([worst]).  Two lower
   bounds of a partial assignment: the plain one, area so far +
   processor cost if any software so far (every completion only adds
   cost), and at nodes that survive it the variant-aware [bound]
   table's.  A partial assignment dies as soon as one application's
   load exceeds capacity (software loads only grow), or as soon as the
   table shows no completion fits.

   Child order: software first.  The software child always carries the
   lower bound (software adds no area), so this is best-first descent,
   and it is what lets the estimate-sorted seeds establish a tight
   incumbent early.

   Counter semantics: [explored] counts decision nodes expanded — nodes
   that survive both bound checks and branch on a process.  [pruned]
   counts subtrees cut, whether by either bound or by a capacity
   overload; complete leaves count as neither.  Hardware and software
   children are treated identically, so the totals are comparable
   across domain counts. *)
let choice_hw = 1
let choice_sw = 2

(* Rebuild a [Binding.t] from the mutable decision vector.  Called only
   at leaves that survive the bound check — those are incumbent
   improvements, so this stays off the hot path and the search loop
   itself allocates nothing.  (With several domains time-slicing few
   cores, per-node allocation is poison: every minor collection is a
   stop-the-world rendezvous across all domains.) *)
let materialize ~nodes ~n choices =
  let b = ref Binding.empty in
  for j = 0 to n - 1 do
    if choices.(j) = choice_hw then
      b := Binding.bind nodes.(j).pid Binding.Hw !b
    else if choices.(j) = choice_sw then
      b := Binding.bind nodes.(j).pid Binding.Sw !b
  done;
  !b

(* The recursion is written with mutually recursive child functions and
   index loops rather than local closures or [Array.iter]: the body
   must not allocate per node, or minor collections (stop-the-world
   rendezvous across domains) dominate the parallel run time. *)
(* [try_split i area any_sw] is consulted at branch nodes where both
   children exist: returning [true] means the caller captured the
   hardware sibling as a pool task, so only the software child — the
   lower bound — descends in place.  The check runs mid-descent, so a
   task deep in its subtree still sheds work the moment another worker
   goes hungry — but only down to [split_floor]: below it the remaining
   subtree is too small to be worth shipping, and the guard keeps the
   hot deep nodes free of the hook's atomic reads (a plain int compare
   instead).  With the default hook the search never sheds. *)
(* [should_stop] is the cooperative cancellation hook next to
   [try_split]: it is consulted once every 1024 expanded nodes — a
   single [land] on the hot path between polls, so a deadline costs
   nothing measurable and a run without one is byte-identical — and
   once it fires [stopped] latches and the recursion unwinds without
   expanding further nodes.  The caller learns the search was cut short
   from its own hook's state (the incumbent found so far is still
   valid, it is just not proved optimal). *)
let search ?(try_split = fun _ _ _ -> false) ?(split_floor = -1)
    ~should_stop ~capacity ~processor_cost ~accept ~nodes ~bound ~n ~loads
    ~choices ~counters ~current_bound ~improve start area0 any_sw0 =
  let stopped = ref false in
  (* hoisted so the recursive closures are allocated once per call, not
     once per node *)
  let rec add_loads members m load k worst =
    if k = m then worst
    else begin
      let ai = members.(k) in
      let v = loads.(ai) + load in
      loads.(ai) <- v;
      add_loads members m load (k + 1) (if v > worst then v else worst)
    end
  in
  let cut =
    match bound with
    | Some bound -> variant_cut ~capacity ~processor_cost ~loads bound
    | None -> fun _ _ _ _ _ -> false
  in
  let rec go i area any_sw worst =
    let lower = area + if any_sw then processor_cost else 0 in
    let incumbent = current_bound () in
    if !stopped then ()
    else if lower >= incumbent then counters.pruned <- counters.pruned + 1
    else if i < n && cut i area any_sw worst incumbent then
      counters.pruned <- counters.pruned + 1
    else if i = n then begin
      let binding = materialize ~nodes ~n choices in
      if accept binding then improve lower binding worst
    end
    else begin
      counters.explored <- counters.explored + 1;
      if counters.explored land 1023 = 0 && should_stop () then
        stopped := true
      else if
        i < split_floor
        && Option.is_some nodes.(i).hw
        && Option.is_some nodes.(i).sw
        && try_split i area any_sw
      then
        (* hardware sibling shipped to the pool — best-first child
           continues in place *)
        sw_child i area worst
      else begin
        sw_child i area worst;
        hw_child i area any_sw worst
      end
    end
  and hw_child i area any_sw worst =
    match nodes.(i).hw with
    | Some a ->
      choices.(i) <- choice_hw;
      go (i + 1) (area + a) any_sw worst
    | None -> ()
  and sw_child i area worst =
    match nodes.(i).sw with
    | Some load ->
      let members = nodes.(i).members in
      let m = Array.length members in
      let worst = add_loads members m load 0 worst in
      if worst <= capacity then begin
        choices.(i) <- choice_sw;
        go (i + 1) area true worst
      end
      else counters.pruned <- counters.pruned + 1;
      for k = 0 to m - 1 do
        loads.(members.(k)) <- loads.(members.(k)) - load
      done
    | None -> ()
  in
  go start area0 any_sw0 (Array.fold_left max 0 loads)

(* The search: enumerate the decision tree down to a split depth into
   independent subtree tasks (each carrying its own loads snapshot),
   order the tasks by the cost of a greedy completion of their prefix,
   dive the best one for an incumbent, and run the rest cheapest-first
   with a shared atomic incumbent.  The search is best-first at both
   levels: tasks are claimed cheapest-estimate-first through the pool's
   cursor, and inside a task the lower-bound child (software) is
   descended first.  The cheapest greedy completion also seeds the
   incumbent, so the most promising subtrees run against a tight bound
   from the first node and the expensive subtrees are pruned wholesale.
   [jobs = 1] runs the tasks in that order on the calling domain; more
   jobs run them on a domain pool. *)
type task = {
  t_choices : int array;  (** full-length decision vector, prefix filled *)
  t_area : int;
  t_any_sw : bool;
  t_loads : int array;
  t_bound : int;
  t_depth : int;  (** first undecided node — the task's subtree root *)
}

(* A shallow static split: just enough seeds for the cursor to hand
   every domain a distinct well-estimated subtree at start-up.  Load
   balance does not depend on this depth any more — tasks re-split on
   demand whenever a worker goes hungry — and a deep static split is
   actively harmful: seeds all enqueue at pool start, so a wide seed
   array means the last-claimed seeds sit queued for most of the run,
   which is exactly the [par.task_queue_wait_ns] tail the deques are
   meant to remove.  A tree of fewer than two nodes is one task at its
   root. *)
let split_depth ~jobs ~n =
  let target = jobs * 16 in
  let rec depth d = if 1 lsl d >= target || d >= 14 then d else depth (d + 1) in
  max 0 (min (n - 2) (depth 0))

let run_search ~start_ns ~deadline_ns ~warm ~jobs ~capacity ~processor_cost
    ~accept ~nodes ~bound ~n_apps =
  (* one latch shared by every domain: whichever worker's throttled
     clock poll crosses the deadline first publishes the cancellation,
     the others observe it at their next poll (at most 1024 nodes
     later), and the pool stops claiming queued tasks *)
  let cancelled =
    (* an already-expired deadline collapses the search before it
       starts: the greedy seeding below still provides the incumbent *)
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
  let n = Array.length nodes in
  let depth = split_depth ~jobs ~n in
  let prefix_counters = { explored = 0; pruned = 0 } in
  let tasks = ref [] in
  let loads = Array.make n_apps 0 in
  let choices = Array.make n 0 in
  (* Against a validated warm incumbent the prefix prunes exactly as
     [search] does: a subtree that cannot beat it becomes no task, so an
     optimal warm start leaves little or nothing to run.  Without one
     only capacity prunes here, and each task's root applies the bound.
     Node counts fold into the totals. *)
  let warm_cost, cut =
    match (warm, bound) with
    | Some (cost, _, _), Some bound ->
      (cost, variant_cut ~capacity ~processor_cost ~loads bound)
    | Some (cost, _, _), None -> (cost, fun _ _ _ _ _ -> false)
    | None, _ -> (max_int, fun _ _ _ _ _ -> false)
  in
  let rec enumerate i area any_sw worst =
    let lower = area + if any_sw then processor_cost else 0 in
    if lower >= warm_cost || (i < n && cut i area any_sw worst warm_cost) then
      prefix_counters.pruned <- prefix_counters.pruned + 1
    else if i = depth then
      tasks :=
        {
          t_choices = Array.copy choices;
          t_area = area;
          t_any_sw = any_sw;
          t_loads = Array.copy loads;
          t_bound = lower;
          t_depth = depth;
        }
        :: !tasks
    else begin
      prefix_counters.explored <- prefix_counters.explored + 1;
      let nd = nodes.(i) in
      (match nd.hw with
      | Some a ->
        choices.(i) <- choice_hw;
        enumerate (i + 1) (area + a) any_sw worst
      | None -> ());
      match nd.sw with
      | Some load ->
        let worst' = ref worst in
        Array.iter
          (fun ai ->
            loads.(ai) <- loads.(ai) + load;
            worst' := max !worst' loads.(ai))
          nd.members;
        if !worst' <= capacity then begin
          choices.(i) <- choice_sw;
          enumerate (i + 1) area true !worst'
        end
        else prefix_counters.pruned <- prefix_counters.pruned + 1;
        Array.iter (fun ai -> loads.(ai) <- loads.(ai) - load) nd.members
      | None -> ()
    end
  in
  enumerate 0 0 false 0;
  let tasks = Array.of_list !tasks in
  (* Greedy completion of a task prefix: place each remaining process in
     software when the loads allow it, in hardware otherwise.  The
     result is a feasible solution of the task's subtree (when every
     process has the needed option), which serves two purposes:

     - the cheapest greedy completion seeds the shared incumbent with a
       real candidate before any domain starts, so no worker searches
       with a cold [max_int] bound;
     - tasks are scheduled cheapest-estimate-first.  The greedy cost is
       an upper bound on the subtree optimum, which predicts solution
       quality far better than the lower bound: a prefix that commits
       everything to software looks unbeatable to the bound yet burns
       the capacity that its completion then pays for in area. *)
  let greedy_complete t =
    let loads = Array.copy t.t_loads in
    let filled = Array.copy t.t_choices in
    let area = ref t.t_area and any_sw = ref t.t_any_sw in
    let feasible = ref true in
    for i = t.t_depth to n - 1 do
      if !feasible then begin
        let nd = nodes.(i) in
        let sw_fits =
          match nd.sw with
          | None -> false
          | Some load ->
            Array.for_all (fun ai -> loads.(ai) + load <= capacity) nd.members
        in
        if sw_fits then begin
          let load = Option.get nd.sw in
          Array.iter (fun ai -> loads.(ai) <- loads.(ai) + load) nd.members;
          filled.(i) <- choice_sw;
          any_sw := true
        end
        else
          match nd.hw with
          | Some a ->
            filled.(i) <- choice_hw;
            area := !area + a
          | None -> feasible := false
      end
    done;
    if !feasible then
      let cost = !area + if !any_sw then processor_cost else 0 in
      Some (cost, materialize ~nodes ~n filled, Array.fold_left max 0 loads)
    else None
  in
  let estimates = Array.map greedy_complete tasks in
  let order = Array.init (Array.length tasks) Fun.id in
  let estimate i =
    match estimates.(i) with Some (c, _, _) -> c | None -> max_int
  in
  Array.sort
    (fun a b ->
      match Int.compare (estimate a) (estimate b) with
      | 0 -> Int.compare tasks.(a).t_bound tasks.(b).t_bound
      | c -> c)
    order;
  let tasks = Array.map (fun i -> tasks.(i)) order in
  let seed_best = ref None and seed_cost = ref max_int in
  (* a validated warm incumbent competes with the greedy completions on
     equal terms; whichever is cheaper seeds the shared bound *)
  (match warm with
  | Some (cost, binding, worst) ->
    seed_cost := cost;
    seed_best := Some (binding, worst)
  | None -> ());
  Array.iter
    (fun e ->
      match e with
      | Some (cost, binding, worst)
        when cost < !seed_cost && accept binding ->
        seed_cost := cost;
        seed_best := Some (binding, worst)
      | Some _ | None -> ())
    estimates;
  let incumbent = Atomic.make !seed_cost in
  Obs.Metric.add m_tasks (Array.length tasks);
  (* the greedy seeding above is the first incumbent when it exists;
     otherwise the first CAS win below records the gauge *)
  let have_incumbent = Atomic.make (!seed_cost < max_int) in
  if Atomic.get have_incumbent then begin
    Obs.Metric.set m_ttfi (Obs.Clock.elapsed_ns start_ns);
    Domain_trace.record_improvement ~cost:!seed_cost
  end;
  let note_incumbent () =
    if not (Atomic.exchange have_incumbent true) then
      Obs.Metric.set m_ttfi (Obs.Clock.elapsed_ns start_ns);
    Obs.Metric.incr m_improvements
  in
  (* Root incumbent dive (same scheme as {!Multi.optimal}): solve the
     best-estimated subtree sequentially before any domain spawns.  The
     greedy completion only bounds that subtree's optimum from above;
     diving it to the bottom usually lands the true global optimum, so
     the pool then runs every remaining seed — and every speculatively
     shed sibling — against a tight bound instead of discovering it
     concurrently while domains contend for cores.  An expired deadline
     skips it: the seed is the answer. *)
  if Array.length tasks > 0 && not (Atomic.get cancelled) then begin
    let t = tasks.(0) in
    let counters = prefix_counters in
    search ~should_stop ~capacity ~processor_cost ~accept
      ~nodes ~bound ~n ~loads:t.t_loads ~choices:t.t_choices ~counters
      ~current_bound:(fun () -> Atomic.get incumbent)
      ~improve:(fun cost binding worst ->
        if cost < !seed_cost then begin
          seed_cost := cost;
          seed_best := Some (binding, worst);
          Atomic.set incumbent cost;
          note_incumbent ();
          Domain_trace.record_improvement ~cost
        end)
      t.t_depth t.t_area t.t_any_sw
  end;
  let tasks =
    if Array.length tasks > 0 then Array.sub tasks 1 (Array.length tasks - 1)
    else tasks
  in
  (* Run the rest through [Par.fold]: in order on the calling domain at
     [jobs = 1], on the work-stealing pool otherwise.  Each worker
     threads a domain-local accumulator (best solution + node counters).
     On a pool, a task whose subtree root still has siblings to offer
     re-splits while any worker is hungry: the hardware child (never the
     lower bound) is snapshotted and pushed onto the owner's deque for
     thieves to drain FIFO, and the software child — best-first —
     continues in place on the task's own arrays.  Re-splitting
     allocates per {e split}, not per node, so the search loop itself
     stays allocation-free. *)
  let acc_init () =
    { c_best = ref None; c_cost = ref max_int;
      c_counters = { explored = 0; pruned = 0 } }
  in
  let acc_merge a b =
    a.c_counters.explored <- a.c_counters.explored + b.c_counters.explored;
    a.c_counters.pruned <- a.c_counters.pruned + b.c_counters.pruned;
    (match !(b.c_best) with
    | Some bw when !(b.c_cost) < !(a.c_cost) ->
      a.c_cost := !(b.c_cost);
      a.c_best := Some bw
    | Some _ | None -> ());
    a
  in
  let run_task ctx acc t =
    let task_ns = Obs.Clock.now_ns () in
    let counters = acc.c_counters in
    let improve cost binding worst =
      if cost < !(acc.c_cost) then begin
        acc.c_cost := cost;
        acc.c_best := Some (binding, worst)
      end;
      (* lower the shared incumbent monotonically *)
      let rec lower () =
        let cur = Atomic.get incumbent in
        if cost < cur then
          if Atomic.compare_and_set incumbent cur cost then begin
            note_incumbent ();
            Domain_trace.record_improvement ~cost
          end
          else lower ()
      in
      lower ()
    in
    (* Shed the hardware sibling at any branch node while a worker is
       hungry.  The snapshot copies the task's mutable arrays: entries
       beyond node [i] are stale exploration residue, but every path to
       a leaf overwrites its whole suffix before [materialize] reads
       it, so the thief never observes them. *)
    let try_split i area any_sw =
      Par.should_split ctx
      && begin
           let a = Option.get nodes.(i).hw in
           let hw_choices = Array.copy t.t_choices in
           hw_choices.(i) <- choice_hw;
           let pushed =
             Par.push ctx
               {
                 t_choices = hw_choices;
                 t_area = area + a;
                 t_any_sw = any_sw;
                 t_loads = Array.copy t.t_loads;
                 t_bound = area + a + (if any_sw then processor_cost else 0);
                 t_depth = i + 1;
               }
           in
           if pushed then Obs.Metric.incr m_resplits;
           (* deque full: the sibling was never enqueued — the caller
              keeps both children in place *)
           pushed
         end
    in
    (* a shed below [n - 12] ships a subtree of at most [2^12] nodes —
       sub-millisecond work that costs the thief more in claim latency
       than it buys in balance *)
    search ~try_split ~split_floor:(n - 12) ~should_stop
      ~capacity ~processor_cost ~accept ~nodes ~bound ~n ~loads:t.t_loads
      ~choices:t.t_choices ~counters
      ~current_bound:(fun () -> Atomic.get incumbent)
      ~improve t.t_depth t.t_area t.t_any_sw;
    (* one span per task: per-domain node throughput shows up in the
       span stream without any per-node cost *)
    Obs.Registry.record_span ~name:"explore.task_ns" ~start_ns:task_ns
      ~dur_ns:(Obs.Clock.elapsed_ns task_ns);
    acc
  in
  let folded =
    Par.fold
      ~cancel:(fun () -> Atomic.get cancelled)
      ~jobs ~init:acc_init ~merge:acc_merge ~f:run_task tasks
  in
  let best = ref !seed_best and best_cost = ref !seed_cost in
  let counters = prefix_counters in
  counters.explored <- counters.explored + folded.c_counters.explored;
  counters.pruned <- counters.pruned + folded.c_counters.pruned;
  (match !(folded.c_best) with
  | Some bw when !(folded.c_cost) < !best_cost ->
    best_cost := !(folded.c_cost);
    best := Some bw
  | Some _ | None -> ());
  (!best, counters, Atomic.get cancelled)

let resolve_jobs = function
  | 0 -> Par.available_jobs ()
  | j when j < 0 -> invalid_arg "Explore: negative jobs"
  | j -> j

(* Replay a stored binding against the *current* compiled problem: every
   pinned implementation must be respected, every application
   schedulable, and [accept] satisfied.  Processes the stored binding
   does not cover (the model grew since the record was written) are
   completed greedily — software when it fits, hardware otherwise — so
   a partial per-application merge still yields a seed.  The binding is
   rebuilt over exactly the node set, so stale processes in the stored
   record neither pollute the cost nor leak into the result.  A warm
   candidate that fails any check is dropped — warm starts accelerate,
   they never decide. *)
let warm_candidate ~capacity ~processor_cost ~accept ~nodes ~n_apps warm =
  let n = Array.length nodes in
  let loads = Array.make n_apps 0 in
  let sw_fits nd load =
    let ok = ref true in
    Array.iter
      (fun ai ->
        loads.(ai) <- loads.(ai) + load;
        if loads.(ai) > capacity then ok := false)
      nd.members;
    if !ok then true
    else begin
      Array.iter (fun ai -> loads.(ai) <- loads.(ai) - load) nd.members;
      false
    end
  in
  let rec place i area any_sw b =
    if i = n then begin
      let cost = area + if any_sw then processor_cost else 0 in
      if accept b then Some (cost, b, Array.fold_left max 0 loads) else None
    end
    else
      let nd = nodes.(i) in
      (* every decision is local and final — one linear pass, no
         backtracking, so a failure simply drops the candidate *)
      let hw () =
        match nd.hw with
        | Some a ->
          place (i + 1) (area + a) any_sw (Binding.bind nd.pid Binding.Hw b)
        | None -> None
      in
      match Binding.impl_of nd.pid warm with
      | Some Binding.Hw -> hw ()
      | Some Binding.Sw -> (
        match nd.sw with
        | Some load when sw_fits nd load ->
          place (i + 1) area true (Binding.bind nd.pid Binding.Sw b)
        | Some _ | None -> None)
      | None -> (
        (* uncovered: greedy completion, software when it fits *)
        match nd.sw with
        | Some load when sw_fits nd load ->
          place (i + 1) area true (Binding.bind nd.pid Binding.Sw b)
        | Some _ | None -> hw ())
  in
  place 0 0 false Binding.empty

let solve ?(jobs = 1) ?(capacity = Schedule.default_capacity)
    ?(fixed = Binding.empty) ?(accept = fun _ -> true) ?deadline_ns ?warm
    tech apps =
  let jobs = resolve_jobs jobs in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_solves;
  let procs =
    Array.of_list (I.Process_id.Set.elements (App.union_procs apps))
  in
  let apps = Array.of_list apps in
  match compile ~fixed tech apps procs with
  | exception Diagnosed d -> Error d
  | nodes ->
    let processor_cost = Tech.processor_cost tech in
    let n_apps = Array.length apps in
    let warm =
      match warm with
      | None -> None
      | Some b -> (
        match
          warm_candidate ~capacity ~processor_cost ~accept ~nodes ~n_apps b
        with
        | Some _ as c ->
          Obs.Metric.incr m_warm_accepted;
          c
        | None ->
          Obs.Metric.incr m_warm_rejected;
          None)
    in
    let bound =
      match build_bound ~capacity ~nodes ~n_apps with
      | bound -> Some bound
      | exception Over_budget -> None
    in
    let best, counters, deadline_hit =
      run_search ~start_ns ~deadline_ns ~warm ~jobs ~capacity ~processor_cost
        ~accept ~nodes ~bound ~n_apps
    in
    if deadline_hit then Obs.Metric.incr m_deadline_hits;
    Obs.Metric.add m_nodes counters.explored;
    Obs.Metric.add m_pruned counters.pruned;
    Obs.Registry.record_span ~name:"explore.solve_ns" ~start_ns
      ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
    (match best with
    | None -> Error (if deadline_hit then Deadline_no_incumbent else Infeasible)
    | Some (binding, worst_load) ->
      Ok
        {
          binding;
          cost = Cost.of_binding tech binding;
          worst_load;
          explored = counters.explored;
          pruned = counters.pruned;
          degraded = deadline_hit;
        })

let optimal ?jobs ?capacity ?fixed ?accept tech apps =
  match solve ?jobs ?capacity ?fixed ?accept tech apps with
  | Ok s -> Some s
  | Error _ -> None

let optimal_exn ?jobs ?capacity ?fixed ?accept tech apps =
  match solve ?jobs ?capacity ?fixed ?accept tech apps with
  | Ok s -> s
  | Error d ->
    failwith (Format.asprintf "Explore.optimal: %a" pp_diagnostic d)

let pp_solution ppf s =
  Format.fprintf ppf
    "@[<v>binding: %a@,cost: %a@,worst load: %d (explored %d, pruned %d)%s@]"
    Binding.pp s.binding Cost.pp s.cost s.worst_load s.explored s.pruned
    (if s.degraded then " [degraded: deadline cut the proof short]" else "")
