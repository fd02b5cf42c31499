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

exception Diagnosed of diagnostic

(* Observability: node totals are folded into the registry once per
   solve, never from the search loop itself, so instrumentation adds a
   handful of atomic operations to a search that expands millions of
   nodes.  Incumbent improvements and the time-to-first-incumbent gauge
   are bumped from the (rare) improve path. *)
let m_nodes = Obs.Registry.counter "explore.nodes_expanded"
let m_pruned = Obs.Registry.counter "explore.pruned"
let m_solves = Obs.Registry.counter "explore.solves"
let m_improvements = Obs.Registry.counter "explore.incumbent_improvements"
let m_ttfi = Obs.Registry.gauge "explore.time_to_first_incumbent_ns"
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

(* The nodes whose load can move to hardware (a positive software load
   and a hardware option), ascending area per unit of load: the
   fractional-knapsack order of the bound's items. *)
let knapsack_items nodes =
  List.filter
    (fun j ->
      match nodes.(j) with
      | { sw = Some load; hw = Some _; _ } -> load > 0
      | _ -> false)
    (List.init (Array.length nodes) Fun.id)
  |> List.stable_sort (fun j1 j2 ->
         let load j = Option.get nodes.(j).sw
         and area j = Option.get nodes.(j).hw in
         compare_ratio (area j1) (load j1) (area j2) (load j2))

let build_bound ~capacity ~nodes ~n_apps order =
  let budget = ref max_table_words in
  let spend words =
    budget := !budget - words;
    if !budget < 0 then raise_notrace Over_budget
  in
  let n = Array.length nodes in
  let item_load = Array.map (fun nd -> Option.value nd.sw ~default:0) nodes in
  let item_area = Array.map (fun nd -> Option.value nd.hw ~default:0) nodes in
  (* groups keep their items in ascending [rank] by insertion *)
  let rank = Array.make n 0 in
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
   [terms] is the call's per-group scratch; [bound] is only read. *)
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

(* The branch-and-bound search: one descent from the root, software
   child first, against the incumbent [seed].  Search state: index into
   [nodes], the binding prefix in [choices], accumulated ASIC area,
   whether any process went to software (the processor cost trigger),
   the per-application software loads in [loads] and the highest of
   them ([worst]).  Two lower bounds of a partial assignment: the plain
   one, area so far + processor cost if any software so far (every
   completion only adds cost), and at nodes that survive it the
   variant-aware [bound] table's.  A partial assignment dies as soon as
   one application's load exceeds capacity (software loads only grow),
   or as soon as the table shows no completion fits.  The software
   child always carries the lower bound (software adds no area), so the
   descent is best-first.

   Counter semantics: [explored] counts decision nodes expanded — nodes
   that survive both bound checks and branch on a process.  [pruned]
   counts subtrees cut, whether by either bound or by a capacity
   overload; complete leaves count as neither.  Hardware and software
   children are treated identically. *)
let choice_hw = 1
let choice_sw = 2

(* Rebuild a [Binding.t] from the mutable decision vector.  Called only
   at leaves that survive the bound check — those are incumbent
   improvements, so this stays off the hot path and the search loop
   itself allocates nothing. *)
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
   must not allocate per node, or minor collections dominate the run
   time of a search that expands millions of nodes.  The deadline is
   polled once every 1024 expanded nodes — a single [land] on the hot
   path between polls, so a deadline costs nothing measurable and a run
   without one is byte-identical — and once it has passed [stopped]
   latches and the recursion unwinds without expanding further nodes.
   The incumbent found so far is still valid, just not proved optimal.
   A deadline already past at the start expands nothing: the seed is
   the answer.  Everything runs on the calling domain. *)
let search ~start_ns ~deadline_ns ~capacity ~processor_cost ~accept ~nodes
    ~bound ~n_apps seed =
  let n = Array.length nodes in
  let loads = Array.make n_apps 0 and choices = Array.make n 0 in
  let explored = ref 0 and pruned = ref 0 in
  let best = ref None and incumbent = ref max_int in
  let improve cost binding worst =
    if !incumbent = max_int then
      Obs.Metric.set m_ttfi (Obs.Clock.elapsed_ns start_ns);
    incumbent := cost;
    best := Some (binding, worst);
    Domain_trace.record_improvement ~cost
  in
  Option.iter (fun (cost, binding, worst) -> improve cost binding worst) seed;
  let expired () =
    match deadline_ns with
    | Some dl -> Obs.Clock.now_ns () >= dl
    | None -> false
  in
  let stopped = ref (expired ()) in
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
    if !stopped then ()
    else if lower >= !incumbent then incr pruned
    else if i < n && cut i area any_sw worst !incumbent then incr pruned
    else if i = n then begin
      let binding = materialize ~nodes ~n choices in
      if accept binding then begin
        Obs.Metric.incr m_improvements;
        improve lower binding worst
      end
    end
    else begin
      incr explored;
      if !explored land 1023 = 0 && expired () then stopped := true
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
      else incr pruned;
      for k = 0 to m - 1 do
        loads.(members.(k)) <- loads.(members.(k)) - load
      done
    | None -> ()
  in
  go 0 0 false 0;
  (!best, !explored, !pruned, !stopped)

(* A seed for the search: the processes visited in [order], each kept
   where [binding] puts it and, when [binding] does not cover it,
   placed greedily — software when every application it belongs to
   keeps its load within capacity, hardware otherwise.  Every decision
   is local and final, one linear pass with no backtracking, so a
   process with no allowed option, a pin or overload the binding
   breaks, or a binding [accept] rejects drops the seed.  The result is
   rebuilt over exactly the node set, so stale processes in a stored
   binding neither pollute the cost nor leak into the result.  Seeds
   accelerate; they never decide. *)
let complete ~capacity ~processor_cost ~accept ~nodes ~n_apps order binding =
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
  let rec place k area any_sw b =
    if k = Array.length order then begin
      let cost = area + if any_sw then processor_cost else 0 in
      if accept b then Some (cost, b, Array.fold_left max 0 loads) else None
    end
    else
      let nd = nodes.(order.(k)) in
      let hw () =
        match nd.hw with
        | Some a ->
          place (k + 1) (area + a) any_sw (Binding.bind nd.pid Binding.Hw b)
        | None -> None
      in
      match Binding.impl_of nd.pid binding with
      | Some Binding.Hw -> hw ()
      | Some Binding.Sw -> (
        match nd.sw with
        | Some load when sw_fits nd load ->
          place (k + 1) area true (Binding.bind nd.pid Binding.Sw b)
        | Some _ | None -> None)
      | None -> (
        match nd.sw with
        | Some load when sw_fits nd load ->
          place (k + 1) area true (Binding.bind nd.pid Binding.Sw b)
        | Some _ | None -> hw ())
  in
  place 0 0 false Binding.empty

(* The cheaper of two seeds; on equal cost, the first. *)
let cheaper a b =
  match (a, b) with
  | Some (ca, _, _), Some (cb, _, _) when cb < ca -> b
  | None, _ -> b
  | Some _, _ -> a

let solve ?jobs:_ ?(capacity = Schedule.default_capacity)
    ?(fixed = Binding.empty) ?(accept = fun _ -> true) ?deadline_ns ?warm
    tech apps =
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
    let n = Array.length nodes in
    let items = knapsack_items nodes in
    let complete =
      complete ~capacity ~processor_cost ~accept ~nodes ~n_apps
    in
    let decision = Array.init n Fun.id in
    (* every node that moves no load to hardware first, so software-only
       ones meet empty loads, then the items dearest area per unit of
       load first: the reverse of the bound's knapsack order *)
    let knapsack =
      let is_item = Array.make n false in
      List.iter (fun j -> is_item.(j) <- true) items;
      Array.of_list
        (List.filter (fun j -> not is_item.(j)) (List.init n Fun.id)
        @ List.rev items)
    in
    let warm =
      Option.bind warm (fun b ->
          let c = complete decision b in
          Obs.Metric.incr
            (if Option.is_some c then m_warm_accepted else m_warm_rejected);
          c)
    in
    (* a validated warm start (a store hit seeds from it), then the
       greedy completions of the empty binding in decision and knapsack
       order: the cheapest seeds the search *)
    let seed =
      List.fold_left cheaper warm
        [ complete decision Binding.empty; complete knapsack Binding.empty ]
    in
    let bound =
      match build_bound ~capacity ~nodes ~n_apps items with
      | bound -> Some bound
      | exception Over_budget -> None
    in
    let best, explored, pruned, deadline_hit =
      search ~start_ns ~deadline_ns ~capacity ~processor_cost ~accept ~nodes
        ~bound ~n_apps seed
    in
    if deadline_hit then Obs.Metric.incr m_deadline_hits;
    Obs.Metric.add m_nodes explored;
    Obs.Metric.add m_pruned pruned;
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
          explored;
          pruned;
          degraded = deadline_hit;
        })

let optimal ?capacity ?fixed ?accept tech apps =
  match solve ?capacity ?fixed ?accept tech apps with
  | Ok s -> Some s
  | Error _ -> None

let optimal_exn ?capacity ?fixed ?accept tech apps =
  match solve ?capacity ?fixed ?accept tech apps with
  | Ok s -> s
  | Error d ->
    failwith (Format.asprintf "Explore.optimal: %a" pp_diagnostic d)

let pp_solution ppf s =
  Format.fprintf ppf
    "@[<v>binding: %a@,cost: %a@,worst load: %d (explored %d, pruned %d)%s@]"
    Binding.pp s.binding Cost.pp s.cost s.worst_load s.explored s.pruned
    (if s.degraded then " [degraded: deadline cut the proof short]" else "")
