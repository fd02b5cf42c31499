module I = Spi.Ids
module P = Variants.Presence
open Crt

type plan = {
  p_system : Variants.System.t;
  p_space : P.space;
  p_sites : I.Interface_id.t list;
  p_n : int;
  p_key : string;
  p_lock : Mutex.t;
      (* guards the three demand-built caches below: worker domains race
         on first touch *)
  p_models : Spi.Model.t option array;
  p_inits : Spi.Semantics.state option array;
  p_tables : Crt.table option array;
}

type config_summary = {
  index : int;
  assignment : Variants.Variant_space.assignment;
  end_time : int;
  firings : int;
  outcome : Engine.outcome;
  reconfiguration_time : int;
}

type summary = {
  configs : config_summary array;
  splits : int;
  subfamilies : int;
  executed_firings : int;
  shared_firings : int;
  leaves : Family.leaf array;
}

(* ------------------------------------------------------------------ *)
(* Observability.                                                      *)
(* ------------------------------------------------------------------ *)

let m_runs = Obs.Registry.counter "sim.family.runs"
let m_configs = Obs.Registry.counter "sim.family.configs"
let m_splits = Obs.Registry.counter "sim.family.splits"
let m_subfamilies = Obs.Registry.counter "sim.family.subfamilies"
let m_shared_firings = Obs.Registry.counter "sim.family.shared_firings"
let m_configs_per_firing = Obs.Registry.histogram "sim.family.configs_per_firing"
let m_plans = Obs.Registry.counter "sim.family.compiles"

(* ------------------------------- plan ------------------------------- *)

let key_of ~linkage system =
  let module C = Variants.Canonical in
  let h = C.create () in
  C.feed_tag h "sim-family-compile/v1";
  C.feed_string h (C.of_system system);
  C.feed_list h
    (fun h group ->
      C.feed_list h
        (fun h iid -> C.feed_string h (I.Interface_id.to_string iid))
        group)
    linkage;
  C.digest h

let plan_key ?(linkage = []) system = key_of ~linkage system

let plan ?(linkage = []) system =
  let space = P.space ~linkage system in
  let n = P.size space in
  let sites = P.sites space in
  Family.validate_prefixes system sites;
  Obs.Metric.incr m_plans;
  {
    p_system = system;
    p_space = space;
    p_sites = sites;
    p_n = n;
    p_key = key_of ~linkage system;
    p_lock = Mutex.create ();
    p_models = Array.make n None;
    p_inits = Array.make n None;
    p_tables = Array.make n None;
  }

let key plan = plan.p_key
let system plan = plan.p_system
let configurations plan = plan.p_n

(* The caches fill under [p_lock]; [Mutex.protect] releases it when the
   builder raises (a configuration that fails to flatten), so a cached
   plan stays usable after a failed run. *)
let model_of plan i =
  Mutex.protect plan.p_lock (fun () ->
      match plan.p_models.(i) with
      | Some m -> m
      | None ->
        let m =
          Variants.Flatten.flatten plan.p_system
            (Variants.Variant_space.to_choice (P.assignment plan.p_space i))
        in
        plan.p_models.(i) <- Some m;
        m)

let init_of plan i =
  let m = model_of plan i in
  Mutex.protect plan.p_lock (fun () ->
      match plan.p_inits.(i) with
      | Some s -> s
      | None ->
        let s = Spi.Semantics.initial m in
        plan.p_inits.(i) <- Some s;
        s)

let table_of plan i =
  let model = model_of plan i in
  Mutex.protect plan.p_lock (fun () ->
      match plan.p_tables.(i) with
      | Some t -> t
      | None ->
        let t = Crt.lower model in
        plan.p_tables.(i) <- Some t;
        t)

(* ------------------------------- run -------------------------------- *)

(* One compiled settle probe: a site process of some part's
   representative that could ever fire, with its activation guards
   disjoined into one predicate over the sub-family's live channel
   indexes.  Channels a cold site owns (and that are not warm) cannot
   change while the site stays cold, so their atoms are folded to
   constants from the part representative's initial state. *)
type probe = { pb_pid : I.Process_id.t; pb_guard : gpred }

(* The live channel indexes a compiled guard reads, onto [acc]. *)
let rec guard_channels acc = function
  | G_true | G_false -> acc
  | G_num_at_least (ix, _) | G_first_has_tag (ix, _) ->
    if ix >= 0 then ix :: acc else acc
  | G_and (a, b) | G_or (a, b) -> guard_channels (guard_channels acc a) b
  | G_not a -> guard_channels acc a

(* Cached settle-probe structures for one still-cold site: its presence
   partition, the probes of every part, and the channels those probes'
   guards read (the watch set).  Rebuilt when the sub-family's membership
   changes (a split) or its warm set grows (folding depends on it), so
   the per-event probe is one [eval] per guard.  A probe's answer depends
   only on its watched channels and on crashes, which only turn it false,
   so a site found cold stays cold until one of them changes.  The watch
   set is read off the compiled guards, not off the readers in the run's
   table: the run's member need not read a port another part's variant
   reads (its table then has no reader for that channel at all). *)
type hotspot = {
  hs_site : I.Interface_id.t;
  hs_parts : P.t list;
  hs_probes : probe array;
  hs_watch : int array;  (* channel indexes in the run's table *)
}

(* A sub-family: its members and still-cold sites around one run of the
   shared loop on the first member's tables.  The run's [frozen] mask
   skips the processes of still-cold sites, hoisted out of the sweep so
   the hot loop never re-derives prefixes. *)
type sub = {
  mutable members : P.t;
  run : Crt.run;
  mutable cold : I.Interface_id.t list;  (* site order *)
  mutable warm : I.Channel_id.Set.t;
  mutable hotspots : hotspot list option;  (* None = needs rebuild *)
  mutable counted : int;  (* firings already added to the stats *)
}

type pending = Sweep | Deliver of I.Channel_id.t * Spi.Token.t
type task = { sub : sub; start : pending }

type stats = {
  mutable splits : int;
  mutable subfamilies : int;
  mutable executed : int;
  mutable shared : int;
  mutable leaves : Family.leaf list;
}

(* The featured pass behind [run] and [summarize]: drives every
   sub-family to its leaf, where [leaf members r cold_owned outcome]
   reads the members' results off the leaf's run [r] ([cold_owned cid]:
   [cid] belongs to a site that never went hot, so every member keeps
   its own initial tokens there).  Returns the family counters and the
   leaves in member order. *)
let featured ~record ~leaf ?deadline_ns ?(policy = Engine.Typical)
    ?(limits = Engine.default_limits) ?(overflow = Spi.Semantics.Reject)
    ?(stimuli = []) ?(firing_budget = []) ?faults ?(jobs = 1) plan =
  let start_ns = Obs.Clock.now_ns () in
  (match faults with
  | Some p when p.Fault.degrade <> None ->
    invalid_arg
      "Family_compiled.run: degradation plans are not supported (flattened \
       per-configuration models have no configuration to fall back to)"
  | Some _ | None -> ());
  let space = plan.p_space in
  let n = plan.p_n in
  (* per-representative dispatch, built on first use by any domain *)
  let dsp_lock = Mutex.create () in
  let dsps = Array.make n None in
  let dispatch_of i =
    let t = table_of plan i in
    Mutex.lock dsp_lock;
    let d =
      match dsps.(i) with
      | Some d -> d
      | None ->
        let d = Crt.dispatch policy t in
        dsps.(i) <- Some d;
        d
    in
    Mutex.unlock dsp_lock;
    d
  in
  let frozen_of tbl cold =
    Array.map
      (fun cp ->
        Option.is_some
          (Family.cold_site_of cold (I.Process_id.to_string cp.pr_pid)))
      tbl.procs
  in
  (* The root's injection and crash pools are shared by every fork:
     degradation, the one source of new injections, is rejected above,
     so pending [ev_inject] and [ev_crash] codes need no remapping. *)
  let root =
    let tbl = table_of plan 0 in
    let run =
      Crt.start ~record ~overflow ~stimuli ~firing_budget ?faults tbl
        (dispatch_of 0)
    in
    Crt.set_frozen run (frozen_of tbl plan.p_sites);
    {
      members = P.full space;
      run;
      cold = plan.p_sites;
      warm = I.Channel_id.Set.empty;
      hotspots = None;
      counted = 0;
    }
  in
  (* ---------------- per-sub-family machinery ---------------- *)
  let process_crashed c pid =
    match c.run.fstate with Some fs -> Fault.crashed fs pid | None -> false
  in
  let budget_of_proc p =
    Crt.budget ~firing_budget (Spi.Process.id p)
      ~source:(I.Channel_id.Set.is_empty (Spi.Process.inputs p))
  in
  let cold_owned c cid =
    (not (I.Channel_id.Set.mem cid c.warm))
    && Option.is_some (Family.cold_site_of c.cold (I.Channel_id.to_string cid))
  in
  (* The members' width changes only at a split, so firings are added to
     the stats per stretch of constant width: at every split and leaf. *)
  let account stats c =
    let k = c.run.firings - c.counted in
    if k > 0 then begin
      let width = P.cardinal c.members in
      stats.executed <- stats.executed + k;
      if width > 1 then stats.shared <- stats.shared + k;
      Obs.Metric.observe_n m_configs_per_firing width k;
      c.counted <- c.run.firings
    end
  in
  (* A guard compiled against [c]'s live rings, with atoms over
     cold-owned channels decided by [init] and constants folded away. *)
  let rec probe_guard c init =
    let module Pr = Spi.Predicate in
    function
    | Pr.Atom (Pr.Num_at_least (cid, _) | Pr.First_has_tag (cid, _)) as p
      when cold_owned c cid ->
      if Pr.eval (Spi.Semantics.view init) p then G_true else G_false
    | (Pr.True | Pr.False | Pr.Atom _) as p ->
      compile_pred ~ix_of:(chan_ix c.run.tbl) p
    | Pr.And (a, b) -> (
      match probe_guard c init a, probe_guard c init b with
      | G_false, _ | _, G_false -> G_false
      | G_true, g | g, G_true -> g
      | ga, gb -> G_and (ga, gb))
    | Pr.Or (a, b) -> g_or (probe_guard c init a) (probe_guard c init b)
    | Pr.Not a -> (
      match probe_guard c init a with
      | G_true -> G_false
      | G_false -> G_true
      | g -> G_not g)
  and g_or a b =
    match a, b with
    | G_true, _ | _, G_true -> G_true
    | G_false, g | g, G_false -> g
    | _ -> G_or (a, b)
  in
  let hotspots_of c =
    List.map
      (fun site ->
        let pfx = Family.prefix_of site in
        let parts = List.map snd (P.partition_at space c.members site) in
        let probes_of part =
          let rep_b = match P.first part with Some i -> i | None -> assert false in
          let init = init_of plan rep_b in
          List.filter_map
            (fun p ->
              if
                Family.has_prefix (I.Process_id.to_string (Spi.Process.id p)) pfx
                && budget_of_proc p <> 0
              then
                let guard =
                  List.fold_left
                    (fun acc r ->
                      g_or acc (probe_guard c init (Spi.Activation.guard r)))
                    G_false
                    (Spi.Activation.rules (Spi.Process.activation p))
                in
                match guard with
                | G_false -> None
                | _ -> Some { pb_pid = Spi.Process.id p; pb_guard = guard }
              else None)
            (Spi.Model.processes (model_of plan rep_b))
        in
        let probes = Array.of_list (List.concat_map probes_of parts) in
        {
          hs_site = site;
          hs_parts = parts;
          hs_probes = probes;
          hs_watch =
            Array.of_list
              (List.sort_uniq compare
                 (Array.fold_left
                    (fun acc pb -> guard_channels acc pb.pb_guard)
                    [] probes));
        })
      c.cold
  in
  (* Would any variant of the sub-family's configurations start a process
     of the hotspot's site right now?  A loop, not a recursive local
     function: this runs after every event and allocates nothing. *)
  let site_hot c h =
    let probes = h.hs_probes in
    let hot = ref false and k = ref 0 in
    while (not !hot) && !k < Array.length probes do
      let pb = probes.(!k) in
      if eval c.run.chans pb.pb_guard && not (process_crashed c pb.pb_pid) then
        hot := true;
      incr k
    done;
    !hot
  in
  (* Has a channel the hotspot watches changed since the marks were last
     cleared? *)
  let watched_changed c h =
    let changed = ref false and k = ref 0 in
    while (not !changed) && !k < Array.length h.hs_watch do
      if c.run.changed.(h.hs_watch.(!k)) then changed := true;
      incr k
    done;
    !changed
  in
  (* The first hot site in site order.  Without [fresh] (probes just
     rebuilt), only sites whose watched channels changed are probed:
     every other site was cold at its last probe and still is. *)
  let rec first_hot c fresh = function
    | [] -> None
    | h :: rest ->
      if (fresh || watched_changed c h) && site_hot c h then Some h
      else first_hot c fresh rest
  in
  let rec clear_watched c = function
    | [] -> ()
    | h :: rest ->
      for k = 0 to Array.length h.hs_watch - 1 do
        c.run.changed.(h.hs_watch.(k)) <- false
      done;
      clear_watched c rest
  in
  (* Fork [c] at [site], mirroring {!Family}'s [split] on the compiled
     representation.  [c] keeps the first part; every other part gets a
     fresh sub on its own representative's tables with the shared
     execution transplanted in. *)
  let split stats offer ~sibling_start c site =
    account stats c;
    let r = c.run in
    let old_cold = c.cold in
    let is_old_cold id = Option.is_some (Family.cold_site_of old_cold id) in
    let parts =
      match c.hotspots with
      | Some hs -> (
        match
          List.find_opt (fun h -> I.Interface_id.equal h.hs_site site) hs
        with
        | Some h -> h.hs_parts
        | None -> List.map snd (P.partition_at space c.members site))
      | None -> List.map snd (P.partition_at space c.members site)
    in
    let new_cold =
      List.filter (fun s -> not (I.Interface_id.equal s site)) old_cold
    in
    match parts with
    | [] -> assert false (* members are never empty *)
    | first_part :: rest ->
      stats.splits <- stats.splits + List.length rest;
      List.iter
        (fun part ->
          let rep_b =
            match P.first part with Some i -> i | None -> assert false
          in
          let t_b = table_of plan rep_b in
          (* Channels of resolved sites and the shared skeleton (plus
             warm channels) carry the shared history; channels cold
             until this split keep their initial tokens. *)
          let chans_b =
            Array.init (Array.length t_b.chan_ids) (fun i ->
                let cid = t_b.chan_ids.(i) in
                if cold_owned c cid then make_chan t_b.chan_initial.(i)
                else
                  match I.Channel_id.Tbl.find_opt r.tbl.chan_index cid with
                  | Some pix -> copy_chan r.chans.(pix)
                  | None ->
                    (* unreachable: non-cold channels are shared or
                       belong to resolved sites, identical across
                       members *)
                    make_chan t_b.chan_initial.(i))
          in
          (* mode indexes transfer: a process shared by (or resolved
             for) both members has the same definition, hence the same
             mode table *)
          let pstates_b =
            Array.map
              (fun cp ->
                if is_old_cold (I.Process_id.to_string cp.pr_pid) then
                  fresh_pstate ~firing_budget cp
                else
                  let ps =
                    r.pstates.(I.Process_id.Tbl.find r.tbl.proc_index cp.pr_pid)
                  in
                  { ps with busy = ps.busy })
              t_b.procs
          in
          (* Re-encode pending events for the sibling's process indexes,
             draining a copy of the heap in order so the relative order
             of pending events — and with it every FIFO tie-break —
             carries over exactly.  Injection and crash codes index the
             shared pools and transfer as-is.  Cold-site processes never
             fired, so every pending completion/recovery names a process
             both models share. *)
          let heap_b = Heap.Int_heap.create () in
          let tmp = Heap.Int_heap.copy r.heap in
          while not (Heap.Int_heap.is_empty tmp) do
            let t = Heap.Int_heap.min_time tmp in
            let v = Heap.Int_heap.min_value tmp in
            Heap.Int_heap.drop_min tmp;
            let v' =
              match v land 3 with
              | 1 | 2 ->
                let pid = r.tbl.procs.(v lsr 2).pr_pid in
                let ix_b = I.Process_id.Tbl.find t_b.proc_index pid in
                if v land 3 = 1 then ev_complete ix_b else ev_recover ix_b
              | _ -> v
            in
            Heap.Int_heap.push ~time:t v' heap_b
          done;
          let run_b =
            Crt.fork r ~tbl:t_b ~dsp:(dispatch_of rep_b) ~chans:chans_b
              ~pstates:pstates_b ~heap:heap_b ~frozen:(frozen_of t_b new_cold)
          in
          offer
            {
              sub =
                {
                  members = part;
                  run = run_b;
                  cold = new_cold;
                  warm = c.warm;
                  hotspots = None;
                  counted = c.counted;
                };
              start = sibling_start;
            })
        rest;
      c.members <- first_part;
      c.cold <- new_cold;
      Crt.set_frozen r (frozen_of r.tbl new_cold);
      c.hotspots <- None
  in
  let rec settle stats offer c =
    match c.cold with
    | [] -> () (* fully resolved: the common fast path *)
    | _ -> (
      let fresh = Option.is_none c.hotspots in
      let hotspots =
        match c.hotspots with
        | Some h -> h
        | None ->
          let h = hotspots_of c in
          c.hotspots <- Some h;
          h
      in
      match first_hot c fresh hotspots with
      | None -> clear_watched c hotspots
      | Some h ->
        split stats offer ~sibling_start:Sweep c h.hs_site;
        settle stats offer c)
  in
  (* Narrowing test: every member must declare the target channel with
     identical kind, capacity and initial contents; checking one model
     per subtree-choice part covers every member. *)
  let narrowable c site cid =
    let decl_of part =
      let rep_b = match P.first part with Some i -> i | None -> assert false in
      Spi.Model.find_channel cid (model_of plan rep_b)
    in
    match P.partition_at space c.members site with
    | [] -> assert false (* members are never empty *)
    | (_, part0) :: rest -> (
      match decl_of part0 with
      | None -> false
      | Some ch0 ->
        let same ch =
          Spi.Chan.kind ch = Spi.Chan.kind ch0
          && Spi.Chan.capacity ch = Spi.Chan.capacity ch0
          && List.compare_lengths (Spi.Chan.initial ch) (Spi.Chan.initial ch0)
             = 0
          && List.for_all2 Spi.Token.equal (Spi.Chan.initial ch)
               (Spi.Chan.initial ch0)
        in
        List.for_all
          (fun (_, part) ->
            match decl_of part with Some ch -> same ch | None -> false)
          rest)
  in
  (* Cold-site routing in front of {!Crt.inject}: a stimulus aimed inside
     a still-cold site warms its channel or splits the site first. *)
  let rec handle_inject stats offer c time cid tok =
    let cold_target =
      if I.Channel_id.Set.mem cid c.warm then None
      else Family.cold_site_of c.cold (I.Channel_id.to_string cid)
    in
    match cold_target with
    | Some site when narrowable c site cid ->
      c.warm <- I.Channel_id.Set.add cid c.warm;
      (* probes folded [cid] to a constant while it was cold-owned *)
      c.hotspots <- None;
      handle_inject stats offer c time cid tok
    | Some site ->
      split stats offer ~sibling_start:(Deliver (cid, tok)) c site;
      handle_inject stats offer c time cid tok
    | None -> Crt.inject c.run time cid tok
  in
  let finish stats c outcome =
    account stats c;
    stats.subfamilies <- stats.subfamilies + 1;
    stats.leaves <-
      { Family.leaf_members = P.indices c.members; leaf_makespan = c.run.makespan }
      :: stats.leaves;
    leaf c.members c.run (cold_owned c) outcome
  in
  (* One task: the shared loop, with the presence probe as its [settle]
     hook and cold-site routing as its [inject] hook. *)
  let exec stats offer { sub = c; start } =
    let settle () = settle stats offer c in
    let inject = handle_inject stats offer c in
    (match start with
    | Sweep -> ()
    | Deliver (cid, tok) -> inject c.run.now cid tok);
    finish stats c (Crt.loop ~settle ~inject ?deadline_ns ~limits c.run)
  in
  (* ---------------- drive the sub-families ---------------- *)
  let totals =
    Synth.Par.fold ~jobs
      ~init:(fun () ->
        { splits = 0; subfamilies = 0; executed = 0; shared = 0; leaves = [] })
      ~merge:(fun a b ->
        {
          splits = a.splits + b.splits;
          subfamilies = a.subfamilies + b.subfamilies;
          executed = a.executed + b.executed;
          shared = a.shared + b.shared;
          leaves = a.leaves @ b.leaves;
        })
      ~f:(fun pool stats task ->
        exec stats (Synth.Par.push pool) task;
        stats)
      [| { sub = root; start = Sweep } |]
  in
  Obs.Metric.incr m_runs;
  Obs.Metric.add m_configs n;
  Obs.Metric.add m_splits totals.splits;
  Obs.Metric.add m_subfamilies totals.subfamilies;
  Obs.Metric.add m_shared_firings totals.shared;
  Obs.Registry.record_span ~name:"sim.family.run_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  let leaves =
    Array.of_list
      (List.sort
         (fun a b ->
           compare
             (List.hd a.Family.leaf_members)
             (List.hd b.Family.leaf_members))
         totals.leaves)
  in
  (totals, leaves)

(* Every configuration gets a result from its leaf; the leaves
   partition the full space. *)
let per_config plan cells f =
  Array.init plan.p_n (fun i ->
      match cells.(i) with
      | Some cell -> f i (P.assignment plan.p_space i) cell
      | None ->
        (* unreachable: the leaves partition the full space *)
        invalid_arg "Family_compiled.run: configuration left unfinished")

let run ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults ?jobs plan =
  let results = Array.make plan.p_n None in
  (* Every member gets the result its own per-configuration run would
     produce — shared trace, plus a final state set on the member's
     initial state: live ring contents on shared/resolved/warm channels,
     the member's own initial tokens on channels of sites that never
     went hot.  Each channel's final contents are read once per leaf,
     and [set_contents] is linear in them. *)
  let leaf members r cold_owned outcome =
    let trace = List.rev r.trace in
    (* [None]: cold-owned, the member keeps its initial tokens *)
    let finals = I.Channel_id.Tbl.create 64 in
    let final_contents cid =
      match I.Channel_id.Tbl.find_opt finals cid with
      | Some f -> f
      | None ->
        let f =
          if cold_owned cid then None
          else
            let ix = chan_ix r.tbl cid in
            Some (if ix < 0 then [] else contents r.chans.(ix))
        in
        I.Channel_id.Tbl.add finals cid f;
        f
    in
    P.iter
      (fun i ->
        let final_state =
          List.fold_left
            (fun st ch ->
              let cid = Spi.Chan.id ch in
              match final_contents cid with
              | None -> st
              | Some toks -> Spi.Semantics.set_contents cid toks st)
            (init_of plan i)
            (Spi.Model.channels (model_of plan i))
        in
        results.(i) <-
          Some
            {
              Engine.trace;
              final_state;
              end_time = r.now;
              outcome;
              firings = r.firings;
              reconfiguration_time = 0;
            })
      members
  in
  let totals, leaves =
    featured ~record:true ~leaf ?policy ?limits ?overflow ?stimuli
      ?firing_budget ?faults ?jobs plan
  in
  {
    Family.runs =
      per_config plan results (fun index assignment result ->
          { Family.index; assignment; result });
    splits = totals.splits;
    subfamilies = totals.subfamilies;
    executed_firings = totals.executed;
    shared_firings = totals.shared;
    leaves;
  }

let summarize ?deadline_ns ?policy ?limits ?overflow ?stimuli ?firing_budget
    ?faults ?jobs plan =
  let cells = Array.make plan.p_n None in
  let leaf members r _ outcome =
    P.iter
      (fun i ->
        (* a member that does not flatten fails here, as it does in
           [run]'s final state *)
        ignore (model_of plan i);
        cells.(i) <- Some (r.now, r.firings, outcome))
      members
  in
  let totals, leaves =
    featured ~record:false ~leaf ?deadline_ns ?policy ?limits ?overflow
      ?stimuli ?firing_budget ?faults ?jobs plan
  in
  ({
     configs =
       per_config plan cells (fun index assignment (end_time, firings, outcome) ->
           { index; assignment; end_time; firings; outcome; reconfiguration_time = 0 });
     splits = totals.splits;
     subfamilies = totals.subfamilies;
     executed_firings = totals.executed;
     shared_firings = totals.shared;
     leaves;
   }
    : summary)
