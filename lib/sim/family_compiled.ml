module I = Spi.Ids
module P = Variants.Presence
open Crt

(* ------------------------------------------------------------------ *)
(* Compiled per-representative tables.                                 *)
(*                                                                     *)
(* A sub-family executes on its representative configuration's         *)
(* flattened model, lowered to {!Compile}-style flat int tables (no     *)
(* configuration dispatch: family runs reject degradation plans, so    *)
(* modes never carry masks and firings never reconfigure).             *)
(* ------------------------------------------------------------------ *)

type fmode = {
  fm_mid : I.Mode_id.t;
  fm_latency : Interval.t;
  fm_consumes : ccons array;  (* in {!Spi.Mode.consumptions} order *)
  fm_produces : cprod array;  (* in {!Spi.Mode.productions} order *)
  fm_inherit : bool;
}

type fproc = {
  fp_pid : I.Process_id.t;
  fp_source : bool;  (* no input channels: default firing budget 0 *)
  fp_rules : crule array;
  fp_modes : fmode array;
}

type centry = {
  ce_model : Spi.Model.t;
  ce_init : Spi.Semantics.state;
  ce_procs : fproc array;  (* in model process order *)
  ce_chan_ids : I.Channel_id.t array;
  ce_chan_register : bool array;
  ce_chan_cap : int array;  (* -1 = unbounded *)
  ce_chan_initial : Spi.Token.t list array;
  ce_chan_index : int I.Channel_id.Tbl.t;
  ce_proc_tbl : int I.Process_id.Tbl.t;
}

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
  p_entries : centry option array;
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
    p_entries = Array.make n None;
  }

let key plan = plan.p_key
let system plan = plan.p_system
let configurations plan = plan.p_n

let model_of plan i =
  Mutex.lock plan.p_lock;
  let m =
    match plan.p_models.(i) with
    | Some m -> m
    | None ->
      let m =
        Variants.Flatten.flatten plan.p_system
          (Variants.Variant_space.to_choice (P.assignment plan.p_space i))
      in
      plan.p_models.(i) <- Some m;
      m
  in
  Mutex.unlock plan.p_lock;
  m

let init_of plan i =
  let m = model_of plan i in
  Mutex.lock plan.p_lock;
  let s =
    match plan.p_inits.(i) with
    | Some s -> s
    | None ->
      let s = Spi.Semantics.initial m in
      plan.p_inits.(i) <- Some s;
      s
  in
  Mutex.unlock plan.p_lock;
  s

let compile_entry model init =
  let chan_decls = Array.of_list (Spi.Model.channels model) in
  let nchan = Array.length chan_decls in
  let chan_index = I.Channel_id.Tbl.create (max 16 nchan) in
  Array.iteri
    (fun i c -> I.Channel_id.Tbl.replace chan_index (Spi.Chan.id c) i)
    chan_decls;
  let ix_of cid =
    match I.Channel_id.Tbl.find_opt chan_index cid with
    | Some i -> i
    | None -> -1
  in
  let compile_proc p =
    let modes = Array.of_list (Spi.Process.modes p) in
    let mode_index = I.Mode_id.Tbl.create (max 8 (Array.length modes)) in
    Array.iteri
      (fun i m -> I.Mode_id.Tbl.replace mode_index (Spi.Mode.id m) i)
      modes;
    {
      fp_pid = Spi.Process.id p;
      fp_source = I.Channel_id.Set.is_empty (Spi.Process.inputs p);
      fp_rules =
        Array.of_list
          (List.map
             (fun r ->
               {
                 guard = compile_pred ~ix_of (Spi.Activation.guard r);
                 target =
                   Option.value ~default:(-1)
                     (I.Mode_id.Tbl.find_opt mode_index
                        (Spi.Activation.target_mode r));
               })
             (Spi.Activation.rules (Spi.Process.activation p)));
      fp_modes =
        Array.map
          (fun m ->
            {
              fm_mid = Spi.Mode.id m;
              fm_latency = Spi.Mode.latency m;
              fm_consumes =
                Array.of_list
                  (List.map
                     (fun (cid, rate) ->
                       { c_ix = ix_of cid; c_cid = cid; c_rate = rate })
                     (Spi.Mode.consumptions m));
              fm_produces =
                Array.of_list
                  (List.map
                     (fun (cid, (prod : Spi.Mode.production)) ->
                       {
                         p_ix = ix_of cid;
                         p_cid = cid;
                         p_rate = prod.rate;
                         p_tags = prod.tags;
                       })
                     (Spi.Mode.productions m));
              fm_inherit =
                (match Spi.Mode.payload_policy m with
                | Spi.Mode.Inherit_first -> true
                | Spi.Mode.Fresh -> false);
            })
          modes;
    }
  in
  let procs =
    Array.of_list (List.map compile_proc (Spi.Model.processes model))
  in
  let proc_tbl = I.Process_id.Tbl.create (max 16 (Array.length procs)) in
  Array.iteri (fun i fp -> I.Process_id.Tbl.replace proc_tbl fp.fp_pid i) procs;
  {
    ce_model = model;
    ce_init = init;
    ce_procs = procs;
    ce_chan_ids = Array.map Spi.Chan.id chan_decls;
    ce_chan_register =
      Array.map (fun c -> Spi.Chan.kind c = Spi.Chan.Register) chan_decls;
    ce_chan_cap =
      Array.map
        (fun c -> Option.value ~default:(-1) (Spi.Chan.capacity c))
        chan_decls;
    ce_chan_initial = Array.map Spi.Chan.initial chan_decls;
    ce_chan_index = chan_index;
    ce_proc_tbl = proc_tbl;
  }

let entry_of plan i =
  let model = model_of plan i in
  let init = init_of plan i in
  Mutex.lock plan.p_lock;
  let e =
    match plan.p_entries.(i) with
    | Some e -> e
    | None ->
      let e = compile_entry model init in
      plan.p_entries.(i) <- Some e;
      e
  in
  Mutex.unlock plan.p_lock;
  e

(* ------------------------------- run -------------------------------- *)

type fpstate = {
  mutable busy : bool;
  mutable budget : int;  (* negative = unlimited *)
  mutable recover_at : int;
  (* pending-completion slot, exactly {!Compile}'s: [busy] serializes a
     process's executions, so one slot per process suffices *)
  mutable slot_mode : int;
  mutable slot_started : int;
  mutable slot_payload : int option;
  mutable slot_consumed : (I.Channel_id.t * Spi.Token.t list) list;
}

(* Per-run, per-representative dispatch tables: the policy realizes
   every interval once per (run, representative) instead of once per
   firing. *)
type dispatch = {
  d_lat : int array array;
  d_want : int array array array;
  d_nprod : int array array array;
}

(* One compiled settle probe: a site process of some part's
   representative that could ever fire, with its activation guards
   disjoined into one predicate over the sub-family's live channel
   indexes.  Channels a cold site owns (and that are not warm) cannot
   change while the site stays cold, so their atoms are folded to
   constants from the part representative's initial state. *)
type probe = { pb_pid : I.Process_id.t; pb_guard : gpred }

(* Cached settle-probe structures for one still-cold site: its presence
   partition and the probes of every part.  Rebuilt when the sub-family's
   membership changes (a split) or its warm set grows (folding depends on
   it), so the per-event probe is one [eval] per guard. *)
type hotspot = {
  hs_site : I.Interface_id.t;
  hs_parts : P.t list;
  hs_probes : probe array;
}

type sub = {
  mutable members : P.t;
  rep : int;
  entry : centry;
  dsp : dispatch;
  mutable cold : I.Interface_id.t list;  (* site order *)
  mutable warm : I.Channel_id.Set.t;
  mutable frozen : bool array;
      (* per process index: owned by a still-cold site — hoisted out of
         the sweep so the hot loop never re-derives prefixes *)
  chans : cstate array;
  pstates : fpstate array;
  heap : Heap.Int_heap.t;
  fstate : Fault.state option;
  mutable trace : Trace.entry list;  (* reversed, shared across forks *)
  mutable firings : int;
  mutable now : int;
  mutable hotspots : hotspot list option;  (* None = needs rebuild *)
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

let run ?(policy = Engine.Typical) ?(limits = Engine.default_limits)
    ?(overflow = Spi.Semantics.Reject) ?(stimuli = []) ?(firing_budget = [])
    ?faults ?(jobs = 1) ?(split = `Narrow) plan =
  let start_ns = Obs.Clock.now_ns () in
  let narrow = split = `Narrow in
  (match faults with
  | Some p when p.Fault.degrade <> None ->
    invalid_arg
      "Family_compiled.run: degradation plans are not supported (flattened \
       per-configuration models have no configuration to fall back to)"
  | Some _ | None -> ());
  let space = plan.p_space in
  let n = plan.p_n in
  let choose = Engine.pick policy in
  let dsp_lock = Mutex.create () in
  let dsps = Array.make n None in
  let dispatch_of i =
    let e = entry_of plan i in
    Mutex.lock dsp_lock;
    let d =
      match dsps.(i) with
      | Some d -> d
      | None ->
        let d =
          {
            d_lat =
              Array.map
                (fun fp -> Array.map (fun m -> choose m.fm_latency) fp.fp_modes)
                e.ce_procs;
            d_want =
              Array.map
                (fun fp ->
                  Array.map
                    (fun m ->
                      Array.map (fun cc -> choose cc.c_rate) m.fm_consumes)
                    fp.fp_modes)
                e.ce_procs;
            d_nprod =
              Array.map
                (fun fp ->
                  Array.map
                    (fun m ->
                      Array.map (fun pr -> choose pr.p_rate) m.fm_produces)
                    fp.fp_modes)
                e.ce_procs;
          }
        in
        dsps.(i) <- Some d;
        d
    in
    Mutex.unlock dsp_lock;
    d
  in
  let budget_of_pid pid ~source =
    match
      List.find_opt (fun (q, _) -> I.Process_id.equal q pid) firing_budget
    with
    | Some (_, b) -> b
    | None -> if source then 0 else -1
  in
  let fresh_pstate fp =
    {
      busy = false;
      budget = budget_of_pid fp.fp_pid ~source:fp.fp_source;
      recover_at = 0;
      slot_mode = -1;
      slot_started = 0;
      slot_payload = None;
      slot_consumed = [];
    }
  in
  let frozen_of entry cold =
    Array.map
      (fun fp ->
        Option.is_some
          (Family.cold_site_of cold (I.Process_id.to_string fp.fp_pid)))
      entry.ce_procs
  in
  (* Injection and crash pools are shared by every sub-family and
     immutable after setup: degradation (the one source of mid-run
     injections in {!Compile}) is rejected above, so pending [ev_inject]
     and [ev_crash] codes stay valid across forks without remapping. *)
  let inj_pool =
    Array.of_list
      (List.map (fun (s : Engine.stimulus) -> (s.channel, s.token)) stimuli)
  in
  let fstate0 = Option.map Fault.start faults in
  let crash_schedule =
    match fstate0 with
    | None -> [||]
    | Some fs -> Array.of_list (Fault.crash_schedule fs)
  in
  let crash_pool = Array.map fst crash_schedule in
  let results = Array.make n None in
  let root =
    let entry = entry_of plan 0 in
    let heap = Heap.Int_heap.create () in
    List.iteri
      (fun k (s : Engine.stimulus) ->
        Heap.Int_heap.push ~time:s.at (ev_inject k) heap)
      stimuli;
    Array.iteri
      (fun k (_, at) -> Heap.Int_heap.push ~time:at (ev_crash k) heap)
      crash_schedule;
    {
      members = P.full space;
      rep = 0;
      entry;
      dsp = dispatch_of 0;
      cold = plan.p_sites;
      warm = I.Channel_id.Set.empty;
      frozen = frozen_of entry plan.p_sites;
      chans =
        Array.init (Array.length entry.ce_chan_ids) (fun i ->
            make_chan entry.ce_chan_initial.(i));
      pstates = Array.map fresh_pstate entry.ce_procs;
      heap;
      fstate = fstate0;
      trace = [];
      firings = 0;
      now = 0;
      hotspots = None;
    }
  in
  (* ---------------- per-sub-family machinery ---------------- *)
  let emit c e = c.trace <- e :: c.trace in
  let process_crashed c pid =
    match c.fstate with Some fs -> Fault.crashed fs pid | None -> false
  in
  let cwrite c ix tok =
    write ~register:c.entry.ce_chan_register ~cap:c.entry.ce_chan_cap
      ~ids:c.entry.ce_chan_ids ~overflow c.chans ix tok
  in
  let chan_ix c cid =
    match I.Channel_id.Tbl.find_opt c.entry.ce_chan_index cid with
    | Some ix -> ix
    | None -> -1
  in
  let budget_of_proc p =
    budget_of_pid (Spi.Process.id p)
      ~source:(I.Channel_id.Set.is_empty (Spi.Process.inputs p))
  in
  let cold_owned c cid =
    (not (I.Channel_id.Set.mem cid c.warm))
    && Option.is_some (Family.cold_site_of c.cold (I.Channel_id.to_string cid))
  in
  (* A guard compiled against [c]'s live rings, with atoms over
     cold-owned channels decided by [init] and constants folded away. *)
  let rec probe_guard c init =
    let module Pr = Spi.Predicate in
    function
    | Pr.Atom (Pr.Num_at_least (cid, _) | Pr.First_has_tag (cid, _)) as p
      when cold_owned c cid ->
      if Pr.eval (Spi.Semantics.view init) p then G_true else G_false
    | (Pr.True | Pr.False | Pr.Atom _) as p -> compile_pred ~ix_of:(chan_ix c) p
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
        {
          hs_site = site;
          hs_parts = parts;
          hs_probes = Array.of_list (List.concat_map probes_of parts);
        })
      c.cold
  in
  (* Would any variant of the sub-family's configurations start a process
     of the hotspot's site right now? *)
  let site_hot c h =
    let probes = h.hs_probes in
    let rec from k =
      k < Array.length probes
      && ((eval c.chans probes.(k).pb_guard
          && not (process_crashed c probes.(k).pb_pid))
         || from (k + 1))
    in
    from 0
  in
  (* Fork [c] at [site], mirroring {!Family}'s [split] on the compiled
     representation.  [c] keeps the first part; every other part gets a
     fresh sub on its own representative's tables with the shared
     execution transplanted in. *)
  let split stats offer ~sibling_start c site =
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
          let e_b = entry_of plan rep_b in
          (* Channels of resolved sites and the shared skeleton (plus
             warm channels) carry the shared history; channels cold
             until this split keep their initial tokens. *)
          let chans_b =
            Array.init (Array.length e_b.ce_chan_ids) (fun i ->
                let cid = e_b.ce_chan_ids.(i) in
                if cold_owned c cid then make_chan e_b.ce_chan_initial.(i)
                else
                  match
                    I.Channel_id.Tbl.find_opt c.entry.ce_chan_index cid
                  with
                  | Some pix -> copy_chan c.chans.(pix)
                  | None ->
                    (* unreachable: non-cold channels are shared or
                       belong to resolved sites, identical across
                       members *)
                    make_chan e_b.ce_chan_initial.(i))
          in
          let pstates_b =
            Array.map
              (fun fp ->
                if is_old_cold (I.Process_id.to_string fp.fp_pid) then
                  fresh_pstate fp
                else
                  let ps =
                    c.pstates.(I.Process_id.Tbl.find c.entry.ce_proc_tbl
                                 fp.fp_pid)
                  in
                  (* mode indexes transfer: a process shared by (or
                     resolved for) both members has the same definition,
                     hence the same mode table *)
                  {
                    busy = ps.busy;
                    budget = ps.budget;
                    recover_at = ps.recover_at;
                    slot_mode = ps.slot_mode;
                    slot_started = ps.slot_started;
                    slot_payload = ps.slot_payload;
                    slot_consumed = ps.slot_consumed;
                  })
              e_b.ce_procs
          in
          (* Re-encode pending events for the sibling's process indexes,
             draining a copy of the heap in order so the relative order
             of pending events — and with it every FIFO tie-break —
             carries over exactly.  Injection and crash codes index the
             shared pools and transfer as-is.  Cold-site processes never
             fired, so every pending completion/recovery names a process
             both models share. *)
          let heap_b = Heap.Int_heap.create () in
          let tmp = Heap.Int_heap.copy c.heap in
          while not (Heap.Int_heap.is_empty tmp) do
            let t = Heap.Int_heap.min_time tmp in
            let v = Heap.Int_heap.min_value tmp in
            Heap.Int_heap.drop_min tmp;
            let v' =
              match v land 3 with
              | 1 | 2 ->
                let pid = c.entry.ce_procs.(v lsr 2).fp_pid in
                let ix_b = I.Process_id.Tbl.find e_b.ce_proc_tbl pid in
                if v land 3 = 1 then ev_complete ix_b else ev_recover ix_b
              | _ -> v
            in
            Heap.Int_heap.push ~time:t v' heap_b
          done;
          let sub_b =
            {
              members = part;
              rep = rep_b;
              entry = e_b;
              dsp = dispatch_of rep_b;
              cold = new_cold;
              warm = c.warm;
              frozen = frozen_of e_b new_cold;
              chans = chans_b;
              pstates = pstates_b;
              heap = heap_b;
              fstate = Option.map Fault.copy c.fstate;
              trace = c.trace;
              firings = c.firings;
              now = c.now;
              hotspots = None;
            }
          in
          offer { sub = sub_b; start = sibling_start })
        rest;
      c.members <- first_part;
      c.cold <- new_cold;
      c.frozen <- frozen_of c.entry new_cold;
      c.hotspots <- None
  in
  let rec settle stats offer c =
    match c.cold with
    | [] -> () (* fully resolved: the common fast path *)
    | _ -> (
      let hotspots =
        match c.hotspots with
        | Some h -> h
        | None ->
          let h = hotspots_of c in
          c.hotspots <- Some h;
          h
      in
      match List.find_opt (site_hot c) hotspots with
      | None -> ()
      | Some h ->
        split stats offer ~sibling_start:Sweep c h.hs_site;
        settle stats offer c)
  in
  let first_payload consumed =
    let rec over_chans = function
      | [] -> None
      | (_, toks) :: rest -> (
        match List.find_map Spi.Token.payload toks with
        | Some _ as p -> p
        | None -> over_chans rest)
    in
    over_chans consumed
  in
  let consume_mode c p_ix m_ix fm =
    let wants = c.dsp.d_want.(p_ix).(m_ix) in
    let ncons = Array.length fm.fm_consumes in
    let rec go k =
      if k = ncons then []
      else begin
        let cc = fm.fm_consumes.(k) in
        let wanted = wants.(k) in
        let toks =
          if cc.c_ix < 0 || wanted <= 0 then []
          else begin
            let cs = c.chans.(cc.c_ix) in
            let nn = if wanted < cs.count then wanted else cs.count in
            if nn <= 0 then []
            else if c.entry.ce_chan_register.(cc.c_ix) then
              (* sampling read: the register keeps its token *)
              [ cs.buf.(cs.head) ]
            else begin
              let rec take n acc =
                if n = 0 then List.rev acc else take (n - 1) (ring_pop cs :: acc)
              in
              take nn []
            end
          end
        in
        (cc.c_cid, toks) :: go (k + 1)
      end
    in
    go 0
  in
  (* One scheduling sweep — {!Compile}'s [try_start] minus configuration
     dispatch, with cold-site processes skipped through the hoisted
     [frozen] table instead of per-process prefix tests. *)
  let try_start stats c now =
    let e = c.entry in
    let nprocs = Array.length e.ce_procs in
    for ix = 0 to nprocs - 1 do
      if not c.frozen.(ix) then begin
        let fp = e.ce_procs.(ix) in
        let ps = c.pstates.(ix) in
        let may_fire =
          (not ps.busy) && ps.budget <> 0
          && not (process_crashed c fp.fp_pid)
        in
        if may_fire then begin
          let nrules = Array.length fp.fp_rules in
          let chosen = ref (-1) in
          let r = ref 0 in
          while !chosen < 0 && !r < nrules do
            if eval c.chans fp.fp_rules.(!r).guard then chosen := !r;
            incr r
          done;
          if !chosen >= 0 && fp.fp_rules.(!chosen).target >= 0 then begin
            let m_ix = fp.fp_rules.(!chosen).target in
            let fm = fp.fp_modes.(m_ix) in
            let attempt =
              match c.fstate with
              | None -> Fault.Proceed { overrun = None }
              | Some fs -> Fault.on_attempt fs ~time:now fp.fp_pid fm.fm_mid
            in
            match attempt with
            | Fault.Retry { retry; backoff } ->
              emit c
                (Trace.Faulted
                   {
                     time = now;
                     fault =
                       Fault.Transient_failure
                         { process = fp.fp_pid; mode = fm.fm_mid; retry; backoff };
                   });
              let until = now + max 1 backoff in
              ps.busy <- true;
              ps.recover_at <- until;
              Heap.Int_heap.push ~time:until (ev_recover ix) c.heap
            | Fault.Exhausted ->
              emit c
                (Trace.Faulted
                   {
                     time = now;
                     fault =
                       Fault.Retries_exhausted
                         { process = fp.fp_pid; mode = fm.fm_mid };
                   })
            | Fault.Proceed { overrun } ->
              let consumed = consume_mode c ix m_ix fm in
              let payload =
                if fm.fm_inherit then first_payload consumed else None
              in
              let extra = Option.value ~default:0 overrun in
              let latency = c.dsp.d_lat.(ix).(m_ix) + extra in
              ps.busy <- true;
              if ps.budget > 0 then ps.budget <- ps.budget - 1;
              c.firings <- c.firings + 1;
              stats.executed <- stats.executed + 1;
              let width = P.cardinal c.members in
              if width > 1 then stats.shared <- stats.shared + 1;
              Obs.Metric.observe m_configs_per_firing width;
              emit c
                (Trace.Started
                   {
                     time = now;
                     process = fp.fp_pid;
                     mode = fm.fm_mid;
                     reconfiguration = None;
                   });
              (match overrun with
              | Some extra ->
                emit c
                  (Trace.Faulted
                     {
                       time = now;
                       fault =
                         Fault.Latency_overrun
                           { process = fp.fp_pid; mode = fm.fm_mid; extra };
                     })
              | None -> ());
              ps.slot_mode <- m_ix;
              ps.slot_started <- now;
              ps.slot_payload <- payload;
              ps.slot_consumed <- consumed;
              Heap.Int_heap.push ~time:(now + latency) (ev_complete ix) c.heap
          end
        end
      end
    done
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
  let deliver_live c time cid tok =
    (match I.Channel_id.Tbl.find_opt c.entry.ce_chan_index cid with
    | Some ix -> cwrite c ix tok
    | None ->
      (* the interpreter's [Semantics.inject] raises [Not_found] on a
         channel the model does not declare *)
      ignore (Spi.Model.get_channel cid c.entry.ce_model));
    emit c (Trace.Injected { time; channel = cid; token = tok })
  in
  let rec handle_inject stats offer c time cid tok =
    let cold_target =
      if I.Channel_id.Set.mem cid c.warm then None
      else Family.cold_site_of c.cold (I.Channel_id.to_string cid)
    in
    match cold_target with
    | Some site when narrow && narrowable c site cid ->
      c.warm <- I.Channel_id.Set.add cid c.warm;
      (* probes folded [cid] to a constant while it was cold-owned *)
      c.hotspots <- None;
      handle_inject stats offer c time cid tok
    | Some site ->
      split stats offer ~sibling_start:(Deliver (cid, tok)) c site;
      handle_inject stats offer c time cid tok
    | None -> (
      let outcome =
        match c.fstate with
        | None -> Fault.Deliver
        | Some fs -> Fault.on_token fs ~time cid tok
      in
      match outcome with
      | Fault.Deliver -> deliver_live c time cid tok
      | Fault.Dropped ->
        emit c
          (Trace.Faulted
             { time; fault = Fault.Token_dropped { channel = cid; token = tok } })
      | Fault.Corrupted tok' ->
        emit c
          (Trace.Faulted
             {
               time;
               fault = Fault.Token_corrupted { channel = cid; token = tok' };
             });
        deliver_live c time cid tok'
      | Fault.Duplicated ->
        emit c
          (Trace.Faulted
             {
               time;
               fault = Fault.Token_duplicated { channel = cid; token = tok };
             });
        deliver_live c time cid tok;
        deliver_live c time cid tok)
  in
  let complete c time ix =
    let fp = c.entry.ce_procs.(ix) in
    let ps = c.pstates.(ix) in
    let m_ix = ps.slot_mode in
    let fm = fp.fp_modes.(m_ix) in
    let ns = c.dsp.d_nprod.(ix).(m_ix) in
    let nprods = Array.length fm.fm_produces in
    let rec produce k =
      if k = nprods then []
      else begin
        let pr = fm.fm_produces.(k) in
        let nn = ns.(k) in
        let tok = Spi.Token.make ~tags:pr.p_tags ?payload:ps.slot_payload () in
        let toks = Spi.Token.replicate nn tok in
        if nn > 0 then
          if pr.p_ix < 0 then
            ignore (Spi.Model.get_channel pr.p_cid c.entry.ce_model)
          else List.iter (fun t -> cwrite c pr.p_ix t) toks;
        (pr.p_cid, toks) :: produce (k + 1)
      end
    in
    let produced = produce 0 in
    if ps.recover_at = 0 then ps.busy <- false;
    emit c
      (Trace.Completed
         {
           time;
           started_at = ps.slot_started;
           process = fp.fp_pid;
           firing =
             {
               Spi.Semantics.process = fp.fp_pid;
               mode = fm.fm_mid;
               consumed = ps.slot_consumed;
               produced;
             };
         });
    ps.slot_consumed <- []
  in
  let recover c time ix =
    let ps = c.pstates.(ix) in
    if ps.recover_at <= time then begin
      ps.recover_at <- 0;
      ps.busy <- false
    end
  in
  let crash c time k =
    let pid = crash_pool.(k) in
    match c.fstate with
    | Some fs when not (Fault.crashed fs pid) ->
      Fault.mark_crashed fs pid;
      Fault.note_failure fs pid;
      emit c (Trace.Faulted { time; fault = Fault.Crashed { process = pid } })
    | Some _ | None -> ()
  in
  (* Leaf: every member gets the result its own per-configuration run
     would produce — shared trace, plus a final state set on the member's
     initial state: live ring contents on shared/resolved/warm channels,
     the member's own initial tokens on channels of sites that never went
     hot.  Each channel's final contents are read once per leaf, and
     [set_contents] is linear in them. *)
  let finish stats c outcome =
    stats.subfamilies <- stats.subfamilies + 1;
    let trace = List.rev c.trace in
    let makespan =
      List.fold_left
        (fun acc entry ->
          match entry with
          | Trace.Completed { time; _ } -> max acc time
          | _ -> acc)
        0 c.trace
    in
    stats.leaves <-
      { Family.leaf_members = P.indices c.members; leaf_makespan = makespan }
      :: stats.leaves;
    (* [None]: cold-owned, the member keeps its initial tokens *)
    let finals = I.Channel_id.Tbl.create 64 in
    let final_contents cid =
      match I.Channel_id.Tbl.find_opt finals cid with
      | Some f -> f
      | None ->
        let f =
          if cold_owned c cid then None
          else
            let ix = chan_ix c cid in
            Some (if ix < 0 then [] else contents c.chans.(ix))
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
              end_time = c.now;
              outcome;
              firings = c.firings;
              reconfiguration_time = 0;
            })
      c.members
  in
  (* The event loop: {!Compile}'s closure-free dispatch with the
     presence probe wedged in front of every sweep. *)
  let exec stats offer { sub = c; start } =
    (match start with
    | Sweep -> ()
    | Deliver (cid, tok) -> handle_inject stats offer c c.now cid tok);
    settle stats offer c;
    try_start stats c c.now;
    let rec loop () =
      if c.firings > limits.Engine.max_firings then
        finish stats c Engine.Firing_limit_reached
      else if Heap.Int_heap.is_empty c.heap then begin
        emit c (Trace.Quiescent { time = c.now });
        finish stats c Engine.Quiescent
      end
      else begin
        let time = Heap.Int_heap.min_time c.heap in
        if time > limits.Engine.max_time then
          finish stats c Engine.Time_limit_reached
        else begin
          let v = Heap.Int_heap.min_value c.heap in
          Heap.Int_heap.drop_min c.heap;
          c.now <- time;
          (match v land 3 with
          | 0 ->
            let cid, tok = inj_pool.(v lsr 2) in
            handle_inject stats offer c time cid tok
          | 1 -> complete c time (v lsr 2)
          | 2 -> recover c time (v lsr 2)
          | _ -> crash c time (v lsr 2));
          settle stats offer c;
          try_start stats c time;
          loop ()
        end
      end
    in
    loop ()
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
        let local = Stack.create () in
        let offer t = if not (Synth.Par.push pool t) then Stack.push t local in
        exec stats offer task;
        while not (Stack.is_empty local) do
          exec stats offer (Stack.pop local)
        done;
        stats)
      [| { sub = root; start = Sweep } |]
  in
  let runs =
    Array.init n (fun i ->
        match results.(i) with
        | Some result ->
          { Family.index = i; assignment = P.assignment space i; result }
        | None ->
          (* unreachable: the leaves partition the full space *)
          invalid_arg "Family_compiled.run: configuration left unfinished")
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
  {
    Family.runs;
    splits = totals.splits;
    subfamilies = totals.subfamilies;
    executed_firings = totals.executed;
    shared_firings = totals.shared;
    leaves;
  }
