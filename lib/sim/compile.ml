module I = Spi.Ids
open Crt

(* ------------------------- compiled structures ----------------------- *)

(* Guards, consumption/production tables, channel rings and the event
   coding live in {!Crt}, shared with the compiled family engine. *)

type cmode = {
  cm_mid : I.Mode_id.t;
  cm_latency : Interval.t;
  cm_consumes : ccons array;  (** in {!Spi.Mode.consumptions} order *)
  cm_produces : cprod array;  (** in {!Spi.Mode.productions} order *)
  cm_inherit : bool;
  cm_conf : int;  (** owning configuration index; -1 shared / none *)
}

(* Per-process configuration tables: ids, latencies and degradation
   masks resolved to dense indexes at compile time. *)
type cconf = {
  cf_ids : I.Config_id.t array;  (** in declaration order *)
  cf_latency : int array;
  cf_initial : int;  (** -1 when the set declares no initial *)
  cf_masks : bool array array;
      (** [cf_masks.(c).(m)]: may mode [m] still fire once degraded to
          configuration [c] (the configuration's own modes plus modes
          outside every configuration) *)
  cf_shared_mask : bool array;
      (** modes outside every configuration — the mask for a fallback
          target the set does not know *)
  cf_index : int I.Config_id.Tbl.t;
}

type cproc = {
  pr_pid : I.Process_id.t;
  pr_source : bool;  (** no input channels: default firing budget 0 *)
  pr_rules : crule array;
  pr_modes : cmode array;
  pr_conf : cconf option;
}

type plan = {
  model : Spi.Model.t;
  configurations : Variants.Configuration.t list;
  procs : cproc array;
  chan_ids : I.Channel_id.t array;
  chan_decls : Spi.Chan.t array;
  chan_register : bool array;
  chan_cap : int array;  (** -1 = unbounded *)
  chan_initial : Spi.Token.t list array;
  chan_index : int I.Channel_id.Tbl.t;
  init_state : Spi.Semantics.state;
      (** the reference semantics' initial state, the base every run's
          final state is rebuilt on *)
  key : string;
}

let key plan = plan.key
let model plan = plan.model
let configurations plan = plan.configurations

let m_compiles = Obs.Registry.counter "sim.compiles"
let m_compiled_runs = Obs.Registry.counter "sim.compiled_runs"

(* ------------------------------ compile ------------------------------ *)

let key_of model configurations =
  let module C = Variants.Canonical in
  let h = C.create () in
  C.feed_tag h "sim-compile/v1";
  C.feed_string h (C.of_model model);
  C.feed_list h
    (fun h conf ->
      C.feed_tag h "configuration";
      C.feed_string h
        (I.Process_id.to_string (Variants.Configuration.process conf));
      C.feed_option h
        (fun h id -> C.feed_string h (I.Config_id.to_string id))
        (Variants.Configuration.start conf);
      C.feed_list h
        (fun h (e : Variants.Configuration.entry) ->
          C.feed_string h (I.Config_id.to_string e.config_id);
          C.feed_int h e.reconf_latency;
          C.feed_list h
            (fun h mid -> C.feed_string h (I.Mode_id.to_string mid))
            (I.Mode_id.Set.elements e.modes))
        (Variants.Configuration.entries conf))
    (List.sort
       (fun a b ->
         I.Process_id.compare
           (Variants.Configuration.process a)
           (Variants.Configuration.process b))
       configurations);
  C.digest h

let plan_key ?(configurations = []) model = key_of model configurations

let compile ?(configurations = []) model =
  Obs.Registry.with_span "sim.compile_ns" @@ fun () ->
  (* Same up-front validation as [Engine.run], so a bad configuration
     set fails at compile time rather than on the thousandth run. *)
  List.iter
    (fun conf ->
      let pid = Variants.Configuration.process conf in
      match Spi.Model.find_process pid model with
      | None ->
        invalid_arg
          (Format.asprintf
             "Sim.Compile.compile: configuration for unknown process %a"
             I.Process_id.pp pid)
      | Some proc -> (
        match Variants.Configuration.validate_against proc conf with
        | [] -> ()
        | errors ->
          invalid_arg
            (Format.asprintf "@[<v>Sim.Compile.compile: bad configuration:@,%a@]"
               (Format.pp_print_list ~pp_sep:Format.pp_print_cut
                  Variants.Configuration.pp_error)
               errors)))
    configurations;
  let channels = Spi.Model.channels model in
  let chan_decls = Array.of_list channels in
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
  let compile_pred = Crt.compile_pred ~ix_of in
  let compile_proc p =
    let pid = Spi.Process.id p in
    let modes = Array.of_list (Spi.Process.modes p) in
    let nmodes = Array.length modes in
    let mode_index = I.Mode_id.Tbl.create (max 8 nmodes) in
    Array.iteri
      (fun i m -> I.Mode_id.Tbl.replace mode_index (Spi.Mode.id m) i)
      modes;
    let conf =
      List.find_opt
        (fun c ->
          I.Process_id.equal (Variants.Configuration.process c) pid)
        configurations
    in
    let cconf =
      Option.map
        (fun c ->
          let entries = Array.of_list (Variants.Configuration.entries c) in
          let n = Array.length entries in
          let cf_ids =
            Array.map
              (fun (e : Variants.Configuration.entry) -> e.config_id)
              entries
          in
          let cf_latency =
            Array.map
              (fun (e : Variants.Configuration.entry) -> e.reconf_latency)
              entries
          in
          let cf_index = I.Config_id.Tbl.create (max 8 n) in
          Array.iteri
            (fun i id -> I.Config_id.Tbl.replace cf_index id i)
            cf_ids;
          let cf_initial =
            match Variants.Configuration.start c with
            | None -> -1
            | Some id ->
              Option.value ~default:(-1) (I.Config_id.Tbl.find_opt cf_index id)
          in
          let cf_shared_mask =
            Array.map
              (fun m ->
                Option.is_none
                  (Variants.Configuration.config_of_mode (Spi.Mode.id m) c))
              modes
          in
          let cf_masks =
            Array.init n (fun ci ->
                let entry_modes =
                  entries.(ci).Variants.Configuration.modes
                in
                Array.mapi
                  (fun mi m ->
                    cf_shared_mask.(mi)
                    || I.Mode_id.Set.mem (Spi.Mode.id m) entry_modes)
                  modes)
          in
          { cf_ids; cf_latency; cf_initial; cf_masks; cf_shared_mask; cf_index })
        conf
    in
    let cmodes =
      Array.map
        (fun m ->
          {
            cm_mid = Spi.Mode.id m;
            cm_latency = Spi.Mode.latency m;
            cm_consumes =
              Array.of_list
                (List.map
                   (fun (cid, rate) ->
                     { c_ix = ix_of cid; c_cid = cid; c_rate = rate })
                   (Spi.Mode.consumptions m));
            cm_produces =
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
            cm_inherit =
              (match Spi.Mode.payload_policy m with
              | Spi.Mode.Inherit_first -> true
              | Spi.Mode.Fresh -> false);
            cm_conf =
              (match conf with
              | None -> -1
              | Some c -> (
                match
                  Variants.Configuration.config_of_mode (Spi.Mode.id m) c
                with
                | None -> -1
                | Some cfg ->
                  Option.value ~default:(-1)
                    (I.Config_id.Tbl.find_opt
                       (Option.get cconf).cf_index cfg)));
          })
        modes
    in
    let rules =
      Array.of_list
        (List.map
           (fun r ->
             {
               guard = compile_pred (Spi.Activation.guard r);
               target =
                 Option.value ~default:(-1)
                   (I.Mode_id.Tbl.find_opt mode_index
                      (Spi.Activation.target_mode r));
             })
           (Spi.Activation.rules (Spi.Process.activation p)))
    in
    {
      pr_pid = pid;
      pr_source = I.Channel_id.Set.is_empty (Spi.Process.inputs p);
      pr_rules = rules;
      pr_modes = cmodes;
      pr_conf = cconf;
    }
  in
  let procs =
    Array.of_list (List.map compile_proc (Spi.Model.processes model))
  in
  Obs.Metric.incr m_compiles;
  {
    model;
    configurations;
    procs;
    chan_ids = Array.map Spi.Chan.id chan_decls;
    chan_decls;
    chan_register =
      Array.map (fun c -> Spi.Chan.kind c = Spi.Chan.Register) chan_decls;
    chan_cap =
      Array.map
        (fun c -> Option.value ~default:(-1) (Spi.Chan.capacity c))
        chan_decls;
    chan_initial = Array.map Spi.Chan.initial chan_decls;
    chan_index;
    init_state = Spi.Semantics.initial model;
    key = key_of model configurations;
  }

(* ------------------------------- run --------------------------------- *)

type pstate = {
  mutable busy : bool;
  mutable budget : int;  (** negative = unlimited *)
  mutable conf_ix : int;
      (** -1 none; -2 a fallback target outside the configuration set *)
  mutable conf_id : I.Config_id.t option;
  mutable allowed : bool array option;  (** degradation mask over modes *)
  mutable recover_at : int;
  (* The pending-completion slot: [busy] serializes a process's
     executions, so at most one Complete event per process is in flight
     and its payload needs no allocation on the heap. *)
  mutable slot_mode : int;
  mutable slot_started : int;
  mutable slot_payload : int option;
  mutable slot_consumed : (I.Channel_id.t * Spi.Token.t list) list;
}

let run ?(policy = Engine.Typical) ?(limits = Engine.default_limits)
    ?(overflow = Spi.Semantics.Reject) ?(stimuli = []) ?(firing_budget = [])
    ?faults plan =
  let start_ns = Obs.Clock.now_ns () in
  let nprocs = Array.length plan.procs in
  let nchan = Array.length plan.chan_decls in
  (* Per-run dispatch plan: the policy realizes every interval once, so
     the loop reads plain ints instead of resolving intervals per
     firing. *)
  let choose = Engine.pick policy in
  let lat =
    Array.map
      (fun cp -> Array.map (fun m -> choose m.cm_latency) cp.pr_modes)
      plan.procs
  in
  let want =
    Array.map
      (fun cp ->
        Array.map
          (fun m -> Array.map (fun c -> choose c.c_rate) m.cm_consumes)
          cp.pr_modes)
      plan.procs
  in
  let nprod =
    Array.map
      (fun cp ->
        Array.map
          (fun m -> Array.map (fun p -> choose p.p_rate) m.cm_produces)
          cp.pr_modes)
      plan.procs
  in
  let chans = Array.init nchan (fun i -> make_chan plan.chan_initial.(i)) in
  let chan_write =
    write ~register:plan.chan_register ~cap:plan.chan_cap ~ids:plan.chan_ids
      ~overflow chans
  in
  let geval p = eval chans p in
  let fstate = Option.map Fault.start faults in
  let pstates =
    Array.map
      (fun cp ->
        let budget =
          match
            List.find_opt
              (fun (q, _) -> I.Process_id.equal q cp.pr_pid)
              firing_budget
          with
          | Some (_, n) -> n
          | None -> if cp.pr_source then 0 else -1
        in
        let conf_ix, conf_id =
          match cp.pr_conf with
          | Some cf when cf.cf_initial >= 0 ->
            (cf.cf_initial, Some cf.cf_ids.(cf.cf_initial))
          | Some _ | None -> (-1, None)
        in
        {
          busy = false;
          budget;
          conf_ix;
          conf_id;
          allowed = None;
          recover_at = 0;
          slot_mode = -1;
          slot_started = 0;
          slot_payload = None;
          slot_consumed = [];
        })
      plan.procs
  in
  let proc_tbl = I.Process_id.Tbl.create (max 16 nprocs) in
  Array.iteri
    (fun i cp -> I.Process_id.Tbl.replace proc_tbl cp.pr_pid i)
    plan.procs;
  (* [Not_found] on an unknown process, mirroring the interpreter's
     index map. *)
  let proc_ix pid = I.Process_id.Tbl.find proc_tbl pid in
  let heap = Heap.Int_heap.create () in
  (* Pending injections and scripted crashes carry ids the int-coded
     heap cannot: they live in side pools indexed by the event code. *)
  let inj_pool = ref (Array.make 16 (None : (I.Channel_id.t * Spi.Token.t) option)) in
  let inj_n = ref 0 in
  let add_inject cid tok =
    if !inj_n = Array.length !inj_pool then begin
      let pool = Array.make (2 * Array.length !inj_pool) None in
      Array.blit !inj_pool 0 pool 0 !inj_n;
      inj_pool := pool
    end;
    !inj_pool.(!inj_n) <- Some (cid, tok);
    let k = !inj_n in
    incr inj_n;
    k
  in
  List.iter
    (fun (s : Engine.stimulus) ->
      Heap.Int_heap.push ~time:s.at (ev_inject (add_inject s.channel s.token))
        heap)
    stimuli;
  let crash_pool =
    match fstate with
    | None -> [||]
    | Some fs ->
      let schedule = Array.of_list (Fault.crash_schedule fs) in
      Array.iteri
        (fun k (_, at) -> Heap.Int_heap.push ~time:at (ev_crash k) heap)
        schedule;
      Array.map fst schedule
  in
  let trace = ref [] in
  let emit e = trace := e :: !trace in
  let firings = ref 0 in
  let reconf_time = ref 0 in
  let back_off now ix latency =
    let ps = pstates.(ix) in
    let until = now + max 1 latency in
    ps.busy <- true;
    ps.recover_at <- until;
    Heap.Int_heap.push ~time:until (ev_recover ix) heap
  in
  let degrade now pid =
    match fstate with
    | None -> ()
    | Some fs ->
      if Fault.should_degrade fs pid then begin
        match (Fault.plan_of fs).Fault.degrade with
        | None -> ()
        | Some d -> (
          let ix = proc_ix pid in
          let ps = pstates.(ix) in
          let from_ = ps.conf_id in
          match d.Fault.fallback pid from_ with
          | None -> ()
          | Some target
            when (match from_ with
                 | Some cur -> not (I.Config_id.equal cur target)
                 | None -> true) ->
            let cp = plan.procs.(ix) in
            let latency, target_ix =
              match cp.pr_conf with
              | Some cf -> (
                match I.Config_id.Tbl.find_opt cf.cf_index target with
                | Some ti -> (cf.cf_latency.(ti), ti)
                | None -> (0, -2))
              | None -> (0, -1)
            in
            reconf_time := !reconf_time + latency;
            ps.conf_ix <- target_ix;
            ps.conf_id <- Some target;
            (match cp.pr_conf with
            | Some cf ->
              ps.allowed <-
                Some
                  (if target_ix >= 0 then cf.cf_masks.(target_ix)
                   else cf.cf_shared_mask)
            | None -> ());
            Fault.mark_degraded fs pid;
            emit
              (Trace.Faulted
                 {
                   time = now;
                   fault =
                     Fault.Degraded { process = pid; from_; to_ = target; latency };
                 });
            List.iter
              (fun (cid, tok) ->
                Heap.Int_heap.push ~time:now (ev_inject (add_inject cid tok))
                  heap)
              (d.Fault.recovery_stimuli pid target);
            back_off now ix latency
          | Some _ -> ())
      end
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
  let consume_mode p_ix m_ix cm =
    let wants = want.(p_ix).(m_ix) in
    let ncons = Array.length cm.cm_consumes in
    let rec go k =
      if k = ncons then []
      else begin
        let c = cm.cm_consumes.(k) in
        let wanted = wants.(k) in
        let toks =
          if c.c_ix < 0 || wanted <= 0 then []
          else begin
            let cs = chans.(c.c_ix) in
            let n = if wanted < cs.count then wanted else cs.count in
            if n <= 0 then []
            else if plan.chan_register.(c.c_ix) then
              (* sampling read: the register keeps its token *)
              [ cs.buf.(cs.head) ]
            else begin
              let rec take n acc =
                if n = 0 then List.rev acc else take (n - 1) (ring_pop cs :: acc)
              in
              take n []
            end
          end
        in
        (c.c_cid, toks) :: go (k + 1)
      end
    in
    go 0
  in
  let try_start now =
    for ix = 0 to nprocs - 1 do
      let cp = plan.procs.(ix) in
      let ps = pstates.(ix) in
      let may_fire =
        (not ps.busy)
        && ps.budget <> 0
        && match fstate with
           | Some fs -> not (Fault.crashed fs cp.pr_pid)
           | None -> true
      in
      if may_fire then begin
        (* First enabled rule; under a degradation mask, the first
           enabled rule whose target mode survives the mask. *)
        let nrules = Array.length cp.pr_rules in
        let chosen = ref (-1) in
        let r = ref 0 in
        (match ps.allowed with
        | None ->
          while !chosen < 0 && !r < nrules do
            if geval cp.pr_rules.(!r).guard then chosen := !r;
            incr r
          done
        | Some mask ->
          while !chosen < 0 && !r < nrules do
            let rule = cp.pr_rules.(!r) in
            if geval rule.guard && rule.target >= 0 && mask.(rule.target) then
              chosen := !r;
            incr r
          done);
        if !chosen >= 0 && cp.pr_rules.(!chosen).target >= 0 then begin
          let m_ix = cp.pr_rules.(!chosen).target in
          let cm = cp.pr_modes.(m_ix) in
          (* Configuration transition this activation would take —
             committed only if the firing actually starts. *)
          let reconfigure, r_target_ix, r_latency =
            match cp.pr_conf with
            | None -> (false, -1, 0)
            | Some cf ->
              if cm.cm_conf < 0 || ps.conf_ix = cm.cm_conf then (false, -1, 0)
              else (true, cm.cm_conf, cf.cf_latency.(cm.cm_conf))
          in
          let aborted =
            reconfigure
            &&
            match fstate with
            | Some fs -> Fault.reconf_fails fs ~time:now cp.pr_pid
            | None -> false
          in
          if aborted then begin
            let cf = Option.get cp.pr_conf in
            let target = cf.cf_ids.(r_target_ix) in
            reconf_time := !reconf_time + r_latency;
            emit
              (Trace.Faulted
                 {
                   time = now;
                   fault =
                     Fault.Reconfiguration_failed
                       { process = cp.pr_pid; target; latency = r_latency };
                 });
            (match fstate with
            | Some fs -> Fault.note_failure fs cp.pr_pid
            | None -> ());
            back_off now ix r_latency;
            degrade now cp.pr_pid
          end
          else begin
            let attempt =
              match fstate with
              | None -> Fault.Proceed { overrun = None }
              | Some fs -> Fault.on_attempt fs ~time:now cp.pr_pid cm.cm_mid
            in
            match attempt with
            | Fault.Retry { retry; backoff } ->
              emit
                (Trace.Faulted
                   {
                     time = now;
                     fault =
                       Fault.Transient_failure
                         { process = cp.pr_pid; mode = cm.cm_mid; retry; backoff };
                   });
              back_off now ix backoff;
              degrade now cp.pr_pid
            | Fault.Exhausted ->
              emit
                (Trace.Faulted
                   {
                     time = now;
                     fault =
                       Fault.Retries_exhausted
                         { process = cp.pr_pid; mode = cm.cm_mid };
                   });
              degrade now cp.pr_pid
            | Fault.Proceed { overrun } ->
              let reconfiguration =
                if not reconfigure then None
                else begin
                  let cf = Option.get cp.pr_conf in
                  let target = cf.cf_ids.(r_target_ix) in
                  ps.conf_ix <- r_target_ix;
                  ps.conf_id <- Some target;
                  Some (target, r_latency)
                end
              in
              let consumed = consume_mode ix m_ix cm in
              let payload =
                if cm.cm_inherit then first_payload consumed else None
              in
              let reconf_latency =
                match reconfiguration with None -> 0 | Some (_, l) -> l
              in
              reconf_time := !reconf_time + reconf_latency;
              let extra = Option.value ~default:0 overrun in
              let latency = reconf_latency + lat.(ix).(m_ix) + extra in
              ps.busy <- true;
              if ps.budget > 0 then ps.budget <- ps.budget - 1;
              incr firings;
              emit
                (Trace.Started
                   {
                     time = now;
                     process = cp.pr_pid;
                     mode = cm.cm_mid;
                     reconfiguration;
                   });
              (match overrun with
              | Some extra ->
                emit
                  (Trace.Faulted
                     {
                       time = now;
                       fault =
                         Fault.Latency_overrun
                           { process = cp.pr_pid; mode = cm.cm_mid; extra };
                     })
              | None -> ());
              ps.slot_mode <- m_ix;
              ps.slot_started <- now;
              ps.slot_payload <- payload;
              ps.slot_consumed <- consumed;
              Heap.Int_heap.push ~time:(now + latency) (ev_complete ix) heap
          end
        end
      end
    done
  in
  let inject_token time k =
    let cid, tok = Option.get !inj_pool.(k) in
    let outcome =
      match fstate with
      | None -> Fault.Deliver
      | Some fs -> Fault.on_token fs ~time cid tok
    in
    let deliver tok =
      (match I.Channel_id.Tbl.find_opt plan.chan_index cid with
      | Some ix -> chan_write ix tok
      | None ->
        (* the interpreter's [Semantics.inject] raises [Not_found] on a
           channel the model does not declare *)
        ignore (Spi.Model.get_channel cid plan.model));
      emit (Trace.Injected { time; channel = cid; token = tok })
    in
    match outcome with
    | Fault.Deliver -> deliver tok
    | Fault.Dropped ->
      emit
        (Trace.Faulted
           { time; fault = Fault.Token_dropped { channel = cid; token = tok } })
    | Fault.Corrupted tok' ->
      emit
        (Trace.Faulted
           {
             time;
             fault = Fault.Token_corrupted { channel = cid; token = tok' };
           });
      deliver tok'
    | Fault.Duplicated ->
      emit
        (Trace.Faulted
           {
             time;
             fault = Fault.Token_duplicated { channel = cid; token = tok };
           });
      deliver tok;
      deliver tok
  in
  let complete time ix =
    let cp = plan.procs.(ix) in
    let ps = pstates.(ix) in
    let m_ix = ps.slot_mode in
    let cm = cp.pr_modes.(m_ix) in
    let ns = nprod.(ix).(m_ix) in
    let nprods = Array.length cm.cm_produces in
    let rec produce k =
      if k = nprods then []
      else begin
        let pr = cm.cm_produces.(k) in
        let n = ns.(k) in
        let tok = Spi.Token.make ~tags:pr.p_tags ?payload:ps.slot_payload () in
        let toks = Spi.Token.replicate n tok in
        if n > 0 then
          if pr.p_ix < 0 then ignore (Spi.Model.get_channel pr.p_cid plan.model)
          else List.iter (fun t -> chan_write pr.p_ix t) toks;
        (pr.p_cid, toks) :: produce (k + 1)
      end
    in
    let produced = produce 0 in
    if ps.recover_at = 0 then ps.busy <- false;
    let firing =
      {
        Spi.Semantics.process = cp.pr_pid;
        mode = cm.cm_mid;
        consumed = ps.slot_consumed;
        produced;
      }
    in
    emit
      (Trace.Completed
         { time; started_at = ps.slot_started; process = cp.pr_pid; firing });
    ps.slot_consumed <- []
  in
  let recover time ix =
    let ps = pstates.(ix) in
    if ps.recover_at <= time then begin
      ps.recover_at <- 0;
      ps.busy <- false
    end
  in
  let crash time k =
    let pid = crash_pool.(k) in
    match fstate with
    | Some fs when not (Fault.crashed fs pid) ->
      Fault.mark_crashed fs pid;
      Fault.note_failure fs pid;
      emit (Trace.Faulted { time; fault = Fault.Crashed { process = pid } });
      degrade time pid
    | Some _ | None -> ()
  in
  let now = ref 0 in
  let outcome = ref Engine.Quiescent in
  try_start 0;
  let rec loop () =
    if !firings > limits.Engine.max_firings then
      outcome := Engine.Firing_limit_reached
    else if Heap.Int_heap.is_empty heap then begin
      emit (Trace.Quiescent { time = !now });
      outcome := Engine.Quiescent
    end
    else begin
      let time = Heap.Int_heap.min_time heap in
      if time > limits.Engine.max_time then
        outcome := Engine.Time_limit_reached
      else begin
        let v = Heap.Int_heap.min_value heap in
        Heap.Int_heap.drop_min heap;
        now := time;
        (match v land 3 with
        | 0 -> inject_token time (v lsr 2)
        | 1 -> complete time (v lsr 2)
        | 2 -> recover time (v lsr 2)
        | _ -> crash time (v lsr 2));
        try_start time;
        loop ()
      end
    end
  in
  loop ();
  let trace = List.rev !trace in
  (* The final channel contents, set in bulk on the plan's initial state
     (ring contents always fit their channel). *)
  let final_state = ref plan.init_state in
  Array.iteri
    (fun i cs ->
      final_state :=
        Spi.Semantics.set_contents plan.chan_ids.(i) (contents cs) !final_state)
    chans;
  Obs.Metric.incr m_compiled_runs;
  Engine.record_metrics ~start_ns trace;
  {
    Engine.trace;
    final_state = !final_state;
    end_time = !now;
    outcome = !outcome;
    firings = !firings;
    reconfiguration_time = !reconf_time;
  }
