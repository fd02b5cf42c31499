module I = Spi.Ids

type policy = Best_case | Worst_case | Typical

type stimulus = { at : int; channel : I.Channel_id.t; token : Spi.Token.t }
type limits = { max_time : int; max_firings : int }

let default_limits = { max_time = 100_000; max_firings = 100_000 }

type outcome = Quiescent | Time_limit_reached | Firing_limit_reached

type result = {
  trace : Trace.t;
  final_state : Spi.Semantics.state;
  end_time : int;
  outcome : outcome;
  firings : int;
  reconfiguration_time : int;
}

let pick policy interval =
  match policy with
  | Best_case -> Interval.lo interval
  | Worst_case -> Interval.hi interval
  | Typical -> Interval.midpoint interval

(* Observability: the engine feeds the registry in one pass over the
   finished trace, after the event loop — the hot loop itself performs
   no atomic operation.  Latencies are model time units (not wall
   time); [sim.run_ns] is the wall-clock span of the whole run. *)
let m_runs = Obs.Registry.counter "sim.runs"
let m_firings = Obs.Registry.counter "sim.firings"
let m_injected = Obs.Registry.counter "sim.tokens_injected"
let m_consumed = Obs.Registry.counter "sim.tokens_consumed"
let m_produced = Obs.Registry.counter "sim.tokens_produced"
let m_faults = Obs.Registry.counter "sim.fault_events"
let m_degradations = Obs.Registry.counter "sim.degradations"

let record_run_metrics ~start_ns ~trace ~latency_hist_of =
  let injected = ref 0
  and firings = ref 0
  and consumed = ref 0
  and produced = ref 0
  and faults = ref 0
  and degradations = ref 0 in
  let tokens ops =
    List.fold_left (fun acc (_, toks) -> acc + List.length toks) 0 ops
  in
  List.iter
    (function
      | Trace.Injected _ -> incr injected
      | Trace.Completed { time; started_at; process; firing } ->
        incr firings;
        consumed := !consumed + tokens firing.Spi.Semantics.consumed;
        produced := !produced + tokens firing.Spi.Semantics.produced;
        Obs.Metric.observe (latency_hist_of process) (time - started_at)
      | Trace.Faulted { fault; _ } -> (
        incr faults;
        match fault with
        | Fault.Degraded _ -> incr degradations
        | _ -> ())
      | Trace.Started _ | Trace.Quiescent _ -> ())
    trace;
  Obs.Metric.incr m_runs;
  Obs.Metric.add m_firings !firings;
  Obs.Metric.add m_injected !injected;
  Obs.Metric.add m_consumed !consumed;
  Obs.Metric.add m_produced !produced;
  Obs.Metric.add m_faults !faults;
  Obs.Metric.add m_degradations !degradations;
  Obs.Registry.record_span ~name:"sim.run_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns)

(* Shared with [Compile.run]: both engines feed the same counters and
   per-process latency histograms, so metrics do not depend on which
   engine produced the trace. *)
let record_metrics ~start_ns trace =
  (* histogram handles resolved once per process, not per completion *)
  let latency_hists = I.Process_id.Tbl.create 16 in
  let latency_hist_of pid =
    match I.Process_id.Tbl.find_opt latency_hists pid with
    | Some h -> h
    | None ->
      let h =
        Obs.Registry.histogram ("sim.latency." ^ I.Process_id.to_string pid)
      in
      I.Process_id.Tbl.add latency_hists pid h;
      h
  in
  record_run_metrics ~start_ns ~trace ~latency_hist_of

(* Events carried by the heap. *)
type event =
  | Inject of I.Channel_id.t * Spi.Token.t
  | Complete of completion
  | Recover of I.Process_id.t
      (** end of a fault backoff or forced-reconfiguration pause *)
  | Crash of I.Process_id.t  (** scripted permanent crash *)

and completion = {
  proc : I.Process_id.t;
  mode : Spi.Mode.t;
  started_at : int;
  payload : int option;
  consumed : (I.Channel_id.t * Spi.Token.t list) list;
}

type process_state = {
  mutable busy : bool;
  mutable budget : int option;  (** [None] = unlimited *)
  mutable confcur : Variants.Configuration.confcur;
  mutable allowed : I.Mode_id.Set.t option;
      (** after degradation: only these modes may fire *)
  mutable recover_at : int;
      (** nonzero while a fault pause is pending: the instant it ends *)
  config : Variants.Configuration.t option;
}

let run ?(policy = Typical) ?(limits = default_limits)
    ?(overflow = Spi.Semantics.Reject) ?(configurations = []) ?(stimuli = [])
    ?(firing_budget = []) ?faults model =
  let start_ns = Obs.Clock.now_ns () in
  let config_of pid =
    List.find_opt
      (fun c -> I.Process_id.equal (Variants.Configuration.process c) pid)
      configurations
  in
  List.iter
    (fun conf ->
      let pid = Variants.Configuration.process conf in
      match Spi.Model.find_process pid model with
      | None ->
        invalid_arg
          (Format.asprintf "Engine.run: configuration for unknown process %a"
             I.Process_id.pp pid)
      | Some proc -> (
        match Variants.Configuration.validate_against proc conf with
        | [] -> ()
        | errors ->
          invalid_arg
            (Format.asprintf "@[<v>Engine.run: bad configuration:@,%a@]"
               (Format.pp_print_list ~pp_sep:Format.pp_print_cut
                  Variants.Configuration.pp_error)
               errors)))
    configurations;
  let budget_of pid p =
    match
      List.find_opt (fun (q, _) -> I.Process_id.equal q pid) firing_budget
    with
    | Some (_, n) -> Some n
    | None ->
      if I.Channel_id.Set.is_empty (Spi.Process.inputs p) then Some 0 else None
  in
  let fstate = Option.map Fault.start faults in
  let processes = Spi.Model.processes model in
  (* Process states live in an array; ids resolve through an index map
     built once, so per-event lookups never convert ids to strings. *)
  let proc_index =
    List.fold_left
      (fun (i, acc) p -> (i + 1, I.Process_id.Map.add (Spi.Process.id p) i acc))
      (0, I.Process_id.Map.empty) processes
    |> snd
  in
  let proc_states =
    Array.of_list
      (List.map
         (fun p ->
           let pid = Spi.Process.id p in
           let config = config_of pid in
           {
             busy = false;
             budget = budget_of pid p;
             confcur =
               (match config with
               | None -> None
               | Some c -> Variants.Configuration.start c);
             allowed = None;
             recover_at = 0;
             config;
           })
         processes)
  in
  let pstate pid = proc_states.(I.Process_id.Map.find pid proc_index) in
  let heap = Heap.create () in
  List.iter
    (fun s -> Heap.push ~time:s.at (Inject (s.channel, s.token)) heap)
    stimuli;
  (match fstate with
  | None -> ()
  | Some fs ->
    List.iter
      (fun (pid, at) -> Heap.push ~time:at (Crash pid) heap)
      (Fault.crash_schedule fs));
  let state = ref (Spi.Semantics.initial model) in
  let trace = ref [] in
  let emit e = trace := e :: !trace in
  let firings = ref 0 in
  let reconf_time = ref 0 in
  let choose_rate = pick policy in
  let process_crashed pid =
    match fstate with Some fs -> Fault.crashed fs pid | None -> false
  in
  (* First enabled activation rule whose target survives the degradation
     mask. *)
  let enabled_rule pid allowed =
    match allowed with
    | None -> Spi.Semantics.enabled_rule model !state pid
    | Some ok -> (
      match Spi.Model.find_process pid model with
      | None -> None
      | Some p ->
        List.find_opt
          (fun r -> I.Mode_id.Set.mem (Spi.Activation.target_mode r) ok)
          (Spi.Activation.enabled
             (Spi.Semantics.view !state)
             (Spi.Process.activation p)))
  in
  (* Fault pause: the process is unavailable until [now + latency] (at
     least one time unit so zero-latency faults cannot spin). *)
  let back_off now pid latency =
    let ps = pstate pid in
    let until = now + max 1 latency in
    ps.busy <- true;
    ps.recover_at <- until;
    Heap.push ~time:until (Recover pid) heap
  in
  (* Modes the process may still run once degraded to [target]: the
     fallback configuration's own modes plus shared modes outside every
     configuration. *)
  let allowed_after_degradation pid conf target =
    let entry_modes =
      match Variants.Configuration.find target conf with
      | Some e -> e.Variants.Configuration.modes
      | None -> I.Mode_id.Set.empty
    in
    let shared =
      match Spi.Model.find_process pid model with
      | None -> I.Mode_id.Set.empty
      | Some p ->
        I.Mode_id.Set.filter
          (fun mid ->
            Option.is_none (Variants.Configuration.config_of_mode mid conf))
          (Spi.Process.mode_ids p)
    in
    I.Mode_id.Set.union entry_modes shared
  in
  (* Watchdog: past the failure threshold, force a reconfiguration to
     the fallback configuration (Def. 3's selection function decides the
     fallback cluster; here its abstracted image decides the fallback
     configuration), pay its t_conf, and restrict the process to the
     fallback's modes. *)
  let degrade now pid =
    match fstate with
    | None -> ()
    | Some fs ->
      if Fault.should_degrade fs pid then begin
        match (Fault.plan_of fs).Fault.degrade with
        | None -> ()
        | Some d -> (
          let ps = pstate pid in
          let from_ = ps.confcur in
          match d.Fault.fallback pid from_ with
          | None -> ()
          | Some target
            when (match from_ with
                 | Some cur -> not (I.Config_id.equal cur target)
                 | None -> true) -> (
            let latency =
              match ps.config with
              | Some conf -> Variants.Configuration.reconf_latency target conf
              | None -> 0
            in
            reconf_time := !reconf_time + latency;
            ps.confcur <- Some target;
            (match ps.config with
            | Some conf ->
              ps.allowed <- Some (allowed_after_degradation pid conf target)
            | None -> ());
            Fault.mark_degraded fs pid;
            emit
              (Trace.Faulted
                 {
                   time = now;
                   fault = Fault.Degraded { process = pid; from_; to_ = target; latency };
                 });
            List.iter
              (fun (cid, tok) -> Heap.push ~time:now (Inject (cid, tok)) heap)
              (d.Fault.recovery_stimuli pid target);
            back_off now pid latency)
          | Some _ -> ())
      end
  in
  (* One scheduling sweep: start every idle process whose activation is
     enabled.  [Model.build] allows one reader per channel, and the
     channels a process's guards read count as its inputs, so a
     consumption changes only the consumer's own inputs and cannot touch
     another process's guard at all (with [!] guards, "only disables"
     would not be enough).  A single pass per event batch therefore
     suffices; newly produced tokens arrive through Complete events
     which trigger the next sweep.  The compiled loop's wake set
     ([Crt.loop]) rests on the same invariant. *)
  let try_start now =
    List.iter
      (fun p ->
        let pid = Spi.Process.id p in
        let ps = pstate pid in
        let may_fire =
          (not ps.busy) && ps.budget <> Some 0 && not (process_crashed pid)
        in
        if may_fire then
          match enabled_rule pid ps.allowed with
          | None -> ()
          | Some rule -> (
            match Spi.Process.find_mode (Spi.Activation.target_mode rule) p with
            | None -> ()
            | Some mode -> (
              let mid = Spi.Mode.id mode in
              (* Configuration transition this activation would take —
                 committed only if the firing actually starts. *)
              let transition =
                Option.map
                  (fun conf ->
                    Variants.Configuration.on_activation conf ps.confcur mid)
                  ps.config
              in
              let aborted_reconf =
                match (transition, fstate) with
                | ( Some (Variants.Configuration.Reconfigure { target; latency }, _),
                    Some fs )
                  when Fault.reconf_fails fs ~time:now pid ->
                  Some (target, latency)
                | _ -> None
              in
              match aborted_reconf with
              | Some (target, latency) ->
                (* the switch aborts after paying t_conf; confcur keeps
                   its old value and the mode does not execute *)
                reconf_time := !reconf_time + latency;
                emit
                  (Trace.Faulted
                     {
                       time = now;
                       fault =
                         Fault.Reconfiguration_failed
                           { process = pid; target; latency };
                     });
                (match fstate with
                | Some fs -> Fault.note_failure fs pid
                | None -> ());
                back_off now pid latency;
                degrade now pid
              | None -> (
                let attempt =
                  match fstate with
                  | None -> Fault.Proceed { overrun = None }
                  | Some fs -> Fault.on_attempt fs ~time:now pid mid
                in
                match attempt with
                | Fault.Retry { retry; backoff } ->
                  emit
                    (Trace.Faulted
                       {
                         time = now;
                         fault =
                           Fault.Transient_failure
                             { process = pid; mode = mid; retry; backoff };
                       });
                  back_off now pid backoff;
                  degrade now pid
                | Fault.Exhausted ->
                  emit
                    (Trace.Faulted
                       {
                         time = now;
                         fault = Fault.Retries_exhausted { process = pid; mode = mid };
                       });
                  degrade now pid
                | Fault.Proceed { overrun } ->
                  let reconfiguration =
                    match transition with
                    | None -> None
                    | Some (Variants.Configuration.Stay, confcur) ->
                      ps.confcur <- confcur;
                      None
                    | Some
                        ( Variants.Configuration.Reconfigure { target; latency },
                          confcur ) ->
                      ps.confcur <- confcur;
                      Some (target, latency)
                  in
                  let state', consumed =
                    Spi.Semantics.consume ~choose_rate mode !state
                  in
                  state := state';
                  let payload = Spi.Semantics.inherited_payload mode consumed in
                  let reconf_latency =
                    match reconfiguration with
                    | None -> 0
                    | Some (_, latency) -> latency
                  in
                  reconf_time := !reconf_time + reconf_latency;
                  let extra = Option.value ~default:0 overrun in
                  let latency =
                    reconf_latency + pick policy (Spi.Mode.latency mode) + extra
                  in
                  ps.busy <- true;
                  ps.budget <- Option.map (fun n -> n - 1) ps.budget;
                  incr firings;
                  emit
                    (Trace.Started
                       { time = now; process = pid; mode = mid; reconfiguration });
                  (match overrun with
                  | Some extra ->
                    emit
                      (Trace.Faulted
                         {
                           time = now;
                           fault =
                             Fault.Latency_overrun
                               { process = pid; mode = mid; extra };
                         })
                  | None -> ());
                  Heap.push ~time:(now + latency)
                    (Complete
                       { proc = pid; mode; started_at = now; payload; consumed })
                    heap))))
      processes
  in
  let inject_token time cid tok =
    let outcome =
      match fstate with
      | None -> Fault.Deliver
      | Some fs -> Fault.on_token fs ~time cid tok
    in
    let deliver tok =
      state := Spi.Semantics.inject ~overflow model cid tok !state;
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
  let now = ref 0 in
  let outcome = ref Quiescent in
  try_start 0;
  let rec loop () =
    if !firings > limits.max_firings then outcome := Firing_limit_reached
    else
      match Heap.pop_min heap with
      | None ->
        emit (Trace.Quiescent { time = !now });
        outcome := Quiescent
      | Some (time, _) when time > limits.max_time ->
        outcome := Time_limit_reached
      | Some (time, event) ->
        now := time;
        (match event with
        | Inject (cid, tok) -> inject_token time cid tok
        | Complete { proc; mode; started_at; payload; consumed } ->
          let state', produced =
            Spi.Semantics.produce ~overflow ~choose_rate model mode
              ~inherited_payload:payload !state
          in
          state := state';
          let ps = pstate proc in
          if ps.recover_at = 0 then ps.busy <- false;
          let firing =
            { Spi.Semantics.process = proc; mode = Spi.Mode.id mode; consumed; produced }
          in
          emit (Trace.Completed { time; started_at; process = proc; firing })
        | Recover pid ->
          let ps = pstate pid in
          if ps.recover_at <= time then begin
            ps.recover_at <- 0;
            ps.busy <- false
          end
        | Crash pid -> (
          match fstate with
          | Some fs when not (Fault.crashed fs pid) ->
            Fault.mark_crashed fs pid;
            Fault.note_failure fs pid;
            emit
              (Trace.Faulted
                 { time; fault = Fault.Crashed { process = pid } });
            degrade time pid
          | Some _ | None -> ()));
        try_start time;
        loop ()
  in
  loop ();
  let trace = List.rev !trace in
  record_metrics ~start_ns trace;
  {
    trace;
    final_state = !state;
    end_time = !now;
    outcome = !outcome;
    firings = !firings;
    reconfiguration_time = !reconf_time;
  }

let pp_policy ppf = function
  | Best_case -> Format.pp_print_string ppf "best-case"
  | Worst_case -> Format.pp_print_string ppf "worst-case"
  | Typical -> Format.pp_print_string ppf "typical"

let pp_outcome ppf = function
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Time_limit_reached -> Format.pp_print_string ppf "time limit reached"
  | Firing_limit_reached -> Format.pp_print_string ppf "firing limit reached"

let pp_summary ppf r =
  Format.fprintf ppf
    "end=%d firings=%d reconf_time=%d outcome=%a" r.end_time r.firings
    r.reconfiguration_time pp_outcome r.outcome
