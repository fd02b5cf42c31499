module I = Spi.Ids

type plan = {
  table : Crt.table;
  configurations : Variants.Configuration.t list;
  init_state : Spi.Semantics.state;
      (** the reference semantics' initial state, the base every run's
          final state is rebuilt on *)
  key : string;
}

let key plan = plan.key
let model plan = plan.table.model
let configurations plan = plan.configurations

let m_compiles = Obs.Registry.counter "sim.compiles"
let m_compiled_runs = Obs.Registry.counter "sim.compiled_runs"

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
  Obs.Metric.incr m_compiles;
  {
    table = Crt.lower ~configurations model;
    configurations;
    init_state = Spi.Semantics.initial model;
    key = key_of model configurations;
  }

let run ?(policy = Engine.Typical) ?(limits = Engine.default_limits)
    ?(overflow = Spi.Semantics.Reject) ?(stimuli = []) ?(firing_budget = [])
    ?faults ?deadline_ns plan =
  let start_ns = Obs.Clock.now_ns () in
  let r =
    Crt.start ~record:true ~overflow ~stimuli ~firing_budget ?faults plan.table
      (Crt.dispatch policy plan.table)
  in
  let outcome = Crt.loop ?deadline_ns ~limits r in
  let trace = List.rev r.trace in
  (* The final channel contents, set in bulk on the plan's initial state
     (ring contents always fit their channel). *)
  let final_state = ref plan.init_state in
  Array.iteri
    (fun i cs ->
      final_state :=
        Spi.Semantics.set_contents plan.table.chan_ids.(i) (Crt.contents cs)
          !final_state)
    r.chans;
  Obs.Metric.incr m_compiled_runs;
  Engine.record_metrics ~start_ns trace;
  {
    Engine.trace;
    final_state = !final_state;
    end_time = r.now;
    outcome;
    firings = r.firings;
    reconfiguration_time = r.reconf_time;
  }
