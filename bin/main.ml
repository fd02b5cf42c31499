(* spi-variants: command-line front end.

   Subcommands:
     models       list the bundled models
     validate     validate a variant system
     simulate     run a model under scripted stimuli and print stats
     analyze      static analysis (rate balance, deadlocks, queue bounds)
     dot          export a model graph to Graphviz
     synthesize   HW/SW partitioning for the Table 1 example
     pareto       cost/load frontier for the Table 1 example *)

open Cmdliner

module F1 = Paper.Figure1
module F2 = Paper.Figure2
module V = Variants

(* ------------------------------------------------------------------ *)
(* Model registry.                                                     *)
(* ------------------------------------------------------------------ *)

type bundled = {
  description : string;
  model : unit -> Spi.Model.t;
  configurations : unit -> V.Configuration.t list;
  stimuli : unit -> Sim.Engine.stimulus list;
  budgets : (Spi.Ids.Process_id.t * int) list;
  system : (unit -> V.System.t) option;
      (** the variant system behind the model, when it has one —
          [simulate --family] evaluates its whole space in one pass *)
}

let video_bundled ~with_valves =
  let built =
    lazy (Video.System.build { Video.System.default_params with with_valves })
  in
  {
    description =
      (if with_valves then
         "Figure 4 reconfigurable video system (valves active)"
       else "Figure 4 video system without valves (unsafe)");
    model = (fun () -> (Lazy.force built).Video.System.model);
    configurations =
      (fun () -> (Lazy.force built).Video.System.configurations);
    stimuli =
      (fun () ->
        Video.Scenario.switching_demo ~frames:40 ~period:5
          ~switches:[ (52, "fB"); (120, "fA") ]
          ());
    budgets = [];
    system = None;
  }

let figure3_bundled tag_name tag =
  let built = lazy (V.Flatten.abstract F2.system_with_selection) in
  {
    description =
      Format.sprintf
        "Figure 3 abstract model, user selects %s at start-up" tag_name;
    model = (fun () -> fst (Lazy.force built));
    configurations = (fun () -> snd (Lazy.force built));
    stimuli =
      (fun () ->
        {
          Sim.Engine.at = 0;
          channel = F2.cv;
          token = Spi.Token.make ~tags:(Spi.Tag.Set.singleton tag) ();
        }
        :: List.init 5 (fun i ->
               {
                 Sim.Engine.at = 2 + (3 * i);
                 channel = F2.cx;
                 token = Spi.Token.make ~payload:(i + 1) ();
               }));
    budgets = [ (F2.p_user, 0) ];
    system = Some (fun () -> F2.system_with_selection);
  }

let models : (string * bundled) list =
  [
    ( "figure1",
      {
        description = "Figure 1 SPI example (p1 -> p2 -> p3)";
        model = (fun () -> F1.model);
        configurations = (fun () -> []);
        stimuli = (fun () -> F1.stimuli_mixed ~n:8);
        budgets = [];
        system = None;
      } );
    ( "figure2-g1",
      {
        description = "Figure 2 system flattened with cluster g1";
        model =
          (fun () ->
            V.Flatten.flatten F2.system
              (V.Flatten.choice_of_list [ ("iface1", "g1") ]));
        configurations = (fun () -> []);
        stimuli =
          (fun () ->
            List.init 5 (fun i ->
                {
                  Sim.Engine.at = 1 + (3 * i);
                  channel = F2.cx;
                  token = Spi.Token.make ~payload:(i + 1) ();
                }));
        budgets = [];
        system = Some (fun () -> F2.system);
      } );
    ( "figure2-g2",
      {
        description = "Figure 2 system flattened with cluster g2";
        model =
          (fun () ->
            V.Flatten.flatten F2.system
              (V.Flatten.choice_of_list [ ("iface1", "g2") ]));
        configurations = (fun () -> []);
        stimuli =
          (fun () ->
            List.init 5 (fun i ->
                {
                  Sim.Engine.at = 1 + (3 * i);
                  channel = F2.cx;
                  token = Spi.Token.make ~payload:(i + 1) ();
                }));
        budgets = [];
        system = Some (fun () -> F2.system);
      } );
    ("figure3-v1", figure3_bundled "V1" F2.tag_v1);
    ("figure3-v2", figure3_bundled "V2" F2.tag_v2);
    ("video", video_bundled ~with_valves:true);
    ("video-novalves", video_bundled ~with_valves:false);
  ]

let model_names = List.map fst models

let lookup_model name =
  match List.assoc_opt name models with
  | Some b -> Ok b
  | None ->
    Error
      (`Msg
        (Format.sprintf "unknown model %s (available: %s)" name
           (String.concat ", " model_names)))

let model_arg =
  let model_conv =
    Arg.conv
      ( (fun s -> lookup_model s),
        (fun ppf (_ : bundled) -> Format.pp_print_string ppf "<model>") )
  in
  Arg.(
    required
    & pos 0 (some model_conv) None
    & info [] ~docv:"MODEL" ~doc:(Format.sprintf "One of: %s." (String.concat ", " model_names)))

(* ------------------------------------------------------------------ *)
(* Shared options.                                                     *)
(* ------------------------------------------------------------------ *)

(* Every command that exercises a hot path takes [--metrics FILE] and
   writes the obs/v1 registry snapshot there on the way out — including
   the early exits through [exit_on_outcome], which is why the write
   happens before the exit-code checks. *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the obs/v1 metrics snapshot (counters, histograms, spans) \
           to $(docv) on exit; $(b,-) dumps the human-readable table to \
           stderr instead")

let write_metrics = function
  | None -> ()
  | Some "-" -> Obs.Registry.dump Format.err_formatter
  | Some path -> Obs.Registry.to_file path

let span_capacity_arg =
  Arg.(
    value
    & opt int (Obs.Registry.span_capacity ())
    & info [ "span-capacity" ] ~docv:"N"
        ~doc:
          "Capacity of the span ring buffer (older spans are dropped and \
           counted once it wraps)")

let apply_span_capacity n =
  if n < 1 then begin
    Format.eprintf "--span-capacity must be positive@.";
    exit 1
  end;
  Obs.Registry.set_span_capacity n

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains (1 = run on the calling domain, 0 = one per \
           recommended domain).  The count changes speed, never an optimal \
           cost or a simulation result.")

let resolve_jobs = function 0 -> Synth.Par.available_jobs () | j -> j

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Textual-format commands.                                            *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"A system description in the .spi format")

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let load_system path =
  let source = read_file path in
  try Ok (Lang.Parser.system_of_string source) with
  | Lang.Parser.Parse_error { line; col; message }
  | Lang.Parser.Too_large { line; col; message; limit = _ } ->
    Error (Lang.Error_report.render ~source ~path ~line ~col ~message)
  | Invalid_argument message -> Error (Format.sprintf "%s: %s" path message)

let with_system path f =
  match load_system path with
  | Ok system -> f system
  | Error message ->
    Format.eprintf "%s@." message;
    exit 1

let fmt_cmd =
  let run path =
    with_system path (fun system ->
        print_string (Lang.Printer.to_string system))
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse and pretty-print a .spi file")
    Term.(const run $ file_arg)

let check_cmd =
  let run path =
    with_system path (fun system ->
        match V.System.validate system with
        | [] ->
          Format.printf "%s: OK (%a)@." path V.System.pp system;
          let constraints = V.System.constraints system in
          List.iter
            (fun (clusters, model) ->
              Format.printf "  %-24s %a@."
                (String.concat "+" (List.map Spi.Ids.Cluster_id.to_string clusters))
                Spi.Model.pp_stats model;
              let latency_of pid =
                match Spi.Model.find_process pid model with
                | Some p -> Interval.hi (Spi.Process.latency_hull p)
                | None -> 0
              in
              List.iter
                (fun (c, o) ->
                  Format.printf "    %a: %a@." Spi.Constraint_.pp c
                    Spi.Constraint_.pp_outcome o)
                (Spi.Constraint_.check_all ~latency_of model constraints))
            (V.Flatten.applications system)
        | errors ->
          Format.printf "%s: %d errors@." path (List.length errors);
          List.iter (fun e -> Format.printf "  %a@." V.System.pp_error e) errors;
          exit 1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a .spi file and list its applications")
    Term.(const run $ file_arg)

let analyze_file_cmd =
  let run path =
    with_system path (fun system ->
        match V.System.validate system with
        | _ :: _ as errors ->
          List.iter (fun e -> Format.printf "%a@." V.System.pp_error e) errors;
          exit 1
        | [] ->
          List.iter
            (fun (clusters, model) ->
              Format.printf "@.=== %s ===@."
                (String.concat "+" (List.map Spi.Ids.Cluster_id.to_string clusters));
              Format.printf "rate balance:@.";
              List.iter
                (fun (cid, b) ->
                  Format.printf "  %-12s %a@."
                    (Spi.Ids.Channel_id.to_string cid)
                    Spi.Analysis.pp_balance b)
                (Spi.Analysis.balance_report model);
              (match Spi.Analysis.bottleneck model with
              | Some (pid, latency) ->
                Format.printf "bottleneck: %a (latency %d)@."
                  Spi.Ids.Process_id.pp pid latency
              | None -> ());
              match Spi.Analysis.deadlock_candidates model with
              | [] -> Format.printf "no deadlock candidates@."
              | comps ->
                List.iter
                  (fun comp ->
                    Format.printf "deadlock candidate: {%s}@."
                      (String.concat ", "
                         (List.map Spi.Ids.Process_id.to_string comp)))
                  comps)
            (V.Flatten.applications system))
  in
  Cmd.v
    (Cmd.info "analyze-file"
       ~doc:"Static analysis of every application of a .spi file")
    Term.(const run $ file_arg)

let synthesize_file_cmd =
  let tech_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "tech" ] ~docv:"TECHFILE" ~doc:"Technology library (tech format)")
  in
  let run path tech_path metrics_path =
    with_system path (fun system ->
        (match V.System.validate system with
        | [] -> ()
        | errors ->
          List.iter (fun e -> Format.eprintf "%a@." V.System.pp_error e) errors;
          exit 1);
        let tech =
          try Lang.Tech_file.of_file tech_path with
          | Lang.Parser.Parse_error { line; col; message } ->
            Format.eprintf "%s:%d:%d: %s@." tech_path line col message;
            exit 1
          | Invalid_argument m ->
            Format.eprintf "%s: %s@." tech_path m;
            exit 1
        in
        let apps = Synth.App.of_system system in
        let models =
          List.map
            (fun (clusters, model) ->
              ( String.concat "+" (List.map Spi.Ids.Cluster_id.to_string clusters),
                model ))
            (V.Flatten.applications system)
        in
        let report =
          Synth.Report.build ~models
            ~constraints:(V.System.constraints system)
            tech apps
        in
        Format.printf "%a@." Synth.Report.pp report;
        write_metrics metrics_path;
        if Option.is_none report.Synth.Report.optimal then exit 1)
  in
  Cmd.v
    (Cmd.info "synthesize-file"
       ~doc:"Variant-aware synthesis of a .spi file against a tech library")
    Term.(const run $ file_arg $ tech_arg $ metrics_arg)

let lint_cmd =
  let run path =
    with_system path (fun system ->
        let result = V.Lint.run system in
        Format.printf "%a" V.Lint.pp result;
        if not (V.Lint.is_clean result) then exit 1)
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Run every static check over a .spi file")
    Term.(const run $ file_arg)

let export_cmd =
  let exportable =
    [
      ("figure2", fun () -> F2.system);
      ("figure3", fun () -> F2.system_with_selection);
      ( "generated",
        fun () ->
          V.Generator.generate
            { V.Generator.default with sites = 2; variants_per_site = 3 } );
    ]
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum exportable)) None
      & info [] ~docv:"SYSTEM"
          ~doc:"figure2, figure3 or generated")
  in
  let run make = print_string (Lang.Printer.to_string (make ())) in
  Cmd.v
    (Cmd.info "export" ~doc:"Print a bundled system in the .spi format")
    Term.(const run $ name_arg)

let models_cmd =
  let run () =
    List.iter
      (fun (name, b) -> Format.printf "%-16s %s@." name b.description)
      models
  in
  Cmd.v (Cmd.info "models" ~doc:"List the bundled models") Term.(const run $ const ())

let validate_cmd =
  let run () =
    let check name system =
      match V.System.validate system with
      | [] -> Format.printf "%-10s OK (%a)@." name V.System.pp system
      | errors ->
        Format.printf "%-10s %d errors@." name (List.length errors);
        List.iter (fun e -> Format.printf "  %a@." V.System.pp_error e) errors
    in
    check "figure2" F2.system;
    check "figure3" F2.system_with_selection;
    let generated =
      V.Generator.generate { V.Generator.default with sites = 2; variants_per_site = 3 }
    in
    check "generated" generated;
    List.iter
      (fun iface ->
        match V.Interface.ambiguous_selection_pairs iface with
        | [] -> ()
        | pairs ->
          Format.printf "figure3 interface %a: %d selection rule pairs not \
                         provably disjoint@."
            Spi.Ids.Interface_id.pp (V.Interface.id iface)
            (List.length pairs))
      (V.System.interfaces F2.system_with_selection)
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate the bundled variant systems")
    Term.(const run $ const ())

let policy_arg =
  let policy_conv =
    Arg.enum
      [
        ("best", Sim.Engine.Best_case);
        ("typical", Sim.Engine.Typical);
        ("worst", Sim.Engine.Worst_case);
      ]
  in
  Arg.(
    value & opt policy_conv Sim.Engine.Typical
    & info [ "policy" ] ~docv:"POLICY" ~doc:"best, typical or worst")

let print_trace_flag =
  Arg.(
    value & flag
    & info [ "print-trace" ] ~doc:"Print the full execution trace")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a trace/v1 timeline (Chrome trace-event JSON, loadable in \
           Perfetto or chrome://tracing) to $(docv).  Streamed \
           incrementally: each run's events are appended as the campaign \
           progresses, so memory stays bounded")

let trace_buffered_flag =
  Arg.(
    value & flag
    & info [ "trace-buffered" ]
        ~doc:
          "Hold the whole timeline in memory and write $(b,--trace) once at \
           the end instead of streaming (the output bytes are identical)")

(* One handle regardless of export mode: [flush] after each run's emit
   (a no-op when buffered), [finish] once at the end. *)
type trace_out = {
  sink : Obs.Trace_event.sink;
  flush : unit -> unit;
  finish : unit -> unit;
}

let trace_out ~buffered path =
  Option.map
    (fun p ->
      let written n =
        Format.printf "@.timeline written to %s (%d events)@." p n
      in
      if buffered then begin
        let builder = Obs.Trace_event.create () in
        {
          sink = Obs.Trace_event.buffer_sink builder;
          flush = (fun () -> ());
          finish =
            (fun () ->
              Obs.Trace_event.to_file p builder;
              written (Obs.Trace_event.length builder));
        }
      end
      else begin
        let stream = Obs.Trace_stream.create p in
        {
          sink = Obs.Trace_stream.sink stream;
          flush = (fun () -> Obs.Trace_stream.flush stream);
          finish = (fun () -> written (Obs.Trace_stream.close stream));
        }
      end)
    path

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Write a VCD waveform dump to $(docv)")

(* Distinct exit codes so scripts can tell a clean quiescent run from a
   simulation cut short by a limit. *)
let exit_code_of_outcome = function
  | Sim.Engine.Quiescent -> 0
  | Sim.Engine.Time_limit_reached -> 2
  | Sim.Engine.Firing_limit_reached -> 3

let exit_on_outcome outcome =
  let code = exit_code_of_outcome outcome in
  if code <> 0 then exit code

(* ------------------------------------------------------------------ *)
(* Family-based simulation (whole variant space in one pass).          *)
(* ------------------------------------------------------------------ *)

let family_flag =
  Arg.(
    value & flag
    & info [ "family" ]
        ~doc:
          "Evaluate the whole variant space in one featured pass \
           (Sim.Family_compiled): shared prefixes execute once, the run \
           splits into sub-families only where configurations diverge, and \
           every configuration's result is reported — identical to running \
           each flattened configuration separately")

let deadline_opt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"D"
        ~doc:
          "With $(b,--family): also report per-configuration deadline \
           headroom ($(docv) minus the configuration's makespan)")

let outcome_label = function
  | Sim.Engine.Quiescent -> "ok"
  | Sim.Engine.Time_limit_reached -> "time-lim"
  | Sim.Engine.Firing_limit_reached -> "fire-lim"

(* Per-configuration table of a family report: outcome, firing count,
   makespan (and headroom against a deadline), the deepest buffer any
   channel reached, and the configuration's assignment. *)
let print_family_report ?deadline system report =
  Format.printf "%a@." Sim.Family.pp_summary report;
  let spans = Sim.Family.makespans report in
  Format.printf "@.%4s  %-9s %8s %9s %9s %8s  %s@." "cfg" "outcome" "firings"
    "makespan" "headroom" "buf-max" "assignment";
  Array.iteri
    (fun i cr ->
      let model =
        V.Flatten.flatten system
          (V.Variant_space.to_choice cr.Sim.Family.assignment)
      in
      let stats = Sim.Stats.of_result model cr.Sim.Family.result in
      let makespan = snd spans.(i) in
      let headroom =
        match deadline with
        | Some d -> string_of_int (d - makespan)
        | None -> "-"
      in
      let buf_max =
        List.fold_left
          (fun acc c -> max acc c.Sim.Stats.high_water)
          0 stats.Sim.Stats.channels
      in
      Format.printf "%4d  %-9s %8d %9d %9s %8d  %a@." i
        (outcome_label cr.Sim.Family.result.Sim.Engine.outcome)
        cr.Sim.Family.result.Sim.Engine.firings makespan headroom buf_max
        V.Variant_space.pp_assignment cr.Sim.Family.assignment)
    report.Sim.Family.runs

let family_worst_code report =
  Array.fold_left
    (fun acc cr ->
      max acc (exit_code_of_outcome cr.Sim.Family.result.Sim.Engine.outcome))
    0 report.Sim.Family.runs

(* [tokens] stimuli on every shared (unprefixed) boundary input, [spacing]
   time units apart: every configuration of the space has these
   channels, whichever clusters it picks. *)
let shared_boundary_stimuli ~tokens ~spacing system =
  let first = V.Flatten.flatten system (V.Flatten.first_cluster system) in
  List.concat_map
    (fun cid ->
      if String.contains (Spi.Ids.Channel_id.to_string cid) '.' then []
      else
        List.init tokens (fun i ->
            {
              Sim.Engine.at = 1 + (spacing * i);
              channel = cid;
              token = Spi.Token.make ~payload:(i + 1) ();
            }))
    (Spi.Ids.Channel_id.Set.elements (Spi.Model.unwritten_channels first))

let print_config_traces ~title report =
  Array.iter
    (fun cr ->
      Format.printf "@.--- %s configuration %d (%a) ---@.%a@." title
        cr.Sim.Family.index V.Variant_space.pp_assignment
        cr.Sim.Family.assignment Sim.Trace.pp
        cr.Sim.Family.result.Sim.Engine.trace)
    report.Sim.Family.runs

(* The tail of every family command: the family-lane timeline of one
   report, the metrics snapshot, and the exit code of the worst
   configuration over all [reports]. *)
let finish_family ~trace_path ~trace_buffered ~metrics_path system ~timeline
    reports =
  Option.iter
    (fun out ->
      Option.iter (Sim.Family.emit_timeline out.sink system) timeline;
      out.flush ();
      out.finish ())
    (trace_out ~buffered:trace_buffered trace_path);
  write_metrics metrics_path;
  let code =
    List.fold_left (fun acc r -> max acc (family_worst_code r)) 0 reports
  in
  if code <> 0 then exit code

(* One featured pass, its per-configuration table, and the shared tail —
   simulate and simulate-file differ only in how they build the scenario. *)
let simulate_family ?firing_budget ~policy ~stimuli ~jobs ~deadline ~show_trace
    ~trace_path ~trace_buffered ~metrics_path system =
  let report =
    Sim.Family_compiled.run ~policy ~stimuli ?firing_budget
      ~jobs:(resolve_jobs jobs)
      (Sim.Family_compiled.plan system)
  in
  print_family_report ?deadline system report;
  if show_trace then print_config_traces ~title:"trace of" report;
  finish_family ~trace_path ~trace_buffered ~metrics_path system
    ~timeline:(Some report) [ report ]

let simulate_cmd =
  let run_family bundled policy jobs deadline show_trace trace_path
      trace_buffered metrics_path =
    match bundled.system with
    | None ->
      Format.eprintf
        "simulate: this model has no variant space behind it; --family works \
         on figure2-g1, figure2-g2, figure3-v1 and figure3-v2@.";
      exit 1
    | Some sys ->
      Format.printf "%s — whole variant space in one featured pass@."
        bundled.description;
      simulate_family ~firing_budget:bundled.budgets ~policy
        ~stimuli:(bundled.stimuli ()) ~jobs ~deadline ~show_trace ~trace_path
        ~trace_buffered ~metrics_path (sys ())
  in
  let run bundled policy family jobs deadline show_trace vcd_path trace_path
      trace_buffered span_capacity metrics_path =
    apply_span_capacity span_capacity;
    if family then
      run_family bundled policy jobs deadline show_trace trace_path
        trace_buffered metrics_path
    else begin
      let model = bundled.model () in
      let configurations = bundled.configurations () in
      let stimuli = bundled.stimuli () in
      let result =
        Sim.Compile.run ~policy ~stimuli ~firing_budget:bundled.budgets
          (Sim.Compile.compile ~configurations model)
      in
      Format.printf "%s@." bundled.description;
      Format.printf "%a@." Sim.Engine.pp_summary result;
      let stats = Sim.Stats.of_result model result in
      Format.printf "@.%a@." Sim.Stats.pp stats;
      if show_trace then
        Format.printf "@.%a@." Sim.Trace.pp result.Sim.Engine.trace;
      (match vcd_path with
      | None -> ()
      | Some path ->
        Sim.Vcd.to_file path model result;
        Format.printf "@.VCD written to %s@." path);
      (match trace_out ~buffered:trace_buffered trace_path with
      | None -> ()
      | Some out ->
        Sim.Timeline.emit out.sink model result;
        out.flush ();
        out.finish ());
      write_metrics metrics_path;
      exit_on_outcome result.Sim.Engine.outcome
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate a bundled model (exits 0 when quiescent, 2 on the time \
          limit, 3 on the firing limit); with $(b,--family), evaluate the \
          model's whole variant space in one featured pass and exit with \
          the worst configuration's code")
    Term.(
      const run $ model_arg $ policy_arg $ family_flag $ jobs_arg
      $ deadline_opt_arg $ print_trace_flag $ vcd_arg $ trace_arg
      $ trace_buffered_flag $ span_capacity_arg $ metrics_arg)

let faultsim_cmd =
  let model_name_arg =
    Arg.(
      value & opt string "video"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "video or video-novalves; with $(b,--family): figure2, figure3 \
             or generated")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeded fault scenarios")
  in
  let no_faults_flag =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:"Run the same campaign without injecting any fault (baseline)")
  in
  let deadline_arg =
    Arg.(
      value & opt int 25
      & info [ "deadline" ] ~docv:"D"
          ~doc:"Frame latency budget counted as missed when exceeded")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.02
      & info [ "drop" ] ~docv:"P" ~doc:"Frame loss probability on CVin")
  in
  let transient_arg =
    Arg.(
      value & opt float 0.05
      & info [ "transient" ] ~docv:"P"
          ~doc:"Transient firing-failure probability per stage attempt")
  in
  let trace_seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "trace-seed" ] ~docv:"SEED"
          ~doc:"Also print the full trace of this seed's run")
  in
  (* --family: the campaign runs over a variant system instead of the
     video model — every seed is one featured pass over the whole space,
     and a configuration misses the deadline when its makespan exceeds
     it.  Fault plans are scripted over the first configuration's model;
     entries naming elements absent from another configuration are inert
     there, exactly as in that configuration's own engine run. *)
  let family_systems =
    [
      ("figure2", fun () -> F2.system);
      ("figure3", fun () -> F2.system_with_selection);
      ( "generated",
        fun () ->
          V.Generator.generate
            { V.Generator.default with sites = 2; variants_per_site = 2 } );
    ]
  in
  let family_fault_plan ~drop ~transient ~seed model =
    let processes =
      List.map
        (fun p ->
          Sim.Fault.on_process
            ~transient:(Sim.Fault.Probability transient)
            ~max_retries:2 ~backoff:1 (Spi.Process.id p))
        (Spi.Model.processes model)
    in
    let channels =
      match
        Spi.Ids.Channel_id.Set.elements (Spi.Model.unwritten_channels model)
      with
      | [] -> []
      | cid :: _ ->
        [ Sim.Fault.on_channel cid Sim.Fault.Drop (Sim.Fault.Probability drop) ]
    in
    Sim.Fault.plan ~channels ~processes ~seed ()
  in
  let run_family model_name seeds no_faults deadline drop transient trace_seed
      jobs trace_path trace_buffered metrics_path =
    let system =
      match List.assoc_opt model_name family_systems with
      | Some make -> make ()
      | None ->
        Format.eprintf
          "faultsim: unknown family system %s (available with --family: %s)@."
          model_name
          (String.concat ", " (List.map fst family_systems));
        exit 1
    in
    let first = V.Flatten.flatten system (V.Flatten.first_cluster system) in
    let stimuli = shared_boundary_stimuli ~tokens:5 ~spacing:3 system in
    Format.printf "family fault campaign: %s, %d seeds%s@." model_name seeds
      (if no_faults then " (faults disabled)" else "");
    (* the variant space is lowered once and every seed's featured pass
       reuses the plan (it is immutable, so the domain pool shares it
       freely) *)
    let plan = Sim.Family_compiled.plan system in
    Format.printf "%4s  %-9s %4s %6s %6s %8s %8s %5s@." "seed" "outcome" "cfgs"
      "splits" "subfam" "executed" "shared" "miss";
    let total_miss = ref 0 in
    let reports =
      List.map
        (fun seed ->
          let faults =
            if no_faults then None
            else Some (family_fault_plan ~drop ~transient ~seed first)
          in
          let report =
            Sim.Family_compiled.run ~stimuli ?faults ~jobs:(resolve_jobs jobs)
              plan
          in
          (* headroom is computed once per leaf sub-family and fanned
             out to the leaf's members — a configuration misses the
             deadline when its headroom is negative *)
          let misses =
            Array.fold_left
              (fun acc (_, h) -> if h < 0 then acc + 1 else acc)
              0
              (Sim.Family.headroom ~deadline report)
          in
          total_miss := !total_miss + misses;
          let worst_outcome =
            Array.fold_left
              (fun acc cr ->
                let o = cr.Sim.Family.result.Sim.Engine.outcome in
                if exit_code_of_outcome o > exit_code_of_outcome acc then o
                else acc)
              Sim.Engine.Quiescent report.Sim.Family.runs
          in
          Format.printf "%4d  %-9s %4d %6d %6d %8d %8d %5d@." seed
            (outcome_label worst_outcome)
            (Array.length report.Sim.Family.runs)
            report.Sim.Family.splits report.Sim.Family.subfamilies
            report.Sim.Family.executed_firings report.Sim.Family.shared_firings
            misses;
          if trace_seed = Some seed then
            print_config_traces ~title:(Printf.sprintf "seed %d," seed) report;
          (seed, report))
        (List.init seeds (fun i -> i + 1))
    in
    (* per-configuration worst case over the campaign, from the
       per-leaf headroom of each seed's report *)
    (match reports with
    | [] -> ()
    | (_, r0) :: _ ->
      let n = Array.length r0.Sim.Family.runs in
      let worst = Array.make n max_int in
      let missed = Array.make n 0 in
      List.iter
        (fun (_, report) ->
          Array.iter
            (fun (i, h) ->
              worst.(i) <- min worst.(i) h;
              if h < 0 then missed.(i) <- missed.(i) + 1)
            (Sim.Family.headroom ~deadline report))
        reports;
      Format.printf "@.%4s %9s %6s  %s@." "cfg" "headroom" "missed" "assignment";
      Array.iteri
        (fun i cr ->
          Format.printf "%4d %9d %6d  %a@." i worst.(i) missed.(i)
            V.Variant_space.pp_assignment cr.Sim.Family.assignment)
        r0.Sim.Family.runs);
    Format.printf
      "@.totals: %d deadline-misses across %d seeds x %d configurations@."
      !total_miss seeds (Sim.Family_compiled.configurations plan);
    (* the family lane convention assigns pid = configuration index + 1,
       so one exported seed keeps the lanes unambiguous; --trace-seed
       selects it (default: first seed) *)
    finish_family ~trace_path ~trace_buffered ~metrics_path system
      ~timeline:
        (List.assoc_opt (Option.value trace_seed ~default:1) reports)
      (List.map snd reports)
  in
  let run model_name seeds no_faults family deadline drop transient trace_seed
      jobs trace_path trace_buffered span_capacity metrics_path =
    apply_span_capacity span_capacity;
    if seeds < 1 then begin
      Format.eprintf "faultsim: --seeds must be positive@.";
      exit 1
    end;
    if family then
      run_family model_name seeds no_faults deadline drop transient trace_seed
        jobs trace_path trace_buffered metrics_path
    else
    let with_valves =
      match model_name with
      | "video" -> true
      | "video-novalves" -> false
      | other ->
        Format.eprintf
          "faultsim: unknown model %s (available: video, video-novalves)@."
          other;
        exit 1
    in
    let jobs = resolve_jobs jobs in
    let built =
      Video.System.build { Video.System.default_params with with_valves }
    in
    let stimuli =
      Video.Scenario.switching_demo ~frames:40 ~period:5
        ~switches:[ (52, "fB"); (120, "fA") ]
        ()
    in
    Format.printf "fault campaign: %s, %d seeds%s@." model_name seeds
      (if no_faults then " (faults disabled)" else "");
    (* The model is specialized once and every seed's run reuses the
       plan; the plan is immutable, so the domain pool shares it freely. *)
    let plan =
      Sim.Compile.compile ~configurations:built.Video.System.configurations
        built.Video.System.model
    in
    Format.printf "%4s  %-9s %7s %6s %5s %5s %4s %4s %4s %4s  %s@." "seed"
      "outcome" "firings" "faults" "degr" "clean" "held" "drop" "miss" "inv"
      "reconf";
    (* Each seed is independent, so the campaign fans out across the
       domain pool; all printing and aggregation happen afterwards in
       seed order, so the report is identical for every job count. *)
    let run_seed seed =
      let faults =
        if no_faults then None
        else
          Some
            (Video.Scenario.fault_plan ~drop_probability:drop
               ~transient_probability:transient ~seed built)
      in
      let result = Sim.Compile.run ~stimuli ?faults plan in
      let report = Video.Checker.check result in
      let stats = Sim.Stats.of_result built.Video.System.model result in
      let misses =
        List.length
          (List.filter
             (fun (_, l) -> l > deadline)
             report.Video.Checker.frame_latencies)
      in
      (seed, result, report, stats, misses)
    in
    let runs =
      Synth.Par.map ~jobs run_seed (Array.init seeds (fun i -> i + 1))
    in
    let survived = ref 0
    and total_faults = ref 0
    and total_degr = ref 0
    and total_clean = ref 0
    and total_held = ref 0
    and total_drop = ref 0
    and total_miss = ref 0
    and unsafe_seeds = ref []
    and worst_code = ref 0 in
    Array.iter
      (fun (seed, result, report, stats, misses) ->
        let safe = Video.Checker.is_safe report in
        let alive =
          result.Sim.Engine.outcome = Sim.Engine.Quiescent
          && report.Video.Checker.clean > 0
          && safe
        in
        if alive then incr survived;
        if not safe then unsafe_seeds := seed :: !unsafe_seeds;
        total_faults :=
          !total_faults + Sim.Stats.total_faults stats.Sim.Stats.faults;
        total_degr :=
          !total_degr + stats.Sim.Stats.faults.Sim.Stats.degradations;
        total_clean := !total_clean + report.Video.Checker.clean;
        total_held := !total_held + report.Video.Checker.held;
        total_drop := !total_drop + report.Video.Checker.dropped;
        total_miss := !total_miss + misses;
        worst_code :=
          max !worst_code (exit_code_of_outcome result.Sim.Engine.outcome);
        let outcome_label =
          match result.Sim.Engine.outcome with
          | Sim.Engine.Quiescent -> "ok"
          | Sim.Engine.Time_limit_reached -> "time-lim"
          | Sim.Engine.Firing_limit_reached -> "fire-lim"
        in
        Format.printf "%4d  %-9s %7d %6d %5d %5d %4d %4d %4d %4d  %d@." seed
          outcome_label result.Sim.Engine.firings
          (Sim.Stats.total_faults stats.Sim.Stats.faults)
          stats.Sim.Stats.faults.Sim.Stats.degradations
          report.Video.Checker.clean report.Video.Checker.held
          report.Video.Checker.dropped misses
          (List.length report.Video.Checker.invalid_clean)
          report.Video.Checker.reconfiguration_time;
        if trace_seed = Some seed then
          Format.printf "@.--- trace of seed %d ---@.%a@.@." seed Sim.Trace.pp
            result.Sim.Engine.trace)
      runs;
    Format.printf "@.survival: %d/%d seeds quiescent, safe and producing@."
      !survived seeds;
    Format.printf
      "totals: %d faults, %d degradations, frames clean=%d held=%d dropped=%d \
       deadline-misses=%d@."
      !total_faults !total_degr !total_clean !total_held !total_drop !total_miss;
    (match List.rev !unsafe_seeds with
    | [] -> ()
    | seeds ->
      Format.printf "unsafe seeds (invalid clean output): %s@."
        (String.concat ", " (List.map string_of_int seeds)));
    let results =
      Array.to_list (Array.map (fun (_, result, _, _, _) -> result) runs)
    in
    Format.printf "@.%a@."
      Video.Checker.pp_headroom
      (Video.Checker.deadline_headroom built.Video.System.model results);
    (match trace_out ~buffered:trace_buffered trace_path with
    | None -> ()
    | Some out ->
      (* one pid per seed keeps the campaign's runs separate lanes-wise;
         streaming flushes each seed's segment before converting the
         next, so the file grows as the campaign does while memory holds
         one seed's events at a time *)
      Array.iter
        (fun (seed, result, _, _, _) ->
          Sim.Timeline.emit ~pid:seed
            ~name:(Printf.sprintf "seed %d" seed)
            out.sink built.Video.System.model result;
          out.flush ())
        runs;
      out.finish ());
    write_metrics metrics_path;
    if !worst_code <> 0 then exit !worst_code
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Run seeded fault-injection scenarios over the video system and \
          print a survival report (exits 0 when every seed quiesces, 2/3 \
          when one hits the time/firing limit); with $(b,--family), every \
          seed is one featured pass over a whole variant space (figure2, \
          figure3 or generated)")
    Term.(
      const run $ model_name_arg $ seeds_arg $ no_faults_flag $ family_flag
      $ deadline_arg $ drop_arg $ transient_arg $ trace_seed_arg $ jobs_arg
      $ trace_arg $ trace_buffered_flag $ span_capacity_arg $ metrics_arg)

let simulate_file_cmd =
  let variant_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "variant" ] ~docv:"IFACE=CLUSTER"
          ~doc:"Cluster choice per interface (default: first cluster)")
  in
  let drive_arg =
    Arg.(
      value & opt int 5
      & info [ "drive" ] ~docv:"N"
          ~doc:"Inject $(docv) tokens into every boundary input channel")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the run as JSON to $(docv)")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the trace as CSV to $(docv)")
  in
  let run path variants drive policy family jobs deadline show_trace vcd_path
      json_path csv_path trace_path trace_buffered span_capacity metrics_path =
    apply_span_capacity span_capacity;
    if family && (vcd_path <> None || json_path <> None || csv_path <> None)
    then begin
      Format.eprintf
        "simulate-file: --family cannot be combined with --vcd, --json or \
         --csv (per-configuration exports need a single flattened model)@.";
      exit 1
    end;
    with_system path (fun system ->
        (match V.System.validate system with
        | [] -> ()
        | errors ->
          List.iter (fun e -> Format.eprintf "%a@." V.System.pp_error e) errors;
          exit 1);
        if family then begin
          (* --variant is moot: the featured pass covers every choice *)
          if variants <> [] then
            Format.eprintf
              "simulate-file: note: --variant is ignored with --family (the \
               featured pass covers every cluster choice)@.";
          simulate_family ~policy
            ~stimuli:(shared_boundary_stimuli ~tokens:drive ~spacing:1 system)
            ~jobs ~deadline ~show_trace ~trace_path ~trace_buffered
            ~metrics_path system
        end
        else
        let choice iid =
          match
            List.assoc_opt (Spi.Ids.Interface_id.to_string iid) variants
          with
          | Some c -> Spi.Ids.Cluster_id.of_string c
          | None -> V.Flatten.first_cluster system iid
        in
        let model =
          match V.Flatten.flatten_result system choice with
          | Ok m -> m
          | Error d ->
            Format.eprintf "%s: %a@." path V.Diagnostic.pp d;
            exit 1
        in
        let inputs = Spi.Model.unwritten_channels model in
        let stimuli =
          List.concat_map
            (fun cid ->
              List.init drive (fun i ->
                  {
                    Sim.Engine.at = 1 + i;
                    channel = cid;
                    token = Spi.Token.make ~payload:(i + 1) ();
                  }))
            (Spi.Ids.Channel_id.Set.elements inputs)
        in
        let result =
          Sim.Compile.run ~policy ~stimuli (Sim.Compile.compile model)
        in
        Format.printf "%a@." Sim.Engine.pp_summary result;
        Format.printf "@.%a@." Sim.Stats.pp (Sim.Stats.of_result model result);
        if show_trace then
          Format.printf "@.%a@." Sim.Trace.pp result.Sim.Engine.trace;
        Option.iter (fun p -> Sim.Vcd.to_file p model result) vcd_path;
        Option.iter (fun p -> Sim.Json.to_file p model result) json_path;
        Option.iter (fun p -> Sim.Csv.trace_to_file p result) csv_path;
        (match trace_out ~buffered:trace_buffered trace_path with
        | None -> ()
        | Some out ->
          Sim.Timeline.emit out.sink model result;
          out.flush ();
          out.finish ());
        write_metrics metrics_path;
        exit_on_outcome result.Sim.Engine.outcome)
  in
  Cmd.v
    (Cmd.info "simulate-file"
       ~doc:
         "Flatten and simulate a .spi file, optionally exporting the run \
          (exits 0 when quiescent, 2 on the time limit, 3 on the firing \
          limit); with $(b,--family), simulate the file's whole variant \
          space in one featured pass")
    Term.(
      const run $ file_arg $ variant_arg $ drive_arg $ policy_arg
      $ family_flag $ jobs_arg $ deadline_opt_arg $ print_trace_flag
      $ vcd_arg $ json_arg $ csv_arg $ trace_arg $ trace_buffered_flag
      $ span_capacity_arg $ metrics_arg)

let analyze_cmd =
  let run bundled =
    let model = bundled.model () in
    Format.printf "%s: %a@." bundled.description Spi.Model.pp_stats model;
    Format.printf "@.rate balance:@.";
    List.iter
      (fun (cid, balance) ->
        Format.printf "  %-12s %a@." (Spi.Ids.Channel_id.to_string cid)
          Spi.Analysis.pp_balance balance)
      (Spi.Analysis.balance_report model);
    (match Spi.Analysis.deadlock_candidates model with
    | [] -> Format.printf "@.no structural deadlock candidates@."
    | comps ->
      Format.printf "@.deadlock candidates:@.";
      List.iter
        (fun comp ->
          Format.printf "  {%s}@."
            (String.concat ", " (List.map Spi.Ids.Process_id.to_string comp)))
        comps);
    Format.printf "@.queue bounds (16 source executions):@.";
    List.iter
      (fun (cid, bound) ->
        Format.printf "  %-12s %s@." (Spi.Ids.Channel_id.to_string cid)
          (match bound with
          | Some b -> string_of_int b
          | None -> "unbounded/cyclic"))
      (Spi.Analysis.queue_bounds ~source_executions:16 model)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static analysis of a bundled model")
    Term.(const run $ model_arg)

let dot_cmd =
  let run bundled =
    let model = bundled.model () in
    let module Dot = Graphlib.Dot.Make (Spi.Model.Graph) in
    let node_attrs = function
      | Spi.Model.P _ -> [ ("shape", "box") ]
      | Spi.Model.C _ -> [ ("shape", "ellipse") ]
    in
    Dot.pp ~graph_name:"spi" ~node_attrs ~node_label:Spi.Model.node_label
      Format.std_formatter (Spi.Model.to_graph model)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a bundled model's graph as Graphviz")
    Term.(const run $ model_arg)

let dot_system_cmd =
  let systems =
    [
      ("figure2", fun () -> F2.system);
      ("figure3", fun () -> F2.system_with_selection);
      ( "generated",
        fun () ->
          V.Generator.generate
            { V.Generator.default with sites = 2; variants_per_site = 3 } );
    ]
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum systems)) None
      & info [] ~docv:"SYSTEM" ~doc:"figure2, figure3 or generated")
  in
  let run make = print_string (V.Dot_system.to_string (make ())) in
  Cmd.v
    (Cmd.info "dot-system"
       ~doc:"Graphviz of the variant structure (interfaces and clusters as boxes)")
    Term.(const run $ name_arg)

let synthesize_cmd =
  let run trace_path trace_buffered span_capacity metrics_path =
    apply_span_capacity span_capacity;
    if Option.is_some trace_path then Synth.Domain_trace.enable ();
    let tech = F2.table1_tech in
    let apps = [ F2.app1; F2.app2 ] in
    let print name (s : Synth.Explore.solution) =
      Format.printf "%-14s %a@." name Synth.Cost.pp s.Synth.Explore.cost
    in
    print "Application 1" (Synth.Explore.optimal_exn tech [ F2.app1 ]);
    print "Application 2" (Synth.Explore.optimal_exn tech [ F2.app2 ]);
    (match Synth.Superpose.superpose tech apps with
    | Some r -> Format.printf "%-14s %a@." "Superposition" Synth.Cost.pp r.Synth.Superpose.cost
    | None -> Format.printf "superposition infeasible@.");
    print "With variants" (Synth.Explore.optimal_exn tech apps);
    let out = trace_out ~buffered:trace_buffered trace_path in
    (match out with
    | Some o ->
      Synth.Domain_trace.emit_timeline ~pid:1 ~name:"explorer" o.sink;
      Synth.Domain_trace.disable ();
      o.flush ()
    | None -> ());
    (* Sanity-check each application's flattened model by simulating it;
       this also puts engine counters next to the explorer counters in
       the metrics snapshot. *)
    List.iteri
      (fun i cluster ->
        let model =
          V.Flatten.flatten F2.system
            (V.Flatten.choice_of_list [ ("iface1", cluster) ])
        in
        let stimuli =
          List.init 5 (fun i ->
              {
                Sim.Engine.at = 1 + (3 * i);
                channel = F2.cx;
                token = Spi.Token.make ~payload:(i + 1) ();
              })
        in
        let result = Sim.Compile.run ~stimuli (Sim.Compile.compile model) in
        Format.printf "sim check %-6s %a@." cluster Sim.Engine.pp_summary
          result;
        match out with
        | Some o ->
          Sim.Timeline.emit ~pid:(i + 2)
            ~name:("sim check " ^ cluster)
            o.sink model result;
          o.flush ()
        | None -> ())
      [ "g1"; "g2" ];
    Option.iter (fun o -> o.finish ()) out;
    write_metrics metrics_path
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Run the Table 1 synthesis flows and simulate each application's \
          flattened model as a sanity check")
    Term.(
      const run $ trace_arg $ trace_buffered_flag $ span_capacity_arg
      $ metrics_arg)

let schedule_cmd =
  let run () =
    (* Application 1 under its Table 1 optimal binding, with per-process
       figures for the cluster internals *)
    let model =
      V.Flatten.flatten F2.system
        (V.Flatten.choice_of_list [ ("iface1", "g1") ])
    in
    let pid = Spi.Ids.Process_id.of_string in
    let tech =
      Synth.Tech.make
        [
          (pid "PA", Synth.Tech.both ~load:40 ~area:26);
          (pid "PB", Synth.Tech.both ~load:30 ~area:30);
          (pid "iface1.x1", Synth.Tech.both ~load:30 ~area:10);
          (pid "iface1.x2", Synth.Tech.both ~load:30 ~area:9);
        ]
    in
    let binding =
      Synth.Binding.of_list
        [
          (pid "PA", Synth.Binding.Sw);
          (pid "PB", Synth.Binding.Sw);
          (pid "iface1.x1", Synth.Binding.Hw);
          (pid "iface1.x2", Synth.Binding.Hw);
        ]
    in
    match Synth.List_schedule.schedule tech binding model with
    | Error e -> Format.printf "%a@." Synth.List_schedule.pp_error e
    | Ok s ->
      Format.printf "Application 1 (cluster g1 in hardware):@.@.%a@."
        Synth.List_schedule.pp_gantt s
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Static list schedule + Gantt chart of the Table 1 application")
    Term.(const run $ const ())

let pareto_cmd =
  let run metrics_path =
    let points, _ = Synth.Pareto.frontier F2.table1_tech [ F2.app1; F2.app2 ] in
    Format.printf "cost/load Pareto frontier (%d points):@." (List.length points);
    List.iter (fun p -> Format.printf "  %a@." Synth.Pareto.pp_point p) points;
    write_metrics metrics_path
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Cost/load frontier for the Table 1 example")
    Term.(const run $ metrics_arg)

let report_cmd =
  let run () =
    let models =
      List.map
        (fun (clusters, model) ->
          let name =
            match clusters with
            | [ c ] when Spi.Ids.Cluster_id.to_string c = "g1" -> "Application 1"
            | _ -> "Application 2"
          in
          (name, model))
        (V.Flatten.applications F2.system)
    in
    let r =
      Synth.Report.build ~models F2.table1_tech [ F2.app1; F2.app2 ]
    in
    Format.printf "%a@." Synth.Report.pp r
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full synthesis report for the Table 1 example")
    Term.(const run $ const ())

let sensitivity_cmd =
  let run () =
    let apps = [ F2.app1; F2.app2 ] in
    Format.printf "%-14s | %-9s | %s@." "process" "parameter" "decision";
    List.iter
      (fun (pid, name, parameter, lo, hi) ->
        let label =
          match parameter with
          | Synth.Sensitivity.Hw_area -> "hw area"
          | Synth.Sensitivity.Sw_load -> "sw load"
        in
        match
          Synth.Sensitivity.flip_point ~parameter ~range:(lo, hi)
            F2.table1_tech apps pid
        with
        | Some flip ->
          Format.printf "%-14s | %-9s | %a@." name label
            Synth.Sensitivity.pp_flip flip
        | None ->
          Format.printf "%-14s | %-9s | stable over [%d, %d]@." name label lo hi)
      [
        (F2.pa, "PA", Synth.Sensitivity.Hw_area, 26, 80);
        (F2.pb, "PB", Synth.Sensitivity.Sw_load, 30, 100);
        (F2.unit_g1, "cluster g1", Synth.Sensitivity.Hw_area, 19, 100);
        (F2.unit_g2, "cluster g2", Synth.Sensitivity.Sw_load, 55, 100);
      ]
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Flip points of the Table 1 optimum under parameter drift")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Synthesis as a service.                                             *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path for the serve/v1 protocol")

let serve_cmd =
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Crash-safe exploration journal; replayed on start so \
             synthesis warm-starts from bounds proved before a crash")
  in
  let queue_limit_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_queue_limit
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission bound: requests queued beyond $(docv) are shed \
             with a structured overloaded rejection")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline, measured from admission; a \
             request's own deadline_ms takes precedence")
  in
  let no_fsync_arg =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "Skip fsync on journal commits (faster, but a power loss can \
             drop acknowledged records)")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append the structured log/v1 stream (one JSON object per \
             line) to $(docv) instead of stderr")
  in
  let log_level_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("debug", Obs.Log.Debug);
               ("info", Obs.Log.Info);
               ("warn", Obs.Log.Warn);
               ("error", Obs.Log.Error);
             ])
          Obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Log threshold: debug, info, warn or error")
  in
  let sample_interval_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_sample_interval_ms
      & info [ "sample-interval-ms" ] ~docv:"MS"
          ~doc:
            "Period of the time-series ticker behind the metrics verb's \
             rolling rates and quantiles; 0 disables sampling")
  in
  let series_windows_arg =
    Arg.(
      value
      & opt int Obs.Series.default_windows
      & info [ "series-windows" ] ~docv:"N"
          ~doc:"Samples retained for the rolling series")
  in
  let run socket_path store_path metrics_path trace_path log_path log_level
      sample_interval_ms series_windows jobs queue_limit default_deadline_ms
      no_fsync =
    if queue_limit < 1 then begin
      Format.eprintf "--queue-limit must be positive@.";
      exit 1
    end;
    if sample_interval_ms < 0 then begin
      Format.eprintf "--sample-interval-ms must be >= 0@.";
      exit 1
    end;
    if series_windows < 2 then begin
      Format.eprintf "--series-windows must be >= 2@.";
      exit 1
    end;
    Serve.Daemon.run
      {
        Serve.Daemon.socket_path;
        store_path;
        metrics_path;
        trace_path;
        log_path;
        log_level;
        sample_interval_ms;
        series_windows;
        jobs = resolve_jobs jobs;
        queue_limit;
        default_deadline_ms;
        fsync = not no_fsync;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis daemon: admission control, per-request \
          deadlines, crash-safe exploration store, live telemetry")
    Term.(
      const run $ socket_arg $ store_arg $ metrics_arg $ trace_arg $ log_arg
      $ log_level_arg $ sample_interval_arg $ series_windows_arg $ jobs_arg
      $ queue_limit_arg $ deadline_arg $ no_fsync_arg)

let request_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("ping", `Ping);
                  ("stats", `Stats);
                  ("metrics", `Metrics);
                  ("shutdown", `Shutdown);
                  ("synthesize", `Synthesize);
                  ("pareto", `Pareto);
                  ("simulate", `Simulate);
                  ("batch", `Batch);
                ]))
          None
      & info [] ~docv:"OP"
          ~doc:
            "ping, stats, metrics, shutdown, synthesize, pareto, simulate \
             or batch")
  in
  let model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Model in the .spi format (synthesize, pareto, simulate)")
  in
  let tech_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "tech" ] ~docv:"TECHFILE"
          ~doc:"Technology library (synthesize, pareto)")
  in
  let capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"N" ~doc:"Processor load capacity")
  in
  let until_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "until" ] ~docv:"TIME" ~doc:"Simulation horizon (simulate)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline; past it the daemon returns the best \
             incumbent found so far, marked degraded")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Idempotency key; defaults to a generated one so retries \
             never recompute")
  in
  let timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt budget covering connect, send and receive")
  in
  let attempts_arg =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Attempts before giving up; delays back off exponentially \
             with jitter and honor the daemon's retry_after_ms")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Jitter seed (default: PID); fix it for reproducible runs")
  in
  let jobs_req_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:"Override the daemon's domain count for this request")
  in
  let count_arg =
    Arg.(
      value & opt int 4
      & info [ "count" ] ~docv:"N"
          ~doc:"Batch size: the item is replicated $(docv) times (batch)")
  in
  let trace_spans_flag =
    Arg.(
      value & flag
      & info [ "trace-spans" ]
          ~doc:
            "Ask the daemon to attach the request's rtrace/v1 span tree \
             to the response")
  in
  let need what = function
    | Some v -> v
    | None ->
      Format.eprintf "request: missing %s@." what;
      exit 2
  in
  let run socket op model tech capacity until family count deadline_ms id
      timeout_s attempts seed jobs trace =
    let synthesize () =
      Serve.Protocol.Synthesize
        {
          model = read_file (need "--file MODEL" model);
          tech = read_file (need "--tech TECHFILE" tech);
          capacity;
        }
    in
    let op =
      match op with
      | `Ping -> Serve.Protocol.Ping
      | `Stats -> Serve.Protocol.Stats
      | `Metrics -> Serve.Protocol.Metrics
      | `Shutdown -> Serve.Protocol.Shutdown
      | `Synthesize -> synthesize ()
      | `Pareto ->
        Serve.Protocol.Pareto
          {
            model = read_file (need "--file MODEL" model);
            tech = read_file (need "--tech TECHFILE" tech);
            capacity;
          }
      | `Simulate ->
        Serve.Protocol.Simulate
          {
            model = read_file (need "--file MODEL" model);
            until;
            compiled = false;
            family;
          }
      | `Batch ->
        if count < 1 then begin
          Format.eprintf "request: --count must be positive@.";
          exit 2
        end;
        let item = synthesize () in
        Serve.Protocol.Batch
          (List.init count (fun _ ->
               {
                 Serve.Protocol.id = None;
                 deadline_ms = None;
                 jobs = None;
                 trace = false;
                 op = item;
               }))
    in
    let request = { Serve.Protocol.id; deadline_ms; jobs; trace; op } in
    match
      Serve.Client.request ~timeout_s ~attempts ?seed ~socket request
    with
    | Serve.Client.Response json ->
      print_endline (Obs.Json.to_string json);
      if Serve.Protocol.status_of_response json <> "ok" then exit 1
    | Serve.Client.Overloaded json ->
      print_endline (Obs.Json.to_string json);
      exit 2
    | Serve.Client.Unreachable why ->
      Format.eprintf "request: daemon unreachable: %s@." why;
      exit 3
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running serve daemon, with timeout, \
          retries and an idempotency key")
    Term.(
      const run $ socket_arg $ op_arg $ model_arg $ tech_arg $ capacity_arg
      $ until_arg $ family_flag $ count_arg $ deadline_arg
      $ id_arg $ timeout_arg $ attempts_arg $ seed_arg $ jobs_req_arg
      $ trace_spans_flag)

(* ------------------------------------------------------------------ *)
(* Live telemetry: top and metrics-diff.                               *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let module J = Obs.Json in
  let interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Polling period")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Exit after $(docv) polls; 0 polls until interrupted")
  in
  let raw_flag =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print one minified metrics response per poll instead of \
             redrawing a dashboard (for scripts and smoke tests)")
  in
  let member path json =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) path
  in
  let as_int path json = Option.bind (member path json) J.to_int in
  let as_float path json =
    match member path json with
    | Some (J.Float f) -> Some f
    | Some (J.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let fmt_ms = function
    | Some ns -> Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)
    | None -> "-"
  in
  let fmt_rate = function Some r -> Printf.sprintf "%.1f" r | None -> "-" in
  let render socket frame json =
    let snap = Option.value ~default:J.Null (member [ "snapshot" ] json) in
    let series = Option.value ~default:J.Null (member [ "series" ] json) in
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    line "spi-variants top — %s (frame %d)" socket frame;
    line "";
    line "queue depth   %-6s in-flight %s"
      (match as_int [ "gauges"; "serve.queue_depth" ] snap with
      | Some d -> string_of_int d
      | None -> "-")
      (match as_int [ "gauges"; "serve.inflight_requests" ] snap with
      | Some d -> string_of_int d
      | None -> "-");
    line "req/s         last %-8s mean %s"
      (fmt_rate (as_float [ "counters"; "serve.requests"; "last_per_s" ] series))
      (fmt_rate (as_float [ "counters"; "serve.requests"; "mean_per_s" ] series));
    line "shed/s        last %-8s mean %s"
      (fmt_rate
         (as_float
            [ "counters"; "serve.admission_rejections"; "last_per_s" ]
            series))
      (fmt_rate
         (as_float
            [ "counters"; "serve.admission_rejections"; "mean_per_s" ]
            series));
    (let hits =
       Option.value ~default:0
         (as_int [ "counters"; "serve.plan_cache_hits" ] snap)
     and misses =
       Option.value ~default:0
         (as_int [ "counters"; "serve.plan_cache_misses" ] snap)
     in
     if hits + misses > 0 then
       line "plan cache    hits %d  misses %d  hit-rate %.0f%%" hits misses
         (100. *. float_of_int hits /. float_of_int (hits + misses)));
    (let h p =
       as_int [ "histograms"; "serve.request_ns"; p ] series
     in
     line "latency       p50 %-8s p90 %-8s p99 %s (rolling, %s windows)"
       (fmt_ms (h "p50")) (fmt_ms (h "p90")) (fmt_ms (h "p99"))
       (match as_int [ "windows" ] series with
       | Some w -> string_of_int w
       | None -> "0"));
    line "pool          tasks/s %s"
      (fmt_rate (as_float [ "counters"; "par.tasks"; "last_per_s" ] series));
    Buffer.contents b
  in
  let run socket interval_ms frames raw =
    if interval_ms < 1 then begin
      Format.eprintf "--interval-ms must be positive@.";
      exit 1
    end;
    let stop = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ -> ());
    let metrics_request =
      {
        Serve.Protocol.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op = Serve.Protocol.Metrics;
      }
    in
    let frame = ref 0 in
    let rec loop () =
      if !stop || (frames > 0 && !frame >= frames) then ()
      else begin
        incr frame;
        (match
           Serve.Client.request ~timeout_s:5. ~attempts:1 ~socket
             metrics_request
         with
        | Serve.Client.Response json when raw ->
          print_endline (J.to_string ~minify:true json)
        | Serve.Client.Response json ->
          (* home + clear-to-end redraw: no flicker, no scrollback spam *)
          print_string "\027[H\027[2J";
          print_string (render socket !frame json);
          flush stdout
        | Serve.Client.Overloaded _ ->
          Format.eprintf "top: daemon overloaded, retrying@."
        | Serve.Client.Unreachable why ->
          Format.eprintf "top: daemon unreachable: %s@." why;
          exit 3);
        if not (!stop || (frames > 0 && !frame >= frames)) then
          Unix.sleepf (float_of_int interval_ms /. 1000.);
        loop ()
      end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running daemon's metrics verb: \
          queue depth, request rates, rolling latency quantiles")
    Term.(const run $ socket_arg $ interval_arg $ frames_arg $ raw_flag)

let metrics_diff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A.json" ~doc:"Baseline obs/v1 snapshot")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Comparison obs/v1 snapshot")
  in
  let run a b =
    let parse path =
      match Obs.Json.parse (read_file path) with
      | Ok json -> json
      | Error e ->
        Format.eprintf "metrics-diff: %s: %s@." path e;
        exit 1
    in
    match Obs.Series.diff_snapshots (parse a) (parse b) with
    | Ok diff -> print_endline (Obs.Json.to_string ~minify:false diff)
    | Error e ->
      Format.eprintf "metrics-diff: %s@." e;
      exit 1
  in
  Cmd.v
    (Cmd.info "metrics-diff"
       ~doc:
         "Diff two obs/v1 metrics snapshots: counter deltas and the \
          latency quantiles of what happened between them")
    Term.(const run $ a_arg $ b_arg)

let () =
  let info =
    Cmd.info "spi-variants" ~version:"1.0.0"
      ~doc:"Function-variant representation for embedded system optimization"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            models_cmd;
            validate_cmd;
            simulate_cmd;
            faultsim_cmd;
            analyze_cmd;
            dot_cmd;
            dot_system_cmd;
            synthesize_cmd;
            pareto_cmd;
            schedule_cmd;
            report_cmd;
            sensitivity_cmd;
            fmt_cmd;
            check_cmd;
            analyze_file_cmd;
            simulate_file_cmd;
            synthesize_file_cmd;
            lint_cmd;
            export_cmd;
            serve_cmd;
            request_cmd;
            top_cmd;
            metrics_diff_cmd;
          ]))
