(* The benchmark's metric catalogue; BENCHMARK.json lists the same names. *)

type better = Higher | Lower

(* End-to-end metrics, measured with tracing off on every workload. *)
let end_to_end =
  [
    ("throughput_rps", "req/s", Higher);
    ("latency_p50_ms", "ms", Lower);
    ("latency_p90_ms", "ms", Lower);
    ("error_rate", "ratio", Lower);
    ("setup_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
  ]

(* Printed, recorded and compared, but left out of BENCHMARK.json, with
   the bound [compare] judges them by.  error_rate reads 0 on a correct
   run, and any rise is a regression.  peak_rss_mb flips between two
   heap sizes (about 40 and 65 MB on synth-warm) from one run to the
   next, even on the same seed, so no bound of at most 25% holds for it
   yet. *)
let ungated = [ ("error_rate", 0.); ("peak_rss_mb", 0.25) ]

(* Registry counters read around each timed window (from the daemon,
   through the metrics verb) and around each replayed handler call
   (in-process). *)
let counters =
  [ "serve.requests"; "store.journal_appends"; "store.hits"; "store.misses"; "serve.plan_cache_hits";
    "serve.plan_cache_misses"; "par.steals"; "explore.nodes_expanded"; "explore.pruned";
    "explore.solves"; "explore.warm_starts_accepted" ]

(* Where a per-layer metric is read: the replay of the workload whose
   end-to-end numbers it explains, the daemon timed in the same run, or
   the worst value over all four replays. *)
type source = Home of Workload.t | Timed | Min_over_workloads | Max_over_workloads

let per_layer =
  Workload.
    [
      ("synth.explore_ms", "ms", Home Synth_cold);
      ("synth.nodes_expanded", "count", Home Synth_cold);
      ("synth.prune_ratio", "ratio", Home Synth_cold);
      ("synth.warm_start_ratio", "ratio", Home Synth_cold);
      ("par.steals_per_request", "count", Home Synth_cold);
      ("store.lookup_ms", "ms", Home Synth_warm);
      ("store.commit_ms", "ms", Home Synth_warm);
      ("store.appends_per_request", "count", Home Synth_warm);
      ("store.hit_ratio", "ratio", Home Synth_warm);
      ("store.replay_s", "s", Home Synth_warm);
      ("sim.run_ms", "ms", Home Sim_family);
      ("sim.executed_firings", "count", Home Sim_family);
      ("sim.sharing_ratio", "ratio", Home Sim_family);
      ("sim.subfamilies", "count", Home Sim_family);
      ("sim.plan_ms", "ms", Home Sim_flat);
      ("serve.plan_cache_hit_ratio", "ratio", Home Sim_flat);
      ("core.flatten_ms", "ms", Home Sim_flat);
      ("core.canonical_ms", "ms", Home Sim_flat);
      ("core.validate_ms", "ms", Home Sim_flat);
      ("lang.parse_ms", "ms", Home Sim_flat);
      ("protocol.decode_ms", "ms", Home Sim_flat);
      ("protocol.encode_ms", "ms", Home Sim_flat);
      ("protocol.request_bytes", "bytes", Home Sim_flat);
      ("protocol.response_bytes", "bytes", Home Sim_flat);
      ("serve.handler_ms", "ms", Home Sim_flat);
      ("serve.transport_ms", "ms", Timed);
      ("serve.queue_wait_ms", "ms", Timed);
      ("trace.coverage", "ratio", Min_over_workloads);
      ("trace.overhead_pct", "%", Max_over_workloads);
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) end_to_end with
  | Some (_, u, _) -> u
  | None -> (
    match List.find_opt (fun (n, _, _) -> String.equal n name) per_layer with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("unknown metric " ^ name))
