(* End-to-end serve/v1 benchmark.

     main.exe [--workload W]... --seed S [--seconds N] [--trace 0|1]
              [--replay N] [--out FILE] [--trace-dir DIR] [--daemon BIN]
     main.exe compare A.json B.json
     main.exe validate RESULT.json

   A run times each named workload (all four by default) against a real
   `spi-variants serve` daemon over its Unix socket, then, with
   --trace 1, replays the first requests of all four workloads
   in-process with a span around every layer call.  It prints every
   metric with its unit and, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).  The exit
   code is 1 when any response or replayed answer is wrong. *)

module J = Obs.Json

let progress fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s)) fmt

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* The per-layer line of a run that timed [w]: each metric read where the
   catalogue says (see Metrics.source). *)
let per_layer ~own w =
  List.map
    (fun (name, _, source) ->
      let pick x = List.assoc_opt name (own x) in
      let over f =
        match List.filter_map pick Workload.all with [] -> None | v :: vs -> Some (List.fold_left f v vs)
      in
      let value =
        match source with
        | Metrics.Home h -> pick h
        | Metrics.Timed -> pick w
        | Metrics.Min_over_workloads -> over Float.min
        | Metrics.Max_over_workloads -> over Float.max
      in
      match value with
      | Some v -> (name, v)
      | None -> failwith (Printf.sprintf "per-layer metric %s has no value" name))
    Metrics.per_layer

let print_table ~timed ~own ~trace =
  Printf.printf "%-11s %-15s %14s %-6s %8s %8s\n" "workload" "metric" "value" "unit" "samples" "spread";
  List.iter
    (fun (w, vs) ->
      List.iter
        (fun (v : Record.value) ->
          Printf.printf "%-11s %-15s %14.4f %-6s %8d %7.2f%%\n" (Workload.name w) v.Record.name v.Record.value
            (Metrics.unit_of v.Record.name) v.Record.samples (100. *. v.Record.spread))
        vs)
    timed;
  if trace then begin
    Printf.printf "\nper-layer, traced replay (home workload marked *)\n%-27s" "metric";
    List.iter (fun w -> Printf.printf " %12s" (Workload.name w)) Workload.all;
    Printf.printf "  unit\n";
    List.iter
      (fun (name, unit_, source) ->
        Printf.printf "%-27s" name;
        List.iter
          (fun w ->
            let mark = match source with Metrics.Home h when h = w -> "*" | _ -> " " in
            match List.assoc_opt name (own w) with
            | Some v -> Printf.printf " %11.4f%s" v mark
            | None -> Printf.printf " %11s%s" "-" mark)
          Workload.all;
        Printf.printf "  %s\n" unit_)
      Metrics.per_layer
  end

let run workloads seed seconds trace replay out trace_dir bin =
  let workloads = if workloads = [] then Workload.all else List.sort_uniq compare workloads in
  if not (Sys.file_exists bin) then begin
    Printf.eprintf "e2e: daemon binary %s not found; build it with `dune build ./bin/main.exe`\n" bin;
    exit 2
  end;
  (* sockets, journals and logs live under the working directory; the
     socket path stays relative, so it is short wherever that is *)
  let root = ".bench_e2e" in
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () ->
      Daemon_proc.kill_all ();
      remove_tree dir;
      try Sys.rmdir root with Sys_error _ -> ());
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  (* the in-process handler logs like the daemon does: info, to a file *)
  let log = open_out (Filename.concat dir "replay.log") in
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.set_sink (Some (Obs.Log.channel_sink log));
  let prepared = Hashtbl.create 4 in
  let prepare w =
    match Hashtbl.find_opt prepared w with
    | Some p -> p
    | None ->
      progress "preparing %s" (Workload.name w);
      let p = Workload.prepare ~seed ~seed_store:(Timed.seed_store ~bin ~dir) w in
      Hashtbl.add prepared w p;
      p
  in
  let timed =
    List.map
      (fun w ->
        let p = prepare w in
        progress "timing %s for %d s" (Workload.name w) seconds;
        (w, Timed.run ~bin ~dir ~seconds ~keep:replay p))
      workloads
  in
  let replays =
    if not trace then []
    else
      List.map
        (fun w ->
          let answers = match List.assoc_opt w timed with Some t -> t.Timed.answers | None -> Hashtbl.create 1 in
          let p = prepare w in
          progress "replaying %d %s requests" replay (Workload.name w);
          (w, Replay.run ~dir ~count:replay ~answers p))
        Workload.all
  in
  Option.iter
    (fun d ->
      mkdir_p d;
      List.iter (fun (w, r) -> Replay.write_trace r (Filename.concat d (Workload.name w ^ ".trace.json"))) replays)
    trace_dir;
  let e2e = List.map (fun (w, t) -> (w, Record.end_to_end t)) timed in
  let e2e_value w name = (List.find (fun v -> v.Record.name = name) (List.assoc w e2e)).Record.value in
  (* each workload's own per-layer numbers, with the two daemon-side
     serve timings when it was also timed *)
  let own_of w =
    let layers = match List.assoc_opt w replays with Some r -> Replay.layers r | None -> [] in
    match List.assoc_opt w timed with
    | None -> layers
    | Some t ->
      let count, sum = t.Timed.queue_wait in
      let queue_ms = if count > 0 then Some (float_of_int sum /. float_of_int count /. 1e6) else None in
      let transport =
        match (List.assoc_opt "serve.handler_ms" layers, queue_ms) with
        | Some h, Some q -> Some (e2e_value w "latency_p50_ms" -. h -. q)
        | _ -> None
      in
      layers
      @ List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          [ ("serve.queue_wait_ms", queue_ms); ("serve.transport_ms", transport) ]
  in
  let owns = List.map (fun w -> (w, own_of w)) Workload.all in
  let own w = List.assoc w owns in
  let failures =
    List.concat_map (fun (_, t) -> t.Timed.failures) timed @ List.concat_map (fun (_, r) -> r.Replay.failures) replays
  in
  let attempted =
    List.fold_left (fun n (_, t) -> n + List.length t.Timed.samples + t.Timed.warmup_attempted) 0 timed
    + List.fold_left (fun n (_, r) -> n + r.Replay.attempted) 0 replays
  in
  let failed = List.length failures in
  let correct = failed = 0 in
  List.iteri (fun i f -> if i < 20 then prerr_endline ("e2e: FAILED " ^ f)) failures;
  let result =
    J.Obj
      [
        ("schema", J.String Record.schema);
        ("fingerprint", Record.fingerprint ~journal_dir:dir ~seed ~seconds ~replay ~trace workloads);
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("failures", J.List (List.map (fun f -> J.String f) failures));
        ( "workloads",
          J.Obj
            (List.filter_map
               (fun w ->
                 let timed_fields (t : Timed.t) =
                   [
                     ("connections", J.Int (Workload.connections w));
                     ("end_to_end", Record.values_json (List.assoc w e2e));
                     ("daemon", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) t.Timed.counters));
                   ]
                   @ if trace then [ ("per_layer", Record.pairs_json (per_layer ~own w)) ] else []
                 and replay_fields (r : Replay.t) =
                   [ ("replay_requests", J.Int (List.length r.Replay.requests)); ("layers", Record.pairs_json (own w)) ]
                 in
                 match
                   Option.fold ~none:[] ~some:timed_fields (List.assoc_opt w timed)
                   @ Option.fold ~none:[] ~some:replay_fields (List.assoc_opt w replays)
                 with
                 | [] -> None
                 | fields -> Some (Workload.name w, J.Obj fields))
               Workload.all) );
      ]
  in
  Option.iter (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc (J.to_string ~minify:false result ^ "\n"))) out;
  print_table ~timed:e2e ~own ~trace;
  (* with several workloads, each metric name is prefixed by its workload *)
  let key w name = if List.length workloads = 1 then name else Workload.name w ^ "." ^ name in
  let metrics =
    List.concat_map
      (fun w ->
        let line =
          if trace then per_layer ~own w
          else
            List.filter_map
              (fun (v : Record.value) ->
                if List.mem_assoc v.Record.name Metrics.ungated then None else Some (v.Record.name, v.Record.value))
              (List.assoc w e2e)
        in
        List.map (fun (name, v) -> (key w name, Record.value_json name v)) line)
      workloads
  in
  print_endline
    (J.to_string ~minify:true
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]));
  close_out log;
  if correct then 0 else 1

open Cmdliner

let workload_conv =
  Arg.enum (List.map (fun w -> (Workload.name w, w)) Workload.all)

let run_term =
  let workloads =
    Arg.(value & opt_all workload_conv [] & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to time (repeatable; default all four).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Seed every input is generated from.") in
  let seconds =
    Arg.(value & opt int 25 & info [ "seconds"; "duration" ] ~docv:"N" ~doc:"Length of each timed window, in seconds.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) true
         & info [ "trace" ] ~docv:"0|1" ~doc:"Also run the traced replay and print the per-layer metrics last.")
  in
  let replay = Arg.(value & opt int 64 & info [ "replay" ] ~docv:"N" ~doc:"Requests replayed per workload.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the bench-e2e/v1 result file.") in
  let trace_dir =
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc:"Write each workload's replay spans as trace/v1.")
  in
  let daemon =
    Arg.(value & opt string "_build/default/bin/main.exe" & info [ "daemon" ] ~docv:"BIN" ~doc:"The spi-variants binary.")
  in
  Term.(const run $ workloads $ seed $ seconds $ trace $ replay $ out $ trace_dir $ daemon)

let benchmark_file =
  Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE" ~doc:"Metric bounds and names.")

let compare_cmd =
  let file n = Arg.(required & pos n (some string) None & info [] ~docv:(if n = 0 then "A.json" else "B.json")) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge every end-to-end metric of B against A with BENCHMARK.json's bounds.")
    Term.(const (fun benchmark_file a b -> Record.compare ~benchmark_file a b) $ benchmark_file $ file 0 $ file 1)

let validate_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"RESULT.json") in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a result file: correct, and naming exactly BENCHMARK.json's metrics.")
    Term.(const (fun benchmark_file f -> Record.validate ~benchmark_file f) $ benchmark_file $ file)

let () =
  exit (Cmd.eval' (Cmd.group ~default:run_term (Cmd.info "e2e" ~doc:"End-to-end serve/v1 benchmark") [ compare_cmd; validate_cmd ]))
