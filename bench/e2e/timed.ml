(* One timed run of a workload against a real daemon: setup timing,
   untimed warm-up, the closed-loop window, and the daemon-side counts
   read through the metrics verb. *)

module J = Obs.Json

(* Daemon spawns per run; setup_s is their median. *)
let setups = 11

(* synth-cold answers re-solved in-process after the window. *)
let verified = 2

type t = {
  setup_s : float list;
  samples : Load.sample list;
  start_ns : int;  (* window start *)
  window_s : float;  (* window start to the last response *)
  peak_rss_mb : float;
  counters : (string * int) list;  (* daemon counter deltas over the window *)
  queue_wait : int * int;  (* serve.queue_wait_ns count and sum deltas *)
  answers : (int, int) Hashtbl.t;  (* synthesis costs by request index *)
  warmup_attempted : int;
  failures : string list;
}

let snapshot d =
  let s = Option.get (J.member "snapshot" (Daemon_proc.control d.Daemon_proc.socket Serve.Protocol.Metrics)) in
  let get path = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some s) path in
  let int path = Option.value ~default:0 (Option.bind (get path) J.to_int) in
  ( List.map (fun n -> (n, int [ "counters"; n ])) Metrics.counters,
    (int [ "histograms"; "serve.queue_wait_ns"; "count" ], int [ "histograms"; "serve.queue_wait_ns"; "sum" ]) )

(* Sends [items] (an index -> item function over [0, n)) until [until_ns]
   or the stream ends; checks every response, and records synthesis costs
   of requests below [keep] in [answers]. *)
let drive d ~connections ~until_ns ~tag ~items ~count ~keep ~answers ~failures =
  let pending = Hashtbl.create 4 and next_index = ref 0 in
  let next () =
    let i = !next_index in
    if i >= count then None
    else begin
      incr next_index;
      let item = items i in
      Hashtbl.replace pending i item;
      Some (i, Workload.line ~id:(Printf.sprintf "%s-%d" tag i) item.Workload.op)
    end
  in
  let check i line =
    let item = Hashtbl.find pending i in
    Hashtbl.remove pending i;
    let verdict =
      match J.parse line with Error e -> Error ("unparseable response: " ^ e) | Ok json -> Workload.check item json
    in
    match verdict with
    | Ok cost ->
      (match cost with Some c when i < keep -> Hashtbl.replace answers i c | _ -> ());
      true
    | Error e ->
      failures := Printf.sprintf "%s request %d: %s" tag i e :: !failures;
      false
  in
  Load.run ~socket:d.Daemon_proc.socket ~connections ~until_ns ~next ~check

let run ~bin ~dir ~seconds ~keep (p : Workload.prepared) =
  let w = p.Workload.workload in
  let journal () = Workload.journal_at p.Workload.journal (Filename.concat dir "run.db") in
  let spawn store =
    let t0 = Obs.Clock.now_ns () in
    let d = Daemon_proc.spawn ~bin ~dir ~store in
    (d, Daemon_proc.wait_ready d ~t0)
  in
  (* setup_s is the median over [setups] spawns, half of them before the
     timed window and half after it (on a fresh copy of the journal), so
     one slow moment of the host does not set it *)
  let idle_spawns n store =
    List.init n (fun _ ->
        let d, s = spawn store in
        Daemon_proc.stop d;
        s)
  in
  let store = journal () in
  let before = idle_spawns (setups / 2) store in
  let d, measured = spawn store in
  let connections = Workload.connections w in
  let answers = Hashtbl.create 64 and failures = ref [] in
  let warmup = Array.of_list p.Workload.warmup in
  let warm =
    drive d ~connections ~until_ns:max_int ~tag:"warmup" ~items:(Array.get warmup)
      ~count:(Array.length warmup) ~keep:0 ~answers ~failures
  in
  let c0, (qc0, qs0) = snapshot d in
  let t0 = Obs.Clock.now_ns () in
  let samples =
    drive d ~connections ~until_ns:(t0 + (seconds * 1_000_000_000)) ~tag:(Workload.name w)
      ~items:p.Workload.item ~count:max_int ~keep ~answers ~failures
  in
  let last_done = List.fold_left (fun m s -> max m s.Load.done_ns) t0 samples in
  let c1, (qc1, qs1) = snapshot d in
  let peak_rss_mb = Daemon_proc.peak_rss_mb d in
  Daemon_proc.stop d;
  let setup_s = before @ (measured :: idle_spawns (setups - 1 - (setups / 2)) (journal ())) in
  (* the daemon's synthesis answers are exact optima: re-solve the first
     few in-process and compare costs *)
  let samples =
    if w <> Workload.Synth_cold then samples
    else
      List.map
        (fun (s : Load.sample) ->
          match Hashtbl.find_opt answers s.Load.index with
          | Some cost when s.Load.index < verified -> (
            match (p.Workload.item s.Load.index).Workload.op with
            | Serve.Protocol.Synthesize { model; tech; capacity } ->
              let apps = Synth.App.of_system (Lang.Parser.system_of_string model) in
              let tech = Lang.Tech_file.of_string tech in
              let ok =
                match Synth.Explore.solve ~jobs:2 ?capacity tech apps with
                | Ok sol -> sol.Synth.Explore.cost.Synth.Cost.total = cost
                | Error _ -> false
              in
              if not ok then failures := Printf.sprintf "synth-cold request %d: not optimal" s.Load.index :: !failures;
              { s with Load.ok = s.Load.ok && ok }
            | _ -> s)
          | _ -> s)
        samples
  in
  {
    setup_s;
    samples;
    start_ns = t0;
    window_s = Obs.Clock.ns_to_s (last_done - t0);
    peak_rss_mb;
    counters = List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 c1;
    queue_wait = (qc1 - qc0, qs1 - qs0);
    answers;
    warmup_attempted = List.length warm;
    failures = List.rev !failures;
  }

(* Solves [items] cold on a daemon over a fresh journal: the synth-warm
   seeding run, untimed. *)
let seed_store ~bin ~dir items =
  let path = Filename.concat dir "seeded.db" in
  ignore (Workload.journal_at Workload.Empty path);
  let t0 = Obs.Clock.now_ns () in
  let d = Daemon_proc.spawn ~bin ~dir ~store:(Some path) in
  ignore (Daemon_proc.wait_ready d ~t0);
  let answers = Hashtbl.create 8 and failures = ref [] in
  let n = Array.length items in
  let samples =
    drive d ~connections:1 ~until_ns:max_int ~tag:"seed" ~items:(Array.get items) ~count:n ~keep:n ~answers
      ~failures
  in
  Daemon_proc.stop d;
  if List.length samples <> n || !failures <> [] then
    failwith ("seeding the synth-warm journal failed: " ^ String.concat "; " !failures);
  (path, Array.init n (Hashtbl.find answers))
