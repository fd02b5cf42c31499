(* The traced in-process replay.  For each request a [serve.handler] span
   wraps Serve.Handler.handle on a handler set up like the daemon's, and a
   sibling [replay] span repeats the handler's work one public layer call
   at a time, each call in its own child span.  Spans stay in memory and
   are exported as trace/v1 at the end. *)

module J = Obs.Json
module P = Serve.Protocol
module V = Variants

let jobs = 2

type span = { id : int; parent : int; rid : string; name : string; start_ns : int; end_ns : int }

type recorder = { mutable spans : span list; mutable last_id : int; mutable on : bool }

let fresh r =
  r.last_id <- r.last_id + 1;
  r.last_id

let timed r ~rid ~parent ?(id = fresh r) name f =
  let start_ns = Obs.Clock.now_ns () in
  let v = f () in
  if r.on then r.spans <- { id; parent; rid; name; start_ns; end_ns = Obs.Clock.now_ns () } :: r.spans;
  v

(* Bounded FIFO plan cache with Serve.Handler's policy (64 entries,
   oldest evicted first), so the replay compiles exactly when the
   handler does. *)
module Fifo = struct
  type 'a t = { table : (string, 'a) Hashtbl.t; order : string Queue.t }

  let create () = { table = Hashtbl.create 64; order = Queue.create () }

  let find_or_add t key build =
    match Hashtbl.find_opt t.table key with
    | Some v -> v
    | None ->
      let v = build () in
      if Queue.length t.order >= 64 then Hashtbl.remove t.table (Queue.pop t.order);
      Queue.push key t.order;
      Hashtbl.add t.table key v;
      v
end

type state = {
  handler : Serve.Handler.t;
  store : Store.Keyed.t option;  (* the replay's own copy of the handler's store *)
  plans : Sim.Compile.plan Fifo.t;
  fplans : Sim.Family_compiled.plan Fifo.t;
}

type answer = Synth_answer of { cost : int; warm : bool } | Flat_answer of Workload.digest list | Family_answer

(* The handler's work for one request line, one layer call per span,
   in the handler's order. *)
let layer_calls st r ~rid ~parent line =
  let span name f = timed r ~rid ~parent name f in
  let req =
    match span "protocol.decode" (fun () -> P.parse_request line) with
    | Ok q -> q
    | Error e -> failwith e
  in
  let load model =
    let system = span "lang.parse" (fun () -> Lang.Parser.system_of_string model) in
    if span "core.validate" (fun () -> V.System.validate system) <> [] then failwith "invalid model";
    system
  in
  match req.P.op with
  | P.Synthesize { model; tech; capacity } -> (
    let system = load model in
    let tech = span "lang.parse_tech" (fun () -> Lang.Tech_file.of_string tech) in
    let apps = span "synth.applications" (fun () -> Synth.App.of_system system) in
    let store = Option.get st.store in
    ignore (span "core.canonical" (fun () -> Synth.Bound_store.problem_key ?capacity tech apps));
    let warm = span "store.lookup" (fun () -> Synth.Bound_store.warm_binding ?capacity store tech apps) in
    match span "synth.explore" (fun () -> Synth.Explore.solve ~jobs ?capacity ?warm tech apps) with
    | Error d -> failwith (Format.asprintf "%a" Synth.Explore.pp_diagnostic d)
    | Ok s ->
      span "store.commit" (fun () -> Synth.Bound_store.remember ?capacity store tech apps s);
      Synth_answer { cost = s.Synth.Explore.cost.Synth.Cost.total; warm = Option.is_some warm })
  | P.Simulate { model; family = true; _ } ->
    let system = load model in
    let key = span "core.canonical" (fun () -> Sim.Family_compiled.plan_key system) in
    let plan =
      Fifo.find_or_add st.fplans key (fun () -> span "sim.plan" (fun () -> Sim.Family_compiled.plan system))
    in
    span "sim.run" (fun () -> ignore (Sim.Family_compiled.run ~jobs plan));
    Family_answer
  | P.Simulate { model; family = false; _ } ->
    let system = load model in
    let models = span "core.flatten" (fun () -> V.Flatten.applications system) in
    Flat_answer
      (List.map
         (fun (_, m) ->
           let key = span "core.canonical" (fun () -> Sim.Compile.plan_key m) in
           let plan = Fifo.find_or_add st.plans key (fun () -> span "sim.plan" (fun () -> Sim.Compile.compile m)) in
           Workload.digest (span "sim.run" (fun () -> Sim.Compile.run plan)))
         models)
  | P.Ping | P.Stats | P.Metrics | P.Shutdown | P.Pareto _ | P.Batch _ ->
    invalid_arg "replay: op outside the benchmark's workloads"

(* Handler-side counters, read around each Serve.Handler.handle call. *)
let counters = List.map (fun n -> (n, Obs.Registry.counter n)) Metrics.counters

let read_counters () = List.map (fun (n, c) -> (n, Obs.Metric.value c)) counters

type request = {
  rid : string;
  handler_ns : int;
  replay_ns : int;
  deltas : (string * int) list;
  request_bytes : int;
  response_bytes : int;
  response : J.t;
  failure : string option;
}

let mismatch (item : Workload.item) answer (handler : (int option, string) result) ~daemon_cost =
  match (handler, answer, item.Workload.expect) with
  | Error e, _, _ -> Some ("handler: " ^ e)
  | Ok (Some cost), Synth_answer a, Workload.Synth e ->
    if a.cost <> cost then Some (Printf.sprintf "replayed cost %d, handler %d" a.cost cost)
    else if a.warm <> e.warm then Some "replayed warm start differs"
    else (
      match daemon_cost with
      | Some c when c <> cost -> Some (Printf.sprintf "handler cost %d, daemon answered %d" cost c)
      | Some _ | None -> None)
  | Ok None, Flat_answer runs, Workload.Sim expected when runs <> expected ->
    Some "replayed Sim.Compile runs differ from Sim.Engine"
  | Ok _, _, _ -> None

(* Replays one line: the handler first, then its layer-by-layer copy. *)
let replay_one st r ~rid ~(item : Workload.item) ~daemon_cost line =
  let root = fresh r and handler_id = fresh r and replay_id = fresh r in
  let start = Obs.Clock.now_ns () in
  let req = match P.parse_request line with Ok q -> q | Error e -> failwith e in
  let before = read_counters () in
  let h0 = Obs.Clock.now_ns () in
  let response =
    timed r ~rid ~parent:root ~id:handler_id "serve.handler" (fun () ->
        Serve.Handler.handle st.handler ~admitted_ns:h0 ~queue_depth:0 req)
  in
  let h1 = Obs.Clock.now_ns () in
  let deltas = List.map2 (fun (n, a) (_, b) -> (n, b - a)) before (read_counters ()) in
  let r0 = Obs.Clock.now_ns () in
  let answer, encoded =
    timed r ~rid ~parent:root ~id:replay_id "replay" (fun () ->
        let answer = layer_calls st r ~rid ~parent:replay_id line in
        (answer, timed r ~rid ~parent:replay_id "protocol.encode" (fun () -> J.to_string ~minify:true response)))
  in
  let r1 = Obs.Clock.now_ns () in
  if r.on then r.spans <- { id = root; parent = 0; rid; name = "request"; start_ns = start; end_ns = r1 } :: r.spans;
  {
    rid;
    handler_ns = h1 - h0;
    replay_ns = r1 - r0;
    deltas;
    request_bytes = String.length line + 1;
    response_bytes = String.length encoded + 1;
    response;
    failure = mismatch item answer (Workload.check item response) ~daemon_cost;
  }

type t = {
  workload : Workload.t;
  requests : request list;  (* the traced ones *)
  spans : span list;
  has_store : bool;
  store_replay_s : float option;
  failures : string list;  (* warm-up included *)
  attempted : int;
}

(* Opening the seeded journal replays it: the in-process cost of the
   journal replay a synth-warm daemon pays at start. *)
let time_store_open journal dir =
  match journal with
  | Workload.Seeded _ ->
    let path = Filename.concat dir "replay-open.db" in
    let times =
      List.init 5 (fun _ ->
          ignore (Workload.journal_at journal path);
          let t0 = Obs.Clock.now_ns () in
          let store, _ = Store.Keyed.open_store path in
          let s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0) in
          Store.Keyed.close store;
          s)
    in
    Some (Stats.median times)
  | Workload.No_store | Workload.Empty -> None

let run ~dir ~count ~answers (p : Workload.prepared) =
  let name = Workload.name p.Workload.workload in
  let open_store tag =
    Option.map
      (fun path -> fst (Store.Keyed.open_store path))
      (Workload.journal_at p.Workload.journal (Filename.concat dir (Printf.sprintf "replay-%s.db" tag)))
  in
  let handler_store = open_store "handler" and store = open_store "layers" in
  let st =
    {
      handler = Serve.Handler.create ?store:handler_store ~jobs ();
      store;
      plans = Fifo.create ();
      fplans = Fifo.create ();
    }
  in
  let r = { spans = []; last_id = 0; on = false } in
  let replay rid item daemon_cost =
    replay_one st r ~rid ~item ~daemon_cost (Workload.line ~id:rid item.Workload.op)
  in
  let warm = List.mapi (fun k item -> replay (Printf.sprintf "%s-warmup-%d" name k) item None) p.Workload.warmup in
  r.on <- true;
  let requests =
    List.init count (fun i -> replay (Printf.sprintf "%s-%d" name i) (p.Workload.item i) (Hashtbl.find_opt answers i))
  in
  Option.iter Store.Keyed.close handler_store;
  Option.iter Store.Keyed.close store;
  {
    workload = p.Workload.workload;
    requests;
    spans = List.rev r.spans;
    has_store = Option.is_some store;
    store_replay_s = time_store_open p.Workload.journal dir;
    failures =
      List.filter_map
        (fun q -> Option.map (fun f -> Printf.sprintf "%s replay %s: %s" name q.rid f) q.failure)
        (warm @ requests);
    attempted = List.length warm + count;
  }

(* -- per-layer metrics ------------------------------------------------------ *)

let roots = [ "request"; "serve.handler"; "replay" ]
let ms ns = float_of_int ns /. 1e6
let sum = List.fold_left ( + ) 0

(* This workload's own per-layer numbers; a metric is absent when no
   replayed request reached its layer. *)
let layers t =
  let n = List.length t.requests in
  let spans_of = Hashtbl.create 64 in
  List.iter (fun (s : span) -> Hashtbl.add spans_of s.rid s) t.spans;
  let median_of = function [] -> None | l -> Some (Stats.median l) in
  (* median over the requests that entered the layer of the time each
     spent in it *)
  let layer names =
    median_of
      (List.filter_map
         (fun q ->
           match List.filter (fun (s : span) -> List.mem s.name names) (Hashtbl.find_all spans_of q.rid) with
           | [] -> None
           | spans -> Some (ms (sum (List.map (fun (s : span) -> s.end_ns - s.start_ns) spans))))
         t.requests)
  in
  let delta name q = List.assoc name q.deltas in
  let total name = sum (List.map (delta name) t.requests) in
  let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b) in
  let med f = median_of (List.filter_map f t.requests) in
  let solves = total "explore.solves" in
  (* simulation counts come from the handler's wire response *)
  let family = List.filter (fun q -> J.member "family" q.response = Some (J.Bool true)) t.requests in
  let field name q = Option.bind (J.member name q.response) J.to_int in
  let family_field name = List.filter_map (field name) family in
  let config_firings q =
    sum
      (List.filter_map
         (fun r -> Option.bind (J.member "firings" r) J.to_int)
         (Option.value ~default:[] (Option.bind (J.member "runs" q.response) J.to_list)))
  in
  let handler_total = sum (List.map (fun q -> q.handler_ns) t.requests) in
  let layer_total =
    sum (List.filter_map (fun (s : span) -> if List.mem s.name roots then None else Some (s.end_ns - s.start_ns)) t.spans)
  in
  let replay_total = sum (List.map (fun q -> q.replay_ns) t.requests) in
  let entries =
    [
      ("synth.explore_ms", layer [ "synth.explore" ]);
      ( "synth.nodes_expanded",
        med (fun q -> if delta "explore.solves" q > 0 then Some (float_of_int (delta "explore.nodes_expanded" q)) else None) );
      ( "synth.prune_ratio",
        if solves = 0 then None else ratio (total "explore.pruned") (total "explore.pruned" + total "explore.nodes_expanded") );
      ("synth.warm_start_ratio", ratio (total "explore.warm_starts_accepted") solves);
      ("par.steals_per_request", ratio (total "par.steals") n);
      ("store.lookup_ms", layer [ "store.lookup" ]);
      ("store.commit_ms", layer [ "store.commit" ]);
      ( "store.appends_per_request",
        if t.has_store then ratio (total "store.journal_appends") n else None );
      ("store.hit_ratio", ratio (total "store.hits") (total "store.hits" + total "store.misses"));
      ("store.replay_s", t.store_replay_s);
      ("sim.run_ms", layer [ "sim.run" ]);
      ("sim.executed_firings", median_of (List.map float_of_int (family_field "executed_firings")));
      ("sim.sharing_ratio", ratio (sum (List.map config_firings family)) (sum (family_field "executed_firings")));
      ("sim.subfamilies", median_of (List.map float_of_int (family_field "subfamilies")));
      ("sim.plan_ms", layer [ "sim.plan" ]);
      ( "serve.plan_cache_hit_ratio",
        ratio (total "serve.plan_cache_hits") (total "serve.plan_cache_hits" + total "serve.plan_cache_misses") );
      ("core.flatten_ms", layer [ "core.flatten" ]);
      ("core.canonical_ms", layer [ "core.canonical" ]);
      ("core.validate_ms", layer [ "core.validate" ]);
      ("lang.parse_ms", layer [ "lang.parse"; "lang.parse_tech" ]);
      ("protocol.decode_ms", layer [ "protocol.decode" ]);
      ("protocol.encode_ms", layer [ "protocol.encode" ]);
      ("protocol.request_bytes", med (fun q -> Some (float_of_int q.request_bytes)));
      ("protocol.response_bytes", med (fun q -> Some (float_of_int q.response_bytes)));
      ("serve.handler_ms", med (fun q -> Some (ms q.handler_ns)));
      ("trace.coverage", ratio layer_total handler_total);
      ( "trace.overhead_pct",
        Option.map (fun x -> 100. *. (x -. 1.)) (ratio replay_total handler_total) );
    ]
  in
  List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) entries

(* -- trace/v1 export ----------------------------------------------------------- *)

let write_trace t path =
  let c = Obs.Trace_event.create () in
  Obs.Trace_event.set_process_name c ~pid:1 (Workload.name t.workload ^ " replay");
  Obs.Trace_event.set_thread_name c ~pid:1 ~tid:1 "requests";
  let base = List.fold_left (fun m s -> min m s.start_ns) max_int t.spans in
  List.iter
    (fun s ->
      let layer = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name in
      Obs.Trace_event.add c
        (Obs.Trace_event.Complete
           {
             name = s.name;
             cat = layer;
             pid = 1;
             tid = 1;
             ts = float_of_int (s.start_ns - base) /. 1e3;
             dur = float_of_int (s.end_ns - s.start_ns) /. 1e3;
             args = [ ("rid", J.String s.rid); ("id", J.Int s.id); ("parent", J.Int s.parent) ];
           }))
    t.spans;
  Obs.Trace_event.to_file path c
