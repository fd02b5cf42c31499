module J = Obs.Json
module P = Protocol
module V = Variants

let m_requests = Obs.Registry.counter "serve.requests"
let m_errors = Obs.Registry.counter "serve.request_errors"
let m_cache_replays = Obs.Registry.counter "serve.idempotent_replays"
let m_synth_warm = Obs.Registry.histogram "serve.synthesize_warm_ns"
let m_synth_cold = Obs.Registry.histogram "serve.synthesize_cold_ns"
let m_plan_hits = Obs.Registry.counter "serve.plan_cache_hits"
let m_plan_misses = Obs.Registry.counter "serve.plan_cache_misses"
let m_request_ns = Obs.Registry.histogram "serve.request_ns"

(* Idempotency: a bounded last-N map.  Entries are evicted FIFO — the
   cache covers the retry window of a flaky client, not history. *)
let cache_limit = 1024

(* Compiled plans are closures over the model, so unlike Bound_store
   they cannot persist in the journal; the cache warms in-memory across
   requests instead.  It holds family plans only — both simulate shapes
   run one featured pass — keyed by the Canonical digest a persistent
   store would use (Sim.Family_compiled.plan_key).  Bounded: a daemon
   serving many distinct models must not grow without limit. *)
let plan_cache_limit = 64

(* A family plan holds one presence bit and one lazily compiled table
   set per configuration, and synthesis flattens one model per
   configuration ([Synth.App.of_system]).  So simulate, synthesize and
   pareto requests are refused before any of that once the variant
   space exceeds this many configurations. *)
let max_configurations = 4096

let too_large system =
  match V.Variant_space.count system with
  | n -> n > max_configurations
  | exception Invalid_argument _ -> true (* the count overflows *)

let refuse_too_large ?id op =
  P.too_large ?id ~limit:max_configurations
    (Printf.sprintf "%s: the variant space has more than %d configurations" op
       max_configurations)

type t = {
  store : Store.Keyed.t option;
  default_deadline_ms : int option;
  jobs : int;
  cache : (string, J.t) Hashtbl.t;
  cache_order : string Queue.t;
  plans : (string, Sim.Family_compiled.plan) Hashtbl.t;
  plan_order : string Queue.t;
  plan_lock : Mutex.t;
  series : Obs.Series.t option;
  on_trace : (Obs.Rtrace.t -> unit) option;
  mutable rid_seq : int;
  mutable shutdown : bool;
}

let create ?store ?default_deadline_ms ?series ?on_trace ~jobs () =
  {
    store;
    default_deadline_ms;
    jobs;
    cache = Hashtbl.create 64;
    cache_order = Queue.create ();
    plans = Hashtbl.create 16;
    plan_order = Queue.create ();
    plan_lock = Mutex.create ();
    series;
    on_trace;
    rid_seq = 0;
    shutdown = false;
  }

let shutdown_requested t = t.shutdown
let store t = t.store

let cache_put t id response =
  if not (Hashtbl.mem t.cache id) then begin
    if Queue.length t.cache_order >= cache_limit then
      Hashtbl.remove t.cache (Queue.pop t.cache_order);
    Queue.push id t.cache_order;
    Hashtbl.add t.cache id response
  end

(* Batch items run on pool domains, so the plan cache is mutex-guarded;
   compilation happens outside the lock (two racing misses both compile
   — plans are immutable and equal, so last-put-wins is harmless). *)
let family_plan_for t system =
  let key = Sim.Family_compiled.plan_key system in
  let cached =
    Mutex.lock t.plan_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.plan_lock)
      (fun () -> Hashtbl.find_opt t.plans key)
  in
  match cached with
  | Some plan ->
    Obs.Metric.incr m_plan_hits;
    plan
  | None ->
    Obs.Metric.incr m_plan_misses;
    Obs.Log.emit ~level:Obs.Log.Debug "serve.plan_compile"
      [ ("key", J.String key) ];
    let plan = Sim.Family_compiled.plan system in
    Mutex.lock t.plan_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.plan_lock)
      (fun () ->
        if not (Hashtbl.mem t.plans key) then begin
          if Queue.length t.plan_order >= plan_cache_limit then
            Hashtbl.remove t.plans (Queue.pop t.plan_order);
          Queue.push key t.plan_order;
          Hashtbl.add t.plans key plan
        end);
    plan

(* -- model/tech loading ------------------------------------------------ *)

(* Both loaders answer a failure with the request's error response. *)
let load_system ?id source =
  match Lang.Parser.system_of_string source with
  | exception Lang.Parser.Parse_error { line; col; message } ->
    Error (P.error ?id (Printf.sprintf "model:%d:%d: %s" line col message))
  | exception Lang.Parser.Too_large { line; col; limit; message } ->
    Error
      (P.too_large ?id ~limit (Printf.sprintf "model:%d:%d: %s" line col message))
  | exception Invalid_argument m -> Error (P.error ?id (Printf.sprintf "model: %s" m))
  | system -> (
    match V.System.validate system with
    | [] -> Ok system
    | errors ->
      Error
        (P.error ?id
           (String.concat "; "
              (List.map (Format.asprintf "%a" V.System.pp_error) errors))))

let load_tech ?id source =
  match Lang.Tech_file.of_string source with
  | exception Lang.Parser.Parse_error { line; col; message } ->
    Error (P.error ?id (Printf.sprintf "tech:%d:%d: %s" line col message))
  | exception Invalid_argument m -> Error (P.error ?id (Printf.sprintf "tech: %s" m))
  | tech -> Ok tech

let binding_json = Synth.Bound_store.binding_to_json

let cost_json (c : Synth.Cost.breakdown) =
  J.Obj
    [
      ("total", J.Int c.Synth.Cost.total);
      ("processor", J.Int c.Synth.Cost.processor);
      ( "asics",
        J.List
          (List.map
             (fun (pid, area) ->
               J.List
                 [ J.String (Spi.Ids.Process_id.to_string pid); J.Int area ])
             c.Synth.Cost.asics) );
    ]

(* -- operations -------------------------------------------------------- *)

(* Each runner returns the response plus deferred store commits: batch
   items execute on pool domains, and the journal is single-writer, so
   writes are replayed on the calling domain once the pool has joined. *)

let synthesize t ~deadline_ns ~id ~model ~tech ~capacity =
  match (load_system ?id model, load_tech ?id tech) with
  | Error e, _ | _, Error e -> (e, [])
  | Ok system, Ok _ when too_large system ->
    (refuse_too_large ?id "synthesize", [])
  | Ok system, Ok tech -> (
    let apps = Synth.App.of_system system in
    let hit =
      Option.map
        (fun st -> (st, Synth.Bound_store.lookup ?capacity st tech apps))
        t.store
    in
    let warm = Option.bind hit (fun (_, h) -> h.Synth.Bound_store.warm) in
    let t0 = Obs.Clock.now_ns () in
    match
      Synth.Explore.solve ?capacity ?deadline_ns ?warm tech apps
    with
    | exception Not_found ->
      (P.error ?id "technology library misses an application process", [])
    | Error d ->
      (P.error ?id (Format.asprintf "%a" Synth.Explore.pp_diagnostic d), [])
    | Ok s ->
      Obs.Metric.observe
        (if Option.is_some warm then m_synth_warm else m_synth_cold)
        (Obs.Clock.elapsed_ns t0);
      let response =
        P.ok ?id
          [
            ("op", J.String "synthesize");
            ("degraded", J.Bool s.Synth.Explore.degraded);
            ("warm", J.Bool (Option.is_some warm));
            ("cost", cost_json s.Synth.Explore.cost);
            ("binding", binding_json s.Synth.Explore.binding);
            ("worst_load", J.Int s.Synth.Explore.worst_load);
            ("explored", J.Int s.Synth.Explore.explored);
            ("pruned", J.Int s.Synth.Explore.pruned);
          ]
      in
      let commits =
        match hit with
        | Some (st, hit) ->
          [ (fun () -> Synth.Bound_store.remember ?capacity ~hit st tech apps s) ]
        | None -> []
      in
      (response, commits))

let pareto ~deadline_ns ~id ~model ~tech ~capacity =
  match (load_system ?id model, load_tech ?id tech) with
  | Error e, _ | _, Error e -> (e, [])
  | Ok system, Ok _ when too_large system -> (refuse_too_large ?id "pareto", [])
  | Ok system, Ok tech -> (
    let apps = Synth.App.of_system system in
    match Synth.Pareto.frontier ?capacity ?deadline_ns tech apps with
    | exception Not_found ->
      (P.error ?id "technology library misses an application process", [])
    | points, degraded ->
      ( P.ok ?id
          [
            ("op", J.String "pareto");
            ("degraded", J.Bool degraded);
            ( "points",
              J.List
                (List.map
                   (fun (p : Synth.Pareto.point) ->
                     J.Obj
                       [
                         ("cost", J.Int p.Synth.Pareto.total_cost);
                         ("worst_load", J.Int p.Synth.Pareto.worst_load);
                         ("binding", binding_json p.Synth.Pareto.binding);
                       ])
                   points) );
          ],
        [] ))

let run_json head ~end_time ~firings ~outcome =
  J.Obj
    (head
    @ [
        ("end_time", J.Int end_time);
        ("firings", J.Int firings);
        ("outcome", J.String (Format.asprintf "%a" Sim.Engine.pp_outcome outcome));
      ])

(* The flat shape: one run per application, named by its cluster ids. *)
let flat_response ?id runs =
  let run (clusters, end_time, firings, outcome) =
    let name =
      String.concat "+" (List.map Spi.Ids.Cluster_id.to_string clusters)
    in
    run_json [ ("application", J.String name) ] ~end_time ~firings ~outcome
  in
  P.ok ?id
    [
      ("op", J.String "simulate");
      ("compiled", J.Bool true);
      ("runs", J.List (List.map run runs));
    ]

let family_response ?id (s : Sim.Family_compiled.summary) =
  let run (c : Sim.Family_compiled.config_summary) =
    run_json
      [
        ("configuration", J.Int c.index);
        ( "assignment",
          J.String
            (Format.asprintf "%a" V.Variant_space.pp_assignment c.assignment)
        );
      ]
      ~end_time:c.end_time ~firings:c.firings ~outcome:c.outcome
  in
  P.ok ?id
    [
      ("op", J.String "simulate");
      ("compiled", J.Bool true);
      ("family", J.Bool true);
      ("configurations", J.Int (Array.length s.configs));
      ("splits", J.Int s.splits);
      ("subfamilies", J.Int s.subfamilies);
      ("executed_firings", J.Int s.executed_firings);
      ("shared_firings", J.Int s.shared_firings);
      ("runs", J.List (List.map run (Array.to_list s.configs)));
    ]

(* Both shapes run one featured summary pass on the cached family plan:
   a featured run restricted to one configuration is that
   configuration's run, and [Variant_space.enumerate] order is
   [Flatten.applications] order, so the flat shape reads its runs off
   the summary.  A system whose shared ids collide with a site prefix
   has no family plan: a family request gets that error, and a flat
   request is answered by one uncached [Sim.Compile] run per
   application.  Either way the request's deadline bounds the runs.
   The request's [compiled] is ignored. *)
let simulate t ~deadline_ns ~id ~jobs ~model ~until ~family =
  let limits =
    match until with
    | None -> Sim.Engine.default_limits
    | Some max_time -> { Sim.Engine.default_limits with max_time }
  in
  let expired () =
    P.deadline_exceeded ?id "simulate: the deadline passed before the runs finished"
  in
  let response =
    match load_system ?id model with
    | Error e -> e
    | Ok system when too_large system -> refuse_too_large ?id "simulate"
    | Ok system -> (
      match family_plan_for t system with
      | exception Invalid_argument m when family -> P.error ?id m
      | exception Invalid_argument _ -> (
        match V.Flatten.applications system with
        | exception Invalid_argument m -> P.error ?id m
        | models -> (
          match
            List.map
              (fun (clusters, m) ->
                let r =
                  Sim.Compile.run ~limits ?deadline_ns (Sim.Compile.compile m)
                in
                (clusters, r.Sim.Engine.end_time, r.firings, r.outcome))
              models
          with
          | exception Sim.Crt.Deadline_exceeded -> expired ()
          | runs -> flat_response ?id runs))
      | plan -> (
        match Sim.Family_compiled.summarize ~limits ~jobs ?deadline_ns plan with
        | exception Invalid_argument m -> P.error ?id m
        | exception Sim.Crt.Deadline_exceeded -> expired ()
        | s when family -> family_response ?id s
        | s ->
          flat_response ?id
            (Array.to_list s.configs
            |> List.map (fun (c : Sim.Family_compiled.config_summary) ->
                   (List.map snd c.assignment, c.end_time, c.firings, c.outcome)))
        ))
  in
  (response, [])

(* -- dispatch ---------------------------------------------------------- *)

let deadline_of t ~admitted_ns (r : P.request) =
  match
    (match r.P.deadline_ms with Some _ as d -> d | None -> t.default_deadline_ms)
  with
  | None -> None
  | Some ms -> Some (admitted_ns + (ms * 1_000_000))

let rec run_op t ~admitted_ns ~queue_depth ~jobs (r : P.request) =
  let id = r.P.id in
  let deadline_ns = deadline_of t ~admitted_ns r in
  (* a request may lower the domain count it runs on, never raise it *)
  let jobs =
    match r.P.jobs with Some j when j > 0 -> min j jobs | Some _ | None -> jobs
  in
  match r.P.op with
  | P.Ping -> (P.ok ?id [ ("op", J.String "ping") ], [])
  | P.Metrics ->
    (* telemetry read-out: never touches the pool or the store, so it
       stays cheap enough to poll mid-batch (spi-variants top does) *)
    ( P.ok ?id
        ([
           ("op", J.String "metrics");
           ("snapshot", Obs.Registry.snapshot ());
           ("exposition", J.String (Obs.Expo.render ()));
         ]
        @
        match t.series with
        | Some s -> [ ("series", Obs.Series.to_json s) ]
        | None -> []),
      [] )
  | P.Stats ->
    ( P.ok ?id
        [
          ("op", J.String "stats");
          ("queue_depth", J.Int queue_depth);
          ( "store_records",
            J.Int (match t.store with Some s -> Store.Keyed.size s | None -> 0)
          );
          ("store", J.Bool (Option.is_some t.store));
          ("jobs", J.Int t.jobs);
        ],
      [] )
  | P.Shutdown ->
    t.shutdown <- true;
    (P.ok ?id [ ("op", J.String "shutdown"); ("draining", J.Bool true) ], [])
  | P.Synthesize { model; tech; capacity } ->
    synthesize t ~deadline_ns ~id ~model ~tech ~capacity
  | P.Pareto { model; tech; capacity } ->
    pareto ~deadline_ns ~id ~model ~tech ~capacity
  | P.Simulate { model; until; compiled = _; family } ->
    simulate t ~deadline_ns ~id ~jobs ~model ~until ~family
  | P.Batch items ->
    (* fan the items out on the pool, one domain each; the store stays
       read-only until the joined commits run below *)
    let results =
      Synth.Par.map ~jobs:(min t.jobs (max 1 (List.length items)))
        (fun item -> run_op t ~admitted_ns ~queue_depth ~jobs:1 item)
        (Array.of_list items)
    in
    let commits =
      Array.to_list results |> List.concat_map (fun (_, commits) -> commits)
    in
    ( P.ok ?id
        [
          ("op", J.String "batch");
          ("results", J.List (Array.to_list (Array.map fst results)));
        ],
      commits )

let fresh_rid t =
  t.rid_seq <- t.rid_seq + 1;
  Printf.sprintf "req-%d" t.rid_seq

let is_degraded response =
  match J.member "degraded" response with Some (J.Bool true) -> true | _ -> false

let handle t ~admitted_ns ~queue_depth (r : P.request) =
  Obs.Metric.incr m_requests;
  match r.P.id with
  | Some id when Hashtbl.mem t.cache id ->
    Obs.Metric.incr m_cache_replays;
    Obs.Log.emit ~level:Obs.Log.Debug "serve.idempotent_replay"
      [ ("rid", J.String id) ];
    (match Hashtbl.find t.cache id with
    | J.Obj fields -> J.Obj (("cached", J.Bool true) :: fields)
    | other -> other)
  | id_opt ->
    (* Every request runs under a freshly minted trace: spans recorded
       anywhere below (explore tasks, simulation runs, batch items on
       pool domains) parent into its tree.  The rid threads through
       the response, the structured log stream and the daemon's
       [--trace] timeline, so one identifier joins all three. *)
    let rid = match id_opt with Some i -> i | None -> fresh_rid t in
    let tr = Obs.Rtrace.create rid in
    let t0 = Obs.Clock.now_ns () in
    let response =
      match
        Obs.Rtrace.with_request tr "serve.request" (fun () ->
            run_op t ~admitted_ns ~queue_depth ~jobs:t.jobs r)
      with
      | exception e ->
        Obs.Metric.incr m_errors;
        Obs.Log.emit ~level:Obs.Log.Error "serve.request_failed"
          [ ("rid", J.String rid); ("exn", J.String (Printexc.to_string e)) ];
        P.error ?id:id_opt (Printexc.to_string e)
      | response, commits ->
        List.iter (fun commit -> commit ()) commits;
        let status = P.status_of_response response in
        if String.equal status "error" then Obs.Metric.incr m_errors;
        let dur_ns = Obs.Clock.elapsed_ns t0 in
        Obs.Metric.observe m_request_ns dur_ns;
        (match r.P.op with
        | P.Metrics -> ()  (* polling must not flood the log stream *)
        | _ ->
          Obs.Log.emit "serve.request"
            [
              ("rid", J.String rid);
              ("status", J.String status);
              ("dur_ms", J.Int (dur_ns / 1_000_000));
              ("queue_depth", J.Int queue_depth);
            ]);
        if is_degraded response then
          Obs.Log.emit ~level:Obs.Log.Warn "serve.degraded"
            [ ("rid", J.String rid) ];
        (match id_opt with
        | Some id -> cache_put t id response
        | None -> ());
        response
    in
    (match t.on_trace with Some f -> f tr | None -> ());
    if r.P.trace then
      match response with
      | J.Obj fields -> J.Obj (fields @ [ ("trace", Obs.Rtrace.to_json tr) ])
      | other -> other
    else response
