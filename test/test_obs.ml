(* The observability layer: lock-free metrics under concurrent writers,
   histogram quantile bounds, and the obs/v1 snapshot round-trip. *)

module J = Obs.Json

let test_counter_concurrent =
  QCheck.Test.make ~count:30 ~name:"counter loses no concurrent increments"
    QCheck.(pair (int_range 2 6) (int_range 1 2000))
    (fun (domains, increments) ->
      let c = Obs.Metric.make_counter "qcheck.concurrent" in
      let workers =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to increments do
                  Obs.Metric.incr c
                done))
      in
      List.iter Domain.join workers;
      Obs.Metric.value c = domains * increments)

let test_histogram_concurrent =
  QCheck.Test.make ~count:20
    ~name:"histogram count/sum lose no concurrent observations"
    QCheck.(pair (int_range 2 4) (int_range 1 500))
    (fun (domains, observations) ->
      let h = Obs.Metric.make_histogram "qcheck.hist" in
      let workers =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to observations do
                  Obs.Metric.observe h ((d * observations) + i)
                done))
      in
      List.iter Domain.join workers;
      Obs.Metric.count h = domains * observations
      && Obs.Metric.h_min h = Some 1
      && Obs.Metric.h_max h = Some (domains * observations))

let test_observe_n =
  QCheck.Test.make ~count:200
    ~name:"observe_n h v k = k calls of observe h v"
    QCheck.(small_list (pair (int_range (-3) 5000) (int_range 0 40)))
    (fun batches ->
      let bulk = Obs.Metric.make_histogram "qcheck.bulk" in
      let single = Obs.Metric.make_histogram "qcheck.single" in
      List.iter
        (fun (v, k) ->
          Obs.Metric.observe_n bulk v k;
          for _ = 1 to k do
            Obs.Metric.observe single v
          done)
        batches;
      let open Obs.Metric in
      count bulk = count single
      && sum bulk = sum single
      && buckets bulk = buckets single
      && h_min bulk = h_min single
      && h_max bulk = h_max single)

let test_histogram_quantiles () =
  let h = Obs.Metric.make_histogram "t.quantiles" in
  for v = 1 to 1000 do
    Obs.Metric.observe h v
  done;
  Alcotest.(check int) "count" 1000 (Obs.Metric.count h);
  Alcotest.(check int) "sum" 500500 (Obs.Metric.sum h);
  Alcotest.(check (option int)) "min" (Some 1) (Obs.Metric.h_min h);
  Alcotest.(check (option int)) "max" (Some 1000) (Obs.Metric.h_max h);
  (* power-of-two buckets: an estimate is an upper bound for its bucket
     and carries at most a 2x relative error *)
  let check_quantile q exact =
    match Obs.Metric.quantile h q with
    | None -> Alcotest.failf "quantile %.2f empty" q
    | Some est ->
      if est < exact || est > 2 * exact then
        Alcotest.failf "quantile %.2f: estimate %d not in [%d, %d]" q est
          exact (2 * exact)
  in
  check_quantile 0.5 500;
  check_quantile 0.9 900;
  check_quantile 0.99 990;
  Alcotest.(check (option int)) "q=1 is clamped to the observed max"
    (Some 1000)
    (Obs.Metric.quantile h 1.)

let test_histogram_rejects () =
  let c = Obs.Metric.make_counter "t.neg" in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metric.add: negative delta") (fun () ->
      Obs.Metric.add c (-1));
  let h = Obs.Metric.make_histogram "t.clamp" in
  Obs.Metric.observe h (-5);
  Alcotest.(check (option int)) "negative observation clamps to 0" (Some 0)
    (Obs.Metric.h_min h);
  Alcotest.check_raises "negative observe_n count"
    (Invalid_argument "Metric.observe_n: negative count") (fun () ->
      Obs.Metric.observe_n h 1 (-1))

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("schema", J.String "obs/v1");
        ("int", J.Int 42);
        ("neg", J.Int (-7));
        ("float", J.Float 1.5);
        ("truth", J.Bool true);
        ("nothing", J.Null);
        ("text", J.String "line\n\"quoted\" \\ tab\t");
        ("list", J.List [ J.Int 1; J.Int 2; J.Int 3 ]);
        ("nested", J.Obj [ ("k", J.List [ J.Obj [ ("d", J.Int 0) ] ]) ]);
      ]
  in
  (match J.parse (J.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "minified round-trip" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.parse (J.to_string ~minify:false doc) with
  | Ok parsed -> Alcotest.(check bool) "indented round-trip" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_snapshot_roundtrip () =
  Obs.Registry.reset ();
  let c = Obs.Registry.counter "t.snapshot.count" in
  let g = Obs.Registry.gauge "t.snapshot.level" in
  let h = Obs.Registry.histogram "t.snapshot.lat_ns" in
  Obs.Metric.add c 17;
  Obs.Metric.set g (-3);
  List.iter (Obs.Metric.observe h) [ 1; 10; 100; 1000 ];
  Obs.Registry.record_span ~name:"t.snapshot.span_ns" ~start_ns:5 ~dur_ns:9;
  let snap = Obs.Registry.snapshot () in
  match J.parse (J.to_string ~minify:false snap) with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "snapshot round-trips exactly" true (parsed = snap);
    let get path =
      List.fold_left (fun acc key -> Option.bind acc (J.member key)) (Some parsed) path
    in
    Alcotest.(check (option string))
      "schema tag" (Some "obs/v1")
      (Option.bind (get [ "schema" ]) J.to_string_opt);
    Alcotest.(check (option int))
      "counter value survives" (Some 17)
      (Option.bind (get [ "counters"; "t.snapshot.count" ]) J.to_int);
    Alcotest.(check (option int))
      "gauge value survives" (Some (-3))
      (Option.bind (get [ "gauges"; "t.snapshot.level" ]) J.to_int);
    Alcotest.(check (option int))
      "histogram count survives" (Some 4)
      (Option.bind (get [ "histograms"; "t.snapshot.lat_ns"; "count" ]) J.to_int);
    Alcotest.(check (option int))
      "histogram sum survives" (Some 1111)
      (Option.bind (get [ "histograms"; "t.snapshot.lat_ns"; "sum" ]) J.to_int);
    let spans =
      Option.bind (get [ "spans" ]) J.to_list |> Option.value ~default:[]
    in
    let ours =
      List.filter
        (fun s ->
          Option.bind (J.member "name" s) J.to_string_opt
          = Some "t.snapshot.span_ns")
        spans
    in
    Alcotest.(check int) "recorded span is in the snapshot" 1 (List.length ours)

let test_registry_identity () =
  let a = Obs.Registry.counter "t.identity" in
  let b = Obs.Registry.counter "t.identity" in
  Obs.Metric.incr a;
  Obs.Metric.incr b;
  Alcotest.(check int) "same handle for the same name" 2 (Obs.Metric.value a);
  Alcotest.check_raises "name/type clash is rejected"
    (Invalid_argument
       "Obs.Registry: t.identity already registered with another type")
    (fun () -> ignore (Obs.Registry.gauge "t.identity"))

let test_reset_keeps_handles () =
  let c = Obs.Registry.counter "t.reset" in
  Obs.Metric.add c 5;
  Obs.Registry.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metric.value c);
  Obs.Metric.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (Obs.Metric.value c)

let test_with_span () =
  Obs.Registry.reset ();
  let r = Obs.Registry.with_span "t.span.body_ns" (fun () -> 21 * 2) in
  Alcotest.(check int) "with_span returns the body's value" 42 r;
  (try
     ignore
       (Obs.Registry.with_span "t.span.raise_ns" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let names = List.map (fun s -> s.Obs.Span.name) (Obs.Registry.spans ()) in
  Alcotest.(check bool) "span recorded" true (List.mem "t.span.body_ns" names);
  Alcotest.(check bool) "span recorded on raise" true
    (List.mem "t.span.raise_ns" names);
  let h = Obs.Registry.histogram "t.span.body_ns" in
  Alcotest.(check int) "duration observed in the same-name histogram" 1
    (Obs.Metric.count h)

(* -------------------------- task counter ---------------------------- *)

(* [par.tasks] counts every task a pool runs: the seeds when a pool
   starts and every push, so across quiesced workloads its delta is
   exactly seeds + pushes — a lost or doubled increment breaks the
   equality.  Each [Harness.force_steals] run has 1 seed and 16
   pushes. *)
let test_task_counter_conservation () =
  let tasks = Obs.Registry.counter "par.tasks" in
  let before = Obs.Metric.value tasks in
  for _ = 1 to 5 do
    ignore (Harness.force_steals ~jobs:4 ~children:16 () : int * int)
  done;
  Alcotest.(check int) "par.tasks = seeds + pushes" (5 * (1 + 16))
    (Obs.Metric.value tasks - before)

let test_tasks_in_snapshot () =
  ignore (Harness.force_steals ~jobs:2 ~children:8 () : int * int);
  let snap = Obs.Registry.snapshot () in
  match J.parse (J.to_string snap) with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok parsed ->
    let counter name =
      Option.bind
        (Option.bind (J.member "counters" parsed) (J.member name))
        J.to_int
    in
    Alcotest.(check (option int))
      "par.tasks round-trips through obs/v1"
      (Some (Obs.Metric.value (Obs.Registry.counter "par.tasks")))
      (counter "par.tasks")

(* Snapshot files are replaced atomically: the temp file never lingers
   and a concurrent reader sees either the old or the new contents. *)
let test_atomic_file_write () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-obs-atomic-%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Atomic_file.write path "first\n";
      Obs.Atomic_file.write path "second\n";
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "last write wins, complete" "second\n" contents;
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp files left" [] leftovers)


(* ----------------------- span ring capacity ------------------------ *)

let test_span_capacity_guard () =
  Obs.Registry.reset ();
  let cap = Obs.Registry.span_capacity () in
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument
       "Obs.Registry.set_span_capacity: capacity 0 (want > 0)")
    (fun () -> Obs.Registry.set_span_capacity 0);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument
       "Obs.Registry.set_span_capacity: capacity -8 (want > 0)")
    (fun () -> Obs.Registry.set_span_capacity (-8));
  Alcotest.(check int) "capacity unchanged by rejected calls" cap
    (Obs.Registry.span_capacity ())

let test_span_capacity_same_is_noop () =
  Obs.Registry.reset ();
  Obs.Registry.record_span ~name:"t.cap.kept_ns" ~start_ns:1 ~dur_ns:2;
  (* a same-capacity call must not swap the ring and drop the span *)
  Obs.Registry.set_span_capacity (Obs.Registry.span_capacity ());
  let names = List.map (fun s -> s.Obs.Span.name) (Obs.Registry.spans ()) in
  Alcotest.(check bool) "recorded span survives a same-capacity call" true
    (List.mem "t.cap.kept_ns" names);
  (* a genuine resize is allowed to start fresh *)
  let cap = Obs.Registry.span_capacity () in
  Obs.Registry.set_span_capacity (cap + 1);
  Alcotest.(check int) "resize takes effect" (cap + 1)
    (Obs.Registry.span_capacity ());
  Obs.Registry.set_span_capacity cap

(* ------------------------ streamed traces --------------------------- *)

let stream_tmp =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-obs-stream-%d-%d.json" (Unix.getpid ()) !counter)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Two runs (pids 0 and 1) emitted through a sink: the streamed file,
   flushed once per run, must be byte-identical to the buffered
   exporter over the same records. *)
let emit_run sink ~pid =
  let module T = Obs.Trace_event in
  T.sink_process_name sink ~pid (Printf.sprintf "run %d" pid);
  T.sink_thread_name sink ~pid ~tid:1 "worker";
  sink.T.event
    (T.Complete
       {
         name = "fire";
         cat = "sim";
         pid;
         tid = 1;
         ts = 10. +. float_of_int pid;
         dur = 3.;
         args = [ ("n", J.Int pid) ];
       });
  sink.T.event
    (T.Instant
       { name = "tick"; cat = "sim"; pid; tid = 1; ts = 5.; args = [] });
  sink.T.event
    (T.Counter
       { name = "depth"; pid; ts = 7.; values = [ ("c", 2.) ] })

let test_trace_stream_byte_equality () =
  let module T = Obs.Trace_event in
  let buffered = stream_tmp () and streamed = stream_tmp () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ buffered; streamed ])
    (fun () ->
      let builder = T.create () in
      emit_run (T.buffer_sink builder) ~pid:0;
      emit_run (T.buffer_sink builder) ~pid:1;
      T.to_file buffered builder;
      let stream = Obs.Trace_stream.create streamed in
      emit_run (Obs.Trace_stream.sink stream) ~pid:0;
      Obs.Trace_stream.flush stream;
      emit_run (Obs.Trace_stream.sink stream) ~pid:1;
      let events = Obs.Trace_stream.close stream in
      Alcotest.(check int) "event count (metadata excluded)" 6 events;
      Alcotest.(check string) "streamed bytes = buffered bytes"
        (read_file buffered) (read_file streamed))

let test_trace_stream_empty_and_closed () =
  let path = stream_tmp () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let stream = Obs.Trace_stream.create path in
      Alcotest.(check int) "no events" 0 (Obs.Trace_stream.close stream);
      (match J.parse (read_file path) with
      | Error e -> Alcotest.failf "empty stream is not JSON: %s" e
      | Ok json ->
        Alcotest.(check (option string)) "schema tag" (Some "trace/v1")
          (Option.bind (J.member "schema" json) J.to_string_opt);
        Alcotest.(check bool) "empty traceEvents" true
          (Option.bind (J.member "traceEvents" json) J.to_list = Some []));
      Alcotest.(check bool) "use after close rejected" true
        (try
           Obs.Trace_stream.flush stream;
           false
         with Invalid_argument _ -> true))

let test_trace_stream_abort () =
  let path = stream_tmp () in
  let stream = Obs.Trace_stream.create path in
  emit_run (Obs.Trace_stream.sink stream) ~pid:0;
  Obs.Trace_stream.abort stream;
  Alcotest.(check bool) "target never materializes" false (Sys.file_exists path);
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp files left" [] leftovers

(* ------------------------ request tracing --------------------------- *)

let rtrace_find name spans =
  match List.find_opt (fun s -> s.Obs.Rtrace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "no span named %s" name

let test_rtrace_nesting () =
  let tr = Obs.Rtrace.create "rid-nest" in
  Obs.Rtrace.with_request tr "serve.request" (fun () ->
      Obs.Registry.with_span "t.rt.outer_ns" (fun () ->
          Obs.Registry.with_span "t.rt.inner_ns" (fun () -> ());
          Obs.Registry.record_span ~name:"t.rt.leaf_ns" ~start_ns:1 ~dur_ns:1));
  Alcotest.(check int) "nothing dropped" 0 (Obs.Rtrace.dropped tr);
  Alcotest.(check string) "rid" "rid-nest" (Obs.Rtrace.rid tr);
  let spans = Obs.Rtrace.spans tr in
  let root = rtrace_find "serve.request" spans in
  let outer = rtrace_find "t.rt.outer_ns" spans in
  let inner = rtrace_find "t.rt.inner_ns" spans in
  let leaf = rtrace_find "t.rt.leaf_ns" spans in
  Alcotest.(check int) "root parents to 0" 0 root.Obs.Rtrace.parent;
  Alcotest.(check int) "outer parents to root" root.Obs.Rtrace.id
    outer.Obs.Rtrace.parent;
  Alcotest.(check int) "inner parents to outer" outer.Obs.Rtrace.id
    inner.Obs.Rtrace.parent;
  Alcotest.(check int) "record_span leaf parents to outer"
    outer.Obs.Rtrace.id leaf.Obs.Rtrace.parent;
  (* spans recorded outside with_request join no trace *)
  Obs.Registry.record_span ~name:"t.rt.after_ns" ~start_ns:2 ~dur_ns:1;
  Alcotest.(check int) "no growth after deactivation" (List.length spans)
    (List.length (Obs.Rtrace.spans tr))

let test_rtrace_cross_domain () =
  let tr = Obs.Rtrace.create "rid-xdom" in
  Obs.Rtrace.with_request tr "serve.request" (fun () ->
      let ctx = Obs.Rtrace.capture () in
      let worker =
        Domain.spawn (fun () ->
            Obs.Rtrace.restore ctx;
            Obs.Registry.with_span "t.rt.worker_ns" (fun () -> ()))
      in
      Domain.join worker);
  let spans = Obs.Rtrace.spans tr in
  let root = rtrace_find "serve.request" spans in
  let worker = rtrace_find "t.rt.worker_ns" spans in
  Alcotest.(check int) "worker span parents to the request root"
    root.Obs.Rtrace.id worker.Obs.Rtrace.parent;
  Alcotest.(check bool) "recorded on a different domain" true
    (worker.Obs.Rtrace.domain <> root.Obs.Rtrace.domain)

let test_rtrace_overflow_counted () =
  let tr = Obs.Rtrace.create ~capacity:2 "rid-full" in
  Obs.Rtrace.with_request tr "root" (fun () ->
      for i = 1 to 5 do
        Obs.Registry.record_span ~name:"t.rt.flood_ns" ~start_ns:i ~dur_ns:1
      done);
  Alcotest.(check bool) "overflow is counted, not silent" true
    (Obs.Rtrace.dropped tr > 0);
  Alcotest.(check bool) "capacity respected" true
    (List.length (Obs.Rtrace.spans tr) <= 2);
  Alcotest.(check bool) "the root is kept" true
    (List.exists
       (fun (s : Obs.Rtrace.span) -> s.Obs.Rtrace.name = "root")
       (Obs.Rtrace.spans tr));
  match Obs.Json.member "dropped" (Obs.Rtrace.to_json tr) with
  | Some (J.Int n) when n > 0 -> ()
  | _ -> Alcotest.fail "dropped count missing from rtrace/v1"

let test_rtrace_json_shape () =
  let tr = Obs.Rtrace.create "rid-json" in
  Obs.Rtrace.with_request tr "serve.request" (fun () ->
      Obs.Registry.with_span "t.rt.child_ns" (fun () -> ()));
  let doc = Obs.Rtrace.to_json tr in
  Alcotest.(check (option string)) "schema" (Some "rtrace/v1")
    (Option.bind (J.member "schema" doc) J.to_string_opt);
  Alcotest.(check (option string)) "rid" (Some "rid-json")
    (Option.bind (J.member "rid" doc) J.to_string_opt);
  match Option.bind (J.member "spans" doc) J.to_list with
  | Some (_ :: _ :: _) -> ()
  | _ -> Alcotest.fail "expected at least two spans in the tree"

(* --------------------- Prometheus exposition ------------------------ *)

let expo_samples name text =
  (* non-comment lines "<name>[{...}] <value>" for one metric *)
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some sp when String.length line > 0 && line.[0] <> '#' ->
           let key = String.sub line 0 sp in
           let value =
             String.sub line (sp + 1) (String.length line - sp - 1)
           in
           let matches =
             key = name
             || (String.length key > String.length name
                 && String.sub key 0 (String.length name) = name
                 && (key.[String.length name] = '_'
                    || key.[String.length name] = '{'))
           in
           if matches then Some (key, value) else None
         | _ -> None)

let test_expo_sanitize () =
  Alcotest.(check string) "dots to underscores" "serve_queue_wait_ns"
    (Obs.Expo.sanitize "serve.queue_wait_ns");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Obs.Expo.sanitize "9lives");
  Alcotest.(check string) "colon kept" "a:b" (Obs.Expo.sanitize "a:b");
  Alcotest.(check int) "zero bucket upper" 0 (Obs.Expo.bucket_upper_of_lower 0);
  Alcotest.(check int) "pow2 bucket upper" 7 (Obs.Expo.bucket_upper_of_lower 4)

(* Every registered metric appears in the exposition; histogram bucket
   series are cumulative, monotone in le, and end with +Inf == count. *)
let test_expo_roundtrip =
  QCheck.Test.make ~count:50
    ~name:"Prometheus exposition is complete, cumulative, monotone"
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 2_000_000))
    (fun observations ->
      Obs.Registry.reset ();
      let h = Obs.Registry.histogram "t.expo.prop_ns" in
      List.iter (Obs.Metric.observe h) observations;
      let text = Obs.Expo.render () in
      (* completeness: every binding's sanitized name is exposed *)
      List.for_all
        (fun (name, _) -> expo_samples (Obs.Expo.sanitize name) text <> [])
        (Obs.Registry.bindings ())
      &&
      let samples = expo_samples "t_expo_prop_ns" text in
      let buckets =
        List.filter_map
          (fun (k, v) ->
            let prefix = "t_expo_prop_ns_bucket{le=\"" in
            if
              String.length k > String.length prefix
              && String.sub k 0 (String.length prefix) = prefix
            then
              let le =
                String.sub k (String.length prefix)
                  (String.length k - String.length prefix - 2)
              in
              Some (le, int_of_string v)
            else None)
          samples
      in
      let count =
        match List.assoc_opt "t_expo_prop_ns_count" samples with
        | Some v -> int_of_string v
        | None -> -1
      in
      let sum =
        match List.assoc_opt "t_expo_prop_ns_sum" samples with
        | Some v -> int_of_string v
        | None -> -1
      in
      let rec check_monotone prev_le prev_cum = function
        | [] -> true
        | ("+Inf", cum) :: rest ->
          cum = count && cum >= prev_cum && rest = []
        | (le, cum) :: rest ->
          let le = int_of_string le in
          le > prev_le && cum >= prev_cum && check_monotone le cum rest
      in
      count = List.length observations
      && sum = List.fold_left ( + ) 0 observations
      && buckets <> []
      && check_monotone (-1) 0 buckets)

(* ------------------------- rolling series --------------------------- *)

let test_series_rates_and_quantiles () =
  Obs.Registry.reset ();
  let s = Obs.Series.create ~windows:4 () in
  let c = Obs.Registry.counter "t.series.reqs" in
  let h = Obs.Registry.histogram "t.series.lat_ns" in
  Obs.Series.sample s;
  Obs.Metric.add c 100;
  for v = 1 to 100 do
    Obs.Metric.observe h v
  done;
  Unix.sleepf 0.01;
  Obs.Series.sample s;
  Alcotest.(check int) "two windows" 2 (Obs.Series.windows s);
  let doc = Obs.Series.to_json s in
  let get path =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some doc) path
  in
  Alcotest.(check (option string)) "schema" (Some "series/v1")
    (Option.bind (get [ "schema" ]) J.to_string_opt);
  Alcotest.(check (option int)) "counter value" (Some 100)
    (Option.bind (get [ "counters"; "t.series.reqs"; "value" ]) J.to_int);
  (match get [ "counters"; "t.series.reqs"; "last_per_s" ] with
  | Some (J.Float r) when r > 0. -> ()
  | other ->
    Alcotest.failf "expected positive rate, got %s"
      (match other with Some j -> J.to_string j | None -> "nothing"));
  Alcotest.(check (option int)) "windowed count" (Some 100)
    (Option.bind (get [ "histograms"; "t.series.lat_ns"; "window_count" ])
       J.to_int);
  match get [ "histograms"; "t.series.lat_ns"; "p50" ] with
  | Some (J.Int p50) when p50 >= 50 && p50 <= 127 -> ()
  | other ->
    Alcotest.failf "rolling p50 out of the 2x bucket bound: %s"
      (match other with Some j -> J.to_string j | None -> "nothing")

let test_series_eviction () =
  Obs.Registry.reset ();
  let s = Obs.Series.create ~windows:2 () in
  for _ = 1 to 5 do
    Obs.Series.sample s
  done;
  Alcotest.(check int) "capped at windows" 2 (Obs.Series.windows s);
  Alcotest.(check int) "taken keeps counting" 5 (Obs.Series.taken s);
  Alcotest.check_raises "windows < 2 rejected"
    (Invalid_argument "Series.create: windows < 2") (fun () ->
      ignore (Obs.Series.create ~windows:1 ()))

let test_series_delta_helpers () =
  let d =
    Obs.Series.delta_buckets
      ~newer:[ (0, 2); (1, 3); (2, 5) ]
      ~older:[ (0, 1); (2, 5) ]
  in
  Alcotest.(check (list (pair int int)))
    "per-bucket delta, zero buckets dropped"
    [ (0, 1); (1, 3) ]
    d;
  Alcotest.(check (option int)) "median of the delta" (Some 1)
    (Obs.Series.quantile_of_buckets d 0.5);
  Alcotest.(check (option int)) "empty window has no quantile" None
    (Obs.Series.quantile_of_buckets [] 0.5);
  (* rank = ceil(q * total): q=0.5 of [(0,1);(1,2);(2,4)] is rank 4,
     landing in the [2,3] bucket whose upper bound is 3 *)
  Alcotest.(check (option int)) "rank lands on the bucket upper" (Some 3)
    (Obs.Series.quantile_of_buckets [ (0, 1); (1, 2); (2, 4) ] 0.5)

let test_series_diff_snapshots () =
  Obs.Registry.reset ();
  let c = Obs.Registry.counter "t.diff.reqs" in
  let h = Obs.Registry.histogram "t.diff.lat_ns" in
  Obs.Metric.add c 3;
  let a = Obs.Registry.snapshot () in
  Obs.Metric.add c 4;
  for v = 1 to 50 do
    Obs.Metric.observe h v
  done;
  let b = Obs.Registry.snapshot () in
  (match Obs.Series.diff_snapshots a b with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok diff ->
    let get path =
      List.fold_left (fun j k -> Option.bind j (J.member k)) (Some diff) path
    in
    Alcotest.(check (option string)) "schema" (Some "obs-diff/v1")
      (Option.bind (get [ "schema" ]) J.to_string_opt);
    Alcotest.(check (option int)) "counter delta" (Some 4)
      (Option.bind (get [ "counters"; "t.diff.reqs"; "delta" ]) J.to_int);
    Alcotest.(check (option int)) "histogram count delta" (Some 50)
      (Option.bind
         (get [ "histograms"; "t.diff.lat_ns"; "count_delta" ])
         J.to_int);
    (match get [ "histograms"; "t.diff.lat_ns"; "window_p50" ] with
    | Some (J.Int p) when p >= 25 && p <= 63 -> ()
    | other ->
      Alcotest.failf "window_p50 out of bound: %s"
        (match other with Some j -> J.to_string j | None -> "nothing"));
    (* unchanged metrics are omitted, so a self-diff is empty *)
    match Obs.Series.diff_snapshots b b with
    | Ok d ->
      Alcotest.(check bool) "self-diff has no counter entries" true
        (J.member "counters" d = Some (J.Obj []))
    | Error e -> Alcotest.failf "self-diff failed: %s" e);
  match Obs.Series.diff_snapshots (J.Obj []) b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-obs/v1 document"

(* ------------------------- structured logs -------------------------- *)

let with_log_capture f =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.set_rate ~burst:Obs.Log.default_burst
        ~per_s:Obs.Log.default_per_s;
      Obs.Log.set_sink (Some (Obs.Log.channel_sink stderr)))
    (fun () -> f lines)

let test_log_schema_and_levels () =
  with_log_capture (fun lines ->
      Obs.Log.set_level Obs.Log.Info;
      Obs.Log.emit ~level:Obs.Log.Debug "t.log.hidden" [];
      Alcotest.(check int) "below threshold: nothing" 0 (List.length !lines);
      Obs.Log.emit "t.log.visible" [ ("answer", J.Int 42) ];
      match !lines with
      | [ line ] -> (
        match J.parse line with
        | Error e -> Alcotest.failf "log line is not JSON: %s" e
        | Ok doc ->
          let get path =
            List.fold_left
              (fun j k -> Option.bind j (J.member k))
              (Some doc) path
          in
          Alcotest.(check (option string)) "schema" (Some "log/v1")
            (Option.bind (get [ "schema" ]) J.to_string_opt);
          Alcotest.(check (option string)) "level" (Some "info")
            (Option.bind (get [ "level" ]) J.to_string_opt);
          Alcotest.(check (option string)) "event" (Some "t.log.visible")
            (Option.bind (get [ "event" ]) J.to_string_opt);
          Alcotest.(check (option int)) "fields carried" (Some 42)
            (Option.bind (get [ "fields"; "answer" ]) J.to_int);
          Alcotest.(check bool) "ts present" true (get [ "ts_ns" ] <> None))
      | other -> Alcotest.failf "expected one line, got %d" (List.length other))

let test_log_rate_limit () =
  with_log_capture (fun lines ->
      Obs.Log.set_level Obs.Log.Info;
      (* one-token bucket, slow refill: the tight loop exhausts it
         immediately and the suppressed lines accumulate in the bucket
         ([set_rate] would reset them, so stay on one configuration) *)
      Obs.Log.set_rate ~burst:1. ~per_s:50.;
      for _ = 1 to 10 do
        Obs.Log.emit "t.log.flood" []
      done;
      Alcotest.(check bool) "burst bounds the lines" true
        (List.length !lines < 5);
      (* refill, then the next permitted line carries the count *)
      Unix.sleepf 0.05;
      Obs.Log.emit "t.log.flood" [];
      let suppressed =
        List.exists
          (fun line ->
            match J.parse line with
            | Ok doc -> (
              match Option.bind (J.member "suppressed" doc) J.to_int with
              | Some n -> n > 0
              | None -> false)
            | Error _ -> false)
          !lines
      in
      Alcotest.(check bool)
        "a later line reports what the limiter dropped" true suppressed;
      Alcotest.check_raises "bad rate rejected"
        (Invalid_argument "Log.set_rate") (fun () ->
          Obs.Log.set_rate ~burst:0. ~per_s:1.))

(* --------------------- atomic file durability ----------------------- *)

let test_atomic_file_fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-obs-fsync-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "snap.json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* the durable path: file fsync, rename, directory fsync *)
      Obs.Atomic_file.write path "durable\n";
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "contents survive the fsync path" "durable\n"
        contents;
      Alcotest.(check (list string)) "only the target remains"
        [ "snap.json" ]
        (Array.to_list (Sys.readdir dir)));
  (* a missing directory still fails loudly *)
  match Obs.Atomic_file.write (Filename.concat dir "gone/x.json") "y" with
  | () -> Alcotest.fail "write into a missing directory succeeded"
  | exception Sys_error _ -> ()

let suite =
  ( "obs",
    [
      QCheck_alcotest.to_alcotest test_counter_concurrent;
      QCheck_alcotest.to_alcotest test_histogram_concurrent;
      QCheck_alcotest.to_alcotest test_observe_n;
      Alcotest.test_case "histogram quantile sanity" `Quick
        test_histogram_quantiles;
      Alcotest.test_case "negative inputs" `Quick test_histogram_rejects;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "registry handle identity" `Quick
        test_registry_identity;
      Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
      Alcotest.test_case "with_span" `Quick test_with_span;
      Alcotest.test_case "task counter conservation" `Quick
        test_task_counter_conservation;
      Alcotest.test_case "par.tasks in the snapshot" `Quick
        test_tasks_in_snapshot;
      Alcotest.test_case "atomic snapshot replacement" `Quick
        test_atomic_file_write;
      Alcotest.test_case "span capacity guard" `Quick test_span_capacity_guard;
      Alcotest.test_case "same span capacity keeps spans" `Quick
        test_span_capacity_same_is_noop;
      Alcotest.test_case "trace stream byte equality" `Quick
        test_trace_stream_byte_equality;
      Alcotest.test_case "trace stream empty and closed" `Quick
        test_trace_stream_empty_and_closed;
      Alcotest.test_case "trace stream abort" `Quick test_trace_stream_abort;
      Alcotest.test_case "rtrace span nesting" `Quick test_rtrace_nesting;
      Alcotest.test_case "rtrace cross-domain context" `Quick
        test_rtrace_cross_domain;
      Alcotest.test_case "rtrace overflow counted" `Quick
        test_rtrace_overflow_counted;
      Alcotest.test_case "rtrace/v1 shape" `Quick test_rtrace_json_shape;
      Alcotest.test_case "exposition sanitize and buckets" `Quick
        test_expo_sanitize;
      QCheck_alcotest.to_alcotest test_expo_roundtrip;
      Alcotest.test_case "series rates and rolling quantiles" `Quick
        test_series_rates_and_quantiles;
      Alcotest.test_case "series ring eviction" `Quick test_series_eviction;
      Alcotest.test_case "series delta helpers" `Quick
        test_series_delta_helpers;
      Alcotest.test_case "snapshot diff" `Quick test_series_diff_snapshots;
      Alcotest.test_case "log schema and levels" `Quick
        test_log_schema_and_levels;
      Alcotest.test_case "log rate limiting" `Quick test_log_rate_limit;
      Alcotest.test_case "atomic write durability" `Quick
        test_atomic_file_fresh_dir;
    ] )
