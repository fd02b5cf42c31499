(* Result files (bench-e2e/v1): the host and run fingerprint, every
   metric with its unit, and the two readers of such files — [compare]
   and [validate]. *)

module J = Obs.Json

let schema = "bench-e2e/v1"

(* -- fingerprint ------------------------------------------------------------ *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None
let lines path = Option.fold ~none:[] ~some:(String.split_on_char '\n') (read_file path)

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:") (lines "/proc/self/status") with
  | None -> Domain.recommended_domain_count ()
  | Some line ->
    let ranges = String.trim (List.nth (String.split_on_char ':' line) 1) in
    List.fold_left
      (fun n range ->
        match String.split_on_char '-' range with
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | _ -> n + 1)
      0 (String.split_on_char ',' ranges)

let cpu_model () =
  match List.find_opt (String.starts_with ~prefix:"model name") (lines "/proc/cpuinfo") with
  | Some line -> String.trim (List.nth (String.split_on_char ':' line) 1)
  | None -> "unknown"

(* Filesystem type of the longest mount point holding [dir]. *)
let filesystem dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let under mount = mount = "/" || dir = mount || String.starts_with ~prefix:(mount ^ "/") dir in
  List.fold_left
    (fun (best, fs) line ->
      match String.split_on_char ' ' line with
      | _ :: mount :: kind :: _ when under mount && String.length mount > String.length best -> (mount, kind)
      | _ -> (best, fs))
    ("", "unknown") (lines "/proc/mounts")
  |> snd

(* The checked-out commit, read from .git without running git. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      match read_file (Filename.concat ".git" ref_) with
      | Some sha -> String.trim sha
      | None ->
        List.find_map
          (fun l -> match String.split_on_char ' ' l with [ sha; r ] when r = ref_ -> Some sha | _ -> None)
          (lines ".git/packed-refs")
        |> Option.value ~default:"unknown")
    | _ -> head)

let fingerprint ~journal_dir ~seed ~seconds ~replay ~trace workloads =
  J.Obj
    [
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (nproc ()));
            ("cpu", J.String (cpu_model ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("journal_fs", J.String (filesystem journal_dir));
          ] );
      ( "run",
        J.Obj
          [
            ("commit", J.String (commit ()));
            ("seed", J.Int seed);
            ("duration_s", J.Int seconds);
            ("replay", J.Int replay);
            ("trace", J.Bool trace);
            ("workloads", J.List (List.map (fun w -> J.String (Workload.name w)) workloads));
          ] );
    ]

(* -- metric values ------------------------------------------------------------ *)

type value = { name : string; value : float; samples : int; spread : float }

let ms ns = float_of_int ns /. 1e6

(* Latency quantiles are taken per window of 100 consecutive responses
   (so at least 10 lie beyond each window's p90) and the median over the
   windows is reported.  [spread] is the relative half-width of the run's
   own uncertainty: an order-statistic 95% interval over all responses
   for the latency quantiles, half the interquartile range over five
   sub-windows for throughput and over the daemon spawns for setup_s. *)
let end_to_end (t : Timed.t) =
  let samples = t.Timed.samples in
  let n = List.length samples in
  let lat = List.map (fun s -> ms s.Load.latency_ns) samples in
  let ok = List.filter (fun s -> s.Load.ok) samples in
  let window_ns = max 1 (int_of_float (t.Timed.window_s *. 1e9)) in
  let rates =
    List.init 5 (fun k ->
        let inside s = min 4 ((s.Load.done_ns - t.Timed.start_ns) * 5 / window_ns) = k in
        float_of_int (List.length (List.filter inside ok)) /. (t.Timed.window_s /. 5.))
  in
  let setups = List.length t.Timed.setup_s in
  [
    { name = "throughput_rps"; value = float_of_int (List.length ok) /. t.Timed.window_s; samples = n; spread = Stats.iqr_spread rates };
    { name = "latency_p50_ms"; value = Stats.windowed_quantile ~size:100 lat 0.5; samples = n; spread = Stats.quantile_spread lat 0.5 };
    { name = "latency_p90_ms"; value = Stats.windowed_quantile ~size:100 lat 0.9; samples = n; spread = Stats.quantile_spread lat 0.9 };
    { name = "error_rate"; value = float_of_int (n - List.length ok) /. float_of_int (max 1 n); samples = n; spread = 0. };
    { name = "setup_s"; value = Stats.median t.Timed.setup_s; samples = setups; spread = Stats.iqr_spread t.Timed.setup_s };
    { name = "peak_rss_mb"; value = t.Timed.peak_rss_mb; samples = 1; spread = 0. };
  ]

let value_json ?samples ?spread name value =
  J.Obj
    ([ ("value", J.Float value); ("unit", J.String (Metrics.unit_of name)) ]
    @ Option.fold ~none:[] ~some:(fun n -> [ ("samples", J.Int n) ]) samples
    @ Option.fold ~none:[] ~some:(fun s -> [ ("spread", J.Float s) ]) spread)

let values_json vs = J.Obj (List.map (fun v -> (v.name, value_json ~samples:v.samples ~spread:v.spread v.name v.value)) vs)
let pairs_json ps = J.Obj (List.map (fun (name, v) -> (name, value_json name v)) ps)

(* -- reading result files ------------------------------------------------------ *)

let load path =
  match Option.map J.parse (read_file path) with
  | None -> Error (path ^ ": unreadable")
  | Some (Error e) -> Error (Printf.sprintf "%s: not JSON: %s" path e)
  | Some (Ok json) when J.member "schema" json = Some (J.String schema) -> Ok json
  | Some (Ok _) -> Error (Printf.sprintf "%s: not a %s result" path schema)

let path json keys = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) keys
let obj_keys = function Some (J.Obj kv) -> List.map fst kv | _ -> []

(* The bounds of BENCHMARK.json's end_to_end metrics by name, and the
   names of its per_layer metrics. *)
let benchmark file =
  match Option.map J.parse (read_file file) with
  | Some (Ok json) ->
    let items key = Option.value ~default:[] (Option.bind (J.member key json) J.to_list) in
    let name j = Option.value ~default:"" (Option.bind (J.member "name" j) J.to_string_opt) in
    ( List.map
        (fun j -> (name j, Option.value ~default:0. (Option.bind (J.member "bound" j) J.to_float)))
        (items "end_to_end"),
      List.map name (items "per_layer") )
  | Some (Error e) -> failwith (Printf.sprintf "%s: %s" file e)
  | None -> failwith (file ^ ": unreadable")

(* -- compare ------------------------------------------------------------------- *)

(* setup_s differences below this many seconds are never a regression *)
let setup_floor_s = 0.020

(* B against A: [same] within the bound, [unresolved] when either run's
   own spread is wider than the bound, else [better] or [worse].  A zero
   bound makes any change count. *)
let verdict ~name ~better ~bound ~spread a b =
  let rel = if a = 0. then if b = 0. then 0. else Float.infinity else (b -. a) /. Float.abs a in
  let gain = match better with Metrics.Higher -> rel | Metrics.Lower -> -.rel in
  if bound = 0. then if b = a then "same" else if gain > 0. then "better" else "worse"
  else if spread > bound then "unresolved"
  else if Float.abs rel <= bound || (name = "setup_s" && Float.abs (b -. a) <= setup_floor_s) then "same"
  else if gain > 0. then "better"
  else "worse"

let compare ~benchmark_file a_path b_path =
  let bounds, _ = benchmark benchmark_file in
  match (load a_path, load b_path) with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok a, Ok b ->
    let host j = Option.map (J.to_string ~minify:true) (path j [ "fingerprint"; "host" ]) in
    if host a <> host b then begin
      Printf.eprintf "compare: different host fingerprints\n  %s\n  %s\n"
        (Option.value ~default:"?" (host a)) (Option.value ~default:"?" (host b));
      2
    end
    else begin
      Printf.printf "%-11s %-15s %12s %12s %9s %7s  %s\n" "workload" "metric" "A" "B" "delta" "bound" "verdict";
      let tally = Hashtbl.create 4 in
      List.iter
        (fun w ->
          let w = Workload.name w in
          List.iter
            (fun (name, _, better) ->
              let get j k = Option.bind (path j [ "workloads"; w; "end_to_end"; name; k ]) J.to_float in
              match (get a "value", get b "value") with
              | Some va, Some vb ->
                let bound =
                  match List.assoc_opt name bounds with Some b -> b | None -> List.assoc name Metrics.ungated
                in
                let spread = Float.max (Option.value ~default:0. (get a "spread")) (Option.value ~default:0. (get b "spread")) in
                let v = verdict ~name ~better ~bound ~spread va vb in
                Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v));
                let delta = if va = 0. then 0. else 100. *. (vb -. va) /. Float.abs va in
                Printf.printf "%-11s %-15s %12.4f %12.4f %+8.2f%% %6.0f%%  %s\n" w name va vb delta (100. *. bound) v
              | _ -> ())
            Metrics.end_to_end)
        Workload.all;
      let count v = Option.value ~default:0 (Hashtbl.find_opt tally v) in
      Printf.printf "%d pairs: %d same, %d better, %d worse, %d unresolved\n"
        (List.fold_left (fun n v -> n + count v) 0 [ "same"; "better"; "worse"; "unresolved" ])
        (count "same") (count "better") (count "worse") (count "unresolved");
      if count "worse" > 0 then 1 else 0
    end

(* -- validate ------------------------------------------------------------------- *)

(* A result file is well formed, correct, and names exactly the metrics
   BENCHMARK.json lists, plus the ungated end-to-end ones. *)
let validate ~benchmark_file file =
  let e2e, per_layer = benchmark benchmark_file in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let same_names what got want =
    let missing = List.filter (fun n -> not (List.mem n got)) want
    and extra = List.filter (fun n -> not (List.mem n want)) got in
    if missing <> [] || extra <> [] then
      problem "%s: missing [%s], not in BENCHMARK.json [%s]" what (String.concat " " missing) (String.concat " " extra)
  in
  let ungated = List.map fst Metrics.ungated in
  same_names "catalogue end_to_end"
    (List.filter (fun n -> not (List.mem n ungated)) (List.map (fun (n, _, _) -> n) Metrics.end_to_end))
    (List.map fst e2e);
  same_names "catalogue per_layer" (List.map (fun (n, _, _) -> n) Metrics.per_layer) per_layer;
  (match load file with
  | Error e -> problem "%s" e
  | Ok json ->
    if path json [ "correct" ] <> Some (J.Bool true) then problem "correct is not true";
    if path json [ "failed" ] <> Some (J.Int 0) then problem "failed is not 0";
    let workloads = obj_keys (path json [ "workloads" ]) in
    if workloads = [] then problem "no workloads";
    List.iter
      (fun w ->
        let section k = path json [ "workloads"; w; k ] in
        let check_values what names =
          List.iter
            (fun n ->
              match (Option.bind (path json [ "workloads"; w; what; n; "value" ]) J.to_float,
                     Option.bind (path json [ "workloads"; w; what; n; "unit" ]) J.to_string_opt) with
              | Some v, Some _ when Float.is_finite v -> ()
              | _ -> problem "%s %s %s: no finite value with a unit" w what n)
            names
        in
        same_names (w ^ " end_to_end") (obj_keys (section "end_to_end")) (ungated @ List.map fst e2e);
        check_values "end_to_end" (obj_keys (section "end_to_end"));
        if section "per_layer" <> None then begin
          same_names (w ^ " per_layer") (obj_keys (section "per_layer")) per_layer;
          check_values "per_layer" (obj_keys (section "per_layer"))
        end)
      workloads);
  match List.rev !problems with
  | [] -> print_endline (file ^ ": ok"); 0
  | ps -> List.iter (fun p -> prerr_endline (file ^ ": " ^ p)) ps; 1
