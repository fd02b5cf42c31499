(* The four serve/v1 workloads: request streams generated from the run
   seed, and the answer every response is checked against.  The daemon
   only ever sees generated .spi/.tech text. *)

module J = Obs.Json
module P = Serve.Protocol
module V = Variants
module I = Spi.Ids

type t = Synth_cold | Synth_warm | Sim_family | Sim_flat

let all = [ Synth_cold; Synth_warm; Sim_family; Sim_flat ]

let name = function
  | Synth_cold -> "synth-cold"
  | Synth_warm -> "synth-warm"
  | Sim_family -> "sim-family"
  | Sim_flat -> "sim-flat"

(* sim-flat is the one workload with two clients: the daemon executes one
   request at a time, so the second connection queues behind the first. *)
let connections = function Sim_flat -> 2 | Synth_cold | Synth_warm | Sim_family -> 1

(* Size of the request cycle of the three repeating workloads. *)
let cycle = 8

(* -- generation ---------------------------------------------------------- *)

let generate ~rng ~sites ~variants =
  V.Generator.generate
    {
      V.Generator.seed = Random.State.bits rng;
      shared_processes = 8;
      sites;
      variants_per_site = variants;
      cluster_processes = 3;
      latency_range = (1, 10);
    }

(* Front-loaded technology: the first six processes in decision order are
   ASIC-expensive but cheap in software, the regime where the explorer's
   branch order and pruning decide the search size.  Weights come from
   the seeded stream, so two problems of one run share no technology
   entries (and hence no store keys).  They are drawn from [26, 75]
   rather than [1, 100]: the narrower range halves the spread of search
   times between problems (coefficient of variation 0.6 -> 0.3), so a
   run's few hundred problems give the same medians whatever the seed. *)
let front_loaded_tech ~rng system =
  let apps = Synth.App.of_system system in
  let pids = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  Synth.Tech.make ~processor_cost:15
    (List.mapi
       (fun i pid ->
         let w = 26 + Random.State.int rng 50 in
         if i < 6 then (pid, Synth.Tech.both ~load:(4 + (w mod 5)) ~area:(300 + w))
         else (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
       pids)

type problem = { model : string; tech_text : string; tech : Synth.Tech.t; capacity : int }

(* figure2-gen-large (sites 3, variants 3, capacity 140) for synth-cold,
   figure2-gen-medium (sites 3, variants 2, capacity 120) for synth-warm. *)
let problem ~seed ~large i =
  let rng = Random.State.make [| seed; (if large then 1 else 2); i |] in
  let system = generate ~rng ~sites:3 ~variants:(if large then 3 else 2) in
  let tech = front_loaded_tech ~rng system in
  {
    model = Lang.Printer.to_string system;
    tech_text = Lang.Tech_file.to_string ~name:"gen" tech;
    tech;
    capacity = (if large then 140 else 120);
  }

let with_initial system channel n =
  let channels =
    List.map
      (fun c ->
        if I.Channel_id.equal (Spi.Chan.id c) channel then
          Spi.Chan.queue ~initial:(Spi.Token.replicate n Spi.Token.plain) channel
        else c)
      (V.System.channels system)
  in
  V.System.make ~processes:(V.System.processes system) ~channels
    ~sites:(V.System.sites system) ~constraints:(V.System.constraints system)
    (V.System.name system)

let last_site_input system =
  match List.rev (V.System.sites system) with
  | [] -> invalid_arg "last_site_input: system without sites"
  | site :: _ ->
    List.find_map
      (fun port ->
        if V.Port.is_input port then List.assoc_opt (V.Port.id port) site.V.Structure.wiring
        else None)
      site.V.Structure.iface.V.Structure.iface_ports
    |> Option.get

(* The first top-level channel some shared process reads and none writes. *)
let first_shared_source system =
  let over f =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc m -> I.Channel_id.Set.union acc (f m)) acc (Spi.Process.modes p))
      I.Channel_id.Set.empty (V.System.processes system)
  in
  let consumed = over Spi.Mode.consumed_channels and produced = over Spi.Mode.produced_channels in
  List.find
    (fun c ->
      let id = Spi.Chan.id c in
      I.Channel_id.Set.mem id consumed && not (I.Channel_id.Set.mem id produced))
    (V.System.channels system)
  |> Spi.Chan.id

(* The sim workloads share eight structures (sites 3, variants 3: 27
   configurations each) and differ in where the initial tokens sit. *)
let sim_model ~seed ~family k =
  let rng = Random.State.make [| seed; 3; k |] in
  let system = generate ~rng ~sites:3 ~variants:3 in
  let system =
    if family then with_initial system (last_site_input system) 1000
    else with_initial system (first_shared_source system) 20
  in
  Lang.Printer.to_string system

(* -- expected answers ----------------------------------------------------- *)

type digest = int * int * string  (* end_time, firings, outcome *)

type expect =
  | Synth of { tech : Synth.Tech.t; warm : bool; cost : int option }
  | Sim of digest list  (* one per configuration or application, in order *)

type item = { op : P.op; expect : expect }

let digest (r : Sim.Engine.result) =
  (r.Sim.Engine.end_time, r.Sim.Engine.firings,
   Format.asprintf "%a" Sim.Engine.pp_outcome r.Sim.Engine.outcome)

(* Sim.Engine is the oracle: every configuration (family) or application
   (flat) is run interpreted on its flattened model, once per model. *)
let reference ~family model =
  let system = Lang.Parser.system_of_string model in
  if family then
    List.map
      (fun a -> digest (Sim.Engine.run (V.Flatten.flatten system (V.Variant_space.to_choice a))))
      (V.Variant_space.enumerate system)
  else List.map (fun (_, m) -> digest (Sim.Engine.run m)) (V.Flatten.applications system)

let synth_item ?cost ~warm (p : problem) =
  {
    op = P.Synthesize { model = p.model; tech = p.tech_text; capacity = Some p.capacity };
    expect = Synth { tech = p.tech; warm; cost };
  }

let sim_item ~family model runs =
  { op = P.Simulate { model; until = None; compiled = true; family }; expect = Sim runs }

let line ~id op =
  J.to_string ~minify:true
    (P.request_to_json { P.id = Some id; deadline_ms = None; jobs = None; trace = false; op })

(* -- response checks ------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (J.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "response lacks a valid %S" name)

let run_digest json =
  let* end_time = field "end_time" J.to_int json in
  let* firings = field "firings" J.to_int json in
  let* outcome = field "outcome" J.to_string_opt json in
  Ok (end_time, firings, outcome)

(* -- prepared streams -------------------------------------------------------- *)

(* The journal a workload's daemon starts from. *)
type journal = No_store | Empty | Seeded of string

type prepared = {
  workload : t;
  journal : journal;
  warmup : item list;  (* untimed; leaves the daemon's caches as the timed run finds them *)
  item : int -> item;  (* the i-th timed request *)
}

(* A private copy of the journal at [path], or [None] without a store. *)
let journal_at journal path =
  if Sys.file_exists path then Sys.remove path;
  match journal with
  | No_store -> None
  | Empty -> Some path
  | Seeded src ->
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
    Some path

(* [seed_store items] solves [items] on a daemon with a fresh journal and
   returns the journal and the cold costs. *)
let prepare ~seed ~seed_store w =
  match w with
  | Synth_cold ->
    (* every request is a problem no journal has seen; warm-up draws
       from a disjoint index range *)
    let item i = synth_item ~warm:false (problem ~seed ~large:true i) in
    { workload = w; journal = Empty; warmup = List.init 2 (fun k -> item (-1 - k)); item }
  | Synth_warm ->
    let problems = Array.init cycle (problem ~seed ~large:false) in
    let path, costs = seed_store (Array.map (synth_item ~warm:false) problems) in
    let item i = synth_item ~cost:costs.(i mod cycle) ~warm:true problems.(i mod cycle) in
    { workload = w; journal = Seeded path; warmup = List.init cycle item; item }
  | Sim_family | Sim_flat ->
    let family = w = Sim_family in
    let models = Array.init cycle (sim_model ~seed ~family) in
    let runs = Synth.Par.map ~jobs:2 (reference ~family) models in
    let items = Array.map2 (sim_item ~family) models runs in
    { workload = w; journal = No_store; warmup = Array.to_list items; item = (fun i -> items.(i mod cycle)) }

(* [Ok (Some cost)] for synthesis, [Ok None] for simulation. *)
let check item json =
  let* () =
    match P.status_of_response json with
    | "ok" -> Ok ()
    | status ->
      let message = Option.value ~default:"" (Option.bind (J.member "message" json) J.to_string_opt) in
      Error (Printf.sprintf "status %s %s" status message)
  in
  match item.expect with
  | Synth { tech; warm; cost } ->
    let* degraded = field "degraded" J.to_bool json in
    let* got_warm = field "warm" J.to_bool json in
    let* total = Result.bind (field "cost" Option.some json) (field "total" J.to_int) in
    let* binding = field "binding" Synth.Bound_store.binding_of_json json in
    if degraded then Error "degraded answer"
    else if got_warm <> warm then Error (Printf.sprintf "warm=%b, expected %b" got_warm warm)
    else if (try Synth.Cost.total tech binding with Not_found -> -1) <> total then
      Error "reported cost is not the cost of the reported binding"
    else (
      match cost with
      | Some c when c <> total -> Error (Printf.sprintf "cost %d, expected %d" total c)
      | Some _ | None -> Ok (Some total))
  | Sim runs ->
    let* got = field "runs" J.to_list json in
    let* got =
      List.fold_right (fun r acc -> let* acc = acc in let* d = run_digest r in Ok (d :: acc)) got (Ok [])
    in
    if got = runs then Ok None else Error "simulation results differ from Sim.Engine"
