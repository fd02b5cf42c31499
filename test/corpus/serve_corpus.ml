(* The serve/v1 answer corpus: a table of request lines, built here from
   the example models and generated systems, each answered by one
   in-process handler (jobs 2, a fresh journal) exactly as the daemon
   admits a line: parse it, then [Serve.Handler.handle].  Prints one
   "<row>\t<response line>" per row; `dune runtest` diffs that against
   serve_corpus.expected.  A row that repeats another at a different
   "jobs" must answer with the same bytes, or the runner exits 1.

   usage: serve_corpus.exe MODELS_DIR *)

module J = Obs.Json
module P = Serve.Protocol
module V = Variants

type row = {
  name : string;
  line : string;
  same_as : string option;  (** a row whose answer this one must equal *)
}

let request ?deadline_ms ?jobs op =
  { P.id = None; deadline_ms; jobs; trace = false; op }

let row ?same_as name r =
  { name; line = J.to_string (P.request_to_json r); same_as }

let simulate ?deadline_ms ?jobs ~family model =
  request ?deadline_ms ?jobs
    (P.Simulate { model; until = None; compiled = false; family })

let pareto ?deadline_ms ?jobs ?capacity ~tech model =
  request ?deadline_ms ?jobs (P.Pareto { model; tech; capacity })

let read path = In_channel.with_open_bin path In_channel.input_all

(* A generated pipeline: 8 shared processes, then [sites] sites of
   [variants] clusters of 3 processes each. *)
let generated ~sites ~variants =
  V.Generator.generate
    {
      V.Generator.seed = 1;
      shared_processes = 8;
      sites;
      variants_per_site = variants;
      cluster_processes = 3;
      latency_range = (1, 10);
    }

(* A technology over every process of [system], weighted by
   [Generator.process_weight]: software load 5 + w/4, hardware area
   10 + w, processor 15. *)
let weighted_tech system =
  let pids =
    Spi.Ids.Process_id.Set.elements
      (Synth.App.union_procs (Synth.App.of_system system))
  in
  Synth.Tech.make ~processor_cost:15
    (List.map
       (fun pid ->
         let w = V.Generator.process_weight pid in
         (pid, Synth.Tech.both ~load:(5 + (w / 4)) ~area:(10 + w)))
       pids)
  |> Lang.Tech_file.to_string ~name:"weighted"

(* [tokens] initial tokens on the first input of the site [pick]
   chooses from the sites in series. *)
let loaded ~pick ~tokens system =
  let site = pick (V.System.sites system) in
  let input =
    List.find_map
      (fun port ->
        if V.Port.is_input port then
          List.assoc_opt (V.Port.id port) site.V.Structure.wiring
        else None)
      site.V.Structure.iface.V.Structure.iface_ports
    |> Option.get
  in
  let load c =
    if Spi.Ids.Channel_id.equal (Spi.Chan.id c) input then
      Spi.Chan.queue ~initial:(Spi.Token.replicate tokens Spi.Token.plain) input
    else c
  in
  V.System.make ~processes:(V.System.processes system)
    ~channels:(List.map load (V.System.channels system))
    ~sites:(V.System.sites system) ~constraints:(V.System.constraints system)
    (V.System.name system)

let rows dir =
  let model name = read (Filename.concat dir (name ^ ".spi")) in
  let codec = model "codec" and tech = read (Filename.concat dir "codec.tech") in
  let gen3x3 ~pick ~tokens =
    Lang.Printer.to_string (loaded ~pick ~tokens (generated ~sites:3 ~variants:3))
  in
  (* e2e's sim-family shape (3 sub-families), and one that splits into
     all 27 at the first site *)
  let gen = gen3x3 ~pick:(fun s -> List.hd (List.rev s)) ~tokens:1000 in
  let gen_first = gen3x3 ~pick:List.hd ~tokens:100 in
  let simulate_rows =
    List.concat_map
      (fun (name, source) ->
        List.concat_map
          (fun family ->
            let at jobs =
              Printf.sprintf "simulate %s %s jobs %d"
                (if family then "family" else "flat")
                name jobs
            in
            [
              row (at 1) (simulate ~jobs:1 ~family source);
              row ~same_as:(at 1) (at 2) (simulate ~jobs:2 ~family source);
            ])
          [ true; false ])
      [
        ("codec", codec);
        ("figure2", model "figure2");
        ("figure3", model "figure3");
        ("ports", model "ports");
        ("gen-3x3", gen);
        ("gen-3x3-first", gen_first);
      ]
  in
  let synthesize = request (P.Synthesize { model = codec; tech; capacity = None }) in
  (* 26 processes, 8 applications *)
  let gen3x2 = generated ~sites:3 ~variants:2 in
  let pareto_gen jobs =
    pareto ~jobs ~capacity:100 ~tech:(weighted_tech gen3x2)
      (Lang.Printer.to_string gen3x2)
  in
  simulate_rows
  @ [
      row "batch"
        (request
           (P.Batch
              [
                simulate ~family:true gen;
                simulate ~family:false (model "figure3");
                pareto ~tech codec;
              ]));
      row "pareto codec" (pareto ~tech codec);
      row "pareto deadline passed" (pareto ~deadline_ms:0 ~tech codec);
      row "pareto gen-3x2 jobs 1" (pareto_gen 1);
      row ~same_as:"pareto gen-3x2 jobs 1" "pareto gen-3x2 jobs 2"
        (pareto_gen 2);
      row "synthesize codec cold" synthesize;
      row "synthesize codec warm" synthesize;
      (* 2^13 configurations, past the handler's cap *)
      row "too_large"
        (simulate ~family:true
           (Lang.Printer.to_string (generated ~sites:13 ~variants:2)));
      row "deadline passed" (simulate ~deadline_ms:0 ~family:true gen);
    ]
  @ [
      { name = "malformed line"; line = {|{"schema":"serve/v1","op":"simul|}; same_as = None };
      { name = "unknown op"; line = {|{"schema":"serve/v1","op":"frobnicate"}|}; same_as = None };
    ]

(* As the daemon admits a line: a parse failure is answered at once. *)
let answer handler line =
  match P.parse_request line with
  | Error e -> P.error e
  | Ok r ->
    Serve.Handler.handle handler ~admitted_ns:(Obs.Clock.now_ns ())
      ~queue_depth:0 r

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
      prerr_endline "usage: serve_corpus.exe MODELS_DIR";
      exit 2
  in
  Obs.Log.set_sink None;
  let journal = Filename.temp_file "serve-corpus" ".journal" in
  let store, _ = Store.Keyed.open_store ~fsync:false journal in
  let handler = Serve.Handler.create ~store ~jobs:2 () in
  let answers = Hashtbl.create 64 in
  let mismatches = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Store.Keyed.close store;
      Sys.remove journal)
    (fun () ->
      List.iter
        (fun r ->
          let response = J.to_string (answer handler r.line) in
          Hashtbl.replace answers r.name response;
          (match r.same_as with
          | Some other when Hashtbl.find answers other <> response ->
            incr mismatches;
            Printf.eprintf "%s answers differently from %s\n" r.name other
          | Some _ | None -> ());
          Printf.printf "%s\t%s\n" r.name response)
        (rows dir));
  if !mismatches > 0 then exit 1
