(* Validates a --trace timeline written by the CLI against the trace/v1
   shape: schema tag, a non-empty traceEvents list of well-formed Chrome
   trace-event records, non-overlapping complete spans per lane, and
   flow arrows whose heads follow their tails.  Driven by the dune
   runtest rule in test/dune, which first runs the CLI with --trace.

   Optional checks:
     --expect-tconf           at least one "t_conf" span carrying
                              source/target configuration args
     --expect-worker-lanes N  at least N explorer domain lanes
     --expect-incumbent-counter
                              at least one "incumbent cost" counter
                              sample (the explorer's descent track)
     --allow-nesting          lanes may contain properly nested spans
                              (a request timeline's serve.request wraps
                              the parse/solve spans it contains);
                              partial overlap still fails *)

module J = Obs.Json

let fail fmt = Format.kasprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let path, expect_tconf, expect_lanes, expect_incumbent, allow_nesting =
    let path = ref None
    and tconf = ref false
    and lanes = ref 0
    and incumbent = ref false
    and nesting = ref false in
    let rec parse = function
      | [] -> ()
      | "--expect-tconf" :: rest ->
        tconf := true;
        parse rest
      | "--expect-worker-lanes" :: n :: rest ->
        lanes := int_of_string n;
        parse rest
      | "--expect-incumbent-counter" :: rest ->
        incumbent := true;
        parse rest
      | "--allow-nesting" :: rest ->
        nesting := true;
        parse rest
      | p :: rest ->
        path := Some p;
        parse rest
    in
    parse (List.tl (Array.to_list Sys.argv));
    match !path with
    | Some p -> (p, !tconf, !lanes, !incumbent, !nesting)
    | None ->
      fail
        "usage: validate_trace [--expect-tconf] [--expect-worker-lanes N] \
         [--expect-incumbent-counter] [--allow-nesting] TRACE.json"
  in
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match J.parse contents with
    | Ok d -> d
    | Error e -> fail "%s: not valid JSON: %s" path e
  in
  (match Option.bind (J.member "schema" doc) J.to_string_opt with
  | Some "trace/v1" -> ()
  | Some other -> fail "%s: schema %S, expected trace/v1" path other
  | None -> fail "%s: missing schema tag" path);
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List (_ :: _ as es)) -> es
    | Some (J.List []) -> fail "%s: traceEvents is empty" path
    | _ -> fail "%s: missing traceEvents list" path
  in
  let str k e = Option.bind (J.member k e) J.to_string_opt in
  let num k e =
    match J.member k e with
    | Some (J.Int i) -> Some (float_of_int i)
    | Some (J.Float f) -> Some f
    | _ -> None
  in
  let require_fields i e fields =
    List.iter
      (fun k ->
        if J.member k e = None then
          fail "%s: event %d (ph %s) lacks %S" path i
            (Option.value ~default:"?" (str "ph" e))
            k)
      fields
  in
  (* per-(pid, tid) complete spans, and flow tails seen so far *)
  let spans : (int * int, (float * float * string) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let flow_tails = Hashtbl.create 64 in
  let task_lanes = Hashtbl.create 16 in
  let tconf_ok = ref false in
  let incumbent_ok = ref false in
  List.iteri
    (fun i e ->
      let ph =
        match str "ph" e with
        | Some ph -> ph
        | None -> fail "%s: event %d has no ph" path i
      in
      let int_field k =
        match J.member k e with
        | Some v -> Option.value ~default:0 (J.to_int v)
        | None -> 0
      in
      match ph with
      | "M" ->
        require_fields i e [ "name"; "pid" ];
        (* worker lanes announce themselves as "domain N" thread names *)
        if
          str "name" e = Some "thread_name"
          &&
          match Option.bind (J.member "args" e) (J.member "name") with
          | Some (J.String n) ->
            String.length n > 7 && String.sub n 0 7 = "domain "
          | _ -> false
        then Hashtbl.replace task_lanes (int_field "pid", int_field "tid") ()
      | "X" ->
        require_fields i e [ "name"; "ts"; "dur"; "pid"; "tid" ];
        let ts = Option.get (num "ts" e) and dur = Option.get (num "dur" e) in
        if dur < 0. then fail "%s: event %d has negative dur" path i;
        let name = Option.value ~default:"?" (str "name" e) in
        let key = (int_field "pid", int_field "tid") in
        let cell =
          match Hashtbl.find_opt spans key with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.replace spans key c;
            c
        in
        cell := (ts, ts +. dur, name) :: !cell;
        if name = "t_conf" then begin
          match J.member "args" e with
          | Some args
            when J.member "source" args <> None
                 && J.member "target" args <> None
                 && J.member "t_conf" args <> None ->
            tconf_ok := true
          | _ -> fail "%s: t_conf span %d lacks source/target/t_conf args" path i
        end
      | "B" -> require_fields i e [ "name"; "ts"; "pid"; "tid" ]
      | "E" -> require_fields i e [ "ts"; "pid"; "tid" ]
      | "i" -> require_fields i e [ "name"; "ts"; "pid"; "tid" ]
      | "C" ->
        require_fields i e [ "name"; "ts"; "pid"; "args" ];
        (match J.member "args" e with
        | Some (J.Obj (_ :: _)) -> ()
        | _ -> fail "%s: counter event %d has no samples" path i);
        if str "name" e = Some "incumbent cost" then incumbent_ok := true
      | "s" ->
        require_fields i e [ "id"; "ts"; "pid"; "tid" ];
        Hashtbl.replace flow_tails (int_field "id") ()
      | "f" ->
        require_fields i e [ "id"; "ts"; "pid"; "tid" ];
        if not (Hashtbl.mem flow_tails (int_field "id")) then
          fail "%s: flow head %d (id %d) has no preceding tail" path i
            (int_field "id")
      | other -> fail "%s: event %d has unknown ph %S" path i other)
    events;
  (* spans on one lane must not overlap: sort by start and compare
     neighbours (1e-6 us slack absorbs float rounding at shared
     endpoints).  With --allow-nesting a span may instead sit fully
     inside a still-open ancestor (request timelines nest by design);
     straddling an ancestor's end remains an error. *)
  Hashtbl.iter
    (fun (pid, tid) cell ->
      if allow_nesting then
        (* (start, -end) lexicographic: at a shared start the longer
           span orders first, i.e. parents before their children; each
           span must then sit fully inside every still-open ancestor *)
        let sorted =
          List.sort
            (fun (a, ae, _) (b, be, _) ->
              match Float.compare a b with 0 -> Float.compare be ae | c -> c)
            !cell
        in
        ignore
          (List.fold_left
             (fun open_spans (s, e, name) ->
               let open_spans =
                 List.filter (fun (pe, _) -> s +. 1e-6 < pe) open_spans
               in
               (match open_spans with
               | (pe, pname) :: _ when e > pe +. 1e-6 ->
                 fail
                   "%s: lane pid=%d tid=%d: span %S (at %g) straddles \
                    the end of %S"
                   path pid tid name s pname
               | _ -> ());
               (e, name) :: open_spans)
             [] sorted)
      else
        let sorted =
          (* (start, end) lexicographic: a zero-duration span sharing
             its start with a longer one orders first and is not an
             overlap *)
          List.sort
            (fun (a, ae, _) (b, be, _) ->
              match Float.compare a b with 0 -> Float.compare ae be | c -> c)
            !cell
        in
        ignore
          (List.fold_left
             (fun prev (s, e, name) ->
               (match prev with
               | Some (pe, pname) when s +. 1e-6 < pe ->
                 fail "%s: lane pid=%d tid=%d: span %S (at %g) overlaps %S"
                   path pid tid name s pname
               | _ -> ());
               Some (e, name))
             None sorted))
    spans;
  if expect_tconf && not !tconf_ok then
    fail "%s: no t_conf reconfiguration span found" path;
  if expect_incumbent && not !incumbent_ok then
    fail "%s: no \"incumbent cost\" counter sample found" path;
  if Hashtbl.length task_lanes < expect_lanes then
    fail "%s: %d worker domain lanes, expected >= %d" path
      (Hashtbl.length task_lanes) expect_lanes;
  Format.printf "%s: valid trace/v1 timeline (%d events, %d lanes)@." path
    (List.length events) (Hashtbl.length spans)
