module I = Spi.Ids

type suggestion = { chan : I.Channel_id.t; observed : int; capacity : int }

let suggest ?(margin = 0) ?policy ?configurations ~stimuli model =
  if margin < 0 then invalid_arg "Sizing.suggest: negative margin";
  (* keyed by channel ids directly — no per-lookup string conversion *)
  let high = ref I.Channel_id.Map.empty in
  let plan = Compile.compile ?configurations model in
  List.iter
    (fun stims ->
      let result = Compile.run ?policy ~stimuli:stims plan in
      let stats = Stats.of_result model result in
      List.iter
        (fun (c : Stats.channel_stats) ->
          let current =
            Option.value ~default:0 (I.Channel_id.Map.find_opt c.Stats.chan !high)
          in
          high :=
            I.Channel_id.Map.add c.Stats.chan
              (max current c.Stats.high_water)
              !high)
        stats.Stats.channels)
    stimuli;
  List.filter_map
    (fun chan ->
      match Spi.Chan.kind chan with
      | Spi.Chan.Register -> None
      | Spi.Chan.Queue ->
        let cid = Spi.Chan.id chan in
        let observed =
          Option.value ~default:0 (I.Channel_id.Map.find_opt cid !high)
        in
        Some { chan = cid; observed; capacity = max 1 (observed + margin) })
    (Spi.Model.channels model)

let apply suggestions model =
  let capacity_of cid =
    List.find_map
      (fun s -> if I.Channel_id.equal s.chan cid then Some s.capacity else None)
      suggestions
  in
  let channels =
    List.map
      (fun chan ->
        match Spi.Chan.kind chan, capacity_of (Spi.Chan.id chan) with
        | Spi.Chan.Queue, Some capacity ->
          Spi.Chan.queue ~initial:(Spi.Chan.initial chan) ~capacity
            (Spi.Chan.id chan)
        | (Spi.Chan.Queue | Spi.Chan.Register), _ -> chan)
      (Spi.Model.channels model)
  in
  Spi.Model.build_exn ~processes:(Spi.Model.processes model) ~channels

let verify ?policy ?configurations ~stimuli model =
  let plan = Compile.compile ?configurations model in
  try
    List.iter
      (fun stims ->
        ignore
          (Compile.run ?policy ~overflow:Spi.Semantics.Reject ~stimuli:stims
             plan))
      stimuli;
    Ok ()
  with Spi.Semantics.Channel_overflow cid -> Error cid

let pp_suggestion ppf s =
  Format.fprintf ppf "%a: observed %d -> capacity %d" I.Channel_id.pp s.chan
    s.observed s.capacity
