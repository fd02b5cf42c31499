module I = Spi.Ids
module C = Variants.Canonical

let m_problem_hits = Obs.Registry.counter "bound_store.problem_hits"
let m_app_hits = Obs.Registry.counter "bound_store.app_merge_hits"
let m_cold = Obs.Registry.counter "bound_store.cold"

(* Key derivation feeds the figures the search actually depends on —
   per-process options, processor cost, capacity, per-app membership —
   in sorted order, so declaration order never splits the cache. *)
let feed_tech_entry t tech pid =
  C.feed_string t (I.Process_id.to_string pid);
  let o = Tech.options_of tech pid in
  C.feed_option t C.feed_int (Option.map (fun s -> s.Tech.load) o.Tech.sw);
  C.feed_option t C.feed_int (Option.map (fun h -> h.Tech.area) o.Tech.hw)

let feed_app t tech (a : App.t) =
  C.feed_tag t "app";
  C.feed_string t a.App.name;
  C.feed_list t
    (fun t pid -> feed_tech_entry t tech pid)
    (I.Process_id.Set.elements a.App.procs)

let app_key ?(capacity = Schedule.default_capacity) tech (a : App.t) =
  let t = C.create () in
  C.feed_tag t "explore-app/v1";
  C.feed_int t capacity;
  C.feed_int t (Tech.processor_cost tech);
  feed_app t tech a;
  C.digest t

let problem_key ?(capacity = Schedule.default_capacity) tech apps =
  let t = C.create () in
  C.feed_tag t "explore-problem/v1";
  C.feed_int t capacity;
  C.feed_int t (Tech.processor_cost tech);
  C.feed_list t
    (fun t a -> feed_app t tech a)
    (List.sort (fun (a : App.t) b -> String.compare a.App.name b.App.name) apps);
  C.digest t

let binding_to_json b : Obs.Json.t =
  Obs.Json.List
    (List.map
       (fun pid ->
         let impl =
           match Binding.impl_of pid b with
           | Some Binding.Hw -> "hw"
           | Some Binding.Sw | None -> "sw"
         in
         Obs.Json.List
           [
             Obs.Json.String (I.Process_id.to_string pid);
             Obs.Json.String impl;
           ])
       (Binding.processes b))

let binding_of_json json =
  match Obs.Json.to_list json with
  | None -> None
  | Some entries ->
    List.fold_left
      (fun acc entry ->
        match (acc, Obs.Json.to_list entry) with
        | None, _ | _, None -> None
        | Some b, Some [ Obs.Json.String pid; Obs.Json.String impl ] -> (
          match impl with
          | "hw" -> Some (Binding.bind (I.Process_id.of_string pid) Binding.Hw b)
          | "sw" -> Some (Binding.bind (I.Process_id.of_string pid) Binding.Sw b)
          | _ -> None)
        | Some _, Some _ -> None)
      (Some Binding.empty) entries

let solution_record restrict (s : Explore.solution) : Obs.Json.t =
  let binding =
    match restrict with
    | None -> s.Explore.binding
    | Some procs ->
      I.Process_id.Set.fold
        (fun pid acc ->
          match Binding.impl_of pid s.Explore.binding with
          | Some impl -> Binding.bind pid impl acc
          | None -> acc)
        procs Binding.empty
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "bound/v1");
      ("cost", Obs.Json.Int s.Explore.cost.Cost.total);
      ("degraded", Obs.Json.Bool s.Explore.degraded);
      ("binding", binding_to_json binding);
    ]

type hit = {
  key : string;
  warm : Binding.t option;
  exact : Obs.Json.t option;
}

(* An exact hit that answers with its own record has nothing to write:
   the problem record would be put unchanged, and the per-application
   records are only warm seeds. *)
let remember ?capacity ?hit store tech apps (s : Explore.solution) =
  let record = solution_record None s in
  match hit with
  | Some { exact = Some stored; _ }
    when (not s.Explore.degraded) && stored = record ->
    ()
  | Some _ | None ->
    let key =
      match hit with
      | Some h -> h.key
      | None -> problem_key ?capacity tech apps
    in
    Store.Keyed.put store
      ((key, record)
      :: List.map
           (fun (a : App.t) ->
             (app_key ?capacity tech a, solution_record (Some a.App.procs) s))
           apps)

let record_binding json =
  Option.bind (Obs.Json.member "binding" json) binding_of_json

let stored_binding store key =
  Option.bind (Store.Keyed.find store key) record_binding

let lookup ?capacity store tech apps =
  let key = problem_key ?capacity tech apps in
  let exact = Store.Keyed.find store key in
  match Option.bind exact record_binding with
  | Some _ as warm ->
    Obs.Metric.incr m_problem_hits;
    { key; warm; exact }
  | None -> (
    let partial =
      List.fold_left
        (fun acc a ->
          match stored_binding store (app_key ?capacity tech a) with
          | Some b -> (
            match acc with
            | None -> Some b
            | Some prev -> Some (Binding.union_prefer_left prev b))
          | None -> acc)
        None apps
    in
    match partial with
    | Some _ ->
      Obs.Metric.incr m_app_hits;
      { key; warm = partial; exact = None }
    | None ->
      Obs.Metric.incr m_cold;
      { key; warm = None; exact = None })

let warm_binding ?capacity store tech apps =
  (lookup ?capacity store tech apps).warm
