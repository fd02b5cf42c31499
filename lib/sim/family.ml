module I = Spi.Ids

type config_run = {
  index : int;
  assignment : Variants.Variant_space.assignment;
  result : Engine.result;
}

type leaf = { leaf_members : int list; leaf_makespan : int }

type report = {
  runs : config_run array;
  splits : int;
  subfamilies : int;
  executed_firings : int;
  shared_firings : int;
  leaves : leaf array;
}

(* ------------------------------------------------------------------ *)
(* Site prefixes.                                                      *)
(*                                                                     *)
(* [Flatten.flatten] names every element instantiated for a site        *)
(* "<site>.…" (nested prefixes compose), so the string prefix is how    *)
(* the family engine attributes state to a still-unresolved ("cold")    *)
(* site: cold-prefixed processes must not fire and cold-prefixed        *)
(* channels still hold their initial tokens in every member's run.      *)
(* ------------------------------------------------------------------ *)

let prefix_of site = I.Interface_id.to_string site ^ "."

let has_prefix id pfx =
  let n = String.length pfx in
  let rec from i = i = n || (id.[i] = pfx.[i] && from (i + 1)) in
  String.length id >= n && from 0

(* [has_prefix id (prefix_of site)] without building the prefix. *)
let under_site id site =
  let s = I.Interface_id.to_string site in
  String.length id > String.length s
  && id.[String.length s] = '.'
  && has_prefix id s

let cold_site_of cold id = List.find_opt (under_site id) cold

let validate_prefixes system sites =
  let prefixes = List.map prefix_of sites in
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i <> j && has_prefix q p then
            invalid_arg
              (Printf.sprintf
                 "Family_compiled.plan: site prefix %S extends site prefix %S"
                 q p))
        prefixes)
    prefixes;
  let check_shared what id =
    if List.exists (has_prefix id) prefixes then
      invalid_arg
        (Printf.sprintf
           "Family_compiled.plan: shared %s id %S collides with a site prefix"
           what id)
  in
  List.iter
    (fun p -> check_shared "process" (I.Process_id.to_string (Spi.Process.id p)))
    (Variants.System.processes system);
  List.iter
    (fun c -> check_shared "channel" (I.Channel_id.to_string (Spi.Chan.id c)))
    (Variants.System.channels system)

let headroom ~deadline report =
  let out = Array.make (Array.length report.runs) 0 in
  Array.iter
    (fun leaf ->
      let h = deadline - leaf.leaf_makespan in
      List.iter (fun i -> out.(i) <- h) leaf.leaf_members)
    report.leaves;
  Array.mapi (fun i h -> (i, h)) out

let makespans report =
  Array.map
    (fun cr ->
      let last =
        List.fold_left
          (fun acc entry ->
            match entry with
            | Trace.Completed { time; _ } -> max acc time
            | _ -> acc)
          0 cr.result.Engine.trace
      in
      (cr.index, last))
    report.runs

let emit_timeline sink system report =
  Array.iter
    (fun cr ->
      let model =
        Variants.Flatten.flatten system
          (Variants.Variant_space.to_choice cr.assignment)
      in
      let name =
        Format.asprintf "cfg %d: %a" cr.index
          Variants.Variant_space.pp_assignment cr.assignment
      in
      Timeline.emit ~pid:(cr.index + 1) ~name sink model cr.result)
    report.runs

let pp_summary ppf r =
  let per_config_firings =
    Array.fold_left (fun acc cr -> acc + cr.result.Engine.firings) 0 r.runs
  in
  Format.fprintf ppf
    "configs=%d subfamilies=%d splits=%d executed=%d shared=%d (vs %d \
     per-config firings)"
    (Array.length r.runs) r.subfamilies r.splits r.executed_firings
    r.shared_firings per_config_firings
