module Pmap = Ids.Process_id.Map
module Cmap = Ids.Channel_id.Map

type node = P of Ids.Process_id.t | C of Ids.Channel_id.t

module Node = struct
  type t = node

  let compare a b =
    match a, b with
    | P p1, P p2 -> Ids.Process_id.compare p1 p2
    | C c1, C c2 -> Ids.Channel_id.compare c1 c2
    | P _, C _ -> -1
    | C _, P _ -> 1

  let pp ppf = function
    | P p -> Format.fprintf ppf "P:%a" Ids.Process_id.pp p
    | C c -> Format.fprintf ppf "C:%a" Ids.Channel_id.pp c
end

module Graph = Graphlib.Digraph.Make (Node)

type error =
  | Duplicate_process of Ids.Process_id.t
  | Duplicate_channel of Ids.Channel_id.t
  | Unknown_channel of Ids.Process_id.t * Ids.Channel_id.t
  | Multiple_writers of Ids.Channel_id.t * Ids.Process_id.t list
  | Multiple_readers of Ids.Channel_id.t * Ids.Process_id.t list

let pp_error ppf =
  let pp_procs = Format.pp_print_list ~pp_sep:Format.pp_print_space Ids.Process_id.pp in
  function
  | Duplicate_process p ->
    Format.fprintf ppf "duplicate process id %a" Ids.Process_id.pp p
  | Duplicate_channel c ->
    Format.fprintf ppf "duplicate channel id %a" Ids.Channel_id.pp c
  | Unknown_channel (p, c) ->
    Format.fprintf ppf "process %a references undeclared channel %a"
      Ids.Process_id.pp p Ids.Channel_id.pp c
  | Multiple_writers (c, ps) ->
    Format.fprintf ppf "channel %a has multiple writers: %a" Ids.Channel_id.pp
      c pp_procs ps
  | Multiple_readers (c, ps) ->
    Format.fprintf ppf "channel %a has multiple readers: %a" Ids.Channel_id.pp
      c pp_procs ps

type t = {
  processes : Process.t Pmap.t;
  channels : Chan.t Cmap.t;
  writer : Ids.Process_id.t Cmap.t;
  reader : Ids.Process_id.t Cmap.t;
}

let collect_errors processes channels =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let pmap =
    List.fold_left
      (fun acc p ->
        let pid = Process.id p in
        if Pmap.mem pid acc then begin
          err (Duplicate_process pid);
          acc
        end
        else Pmap.add pid p acc)
      Pmap.empty processes
  in
  let cmap =
    List.fold_left
      (fun acc c ->
        let cid = Chan.id c in
        if Cmap.mem cid acc then begin
          err (Duplicate_channel cid);
          acc
        end
        else Cmap.add cid c acc)
      Cmap.empty channels
  in
  let writers = ref Cmap.empty and readers = ref Cmap.empty in
  let note table pid cid =
    table :=
      Cmap.update cid
        (function None -> Some [ pid ] | Some ps -> Some (pid :: ps))
        !table
  in
  Pmap.iter
    (fun pid p ->
      let check_declared cid =
        if not (Cmap.mem cid cmap) then err (Unknown_channel (pid, cid))
      in
      Ids.Channel_id.Set.iter
        (fun cid ->
          check_declared cid;
          note readers pid cid)
        (Process.inputs p);
      Ids.Channel_id.Set.iter
        (fun cid ->
          check_declared cid;
          note writers pid cid)
        (Process.outputs p))
    pmap;
  let single what table =
    Cmap.filter_map
      (fun cid pids ->
        match pids with
        | [] -> None
        | [ pid ] -> Some pid
        | pids ->
          err (what cid (List.sort Ids.Process_id.compare pids));
          None)
      table
  in
  let writer = single (fun c ps -> Multiple_writers (c, ps)) !writers in
  let reader = single (fun c ps -> Multiple_readers (c, ps)) !readers in
  (List.rev !errors, { processes = pmap; channels = cmap; writer; reader })

let build ~processes ~channels =
  match collect_errors processes channels with
  | [], model -> Ok model
  | errors, _ -> Error errors

let build_exn ~processes ~channels =
  match build ~processes ~channels with
  | Ok model -> model
  | Error errors ->
    let msg =
      Format.asprintf "@[<v>Model.build:@,%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_error)
        errors
    in
    invalid_arg msg

let processes m = List.map snd (Pmap.bindings m.processes)
let channels m = List.map snd (Cmap.bindings m.channels)
let find_process pid m = Pmap.find_opt pid m.processes
let find_channel cid m = Cmap.find_opt cid m.channels

let get_process pid m =
  match find_process pid m with Some p -> p | None -> raise Not_found

let get_channel cid m =
  match find_channel cid m with Some c -> c | None -> raise Not_found

let writer_of cid m = Cmap.find_opt cid m.writer
let reader_of cid m = Cmap.find_opt cid m.reader

let unread_channels m =
  Cmap.fold
    (fun cid _ acc ->
      if Cmap.mem cid m.reader then acc else Ids.Channel_id.Set.add cid acc)
    m.channels Ids.Channel_id.Set.empty

let unwritten_channels m =
  Cmap.fold
    (fun cid _ acc ->
      if Cmap.mem cid m.writer then acc else Ids.Channel_id.Set.add cid acc)
    m.channels Ids.Channel_id.Set.empty

let source_processes m =
  Pmap.fold
    (fun pid p acc ->
      if Ids.Channel_id.Set.is_empty (Process.inputs p) then
        Ids.Process_id.Set.add pid acc
      else acc)
    m.processes Ids.Process_id.Set.empty

let to_graph m =
  let g =
    Pmap.fold (fun pid _ g -> Graph.add_node (P pid) g) m.processes Graph.empty
  in
  let g = Cmap.fold (fun cid _ g -> Graph.add_node (C cid) g) m.channels g in
  let g = Cmap.fold (fun cid pid g -> Graph.add_edge (P pid) (C cid) g) m.writer g in
  Cmap.fold (fun cid pid g -> Graph.add_edge (C cid) (P pid) g) m.reader g

let union a b =
  build
    ~processes:(processes a @ processes b)
    ~channels:(channels a @ channels b)

let node_label = function
  | P p -> Ids.Process_id.to_string p
  | C c -> Ids.Channel_id.to_string c

let pp_stats ppf m =
  Format.fprintf ppf "%d processes, %d channels" (Pmap.cardinal m.processes)
    (Cmap.cardinal m.channels)
