module I = Spi.Ids

type t = Structure.cluster

let make ?(channels = []) ?(sub_sites = []) ~ports ~processes name =
  {
    Structure.cluster_id = I.Cluster_id.of_string name;
    cluster_ports = ports;
    processes;
    channels;
    sub_sites;
  }

let id (c : t) = c.Structure.cluster_id
let ports (c : t) = c.Structure.cluster_ports

let input_ports c = fst (Port.signature (ports c))
let output_ports c = snd (Port.signature (ports c))

let internal_channel_ids (c : t) =
  List.fold_left
    (fun acc ch -> I.Channel_id.Set.add (Spi.Chan.id ch) acc)
    I.Channel_id.Set.empty c.Structure.channels

let port_channel_ids select c =
  I.Port_id.Set.fold
    (fun pid acc -> I.Channel_id.Set.add (Port.channel_of pid) acc)
    (select c) I.Channel_id.Set.empty

let input_channel_ids = port_channel_ids input_ports
let output_channel_ids = port_channel_ids output_ports

type error =
  | Duplicate_port of I.Port_id.t
  | Port_channel_declared of I.Channel_id.t
  | Undeclared_channel of I.Process_id.t * I.Channel_id.t
  | Input_port_fanout of I.Port_id.t * I.Process_id.t list
  | Output_port_fanin of I.Port_id.t * I.Process_id.t list
  | Input_port_written of I.Port_id.t * I.Process_id.t
  | Output_port_read of I.Port_id.t * I.Process_id.t
  | Internal_model_error of Spi.Model.error
  | Sub_site_unwired of I.Interface_id.t * I.Port_id.t
  | Sub_site_bad_target of I.Interface_id.t * I.Channel_id.t

let pp_error ppf =
  let pp_procs =
    Format.pp_print_list ~pp_sep:Format.pp_print_space I.Process_id.pp
  in
  function
  | Duplicate_port p -> Format.fprintf ppf "duplicate port %a" I.Port_id.pp p
  | Port_channel_declared c ->
    Format.fprintf ppf "internal channel %a shadows a port" I.Channel_id.pp c
  | Undeclared_channel (p, c) ->
    Format.fprintf ppf
      "process %a references %a, neither internal nor a port" I.Process_id.pp
      p I.Channel_id.pp c
  | Input_port_fanout (port, ps) ->
    Format.fprintf ppf "input port %a read by several processes: %a"
      I.Port_id.pp port pp_procs ps
  | Output_port_fanin (port, ps) ->
    Format.fprintf ppf "output port %a written by several processes: %a"
      I.Port_id.pp port pp_procs ps
  | Input_port_written (port, p) ->
    Format.fprintf ppf "input port %a written by %a" I.Port_id.pp port
      I.Process_id.pp p
  | Output_port_read (port, p) ->
    Format.fprintf ppf "output port %a read by %a" I.Port_id.pp port
      I.Process_id.pp p
  | Internal_model_error e -> Spi.Model.pp_error ppf e
  | Sub_site_unwired (iface, port) ->
    Format.fprintf ppf "embedded interface %a: port %a not wired"
      I.Interface_id.pp iface I.Port_id.pp port
  | Sub_site_bad_target (iface, chan) ->
    Format.fprintf ppf "embedded interface %a: wired to unknown channel %a"
      I.Interface_id.pp iface I.Channel_id.pp chan

(* The port placeholder channel for [pid], as seen from the port lists. *)
let port_of_channel ports cid =
  List.find_opt
    (fun p -> I.Channel_id.equal (Port.channel_of (Port.id p)) cid)
    ports

(* Every check but the first works on the cluster's port sets, which a
   port declared twice leaves undefined. *)
let rec validate (c : t) =
  match Port.duplicates c.Structure.cluster_ports with
  | [] -> validate_ported c
  | dups -> List.map (fun p -> Duplicate_port p) dups

and validate_ported (c : t) =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let internal = internal_channel_ids c in
  let in_ports = input_channel_ids c and out_ports = output_channel_ids c in
  I.Channel_id.Set.iter
    (fun cid ->
      if I.Channel_id.Set.mem cid in_ports || I.Channel_id.Set.mem cid out_ports
      then err (Port_channel_declared cid))
    internal;
  let known cid =
    I.Channel_id.Set.mem cid internal
    || I.Channel_id.Set.mem cid in_ports
    || I.Channel_id.Set.mem cid out_ports
  in
  let readers = Hashtbl.create 8 and writers = Hashtbl.create 8 in
  let note table cid pid =
    let key = I.Channel_id.to_string cid in
    Hashtbl.replace table key (pid :: Option.value ~default:[] (Hashtbl.find_opt table key))
  in
  List.iter
    (fun p ->
      let pid = Spi.Process.id p in
      I.Channel_id.Set.iter
        (fun cid ->
          if not (known cid) then err (Undeclared_channel (pid, cid));
          if I.Channel_id.Set.mem cid out_ports then
            (match port_of_channel c.Structure.cluster_ports cid with
            | Some port -> err (Output_port_read (Port.id port, pid))
            | None -> ());
          note readers cid pid)
        (Spi.Process.inputs p);
      I.Channel_id.Set.iter
        (fun cid ->
          if not (known cid) then err (Undeclared_channel (pid, cid));
          if I.Channel_id.Set.mem cid in_ports then
            (match port_of_channel c.Structure.cluster_ports cid with
            | Some port -> err (Input_port_written (Port.id port, pid))
            | None -> ());
          note writers cid pid)
        (Spi.Process.outputs p))
    c.Structure.processes;
  let check_degree table ports_set make_error =
    I.Channel_id.Set.iter
      (fun cid ->
        match Hashtbl.find_opt table (I.Channel_id.to_string cid) with
        | Some (_ :: _ :: _ as ps) ->
          (match port_of_channel c.Structure.cluster_ports cid with
          | Some port ->
            err (make_error (Port.id port) (List.sort I.Process_id.compare ps))
          | None -> ())
        | Some _ | None -> ())
      ports_set
  in
  check_degree readers in_ports (fun port ps -> Input_port_fanout (port, ps));
  check_degree writers out_ports (fun port ps -> Output_port_fanin (port, ps));
  (* Internal structure check: declare placeholder channels as unbounded
     queues so single-writer/single-reader validation covers ports too. *)
  let placeholder_channels =
    List.map
      (fun p -> Spi.Chan.queue (Port.channel_of (Port.id p)))
      c.Structure.cluster_ports
  in
  (match
     Spi.Model.build ~processes:c.Structure.processes
       ~channels:(c.Structure.channels @ placeholder_channels)
   with
  | Ok _ -> ()
  | Error es ->
    List.iter
      (fun e ->
        match e with
        (* fan-in/fan-out on ports is already reported in port terms *)
        | Spi.Model.Multiple_writers (cid, _) | Spi.Model.Multiple_readers (cid, _)
          when Option.is_some (port_of_channel c.Structure.cluster_ports cid) -> ()
        | e -> err (Internal_model_error e))
      es);
  List.iter
    (fun site ->
      let iface = site.Structure.iface in
      let wired_ports = List.map fst site.Structure.wiring in
      List.iter
        (fun port ->
          let pid = Port.id port in
          if not (List.exists (I.Port_id.equal pid) wired_ports) then
            err (Sub_site_unwired (iface.Structure.interface_id, pid)))
        iface.Structure.iface_ports;
      List.iter
        (fun (_, target) ->
          if not (known target) then
            err (Sub_site_bad_target (iface.Structure.interface_id, target)))
        site.Structure.wiring;
      List.iter
        (fun sub_cluster -> errors := validate sub_cluster @ !errors)
        iface.Structure.clusters)
    c.Structure.sub_sites;
  List.rev !errors

let validate_exn c =
  match validate c with
  | [] -> ()
  | errors ->
    invalid_arg
      (Format.asprintf "@[<v>Cluster %a:@,%a@]" I.Cluster_id.pp (id c)
         (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_error)
         errors)

let rec processes_closure (c : t) =
  c.Structure.processes
  @ List.concat_map
      (fun site ->
        List.concat_map processes_closure site.Structure.iface.Structure.clusters)
      c.Structure.sub_sites

type instance = {
  inst_processes : Spi.Process.t list;
  inst_channels : Spi.Chan.t list;
}

let rec instantiate ~prefix ~port_channels ~sub_choice (c : t) =
  let internal = internal_channel_ids c in
  let host_of_port pid =
    match
      List.find_opt (fun (p, _) -> I.Port_id.equal p pid) port_channels
    with
    | Some (_, host) -> host
    | None ->
      invalid_arg
        (Format.asprintf "Cluster.instantiate %a: port %a not bound"
           I.Cluster_id.pp (id c) I.Port_id.pp pid)
  in
  let rename_cid cid =
    if I.Channel_id.Set.mem cid internal then
      I.Channel_id.of_string (prefix ^ "." ^ I.Channel_id.to_string cid)
    else
      match port_of_channel c.Structure.cluster_ports cid with
      | Some port -> host_of_port (Port.id port)
      | None ->
        invalid_arg
          (Format.asprintf "Cluster.instantiate %a: unknown channel %a"
             I.Cluster_id.pp (id c) I.Channel_id.pp cid)
  in
  let channels =
    List.map
      (fun ch -> Spi.Chan.rename (rename_cid (Spi.Chan.id ch)) ch)
      c.Structure.channels
  in
  let processes =
    List.map
      (fun p ->
        let pid =
          I.Process_id.of_string
            (prefix ^ "." ^ I.Process_id.to_string (Spi.Process.id p))
        in
        Spi.Process.rename pid (Spi.Process.map_channels rename_cid p))
      c.Structure.processes
  in
  let sub_instances =
    List.map
      (fun site ->
        let iface = site.Structure.iface in
        let chosen_id = sub_choice iface.Structure.interface_id in
        let chosen =
          match
            List.find_opt
              (fun cl -> I.Cluster_id.equal cl.Structure.cluster_id chosen_id)
              iface.Structure.clusters
          with
          | Some cl -> cl
          | None ->
            invalid_arg
              (Format.asprintf
                 "Cluster.instantiate: interface %a has no cluster %a"
                 I.Interface_id.pp iface.Structure.interface_id
                 I.Cluster_id.pp chosen_id)
        in
        let sub_ports =
          List.map (fun (p, target) -> (p, rename_cid target)) site.Structure.wiring
        in
        let sub_prefix =
          prefix ^ "." ^ I.Interface_id.to_string iface.Structure.interface_id
        in
        instantiate ~prefix:sub_prefix ~port_channels:sub_ports ~sub_choice
          chosen)
      c.Structure.sub_sites
  in
  List.fold_left
    (fun acc sub ->
      {
        inst_processes = acc.inst_processes @ sub.inst_processes;
        inst_channels = acc.inst_channels @ sub.inst_channels;
      })
    { inst_processes = processes; inst_channels = channels }
    sub_instances

module Pnode = struct
  type t = I.Process_id.t

  let compare = I.Process_id.compare
  let pp = I.Process_id.pp
end

module Pgraph = Graphlib.Digraph.Make (Pnode)
module Ptraverse = Graphlib.Traverse.Make (Pgraph)

(* Process-to-process dependencies through internal channels only. *)
let process_graph (c : t) =
  let internal = internal_channel_ids c in
  let writer = Hashtbl.create 8 in
  List.iter
    (fun p ->
      I.Channel_id.Set.iter
        (fun cid ->
          if I.Channel_id.Set.mem cid internal then
            Hashtbl.replace writer (I.Channel_id.to_string cid) (Spi.Process.id p))
        (Spi.Process.outputs p))
    c.Structure.processes;
  List.fold_left
    (fun g p ->
      let g = Pgraph.add_node (Spi.Process.id p) g in
      I.Channel_id.Set.fold
        (fun cid g ->
          match Hashtbl.find_opt writer (I.Channel_id.to_string cid) with
          | Some w -> Pgraph.add_edge w (Spi.Process.id p) g
          | None -> g)
        (Spi.Process.inputs p) g)
    Pgraph.empty c.Structure.processes

let latency_paths (c : t) =
  let g = process_graph c in
  let latency_of pid =
    match
      List.find_opt
        (fun p -> I.Process_id.equal (Spi.Process.id p) pid)
        c.Structure.processes
    with
    | Some p -> Spi.Process.latency_hull p
    | None -> Interval.zero
  in
  let longest pick =
    match
      Ptraverse.longest_path_weights ~weight:(fun pid -> pick (latency_of pid)) g
    with
    | Ok weights -> Pgraph.Node_map.fold (fun _ w acc -> max acc w) weights 0
    | Error _ ->
      List.fold_left
        (fun acc p -> acc + pick (Spi.Process.latency_hull p))
        0 c.Structure.processes
  in
  Interval.make (longest Interval.lo) (longest Interval.hi)

let port_rate_hull ~touches ~rate (c : t) pid =
  let cid = Port.channel_of pid in
  let rates =
    List.filter_map
      (fun p ->
        if I.Channel_id.Set.mem cid (touches p) then Some (rate p cid) else None)
      c.Structure.processes
  in
  match Interval.join_list rates with None -> Interval.zero | Some i -> i

let port_consumption c pid =
  port_rate_hull ~touches:Spi.Process.inputs
    ~rate:(fun p cid -> Spi.Process.consumption_hull p cid)
    c pid

let port_production c pid =
  port_rate_hull ~touches:Spi.Process.outputs
    ~rate:(fun p cid -> Spi.Process.production_hull p cid)
    c pid

let port_production_tags (c : t) pid =
  let cid = Port.channel_of pid in
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc m ->
          match Spi.Mode.production_on m cid with
          | None -> acc
          | Some prod -> Spi.Tag.Set.union acc prod.Spi.Mode.tags)
        acc (Spi.Process.modes p))
    Spi.Tag.Set.empty c.Structure.processes

let entry_process (c : t) =
  let reader_of_port port =
    let cid = Port.channel_of (Port.id port) in
    List.find_opt
      (fun p -> I.Channel_id.Set.mem cid (Spi.Process.inputs p))
      c.Structure.processes
  in
  List.find_map
    (fun port -> if Port.is_input port then reader_of_port port else None)
    c.Structure.cluster_ports

let pp ppf (c : t) =
  Format.fprintf ppf "cluster %a (%d processes, %d channels, %d sub-sites)"
    I.Cluster_id.pp (id c)
    (List.length c.Structure.processes)
    (List.length c.Structure.channels)
    (List.length c.Structure.sub_sites)
