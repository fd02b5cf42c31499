module I = Spi.Ids

type t = Structure.interface

let make ?selection ~ports ~clusters name =
  {
    Structure.interface_id = I.Interface_id.of_string name;
    iface_ports = ports;
    clusters;
    selection;
  }

let id (t : t) = t.Structure.interface_id
let ports (t : t) = t.Structure.iface_ports
let clusters (t : t) = t.Structure.clusters
let selection (t : t) = t.Structure.selection
let cluster_ids t = List.map Cluster.id (clusters t)

let find_cluster cid t =
  List.find_opt (fun c -> I.Cluster_id.equal (Cluster.id c) cid) (clusters t)

let get_cluster cid t =
  match find_cluster cid t with Some c -> c | None -> raise Not_found

let variant_count t = List.length (clusters t)

type error =
  | No_clusters
  | Duplicate_port of I.Port_id.t
  | Duplicate_cluster of I.Cluster_id.t
  | Signature_mismatch of I.Cluster_id.t
  | Cluster_error of I.Cluster_id.t * Cluster.error
  | Selection_unknown_cluster of I.Rule_id.t * I.Cluster_id.t
  | Selection_latency_unknown_cluster of I.Cluster_id.t
  | Selection_initial_unknown of I.Cluster_id.t

let pp_error ppf = function
  | No_clusters -> Format.pp_print_string ppf "interface has no clusters"
  | Duplicate_port p -> Format.fprintf ppf "duplicate port %a" I.Port_id.pp p
  | Duplicate_cluster c ->
    Format.fprintf ppf "duplicate cluster %a" I.Cluster_id.pp c
  | Signature_mismatch c ->
    Format.fprintf ppf "cluster %a does not match the interface ports"
      I.Cluster_id.pp c
  | Cluster_error (c, e) ->
    Format.fprintf ppf "cluster %a: %a" I.Cluster_id.pp c Cluster.pp_error e
  | Selection_unknown_cluster (r, c) ->
    Format.fprintf ppf "selection rule %a targets unknown cluster %a"
      I.Rule_id.pp r I.Cluster_id.pp c
  | Selection_latency_unknown_cluster c ->
    Format.fprintf ppf "configuration latency given for unknown cluster %a"
      I.Cluster_id.pp c
  | Selection_initial_unknown c ->
    Format.fprintf ppf "initial cluster %a is not part of the interface"
      I.Cluster_id.pp c

let validate (t : t) =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  if clusters t = [] then err No_clusters;
  let duplicate_ports = Port.duplicates (ports t) in
  List.iter (fun p -> err (Duplicate_port p)) duplicate_ports;
  let known = cluster_ids t in
  let is_known cid = List.exists (I.Cluster_id.equal cid) known in
  ignore
    (List.fold_left
       (fun seen c ->
         let cid = Cluster.id c in
         if List.exists (I.Cluster_id.equal cid) seen then begin
           err (Duplicate_cluster cid);
           seen
         end
         else cid :: seen)
       [] (clusters t));
  List.iter
    (fun c ->
      (* signatures are compared only between duplicate-free port lists,
         and a cluster's duplicate already named for the interface is
         not named again *)
      if
        duplicate_ports = []
        && Port.duplicates (Cluster.ports c) = []
        && not (Port.same_signature (ports t) (Cluster.ports c))
      then err (Signature_mismatch (Cluster.id c));
      List.iter
        (function
          | Cluster.Duplicate_port p
            when List.exists (I.Port_id.equal p) duplicate_ports -> ()
          | e -> err (Cluster_error (Cluster.id c, e)))
        (Cluster.validate c))
    (clusters t);
  (match selection t with
  | None -> ()
  | Some sel ->
    List.iter
      (fun rule ->
        if not (is_known rule.Structure.target) then
          err
            (Selection_unknown_cluster
               (rule.Structure.sel_rule_id, rule.Structure.target)))
      sel.Structure.rules;
    List.iter
      (fun (cid, _) ->
        if not (is_known cid) then err (Selection_latency_unknown_cluster cid))
      sel.Structure.config_latencies;
    match sel.Structure.initial with
    | Some cid when not (is_known cid) -> err (Selection_initial_unknown cid)
    | Some _ | None -> ());
  List.rev !errors

let validate_exn t =
  match validate t with
  | [] -> ()
  | errors ->
    invalid_arg
      (Format.asprintf "@[<v>Interface %a:@,%a@]" I.Interface_id.pp (id t)
         (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_error)
         errors)

let ambiguous_selection_pairs (t : t) =
  match selection t with
  | None -> []
  | Some sel ->
    let rec pairs = function
      | [] -> []
      | r :: rest ->
        List.filter_map
          (fun r' ->
            if
              Spi.Predicate.syntactically_disjoint r.Structure.sel_guard
                r'.Structure.sel_guard
            then None
            else Some (r.Structure.sel_rule_id, r'.Structure.sel_rule_id))
          rest
        @ pairs rest
    in
    pairs sel.Structure.rules

let pp ppf t =
  Format.fprintf ppf "interface %a (%d variants: %a)" I.Interface_id.pp (id t)
    (variant_count t)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       I.Cluster_id.pp)
    (cluster_ids t)
