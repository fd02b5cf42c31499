module I = Spi.Ids

type assignment = (I.Interface_id.t * I.Cluster_id.t) list
type linkage = I.Interface_id.t list list

let site_options system =
  List.map
    (fun site ->
      let iface = site.Structure.iface in
      ( iface.Structure.interface_id,
        List.map Cluster.id iface.Structure.clusters ))
    (System.sites system)

(* Checked arithmetic: variant spaces grow multiplicatively, and a
   wrapped count would slip past any size cap. *)
let overflow () = invalid_arg "Variant_space: configuration count overflows"
let mul a b = if a <> 0 && b > max_int / a then overflow () else a * b
let add a b = if a > max_int - b then overflow () else a + b

let independent_count system =
  List.fold_left
    (fun acc (_, cs) -> mul acc (List.length cs))
    1 (site_options system)

let group_of linkage iid =
  List.find_opt (List.exists (I.Interface_id.equal iid)) linkage

let check_linkage system linkage =
  List.iter
    (fun group ->
      List.iter
        (fun iid ->
          if Option.is_none (System.find_site iid system) then
            invalid_arg
              (Format.asprintf "Variant_space: unknown interface %a in linkage"
                 I.Interface_id.pp iid))
        group)
    linkage

(* Choice dimensions: one per linkage group (an index shared by its
   members) and one per independent site. *)
type dimension =
  | Group of I.Interface_id.t list * int  (** members, variant count *)
  | Single of I.Interface_id.t * I.Cluster_id.t list

let dimensions system linkage =
  check_linkage system linkage;
  let options = site_options system in
  let in_some_group iid = Option.is_some (group_of linkage iid) in
  let singles =
    List.filter_map
      (fun (iid, cs) -> if in_some_group iid then None else Some (Single (iid, cs)))
      options
  in
  let groups =
    List.map
      (fun group ->
        let counts =
          List.filter_map
            (fun iid ->
              List.find_map
                (fun (i, cs) ->
                  if I.Interface_id.equal i iid then Some (List.length cs)
                  else None)
                options)
            group
        in
        let count = List.fold_left min max_int counts in
        let count = if count = max_int then 0 else count in
        Group (group, count))
      linkage
  in
  singles @ groups

let rec product = function
  | [] -> [ [] ]
  | options :: rest ->
    let tails = product rest in
    List.concat_map (fun opt -> List.map (fun tail -> opt @ tail) tails) options

let site_of system iid =
  match System.find_site iid system with
  | None -> invalid_arg "Variant_space: unknown interface"
  | Some site -> site

let cluster_at system iid index =
  List.nth (site_of system iid).Structure.iface.Structure.clusters index

(* A dimension's assignment fragments.  Each fragment carries the full
   subtree choice: a top-level pair plus the (recursive) choices of the
   chosen cluster's embedded interfaces, so hierarchically nested sites
   enumerate exactly like {!Flatten.applications} derives them. *)
let expand_dim system dim =
  match dim with
  | Single (iid, _) ->
    Flatten.interface_assignments (site_of system iid).Structure.iface
  | Group (members, n) ->
    List.concat
      (List.init n (fun idx ->
           product
             (List.map
                (fun iid ->
                  Flatten.cluster_assignments iid (cluster_at system iid idx))
                members)))

(* [List.length] of {!Flatten.cluster_assignments} and
   {!Flatten.interface_assignments}, without materializing them. *)
let rec cluster_count (cluster : Structure.cluster) =
  List.fold_left
    (fun acc site -> mul acc (interface_count site.Structure.iface))
    1 cluster.Structure.sub_sites

and interface_count (iface : Structure.interface) =
  List.fold_left
    (fun acc c -> add acc (cluster_count c))
    0 iface.Structure.clusters

let dim_count system = function
  | Single (iid, _) -> interface_count (site_of system iid).Structure.iface
  | Group (members, n) ->
    List.fold_left add 0
      (List.init n (fun idx ->
           List.fold_left
             (fun acc iid ->
               mul acc (cluster_count (cluster_at system iid idx)))
             1 members))

let count ?(linkage = []) system =
  List.fold_left
    (fun acc dim -> mul acc (dim_count system dim))
    1
    (dimensions system linkage)

let enumerate ?(linkage = []) system =
  (* refuse a space whose size does not even fit an int before trying to
     materialize it *)
  ignore (count ~linkage system);
  let dims = dimensions system linkage in
  let assignments = product (List.map (expand_dim system) dims) in
  (* Restore canonical order for stable output: depth-first over the
     system's site tree — each top-level site's pair followed by its
     chosen subtree's pairs, sites in site order. *)
  let reorder assignment =
    let lookup iid =
      List.find_opt (fun (i, _) -> I.Interface_id.equal i iid) assignment
    in
    let rec of_site site =
      let iface = site.Structure.iface in
      match lookup iface.Structure.interface_id with
      | None -> []
      | Some ((_, cid) as pair) ->
        pair
        ::
        (match
           List.find_opt
             (fun c -> I.Cluster_id.equal c.Structure.cluster_id cid)
             iface.Structure.clusters
         with
        | Some cluster ->
          List.concat_map of_site cluster.Structure.sub_sites
        | None -> [])
    in
    List.concat_map of_site (System.sites system)
  in
  List.map reorder assignments

let to_choice assignment iid =
  match List.find_opt (fun (i, _) -> I.Interface_id.equal i iid) assignment with
  | Some (_, cid) -> cid
  | None ->
    raise
      (Flatten.Flatten_error
         (Diagnostic.msgf
            ~subject:(I.Interface_id.to_string iid)
            "no cluster assigned for interface %a" I.Interface_id.pp iid))

let pp_assignment ppf assignment =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (i, c) ->
      Format.fprintf ppf "%a=%a" I.Interface_id.pp i I.Cluster_id.pp c)
    ppf assignment
