module I = Spi.Ids

type parameter = Hw_area | Sw_load

type flip = { at : int; below : Binding.impl; above : Binding.impl option }

let with_value parameter tech pid value =
  let o = Tech.options_of tech pid in
  let options =
    match parameter with
    | Hw_area -> { o with Tech.hw = Some { Tech.area = value } }
    | Sw_load -> { o with Tech.sw = Some { Tech.load = value } }
  in
  Tech.with_options pid options tech

(* The cost of the optimum with [pid] pinned to [impl]; [None] when no
   such binding is feasible. *)
let pinned_cost ?capacity tech apps pid impl =
  let fixed = Binding.bind pid impl Binding.empty in
  match Explore.solve ?capacity ~fixed tech apps with
  | Ok s -> Some s.Explore.cost.Cost.total
  | Error _ -> None

(* The decision at one value of the swept figure, from the two pinned
   optima: the implementation whose optimum is strictly cheaper, [keep]
   on a tie, [None] when neither is feasible.  Past the low end, which
   of several equal optima a search returns never decides. *)
let decide ?capacity parameter tech apps pid value ~keep =
  let tech = with_value parameter tech pid value in
  match
    ( pinned_cost ?capacity tech apps pid Binding.Hw,
      pinned_cost ?capacity tech apps pid Binding.Sw )
  with
  | None, None -> None
  | Some _, None -> Some Binding.Hw
  | None, Some _ -> Some Binding.Sw
  | Some hw, Some sw ->
    if hw < sw then Some Binding.Hw
    else if sw < hw then Some Binding.Sw
    else keep ()

let flip_point ?capacity ~parameter ~range:(lo, hi) tech apps pid =
  if lo > hi then invalid_arg "Sensitivity.flip_point: empty range";
  let has_option =
    let o = try Some (Tech.options_of tech pid) with Not_found -> None in
    match o, parameter with
    | None, _ -> false
    | Some o, Hw_area -> Option.is_some o.Tech.hw
    | Some o, Sw_load -> Option.is_some o.Tech.sw
  in
  if not has_option then None
  else
    (* a tie at [lo] itself falls back to the optimum's own binding *)
    let at_lo () =
      Option.bind
        (Explore.optimal ?capacity (with_value parameter tech pid lo) apps)
        (fun s -> Binding.impl_of pid s.Explore.binding)
    in
    match decide ?capacity parameter tech apps pid lo ~keep:at_lo with
    | None -> None
    | Some below ->
      let impl_at v =
        decide ?capacity parameter tech apps pid v ~keep:(fun () -> Some below)
      in
      let differs v = impl_at v <> Some below in
      if not (differs hi) then None
      else begin
        (* pinned optima are monotone in the swept figure (raising a
           process's area or load only raises its own pinned cost), so
           the decision flips at most once: binary search the smallest
           differing value in (lo, hi] *)
        let low = ref lo and high = ref hi in
        while !high - !low > 1 do
          let mid = !low + ((!high - !low) / 2) in
          if differs mid then high := mid else low := mid
        done;
        Some { at = !high; below; above = impl_at !high }
      end

let pp_flip ppf f =
  Format.fprintf ppf "%a until %d, then %s" Binding.pp_impl f.below (f.at - 1)
    (match f.above with
    | Some impl -> Format.asprintf "%a" Binding.pp_impl impl
    | None -> "infeasible")
