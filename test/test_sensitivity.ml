(* Tests for the sensitivity analysis of the optimal mapping. *)

module F2 = Paper.Figure2
module S = Synth.Sensitivity

let apps = [ F2.app1; F2.app2 ]

let test_pa_area_flip () =
  (* In the Table 1 optimum PA is in hardware (area 26, total 41).  The
     next-best mapping moves PB to hardware instead (15 + 30 = 45, with
     PA and both clusters sharing the processor): once PA's area
     exceeds 30, that alternative wins and PA returns to software. *)
  match
    S.flip_point ~parameter:S.Hw_area ~range:(26, 60) F2.table1_tech apps F2.pa
  with
  | Some flip ->
    Alcotest.(check int) "flip at 31" 31 flip.S.at;
    Alcotest.(check bool) "HW below" true (flip.S.below = Synth.Binding.Hw);
    Alcotest.(check (option bool))
      "SW above" (Some true)
      (Option.map (fun i -> i = Synth.Binding.Sw) flip.S.above)
  | None -> Alcotest.fail "flip expected"

let test_stable_decision () =
  (* PB is in software; raising its area only reinforces that *)
  Alcotest.(check bool) "no flip for PB area" true
    (Option.is_none
       (S.flip_point ~parameter:S.Hw_area ~range:(30, 200) F2.table1_tech apps F2.pb))

let test_load_flip () =
  (* PB is in software at load 30; as its load grows, keeping both
     clusters in software next to it becomes impossible and PB moves to
     hardware *)
  match
    S.flip_point ~parameter:S.Sw_load ~range:(30, 100) F2.table1_tech apps F2.pb
  with
  | Some flip ->
    Alcotest.(check bool) "SW below" true (flip.S.below = Synth.Binding.Sw);
    Alcotest.(check bool) "flips somewhere above 30" true (flip.S.at > 30)
  | None -> Alcotest.fail "flip expected"

let test_missing_option () =
  let pid = Spi.Ids.Process_id.of_string "swonly" in
  let tech = Synth.Tech.make [ (pid, Synth.Tech.sw_only ~load:10) ] in
  Alcotest.(check bool) "no hw option, no sweep" true
    (Option.is_none
       (S.flip_point ~parameter:S.Hw_area ~range:(1, 50) tech
          [ Synth.App.make "a" [ pid ] ]
          pid))

let test_flip_matches_linear_scan () =
  (* the binary search agrees with an exhaustive scan of the same
     decision at every value: PA pinned to hardware against PA pinned
     to software, flipping only where the other side is strictly
     cheaper *)
  let range = (26, 60) in
  let scan () =
    let lo, hi = range in
    let pinned tech impl =
      match
        Synth.Explore.solve
          ~fixed:(Synth.Binding.bind F2.pa impl Synth.Binding.empty)
          tech apps
      with
      | Ok s -> Some s.Synth.Explore.cost.Synth.Cost.total
      | Error _ -> None
    in
    let impl ~keep v =
      let tech =
        Synth.Tech.with_options F2.pa (Synth.Tech.both ~load:40 ~area:v)
          F2.table1_tech
      in
      match (pinned tech Synth.Binding.Hw, pinned tech Synth.Binding.Sw) with
      | None, None -> None
      | Some _, None -> Some Synth.Binding.Hw
      | None, Some _ -> Some Synth.Binding.Sw
      | Some hw, Some sw ->
        if hw < sw then Some Synth.Binding.Hw
        else if sw < hw then Some Synth.Binding.Sw
        else keep
    in
    let base = impl ~keep:None lo in
    Alcotest.(check bool) "decided at the low end" true (Option.is_some base);
    let rec find v =
      if v > hi then None
      else if impl ~keep:base v <> base then Some v
      else find (v + 1)
    in
    find (lo + 1)
  in
  let fast =
    Option.map (fun f -> f.S.at)
      (S.flip_point ~parameter:S.Hw_area ~range F2.table1_tech apps F2.pa)
  in
  Alcotest.(check (option int)) "binary = linear" (scan ()) fast

let suite =
  ( "sensitivity",
    [
      Alcotest.test_case "PA area flip at 43" `Quick test_pa_area_flip;
      Alcotest.test_case "stable decision" `Quick test_stable_decision;
      Alcotest.test_case "load flip" `Quick test_load_flip;
      Alcotest.test_case "missing option" `Quick test_missing_option;
      Alcotest.test_case "binary search matches scan" `Quick
        test_flip_matches_linear_scan;
    ] )
