(* Tests for the textual format: lexer, parser, printer, round-trips
   and error reporting. *)

module I = Spi.Ids
module V = Variants

(* ------------------------------- lexer ------------------------------ *)

let test_lexer_basics () =
  let toks = Lang.Lexer.tokenize "system s { channel c queue } # comment" in
  let kinds = List.map (fun t -> t.Lang.Lexer.token) toks in
  Alcotest.(check bool) "token sequence" true
    (kinds
    = [
        Lang.Lexer.IDENT "system"; IDENT "s"; LBRACE; IDENT "channel";
        IDENT "c"; IDENT "queue"; RBRACE; EOF;
      ])

let test_lexer_operators () =
  let toks = Lang.Lexer.tokenize "-> >= && || ! [1, 2] 'V1' -5" in
  let kinds = List.map (fun t -> t.Lang.Lexer.token) toks in
  Alcotest.(check bool) "sequence" true
    (kinds
    = [
        Lang.Lexer.ARROW; GE; AND; OR; NOT; LBRACKET; INT 1; COMMA; INT 2;
        RBRACKET; TAG "V1"; INT (-5); EOF;
      ])

let test_lexer_positions () =
  let toks = Lang.Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check (pair int int)) "a at 1,1" (1, 1) (a.Lang.Lexer.line, a.Lang.Lexer.col);
    Alcotest.(check (pair int int)) "b at 2,3" (2, 3) (b.Lang.Lexer.line, b.Lang.Lexer.col)
  | _ -> Alcotest.fail "three tokens expected"

let test_lexer_errors () =
  (try
     ignore (Lang.Lexer.tokenize "a $ b");
     Alcotest.fail "illegal char accepted"
   with Lang.Lexer.Lex_error { line = 1; col = 3; _ } -> ());
  try
    ignore (Lang.Lexer.tokenize "'unterminated");
    Alcotest.fail "unterminated tag accepted"
  with Lang.Lexer.Lex_error _ -> ()

(* ------------------------------- parser ----------------------------- *)

let small_system =
  {|
# a pipeline with one variant site
system demo {
  channel in queue
  channel a queue
  channel b queue
  channel out queue capacity 8
  channel state queue initial ['st:idle']

  process src {
    mode m { latency 1 consume in 1 produce a 1 }
  }
  process snk {
    mode m { latency [1, 3] consume b 2 }
  }

  interface f {
    port in i = a
    port out o = b
    cluster fast {
      process core { mode m { latency 2 consume i 1 produce o 2 ['x'] } }
    }
    cluster slow {
      channel k queue
      process front { mode m { latency 3 consume i 1 produce k 1 } }
      process back { mode m { latency 3 consume k 1 produce o 2 } }
    }
    selection {
      rule pick_fast when tag sel 'F' -> fast
      rule pick_slow when tag sel 'S' -> slow
      latency fast 4
      latency slow 9
      initial fast
    }
  }
  channel sel register
}
|}

let test_parse_structure () =
  let system = Lang.Parser.system_of_string small_system in
  Alcotest.(check string) "name" "demo" (V.System.name system);
  Alcotest.(check int) "processes" 2 (List.length (V.System.processes system));
  Alcotest.(check int) "channels" 6 (List.length (V.System.channels system));
  Alcotest.(check int) "sites" 1 (V.System.site_count system);
  Alcotest.(check int) "validates" 0 (List.length (V.System.validate system));
  let iface = List.hd (V.System.interfaces system) in
  Alcotest.(check int) "two variants" 2 (V.Interface.variant_count iface);
  match V.Interface.selection iface with
  | None -> Alcotest.fail "selection expected"
  | Some sel ->
    Alcotest.(check int) "t_conf slow" 9
      (V.Selection.config_latency sel (I.Cluster_id.of_string "slow"));
    Alcotest.(check (option string))
      "initial" (Some "fast")
      (Option.map I.Cluster_id.to_string (V.Selection.initial sel))

let test_parse_details () =
  let system = Lang.Parser.system_of_string small_system in
  (* capacity *)
  let out = List.find (fun c -> I.Channel_id.to_string (Spi.Chan.id c) = "out") (V.System.channels system) in
  Alcotest.(check (option int)) "capacity" (Some 8) (Spi.Chan.capacity out);
  (* tagged initial token *)
  let state = List.find (fun c -> I.Channel_id.to_string (Spi.Chan.id c) = "state") (V.System.channels system) in
  (match Spi.Chan.initial state with
  | [ tok ] ->
    Alcotest.(check bool) "tagged" true
      (Spi.Token.has_tag (Spi.Tag.make "st:idle") tok)
  | _ -> Alcotest.fail "one initial token expected");
  (* interval latency *)
  let snk = List.find (fun p -> I.Process_id.to_string (Spi.Process.id p) = "snk") (V.System.processes system) in
  Alcotest.(check bool) "interval latency" true
    (Interval.equal (Spi.Process.latency_hull snk) (Interval.make 1 3));
  (* production tags survive *)
  let iface = List.hd (V.System.interfaces system) in
  let fast = V.Interface.get_cluster (I.Cluster_id.of_string "fast") iface in
  Alcotest.(check bool) "production tag" true
    (Spi.Tag.Set.mem (Spi.Tag.make "x")
       (V.Cluster.port_production_tags fast (I.Port_id.of_string "o")))

let test_parse_flatten_and_run () =
  let system = Lang.Parser.system_of_string small_system in
  let model =
    V.Flatten.flatten system (V.Flatten.choice_of_list [ ("f", "slow") ])
  in
  let stimuli =
    List.init 4 (fun i ->
        {
          Sim.Engine.at = 1 + (2 * i);
          channel = I.Channel_id.of_string "in";
          token = Spi.Token.make ~payload:i ();
        })
  in
  let result = Sim.Engine.run ~stimuli model in
  Alcotest.(check bool) "parsed model runs" true (result.Sim.Engine.firings > 0)

let expect_parse_error input fragment =
  try
    ignore (Lang.Parser.system_of_string input);
    Alcotest.failf "accepted: %s" input
  with Lang.Parser.Parse_error { message; _ } ->
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Format.sprintf "error mentions %s (got: %s)" fragment message)
      true (contains fragment message)

let test_parse_errors () =
  expect_parse_error "process p {}" "keyword system";
  expect_parse_error "system s" "'{'";
  expect_parse_error "system s { channel }" "channel name";
  (try
     ignore (Lang.Parser.system_of_string "system s { channel c pipe }");
     Alcotest.fail "unknown channel kind accepted"
   with Invalid_argument _ -> ());
  expect_parse_error "system s { process p { mode m { latency } } }" "interval";
  expect_parse_error "system s { process p { rule r when -> m } }" "predicate";
  expect_parse_error "system s { } trailing" "trailing"

let test_parse_predicates () =
  let system =
    Lang.Parser.system_of_string
      {|system s {
         channel a queue
         process p {
           mode m { latency 1 consume a 1 }
           rule r when (num a >= 2 && tag a 'x') || !(tag a 'y') -> m
         }
       }|}
  in
  let p = List.hd (V.System.processes system) in
  match Spi.Activation.rules (Spi.Process.activation p) with
  | [ rule ] ->
    let guard = Spi.Activation.guard rule in
    let view n tags =
      {
        Spi.Predicate.tokens_available = (fun _ -> n);
        first_tags = (fun _ -> if n > 0 then Some (Spi.Tag.set_of_list tags) else None);
      }
    in
    Alcotest.(check bool) "2 + x true" true (Spi.Predicate.eval (view 2 [ "x" ]) guard);
    Alcotest.(check bool) "1 + y false" false (Spi.Predicate.eval (view 1 [ "y" ]) guard);
    Alcotest.(check bool) "1 + z true (right disjunct)" true
      (Spi.Predicate.eval (view 1 [ "z" ]) guard)
  | _ -> Alcotest.fail "one rule expected"

(* ------------------------------ printer ----------------------------- *)

let same_applications a b =
  let sig_of system =
    List.map
      (fun (clusters, model) ->
        ( List.map I.Cluster_id.to_string clusters,
          List.sort compare
            (List.map
               (fun p -> I.Process_id.to_string (Spi.Process.id p))
               (Spi.Model.processes model)) ))
      (V.Flatten.applications system)
  in
  sig_of a = sig_of b

let test_roundtrip_small () =
  let system = Lang.Parser.system_of_string small_system in
  let printed = Lang.Printer.to_string system in
  let reparsed = Lang.Parser.system_of_string printed in
  Alcotest.(check string) "name" (V.System.name system) (V.System.name reparsed);
  Alcotest.(check int) "validates" 0 (List.length (V.System.validate reparsed));
  Alcotest.(check bool) "same applications" true (same_applications system reparsed)

let test_roundtrip_figure2 () =
  let system = Paper.Figure2.system_with_selection in
  let reparsed = Lang.Parser.system_of_string (Lang.Printer.to_string system) in
  Alcotest.(check bool) "same applications" true (same_applications system reparsed);
  (* selection survives: extraction still produces two configurations *)
  let _, confs = V.Flatten.abstract reparsed in
  match confs with
  | [ conf ] ->
    Alcotest.(check int) "two configurations" 2
      (List.length (V.Configuration.entries conf))
  | _ -> Alcotest.fail "one configuration set expected"

let test_roundtrip_generated () =
  let system =
    V.Generator.generate { V.Generator.default with sites = 2; variants_per_site = 3 }
  in
  let reparsed = Lang.Parser.system_of_string (Lang.Printer.to_string system) in
  Alcotest.(check bool) "same applications" true (same_applications system reparsed)

let prop_roundtrip_generator =
  QCheck.Test.make ~name:"print/parse round-trip on generated systems" ~count:30
    QCheck.(pair (int_range 1 3) (int_range 0 999))
    (fun (sites, seed) ->
      let system =
        V.Generator.generate
          {
            V.Generator.seed;
            shared_processes = 2;
            sites;
            variants_per_site = 2;
            cluster_processes = 2;
            latency_range = (1, 9);
          }
      in
      let reparsed = Lang.Parser.system_of_string (Lang.Printer.to_string system) in
      V.System.validate reparsed = [] && same_applications system reparsed)

let test_roundtrip_video_model_processes () =
  (* the video system is a plain model; wrap its processes/channels in a
     system to exercise printing of rich modes (tags, payload policies,
     registers) *)
  let built = Video.System.build Video.System.default_params in
  let system =
    V.System.make
      ~processes:(Spi.Model.processes built.Video.System.model)
      ~channels:(Spi.Model.channels built.Video.System.model)
      "video"
  in
  let reparsed = Lang.Parser.system_of_string (Lang.Printer.to_string system) in
  Alcotest.(check int) "same process count"
    (List.length (V.System.processes system))
    (List.length (V.System.processes reparsed));
  (* behaviour preserved: run the same scenario on the reparsed model *)
  let model =
    Spi.Model.build_exn
      ~processes:(V.System.processes reparsed)
      ~channels:(V.System.channels reparsed)
  in
  let stimuli =
    Video.Scenario.switching_demo ~frames:20 ~period:5 ~switches:[ (30, "fB") ] ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli model
  in
  let report = Video.Checker.check result in
  Alcotest.(check bool) "reparsed video still safe" true
    (Video.Checker.is_safe report);
  Alcotest.(check int) "frames in" 20 report.Video.Checker.frames_in

let suite =
  ( "lang",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parse structure" `Quick test_parse_structure;
      Alcotest.test_case "parse details" `Quick test_parse_details;
      Alcotest.test_case "parse, flatten, run" `Quick test_parse_flatten_and_run;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "parse predicates" `Quick test_parse_predicates;
      Alcotest.test_case "round-trip small" `Quick test_roundtrip_small;
      Alcotest.test_case "round-trip figure2" `Quick test_roundtrip_figure2;
      Alcotest.test_case "round-trip generated" `Quick test_roundtrip_generated;
      Alcotest.test_case "round-trip video processes" `Quick
        test_roundtrip_video_model_processes;
      QCheck_alcotest.to_alcotest ~long:false prop_roundtrip_generator;
    ] )

(* appended: deadline constraints in the textual format *)
let test_deadlines () =
  let system =
    Lang.Parser.system_of_string
      {|system s {
         channel a queue
         channel b queue
         process p { mode m { latency 3 consume a 1 produce b 1 } }
         process q { mode m { latency 4 consume b 1 } }
         deadline pq from p to q within 10
       }|}
  in
  (match V.System.constraints system with
  | [ c ] ->
    Alcotest.(check string) "name" "pq" c.Spi.Constraint_.name;
    Alcotest.(check int) "bound" 10 c.Spi.Constraint_.bound
  | l -> Alcotest.failf "expected one constraint, got %d" (List.length l));
  (* the deadline survives the round-trip *)
  let reparsed = Lang.Parser.system_of_string (Lang.Printer.to_string system) in
  Alcotest.(check int) "round-trip" 1 (List.length (V.System.constraints reparsed));
  (* and it is actually checkable on the (trivially flattened) model *)
  let model =
    Spi.Model.build_exn
      ~processes:(V.System.processes reparsed)
      ~channels:(V.System.channels reparsed)
  in
  let latency_of pid =
    Interval.hi (Spi.Process.latency_hull (Spi.Model.get_process pid model))
  in
  match V.System.constraints reparsed with
  | [ c ] -> (
    match Spi.Constraint_.check ~latency_of model c with
    | Spi.Constraint_.Satisfied { worst; _ } -> Alcotest.(check int) "worst" 7 worst
    | o -> Alcotest.failf "unexpected %a" Spi.Constraint_.pp_outcome o)
  | _ -> Alcotest.fail "constraint lost"

let test_deadline_in_cluster_rejected () =
  try
    ignore
      (Lang.Parser.system_of_string
         {|system s {
            channel a queue
            interface i {
              port in x = a
              cluster c { deadline d from p to q within 3 }
            }
          }|});
    Alcotest.fail "cluster deadline accepted"
  with Invalid_argument _ -> ()

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [
        Alcotest.test_case "deadlines" `Quick test_deadlines;
        Alcotest.test_case "deadline in cluster rejected" `Quick
          test_deadline_in_cluster_rejected;
      ] )

(* appended: error-report rendering *)
let test_error_report () =
  let source = "system s {\n  channel }\n}" in
  let rendered =
    Lang.Error_report.render ~source ~path:"x.spi" ~line:2 ~col:11
      ~message:"expected a channel name"
  in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "location line" true
    (contains "x.spi:2:11: expected a channel name" rendered);
  Alcotest.(check bool) "excerpt" true (contains "channel }" rendered);
  Alcotest.(check bool) "caret" true (contains "          ^" rendered);
  (* out-of-range lines do not crash *)
  let short =
    Lang.Error_report.render ~source:"x" ~path:"y" ~line:99 ~col:1 ~message:"m"
  in
  Alcotest.(check bool) "graceful" true (contains "y:99:1: m" short)

let suite =
  let name, tests = suite in
  (name, tests @ [ Alcotest.test_case "error report" `Quick test_error_report ])

(* appended: tech libraries in textual form *)
let test_tech_file () =
  let tech =
    Lang.Tech_file.of_string
      {|tech t { processor 20 impl a sw 10 hw 30 impl b hw 5 impl c sw 7 }|}
  in
  Alcotest.(check int) "processor" 20 (Synth.Tech.processor_cost tech);
  Alcotest.(check int) "entries" 3 (List.length (Synth.Tech.process_ids tech));
  let a = Synth.Tech.options_of tech (Spi.Ids.Process_id.of_string "a") in
  Alcotest.(check (option int)) "a load" (Some 10)
    (Option.map (fun s -> s.Synth.Tech.load) a.Synth.Tech.sw);
  let b = Synth.Tech.options_of tech (Spi.Ids.Process_id.of_string "b") in
  Alcotest.(check bool) "b hw only" true (Option.is_none b.Synth.Tech.sw);
  (* round trip *)
  let again = Lang.Tech_file.of_string (Lang.Tech_file.to_string ~name:"t" tech) in
  Alcotest.(check int) "round-trip processor" 20 (Synth.Tech.processor_cost again);
  Alcotest.(check int) "round-trip entries" 3
    (List.length (Synth.Tech.process_ids again))

let test_tech_file_errors () =
  (try
     ignore (Lang.Tech_file.of_string "tech t { impl x }");
     Alcotest.fail "optionless impl accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Lang.Tech_file.of_string "tech t { bogus }");
    Alcotest.fail "bogus item accepted"
  with Lang.Parser.Parse_error _ -> ()

let test_tech_file_table1 () =
  (* the Table 1 library expressed textually reproduces the optimum *)
  let tech =
    Lang.Tech_file.of_string
      {|tech table1 {
          processor 15
          impl PA sw 40 hw 26
          impl PB sw 30 hw 30
          impl cluster:g1 sw 60 hw 19
          impl cluster:g2 sw 55 hw 23
        }|}
  in
  let s =
    Synth.Explore.optimal_exn tech [ Paper.Figure2.app1; Paper.Figure2.app2 ]
  in
  Alcotest.(check int) "41" 41 s.Synth.Explore.cost.Synth.Cost.total

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [
        Alcotest.test_case "tech file" `Quick test_tech_file;
        Alcotest.test_case "tech file errors" `Quick test_tech_file_errors;
        Alcotest.test_case "tech file table1" `Quick test_tech_file_table1;
      ] )

(* appended: [initial N] is bounded while parsing.  A ten-digit count is
   refused at its literal before any token list is built, so the parse
   allocates a few kilowords instead of ~3 x 10^10 words; the bound
   counts every channel of the model, and the 5000-token models of the
   test suite still parse. *)
let test_initial_tokens_bounded () =
  let refused src ~line ~col =
    match Lang.Parser.system_of_string src with
    | exception Lang.Parser.Too_large { line = l; col = c; limit; _ } ->
      Alcotest.(check (pair int int)) "position" (line, col) (l, c);
      Alcotest.(check int) "limit" Lang.Parser.max_initial_tokens limit
    | _ -> Alcotest.fail "model accepted"
  in
  let before = Gc.minor_words () in
  refused "system s {\n  channel a queue initial 10000000000\n}\n" ~line:2
    ~col:27;
  let words = Gc.minor_words () -. before in
  if words > 50_000. then
    Alcotest.failf "refusing the model allocated %.0f words" words;
  (* the first channel's half is built, the second's is refused *)
  let half = (Lang.Parser.max_initial_tokens / 2) + 1 in
  refused
    (Printf.sprintf
       "system s {\n  channel a queue initial %d\n  channel b queue initial %d\n}\n"
       half half)
    ~line:3 ~col:27;
  let system =
    Lang.Parser.system_of_string
      "system s {\n  channel a queue initial 5000\n  channel b queue initial ['x']\n}\n"
  in
  Alcotest.(check (list int)) "token counts" [ 5000; 1 ]
    (List.map
       (fun c -> List.length (Spi.Chan.initial c))
       (Variants.System.channels system))

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [
        Alcotest.test_case "initial tokens are bounded" `Quick
          test_initial_tokens_bounded;
      ] )

(* appended: an integer literal outside [min_int .. max_int] is a lex
   error at the literal, which both parsers report as a positioned
   [Parse_error]: in an [initial] count, in a latency interval, in a
   tech file's processor cost, and with a leading minus.  The extremes
   themselves still lex. *)
let test_int_literal_range () =
  let too_big = string_of_int max_int ^ "0"
  and too_small = string_of_int min_int ^ "0" in
  let refused what parse src ~line ~col =
    match parse src with
    | exception Lang.Parser.Parse_error { line = l; col = c; message } ->
      Alcotest.(check (pair int int)) (what ^ ": position") (line, col) (l, c);
      Alcotest.(check string) (what ^ ": message")
        "integer literal out of range" message
    | _ -> Alcotest.failf "%s: accepted" what
  in
  let system = Lang.Parser.system_of_string in
  refused "initial" system
    (Printf.sprintf "system s {\n  channel a queue initial %s\n}\n" too_big)
    ~line:2 ~col:27;
  refused "latency" system
    (Printf.sprintf
       "system s {\n  channel a queue\n  process p {\n    mode m { latency [2, %s] consume a 1 }\n  }\n}\n"
       too_big)
    ~line:4 ~col:26;
  refused "processor" Lang.Tech_file.of_string
    (Printf.sprintf "tech t {\n  processor %s\n  impl a sw 1 hw 1\n}\n" too_big)
    ~line:2 ~col:13;
  refused "negative latency" system
    (Printf.sprintf
       "system s {\n  channel a queue\n  process p {\n    mode m { latency [%s, 2] consume a 1 }\n  }\n}\n"
       too_small)
    ~line:4 ~col:23;
  match
    Lang.Lexer.tokenize
      (Printf.sprintf "%s %s" (string_of_int max_int) (string_of_int min_int))
  with
  | [ a; b; _eof ] ->
    Alcotest.(check bool) "max_int and min_int lex" true
      (a.Lang.Lexer.token = Lang.Lexer.INT max_int
      && b.Lang.Lexer.token = Lang.Lexer.INT min_int)
  | _ -> Alcotest.fail "three tokens expected"

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [
        Alcotest.test_case "integer literals out of range are positioned"
          `Quick test_int_literal_range;
      ] )
