(* Tests for the untimed firing semantics: consumption, production,
   queue vs register behaviour, overflow handling, token conservation. *)

module I = Spi.Ids
module S = Spi.Semantics

let cid = I.Channel_id.of_string
let pid = I.Process_id.of_string
let one = Interval.point 1

let copy_process =
  Spi.Process.simple ~latency:one
    ~consumes:[ (cid "a", one) ]
    ~produces:[ (cid "b", Spi.Mode.produce one) ]
    (pid "copy")

let copy_model ?(chan_a = Spi.Chan.queue (cid "a")) () =
  Spi.Model.build_exn
    ~processes:[ copy_process ]
    ~channels:[ chan_a; Spi.Chan.queue (cid "b") ]

let the_mode p = List.hd (Spi.Process.modes p)

let test_initial_state () =
  let model =
    copy_model
      ~chan_a:(Spi.Chan.queue ~initial:[ Spi.Token.plain ] (cid "a"))
      ()
  in
  let st = S.initial model in
  Alcotest.(check int) "initial a" 1 (S.tokens_available st (cid "a"));
  Alcotest.(check int) "initial b" 0 (S.tokens_available st (cid "b"));
  Alcotest.(check int) "unknown channel" 0 (S.tokens_available st (cid "zz"))

let test_fire_queue () =
  let model = copy_model () in
  let st = S.initial model in
  let tok = Spi.Token.make ~payload:42 () in
  let st = S.inject model (cid "a") tok st in
  let st, firing = S.fire model (pid "copy") (the_mode copy_process) st in
  Alcotest.(check int) "a consumed" 0 (S.tokens_available st (cid "a"));
  Alcotest.(check int) "b produced" 1 (S.tokens_available st (cid "b"));
  Alcotest.(check int) "firing consumed" 1
    (List.length (List.concat_map snd firing.S.consumed));
  (* payload travels with Inherit_first *)
  match S.first_token st (cid "b") with
  | Some t -> Alcotest.(check (option int)) "payload inherited" (Some 42) (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected on b"

let test_fifo_order () =
  let model = copy_model () in
  let st = S.initial model in
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:1 ()) st in
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:2 ()) st in
  let st, _ = S.fire model (pid "copy") (the_mode copy_process) st in
  (match S.first_token st (cid "a") with
  | Some t ->
    Alcotest.(check (option int)) "second in line" (Some 2) (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected");
  match S.first_token st (cid "b") with
  | Some t ->
    Alcotest.(check (option int)) "first went through" (Some 1) (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected"

let test_register_semantics () =
  let model = copy_model ~chan_a:(Spi.Chan.register (cid "a")) () in
  let st = S.initial model in
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:1 ()) st in
  (* destructive write *)
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:2 ()) st in
  Alcotest.(check int) "register holds one" 1 (S.tokens_available st (cid "a"));
  (match S.first_token st (cid "a") with
  | Some t -> Alcotest.(check (option int)) "last write wins" (Some 2) (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected");
  (* sampling read: consumption does not remove *)
  let st, _ = S.fire model (pid "copy") (the_mode copy_process) st in
  Alcotest.(check int) "register kept token" 1 (S.tokens_available st (cid "a"));
  Alcotest.(check int) "production happened" 1 (S.tokens_available st (cid "b"))

let test_overflow_reject () =
  let model = copy_model ~chan_a:(Spi.Chan.queue ~capacity:1 (cid "a")) () in
  let st = S.initial model in
  let st = S.inject model (cid "a") Spi.Token.plain st in
  Alcotest.check_raises "overflow" (S.Channel_overflow (cid "a")) (fun () ->
      ignore (S.inject model (cid "a") Spi.Token.plain st))

let test_overflow_drop () =
  let model = copy_model ~chan_a:(Spi.Chan.queue ~capacity:1 (cid "a")) () in
  let st = S.initial model in
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:1 ()) st in
  let st =
    S.inject ~overflow:S.Drop_newest model (cid "a")
      (Spi.Token.make ~payload:2 ())
      st
  in
  Alcotest.(check int) "kept capacity" 1 (S.tokens_available st (cid "a"));
  match S.first_token st (cid "a") with
  | Some t -> Alcotest.(check (option int)) "old kept" (Some 1) (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected"

let test_consumption_clamped () =
  (* mode wants 3 tokens; only 1 available: the consumption realises 1 *)
  let hungry =
    Spi.Process.simple ~latency:one
      ~consumes:[ (cid "a", Interval.point 3) ]
      ~produces:[]
      (pid "hungry")
  in
  let model =
    Spi.Model.build_exn ~processes:[ hungry ]
      ~channels:[ Spi.Chan.queue (cid "a") ]
  in
  let st = S.initial model in
  let st = S.inject model (cid "a") Spi.Token.plain st in
  let st, firing = S.fire model (pid "hungry") (the_mode hungry) st in
  Alcotest.(check int) "clamped" 1
    (List.length (List.concat_map snd firing.S.consumed));
  Alcotest.(check int) "drained" 0 (S.tokens_available st (cid "a"))

let test_enabled_rule_and_mode () =
  let model =
    copy_model ~chan_a:(Spi.Chan.queue ~initial:[ Spi.Token.plain ] (cid "a")) ()
  in
  let st = S.initial model in
  (match S.enabled_mode model st (pid "copy") with
  | Some m ->
    Alcotest.(check string) "default mode" "copy.default"
      (I.Mode_id.to_string (Spi.Mode.id m))
  | None -> Alcotest.fail "mode expected");
  let st = S.clear_channel (cid "a") st in
  Alcotest.(check bool) "disabled after clear" true
    (Option.is_none (S.enabled_mode model st (pid "copy")))

let test_fresh_payload_policy () =
  let p =
    Spi.Process.simple ~payload_policy:Spi.Mode.Fresh ~latency:one
      ~consumes:[ (cid "a", one) ]
      ~produces:[ (cid "b", Spi.Mode.produce one) ]
      (pid "fresh")
  in
  let model =
    Spi.Model.build_exn ~processes:[ p ]
      ~channels:[ Spi.Chan.queue (cid "a"); Spi.Chan.queue (cid "b") ]
  in
  let st = S.initial model in
  let st = S.inject model (cid "a") (Spi.Token.make ~payload:9 ()) st in
  let st, _ = S.fire model (pid "fresh") (the_mode p) st in
  match S.first_token st (cid "b") with
  | Some t -> Alcotest.(check (option int)) "no payload" None (Spi.Token.payload t)
  | None -> Alcotest.fail "token expected"

(* Property: token conservation for a 1-in/1-out copy process over a
   random firing sequence. *)
let prop_conservation =
  QCheck.Test.make ~name:"copy process conserves tokens" ~count:200
    QCheck.(int_range 0 30)
    (fun n ->
      let model = copy_model () in
      let st = ref (S.initial model) in
      for i = 1 to n do
        st := S.inject model (cid "a") (Spi.Token.make ~payload:i ()) !st
      done;
      let fired = ref 0 in
      let continue = ref true in
      while !continue do
        match S.enabled_mode model !st (pid "copy") with
        | Some m ->
          let st', _ = S.fire model (pid "copy") m !st in
          st := st';
          incr fired
        | None -> continue := false
      done;
      !fired = n
      && S.tokens_available !st (cid "a") = 0
      && S.tokens_available !st (cid "b") = n
      && S.total_tokens !st = n)

(* Property: the bulk setter is exactly a clear followed by one inject
   per token, on unbounded queues, bounded queues filled up to their
   capacity and registers holding at most one token — and it leaves the
   other channels alone. *)
let prop_set_contents =
  let gen =
    QCheck.Gen.(
      let* kind = int_range 0 2 in
      let* cap = int_range 1 8 in
      let limit = match kind with 0 -> 40 | 1 -> cap | _ -> 1 in
      let* initial = int_range 0 limit in
      let* target = int_range 0 limit in
      let* first = int_range 0 1000 in
      return (kind, cap, initial, target, first))
  in
  let print (kind, cap, initial, target, first) =
    Printf.sprintf "kind=%d cap=%d initial=%d target=%d first=%d" kind cap
      initial target first
  in
  QCheck.Test.make ~name:"set_contents = clear_channel + inject" ~count:300
    (QCheck.make ~print gen)
    (fun (kind, cap, initial, target, first) ->
      let toks n from = List.init n (fun i -> Spi.Token.make ~payload:(from + i) ()) in
      let init = toks initial 5000 in
      let chan_a =
        match kind with
        | 0 -> Spi.Chan.queue ~initial:init (cid "a")
        | 1 -> Spi.Chan.queue ~capacity:cap ~initial:init (cid "a")
        | _ -> Spi.Chan.register ?initial:(List.nth_opt init 0) (cid "a")
      in
      let model = copy_model ~chan_a () in
      let st =
        S.inject model (cid "b") (Spi.Token.make ~payload:(-1) ()) (S.initial model)
      in
      let tokens = toks target first in
      let bulk = S.set_contents (cid "a") tokens st in
      let reference =
        List.fold_left
          (fun st tok -> S.inject model (cid "a") tok st)
          (S.clear_channel (cid "a") st)
          tokens
      in
      let same c =
        let a = S.contents bulk c and b = S.contents reference c in
        List.length a = List.length b && List.for_all2 Spi.Token.equal a b
      in
      same (cid "a") && same (cid "b") && S.total_tokens bulk = S.total_tokens reference)

let test_set_contents_rejects () =
  let rejects what chan_a n =
    let model = copy_model ~chan_a () in
    Alcotest.(check bool) what true
      (match
         S.set_contents (cid "a")
           (Spi.Token.replicate n Spi.Token.plain)
           (S.initial model)
       with
      | (_ : S.state) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "register holds one token" (Spi.Chan.register (cid "a")) 2;
  rejects "bounded queue holds its capacity"
    (Spi.Chan.queue ~capacity:3 (cid "a"))
    4;
  Alcotest.check_raises "undeclared channel" Not_found (fun () ->
      ignore
        (S.set_contents (cid "zz") [ Spi.Token.plain ] (S.initial (copy_model ()))))

let suite =
  ( "semantics",
    [
      Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "fire on queue" `Quick test_fire_queue;
      Alcotest.test_case "fifo order" `Quick test_fifo_order;
      Alcotest.test_case "register semantics" `Quick test_register_semantics;
      Alcotest.test_case "overflow reject" `Quick test_overflow_reject;
      Alcotest.test_case "overflow drop" `Quick test_overflow_drop;
      Alcotest.test_case "consumption clamped" `Quick test_consumption_clamped;
      Alcotest.test_case "enabled rule/mode" `Quick test_enabled_rule_and_mode;
      Alcotest.test_case "fresh payload policy" `Quick test_fresh_payload_policy;
      QCheck_alcotest.to_alcotest ~long:false prop_conservation;
      QCheck_alcotest.to_alcotest ~long:false prop_set_contents;
      Alcotest.test_case "set_contents refuses what does not fit" `Quick
        test_set_contents_rejects;
    ] )
