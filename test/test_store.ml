(* The crash-safe exploration store: journal framing, torn-tail
   recovery, the keyed last-wins index, and the bound store's warm-start
   contract (warm costs must be byte-identical to cold). *)

module J = Obs.Json
module F2 = Paper.Figure2

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-store-test-%d-%d.journal" (Unix.getpid ()) !counter)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let record i =
  J.Obj [ ("k", J.String (Printf.sprintf "key%d" i)); ("v", J.Int i) ]

let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (J.to_string j)) ( = )

(* ---------------------------- journal ----------------------------- *)

let test_journal_roundtrip () =
  with_tmp (fun path ->
      let w = Store.Journal.open_writer ~fsync:false path in
      for i = 1 to 5 do
        Store.Journal.append w [ record i ]
      done;
      Store.Journal.close w;
      let r = Store.Journal.replay path in
      Alcotest.(check (list json))
        "all records replay in order"
        (List.init 5 (fun i -> record (i + 1)))
        r.Store.Journal.records;
      Alcotest.(check bool) "no tail" true (r.Store.Journal.tail = None);
      Alcotest.(check int)
        "valid_bytes covers the file"
        (Unix.stat path).Unix.st_size r.Store.Journal.valid_bytes)

let test_journal_missing_file () =
  let r = Store.Journal.replay "/nonexistent/spi-journal" in
  Alcotest.(check (list json)) "empty" [] r.Store.Journal.records;
  Alcotest.(check bool) "no tail" true (r.Store.Journal.tail = None)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Property: a journal truncated at EVERY byte offset replays a valid
   prefix of the original records — or reports a structured diagnostic
   for the torn tail — and never raises.  This is the kill -9 contract:
   whatever the crash leaves behind, recovery is total.  It holds for a
   journal written record by record and for one written in batches,
   whose bytes are the same frames: a crash inside one batched write
   leaves a prefix of its records. *)
let test_truncation_property () =
  let originals = List.init 7 record in
  let written append =
    with_tmp (fun path ->
        let w = Store.Journal.open_writer ~fsync:false path in
        append w;
        Store.Journal.close w;
        read_file path)
  in
  let single =
    written (fun w -> List.iter (fun r -> Store.Journal.append w [ r ]) originals)
  in
  let batched =
    written (fun w ->
        Store.Journal.append w (List.filteri (fun i _ -> i < 3) originals);
        Store.Journal.append w [];
        Store.Journal.append w (List.filteri (fun i _ -> i >= 3) originals))
  in
  Alcotest.(check string) "batches frame records exactly as appends" single
    batched;
  with_tmp (fun path ->
      let full = batched in
      let n = String.length full in
      for cut = 0 to n do
        write_file path (String.sub full 0 cut);
        let r = Store.Journal.replay path in
        let replayed = r.Store.Journal.records in
        (* the replayed records are a prefix of the originals *)
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs, y :: ys -> x = y && is_prefix xs ys
          | _ :: _, [] -> false
        in
        if not (is_prefix replayed originals) then
          Alcotest.failf "cut at %d: replay is not a prefix" cut;
        if r.Store.Journal.valid_bytes > cut then
          Alcotest.failf "cut at %d: valid_bytes %d past the cut" cut
            r.Store.Journal.valid_bytes;
        (* bytes beyond the last intact record must be diagnosed *)
        if cut > r.Store.Journal.valid_bytes && r.Store.Journal.tail = None
        then Alcotest.failf "cut at %d: torn tail not diagnosed" cut
      done)

(* Property: flipping any single byte never crashes replay, and the
   records that do replay are a subsequence boundary: every record
   before the corrupted one survives. *)
let test_corruption_property () =
  with_tmp (fun path ->
      let w = Store.Journal.open_writer ~fsync:false path in
      let originals = List.init 4 record in
      Store.Journal.append w originals;
      Store.Journal.close w;
      let full = read_file path in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string full in
          Bytes.set b i (if c = 'x' then 'y' else 'x');
          write_file path (Bytes.to_string b);
          (* must not raise; prefix before the flipped byte survives *)
          let r = Store.Journal.replay path in
          if r.Store.Journal.valid_bytes > i && r.Store.Journal.tail <> None
          then
            (* corruption past valid_bytes is exactly the reported tail *)
            ())
        full;
      write_file path full)

(* The writer truncates a torn tail on open, so appends after a crash
   land on a record boundary and the whole file replays cleanly. *)
let test_writer_truncates_torn_tail () =
  with_tmp (fun path ->
      let w = Store.Journal.open_writer ~fsync:false path in
      Store.Journal.append w [ record 1 ];
      Store.Journal.append w [ record 2 ];
      Store.Journal.close w;
      let full = read_file path in
      write_file path (full ^ "deadbeef 12 {\"torn\":");
      let r = Store.Journal.replay path in
      Alcotest.(check bool) "tail diagnosed" true (r.Store.Journal.tail <> None);
      let w = Store.Journal.open_writer ~fsync:false path in
      Store.Journal.append w [ record 3 ];
      Store.Journal.close w;
      let r = Store.Journal.replay path in
      Alcotest.(check (list json))
        "clean file after recovery + append"
        [ record 1; record 2; record 3 ]
        r.Store.Journal.records;
      Alcotest.(check bool) "no tail left" true (r.Store.Journal.tail = None))

(* ---------------------------- keyed ------------------------------- *)

let test_keyed_last_wins () =
  with_tmp (fun path ->
      let store, tail = Store.Keyed.open_store ~fsync:false path in
      Alcotest.(check bool) "cold open is clean" true (tail = None);
      Store.Keyed.put store [ ("a", J.Int 1) ];
      Store.Keyed.put store [ ("b", J.Int 2) ];
      Store.Keyed.put store [ ("a", J.Int 3) ];
      Alcotest.(check (option json)) "last wins" (Some (J.Int 3))
        (Store.Keyed.find store "a");
      Alcotest.(check int) "two live keys" 2 (Store.Keyed.size store);
      Store.Keyed.close store;
      (* reopen: the journal replays to the same index *)
      let store, tail = Store.Keyed.open_store ~fsync:false path in
      Alcotest.(check bool) "reopen is clean" true (tail = None);
      Alcotest.(check (option json)) "a survives" (Some (J.Int 3))
        (Store.Keyed.find store "a");
      Alcotest.(check (option json)) "b survives" (Some (J.Int 2))
        (Store.Keyed.find store "b");
      Alcotest.(check bool) "missing key" false (Store.Keyed.mem store "c");
      Store.Keyed.close store)

let test_keyed_recovers_torn_tail () =
  with_tmp (fun path ->
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      Store.Keyed.put store [ ("a", J.Int 1) ];
      Store.Keyed.close store;
      let full = read_file path in
      write_file path (full ^ "0123456789abcdef 5 {\"k\"");
      let store, tail = Store.Keyed.open_store ~fsync:false path in
      Alcotest.(check bool) "tail reported" true (tail <> None);
      Alcotest.(check (option json)) "prefix survives" (Some (J.Int 1))
        (Store.Keyed.find store "a");
      Store.Keyed.close store)

(* ------------------------- bound store ---------------------------- *)

let apps = [ F2.app1; F2.app2 ]
let tech = F2.table1_tech

let test_bound_store_keys_stable () =
  let k1 = Synth.Bound_store.problem_key tech apps in
  let k2 = Synth.Bound_store.problem_key tech apps in
  Alcotest.(check string) "problem key deterministic" k1 k2;
  let k3 = Synth.Bound_store.problem_key ~capacity:50 tech apps in
  Alcotest.(check bool) "capacity changes the key" true (k1 <> k3);
  let a1 = Synth.Bound_store.app_key tech F2.app1 in
  let a2 = Synth.Bound_store.app_key tech F2.app2 in
  Alcotest.(check bool) "apps have distinct keys" true (a1 <> a2)

(* The acceptance differential: synthesis costs out of a warm cache are
   byte-identical to a cold run — the warm binding only seeds the
   incumbent, the search still proves optimality. *)
let test_warm_equals_cold () =
  with_tmp (fun path ->
      let cold =
        match Synth.Explore.solve tech apps with
        | Ok s -> s
        | Error _ -> Alcotest.fail "cold solve failed"
      in
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      Synth.Bound_store.remember store tech apps cold;
      let warm_binding = Synth.Bound_store.warm_binding store tech apps in
      Alcotest.(check bool) "warm hit" true (warm_binding <> None);
      let warm =
        match Synth.Explore.solve ?warm:warm_binding tech apps with
        | Ok s -> s
        | Error _ -> Alcotest.fail "warm solve failed"
      in
      Store.Keyed.close store;
      Alcotest.(check string) "identical cost breakdown"
        (J.to_string (J.Obj
             [ ("t", J.Int cold.Synth.Explore.cost.Synth.Cost.total);
               ("p", J.Int cold.Synth.Explore.cost.Synth.Cost.processor) ]))
        (J.to_string (J.Obj
             [ ("t", J.Int warm.Synth.Explore.cost.Synth.Cost.total);
               ("p", J.Int warm.Synth.Explore.cost.Synth.Cost.processor) ]));
      Alcotest.(check int) "identical worst load"
        cold.Synth.Explore.worst_load warm.Synth.Explore.worst_load;
      Alcotest.(check bool) "warm run is not degraded" false
        warm.Synth.Explore.degraded;
      Alcotest.(check bool) "warm run explores no more than cold" true
        (warm.Synth.Explore.explored <= cold.Synth.Explore.explored))

(* [remember] journals the problem record and the per-app records as
   one batch; remembering the same solution again finds every key
   holding an equal value and leaves the journal byte-identical. *)
let test_remember_is_idempotent () =
  with_tmp (fun path ->
      let s =
        match Synth.Explore.solve tech apps with
        | Ok s -> s
        | Error _ -> Alcotest.fail "solve failed"
      in
      let appends = Obs.Registry.counter "store.journal_appends" in
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let a0 = Obs.Metric.value appends in
      Synth.Bound_store.remember store tech apps s;
      Alcotest.(check int) "one record per key" (1 + List.length apps)
        (Obs.Metric.value appends - a0);
      let first = read_file path in
      Synth.Bound_store.remember store tech apps s;
      Store.Keyed.close store;
      Alcotest.(check int) "no record the second time" (1 + List.length apps)
        (Obs.Metric.value appends - a0);
      Alcotest.(check string) "journal byte-identical" first (read_file path))

(* A model edit invalidates the problem key but per-app records still
   warm-start the unchanged applications. *)
let test_partial_warm_after_edit () =
  with_tmp (fun path ->
      let cold =
        match Synth.Explore.solve tech apps with
        | Ok s -> s
        | Error _ -> Alcotest.fail "cold solve failed"
      in
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      Synth.Bound_store.remember store tech apps cold;
      (* drop app2: the problem key misses, app1's record still hits *)
      let warm = Synth.Bound_store.warm_binding store tech [ F2.app1 ] in
      Alcotest.(check bool) "per-app warm hit" true (warm <> None);
      let s =
        match Synth.Explore.solve ?warm tech [ F2.app1 ] with
        | Ok s -> s
        | Error _ -> Alcotest.fail "solve failed"
      in
      let cold1 =
        match Synth.Explore.solve tech [ F2.app1 ] with
        | Ok s -> s
        | Error _ -> Alcotest.fail "cold solve failed"
      in
      Store.Keyed.close store;
      Alcotest.(check int) "same optimum after the edit"
        cold1.Synth.Explore.cost.Synth.Cost.total
        s.Synth.Explore.cost.Synth.Cost.total)

let suite =
  ( "store",
    [
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "missing file is empty" `Quick
        test_journal_missing_file;
      Alcotest.test_case "truncation at every offset recovers" `Quick
        test_truncation_property;
      Alcotest.test_case "byte corruption never crashes replay" `Quick
        test_corruption_property;
      Alcotest.test_case "writer truncates torn tail" `Quick
        test_writer_truncates_torn_tail;
      Alcotest.test_case "keyed store last-wins + reopen" `Quick
        test_keyed_last_wins;
      Alcotest.test_case "keyed store recovers torn tail" `Quick
        test_keyed_recovers_torn_tail;
      Alcotest.test_case "bound store keys stable" `Quick
        test_bound_store_keys_stable;
      Alcotest.test_case "warm costs identical to cold" `Quick
        test_warm_equals_cold;
      Alcotest.test_case "partial warm after model edit" `Quick
        test_partial_warm_after_edit;
      Alcotest.test_case "remembering a solution twice writes it once" `Quick
        test_remember_is_idempotent;
    ] )
