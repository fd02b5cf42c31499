(* Request-scoped tracing.  A [t] is minted per served request and
   carries a bounded, lock-free list of spans; the *ambient* context — a
   (trace, parent span id) pair — lives in domain-local storage, so
   instrumentation sites need no plumbing: {!Registry.record_span} and
   {!Registry.with_span} feed whatever trace is active on the recording
   domain.  [Synth.Par] captures the spawning domain's context and
   restores it on every worker, so spans recorded inside pool tasks land
   in the same request tree.

   Everything here is off the hot path: span recording happens once per
   task or per run, and when no trace is active the whole layer costs
   one DLS read per recorded span. *)

type span = {
  id : int;
  parent : int;  (** 0 for the root span *)
  name : string;
  domain : int;
  start_ns : int;
  dur_ns : int;
}

type t = {
  rid : string;
  minted_ns : int;
  next_id : int Atomic.t;
  count : int Atomic.t;
  spans : span list Atomic.t;
  capacity : int;
  dropped : int Atomic.t;
}

let default_capacity = 512

let create ?(capacity = default_capacity) rid =
  if capacity < 1 then invalid_arg "Rtrace.create: capacity < 1";
  {
    rid;
    minted_ns = Clock.now_ns ();
    next_id = Atomic.make 1;
    count = Atomic.make 0;
    spans = Atomic.make [];
    capacity;
    dropped = Atomic.make 0;
  }

let rid t = t.rid
let dropped t = Atomic.get t.dropped

(* ------------------------- ambient context ------------------------- *)

type context = (t * int) option
(* the int is the span id new spans parent to (0 = the root) *)

let key : context Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let capture () = Domain.DLS.get key
let restore ctx = Domain.DLS.set key ctx
let current () = Option.map fst (Domain.DLS.get key)

(* --------------------------- recording ----------------------------- *)

let add t span =
  (* a child claims one of [capacity - 1] slots before consing, and the
     root (parent 0), which closes last, always lands, so the list never
     exceeds [capacity] and keeps its root; overflow is counted, not
     silent *)
  if span.parent <> 0 && Atomic.fetch_and_add t.count 1 >= t.capacity - 1 then
    Atomic.incr t.dropped
  else begin
    let rec cons () =
      let cur = Atomic.get t.spans in
      if not (Atomic.compare_and_set t.spans cur (span :: cur)) then cons ()
    in
    cons ()
  end

let note ~name ~start_ns ~dur_ns =
  match Domain.DLS.get key with
  | None -> ()
  | Some (t, parent) ->
    add t
      {
        id = Atomic.fetch_and_add t.next_id 1;
        parent;
        name;
        domain = (Domain.self () :> int);
        start_ns;
        dur_ns;
      }

(* Nested spans allocate their id on entry so children recorded inside
   the body parent to them; [exit] restores whatever context [enter]
   replaced, even when the body raised. *)

type frame = (context * int) option

let enter () =
  match Domain.DLS.get key with
  | None -> None
  | Some (t, _) as saved ->
    let id = Atomic.fetch_and_add t.next_id 1 in
    Domain.DLS.set key (Some (t, id));
    Some (saved, id)

let exit frame ~name ~start_ns ~dur_ns =
  match frame with
  | None -> ()
  | Some (saved, id) ->
    (match saved with
    | Some (t, parent) ->
      add t
        {
          id;
          parent;
          name;
          domain = (Domain.self () :> int);
          start_ns;
          dur_ns;
        }
    | None -> ());
    Domain.DLS.set key saved

let with_request t name f =
  let saved = capture () in
  Domain.DLS.set key (Some (t, 0));
  let start_ns = Clock.now_ns () in
  let frame = enter () in
  Fun.protect
    ~finally:(fun () ->
      exit frame ~name ~start_ns ~dur_ns:(Clock.elapsed_ns start_ns);
      restore saved)
    f

(* --------------------------- rendering ----------------------------- *)

let spans t =
  (* recording conses newest-first; present start-ordered (stable on
     ties, so parents precede children recorded at the same stamp) *)
  List.stable_sort
    (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id))
    (List.rev (Atomic.get t.spans))

let to_json t =
  let span_json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", Json.Int s.parent);
        ("name", Json.String s.name);
        ("domain", Json.Int s.domain);
        ("start_ns", Json.Int (s.start_ns - t.minted_ns));
        ("dur_ns", Json.Int s.dur_ns);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "rtrace/v1");
      ("rid", Json.String t.rid);
      ("spans", Json.List (List.map span_json (spans t)));
      ("dropped", Json.Int (Atomic.get t.dropped));
    ]

let emit_timeline ~pid t sink =
  Trace_event.sink_process_name sink ~pid (Printf.sprintf "req %s" t.rid);
  let seen = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.domain) then begin
        Hashtbl.add seen s.domain ();
        Trace_event.sink_thread_name sink ~pid ~tid:s.domain
          (Printf.sprintf "domain %d" s.domain)
      end;
      sink.Trace_event.event
        (Trace_event.Complete
           {
             name = s.name;
             cat = "request";
             pid;
             tid = s.domain;
             ts = float_of_int (s.start_ns - t.minted_ns) /. 1e3;
             dur = float_of_int s.dur_ns /. 1e3;
             args = [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ];
           }))
    (spans t)
