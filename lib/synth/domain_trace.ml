(* Records are two ints, one incumbent improvement each: [ts_ns; cost]. *)

type buffer = {
  domain : int;
  data : int array;
  mutable len : int;  (** records written *)
  mutable drops : int;
}

let stride = 2
let default_capacity = 4096
let enabled = Atomic.make false
let cap_ref = Atomic.make default_capacity
let base_ns = Atomic.make 0

(* Registration list: touched at domain startup and at drain time only,
   never on the record path. *)
let lock = Mutex.create ()
let buffers : buffer list ref = ref []

let make_buffer () =
  let b =
    {
      domain = (Domain.self () :> int);
      data = Array.make (stride * Atomic.get cap_ref) 0;
      len = 0;
      drops = 0;
    }
  in
  Mutex.lock lock;
  buffers := b :: !buffers;
  Mutex.unlock lock;
  b

let key = Domain.DLS.new_key make_buffer

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Domain_trace.enable: capacity < 1";
  Mutex.lock lock;
  buffers := [];
  Mutex.unlock lock;
  Atomic.set cap_ref capacity;
  Atomic.set base_ns (Obs.Clock.now_ns ());
  (* the calling domain's buffer was dropped from the list above;
     recreate it so its records land in a registered buffer *)
  Domain.DLS.set key (make_buffer ());
  Atomic.set enabled true

let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let push ts cost =
  let buf = Domain.DLS.get key in
  if (buf.len + 1) * stride > Array.length buf.data then
    buf.drops <- buf.drops + 1
  else begin
    let o = buf.len * stride in
    buf.data.(o) <- ts;
    buf.data.(o + 1) <- cost;
    buf.len <- buf.len + 1
  end

let record_improvement ~cost =
  if Atomic.get enabled then push (Obs.Clock.now_ns ()) cost

let registered () =
  Mutex.lock lock;
  let bs = !buffers in
  Mutex.unlock lock;
  List.rev bs

let dropped () = List.fold_left (fun acc b -> acc + b.drops) 0 (registered ())

let m_dropped = Obs.Registry.counter "par.trace_dropped"

module T = Obs.Trace_event
module J = Obs.Json

let emit_timeline ?(pid = 1) ?(name = "explorer") sink =
  let bufs = registered () in
  let base = Atomic.get base_ns in
  let us ns = float_of_int (ns - base) /. 1000. in
  T.sink_process_name sink ~pid name;
  List.iteri
    (fun order buf ->
      let tid = buf.domain in
      T.sink_thread_name sink ~pid ~tid
        (Printf.sprintf "domain %d" buf.domain);
      T.sink_thread_order sink ~pid ~tid order;
      for r = 0 to buf.len - 1 do
        let o = r * stride in
        let ts = us buf.data.(o) and cost = buf.data.(o + 1) in
        sink.T.event
          (T.Instant
             {
               name = "incumbent";
               cat = "search";
               pid;
               tid;
               ts;
               args = [ ("cost", J.Int cost) ];
             });
        (* the same improvements as a counter track: viewers draw the
           incumbent cost as a step function descending over the search,
           one series shared by all lanes of the group *)
        sink.T.event
          (T.Counter
             {
               name = "incumbent cost";
               pid;
               ts;
               values = [ ("cost", float_of_int cost) ];
             })
      done)
    bufs;
  let d = dropped () in
  if d > 0 then Obs.Metric.add m_dropped d

let append_timeline ?pid ?name builder =
  emit_timeline ?pid ?name (T.buffer_sink builder)

let reset () =
  List.iter
    (fun b ->
      b.len <- 0;
      b.drops <- 0)
    (registered ())
