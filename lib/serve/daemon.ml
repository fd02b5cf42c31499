module J = Obs.Json
module P = Protocol

let m_connections = Obs.Registry.counter "serve.connections"
let m_admitted = Obs.Registry.counter "serve.admitted"
let m_rejections = Obs.Registry.counter "serve.admission_rejections"
let m_bad_lines = Obs.Registry.counter "serve.unparseable_lines"
let m_long_lines = Obs.Registry.counter "serve.oversized_lines"
let m_queue_depth = Obs.Registry.gauge "serve.queue_depth"
let m_queue_wait = Obs.Registry.histogram "serve.queue_wait_ns"
let m_inflight = Obs.Registry.gauge "serve.inflight_requests"

type config = {
  socket_path : string;
  store_path : string option;
  metrics_path : string option;
  trace_path : string option;
  log_path : string option;
  log_level : Obs.Log.level;
  sample_interval_ms : int;
  series_windows : int;
  jobs : int;
  queue_limit : int;
  default_deadline_ms : int option;
  fsync : bool;
}

let default_queue_limit = 64
let default_sample_interval_ms = 1000

(* [--trace] keeps the most recent request trees; enough to inspect an
   incident without growing with uptime. *)
let trace_ring_limit = 128

(* Longest request line accepted, newline excluded.  The largest
   request the end-to-end benchmark sends is ~10 KiB of model text, so
   1 MiB leaves two orders of magnitude of headroom while bounding what
   a client that never sends a newline can make the daemon hold. *)
let max_line_bytes = 1 lsl 20

(* Most response bytes a connection may leave unread.  Answers the
   socket cannot take yet wait in the daemon, so a client that stops
   reading would otherwise pin them without bound.  A 100-item
   family-simulate batch answers about 0.4 MB, so 16 MiB is far more
   than a reader that is merely slow falls behind by; past it the
   connection is dropped. *)
let max_backlog_bytes = 16 * max_line_bytes

(* Longest a shutdown waits for backlogged answers to reach clients
   that are still reading. *)
let shutdown_flush_s = 2.0

(* One connected client: the unterminated tail of its input (lines can
   arrive split across reads or several per read), the answers its
   socket has not taken yet, and its fd. *)
type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  unsent : string Queue.t;  (* response lines, oldest first *)
  mutable sent : int;  (* bytes of the oldest unsent line already written *)
  mutable backlog : int;  (* unsent bytes over all lines *)
  mutable closed : bool;
}

type pending = {
  p_conn : conn;
  p_request : P.request;
  p_admitted_ns : int;
}

type state = {
  config : config;
  listener : Unix.file_descr;
  handler : Handler.t;
  series : Obs.Series.t option;
  traces : Obs.Rtrace.t Queue.t;
  mutable conns : conn list;
  queue : pending Queue.t;
  mutable last_sample_ns : int;
  mutable draining : bool;
}

let drop_conn st conn =
  conn.closed <- true;
  st.conns <- List.filter (fun c -> c.fd != conn.fd) st.conns;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* Writes as much of [conn]'s backlog as its socket takes without
   blocking; false when the client is gone. *)
let rec flush conn =
  match Queue.peek_opt conn.unsent with
  | None -> true
  | Some line -> (
    let n = String.length line - conn.sent in
    match Unix.write_substring conn.fd line conn.sent n with
    | k ->
      conn.backlog <- conn.backlog - k;
      if k = n then begin
        ignore (Queue.pop conn.unsent);
        conn.sent <- 0
      end
      else conn.sent <- conn.sent + k;
      flush conn
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false)

let flush_or_drop st conn = if not (flush conn) then drop_conn st conn

(* Queues one response line behind the connection's backlog and writes
   what the socket takes now; the rest goes out as [select] reports the
   fd writable.  A client that vanished mid-response is its problem,
   not ours, and one that lets [max_backlog_bytes] pile up is cut off. *)
let write_line st conn json =
  if not conn.closed then begin
    let line = J.to_string ~minify:true json ^ "\n" in
    Queue.push line conn.unsent;
    conn.backlog <- conn.backlog + String.length line;
    flush_or_drop st conn;
    if (not conn.closed) && conn.backlog > max_backlog_bytes then begin
      Obs.Log.emit ~level:Obs.Log.Warn "serve.slow_reader"
        [ ("backlog", J.Int conn.backlog); ("limit", J.Int max_backlog_bytes) ];
      drop_conn st conn
    end
  end

let rid_fields (request : P.request) =
  match request.P.id with Some i -> [ ("rid", J.String i) ] | None -> []

(* Admission: parse failures answer immediately (they carry no work),
   a full queue sheds load with a structured rejection, everything else
   enqueues with its admission stamp — deadlines start here. *)
let admit st conn line =
  if String.length (String.trim line) = 0 then ()
  else
    match P.parse_request line with
    | Error e ->
      Obs.Metric.incr m_bad_lines;
      write_line st conn (P.error e)
    | Ok request ->
      let depth = Queue.length st.queue in
      let rid_fields = rid_fields request in
      if depth >= st.config.queue_limit then begin
        Obs.Metric.incr m_rejections;
        Obs.Log.emit ~level:Obs.Log.Warn "serve.shed"
          (rid_fields
          @ [
              ("queue_depth", J.Int depth);
              ("queue_limit", J.Int st.config.queue_limit);
            ]);
        write_line st conn
          (P.overloaded ?id:request.P.id ~queue_depth:depth
             ~queue_limit:st.config.queue_limit
             ~retry_after_ms:(50 * (1 + depth))
             ())
      end
      else begin
        Obs.Metric.incr m_admitted;
        Obs.Log.emit ~level:Obs.Log.Debug "serve.admitted"
          (rid_fields @ [ ("queue_depth", J.Int (depth + 1)) ]);
        Queue.push
          { p_conn = conn; p_request = request;
            p_admitted_ns = Obs.Clock.now_ns () }
          st.queue;
        Obs.Metric.set m_queue_depth (Queue.length st.queue)
      end

let split_lines pending chunk =
  let n = String.length chunk in
  let rec go start lines =
    match String.index_from_opt chunk start '\n' with
    | Some nl when Buffer.length pending + (nl - start) <= max_line_bytes ->
      Buffer.add_substring pending chunk start (nl - start);
      let line = Buffer.contents pending in
      Buffer.reset pending;
      go (nl + 1) (line :: lines)
    | None when Buffer.length pending + (n - start) <= max_line_bytes ->
      Buffer.add_substring pending chunk start (n - start);
      Ok (List.rev lines)
    | Some _ | None -> Error max_line_bytes
  in
  go 0 []

let read_chunk_size = 65536

(* An over-long line gets one structured answer, then the connection
   goes: there is no way to resynchronize on a line that never ends. *)
let handle_readable st conn =
  let bytes = Bytes.create read_chunk_size in
  match Unix.read conn.fd bytes 0 read_chunk_size with
  | 0 -> drop_conn st conn
  | n -> (
    match split_lines conn.pending (Bytes.sub_string bytes 0 n) with
    | Ok lines -> List.iter (admit st conn) lines
    | Error limit ->
      Obs.Metric.incr m_long_lines;
      Obs.Log.emit ~level:Obs.Log.Warn "serve.line_too_large"
        [ ("limit", J.Int limit) ];
      write_line st conn
        (P.too_large ~limit
           (Printf.sprintf "request line exceeds %d bytes" limit));
      drop_conn st conn)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn st conn

let accept_conn st =
  match Unix.accept st.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    Obs.Metric.incr m_connections;
    st.conns <-
      { fd; pending = Buffer.create 256; unsent = Queue.create (); sent = 0;
        backlog = 0; closed = false }
      :: st.conns
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let process_one st =
  match Queue.take_opt st.queue with
  | None -> ()
  | Some { p_conn; p_request; _ } when p_conn.closed ->
    (* the client hung up and its fd is closed — possibly already reused
       by a newer client, who must not get this answer *)
    Obs.Metric.set m_queue_depth (Queue.length st.queue);
    Obs.Log.emit ~level:Obs.Log.Debug "serve.skipped_closed" (rid_fields p_request)
  | Some { p_conn; p_request; p_admitted_ns } ->
    Obs.Metric.set m_queue_depth (Queue.length st.queue);
    Obs.Metric.observe m_queue_wait (Obs.Clock.elapsed_ns p_admitted_ns);
    Obs.Metric.set m_inflight 1;
    let response =
      Fun.protect
        ~finally:(fun () -> Obs.Metric.set m_inflight 0)
        (fun () ->
          Handler.handle st.handler ~admitted_ns:p_admitted_ns
            ~queue_depth:(Queue.length st.queue) p_request)
    in
    write_line st p_conn response

(* Periodic registry sampling for the rolling series — runs between
   requests on the event loop, so a disabled ticker ([0]) means the
   telemetry layer contributes literally nothing to request latency. *)
let maybe_sample st =
  match st.series with
  | None -> ()
  | Some series ->
    let now = Obs.Clock.now_ns () in
    if now - st.last_sample_ns >= st.config.sample_interval_ms * 1_000_000
    then begin
      st.last_sample_ns <- now;
      Obs.Series.sample series
    end

let write_traces st path =
  let collection = Obs.Trace_event.create () in
  let sink = Obs.Trace_event.buffer_sink collection in
  let pid = ref 0 in
  Queue.iter
    (fun tr ->
      incr pid;
      Obs.Rtrace.emit_timeline ~pid:!pid tr sink)
    st.traces;
  Obs.Trace_event.to_file path collection

(* Waits until every backlog has drained or [until] (a
   [Unix.gettimeofday] time) has passed. *)
let rec drain_backlogs st ~until =
  let waiting = List.filter (fun c -> c.backlog > 0) st.conns in
  let left = until -. Unix.gettimeofday () in
  if waiting <> [] && left > 0. then begin
    (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] left with
    | _, writable, _ ->
      List.iter
        (fun c -> if List.memq c.fd writable then flush_or_drop st c)
        waiting
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    drain_backlogs st ~until
  end

let shutdown_state st =
  (* answer everything already admitted, then flush and leave *)
  while not (Queue.is_empty st.queue) do
    process_one st
  done;
  drain_backlogs st ~until:(Unix.gettimeofday () +. shutdown_flush_s);
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  (try Unix.close st.listener with Unix.Unix_error _ -> ());
  (try Sys.remove st.config.socket_path with Sys_error _ -> ());
  Option.iter Store.Keyed.close (Handler.store st.handler);
  Option.iter Obs.Registry.to_file st.config.metrics_path;
  Option.iter (write_traces st) st.config.trace_path;
  Obs.Log.emit "serve.stopped"
    [ ("requests", J.Int (Obs.Metric.value m_admitted)) ]

let run config =
  (* a client gone before its response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop = ref false in
  let request_stop _ = stop := true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  Obs.Log.set_level config.log_level;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      at_exit (fun () -> close_out_noerr oc);
      Obs.Log.set_sink (Some (Obs.Log.channel_sink oc)))
    config.log_path;
  let store =
    Option.map
      (fun path ->
        let store, tail = Store.Keyed.open_store ~fsync:config.fsync path in
        Option.iter
          (fun d ->
            Obs.Log.emit ~level:Obs.Log.Warn "store.recovery"
              [
                ("path", J.String path);
                ( "diagnostic",
                  J.String (Format.asprintf "%a" Variants.Diagnostic.pp d) );
              ];
            Format.eprintf "serve: store recovery: %a@." Variants.Diagnostic.pp
              d)
          tail;
        Obs.Log.emit "store.replayed"
          [ ("path", J.String path);
            ("records", J.Int (Store.Keyed.size store)) ];
        store)
      config.store_path
  in
  let series =
    if config.sample_interval_ms > 0 then
      Some (Obs.Series.create ~windows:config.series_windows ())
    else None
  in
  let traces = Queue.create () in
  let on_trace =
    match config.trace_path with
    | None -> None
    | Some _ ->
      Some
        (fun tr ->
          if Queue.length traces >= trace_ring_limit then
            ignore (Queue.pop traces);
          Queue.push tr traces)
  in
  let handler =
    Handler.create ?store ?default_deadline_ms:config.default_deadline_ms
      ?series ?on_trace ~jobs:config.jobs ()
  in
  (try Sys.remove config.socket_path with Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let st =
    { config; listener; handler; series; traces; conns = [];
      queue = Queue.create (); last_sample_ns = Obs.Clock.now_ns ();
      draining = false }
  in
  Obs.Log.emit "serve.started"
    [
      ("socket", J.String config.socket_path);
      ("jobs", J.Int config.jobs);
      ("queue_limit", J.Int config.queue_limit);
      ("sample_interval_ms", J.Int config.sample_interval_ms);
    ];
  let rec loop () =
    if !stop || Handler.shutdown_requested st.handler then st.draining <- true;
    if st.draining then shutdown_state st
    else begin
      (* zero timeout while work is queued: poll, execute one request,
         poll again — reads interleave between requests, not inside *)
      let timeout = if Queue.is_empty st.queue then 0.2 else 0.0 in
      let fds = st.listener :: List.map (fun c -> c.fd) st.conns in
      let backlogged =
        List.filter_map (fun c -> if c.backlog > 0 then Some c.fd else None) st.conns
      in
      (match Unix.select fds backlogged [] timeout with
      | readable, writable, _ ->
        let conn_of fd = List.find_opt (fun c -> c.fd == fd) st.conns in
        List.iter
          (fun fd -> Option.iter (flush_or_drop st) (conn_of fd))
          writable;
        List.iter
          (fun fd ->
            if fd == st.listener then accept_conn st
            else Option.iter (handle_readable st) (conn_of fd))
          readable
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      maybe_sample st;
      process_one st;
      loop ()
    end
  in
  loop ()
