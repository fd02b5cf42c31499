(* A `spi-variants serve` child process: spawn, readiness, one-shot
   control requests over its socket, peak RSS, and shutdown. *)

type t = { pid : int; socket : string; mutable running : bool }

let live : t list ref = ref []

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go o = if o < Bytes.length b then go (o + Unix.write fd b o (Bytes.length b - o)) in
  go 0

(* One control request (ping, metrics, shutdown), sent by the protocol's
   own client. *)
let control socket op =
  let request = { Serve.Protocol.id = None; deadline_ms = None; jobs = None; trace = false; op } in
  match Serve.Client.request ~timeout_s:60. ~attempts:1 ~socket request with
  | Serve.Client.Response json -> json
  | Serve.Client.Overloaded _ -> failwith "daemon overloaded"
  | Serve.Client.Unreachable why -> failwith why

let spawn ~bin ~dir ~store =
  let socket = Filename.concat dir "d.sock" in
  let out =
    Unix.openfile (Filename.concat dir "daemon.out")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [ bin; "serve"; "--socket"; socket; "-j"; "2"; "--log"; Filename.concat dir "daemon.log" ]
    @ match store with Some path -> [ "--store"; path ] | None -> []
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process bin (Array.of_list args) Unix.stdin out out)
  in
  let d = { pid; socket; running = true } in
  live := d :: !live;
  d

let reap d =
  d.running <- false;
  live := List.filter (fun x -> x != d) !live

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ -> reap d; true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap d; true

(* Seconds from [t0] (the spawn) until the daemon answers a ping. *)
let wait_ready d ~t0 =
  let rec go () =
    if exited d then failwith "daemon exited before answering ping";
    if Obs.Clock.elapsed_ns t0 > 60_000_000_000 then failwith "daemon not ready after 60 s";
    match connect d.socket with
    | Error (Unix.ENOENT | Unix.ECONNREFUSED) ->
      Unix.sleepf 0.0002;
      go ()
    | Error e -> failwith ("connect: " ^ Unix.error_message e)
    | Ok fd -> Unix.close fd
  in
  go ();
  match Serve.Protocol.status_of_response (control d.socket Serve.Protocol.Ping) with
  | "ok" -> Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0)
  | s -> failwith ("ping answered " ^ s)

let kill d =
  if d.running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    reap d
  end

(* Graceful shutdown through the protocol; SIGKILL after 30 s. *)
let stop d =
  if d.running then begin
    (try ignore (control d.socket Serve.Protocol.Shutdown) with Failure _ -> ());
    let t0 = Obs.Clock.now_ns () in
    while d.running && not (exited d) do
      if Obs.Clock.elapsed_ns t0 > 30_000_000_000 then kill d else Unix.sleepf 0.001
    done
  end

let kill_all () = List.iter kill !live

(* The daemon's peak resident set (VmHWM), in MB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ())
