(* Closed-loop load over persistent connections, from one thread: each
   connection sends its next request only once the previous response
   line has arrived.  The next request goes out before the previous
   response is checked, so client-side checking overlaps daemon work. *)

type sample = { index : int; latency_ns : int; done_ns : int; ok : bool }

type conn = {
  mutable fd : Unix.file_descr;
  buf : Buffer.t;
  mutable inflight : (int * int) option;  (* request index, send time *)
}

let timeout_ns = 10_000_000_000

(* [next ()] yields the next (index, line) or [None] when the stream ends;
   no request is sent at or after [until_ns].  [check index line] judges a
   response.  A timeout or a broken connection fails the request and the
   connection is replaced. *)
let run ~socket ~connections ~until_ns ~next ~check =
  let open_fd () =
    match Daemon_proc.connect socket with
    | Ok fd -> fd
    | Error e -> failwith ("connect: " ^ Unix.error_message e)
  in
  let conns =
    Array.init connections (fun _ -> { fd = open_fd (); buf = Buffer.create 65536; inflight = None })
  in
  let samples = ref [] in
  let record ~now index sent ok = samples := { index; latency_ns = now - sent; done_ns = now; ok } :: !samples in
  let rec send c =
    if Obs.Clock.now_ns () < until_ns then
      match next () with
      | None -> ()
      | Some (index, line) -> (
        let sent = Obs.Clock.now_ns () in
        c.inflight <- Some (index, sent);
        try Daemon_proc.write_all c.fd (line ^ "\n") with Unix.Unix_error _ -> fail c)
  and fail c =
    Option.iter (fun (index, sent) -> record ~now:(Obs.Clock.now_ns ()) index sent false) c.inflight;
    c.inflight <- None;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Buffer.clear c.buf;
    c.fd <- open_fd ();
    send c
  in
  Array.iter send conns;
  let chunk = Bytes.create 65536 in
  let receive c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> fail c
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
    | n -> (
      Buffer.add_subbytes c.buf chunk 0 n;
      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
      | None -> ()
      | Some _ ->
        let now = Obs.Clock.now_ns () in
        let data = Buffer.contents c.buf in
        let line = String.sub data 0 (String.index data '\n') in
        Buffer.clear c.buf;
        let index, sent = Option.get c.inflight in
        c.inflight <- None;
        send c;
        record ~now index sent (check index line))
  in
  let busy () = List.filter (fun c -> c.inflight <> None) (Array.to_list conns) in
  let rec loop () =
    match busy () with
    | [] -> ()
    | active ->
      let now = Obs.Clock.now_ns () in
      let first_deadline =
        List.fold_left (fun m c -> match c.inflight with Some (_, s) -> min m (s + timeout_ns) | None -> m)
          max_int active
      in
      let wait = Float.max 0. (float_of_int (first_deadline - now) /. 1e9) in
      let readable =
        match Unix.select (List.map (fun c -> c.fd) active) [] [] wait with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter (fun c -> if List.memq c.fd readable then receive c) active;
      let now = Obs.Clock.now_ns () in
      List.iter
        (fun c -> match c.inflight with Some (_, s) when now - s > timeout_ns -> fail c | _ -> ())
        active;
      loop ()
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns)
    loop;
  List.rev !samples
