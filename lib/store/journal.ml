let m_appends = Obs.Registry.counter "store.journal_appends"
let m_replays = Obs.Registry.counter "store.journal_replays"
let m_replayed = Obs.Registry.counter "store.journal_replayed_records"
let m_torn = Obs.Registry.counter "store.journal_torn_tails"

type replay = {
  records : Obs.Json.t list;
  valid_bytes : int;
  tail : Variants.Diagnostic.t option;
}

let checksum_width = 16

let frame payload =
  Printf.sprintf "%s %d %s\n"
    (Variants.Canonical.hash_string payload)
    (String.length payload) payload

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Parse one framed line (without its newline).  Every failure mode
   reports what broke so a recovery log can distinguish a routine torn
   write from silent corruption. *)
let parse_line line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt line ' ' with
  | None -> fail "no checksum field"
  | Some sp1 when sp1 <> checksum_width -> fail "malformed checksum field"
  | Some sp1 -> (
    match String.index_from_opt line (sp1 + 1) ' ' with
    | None -> fail "no length field"
    | Some sp2 -> (
      let checksum = String.sub line 0 sp1 in
      let payload = String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
      match int_of_string_opt (String.sub line (sp1 + 1) (sp2 - sp1 - 1)) with
      | None -> fail "malformed length field"
      | Some len when len <> String.length payload ->
        fail "length mismatch: header says %d, payload is %d bytes" len
          (String.length payload)
      | Some _ ->
        if not (String.equal (Variants.Canonical.hash_string payload) checksum)
        then fail "checksum mismatch"
        else (
          match Obs.Json.parse payload with
          | Ok json -> Ok json
          | Error e -> fail "checksummed payload is not JSON: %s" e)))

let replay path =
  Obs.Metric.incr m_replays;
  match read_file path with
  | None -> { records = []; valid_bytes = 0; tail = None }
  | Some content ->
    let len = String.length content in
    let rec scan o acc =
      if o >= len then { records = List.rev acc; valid_bytes = o; tail = None }
      else
        let torn why =
          Obs.Metric.incr m_torn;
          {
            records = List.rev acc;
            valid_bytes = o;
            tail =
              Some
                (Variants.Diagnostic.msgf ~subject:path
                   "journal tail at byte %d dropped (%d bytes): %s" o (len - o)
                   why);
          }
        in
        match String.index_from_opt content o '\n' with
        | None -> torn "no record terminator (torn write)"
        | Some nl -> (
          match parse_line (String.sub content o (nl - o)) with
          | Ok json ->
            Obs.Metric.incr m_replayed;
            scan (nl + 1) (json :: acc)
          | Error why -> torn why)
    in
    scan 0 []

type writer = { fd : Unix.file_descr; fsync : bool; w_path : string }

let path w = w.w_path

let open_writer ?(fsync = true) path =
  let { valid_bytes; _ } = replay path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* drop the torn tail so the next record starts on a boundary *)
  Unix.ftruncate fd valid_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { fd; fsync; w_path = path }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go o =
    if o < n then go (o + Unix.write fd b o (n - o))
  in
  go 0

let append w = function
  | [] -> ()
  | jsons ->
    let buf = Buffer.create 1024 in
    List.iter
      (fun json ->
        Buffer.add_string buf (frame (Obs.Json.to_string ~minify:true json)))
      jsons;
    write_all w.fd (Buffer.contents buf);
    if w.fsync then Unix.fsync w.fd;
    Obs.Metric.add m_appends (List.length jsons)

let close w = Unix.close w.fd
