let m_puts = Obs.Registry.counter "store.puts"
let m_hits = Obs.Registry.counter "store.hits"
let m_misses = Obs.Registry.counter "store.misses"
let m_records = Obs.Registry.gauge "store.live_records"

type t = {
  index : (string, Obs.Json.t) Hashtbl.t;
  writer : Journal.writer;
}

let record ~key value : Obs.Json.t =
  Obj [ ("k", Obs.Json.String key); ("v", value) ]

let unrecord json =
  match
    (Obs.Json.member "k" json, Obs.Json.member "v" json)
  with
  | Some (Obs.Json.String k), Some v -> Some (k, v)
  | _ -> None

let open_store ?fsync path =
  let { Journal.records; tail; _ } = Journal.replay path in
  let index = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match unrecord r with
      | Some (k, v) -> Hashtbl.replace index k v
      | None -> ())
    records;
  Obs.Metric.set m_records (Hashtbl.length index);
  ({ index; writer = Journal.open_writer ?fsync path }, tail)

let find t key =
  match Hashtbl.find_opt t.index key with
  | Some v ->
    Obs.Metric.incr m_hits;
    Some v
  | None ->
    Obs.Metric.incr m_misses;
    None

let mem t key = Hashtbl.mem t.index key

let put t pairs =
  let changed =
    List.filter
      (fun (key, value) ->
        match Hashtbl.find_opt t.index key with
        | Some stored -> stored <> value
        | None -> true)
      pairs
  in
  if changed <> [] then begin
    Journal.append t.writer
      (List.map (fun (key, value) -> record ~key value) changed);
    List.iter (fun (key, value) -> Hashtbl.replace t.index key value) changed;
    Obs.Metric.add m_puts (List.length changed);
    Obs.Metric.set m_records (Hashtbl.length t.index)
  end

let size t = Hashtbl.length t.index
let path t = Journal.path t.writer
let close t = Journal.close t.writer
