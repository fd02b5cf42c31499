(* All mutation goes through Atomic so the same metric can be bumped
   from several domains; see the .mli for the consistency contract. *)

type counter = { c_name : string; c_cell : int Atomic.t }

let make_counter name = { c_name = name; c_cell = Atomic.make 0 }
let counter_name c = c.c_name
let incr c = ignore (Atomic.fetch_and_add c.c_cell 1)

let add c n =
  if n < 0 then invalid_arg "Metric.add: negative delta"
  else if n > 0 then ignore (Atomic.fetch_and_add c.c_cell n)

let value c = Atomic.get c.c_cell
let reset_counter c = Atomic.set c.c_cell 0

type gauge = { g_name : string; g_cell : int Atomic.t }

let make_gauge name = { g_name = name; g_cell = Atomic.make 0 }
let gauge_name g = g.g_name
let set g v = Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell
let reset_gauge g = Atomic.set g.g_cell 0

(* Power-of-two buckets: index 0 holds the value 0, index b >= 1 holds
   [2^(b-1), 2^b - 1].  63 buckets cover the whole non-negative int
   range. *)
let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    go 0 v
  end

let bucket_lower b = if b = 0 then 0 else 1 lsl (b - 1)
let bucket_upper b = if b = 0 then 0 else (1 lsl b) - 1

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_lo : int Atomic.t;  (* max_int while empty *)
  h_hi : int Atomic.t;  (* min_int while empty *)
}

let make_histogram name =
  {
    h_name = name;
    h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0;
    h_lo = Atomic.make max_int;
    h_hi = Atomic.make min_int;
  }

let histogram_name h = h.h_name

let rec cas_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then cas_min cell v

let rec cas_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then cas_max cell v

let observe_n h v k =
  if k < 0 then invalid_arg "Metric.observe_n: negative count"
  else if k > 0 then begin
    let v = max 0 v in
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) k);
    ignore (Atomic.fetch_and_add h.h_count k);
    ignore (Atomic.fetch_and_add h.h_sum (v * k));
    cas_min h.h_lo v;
    cas_max h.h_hi v
  end

let observe h v = observe_n h v 1

let count h = Atomic.get h.h_count
let sum h = Atomic.get h.h_sum
let h_min h = if count h = 0 then None else Some (Atomic.get h.h_lo)
let h_max h = if count h = 0 then None else Some (Atomic.get h.h_hi)

let quantile h q =
  if q < 0. || q > 1. then invalid_arg "Metric.quantile: q outside [0, 1]";
  let total = count h in
  if total = 0 then None
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec walk b acc =
      if b >= n_buckets then Some (Atomic.get h.h_hi)
      else
        let acc = acc + Atomic.get h.h_buckets.(b) in
        if acc >= rank then
          (* clamp the bucket bound by the observed extrema so tiny
             histograms report exact values *)
          Some (max (Atomic.get h.h_lo) (min (bucket_upper b) (Atomic.get h.h_hi)))
        else walk (b + 1) acc
    in
    walk 0 0
  end

let buckets h =
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    let c = Atomic.get h.h_buckets.(b) in
    if c > 0 then out := (bucket_lower b, c) :: !out
  done;
  !out

let reset_histogram h =
  Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
  Atomic.set h.h_count 0;
  Atomic.set h.h_sum 0;
  Atomic.set h.h_lo max_int;
  Atomic.set h.h_hi min_int
