(* Quantiles and the spread figures the result file records beside them. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* The median, over [n / size] consecutive windows of equal length (each
   at least [size] samples), of each window's q-quantile.  A burst of
   interference from other tenants of the host that covers a minority
   of the windows leaves it where it was. *)
let windowed_quantile ~size xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (n / size) in
  median (List.init k (fun i -> quantile (Array.to_list (Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k)))) q))

(* Relative half-width of a distribution-free 95% interval for the
   q-quantile of a sample, from its order statistics. *)
let quantile_spread xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.
  else
    let nq = float_of_int n *. q and half = 1.96 *. sqrt (float_of_int n *. q *. (1. -. q)) in
    let at r = a.(max 0 (min (n - 1) r)) in
    let lo = at (int_of_float (Float.floor (nq -. half))) and hi = at (int_of_float (Float.ceil (nq +. half)) - 1) in
    (hi -. lo) /. 2. /. quantile_sorted a q

(* Half the interquartile range, relative to the median. *)
let iqr_spread xs =
  let a = sorted xs in
  (quantile_sorted a 0.75 -. quantile_sorted a 0.25) /. 2. /. quantile_sorted a 0.5
