(** Sensitivity of the optimal mapping to technology figures.

    Cost estimates are uncertain early in a design; a useful question is
    how far a figure can drift before the optimal HW/SW decision flips.
    Raising a process's hardware area monotonically discourages mapping
    it to hardware (and raising its software load discourages software),
    so the flip point is unique and binary search finds it exactly. *)

type parameter =
  | Hw_area  (** sweep the process's ASIC cost *)
  | Sw_load  (** sweep the process's processor load *)

type flip = {
  at : int;  (** smallest parameter value whose optimum differs *)
  below : Binding.impl;  (** the process's implementation before the flip *)
  above : Binding.impl option;
      (** after the flip; [None] when the whole problem turns
          infeasible instead *)
}

val flip_point :
  ?capacity:int ->
  parameter:parameter ->
  range:int * int ->
  Tech.t ->
  App.t list ->
  Spi.Ids.Process_id.t ->
  flip option
(** Searches [range] (inclusive) for the smallest parameter value at
    which the cost-optimal implementation of the process differs from
    its implementation at the low end of the range.  Each value is
    decided by two optima, one with the process pinned to hardware and
    one pinned to software: the decision flips only where the other
    implementation is strictly cheaper, and a tie keeps the decision
    taken at the low end (at the low end itself, the optimum's own
    binding breaks a tie).  So the answer never depends on which of
    several equal-cost optima the search returns.  [None] when the
    decision is stable across the whole range, the problem is
    infeasible at the low end, or the process lacks the swept option.
    @raise Invalid_argument on an empty range. *)

val pp_flip : Format.formatter -> flip -> unit
