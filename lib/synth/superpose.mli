(** The superposition baseline (Table 1, line 3).

    Each application is synthesized independently and the resulting
    implementations are superposed onto one target architecture:
    software parts share the processor (paid once), hardware parts are
    all instantiated — common processes' ASICs merge, variant ASICs add
    up.  Superposition never revisits the per-application mapping, so it
    cannot trade a shared process into hardware to free the processor
    for the variants; that is precisely the optimization a variant-aware
    representation recovers. *)

type result = {
  per_app : (string * Explore.solution) list;
  merged : Binding.t;
  cost : Cost.breakdown;
  conflicts : Spi.Ids.Process_id.t list;
      (** shared processes mapped differently by different applications:
          both implementations exist in the superposed architecture; the
          hardware copy is paid and [merged] reports it, the software
          copy shares the (already paid) processor *)
}

val superpose : ?capacity:int -> Tech.t -> App.t list -> result option
(** [None] when any single application is infeasible on its own.  Each
    application is solved by its own {!Explore.optimal} call. *)

val pp_result : Format.formatter -> result -> unit
