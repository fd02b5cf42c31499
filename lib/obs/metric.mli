(** Lock-free metric primitives.

    Every mutation is a single [Atomic] operation (or a short CAS loop
    for min/max), so metrics are safe to bump concurrently from
    {!Synth.Par} worker domains and from the simulator without
    coordination.  Reads ([value], [snapshot_*]) are wait-free and may
    observe a mid-update histogram (count ahead of sum by one
    observation); exact consistency is only guaranteed once the domains
    that write have quiesced — which is when snapshots are taken.

    Instrumented hot loops should accumulate into plain locals and fold
    into these metrics once per task or per run: a counter [add] at the
    end of a search task costs one atomic op for millions of nodes. *)

(** {1 Counters} *)

type counter
(** Monotonically increasing integer. *)

val make_counter : string -> counter
val counter_name : counter -> string
val incr : counter -> unit
val add : counter -> int -> unit
(** Negative deltas are rejected with [Invalid_argument]. *)

val value : counter -> int

(** {1 Gauges} *)

type gauge
(** Last-write-wins integer (a level, a timestamp, a size). *)

val make_gauge : string -> gauge
val gauge_name : gauge -> string
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram
(** Power-of-two bucketed distribution of non-negative integers
    (latencies in ns, queue depths, node counts).  Bucket [0] holds the
    value 0; bucket [b >= 1] holds values in [[2^(b-1), 2^b - 1]].
    Quantile estimates therefore carry at most a 2x relative error,
    which is what a regression gate needs — not a profiler. *)

val make_histogram : string -> histogram
val histogram_name : histogram -> string

val observe : histogram -> int -> unit
(** Negative values are clamped to 0. *)

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v k] records [k] observations of [v] — the same as [k]
    calls of [observe h v] — in five atomic operations.  Negative
    counts are rejected with [Invalid_argument]. *)

val count : histogram -> int
val sum : histogram -> int

val h_min : histogram -> int option
(** Smallest observed value; [None] while empty. *)

val h_max : histogram -> int option

val quantile : histogram -> float -> int option
(** [quantile h q] for [q] in [[0, 1]]: an upper bound of the bucket
    containing the rank-[ceil(q * count)] observation.  [None] while
    empty. *)

val buckets : histogram -> (int * int) list
(** Non-empty buckets as [(lower_bound, count)], ascending. *)

(** {1 Reset} *)

val reset_counter : counter -> unit
val reset_gauge : gauge -> unit
val reset_histogram : histogram -> unit
(** Zero the metric in place; registered handles stay valid.  Not
    atomic with respect to concurrent writers — reset only quiesced
    registries (tests, the bench harness between records). *)
