(** Metrics registry: counters, gauges and log2-bucketed histograms.

    Counter and histogram cells are sharded by domain id, so concurrent
    increments from the analysis daemon's worker domains land on
    different atomics and never contend on the common path; a snapshot
    merges the shards (addition — associative and commutative, so the
    merged totals are independent of domain scheduling).

    Every recording operation is a no-op while {!Control.is_on} is false.
    Metric {e registration} ([make]) is independent of the switch and
    idempotent: making the same name twice returns the same metric. *)

val num_shards : int
(** Number of per-domain shards (a power of two; domain ids are folded
    onto shards by masking). *)

module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Merged total over all shards (reads are not atomic across shards;
      exact once concurrent writers are quiescent). *)
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> int -> unit

  val set_max : t -> int -> unit
  (** Raise the gauge to [v] if [v] is larger (CAS loop). *)

  val value : t -> int
end

module Histogram : sig
  type t

  val make : string -> t

  val observe : t -> int -> unit
  (** Record one sample.  Samples [v <= 1] land in bucket 0; otherwise
      the bucket index is [floor (log2 v)], i.e. bucket [i >= 1] covers
      [2^i <= v < 2^(i+1)]. *)

  val record : t -> int -> unit
  (** Like [observe] but independent of the {!Control} switch — for
      always-on operational metrics (the daemon's request-latency
      histogram must populate [ddlock top] without requiring the
      whole tracing subsystem to be enabled). *)

  val bucket_of : int -> int
  (** The bucket index a sample lands in (exposed for tests). *)

  val bucket_lower : int -> int
  (** Inclusive lower bound of bucket [i] ([1] for bucket 0). *)

  val max_bucket : int
  (** Largest bucket index; samples beyond [2^max_bucket] are clamped. *)
end

(** {1 Snapshots} *)

type hist = {
  count : int;
  sum : int;
  buckets : (int * int) list;  (** (bucket index, count), non-empty buckets only, ascending *)
}

type value = Counter of int | Gauge of int | Hist of hist

val snapshot : unit -> (string * value) list
(** All registered metrics with merged values, sorted by name — the
    deterministic order makes snapshots directly comparable. *)

val counter_value : string -> int
(** Merged value of a registered counter, [0] when absent. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val quantile : hist -> float -> float
(** [quantile h q] estimates the [q]-th quantile ([0.0 <= q <= 1.0]) of
    the samples in [h], interpolating linearly inside the log2 bucket
    the rank falls in — so the estimate is within a factor of 2 of the
    true sample.  [0.0] when the histogram is empty. *)

val delta : before:(string * value) list -> after:(string * value) list ->
  (string * value) list
(** Interval view between two {!snapshot}s: counters and histograms
    become [after - before] (clamped at zero, so a [reset] between the
    snapshots yields zeros rather than negatives); gauges — which are
    instantaneous, not cumulative — keep the [after] value.  Metrics
    registered only after the first snapshot are passed through.  The
    basis of [ddlock top]'s per-interval rates. *)

val render_prometheus : (string * value) list -> string
(** Prometheus text-exposition rendering of a snapshot: metric names
    sanitized to [[a-zA-Z0-9_:]], one [# TYPE] line per metric,
    histograms as cumulative [_bucket{le="..."}] lines over the
    non-empty log2 buckets (ending with [+Inf]) plus [_sum] and
    [_count]. *)

val pp_summary : Format.formatter -> (string * value) list -> unit
(** Plain-text rendering of a snapshot (skips zero-valued metrics). *)
