(** Metric collection: counters, latency summaries and histograms.

    Benchmarks report simulated-time latencies; a {!summary} accumulates raw
    samples and answers exact mean/percentile queries. Always-on metrics
    use a {!Histogram} instead, whose size is fixed. *)

type counter

val counter : unit -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int
val reset_counter : counter -> unit

type summary

val summary : unit -> summary
val add : summary -> float -> unit
val samples : summary -> int
val mean : summary -> float
val minimum : summary -> float
val maximum : summary -> float
val total : summary -> float

val percentile : summary -> float -> float
(** [percentile s p] with [p] in [\[0,100\]] by nearest-rank on the sorted
    samples; 0.0 when empty. *)

val stddev : summary -> float

val pp_summary : unit:string -> Format.formatter -> summary -> unit
(** One-line [n/mean/p50/p99/max] rendering. *)

(** A fixed-size log-bucketed histogram for always-on latency metrics: its
    size never grows with the number of observations. Count, sum, mean,
    minimum and maximum are exact; percentiles are read from buckets a
    quarter of a power of two wide (values from 2^-10 to 2^14 resolve, zero
    and smaller values share one bucket, larger ones the last), so they are
    within 10% of the exact nearest-rank sample. [add] allocates nothing. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val minimum : t -> float
  val maximum : t -> float

  val percentile : t -> float -> float
  (** [percentile h p], [p] in [\[0,100\]]; 0.0 when empty. *)

  val pp : unit:string -> Format.formatter -> t -> unit
  (** One-line [n/mean/p50/p99/p999/max] rendering. *)
end

type table
(** Aligned console tables for experiment output. *)

val table : columns:string list -> table
val row : table -> string list -> unit
val render : table -> string
