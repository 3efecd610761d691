(** Named per-component metrics built on {!Kutil.Stats}.

    A registry of counters and latency summaries keyed by name; each
    daemon owns one. A summary is a fixed-size {!Kutil.Stats.Histogram},
    so a long-running node's registry does not grow with its traffic.
    Unlike trace sinks these are always on — a counter bump is one int
    store — so they complement spans: metrics answer "how often / how slow
    on average", traces answer "where exactly". *)

type t

val create : unit -> t

val counter : t -> string -> Kutil.Stats.counter
(** Find-or-create. *)

val summary : t -> string -> Kutil.Stats.Histogram.t
(** Find-or-create. *)

val incr : t -> ?by:int -> string -> unit
val observe : t -> string -> float -> unit

val counters : t -> (string * int) list
(** Name-sorted snapshot. *)

val summaries : t -> (string * Kutil.Stats.Histogram.t) list
(** Name-sorted; summaries with zero samples are included. *)

val reset : t -> unit

val pp : Format.formatter -> t -> unit
(** Multi-line dump: counters, then summaries (ms units assumed). *)
