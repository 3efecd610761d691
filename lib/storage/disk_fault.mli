(** Disk fault model shared by the page store and the write-ahead log.

    The simulated disk tier has a volatile write cache: writes land in it
    immediately but only become durable at a [sync] barrier. A crash rolls
    the cache back according to this model — each unsynced write may be
    lost, and the write at the crash frontier may additionally be {e torn}
    (a partial page/record image). All draws come from a seeded
    {!Kutil.Rng} stream, so every failure is replayable from the seed. *)

type config = {
  lost_write_prob : float;
      (** chance that an unsynced write (and, for a sequential log,
          everything after it) rolls back on crash *)
  torn_write_prob : float;
      (** chance that the write at the crash frontier leaves a partial
          image instead of disappearing cleanly; detectable by checksum *)
  crash_during_io_prob : float;
      (** chance that a disk I/O invokes the registered crash hook
          mid-flight (inside the disk-latency sleep) *)
}

val none : config
(** All probabilities zero: the seed-state "disk is perfect" model. *)

val active : config -> bool
(** At least one probability is non-zero. *)

val checksum : bytes -> int
(** FNV-1a-style fold over the buffer's 64-bit little-endian words and
    then its trailing bytes: every bit of every byte enters the sum, and
    two equal-length buffers differing in a single bit always sum
    differently. Every disk frame and log record carries the checksum of
    its content in memory (no file format stores one); a torn image fails
    verification, which is how recovery discards it instead of serving
    garbage. *)

val checksum_more : int -> bytes -> int
(** [checksum_more (checksum a) b] continues the fold over [b]: the sum of
    a record kept in two pieces. It keeps the single-bit property for
    equal-length pieces, but it is not [checksum] of [a] and [b]
    concatenated. [checksum_more h Bytes.empty = h]. *)

val tear : Kutil.Rng.t -> intended:bytes -> prior:bytes option -> bytes
(** A torn image of a write that was cut off partway: a prefix of the
    intended bytes over a suffix of the prior durable content (zeros when
    the sector was never written). The cut point comes from [rng]. *)
