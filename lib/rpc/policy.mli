(** Retry policy for remote calls.

    One record replaces the old [?timeout]/[?backoff]/[?attempts] optional
    trio of {!Rpc.Make.call}: what a caller actually chooses is a single
    coherent policy — how long to wait per attempt, how many attempts, and
    how the wait grows between them — and passing the pieces separately
    invited incoherent combinations (a backoff with one attempt, a timeout
    silently ignored because a backoff was also given). *)

type backoff = {
  cap : Ksim.Time.t;
      (** ceiling for the raw (pre-jitter) per-attempt timeout *)
  rng : Kutil.Rng.t option;
      (** jitter stream; [None] gives the deterministic exponential
          schedule, [Some rng] equal-jitters each timeout into [[d/2, d]]
          (see {!Kutil.Backoff}) so synchronised retriers decorrelate *)
}

type t = {
  timeout : Ksim.Time.t;  (** first-attempt timeout, and the backoff base *)
  attempts : int;         (** total send attempts; must be positive *)
  backoff : backoff option;
      (** [None]: every attempt waits exactly [timeout] *)
}

val default : t
(** One attempt, 1 s timeout, no backoff — the old [call] defaults. *)

val idempotent : t
(** Aggressive-retry preset for messages the receiver treats as
    idempotent — 2PC prepare/decision traffic above all: 300 ms base,
    eight attempts, exponential growth capped at 2 s. Safe only when a
    duplicate delivery is a no-op at the receiver (a participant that has
    already decided a transaction must ack a re-sent decision without
    re-applying it); deterministic (no jitter) so simulated fault
    schedules replay exactly. *)

val with_timeout : ?attempts:int -> Ksim.Time.t -> t
(** Fixed per-attempt timeout, default one attempt. *)

val jittered :
  rng:Kutil.Rng.t -> ?attempts:int -> base:Ksim.Time.t -> cap:Ksim.Time.t ->
  unit -> t
(** Exponential-with-jitter policy drawing from the caller's [rng] — the
    shared retry shape for daemon control-plane traffic. *)

val timeout_source : t -> unit -> Ksim.Time.t
(** A fresh per-call source of successive attempt timeouts (transport
    implementations call this once per [call], then once per attempt). *)
