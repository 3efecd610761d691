(** Per-operation context threaded through the Khazana stack.

    An [Op_ctx.t] travels with every client-initiated operation from the
    client library through the daemon, the RPC layer and the consistency
    managers. It carries {e who} is acting (the principal), {e where} the
    operation sits in a trace ({!Trace.span}), and {e how long} it may
    keep trying (an optional absolute deadline in simulated time).

    Contexts are immutable; deriving a narrower context ({!with_span})
    allocates a new one unless the span is unchanged. *)

type t

val make : ?span:Trace.span -> ?deadline:Ksim.Time.t -> int -> t
(** [make principal] — [span] defaults to {!Trace.null} (untraced),
    [deadline] to none (operation-level timeouts apply unchanged). *)

val background : t
(** Daemon-internal work with no originating client: principal [-1], no
    span, no deadline (background retries, timers, reporting fibers). *)

val principal : t -> int
val span : t -> Trace.span
val deadline : t -> Ksim.Time.t option

val with_span : t -> Trace.span -> t
(** Same principal and deadline, new enclosing span; the context itself
    when the span is the one it already has (an untraced operation's null
    span). *)

val remaining : t -> now:Ksim.Time.t -> Ksim.Time.t option
(** Time left until the deadline (clamped at 0); [None] when unbounded. *)

val expired : t -> now:Ksim.Time.t -> bool
