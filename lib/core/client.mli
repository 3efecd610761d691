(** Client library.

    "Typically an application process (client) interacts with Khazana
    through library routines" — this module is those routines: a thin,
    principal-carrying veneer over the local daemon, plus convenience
    helpers for whole-region access. All operations are fiber-blocking.

    Every operation takes an optional {!Ktrace.Op_ctx.t}. Omitted, the
    client mints a fresh context — and, when a trace sink is installed, a
    root span named after the operation ([client.lock],
    [client.write_bytes], ...) under which every daemon step, remote hop
    and CM transition of that operation nests. Pass an explicit [ctx] to
    group several calls under one caller-owned span, or to attach a
    deadline. With no sink installed the context machinery costs nothing. *)

type t

val connect : Daemon.t -> principal:int -> t
(** An application handle bound to its node-local daemon; every operation
    it issues runs as [principal] for access control. *)

val daemon : t -> Daemon.t
(** The daemon this client talks to. *)

val principal : t -> int
(** The principal operations run as. *)

val set_history : t -> Kcheck.History.recorder option -> unit
(** Install (or remove) a consistency-checking history recorder. While
    set, every {!read_bytes}, {!write_bytes} and {!txn} emits
    invoke/return entries — timeouts and unreachable peers recorded as
    ambiguous ("maybe applied") — and transactional reads/writes emit
    per-address sub-entries, for {!Kcheck.Check.analyze} after the run.
    Costs nothing when unset. *)

(** {1 The paper's operations} *)

val reserve :
  t -> ?attr:Attr.t -> ?ctx:Ktrace.Op_ctx.t -> int ->
  (Region.t, Daemon.error) result
(** [reserve t len] — the length is the final positional argument. *)

val unreserve : t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> unit
(** Give a reserved region's address space back. Release-class: returns
    immediately and retries in the background until it lands. *)

val allocate : t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> (unit, Daemon.error) result
(** Attach backing storage to a reserved region (by its base address). *)

val free : t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> unit
(** Release a region's backing storage. Release-class, like {!unreserve}. *)

val lock :
  t -> ?ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t -> len:int ->
  Kconsistency.Types.mode -> (Daemon.lock_ctx, Daemon.error) result
(** Acquire the byte range in [Read] or [Write] mode; pages are acquired
    in pipelined waves and the grant is all-or-nothing (see
    {!Daemon.lock}). The returned context gates {!read}/{!write}. *)

val unlock : t -> Daemon.lock_ctx -> unit
(** Release every page of the context. Release-class: returns
    immediately; update propagation retries in the background. *)

val read :
  t -> Daemon.lock_ctx -> addr:Kutil.Gaddr.t -> len:int ->
  (bytes, Daemon.error) result
(** Copy bytes out of the locked range (any lock mode suffices). *)

val write :
  t -> Daemon.lock_ctx -> addr:Kutil.Gaddr.t -> bytes ->
  (unit, Daemon.error) result
(** Copy bytes into the locked range (requires a [Write] context). *)

val get_attr : t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> (Attr.t, Daemon.error) result
(** Attributes of the region containing the address. *)

val set_attr : t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> Attr.t -> (unit, Daemon.error) result
(** Replace the attributes of the region based at the address (owner
    only; propagates to cached descriptors lazily). *)

(** {1 Convenience} *)

val create_region :
  t -> ?attr:Attr.t -> ?ctx:Ktrace.Op_ctx.t -> int ->
  (Region.t, Daemon.error) result
(** reserve + allocate; the length is the final positional argument. *)

(** {1 Atomic transactions}

    Multi-region all-or-nothing updates via the daemon's two-phase commit
    (see {!Daemon.txn_commit}). The error row is open so callers layering
    their own error constructors (kfs) can fail out of the body without
    wrapping. *)

val txn :
  t -> ?ctx:Ktrace.Op_ctx.t ->
  (Daemon.txn -> ('a, ([> Daemon.error ] as 'e)) result) ->
  ('a, 'e) result
(** [txn t f] begins a transaction, runs [f], and commits if [f] returns
    [Ok] — the commit is atomic across every region touched, whatever
    their homes. [Error] from [f] (or an exception) aborts: no write in
    the body is ever visible. [Ok] from [txn] means the commit decision
    is durably logged. *)

val txn_read :
  t -> Daemon.txn -> addr:Kutil.Gaddr.t -> len:int ->
  (bytes, [> Daemon.error ]) result
(** Transactional read. Ranges in regions under strict protocols are
    locked in shared [Read] mode (upgraded with re-validation if later
    written; held to commit). Ranges in [versioned] regions the
    transaction has not written are served lock-free from the
    transaction's MVCC snapshot, so read-only transactions never
    serialize against writers there. Either way the read observes the
    transaction's own buffered writes. *)

val txn_write :
  t -> Daemon.txn -> addr:Kutil.Gaddr.t -> bytes ->
  (unit, [> Daemon.error ]) result
(** Buffer a write; visible nowhere until the transaction commits. *)

val read_bytes :
  t -> ?ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t -> int ->
  (bytes, Daemon.error) result
(** [read_bytes t ~addr len]: lock(read) + read + unlock. *)

val write_bytes :
  t -> ?ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t -> bytes ->
  (unit, Daemon.error) result
(** lock(write) + write + unlock. *)

(** {1 MVCC snapshots (versioned regions)}

    Consistent lock-free reads over regions under the [versioned]
    consistency manager (see {!Daemon.snapshot_begin}): the first read of
    each page pins it at the latest settled version, later reads through
    the same snapshot serve exactly the pinned versions, and writers are
    never blocked or invalidated by readers. Long-lived snapshots can
    expire — [`Unavailable] once a pinned version falls off the home's
    bounded chain — in which case release and begin afresh. *)

val snapshot : t -> (int, Daemon.error) result
(** Open a snapshot on the local daemon ("latest settled" per page, pinned
    lazily at first touch). *)

val snapshot_read :
  t -> ?ctx:Ktrace.Op_ctx.t -> snap:int -> addr:Kutil.Gaddr.t -> int ->
  (bytes, Daemon.error) result
(** [snapshot_read t ~snap ~addr len]: read at the snapshot's pinned
    versions — no locks, no invalidations, never blocks a writer. *)

val release_snapshot : t -> int -> unit
(** Drop the snapshot's pins. Release-class; unknown ids are no-ops. *)

val page_version :
  t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t ->
  (Kconsistency.Types.version, Daemon.error) result
(** Current home version of the versioned-region page containing the
    address — the token to pass to {!write_cas}. *)

val write_cas :
  t -> ?ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t ->
  expected:Kconsistency.Types.version -> bytes ->
  (unit, Daemon.error) result
(** Optimistic versioned write: publishes only if the page is still at
    version [expected]; [`Conflict] if another writer got there first.
    See {!Daemon.write_cas}. *)
