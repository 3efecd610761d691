(** Signature every consistency protocol implements.

    "Plugging in new protocols or consistency managers is only a matter of
    registering them with Khazana, provided they export the required
    functionality" — this is that required functionality. Register
    implementations with {!Registry.register}. *)

module type MACHINE = sig
  type t

  val name : string
  (** Protocol identifier stored in region attributes. *)

  val create : Types.config -> Types.init -> t
  (** Bring a per-page machine to life on one node. *)

  val handle : t -> Types.event -> Types.action list
  (** Feed one event, collect the machine's reactions. Deterministic. *)

  (** {1 Introspection (tests, diagnostics, daemon fast paths)} *)

  val state_name : t -> string
  (** Human-readable protocol state, for traces and test assertions. *)

  val has_valid_copy : t -> bool
  (** Would a local read observe protocol-valid data? *)

  val locks_held : t -> int * bool
  (** (readers, writer) currently granted locally. *)

  val version : t -> Types.version
  (** Version of the local copy (0 when none). *)

  val backup_version : t -> Types.version
  (** Home-side: version of the manager's recovery backup (0 when the
      protocol keeps none). The newest write the home can vouch for —
      anything older arriving out of band (a retried flush, a late
      update) is obsolete and must not overwrite durable state. *)

  val holders : t -> Types.node_id list
  (** Home-side view of the nodes believed to hold a copy (including the
      owner and the home itself when it holds data). [[]] off-home —
      only the home tracks the copyset. *)

  val busy : t -> bool
  (** Home-side: is a transaction or replication phase in flight that will
      itself reshape the copyset? Repair backs off while this is true. *)

  (** {1 Multi-version interface (versioned CM; others stub it out)} *)

  val read_at : t -> Types.version option -> (bytes * Types.version) option
  (** [read_at t (Some v)] returns the exact immutable image of version [v]
      if this machine still retains it (home version chain, or a cache whose
      copy happens to sit at [v]); [read_at t None] returns the latest
      version this machine knows. [None] result = not retained here — the
      caller escalates to the home or reports the snapshot expired.
      Protocols without version history always return [None]. *)

  val publish :
    t ->
    src:Types.node_id ->
    parent:Types.version ->
    expected:Types.version option ->
    payload:Types.publish_payload ->
    Types.publish_result * Types.action list
  (** Home-side MVCC write: mint the next immutable version of this page
      from [payload] ([Runs] are applied to the retained image of
      [parent]; [Whole] replaces it). [expected] is the optional CAS row:
      when set and not equal to the current latest version the publish is
      refused with [Cas_mismatch]. [src] is the publishing node; it joins
      the copyset so the fan-out keeps it fresh. Non-versioned protocols
      (and versioned caches, which never mint) return
      [(Publish_unsupported, [])]. *)
end

type packed = Packed : (module MACHINE with type t = 'a) * 'a -> packed
(** A machine instance bundled with its implementation, so the daemon can
    hold machines of different protocols in one table. *)

(** One observed machine step: what came in, what state it moved between,
    what went out. Fed to the span hook of {!handle_packed} so the daemon
    can land CM state transitions in an operation trace without the
    machines themselves knowing about tracing (they stay pure). *)
type transition = {
  t_before : string;  (** state name before the event *)
  t_after : string;   (** state name after *)
  t_event : Types.event;
  t_actions : Types.action list;
}

val handle_packed :
  ?hook:(transition -> unit) -> packed -> Types.event -> Types.action list
(** {!MACHINE.handle} through the existential, with an optional transition
    hook for tracing. *)

val packed_state_name : packed -> string
val packed_has_valid_copy : packed -> bool
val packed_locks_held : packed -> int * bool
val packed_version : packed -> Types.version
val packed_backup_version : packed -> Types.version
val packed_holders : packed -> Types.node_id list
val packed_busy : packed -> bool

val packed_name : packed -> string
(** Protocol name of the packed machine's implementation. *)

val packed_read_at :
  packed -> Types.version option -> (bytes * Types.version) option
(** {!MACHINE.read_at} through the existential. *)

val packed_publish :
  packed ->
  src:Types.node_id ->
  parent:Types.version ->
  expected:Types.version option ->
  payload:Types.publish_payload ->
  Types.publish_result * Types.action list
(** {!MACHINE.publish} through the existential. *)
