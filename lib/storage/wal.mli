(** Per-node write-ahead intent log.

    The durability backbone of a daemon's local storage: every durable
    mutation (a committed page image at a region's home, a persistent
    page-directory or region-table change) is appended here {e before} it
    touches the lazily-synced disk tier. Appends go into the log's volatile
    tail; {!sync} (called implicitly by {!commit}) makes the whole prefix
    durable. A crash truncates the log at a fault-model-chosen point in the
    unsynced tail — possibly leaving one torn (checksum-failing) record at
    the frontier — and {!replay} then reconstructs exactly the committed
    prefix: transactional records apply only if their [Commit] made it,
    control records apply in log order, and a torn record ends the readable
    log.

    Multi-record transactions make multi-page operations atomic across
    crashes: either every payload of a committed transaction reappears
    after replay, or none does.

    The log is bounded: once {!needs_checkpoint}, the owner should sync its
    disk tier, snapshot its persistent metadata and call {!checkpoint},
    which truncates the log to a single checkpoint record.

    Replay is a pure read — applying its op list is the caller's job — and
    is idempotent by construction: the ops are plain "set" payloads, so
    applying a replayed prefix twice leaves the same state as once.

    Each record is encoded exactly once, on append, into an exact-size
    image: the bytes its checksum covers and the file framing writes.
    A page image is the exception: installed images are immutable (see
    {!Page_store}), so a page record's image ends at the page's length
    prefix and the record keeps the caller's buffer by reference, which
    the framing writes right after it. {!replay} returns that very buffer
    (a log reloaded from its file reads fresh ones). Every other payload
    lives only in its record's image, and {!replay} decodes fresh copies
    of it. *)

type t

val create : ?checkpoint_every:int -> rng:Kutil.Rng.t -> unit -> t
(** [checkpoint_every] is the number of records appended since the last
    checkpoint before {!needs_checkpoint} turns true (default 512). [rng]
    drives the crash fault model; split it from the owning node's
    deterministic stream. *)

val set_faults : t -> Disk_fault.config -> unit
val faults : t -> Disk_fault.config

(** {1 Real-file backing}

    By default the log lives in process memory and "durability" is an
    accounting fiction the simulated fault model chews on. A log attached
    to a file is actually durable: {!sync} appends the unsynced records
    ([u32 length]-framed body images) and fsyncs, {!checkpoint} rewrites
    the truncated log via a rename so no crash point loses it, and a
    SIGKILL's torn tail is dropped (and truncated away) at the next
    {!attach_file}. Real processes get real crashes, so the simulated
    {!crash} fault model never truncates a file-backed log. *)

val attach_file : t -> string -> unit
(** Arm file persistence on a freshly created (empty) log. If [path]
    exists its records are loaded — ready for {!replay} — and the local
    tx-id counter advances past every loaded id. Raises [Invalid_argument]
    if the log already holds records or is already attached. *)

val file_backed : t -> bool

(** {1 Appending} *)

type tx

val begin_tx : t -> tx
(** Open an intent: appends a begin record (unsynced). *)

val log_page : t -> tx -> Kutil.Gaddr.t -> bytes -> unit
(** Record a page image under the transaction. The log keeps the caller's
    buffer itself, as {!Page_store.write_immediate} does: the caller must
    never mutate it again, and {!replay} returns it as it is. A buffer
    changed after the append fails its record's checksum at replay, which
    then reads it as torn. *)

val log_note : t -> tx -> string -> bytes -> unit
(** Record an opaque, caller-interpreted metadata mutation under the
    transaction. The note is encoded into the record before [log_note]
    returns and the log keeps no reference to the caller's buffer, which
    may be reused or mutated at once. The same holds for {!control} and
    {!checkpoint}. *)

val commit : t -> tx -> unit
(** Append the commit record and {!sync}. After [commit] returns, the
    transaction's payloads survive any crash. Committing a transaction
    begun before a crash of this log is a no-op (the intent died). *)

(** {2 Distributed atomic commit}

    A participant in two-phase commit logs its vote by {e preparing} a
    local transaction under a global {!Kutil.Txid.t} instead of committing
    it. A prepared transaction is in limbo: replay neither applies nor
    drops it until a {!decide} record for the same global id appears later
    in the log (possibly after intervening crashes — prepared-but-
    undecided transactions survive {!checkpoint} truncation). Presumed
    abort: only the commit decision is ever required to be on record;
    a prepared transaction whose coordinator has no decision resolves to
    abort. *)

val prepare : t -> tx -> Kutil.Txid.t -> unit
(** Append the prepare record and {!sync} — the participant's vote is
    durable before it is sent. No-op on a dead (pre-crash) handle. *)

type owed = (int * (Kutil.Gaddr.t * int) list) list
(** Participants still owed a commit decision, each with the [(page,
    version)] write-through its decision message carries. *)

val encode_owed : Kutil.Codec.encoder -> owed -> unit
val decode_owed : Kutil.Codec.decoder -> owed

val decide : t -> ?sync:bool -> Kutil.Txid.t -> commit:bool -> participants:owed -> unit
(** Append the decision for a global transaction. At a coordinator,
    [participants] lists the nodes still owed the decision with their
    write-through versions, so a recovered coordinator resumes the
    broadcast with the same versions; at a participant it is [[]].
    [sync] defaults to [true] and must be [true] for a commit decision a
    caller acts on; abort decisions may ride unsynced — losing one merely
    re-runs presumed-abort resolution. *)

val control : t -> ?sync:bool -> string -> bytes -> unit
(** Non-transactional note, applied at replay in log order. [sync]
    defaults to [true]; pass [false] for hint-grade records whose loss is
    safe, leaving a genuine unsynced tail for the fault model to chew. *)

val sync : t -> unit
(** Durability barrier: the entire log as of now survives any crash. *)

(** {1 Checkpointing} *)

val needs_checkpoint : t -> bool
val size : t -> int
(** Records currently in the log. *)

val records_since_checkpoint : t -> int

val checkpoint : t -> bytes -> unit
(** Truncate the log to a single (synced) checkpoint record carrying the
    caller's snapshot of its persistent state. The caller must first make
    its disk tier durable ({!Page_store.sync}) — a checkpoint asserts
    "everything the truncated records described is on disk". Exception:
    prepared-but-undecided transactions are carried across the truncation
    verbatim — their images are deliberately {e not} in the disk tier yet,
    so the log remains their only durable copy until a decision lands.
    Records are verified against their checksums again only when a
    {!crash} tore one since the last checkpoint. *)

(** {1 Crash and recovery} *)

val crash : t -> unit
(** Apply the fault model to the unsynced tail: pick the surviving prefix,
    possibly tear the record at the frontier. Open transactions die. A
    torn frontier record stays in the log (it is on the platter); since
    {!replay} stops reading at it, the owner must {!checkpoint} after
    applying its recovery replay — otherwise records appended after the
    torn one are unreachable at the next replay. *)

type payload =
  | Page of Kutil.Gaddr.t * bytes
      (** page image to reinstall: the buffer {!log_page} was given, or a
          fresh one read back from the log's file *)
  | Note of string * bytes          (** caller-interpreted metadata *)

type replay = {
  snapshot : bytes option;  (** last surviving checkpoint's snapshot *)
  ops : payload list;       (** application order: control + committed tx
                                payloads + prepared payloads whose commit
                                decision is on record, oldest first *)
  in_doubt : (Kutil.Txid.t * payload list) list;
                            (** prepared transactions with no logged
                                decision, oldest first: held, not applied,
                                until the coordinator answers *)
  decisions : (Kutil.Txid.t * bool * owed) list;
                            (** surviving [Decide] records in log order:
                                (global id, committed, participants still
                                owed the decision) *)
  replayed : int;           (** records contributing to [ops] *)
  discarded : int;          (** torn / uncommitted records dropped *)
}

val replay : t -> replay
(** Pure: reads the surviving log, verifies record checksums, stops at a
    torn record, drops transactions without a commit. Prepared
    transactions resolve through their global id: decided-commit ones
    apply with [ops], decided-abort ones drop, undecided ones surface in
    [in_doubt]. Calling it twice returns the same value. *)

val replay_cost : t -> Ksim.Time.t
(** Simulated time recovery should charge for replaying the current log. *)

type stats = {
  appends : int;
  syncs : int;
  commits : int;
  checkpoints : int;
  torn_tail : int;     (** crashes that left a torn frontier record *)
  lost_records : int;  (** records dropped by crash truncation *)
}

val stats : t -> stats
