(** A Khazana daemon: the per-node peer process.

    "The Khazana service is implemented by a dynamically changing set of
    cooperating daemon processes ... there is no notion of a server in a
    Khazana system — all Khazana nodes are peers." A daemon owns this node's
    local storage, region directory, page directory and consistency-manager
    machines, serves remote peers over the wire protocol, and exports the
    client operations (reserve / allocate / lock / read / write / attributes
    and their release counterparts).

    All client-facing operations are fiber-blocking: call them from
    {!Ksim.Fiber.spawn}ed code. *)

type t

type config = {
  rdir_capacity : int;          (** region directory entries (default 128) *)
  ram_pages : int;              (** RAM frames (default 256) *)
  disk_pages : int;             (** disk frames (default 65536) *)
  lock_timeout : Ksim.Time.t;   (** per lock attempt (default 2 s) *)
  lock_retries : int;           (** attempts before reflecting failure (3) *)
  request_timeout : Ksim.Time.t;(** CM-internal per-hop timeout (200 ms) *)
  report_every : Ksim.Time.t;   (** cluster-hint refresh period (500 ms);
                                    the report doubles as the heartbeat *)
  wal_checkpoint_every : int;
      (** intent-log records before the repair loop takes a truncating
          checkpoint (default 512) *)
  acquire_window : int;
      (** pages acquired concurrently per wave of a multi-page {!lock}
          (default 16; clamped to ≥ 1, where 1 is fully sequential) *)
  txn_resolve_after : Ksim.Time.t;
      (** how long a participant holds a prepared-but-undecided transaction
          before asking the coordinator for the verdict (default 3 s) *)
  version_chain_depth : int;
      (** versioned CM: immutable versions retained per page at the home
          (default 8); snapshot pins below the retained window expire *)
  diff_density_max : float;
      (** versioned CM: publish the runs of bytes that differ from the
          writer's copy only while they cover at most this fraction of
          the page (default 0.5); denser changes fall back to shipping
          the whole image *)
}

val default_config : config
(** The defaults quoted per field above. *)

type error = Error.t
(** Unified operation error type; see {!Error} for the constructors and the
    string round-trip. RPC-level failures surface as [`Rpc _]. *)

val error_to_string : error -> string
(** Alias of {!Error.to_string}; total over every constructor. *)

(** {1 Lifecycle} *)

val create :
  ?config:config ->
  ?peer_managers:Knet.Topology.node_id list ->
  ?wal_file:string ->
  id:Knet.Topology.node_id ->
  bootstrap:Knet.Topology.node_id ->
  cluster_manager:Knet.Topology.node_id ->
  Wire.Transport.t ->
  t
(** Wire the daemon into the transport (installs its server handler) and
    start its periodic reporting fiber. [bootstrap] is the well-known home
    of the address map; [cluster_manager] is this node's manager (possibly
    itself, in which case the manager role is activated). Call
    {!bootstrap_map} once on the bootstrap node before any operation.

    [wal_file] backs the intent log with a real file
    ({!Kstorage.Wal.attach_file}): an existing log is replayed — committed
    state reinstalled, in-doubt prepares re-registered for resolution —
    before the daemon takes its first request, so a killed process
    restarted on the same file resumes where durability left it.
    Checkpoint snapshots then also carry homed committed page images,
    because a real process's disk tier dies with it. *)

val shutdown : t -> unit
(** Graceful exit for a real process (SIGTERM): flush dirty homed pages,
    write a truncating WAL checkpoint, stop serving. With [wal_file] the
    next incarnation replays to exactly this state. *)

val bootstrap_map : t -> unit
(** Initialise the address map root page. Must run on the bootstrap node. *)

val id : t -> Knet.Topology.node_id
(** This daemon's node id. *)

val engine : t -> Ksim.Engine.t
(** The simulation engine the daemon runs on. *)

val is_up : t -> bool
(** [false] while crashed or still replaying recovery. *)

val crash : t -> unit
(** Lose all in-memory state: RAM tier, CM machines, in-flight operations,
    the homed-region table, the page directory and the descriptor cache.
    The disk tier survives minus whatever the fault model takes (unsynced
    writes roll back, the crash frontier may tear); the intent log survives
    to its last sync. The node also leaves the network. *)

val recover : t -> unit
(** Rejoin the network and start the recovery phase: the daemon stays
    {!is_up}[ = false] while a fiber charges the simulated replay cost,
    scrubs torn disk images, and reconstructs metadata and committed page
    images from the WAL (checkpoint snapshot + committed log suffix). Only
    then does it serve again; the repair loop takes over to eagerly rebuild
    home machines and restore replica floors. *)

val set_disk_faults : t -> Kstorage.Disk_fault.config -> unit
(** Install the disk fault model on this node's page store and intent log
    (default {!Kstorage.Disk_fault.none}). *)

val wal : t -> Kstorage.Wal.t
(** This node's write-ahead intent log (introspection: size, stats). *)

(** {1 Failure detection}

    Each daemon keeps a suspicion list: cluster managers age member
    heartbeats (the periodic reports) into it and disseminate it; every
    node also suspects peers after consecutive RPC timeouts. Any direct
    traffic from a suspected node clears it. Crashed and partitioned
    nodes are indistinguishable here — both just go silent. *)

val suspects : t -> Knet.Topology.node_id list
(** Nodes this daemon currently believes are dead or unreachable, sorted. *)

val is_suspect : t -> Knet.Topology.node_id -> bool
(** Is the node on this daemon's suspicion list right now? *)

(** {1 Client operations (the paper's API, §2)} *)

type lock_ctx
(** Returned by {!lock}; required by {!read} and {!write}. *)

val reserve :
  t -> ?attr:Attr.t -> ctx:Ktrace.Op_ctx.t -> int -> (Region.t, error) result
(** [reserve t ~ctx len] reserves a contiguous range of global address
    space as a new region homed at this node. [len] (the final positional
    argument) is rounded up to a page multiple. The default [attr] owner is
    the context principal. *)

val unreserve : t -> ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> unit
(** Release-class: returns immediately; remote legs retry in the
    background until they succeed (paper §3.5). *)

val allocate : t -> ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> (unit, error) result
(** Allocate backing storage for a reserved region (by base address). *)

val free : t -> ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> unit
(** Release-class counterpart of {!allocate}. *)

val lock :
  t -> ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t -> len:int ->
  Kconsistency.Types.mode -> (lock_ctx, error) result
(** Lock [addr, addr+len) in the given mode. The principal is taken from
    [ctx]; a context deadline caps the per-page acquisition timeout. The
    consistency protocol of the enclosing region decides what the intent
    costs. Pages are acquired in pipelined waves of
    [config.acquire_window] concurrent requests sharing one backoff and
    deadline, so a large range costs O(pages / window) round-trip waves;
    failure anywhere rolls back every page this call acquired
    (all-or-nothing, no pins or grants leak). *)

val unlock : t -> lock_ctx -> unit
(** Release-class: never fails toward the client. Dirty pages written under
    this context propagate according to the region's protocol. *)

val read :
  t -> lock_ctx -> addr:Kutil.Gaddr.t -> len:int -> (bytes, error) result
(** Copy out part of the locked range (charges local-storage latency). *)

val write :
  t -> lock_ctx -> addr:Kutil.Gaddr.t -> bytes -> (unit, error) result
(** Update part of the locked range; requires a write-mode context. *)

val write_sync :
  t -> ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t -> bytes -> (unit, error)
  result
(** Whole plain write — lock, write, unlock — plus, for strict (CREW)
    regions homed elsewhere, a synchronous write-through of the dirty
    pages to the region home before success is reported. The flush is
    what lets an acknowledged write survive the writer crashing, and
    what keeps the home's backup (the source for read fail-over around a
    crashed owner) as fresh as every acknowledged write. If the home
    cannot be reached the image keeps flushing in the background and the
    call returns the ambiguous [`Timeout]. *)

val write_cas :
  t -> ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t ->
  expected:Kconsistency.Types.version -> bytes -> (unit, error) result
(** Versioned-region optimistic write: publish only if the page's home is
    still at exactly [expected] (obtained from {!page_version} or an
    earlier successful write). [`Conflict] on mismatch — nothing is
    published, and the local cache is repaired to the home's latest, so
    subsequent local reads do not serve the rejected bytes. Every page the
    write spans shares the one expected version; the intended use is a
    record within a single page. [`Unavailable] on regions under any other
    protocol. *)

val page_version :
  t -> ctx:Ktrace.Op_ctx.t -> addr:Kutil.Gaddr.t ->
  (Kconsistency.Types.version, error) result
(** The home's current version of the versioned-region page containing
    [addr] — the token a {!write_cas} caller passes back as [expected]. *)

(** {1 MVCC snapshots (versioned regions)}

    A snapshot is a per-page version pin: the first read of each page pins
    it at the latest settled version that read observed, and every later
    read of that page through the same snapshot serves exactly the pinned
    version. Snapshot reads take no locks and trigger no invalidations;
    writers never wait for them. Pins reference the home's bounded version
    chain, so a long-lived snapshot can expire: once the pinned version
    falls off the chain, reads answer [`Unavailable] and the reader should
    begin a fresh snapshot. Snapshots are node-local, in-memory state — a
    crash expires all of them. *)

val snapshot_begin : t -> (int, error) result
(** Open a snapshot; the returned id names it in {!snapshot_read} and
    {!snapshot_release}. Cheap — no pages are touched until read. *)

val snapshot_read :
  t -> ctx:Ktrace.Op_ctx.t -> snap:int -> addr:Kutil.Gaddr.t -> len:int ->
  (bytes, error) result
(** Read [addr, addr+len) at the snapshot's pinned versions (pinning any
    page touched for the first time). Only regions under the [versioned]
    protocol serve snapshot reads. *)

val snapshot_release : t -> int -> unit
(** Forget the snapshot's pins. Release-class; unknown ids are no-ops. *)

val get_attr : t -> ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> (Attr.t, error) result
(** Attributes of the region containing the address. *)

val set_attr :
  t -> ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> Attr.t -> (unit, error) result
(** Update [world] access and [min_replicas] at the region's home. Other
    fields (protocol, page size) are immutable after creation. *)

(** {1 Distributed atomic transactions (2PC over the WAL)}

    A transaction buffers writes under locks taken through the ordinary
    {!lock} path (strict 2PL: every range touched is locked at first
    touch and held to the end — read ranges in shared [Read] mode,
    written ranges in [Write] mode). {!txn_commit} computes the new
    page images, groups them by region home, and runs two-phase commit:
    each participant home forces the images plus a prepare record through
    its WAL, then the coordinator forces the commit decision through its
    own WAL — the commit point — and broadcasts it. Presumed abort: the
    coordinator logs only commits, and a participant left in doubt by a
    crash asks the coordinator, treating "no record" as abort. Stale
    coordinators and participants are fenced by the crash epoch. *)

type txn
(** A client-side transaction handle; single-fiber, not reusable after
    {!txn_commit} or {!txn_abort}. *)

val txn_begin : t -> ctx:Ktrace.Op_ctx.t -> txn

val txn_uid : txn -> int
(** A process-unique identity for the handle (stable across its life;
    used by history recorders to correlate reads and writes). *)

val txn_read :
  t -> txn -> addr:Kutil.Gaddr.t -> len:int -> (bytes, error) result
(** Read within the transaction, observing its own buffered writes
    (read-your-writes). Takes a shared [Read] lock on the range at first
    touch; a later {!txn_write} overlapping it upgrades the lock by
    release-reacquire-validate — if another transaction changed the
    bytes inside the upgrade window, this transaction aborts with
    [`Conflict] instead of losing the update. *)

val txn_write :
  t -> txn -> addr:Kutil.Gaddr.t -> bytes -> (unit, error) result
(** Buffer a write. Nothing is visible to any node — including this one,
    outside the transaction — until commit. *)

val txn_commit : t -> txn -> (unit, error) result
(** Run two-phase commit over the buffered writes. [Ok ()] means the
    decision record is durable at the coordinator: the transaction is
    committed even if delivery to some participant is still in flight
    (the repair loop finishes it). [Error] means no write is, or ever
    will be, visible ([`Conflict] for a vote/timeout abort,
    [`Unavailable] if this node crashed mid-protocol). An empty
    transaction commits trivially. *)

val txn_abort : t -> txn -> unit
(** Drop the buffered writes and release the locks. Nothing was staged,
    so nothing propagates. *)

(** {2 2PC introspection (tests and experiments)} *)

val set_txn_hook : t -> (string -> unit) option -> unit
(** Install a protocol-step hook. The coordinator fires
    [coord.before_prepare], [coord.prepare_ack], [coord.all_acked],
    [coord.decision_logged] and [coord.decide_send] (once per remote
    participant); a participant fires [part.prepare_recv],
    [part.prepared], [part.decide_recv] and [part.decided]. The nemesis
    crashes the node {e inside} the hook to probe every protocol step. *)

val last_txid : t -> Kutil.Txid.t option
(** The most recent transaction id this node coordinated. *)

val txn_prepared_count : t -> int
(** Prepared-but-undecided transactions currently held (in-doubt limbo). *)

val txn_undelivered_decisions : t -> int
(** Commit decisions this coordinator still owes some participant. *)

val checkpoint : t -> unit
(** Write a truncating WAL checkpoint now, as the repair loop does once
    the log outgrows [wal_checkpoint_every]. *)

(** {1 Introspection} *)

val locate_region :
  t -> ?ctx:Ktrace.Op_ctx.t -> Kutil.Gaddr.t -> (Region.t, error) result
(** The §3.2 location path: homed table, region directory, cluster manager,
    address-map tree walk. Exposed for experiments; [ctx] defaults to
    {!Ktrace.Op_ctx.background}. *)

val region_directory : t -> Region_directory.t
(** The per-node descriptor cache (tests and experiments poke at it). *)

val page_directory : t -> Page_directory.t
(** The per-node page directory. *)

val store : t -> Kstorage.Page_store.t
(** The two-tier local page store. *)

val homed_regions : t -> Region.t list
(** Allocated regions whose home is this node. *)

val machine_state : t -> Kutil.Gaddr.t -> string option
(** Protocol state name of the machine for a page, if instantiated. *)

val holds_page : t -> Kutil.Gaddr.t -> bool
(** Does this node currently hold a protocol-valid copy of the page? *)

type lookup_stats = {
  homed_hits : int;
  rdir_hits : int;
  cluster_hits : int;
  map_walks : int;
  map_walk_depth_total : int;
  cluster_walks : int;
      (** resolved by walking peer cluster managers (§3.1's fallback for
          stale or unavailable address-map data) *)
  failures : int;
}

val lookup_stats : t -> lookup_stats
(** How region-location requests resolved, by path (§3.2 order). *)

val reset_lookup_stats : t -> unit
(** Zero every {!lookup_stats} counter. *)

val metrics : t -> Ktrace.Metrics.t
(** This daemon's named counters and summaries (lock grants/rejects/
    timeouts, locate path hits, RPC timeouts, latency summaries). *)

val pool_bytes : t -> int
(** Locally reserved-but-unused address space. *)

val cluster_state : t -> Cluster.t option
(** The manager-role state when this node is a cluster manager. *)
