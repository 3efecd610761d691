(** Vocabulary shared by all consistency-manager (CM) machines.

    A machine is the per-page, per-node protocol endpoint. It is pure with
    respect to I/O: the daemon feeds it {!event}s and interprets the
    {!action}s it emits (sending messages, granting client lock requests,
    installing page data, arming timers). This mirrors the paper's
    Brun-Cottan-style factoring: generic consistency management in the
    machine, application conflict detection above, transport below. *)

type node_id = int
(** Daemon identity; dense small ints in both backends. *)

type req_id = int
(** Correlates a client lock intent with its eventual grant/reject. *)

type version = int
(** Page version. Most protocols treat it as a freshness counter; the
    versioned CM mints them as immutable-snapshot identities. *)

type timer_id = int
(** Correlates a {!Start_timer} action with the later {!Timeout} event. *)

type mode = Read | Write
(** Lock mode of a client intent. *)

val mode_to_string : mode -> string

type fence = int
(** A manager-side transaction sequence number. Grants and invalidations
    carry the fence of the transaction that produced them; caches track the
    highest fence that has invalidated or dispossessed them and refuse any
    grant below it. This is what keeps duplicated/reordered grants from
    resurrecting copies that a later transaction already revoked — without
    it, CREW is only safe on reliable FIFO channels. An [Evict_notify]
    carries the fence of the grant (or fetch) it answers, so a home ignores
    a notice older than its latest grant to that node. Both home-serialised
    protocols, CREW and release, fence every grant; the optimistic ones
    (eventual, write-shared, versioned) pass 0. *)

(** Wire messages exchanged between CM peers for one page. The same message
    alphabet serves all protocols; each protocol uses a subset. *)
type msg =
  | Read_req                                   (** requester -> home *)
  | Write_req                                  (** requester -> home *)
  | Fetch of { dest : node_id; fence : fence }
      (** home -> copy holder: serve a read copy to [dest] *)
  | Fetch_own of { dest : node_id; fence : fence }
      (** home -> owner: hand ownership to [dest] *)
  | Read_grant of { data : bytes; version : version; fence : fence }
      (** holder -> requester *)
  | Own_grant of { data : bytes; version : version; fence : fence }
      (** owner -> requester *)
  | Upgrade_grant of { fence : fence }
      (** home -> owner-requester: upgrade in place, no data travels *)
  | Invalidate of { fence : fence }            (** home -> sharer *)
  | Invalidate_ack of { fence : fence }
      (** sharer -> home: the round it answers, as {!ack_matches} reads it *)
  | Done of { mode : mode; fence : fence }
      (** requester -> home: the grant it took, as {!ack_matches} reads it *)
  | Nack                                       (** home -> requester *)
  | Evict_notify of { fence : fence }
      (** sharer -> home: "I hold no copy as of [fence]" *)
  | Own_return of { data : bytes; version : version }
      (** owner -> home: ownership comes back with the bytes *)
  | Update of { data : bytes; version : version }
      (** writer/home -> replicas: whole-image propagation *)
  | Update_ack of { version : version }
      (** replica -> home: the version it holds, as {!ack_matches} reads it *)
  | Pull_req                                   (** replica -> home (anti-entropy) *)
  | Diff of { patches : (int * bytes) list; version : version }
      (** write-shared: byte ranges changed during one lock interval,
          merged at the home and fanned out (Brun-Cottan-style
          application-specific conflict granularity) *)
  | Fence_bump of { floor : fence }
      (** cache -> home: "your fences are below my floor". Sent instead of
          serving or acking when a message arrives fenced below the cache's
          floor. A manager that crashed and rebuilt restarts its fence
          counter at zero, so every survivor of the old epoch would silently
          refuse it forever; this reply teaches the reborn manager the old
          epoch so it can resume above it. *)

val ack_matches : sent:int -> int -> bool
(** [ack_matches ~sent n]: does an ack carrying [n] answer a grant or round
    stamped [sent]? Acks keep their size on the wire, so only the low six
    bits of their fence or version travel, in a byte they already had; they
    tell a transaction from the sixty-three before it, which is what a late
    duplicate ack needs. *)

val msg_kind : msg -> string
(** Stable dotted label for traces and metrics, e.g. ["cm.read_grant"]. *)

val encode_mode : Kutil.Codec.encoder -> mode -> unit
val decode_mode : Kutil.Codec.decoder -> mode

val encode_msg : Kutil.Codec.encoder -> msg -> unit
(** Byte codec for {!msg}, used when CM traffic crosses a real transport.
    Tags are wire format: renumbering breaks cross-version interop. *)

val decode_msg : Kutil.Codec.decoder -> msg
(** Inverse of {!encode_msg}.
    @raise Kutil.Codec.Decode_error on an unknown tag. *)

(** Payload of an MVCC publish: either a whole page image or a sparse set
    of [(offset, bytes)] runs to apply on top of a parent version. Runs are
    the {!diff} of the written page against the writer's copy of the
    parent; the daemon falls back to [Whole] when they cover too much of
    the page to save bytes. *)
type publish_payload =
  | Whole of bytes
  | Runs of (int * bytes) list

val diff : old:bytes -> new_:bytes -> (int * bytes) list
(** The maximal [(offset, bytes)] runs where [new_] differs from [old], in
    offset order; [[]] when they are equal. Pages of different lengths
    give one run holding all of [new_]. This is the one byte compare of
    page images: write-shared ships it as a [Diff], a versioned publish as
    [Runs]. For pages of equal length, [apply_runs old (diff ~old ~new_)]
    equals [new_]. *)

val apply_runs : bytes -> (int * bytes) list -> bytes
(** A copy of [base] with each [(offset, bytes)] run written over it, in
    order. Runs arrive off the wire: one that does not fit inside the page
    is skipped whole, never clipped, and raises nothing. *)

(** Outcome of publishing a page version at its home (versioned CM only). *)
type publish_result =
  | Published of version
      (** A new immutable version was minted; readers pinned below it are
          unaffected, the fan-out to replicas is queued. *)
  | Cas_mismatch of { latest : version }
      (** The caller passed [expected_version] and lost the race;
          [latest] is the version that beat it. *)
  | Parent_gone of { latest : version }
      (** [Runs] arrived against a parent version the bounded chain has
          already garbage-collected; resend as [Whole]. *)
  | Publish_unsupported
      (** This machine is not a versioned home (wrong protocol, or the
          request landed off-home). *)

val encode_publish_payload : Kutil.Codec.encoder -> publish_payload -> unit
val decode_publish_payload : Kutil.Codec.decoder -> publish_payload
val encode_publish_result : Kutil.Codec.encoder -> publish_result -> unit
val decode_publish_result : Kutil.Codec.decoder -> publish_result

(** What the daemon feeds a machine. *)
type event =
  | Acquire of { req : req_id; mode : mode }
      (** A client lock intent arrived at this node. *)
  | Release of { mode : mode; data : bytes option }
      (** The client dropped its lock; [data] carries the page content when
          the release may need to propagate writes. *)
  | Peer of { src : node_id; msg : msg }
      (** A CM message from node [src]. Machines cache the bytes of pages
          they hold, so no local-store snapshot travels with the event. *)
  | Evicted of { data : bytes; dirty : bool }
      (** Local storage victimised our copy. *)
  | Abort of { req : req_id }
      (** The daemon gave up on a queued lock intent (client timeout); the
          machine must forget it and allow later intents to re-request. *)
  | Timeout of timer_id
      (** A timer armed by a previous {!Start_timer} fired. *)
  | Maintain of { avoid : node_id list }
      (** Repair tick from the home daemon's anti-entropy fiber: top the
          replica set back up to [min_replicas] if it fell below, treating
          the [avoid] nodes (currently suspected dead/partitioned) as
          neither holders nor candidates. No-op off-home and while a
          transaction is already reshaping the copyset. *)
  | Unreachable of { node : node_id }
      (** The daemon just tried to send this machine's traffic to [node]
          while the failure detector suspects it — the moral equivalent of a
          connection refused. Machines use it to stop waiting on [node]
          (fail over in-flight work, count its invalidation round as
          un-ackable) {e without} evicting it from the books: unlike
          {!msg.Evict_notify} it is not evidence the copy is gone — a
          partitioned holder still has valid, stale data that a later
          write must revoke. *)
  | Reincarnate of { version : version; sharers : node_id list }
      (** The home daemon rebuilt this machine after a crash and is feeding
          it what the persistent page directory remembers: the version of
          the data it recovered and the nodes that held copies in the
          previous incarnation, as the last [Sharers_hint] listed them.
          Protocols that track a copyset adopt the sharers
          (over-approximation is safe — invalidation handles non-holders)
          so stale survivor copies get revoked by the next write instead
          of lingering forever; CREW re-adopts a remote owner. No-op
          off-home. *)

val event_kind : event -> string
(** Stable dotted label for traces, e.g. ["acquire.write"]. *)

type reject_reason = Unavailable of string
(** Why a lock intent was refused rather than queued. *)

(** What a machine asks the daemon to do in response to an event. *)
type action =
  | Send of node_id * msg
      (** Put a CM message on the wire (coalescer-eligible). *)
  | Grant of req_id
      (** The client's lock intent is granted; data (if it travelled) was
          installed by a preceding [Install]. *)
  | Reject of req_id * reject_reason
      (** The client's lock intent fails now rather than waiting. *)
  | Install of { data : bytes; dirty : bool }
      (** Store this page content locally. *)
  | Discard  (** Drop the local copy (invalidation). *)
  | Start_timer of { id : timer_id; after : Ksim.Time.t }
      (** Ask for a {!Timeout} event [after] from now. *)
  | Sharers_hint of node_id list
      (** Home's current view of nodes holding copies (CREW lists its owner
          first); the daemon mirrors it into its page directory. *)

(** How a machine comes to life on a node. *)
type init =
  | Start_unknown          (** ordinary node: no copy, no role *)
  | Start_owner of bytes   (** the home at allocation time: sole owner *)

(** Static per-page configuration derived from region attributes. *)
type config = {
  self : node_id;
  home : node_id;
  min_replicas : int;
  replica_targets : node_id list;
      (** preferred nodes for extra primary replicas, excluding home *)
  request_timeout : Ksim.Time.t;
      (** home-side per-hop timeout before it retries/fails over *)
  version_chain_depth : int;
      (** versioned CM: how many immutable page versions the home retains
          per page. Older versions fall past the GC watermark: snapshot
          reads pinned below it fail with "snapshot version expired" and
          diffs against them force a whole-image resend. *)
}

val default_config : self:node_id -> home:node_id -> config
(** One replica, 200 ms request timeout, an 8-deep version chain. Regions
    override through their attributes. *)
