(** Per-node local storage: a two-tier cache of global pages.

    The paper treats node-local storage as "a cache of global data indexed
    by global addresses" with a RAM tier over a disk tier. Reads and writes
    charge simulated latency (call them from a fiber). When RAM fills,
    unpinned pages are victimised to disk; when disk fills, the victim is
    handed to the eviction hook so the consistency protocol can push dirty
    data and update sharer lists before the copy disappears.

    Page images are immutable once installed: every write installs a fresh
    buffer and no frame's bytes are ever changed in place. The store
    therefore shares bytes instead of copying them. {!read_immediate}
    returns the frame's own buffer, {!write_immediate} takes ownership of
    its argument, and {!flush_immediate} and disk promotion let both tiers
    share one buffer. Whoever holds such a buffer, the eviction hook
    included, must treat it as read-only, and a buffer handed to the store
    must not be changed afterwards. {!read} and {!write} still copy, so
    their callers may mutate freely.

    The disk tier has a volatile write cache: a write becomes durable only
    at the next {!sync} barrier. A crash wipes RAM and — under an active
    {!Disk_fault.config} — rolls unsynced disk writes back to their prior
    durable content, possibly leaving torn (checksum-failing) images, which
    the store detects and drops rather than serves. Disk I/O can also hit
    an injected crash point inside its latency window, firing the
    registered crash hook mid-operation. All fault draws come from an rng
    split off the engine's seeded stream, so failures replay from the
    seed. *)

type config = {
  ram_pages : int;   (** RAM frames *)
  disk_pages : int;  (** disk frames *)
}

val config : ?ram_pages:int -> ?disk_pages:int -> unit -> config
(** Defaults: 256 RAM frames, 65536 disk frames. *)

val ram_latency : Ksim.Time.t
(** Simulated cost of one RAM-tier access (2 us). A disk read costs 6 ms
    and a disk write 8 ms. *)

type t

type evict_hook = Kutil.Gaddr.t -> bytes -> dirty:bool -> unit
(** Called (from a fiber) when a page is about to leave the disk tier. *)

val create : Ksim.Engine.t -> config -> t
val set_evict_hook : t -> evict_hook -> unit

val set_node : t -> int -> unit
(** Tag this store with its daemon's node id so the {!Ktrace} tier events
    it emits ([store.promote] / [store.demote] / [store.evict] /
    [store.torn]) identify their node. Events cost nothing while no trace
    sink is installed. *)

val set_faults : t -> Disk_fault.config -> unit
(** Default {!Disk_fault.none}: the disk never lies. *)

val faults : t -> Disk_fault.config

val set_crash_hook : t -> (unit -> unit) -> unit
(** Invoked (from the event queue, never synchronously from inside a store
    operation) when an injected crash point inside a disk I/O fires. The
    owning daemon points this at its own crash entry point. *)

type tier = Ram | Disk

val where : t -> Kutil.Gaddr.t -> tier option
(** Instantaneous lookup (no simulated latency). *)

val read : t -> Kutil.Gaddr.t -> bytes option
(** Fetch a copy of the page, promoting disk hits into RAM. Promotion is
    inclusive: the disk frame is retained (it may be the only durable copy
    of a checkpointed page), with a RAM frame sharing its bytes installed
    in front of it.
    Returns a fresh buffer; mutating it does not affect the store. Torn
    disk images are dropped, not served. [None] also when the store
    crashed while the read slept. *)

val read_into :
  t -> Kutil.Gaddr.t -> off:int -> bytes -> dst_off:int -> len:int -> bool
(** [read_into t addr ~off dst ~dst_off ~len] is {!read} (same latency,
    promotion and crash fencing) that blits [len] bytes of the page from
    [off] into [dst] at [dst_off] instead of returning a copy of the whole
    page. [false] wherever {!read} would return [None]. *)

val write : t -> Kutil.Gaddr.t -> bytes -> dirty:bool -> unit
(** Install or overwrite the page in RAM. [dirty] marks it as needing
    writeback before the local copy may be discarded. A disk-resident
    frame of the same page is kept with its prior durable bytes; the new
    content reaches disk only through {!flush_immediate} or demotion. *)

val write_from :
  t -> Kutil.Gaddr.t -> off:int -> bytes -> src_off:int -> len:int -> bool
(** [write_from t addr ~off src ~src_off ~len] overwrites [len] bytes of
    the page at [off] with [src] from [src_off] and marks it dirty: {!read}
    then [write ~dirty:true] of the patched image, with the same
    latencies, disk promotion and crash fencing, but with one page copy
    instead of two. The patch lands in a fresh image that replaces the
    old one, so a buffer {!read_immediate} returned earlier and a disk
    frame that shares the old bytes both keep them. [false] (and nothing
    written) wherever {!read} would return [None]. *)

val write_image : t -> Kutil.Gaddr.t -> bytes -> bool
(** [write_image t addr image] is {!write_from} for a caller that already
    holds the page's new image, such as a transaction commit whose prepare
    built it: the same latencies, disk promotion, crash fencing and dirty
    bit, but the store takes ownership of [image] without copying it, as
    {!write_immediate} does. *)

val read_immediate : t -> Kutil.Gaddr.t -> bytes option
(** Control-plane read: no simulated latency, no tier promotion. Safe to
    call outside a fiber. Torn disk images are dropped, not served.
    Returns the frame's own bytes, not a copy: the caller must not mutate
    them. Later writes install new images and leave them as they are. *)

val write_immediate : t -> Kutil.Gaddr.t -> bytes -> dirty:bool -> unit
(** Control-plane install: no simulated latency. Evictions it forces still
    invoke the eviction hook synchronously. The store takes ownership of
    the buffer without copying it: the caller must not mutate it
    afterwards. *)

val flush_immediate : t -> Kutil.Gaddr.t -> unit
(** Write the RAM-resident image of [addr] through to the disk tier (the
    two frames share its bytes) and clear the RAM frame's dirty bit (the
    bytes are now backed; leaving it set would write them back a second
    time on demotion). The write is unsynced until the next {!sync}.
    Control-plane: no simulated latency. No-op when the page is not
    RAM-resident. *)

val sync : t -> unit
(** Durability barrier: every disk write so far survives any later crash.
    Control-plane (the simulated cost of reaching a barrier is charged by
    callers where it matters). *)

val mark_clean : t -> Kutil.Gaddr.t -> unit
val is_dirty : t -> Kutil.Gaddr.t -> bool

val pin : t -> Kutil.Gaddr.t -> unit
(** Pinned pages (under an active lock context) are never victimised.
    Pins nest. No-op on non-resident pages — a page can be invalidated or
    crash away under an active lock context, and pin/unpin stay
    symmetric. *)

val unpin : t -> Kutil.Gaddr.t -> unit

val pinned_pages : t -> int
(** Resident pages with at least one pin — 0 whenever no lock context is
    live (tests use this to prove failed multi-page locks leak no pins). *)

val drop : t -> Kutil.Gaddr.t -> unit
(** Remove the local copy without writeback (after invalidation). *)

val crash : t -> unit
(** Lose the RAM tier (including dirty pages!) and all pins; apply the
    fault model to unsynced disk writes (roll back to prior durable
    content, possibly tearing the image at the crash frontier) and to
    demotions caught mid-write. Fibers asleep inside store operations
    observe the crash and abandon their work. *)

val scrub : t -> int
(** Recovery pass: drop every disk frame whose checksum fails (torn
    images), returning how many were dropped. Run before replaying the
    WAL so replayed images repair the holes. *)

val pages : t -> Kutil.Gaddr.t list
(** All locally cached page addresses. *)

val ram_used : t -> int
val disk_used : t -> int

type stats = {
  ram_hits : int;
  disk_hits : int;
  misses : int;
  ram_evictions : int;
  disk_evictions : int;
  writebacks : int;     (** dirty pages handed to the evict hook *)
  syncs : int;          (** {!sync} barriers that had writes to harden *)
  lost_writes : int;    (** unsynced writes rolled back by a crash *)
  torn_writes : int;    (** partial images left on disk by a crash *)
  torn_detected : int;  (** torn images caught by checksum and dropped *)
}

val stats : t -> stats
val reset_stats : t -> unit
