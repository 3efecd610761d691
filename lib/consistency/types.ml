(** Vocabulary shared by all consistency-manager (CM) machines.

    A machine is the per-page, per-node protocol endpoint. It is pure with
    respect to I/O: the daemon feeds it {!event}s and interprets the
    {!action}s it emits (sending messages, granting client lock requests,
    installing page data, arming timers). This mirrors the paper's
    Brun-Cottan-style factoring: generic consistency management in the
    machine, application conflict detection above, transport below. *)

type node_id = int
type req_id = int
type version = int
type timer_id = int

type mode = Read | Write

let mode_to_string = function Read -> "read" | Write -> "write"

(** Wire messages exchanged between CM peers for one page. The same message
    alphabet serves all protocols; each protocol uses a subset. *)
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

type msg =
  | Read_req                                   (* requester -> home *)
  | Write_req                                  (* requester -> home *)
  | Fetch of { dest : node_id; fence : fence } (* home -> copy holder *)
  | Fetch_own of { dest : node_id; fence : fence } (* home -> owner *)
  | Read_grant of { data : bytes; version : version; fence : fence }
      (* holder -> requester *)
  | Own_grant of { data : bytes; version : version; fence : fence }
      (* owner -> requester *)
  | Upgrade_grant of { fence : fence }         (* home -> owner-requester *)
  | Invalidate of { fence : fence }            (* home -> sharer *)
  | Invalidate_ack of { fence : fence }       (* sharer -> home *)
  | Done of { mode : mode; fence : fence }    (* requester -> home *)
  | Nack                                       (* home -> requester *)
  | Evict_notify of { fence : fence }         (* sharer -> home *)
  | Own_return of { data : bytes; version : version } (* owner -> home *)
  | Update of { data : bytes; version : version }     (* writer/home -> replicas *)
  | Update_ack of { version : version }       (* replica -> home *)
  | Pull_req                                   (* replica -> home (anti-entropy) *)
  | Diff of { patches : (int * bytes) list; version : version }
      (* write-shared: byte ranges changed during one lock interval,
         merged at the home and fanned out (Brun-Cottan-style
         application-specific conflict granularity) *)
  | Fence_bump of { floor : fence }
      (* cache -> home: "your fences are below my floor". Sent instead of
         serving or acking when a message arrives fenced below the cache's
         floor. A manager that crashed and rebuilt restarts its fence
         counter at zero, so every survivor of the old epoch would silently
         refuse it forever; this reply teaches the reborn manager the old
         epoch so it can resume above it. *)

let msg_kind = function
  | Read_req -> "cm.read_req"
  | Write_req -> "cm.write_req"
  | Fetch _ -> "cm.fetch"
  | Fetch_own _ -> "cm.fetch_own"
  | Read_grant _ -> "cm.read_grant"
  | Own_grant _ -> "cm.own_grant"
  | Upgrade_grant _ -> "cm.upgrade_grant"
  | Invalidate _ -> "cm.invalidate"
  | Invalidate_ack _ -> "cm.invalidate_ack"
  | Done _ -> "cm.done"
  | Nack -> "cm.nack"
  | Evict_notify _ -> "cm.evict_notify"
  | Own_return _ -> "cm.own_return"
  | Update _ -> "cm.update"
  | Update_ack _ -> "cm.update_ack"
  | Pull_req -> "cm.pull_req"
  | Diff _ -> "cm.diff"
  | Fence_bump _ -> "cm.fence_bump"

(* Byte codecs for [msg], used when CM traffic crosses a real transport.
   Tags are wire format: renumbering breaks cross-version interop. *)

module Codec = Kutil.Codec

let encode_mode enc = function Read -> Codec.u8 enc 0 | Write -> Codec.u8 enc 1

let decode_mode dec =
  match Codec.read_u8 dec with
  | 0 -> Read
  | 1 -> Write
  | n -> raise (Codec.Decode_error (Printf.sprintf "Ctypes.mode: tag %d" n))

(* Acks carry the low bits of what they answer in their one tag byte. *)
let ack_mask = 63
let invalidate_ack_tag = 128
let update_ack_tag = 192
let ack_matches ~sent n = (n - sent) land ack_mask = 0

(* The [(offset, bytes)] runs a [Diff] and a [Runs] publish carry. *)
let encode_runs enc runs =
  Codec.list enc
    (fun (off, b) ->
      Codec.int enc off;
      Codec.bytes enc b)
    runs

let decode_runs dec =
  Codec.read_list dec (fun () ->
      let off = Codec.read_int dec in
      (off, Codec.read_bytes dec))

let encode_msg enc msg =
  match msg with
  | Read_req -> Codec.u8 enc 0
  | Write_req -> Codec.u8 enc 1
  | Fetch { dest; fence } ->
    Codec.u8 enc 2;
    Codec.u32 enc dest;
    Codec.int enc fence
  | Fetch_own { dest; fence } ->
    Codec.u8 enc 3;
    Codec.u32 enc dest;
    Codec.int enc fence
  | Read_grant { data; version; fence } ->
    Codec.u8 enc 4;
    Codec.bytes enc data;
    Codec.int enc version;
    Codec.int enc fence
  | Own_grant { data; version; fence } ->
    Codec.u8 enc 5;
    Codec.bytes enc data;
    Codec.int enc version;
    Codec.int enc fence
  | Upgrade_grant { fence } ->
    Codec.u8 enc 6;
    Codec.int enc fence
  | Invalidate { fence } ->
    Codec.u8 enc 7;
    Codec.int enc fence
  | Invalidate_ack { fence } -> Codec.u8 enc (invalidate_ack_tag + (fence land ack_mask))
  | Done { mode; fence } ->
    (* The mode shares its byte with the fence's low bits. *)
    Codec.u8 enc 9;
    Codec.u8 enc (((fence land ack_mask) lsl 1) lor if mode = Write then 1 else 0)
  | Nack -> Codec.u8 enc 10
  | Evict_notify { fence } ->
    Codec.u8 enc 11;
    Codec.int enc fence
  | Own_return { data; version } ->
    Codec.u8 enc 12;
    Codec.bytes enc data;
    Codec.int enc version
  | Update { data; version } ->
    Codec.u8 enc 13;
    Codec.bytes enc data;
    Codec.int enc version
  | Update_ack { version } -> Codec.u8 enc (update_ack_tag + (version land ack_mask))
  | Pull_req -> Codec.u8 enc 15
  | Diff { patches; version } ->
    Codec.u8 enc 16;
    encode_runs enc patches;
    Codec.int enc version
  | Fence_bump { floor } ->
    Codec.u8 enc 17;
    Codec.int enc floor

let decode_msg dec =
  match Codec.read_u8 dec with
  | 0 -> Read_req
  | 1 -> Write_req
  | 2 ->
    let dest = Codec.read_u32 dec in
    Fetch { dest; fence = Codec.read_int dec }
  | 3 ->
    let dest = Codec.read_u32 dec in
    Fetch_own { dest; fence = Codec.read_int dec }
  | 4 ->
    let data = Codec.read_bytes dec in
    let version = Codec.read_int dec in
    Read_grant { data; version; fence = Codec.read_int dec }
  | 5 ->
    let data = Codec.read_bytes dec in
    let version = Codec.read_int dec in
    Own_grant { data; version; fence = Codec.read_int dec }
  | 6 -> Upgrade_grant { fence = Codec.read_int dec }
  | 7 -> Invalidate { fence = Codec.read_int dec }
  | 9 ->
    let b = Codec.read_u8 dec in
    Done { mode = (if b land 1 = 1 then Write else Read); fence = b lsr 1 }
  | 10 -> Nack
  | 11 -> Evict_notify { fence = Codec.read_int dec }
  | 12 ->
    let data = Codec.read_bytes dec in
    Own_return { data; version = Codec.read_int dec }
  | 13 ->
    let data = Codec.read_bytes dec in
    Update { data; version = Codec.read_int dec }
  | 15 -> Pull_req
  | 16 ->
    let patches = decode_runs dec in
    Diff { patches; version = Codec.read_int dec }
  | 17 -> Fence_bump { floor = Codec.read_int dec }
  | n when n >= update_ack_tag -> Update_ack { version = n - update_ack_tag }
  | n when n >= invalidate_ack_tag -> Invalidate_ack { fence = n - invalidate_ack_tag }
  | n -> raise (Codec.Decode_error (Printf.sprintf "Ctypes.msg: tag %d" n))

(** Payload of an MVCC publish: either a whole page image or a sparse set
    of [(offset, bytes)] runs to apply on top of a parent version. Runs are
    the {!diff} of the written page against the writer's copy of the
    parent; the daemon falls back to [Whole] when they cover too much of
    the page to save bytes. *)
type publish_payload =
  | Whole of bytes
  | Runs of (int * bytes) list

(* Contiguous byte ranges where [new_] differs from [old]. If lengths
   differ (they should not for page data), the whole buffer is one run.
   Equal stretches are skipped a word at a time. *)
let diff ~old ~new_ =
  if Bytes.length old <> Bytes.length new_ then [ (0, new_) ]
  else begin
    let n = Bytes.length new_ in
    let runs = ref [] in
    let i = ref 0 in
    while !i < n do
      if
        !i + 8 <= n
        && Int64.equal (Bytes.get_int64_ne old !i) (Bytes.get_int64_ne new_ !i)
      then i := !i + 8
      else if Bytes.get old !i <> Bytes.get new_ !i then begin
        let start = !i in
        while !i < n && Bytes.get old !i <> Bytes.get new_ !i do
          incr i
        done;
        runs := (start, Bytes.sub new_ start (!i - start)) :: !runs
      end
      else incr i
    done;
    List.rev !runs
  end

let apply_runs base runs =
  let img = Bytes.copy base in
  let len = Bytes.length img in
  List.iter
    (fun (off, b) ->
      let blen = Bytes.length b in
      if off >= 0 && off + blen <= len then Bytes.blit b 0 img off blen)
    runs;
  img

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

let encode_publish_payload enc = function
  | Whole b ->
    Codec.u8 enc 0;
    Codec.bytes enc b
  | Runs runs ->
    Codec.u8 enc 1;
    encode_runs enc runs

let decode_publish_payload dec =
  match Codec.read_u8 dec with
  | 0 -> Whole (Codec.read_bytes dec)
  | 1 -> Runs (decode_runs dec)
  | n ->
    raise (Codec.Decode_error (Printf.sprintf "Ctypes.publish_payload: tag %d" n))

let encode_publish_result enc = function
  | Published v ->
    Codec.u8 enc 0;
    Codec.int enc v
  | Cas_mismatch { latest } ->
    Codec.u8 enc 1;
    Codec.int enc latest
  | Parent_gone { latest } ->
    Codec.u8 enc 2;
    Codec.int enc latest
  | Publish_unsupported -> Codec.u8 enc 3

let decode_publish_result dec =
  match Codec.read_u8 dec with
  | 0 -> Published (Codec.read_int dec)
  | 1 -> Cas_mismatch { latest = Codec.read_int dec }
  | 2 -> Parent_gone { latest = Codec.read_int dec }
  | 3 -> Publish_unsupported
  | n ->
    raise (Codec.Decode_error (Printf.sprintf "Ctypes.publish_result: tag %d" n))

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
          {!Evict_notify} it is not evidence the copy is gone — a
          partitioned holder still has valid, stale data that a later
          write must revoke. *)
  | Reincarnate of { version : version; sharers : node_id list }
      (** The home daemon rebuilt this machine after a crash and is feeding
          it what the persistent page directory remembers: the version of
          the data it recovered and the nodes that held copies in the
          previous incarnation. Protocols that track a copyset adopt the
          sharers (over-approximation is safe — invalidation handles
          non-holders) so stale survivor copies get revoked by the next
          write instead of lingering forever. No-op off-home. *)

let event_kind = function
  | Acquire { mode; _ } -> "acquire." ^ mode_to_string mode
  | Release { mode; _ } -> "release." ^ mode_to_string mode
  | Peer { msg; _ } -> msg_kind msg
  | Evicted _ -> "evicted"
  | Abort _ -> "abort"
  | Timeout _ -> "timer"
  | Maintain _ -> "maintain"
  | Unreachable _ -> "unreachable"
  | Reincarnate _ -> "reincarnate"

type reject_reason = Unavailable of string

type action =
  | Send of node_id * msg
  | Grant of req_id
      (** The client's lock intent is granted; data (if it travelled) was
          installed by a preceding [Install]. *)
  | Reject of req_id * reject_reason
  | Install of { data : bytes; dirty : bool }
      (** Store this page content locally. *)
  | Discard  (** Drop the local copy (invalidation). *)
  | Start_timer of { id : timer_id; after : Ksim.Time.t }
  | Sharers_hint of node_id list
      (** Home's current view of nodes holding copies; the daemon mirrors it
          into its page directory. *)

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

let default_config ~self ~home =
  {
    self;
    home;
    min_replicas = 1;
    replica_targets = [];
    request_timeout = Ksim.Time.ms 200;
    version_chain_depth = 8;
  }
