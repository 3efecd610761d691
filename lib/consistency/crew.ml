(** CREW — Concurrent Read, Exclusive Write.

    The prototype Khazana's only protocol: a directory-based write-invalidate
    scheme in the style of Li & Hudak's fixed distributed manager. Each page
    has a *home* (manager) that serialises transactions, tracks the current
    *owner* (unique node allowed to write) and the *copyset* (nodes holding
    read copies). Reads fetch a copy from any holder; writes invalidate the
    copyset and move ownership.

    One machine instance plays both roles: the cache role on every node, the
    manager role only where [cfg.self = cfg.home]. Manager-to-self traffic
    goes over the ordinary message path (the network delivers to self), so
    the code never special-cases co-location.

    Unreliable channels. Unlike Ivy, the substrate may lose, duplicate (via
    manager re-sends) and reorder messages, which demands four defences,
    each of which plugs a hole found by the randomized property tests or
    the nemesis history checker:

    - {b retries before suspicion}: a silent peer is re-asked up to
      [max_attempts] times — it may merely be holding a lock across a slow
      remote operation, and premature fail-over would break coherence;
    - {b pessimistic bookkeeping}: the manager records a requester in the
      copyset (or as owner) when it *initiates* the grant, not when the ack
      arrives — a lost ack must never hide a granted copy from future
      invalidations;
    - {b transaction fences}: every manager transaction carries a sequence
      number stamped into its fetches, grants and invalidations; caches
      remember the highest fence that revoked their copy and refuse older
      grants, so a ghost grant from a finished transaction cannot resurrect
      a revoked copy;
    - {b evidence-gated writes}: a write transaction never completes while
      any copy remains unrevoked. Invalidation rounds and ownership
      transfers retry forever — suspicion (timeouts, failure-detector
      hints) is never grounds to move on, because a partitioned holder
      still serves its now-stale copy locally and a write that completed
      around it would make those reads non-linearizable. Only hard
      evidence that the copy is gone (an [Invalidate_ack], an
      [Evict_notify], an [Own_return] — which a crashed node supplies once
      it recovers with an empty cache) lets the write proceed or fail
      over. A write blocked by a partition surfaces to the client as a
      timeout, which is ambiguous and therefore checker-safe.

    Availability extensions (paper §3.5): the manager fails over to
    alternate copy holders for {e reads} (every valid copy is current, so
    any of them may serve), keeps a backup of the last data that passed
    through it, and after each write pushes read copies to
    [cfg.replica_targets] until [min_replicas] primary copies exist. The
    read-side backup grant is sound because the daemon write-through
    flushes strict writes to the home before acking the client, keeping
    the backup as fresh as every acknowledged plain write. *)

open Types
module NSet = Set.Make (Int)

type cache_state = Invalid | Shared | Owned_shared | Owned_excl

let cache_state_name = function
  | Invalid -> "invalid"
  | Shared -> "shared"
  | Owned_shared -> "owned_shared"
  | Owned_excl -> "owned_excl"

(* Manager-side transaction in flight. [tried] records data sources that
   already failed so fail-over never loops; [attempts] counts timeouts
   against the current peer. Read transactions fail over after
   [max_attempts]; invalidations and ownership transfers retry forever
   (the counter saturates) — see "evidence-gated writes" above. *)
type txn =
  | Idle
  | Read_flight of { dest : node_id; source : node_id; timer : timer_id;
                     tried : NSet.t; attempts : int; fence : fence }
  | Inval_phase of { dest : node_id; waiting : NSet.t; timer : timer_id;
                     attempts : int; fence : fence }
  | Own_flight of { dest : node_id; source : node_id; timer : timer_id;
                    tried : NSet.t; attempts : int; fence : fence }
  | Await_done of { dest : node_id; mode : mode; timer : timer_id;
                    attempts : int; regrant : msg option; fence : fence }

(* High on purpose: with fail-fast crash signals from the failure detector
   (the daemon synthesises an Unreachable event when a send targets a
   suspected peer), timeouts here almost always mean "slow", not "dead" —
   and false suspicion is a safety hazard. *)
let max_attempts = 60

type t = {
  cfg : config;
  (* ---- cache role ---- *)
  mutable cstate : cache_state;
  mutable data : bytes option;
  mutable ver : version;
  mutable floor : fence;  (* refuse grants fenced below this *)
  locks : Local_locks.t;
  mutable pending_inval : (node_id * fence) option; (* deferred ack *)
  mutable pending_fetches : (node_id * msg) list;   (* deferred while locked *)
  (* ---- manager role (meaningful only at home) ---- *)
  mutable owner : node_id;
  mutable copyset : NSet.t;  (* nodes with read copies; excludes owner *)
  hqueue : (node_id * mode) Queue.t;
  mutable txn : txn;
  mutable fence : fence;  (* transaction sequence *)
  mutable backup : (bytes * version) option; (* last data seen by manager *)
  mutable next_timer : int;
}

let name = "crew"

let create cfg init =
  let cstate, data, ver =
    match init with
    | Start_unknown -> (Invalid, None, 0)
    | Start_owner bytes -> (Owned_excl, Some bytes, 1)
  in
  {
    cfg;
    cstate;
    data;
    ver;
    floor = 0;
    locks = Local_locks.create ();
    pending_inval = None;
    pending_fetches = [];
    owner = cfg.home;
    copyset = NSet.empty;
    hqueue = Queue.create ();
    txn = Idle;
    fence = 0;
    backup = (match init with Start_owner b -> Some (b, 1) | Start_unknown -> None);
    next_timer = 0;
  }

let state_name t = cache_state_name t.cstate
let has_valid_copy t = t.cstate <> Invalid

let locks_held t = Local_locks.held t.locks
let version t = t.ver
let backup_version t = match t.backup with Some (_, v) -> v | None -> 0
let is_home t = t.cfg.self = t.cfg.home

let holders t =
  if is_home t then NSet.elements (NSet.add t.owner t.copyset) else []

let busy t = is_home t && t.txn <> Idle

let fresh_timer t =
  t.next_timer <- t.next_timer + 1;
  t.next_timer

let fresh_fence t =
  t.fence <- t.fence + 1;
  t.fence

(* ------------------------------------------------------------------ *)
(* Cache role                                                          *)
(* ------------------------------------------------------------------ *)

let state_allows t = function
  | Read -> t.cstate <> Invalid
  | Write -> t.cstate = Owned_excl

(* Grant leading waiters that are compatible with both the local lock table
   and the protocol state; send one upgrade request to the manager on behalf
   of the first waiter that is not. While an invalidation is pending, grant
   nothing: new readers must not starve a remote writer. *)
let pump_local t acc =
  if t.pending_inval <> None then acc
  else
    Local_locks.pump t.locks ~allows:state_allows
      ~ask:Local_locks.request_for ~home:t.cfg.home t acc

let raise_floor t fence = if fence >= t.floor then t.floor <- fence + 1

let do_invalidate t (target, fence) acc =
  t.cstate <- Invalid;
  t.data <- None;
  t.pending_inval <- None;
  raise_floor t fence;
  Send (target, Invalidate_ack) :: Discard :: acc

(* Serve a (possibly deferred) Fetch / Fetch_own, echoing the manager's
   transaction fence into the grant. *)
let serve_fetch t (src, msg) acc =
  match (msg, t.data) with
  | (Fetch { fence; _ } | Fetch_own { fence; _ }), _ when fence < t.floor ->
    (* A fetch from below our floor: either a stale retransmit, or a
       manager that crashed and restarted its fence counter from zero.
       Serving it is useless — the destination would refuse the grant —
       so teach the sender our floor instead. *)
    Send (src, Fence_bump { floor = t.floor }) :: acc
  | Fetch { dest; fence }, Some data ->
    if t.cstate = Owned_excl then t.cstate <- Owned_shared;
    (* Serving a read copy (and the downgrade it implies) belongs to
       transaction [fence]: any write grant from an older transaction must
       not re-promote us afterwards. *)
    raise_floor t fence;
    Send (dest, Read_grant { data; version = t.ver; fence }) :: acc
  | Fetch_own { dest; fence }, Some data ->
    t.cstate <- Invalid;
    t.data <- None;
    (* The manager's backup must track the freshest image that passed
       through it. This hand-off is such a pass: without the refresh, an
       owner that dies before writing anything forces a fail-over onto a
       backup that may predate several settled writes — resurrecting
       ancient data instead of the image we just forwarded. *)
    if is_home t then t.backup <- Some (data, t.ver);
    (* Relinquishing ownership: anything granted to us by older
       transactions is dead from here on. The version bumps on every
       hand-off so freshness ordering tracks the ownership chain. *)
    raise_floor t fence;
    Send (dest, Own_grant { data; version = t.ver + 1; fence })
    :: Discard :: acc
  | (Fetch _ | Fetch_own _), None ->
    (* Our copy is gone (evicted under the manager's feet). *)
    Send (src, Evict_notify) :: acc
  | _ -> assert false

let flush_deferred t acc =
  if Local_locks.idle t.locks then begin
    let acc =
      match t.pending_inval with
      | Some pending -> do_invalidate t pending acc
      | None -> acc
    in
    let fetches = List.rev t.pending_fetches in
    t.pending_fetches <- [];
    List.fold_left (fun acc f -> serve_fetch t f acc) acc fetches
  end
  else acc

(* ------------------------------------------------------------------ *)
(* Manager role                                                        *)
(* ------------------------------------------------------------------ *)

let sharers_hint t = Sharers_hint (NSet.elements (NSet.add t.owner t.copyset))

let alternate_sources t ~tried =
  let cands = NSet.elements (NSet.diff t.copyset tried) in
  if t.data <> None && (not (NSet.mem t.cfg.self tried))
     && not (List.mem t.cfg.self cands)
  then cands @ [ t.cfg.self ]
  else cands

(* Pessimistic copyset bookkeeping (Li-Hudak style): record the reader when
   the fetch is initiated, not when its Done ack arrives — a lost ack must
   not hide a granted reader from future invalidations. A spurious member
   merely costs one extra Invalidate later. *)
let start_read_txn ?(attempts = 0) ?fence t dest ~source ~tried acc =
  if dest <> t.owner then t.copyset <- NSet.add dest t.copyset;
  let fence = match fence with Some f -> f | None -> fresh_fence t in
  let timer = fresh_timer t in
  t.txn <- Read_flight { dest; source; timer; tried; attempts; fence };
  (* The hint must reach the durable directory before the grant can land:
     a crash mid-transaction would otherwise rebuild from books that miss
     a node already holding a copy, leaving it uninvalidatable forever. *)
  Start_timer { id = timer; after = t.cfg.request_timeout }
  :: Send (source, Fetch { dest; fence })
  :: sharers_hint t
  :: acc

(* Pessimistic ownership bookkeeping: the grant may land even if its ack
   does not. Believing a dead transfer costs a fail-over round later; not
   believing a live one would mint two owners. *)
let start_own_transfer ?(attempts = 0) ?fence t dest ~source ~tried acc =
  (* Retire the displaced owner into the copyset: if the hand-off never
     reaches it (fail-over around a partition) it still holds a valid copy,
     and a holder the books forget is a stale copy no write can revoke. If
     the hand-off does land, it becomes a harmless phantom that the next
     invalidation round or the repair probe clears. *)
  if t.owner <> dest && t.owner <> t.cfg.self then
    t.copyset <- NSet.add t.owner t.copyset;
  t.owner <- dest;
  t.copyset <- NSet.remove dest t.copyset;
  let fence = match fence with Some f -> f | None -> fresh_fence t in
  let timer = fresh_timer t in
  t.txn <- Own_flight { dest; source; timer; tried; attempts; fence };
  Start_timer { id = timer; after = t.cfg.request_timeout }
  :: Send (source, Fetch_own { dest; fence })
  :: sharers_hint t
  :: acc

let grant_from_backup ?fence t dest ~mode ~data ~version acc =
  (match mode with
   | Read -> if dest <> t.owner then t.copyset <- NSet.add dest t.copyset
   | Write ->
     (* Same displaced-owner retirement as [start_own_transfer]. *)
     if t.owner <> dest && t.owner <> t.cfg.self then
       t.copyset <- NSet.add t.owner t.copyset;
     t.owner <- dest;
     t.copyset <- NSet.remove dest t.copyset);
  (* Write grants climb the version ladder on every attempt so a recipient
     that once held something newer eventually accepts the recovery. *)
  let version = match mode with Read -> version | Write -> version + 1 in
  if mode = Write then t.backup <- Some (data, version);
  let fence = match fence with Some f -> f | None -> fresh_fence t in
  let timer = fresh_timer t in
  let grant =
    match mode with
    | Read -> Read_grant { data; version; fence }
    | Write -> Own_grant { data; version; fence }
  in
  t.txn <-
    Await_done { dest; mode; timer; attempts = 0; regrant = Some grant; fence };
  Start_timer { id = timer; after = t.cfg.request_timeout }
  :: Send (dest, grant)
  :: sharers_hint t
  :: acc

(* Once the copyset is clean, move ownership (or upgrade in place). *)
let ownership_phase ?fence t dest acc =
  let fence = match fence with Some f -> f | None -> fresh_fence t in
  if t.owner = dest then begin
    let timer = fresh_timer t in
    let grant = Upgrade_grant { fence } in
    t.txn <-
      Await_done
        { dest; mode = Write; timer; attempts = 0; regrant = Some grant; fence };
    Start_timer { id = timer; after = t.cfg.request_timeout }
    :: Send (dest, grant)
    :: acc
  end
  else start_own_transfer ~fence t dest ~source:t.owner ~tried:NSet.empty acc

let start_write_txn t dest acc =
  let fence = fresh_fence t in
  let to_invalidate = NSet.remove dest (NSet.remove t.owner t.copyset) in
  if NSet.is_empty to_invalidate then ownership_phase ~fence t dest acc
  else begin
    let timer = fresh_timer t in
    t.txn <-
      Inval_phase { dest; waiting = to_invalidate; timer; attempts = 0; fence };
    NSet.fold
      (fun n acc -> Send (n, Invalidate { fence }) :: acc)
      to_invalidate
      (Start_timer { id = timer; after = t.cfg.request_timeout } :: acc)
  end

(* Maintain min_replicas primary copies (paper §3.5) by queueing internal
   reads on behalf of replica targets; they receive unsolicited read
   grants. Queued pushes count as prospective holders, or each completed
   push would re-queue more and the page would over-replicate. Nodes in
   [avoid] (suspected dead or partitioned) count as neither holders nor
   candidates, so repair re-replicates around them. *)
let enqueue_replication ?(avoid = []) t =
  if t.cfg.min_replicas > 1 then begin
    let avoid = NSet.of_list avoid in
    let holders = NSet.add t.owner t.copyset in
    let queued = Queue.fold (fun acc (n, _) -> NSet.add n acc) NSet.empty t.hqueue in
    let prospective =
      NSet.cardinal (NSet.diff (NSet.union holders queued) avoid)
    in
    let missing = t.cfg.min_replicas - prospective in
    if missing > 0 then begin
      let fresh =
        List.filter
          (fun n ->
            (not (NSet.mem n holders))
            && (not (NSet.mem n queued))
            && not (NSet.mem n avoid))
          t.cfg.replica_targets
      in
      List.iteri
        (fun i n -> if i < missing then Queue.push (n, Read) t.hqueue)
        fresh
    end
  end

let rec pump_home t acc =
  match t.txn with
  | Idle when not (Queue.is_empty t.hqueue) -> (
    let dest, mode = Queue.pop t.hqueue in
    match mode with
    | Read ->
      if dest = t.owner then
        (* The owner itself asking to read: its grant/ack was lost. Serve
           from backup so it unblocks; otherwise drop and let it retry. *)
        (match t.backup with
         | Some (data, version) ->
           grant_from_backup t dest ~mode:Read ~data ~version acc
         | None -> pump_home t acc)
      else
        (* A copyset member may be a phantom (e.g. a retired previous
           owner) asking for a fresh copy. Run the ordinary read
           transaction rather than short-circuiting from the backup: the
           fetch defers behind the owner's active write lock, which the
           backup path would race past, and [start_read_txn] re-adds the
           requester to the copyset so the books stay pessimistic. *)
        start_read_txn t dest ~source:t.owner ~tried:NSet.empty acc
    | Write -> start_write_txn t dest acc)
  | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _ -> acc

let finish_txn t acc =
  t.txn <- Idle;
  enqueue_replication t;
  pump_home t (sharers_hint t :: acc)

(* The data source for the current transaction failed: move to the next
   candidate, falling back on the manager's own copy, then its backup.
   Reads get here on mere suspicion (any valid copy is current, so an
   alternate or the write-through backup may serve); writes only with
   evidence — an Evict_notify, Own_return or fence restart proving the
   failed source no longer holds a copy a transfer could fork. *)
let fail_over t ~dest ~mode ~tried acc =
  match alternate_sources t ~tried with
  | source :: _ when source = t.cfg.self -> (
    match t.data with
    | Some data -> (
      match mode with
      | Read -> grant_from_backup t dest ~mode:Read ~data ~version:t.ver acc
      | Write when dest = t.cfg.self ->
        (* The writer is this node's own cache role, which already holds
           the copy: upgrade it in place under a fresh fence. Surrendering
           it would discard the copy under the writer's feet, and a stale
           decline of the superseded grant would then read as the new
           grant's refusal and discard it again, under a held lock. *)
        t.owner <- dest;
        ownership_phase t dest acc
      | Write ->
        (* Surrender the manager's own copy: availability over freshness
           when the real owner is unreachable. *)
        t.cstate <- Invalid;
        let version = t.ver in
        t.data <- None;
        grant_from_backup t dest ~mode:Write ~data ~version (Discard :: acc))
    | None -> (
      match t.backup with
      | Some (data, version) -> grant_from_backup t dest ~mode ~data ~version acc
      | None ->
        let acc = Send (dest, Nack) :: acc in
        t.txn <- Idle;
        pump_home t acc))
  | source :: _ -> (
    match mode with
    | Read -> start_read_txn t dest ~source ~tried acc
    | Write -> start_own_transfer t dest ~source ~tried acc)
  | [] -> (
    match t.backup with
    | Some (data, version) ->
      (* Every source is unreachable, so recover from the backup — but do
         NOT clear the copyset. Unreachable mostly means partitioned, and
         a partitioned holder keeps a protocol-valid (now stale) copy that
         only a later invalidation round can revoke; wiping the books here
         would exempt it forever. *)
      grant_from_backup t dest ~mode ~data ~version acc
    | None ->
      let acc = Send (dest, Nack) :: acc in
      t.txn <- Idle;
      pump_home t acc)

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

(* A grant fenced below our floor is a ghost of a finished transaction:
   accepting it would resurrect a revoked copy. Refuse, and tell the
   manager we hold nothing so it can retry cleanly. *)
(* The cache role's "exclusive" claim must respect the collocated
   manager's books at the home: a write grant implies exclusivity only if
   the copyset really drained. Pessimistic bookkeeping (and sharers
   inherited across a reincarnation) can leave members in the copyset, and
   a home-local write must then still run a real invalidation round rather
   than take the Owned_excl shortcut past a possibly-live copy. *)
let claim_exclusive t =
  t.cstate <-
    (if t.cfg.self = t.cfg.home && not (NSet.is_empty t.copyset) then
       Owned_shared
     else Owned_excl)

let refuse_stale_grant t acc =
  t.locks.cache_req <- None;
  (* The Fence_bump rescues a manager whose fence counter restarted after
     a crash: every grant it mints would otherwise be refused forever. *)
  pump_local t
    (Send (t.cfg.home, Fence_bump { floor = t.floor })
    :: Send (t.cfg.home, Evict_notify)
    :: acc)

let handle_cache_msg t src msg acc =
  match msg with
  | Read_grant { data; version; fence } ->
    if t.cstate = Invalid && fence < t.floor then refuse_stale_grant t acc
    else begin
      if t.locks.cache_req = Some Read then t.locks.cache_req <- None;
      let acc =
        if t.cstate = Invalid then begin
          t.cstate <- Shared;
          t.data <- Some data;
          t.ver <- version;
          Install { data; dirty = false } :: acc
        end
        else acc (* duplicate/unsolicited while we hold a copy: keep ours *)
      in
      pump_local t (Send (t.cfg.home, Done { mode = Read }) :: acc)
    end
  | Own_grant { data; version; fence } ->
    if t.cstate = Owned_excl then begin
      (* Duplicate grant (the manager re-sent after a lost ack): keep our
         data unless the grant's is newer, just re-ack. *)
      if t.locks.cache_req = Some Write then t.locks.cache_req <- None;
      let acc =
        if version > t.ver then begin
          t.data <- Some data;
          t.ver <- version;
          Install { data; dirty = false } :: acc
        end
        else acc
      in
      pump_local t (Send (t.cfg.home, Done { mode = Write }) :: acc)
    end
    else if fence < t.floor then
      (* A ghost of a finished transaction. If we are a bare cache it may
         be retried for us, so tell the manager we hold nothing; if we
         still hold a legitimate (shared/downgraded) copy, just drop it —
         we are not the grant's audience any more. *)
      (if t.cstate = Invalid then refuse_stale_grant t acc
       else Send (t.cfg.home, Fence_bump { floor = t.floor }) :: acc)
    else begin
      if t.locks.cache_req = Some Write then t.locks.cache_req <- None;
      claim_exclusive t;
      t.data <- Some data;
      t.ver <- max version t.ver;
      pump_local t
        (Send (t.cfg.home, Done { mode = Write })
         :: Install { data; dirty = false }
         :: acc)
    end
  | Upgrade_grant { fence } ->
    if t.cstate = Invalid && fence < t.floor then refuse_stale_grant t acc
    else if t.data <> None then begin
      if t.locks.cache_req = Some Write then t.locks.cache_req <- None;
      claim_exclusive t;
      pump_local t (Send (t.cfg.home, Done { mode = Write }) :: acc)
    end
    else
      (* Copy evicted between request and grant: decline the upgrade. *)
      Send (t.cfg.home, Evict_notify) :: acc
  | Invalidate { fence } ->
    if Local_locks.idle t.locks then
      pump_local t (do_invalidate t (src, fence) acc)
    else begin
      (* The CM "delays granting ... until the conflict is resolved": ack
         only after the local locks drain. *)
      t.pending_inval <- Some (src, fence);
      acc
    end
  | Fetch _ | Fetch_own _ ->
    (* A read copy may be served while local readers are active, but
       ownership must not move until every local lock is gone — the new
       writer would otherwise run concurrently with our readers. *)
    let must_defer =
      match msg with
      | Fetch _ -> t.locks.Local_locks.writer
      | _ -> not (Local_locks.idle t.locks)
    in
    if must_defer then begin
      t.pending_fetches <- (src, msg) :: t.pending_fetches;
      acc
    end
    else serve_fetch t (src, msg) acc
  | Nack -> pump_local t (Local_locks.reject_head t.locks "no reachable copy" acc)
  | Read_req | Write_req | Invalidate_ack | Done _ | Evict_notify
  | Own_return _ | Update _ | Update_ack | Pull_req | Diff _ | Fence_bump _ ->
    acc (* manager-side traffic *)

let absorb_returned_ownership t data version =
  t.owner <- t.cfg.home;
  t.copyset <- NSet.remove t.cfg.home t.copyset;
  t.backup <- Some (data, version);
  t.cstate <- (if NSet.is_empty t.copyset then Owned_excl else Owned_shared);
  t.data <- Some data;
  t.ver <- max version t.ver

let handle_home_msg t src msg acc =
  match msg with
  | Read_req ->
    Queue.push (src, Read) t.hqueue;
    pump_home t acc
  | Write_req ->
    Queue.push (src, Write) t.hqueue;
    pump_home t acc
  | Invalidate_ack -> (
    t.copyset <- NSet.remove src t.copyset;
    match t.txn with
    | Inval_phase { dest; waiting; timer; attempts; fence } ->
      let waiting = NSet.remove src waiting in
      if NSet.is_empty waiting then ownership_phase ~fence t dest acc
      else begin
        t.txn <- Inval_phase { dest; waiting; timer; attempts; fence };
        acc
      end
    | Idle | Read_flight _ | Own_flight _ | Await_done _ -> acc)
  | Done { mode = done_mode } -> (
    match t.txn with
    | (Read_flight { dest; _ } | Await_done { dest; mode = Read; _ })
      when dest = src && done_mode = Read ->
      if src <> t.owner then t.copyset <- NSet.add src t.copyset;
      finish_txn t acc
    | (Own_flight { dest; _ } | Await_done { dest; mode = Write; _ })
      when dest = src && done_mode = Write ->
      t.owner <- src;
      t.copyset <- NSet.remove src t.copyset;
      finish_txn t acc
    | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _ -> acc)
  | Evict_notify -> (
    t.copyset <- NSet.remove src t.copyset;
    match t.txn with
    | Inval_phase { dest; waiting; timer; attempts; fence } when NSet.mem src waiting ->
      let waiting = NSet.remove src waiting in
      if NSet.is_empty waiting then ownership_phase ~fence t dest acc
      else begin
        t.txn <- Inval_phase { dest; waiting; timer; attempts; fence };
        acc
      end
    | Read_flight { dest; source; tried; _ } when source = src ->
      fail_over t ~dest ~mode:Read ~tried:(NSet.add src tried) acc
    | Own_flight { dest; source; tried; _ } when source = src ->
      fail_over t ~dest ~mode:Write ~tried:(NSet.add src tried) acc
    | Await_done { dest; mode; _ } when dest = src ->
      (* The grantee refused a stale grant or lost its copy: retry its
         transaction from an alternate source. *)
      if mode = Write then t.owner <- t.cfg.home;
      fail_over t ~dest ~mode ~tried:NSet.empty acc
    | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _ -> acc)
  | Own_return { data; version } ->
    if src = t.owner then begin
      absorb_returned_ownership t data version;
      let acc = Install { data; dirty = true } :: acc in
      match t.txn with
      | Read_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Read ~tried:(NSet.add src tried) acc
      | Own_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Write ~tried:(NSet.add src tried) acc
      | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _ ->
        acc
    end
    else acc
  | Update { data; version } ->
    (* A write-through (a remote writer's flush or a 2PC commit) at the
       version its release gave it. The backup keeps the freshest, and a
       grant still being re-sent carries nothing older: its grantee may be
       a reincarnation of the writer, which lost the write with its cache.
       The daemon installs the image in the store. *)
    if version >= backup_version t then t.backup <- Some (data, version);
    (match t.txn with
     | Await_done ({ regrant = Some (Own_grant g); _ } as r)
       when version > g.version ->
       t.txn <-
         Await_done
           { r with regrant = Some (Own_grant { g with data; version }) }
     | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _ -> ());
    if t.cstate = Invalid || version <= t.ver then acc
    else begin
      (* The home holds a copy older than a write made elsewhere: its
         books missed that writer (a home rebuilt after a crash believes
         it owns the page), so every copy they list may be as old. The
         copy takes the image, and an owning home revokes every copy, the
         writer's included, with a write transaction of its own. *)
      t.data <- Some data;
      t.ver <- version;
      if t.owner <> t.cfg.self then acc
      else begin
        if src <> t.cfg.self then t.copyset <- NSet.add src t.copyset;
        Queue.push (t.cfg.self, Write) t.hqueue;
        pump_home t acc
      end
    end
  | Fence_bump { floor } ->
    (* A survivor of a previous incarnation of this manager refuses fences
       below [floor]: our counter restarted from zero after a crash and
       rebuild. Jump past the dead epoch, and restart any flight still in
       progress under a fresh fence — everything already in the air below
       the floor will be refused on arrival. *)
    if floor > t.fence then begin
      t.fence <- floor;
      match t.txn with
      | Read_flight { dest; source; tried; _ } ->
        start_read_txn t dest ~source ~tried acc
      | Own_flight { dest; source; tried; _ } ->
        start_own_transfer t dest ~source ~tried acc
      | Await_done { dest; mode; _ } ->
        fail_over t ~dest ~mode ~tried:NSet.empty acc
      | Idle | Inval_phase _ -> acc
    end
    else acc
  | Read_grant _ | Own_grant _ | Upgrade_grant _ | Invalidate _ | Fetch _
  | Fetch_own _ | Nack | Update_ack | Pull_req | Diff _ ->
    acc

let on_timeout t id acc =
  let current_timer =
    match t.txn with
    | Idle -> None
    | Read_flight { timer; _ } | Inval_phase { timer; _ }
    | Own_flight { timer; _ } | Await_done { timer; _ } ->
      Some timer
  in
  if current_timer <> Some id then acc (* stale timer *)
  else
    match t.txn with
    | Idle -> acc
    | Read_flight { dest; source; tried; attempts; fence; _ } ->
      if attempts < max_attempts then
        start_read_txn ~attempts:(attempts + 1) ~fence t dest ~source ~tried acc
      else fail_over t ~dest ~mode:Read ~tried:(NSet.add source tried) acc
    | Own_flight { dest; source; tried; attempts; fence; _ } ->
      (* Never move ownership around a merely-silent holder: unlike a read
         copy, a second writable lineage forks the page. Retry until the
         holder answers or supplies evidence (Evict_notify / Own_return —
         which a crashed node sends once it recovers empty) that its copy
         is gone; only those evidence paths fail over. *)
      start_own_transfer
        ~attempts:(min (attempts + 1) max_attempts)
        ~fence t dest ~source ~tried acc
    | Inval_phase { dest; waiting; attempts; fence; _ } ->
      (* Re-send forever: the sharer may be deferring its ack behind a held
         read lock, or partitioned — and a partitioned sharer still serves
         its (about to be stale) copy locally. Completing the write around
         it would make those reads non-linearizable, so the write waits:
         the blocked writer times out at the client (ambiguous, hence
         checker-safe) and the round converges once every remaining sharer
         acks, evicts, or recovers from a crash with an empty cache. *)
      let timer = fresh_timer t in
      t.txn <-
        Inval_phase
          { dest; waiting; timer;
            attempts = min (attempts + 1) max_attempts; fence };
      NSet.fold
        (fun n acc -> Send (n, Invalidate { fence }) :: acc)
        waiting
        (Start_timer { id = timer; after = t.cfg.request_timeout } :: acc)
    | Await_done { dest; mode; attempts; regrant; fence; _ } ->
      if attempts < max_attempts then begin
        (* The grant or its Done ack may have been lost: re-send rather
           than presume a crash. *)
        let timer = fresh_timer t in
        t.txn <-
          Await_done
            { dest; mode; timer; attempts = attempts + 1; regrant; fence };
        let acc =
          Start_timer { id = timer; after = t.cfg.request_timeout } :: acc
        in
        match regrant with
        | Some grant -> Send (dest, grant) :: acc
        | None -> acc
      end
      else begin
        (* Give up waiting for the ack. Ownership/copyset were recorded at
           grant time, so bookkeeping is already conservative; if the
           grantee really died, the next transaction's fail-over recovers
           from an alternate source or the backup. *)
        t.txn <- Idle;
        pump_home t (sharers_hint t :: acc)
      end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let handle t event =
  let acc =
    match event with
    | Acquire { req; mode } ->
      Local_locks.enqueue t.locks req mode;
      pump_local t []
    | Release { mode; data } ->
      Local_locks.drop t.locks mode;
      let acc =
        match (mode, data) with
        | Write, Some bytes ->
          t.data <- Some bytes;
          t.ver <- t.ver + 1;
          if is_home t then t.backup <- Some (bytes, t.ver);
          [ Install { data = bytes; dirty = true } ]
        | (Read | Write), _ -> []
      in
      (* A home-local write never passes through a manager transaction, so
         trigger min-replica maintenance here too. *)
      let acc =
        if is_home t && mode = Write && data <> None then begin
          enqueue_replication t;
          pump_home t acc
        end
        else acc
      in
      pump_local t (flush_deferred t acc)
    | Peer { src; msg } ->
      let acc = handle_cache_msg t src msg [] in
      if is_home t then handle_home_msg t src msg acc else acc
    | Evicted { data; dirty = _ } ->
      let was = t.cstate in
      t.cstate <- Invalid;
      t.data <- None;
      t.pending_inval <- None;
      if is_home t then begin
        (* Only the manager's cached copy died; remember it as backup. *)
        t.backup <- Some (data, t.ver);
        []
      end
      else begin
        match was with
        | Owned_shared | Owned_excl ->
          [ Send (t.cfg.home, Own_return { data; version = t.ver }) ]
        | Shared -> [ Send (t.cfg.home, Evict_notify) ]
        | Invalid -> []
      end
    | Abort { req } ->
      Local_locks.abort t.locks req;
      pump_local t []
    | Timeout id -> if is_home t then on_timeout t id [] else []
    | Maintain { avoid } ->
      if is_home t then begin
        enqueue_replication ~avoid t;
        pump_home t []
      end
      else []
    | Unreachable { node } ->
      (* Fail-fast signal from the daemon's failure detector. Suspicion is
         only a hint: it short-circuits the retry ladder for *reads*,
         whose fail-over targets (other valid copies, or the write-through
         backup) are all current. Writes ignore it — an invalidation round
         or ownership transfer must keep waiting for the suspect, because
         if it is partitioned rather than dead it still holds (and serves)
         its copy, and a write completed around it would fork history. *)
      if not (is_home t) then []
      else (
        match t.txn with
        | Read_flight { dest; source; tried; _ } when source = node ->
          fail_over t ~dest ~mode:Read ~tried:(NSet.add node tried) []
        | Await_done { dest; _ } when dest = node ->
          (* The grantee itself is suspected. Stop waiting for its ack;
             ownership/copyset were recorded at grant time so the books
             stay conservative, and if it really died the next
             transaction's fail-over recovers from an alternate source. *)
          t.txn <- Idle;
          pump_home t [ sharers_hint t ]
        | Idle | Read_flight _ | Inval_phase _ | Own_flight _ | Await_done _
          ->
          [])
    | Reincarnate { version; sharers } ->
      if is_home t then begin
        t.ver <- max t.ver version;
        (match (t.backup, t.data) with
         | None, Some d -> t.backup <- Some (d, t.ver)
         | (Some _ | None), _ -> ());
        (* Adopt the previous incarnation's recorded sharers so the next
           write's invalidation round revokes their (possibly stale but
           protocol-valid) copies. Spurious members are safe: pessimistic
           copyset bookkeeping already tolerates them. *)
        List.iter
          (fun n -> if n <> t.cfg.self then t.copyset <- NSet.add n t.copyset)
          sharers;
        (* With inherited sharers the home's own copy is not exclusive:
           a local write must run a real invalidation round, not take the
           Owned_excl shortcut past the survivors. *)
        if (not (NSet.is_empty t.copyset)) && t.cstate = Owned_excl then
          t.cstate <- Owned_shared;
        pump_home t [ sharers_hint t ]
      end
      else []
  in
  List.rev acc

(* CREW keeps a single mutable image per page; there is no version history
   to read at and no publish path — writers go through ownership. *)
let read_at _ _ = None
let publish _ ~src:_ ~parent:_ ~expected:_ ~payload:_ =
  (Types.Publish_unsupported, [])
