(** The home-serialised core under [crew] and [release].

    Each page has a {e home} (manager) that runs one transaction at a time
    from a FIFO queue, tracks the {e owner} and the {e copyset}, and hands
    out the one write permission. One machine plays both roles: the cache
    role on every node, the manager role where [cfg.self = cfg.home];
    manager-to-self traffic takes the ordinary message path.

    {!POLICY} fixes what a write does to the other copies. CREW's grant
    revokes them and moves ownership, which the writer keeps (Li & Hudak's
    fixed distributed manager). Release's grant leaves them; the writer
    returns its token with an [Update], fanned out in an acked round built
    like the invalidation round. A silent holder loses the token after
    [token_timeout]; the home then writes its image past any version the
    holder could mint and fans it out, so a late return is refused. The
    channels may lose, duplicate and reorder; four defences, each found by
    the property tests or the nemesis checker, cover both:

    - {b retries before suspicion}: a silent peer is re-asked up to
      [max_attempts] times; it may merely be slow;
    - {b pessimistic bookkeeping}: a grantee joins the copyset (or becomes
      owner) when its grant {e starts}, so a lost ack hides no copy;
    - {b fences}: every transaction's number rides on its fetches and
      grants, and its low bits on the acks. Caches refuse grants below the
      highest fence that revoked them, and the home ignores acks of other
      transactions and any [Evict_notify] older than its latest grant to
      that node, so no ghost of a finished transaction counts;
    - {b evidence-gated writes}: a CREW write never completes while a copy
      is unrevoked; only an ack, an [Evict_notify] or an [Own_return] (a
      crashed node sends one once it recovers empty) lets it on, and a
      partition shows as a client timeout. A release round lets a suspect
      go: release reads may be stale anyway.

    Availability (paper §3.5): CREW reads fail over to other copies, then
    to a backup of the last data through the manager (sound because the
    daemon writes strict writes through to the home before acking them);
    both protocols top the copies up to [min_replicas]. *)

open Types
module NSet = Set.Make (Int)
module NMap = Map.Make (Int)

type cache_state = Invalid | Shared | Owned_shared | Owned_excl

(* Manager-side transaction in flight. [tried]: sources that already failed;
   [attempts]: timeouts against the current peer (saturating). *)
type txn =
  | Idle
  | Read_flight of { dest : node_id; source : node_id; timer : timer_id;
                     tried : NSet.t; attempts : int; fence : fence }
  | Round of { dest : node_id; waiting : NSet.t; timer : timer_id;
               attempts : int; fence : fence }
      (** CREW: the invalidations ahead of [dest]'s write; release: the
          fan-out of the home's image after [dest]'s write *)
  | Own_flight of { dest : node_id; source : node_id; timer : timer_id;
                    tried : NSet.t; attempts : int; fence : fence }
  | Await_done of { dest : node_id; mode : mode; timer : timer_id;
                    attempts : int; regrant : msg option; fence : fence }
      (** release: the token is out at [dest] *)

(* High on purpose: the daemon turns a send to a suspected peer into an
   [Unreachable] event at once, so a timeout here almost always means
   "slow", and false suspicion is a safety hazard. *)
let max_attempts = 60

module type POLICY = sig
  val name : string

  val invalidates : bool
  (** [true] for write-invalidate (CREW), [false] for write-update
      (release): it decides the grant, the release and the silent writer
      as this module's header describes. *)
end

type t = {
  cfg : config;
  (* ---- cache role ---- *)
  mutable cstate : cache_state;
  mutable data : bytes option;
  mutable ver : version;
  mutable floor : fence;  (* refuse grants fenced below this *)
  mutable held : fence;  (* the grant behind the current copy *)
  mutable minted : bool;  (* release: our version is a write the home has not echoed *)
  locks : Local_locks.t;
  mutable pending_inval : (node_id * fence) option; (* deferred ack *)
  mutable pending_fetches : (node_id * msg) list;   (* deferred while locked *)
  (* ---- manager role (meaningful only at home) ---- *)
  mutable owner : node_id;
  mutable copyset : NSet.t;  (* nodes with read copies; excludes owner *)
  mutable granted : fence NMap.t;  (* latest grant to each node *)
  hqueue : (node_id * mode) Queue.t;
  mutable txn : txn;
  mutable fence : fence;  (* transaction sequence *)
  mutable since : fence;  (* the first fence of the transaction in flight *)
  mutable backup : (bytes * version) option; (* CREW: last data seen *)
  mutable next_timer : int;
}

module Make (P : POLICY) = struct
  type nonrec t = t

  let name = P.name

  let create cfg init =
    let cstate, data, ver =
      match init with
      | Start_unknown -> (Invalid, None, 0)
      | Start_owner bytes ->
        ((if P.invalidates then Owned_excl else Shared), Some bytes, 1)
    in
    { cfg; cstate; data; ver; floor = 0; held = 0; minted = false;
      locks = Local_locks.create (); pending_inval = None; pending_fetches = [];
      owner = cfg.home; copyset = NSet.empty; granted = NMap.empty;
      hqueue = Queue.create (); txn = Idle; fence = 0; since = 0;
      backup = (if P.invalidates then Option.map (fun b -> (b, 1)) data else None);
      next_timer = 0 }

  let state_name t =
    match t.cstate with
    | Invalid -> "invalid"
    | Shared -> if P.invalidates then "shared" else "replica"
    | Owned_shared -> "owned_shared"
    | Owned_excl -> if P.invalidates then "owned_excl" else "replica+token"

  let has_valid_copy t = t.cstate <> Invalid
  let locks_held t = Local_locks.held t.locks
  let version t = t.ver
  let backup_version t = match t.backup with Some (_, v) -> v | None -> 0
  let is_home t = t.cfg.self = t.cfg.home

  let holders t = if is_home t then NSet.elements (NSet.add t.owner t.copyset) else []

  let busy t = is_home t && t.txn <> Idle

  let fresh_timer t =
    t.next_timer <- t.next_timer + 1;
    t.next_timer

  let fresh_fence t =
    t.fence <- t.fence + 1;
    t.fence

  (* ---------------------------- Cache role ---------------------------- *)

  let state_allows t = function
    | Read -> t.cstate <> Invalid
    | Write -> t.cstate = Owned_excl

  (* While an invalidation is pending grant nothing, so new readers cannot
     starve a remote writer. *)
  let pump_local t acc =
    if t.pending_inval <> None then acc
    else
      Local_locks.pump t.locks ~allows:state_allows
        ~ask:Local_locks.request_for ~home:t.cfg.home t acc

  let raise_floor t fence = if fence >= t.floor then t.floor <- fence + 1

  let adopt t ~fence data version acc =
    t.minted <- false;
    t.data <- Some data;
    t.ver <- version;
    t.held <- fence;
    Install { data; dirty = false } :: acc

  (* "No copy here as of [fence]": no older grant may make it false. *)
  let notice t fence acc =
    raise_floor t fence;
    Send (t.cfg.home, Evict_notify { fence }) :: acc

  let do_invalidate t (target, fence) acc =
    t.cstate <- Invalid;
    t.data <- None;
    t.pending_inval <- None;
    raise_floor t fence;
    Send (target, Invalidate_ack { fence }) :: Discard :: acc

  (* Serve a (possibly deferred) Fetch / Fetch_own, echoing the manager's
     transaction fence into the grant. *)
  let serve_fetch t (src, msg) acc =
    match (msg, t.data) with
    | (Fetch { fence; _ } | Fetch_own { fence; _ }), _ when fence < t.floor ->
      (* A stale retransmit, or a manager whose counter restarted after a
         crash: teach it our floor. *)
      Send (src, Fence_bump { floor = t.floor }) :: acc
    | Fetch { dest; fence }, Some data ->
      if t.cstate = Owned_excl then t.cstate <- Owned_shared;
      (* No older write grant may re-promote us after this downgrade. *)
      raise_floor t fence;
      Send (dest, Read_grant { data; version = t.ver; fence }) :: acc
    | Fetch_own { dest; fence }, Some data ->
      t.cstate <- Invalid;
      t.data <- None;
      (* The backup tracks the freshest image through the manager; the
         version bumps on every hand-off, following the ownership chain. *)
      if is_home t then t.backup <- Some (data, t.ver);
      raise_floor t fence;
      Send (dest, Own_grant { data; version = t.ver + 1; fence })
      :: Discard :: acc
    | (Fetch { fence; _ } | Fetch_own { fence; _ }), None ->
      (* Our copy is gone (evicted under the manager's feet). *)
      notice t fence acc
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

  (* --------------------------- Manager role --------------------------- *)

  (* The owner first, so a home rebuilt from the directory can re-adopt it. *)
  let sharers_hint t =
    Sharers_hint (t.owner :: NSet.elements (NSet.remove t.owner t.copyset))

  let note_grant t dest fence = t.granted <- NMap.add dest fence t.granted

  let stale_notice t src fence =
    match NMap.find_opt src t.granted with Some g -> fence < g | None -> false

  let alternate_sources t ~tried =
    let cands = NSet.elements (NSet.diff t.copyset tried) in
    if t.data <> None && (not (NSet.mem t.cfg.self tried))
       && not (List.mem t.cfg.self cands)
    then cands @ [ t.cfg.self ]
    else cands

  (* The hint reaches the durable directory before the grant can land, so a
     crash mid-transaction cannot rebuild books that miss the reader. *)
  let start_read_txn ?(attempts = 0) ?fence t dest ~source ~tried acc =
    if dest <> t.owner then t.copyset <- NSet.add dest t.copyset;
    let fence = match fence with Some f -> f | None -> fresh_fence t in
    note_grant t dest fence;
    let timer = fresh_timer t in
    t.txn <- Read_flight { dest; source; timer; tried; attempts; fence };
    Start_timer { id = timer; after = t.cfg.request_timeout }
    :: Send (source, Fetch { dest; fence })
    :: sharers_hint t
    :: acc

  (* The displaced owner retires into the copyset: a hand-off that never
     reaches it leaves a copy a later round must revoke. *)
  let displace_owner t dest =
    if t.owner <> dest && t.owner <> t.cfg.self then
      t.copyset <- NSet.add t.owner t.copyset;
    t.owner <- dest;
    t.copyset <- NSet.remove dest t.copyset

  let start_own_transfer ?(attempts = 0) ?fence t dest ~source ~tried acc =
    displace_owner t dest;
    let fence = match fence with Some f -> f | None -> fresh_fence t in
    note_grant t dest fence;
    let timer = fresh_timer t in
    t.txn <- Own_flight { dest; source; timer; tried; attempts; fence };
    Start_timer { id = timer; after = t.cfg.request_timeout }
    :: Send (source, Fetch_own { dest; fence })
    :: sharers_hint t
    :: acc

  let await_done t dest mode grant fence acc =
    note_grant t dest fence;
    let timer = fresh_timer t in
    t.txn <-
      Await_done { dest; mode; timer; attempts = 0; regrant = Some grant; fence };
    Start_timer { id = timer; after = t.cfg.request_timeout }
    :: Send (dest, grant)
    :: acc

  let grant_from_backup ?fence t dest ~mode ~data ~version acc =
    (match mode with
     | Read -> if dest <> t.owner then t.copyset <- NSet.add dest t.copyset
     | Write -> displace_owner t dest);
    (* Write grants climb the version ladder on every attempt. *)
    let version = match mode with Read -> version | Write -> version + 1 in
    if mode = Write then t.backup <- Some (data, version);
    let fence = match fence with Some f -> f | None -> fresh_fence t in
    let grant =
      match mode with
      | Read -> Read_grant { data; version; fence }
      | Write -> Own_grant { data; version; fence }
    in
    await_done t dest mode grant fence (sharers_hint t :: acc)

  (* Once the copyset is clean, move ownership (or upgrade in place). *)
  let ownership_phase ?fence t dest acc =
    let fence = match fence with Some f -> f | None -> fresh_fence t in
    if t.owner = dest then await_done t dest Write (Upgrade_grant { fence }) fence acc
    else start_own_transfer ~fence t dest ~source:t.owner ~tried:NSet.empty acc

  (* What a round sends: CREW revokes, release carries the home's image. *)
  let send_round t waiting fence acc =
    let msg =
      match t.data with
      | Some data when not P.invalidates -> Update { data; version = t.ver }
      | Some _ | None -> Invalidate { fence }
    in
    NSet.fold (fun n acc -> Send (n, msg) :: acc) waiting acc

  let start_round t ~dest ~fence waiting acc =
    let timer = fresh_timer t in
    t.txn <- Round { dest; waiting; timer; attempts = 0; fence };
    send_round t waiting fence
      (Start_timer { id = timer; after = t.cfg.request_timeout } :: acc)

  (* CREW keeps [min_replicas] copies by queueing reads for replica targets,
     which receive unsolicited grants; queued ones count as holders, and
     suspects in [avoid] as neither holders nor candidates. *)
  let enqueue_replication ?(avoid = []) t =
    if t.cfg.min_replicas > 1 then begin
      let avoid = NSet.of_list avoid in
      let holders = NSet.add t.owner t.copyset in
      let queued = Queue.fold (fun acc (n, _) -> NSet.add n acc) NSet.empty t.hqueue in
      let prospective = NSet.diff (NSet.union holders queued) avoid in
      let missing = t.cfg.min_replicas - NSet.cardinal prospective in
      List.filter
        (fun n -> not (NSet.mem n holders || NSet.mem n queued || NSet.mem n avoid))
        t.cfg.replica_targets
      |> List.iteri (fun i n -> if i < missing then Queue.push (n, Read) t.hqueue)
    end

  (* Release pushes its image to the recruits instead. *)
  let push_replicas ?avoid t acc =
    match t.data with
    | None -> acc
    | Some data ->
      List.fold_left
        (fun acc n ->
          t.copyset <- NSet.add n t.copyset;
          Send (n, Update { data; version = t.ver }) :: acc)
        acc
        (Replica.replication_targets ?avoid t.cfg t.copyset)

  let rec pump_home t acc =
    match t.txn with
    | Idle when not (Queue.is_empty t.hqueue) -> (
      let dest, mode = Queue.pop t.hqueue in
      t.since <- t.fence + 1;
      match mode with
      | Write when not P.invalidates -> grant_token t dest acc
      | Read when not P.invalidates -> skip_and_update t acc
      | Write ->
        let fence = fresh_fence t in
        let to_invalidate = NSet.remove dest (NSet.remove t.owner t.copyset) in
        if NSet.is_empty to_invalidate then ownership_phase ~fence t dest acc
        else start_round t ~dest ~fence to_invalidate acc
      | Read when dest = t.owner -> (
        (* The owner asking to read lost a grant or its ack. *)
        match t.backup with
        | Some (data, version) -> grant_from_backup t dest ~mode:Read ~data ~version acc
        | None -> pump_home t acc)
      | Read ->
        (* Not from the backup: the fetch waits out the owner's write lock. *)
        start_read_txn t dest ~source:t.owner ~tried:NSet.empty acc)
    | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc

  and grant_token t dest acc =
    match t.data with
    | None -> pump_home t (Send (dest, Nack) :: acc)
    | Some data ->
      let fence = fresh_fence t in
      note_grant t dest fence;
      let timer = fresh_timer t in
      t.txn <- Await_done { dest; mode = Write; timer; attempts = 0; regrant = None; fence };
      (* [token_timeout]: the token waits for the writer's release. *)
      Start_timer { id = timer; after = 20 * t.cfg.request_timeout }
      :: Send (dest, Own_grant { data; version = t.ver; fence })
      :: acc

  and round_done t ~dest ~fence acc =
    if P.invalidates then ownership_phase ~fence t dest acc
    else begin
      t.txn <- Idle;
      pump_home t (push_replicas t acc)
    end

  (* Fan the home's image out to every copy but the writer's. *)
  and update_copies t ~writer acc =
    let waiting = NSet.remove writer (NSet.remove t.cfg.self t.copyset) in
    if NSet.is_empty waiting then round_done t ~dest:writer ~fence:t.fence acc
    else start_round t ~dest:writer ~fence:t.fence waiting acc

  (* A release token was reclaimed, or a write refused: the home writes its
     own image past any version that writer could mint, to every copy. *)
  and skip_and_update t acc =
    t.ver <- t.ver + 2;
    update_copies t ~writer:t.cfg.self acc

  let finish_txn t acc =
    t.txn <- Idle;
    enqueue_replication t;
    pump_home t (sharers_hint t :: acc)

  (* [src] is done with the current round: acked, evicted or suspected. *)
  let leave_round t src acc =
    match t.txn with
    | Round ({ dest; waiting; fence; _ } as r) when NSet.mem src waiting ->
      let waiting = NSet.remove src waiting in
      if NSet.is_empty waiting then round_done t ~dest ~fence acc
      else begin
        t.txn <- Round { r with waiting };
        acc
      end
    | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc

  (* The transaction's data source failed: try the next copy, the manager's
     own, then its backup. Reads get here on suspicion (every valid copy is
     current), writes only on evidence that the source holds no copy. *)
  let fail_over t ~dest ~mode ~tried acc =
    let nack acc =
      t.txn <- Idle;
      pump_home t (Send (dest, Nack) :: acc)
    in
    match alternate_sources t ~tried with
    | source :: _ when source = t.cfg.self -> (
      match (t.data, mode) with
      | Some data, Read -> grant_from_backup t dest ~mode:Read ~data ~version:t.ver acc
      | Some _, Write when dest = t.cfg.self ->
        (* Upgrade our own cache in place: surrendering its copy would let a
           stale decline discard the new grant's copy under a held lock. *)
        t.owner <- dest;
        ownership_phase t dest acc
      | Some data, Write ->
        (* Availability over freshness: the owner is unreachable. *)
        t.cstate <- Invalid;
        t.data <- None;
        grant_from_backup t dest ~mode:Write ~data ~version:t.ver (Discard :: acc)
      | None, _ -> (
        match t.backup with
        | Some (data, version) -> grant_from_backup t dest ~mode ~data ~version acc
        | None -> nack acc))
    | source :: _ -> (
      match mode with
      | Read -> start_read_txn t dest ~source ~tried acc
      | Write -> start_own_transfer t dest ~source ~tried acc)
    | [] -> (
      (* Recover from the backup, keeping the copyset: a partitioned holder
         keeps a copy only a later round can revoke. *)
      match t.backup with
      | Some (data, version) -> grant_from_backup t dest ~mode ~data ~version acc
      | None -> nack acc)

  (* ------------------------- Message handling ------------------------- *)

  (* At the home, a copyset that has not drained keeps the copy shared, so
     a local write still runs a real invalidation round. *)
  let claim_exclusive t =
    t.cstate <-
      (if is_home t && not (NSet.is_empty t.copyset) then
         Owned_shared
       else Owned_excl)

  (* A grant below our floor is a ghost: refuse it, and tell the manager we
     hold nothing, and our floor in case its counter restarted. *)
  let refuse_stale_grant t fence acc =
    t.locks.cache_req <- None;
    pump_local t
      (Send (t.cfg.home, Fence_bump { floor = t.floor })
      :: notice t fence acc)

  (* A node still holding a legitimate copy just drops a ghost write grant. *)
  let ghost_grant t fence acc =
    if t.cstate = Invalid then refuse_stale_grant t fence acc
    else Send (t.cfg.home, Fence_bump { floor = t.floor }) :: acc

  (* A release writer hands the token back with its image, for the home to
     fan out. *)
  let return_token t acc =
    t.cstate <- Shared;
    raise_floor t t.held;
    let data = Option.value t.data ~default:Bytes.empty in
    Send (t.cfg.home, Update { data; version = t.ver }) :: acc

  let satisfied t mode =
    if t.locks.cache_req = Some mode then t.locks.cache_req <- None

  (* Release's cache role: copies are replaced only by newer images, and
     never under the token, which a writer returns with its release. *)
  let release_cache_msg t src msg acc =
    match msg with
    | Read_grant { data; version; fence } ->
      satisfied t Read;
      if t.cstate = Invalid || (t.cstate = Shared && version >= t.ver) then begin
        t.cstate <- Shared;
        pump_local t (adopt t ~fence data version acc)
      end
      else pump_local t acc
    | Own_grant { data; version; fence } ->
      if fence < t.floor then Send (t.cfg.home, Fence_bump { floor = t.floor }) :: acc
      else if t.cstate = Owned_excl || version < t.ver then
        acc (* a duplicate, or a token the home has reclaimed since *)
      else begin
        satisfied t Write;
        t.cstate <- Owned_excl;
        let acc = pump_local t (adopt t ~fence data version acc) in
        (* A token nobody here waits for (a duplicate grant) goes back. *)
        if t.locks.Local_locks.writer then acc else return_token t acc
      end
    | Update { data; version } when not (is_home t) ->
      if version > t.ver then begin
        (* Newer than a token holder's own version only once the home has
           reclaimed the token: the holder's write is lost. *)
        t.cstate <- Shared;
        pump_local t (adopt t ~fence:t.held data version (Send (src, Update_ack { version }) :: acc))
      end
      else if t.cstate = Owned_excl then acc (* the return will answer *)
      else (
        match t.data with
        | Some own when t.minted && version < t.ver ->
          (* We hold a write the home never placed: show it. *)
          Send (src, Update { data = own; version = t.ver }) :: acc
        | Some _ | None -> Send (src, Update_ack { version = t.ver }) :: acc)
    | Nack -> pump_local t (Local_locks.reject_head t.locks "home has no data" acc)
    | _ -> acc

  let crew_cache_msg t src msg acc =
    match msg with
    | Read_grant { data; version; fence } ->
      if t.cstate = Invalid && fence < t.floor then refuse_stale_grant t fence acc
      else begin
        satisfied t Read;
        let acc =
          if t.cstate = Invalid then begin
            t.cstate <- Shared;
            adopt t ~fence data version acc
          end
          else acc (* duplicate/unsolicited while we hold a copy: keep ours *)
        in
        pump_local t (Send (t.cfg.home, Done { mode = Read; fence }) :: acc)
      end
    | Own_grant { data; version; fence } ->
      if t.cstate = Owned_excl then begin
        (* A re-sent grant: keep our data unless older, and re-ack. *)
        satisfied t Write;
        let acc = if version > t.ver then adopt t ~fence data version acc else acc in
        pump_local t (Send (t.cfg.home, Done { mode = Write; fence }) :: acc)
      end
      else if fence < t.floor then ghost_grant t fence acc
      else begin
        satisfied t Write;
        claim_exclusive t;
        let acc = adopt t ~fence data (max version t.ver) acc in
        pump_local t (Send (t.cfg.home, Done { mode = Write; fence }) :: acc)
      end
    | Upgrade_grant { fence } ->
      if fence < t.floor then ghost_grant t fence acc
      else if t.data <> None then begin
        satisfied t Write;
        claim_exclusive t;
        t.held <- fence;
        pump_local t (Send (t.cfg.home, Done { mode = Write; fence }) :: acc)
      end
      else
        (* Copy evicted between request and grant: decline the upgrade. *)
        notice t fence acc
    | Invalidate { fence } when fence < t.floor || (t.cstate <> Invalid && fence < t.held) ->
      (* A round older than our copy, or one we already answered: an ack
         now could be counted against a later round. *)
      Send (src, Fence_bump { floor = max t.floor (t.held + 1) }) :: acc
    | Invalidate { fence } ->
      if Local_locks.idle t.locks then pump_local t (do_invalidate t (src, fence) acc)
      else begin
        (* The CM "delays granting ... until the conflict is resolved": ack
           only after the local locks drain. *)
        t.pending_inval <- Some (src, fence);
        acc
      end
    | Fetch _ when not t.locks.Local_locks.writer -> serve_fetch t (src, msg) acc
    | Fetch_own _ when Local_locks.idle t.locks -> serve_fetch t (src, msg) acc
    | Fetch _ | Fetch_own _ ->
      (* Ownership moves only once every local lock is gone. The home's
         timer re-sends a fetch the lock holds up; queue it once. Served
         twice, the duplicate finds the floor past its fence, and its
         Fence_bump would restart a transfer that has finished. A
         duplicate arriving after the service still gets one: the grant
         may have been lost. *)
      if not (List.mem (src, msg) t.pending_fetches) then
        t.pending_fetches <- (src, msg) :: t.pending_fetches;
      acc
    | Nack -> pump_local t (Local_locks.reject_head t.locks "no reachable copy" acc)
    | _ -> acc (* manager-side traffic *)

  (* A write-through (a remote flush or a 2PC commit) at its release's
     version. The backup keeps the freshest, and so does a grant still being
     re-sent: its grantee may be the writer reborn without the write. *)
  let absorb_write_through t src data version acc =
    if version >= backup_version t then t.backup <- Some (data, version);
    (match t.txn with
     | Await_done ({ regrant = Some (Own_grant g); _ } as r) when version > g.version ->
       t.txn <- Await_done { r with regrant = Some (Own_grant { g with data; version }) }
     | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> ());
    if t.cstate = Invalid || version <= t.ver then acc
    else begin
      (* The books missed that writer, so every copy they list may be as
         old: revoke them all, the writer's too, with a write of our own. *)
      t.data <- Some data;
      t.ver <- version;
      if t.owner <> t.cfg.self then acc
      else begin
        if src <> t.cfg.self then t.copyset <- NSet.add src t.copyset;
        if t.cstate = Owned_excl then t.cstate <- Owned_shared;
        Queue.push (t.cfg.self, Write) t.hqueue;
        pump_home t acc
      end
    end

  let handle_home_msg t src msg acc =
    match msg with
    | Read_req when not P.invalidates -> (
      (* Release reads are served at once from the home's image. *)
      match t.data with
      | Some data ->
        let fence = fresh_fence t in
        note_grant t src fence;
        t.copyset <- NSet.add src t.copyset;
        Sharers_hint (NSet.elements (NSet.add t.cfg.self t.copyset))
        :: Send (src, Read_grant { data; version = t.ver; fence })
        :: acc
      | None -> Send (src, Nack) :: acc)
    | Read_req ->
      Queue.push (src, Read) t.hqueue;
      pump_home t acc
    | Write_req ->
      if not P.invalidates then t.copyset <- NSet.add src t.copyset;
      Queue.push (src, Write) t.hqueue;
      pump_home t acc
    | Invalidate_ack { fence } -> (
      match t.txn with
      | Round r when ack_matches ~sent:r.fence fence ->
        t.copyset <- NSet.remove src t.copyset;
        leave_round t src acc
      | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc)
    | Update_ack { version } -> (
      match t.txn with
      | Round _ when ack_matches ~sent:t.ver version -> leave_round t src acc
      | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc)
    | Done { mode = done_mode; fence = done_fence } -> (
      (* A Done answers this transaction's first grant or its latest. *)
      let ours fence = ack_matches ~sent:fence done_fence || ack_matches ~sent:t.since done_fence in
      match t.txn with
      | (Read_flight { dest; fence; _ } | Await_done { dest; mode = Read; fence; _ })
        when dest = src && done_mode = Read && ours fence ->
        if src <> t.owner then t.copyset <- NSet.add src t.copyset;
        finish_txn t acc
      | (Own_flight { dest; fence; _ } | Await_done { dest; mode = Write; fence; _ })
        when dest = src && done_mode = Write && ours fence ->
        t.owner <- src;
        t.copyset <- NSet.remove src t.copyset;
        finish_txn t acc
      | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc)
    | Evict_notify { fence } when stale_notice t src fence -> acc
    | Evict_notify _ -> (
      t.copyset <- NSet.remove src t.copyset;
      match t.txn with
      | Round _ -> leave_round t src acc
      | Read_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Read ~tried:(NSet.add src tried) acc
      | Own_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Write ~tried:(NSet.add src tried) acc
      | Await_done { dest; mode; _ } when dest = src && P.invalidates ->
        (* The grantee refused a ghost or lost its copy. *)
        if mode = Write then t.owner <- t.cfg.home;
        fail_over t ~dest ~mode ~tried:NSet.empty acc
      | Idle | Read_flight _ | Own_flight _ | Await_done _ -> acc)
    | Own_return { data; version } when src = t.owner -> (
      t.owner <- t.cfg.home;
      t.copyset <- NSet.remove t.cfg.home t.copyset;
      t.backup <- Some (data, version);
      t.cstate <- (if NSet.is_empty t.copyset then Owned_excl else Owned_shared);
      t.data <- Some data;
      t.ver <- max version t.ver;
      let acc = Install { data; dirty = true } :: acc in
      match t.txn with
      | Read_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Read ~tried:(NSet.add src tried) acc
      | Own_flight { dest; source; tried; _ } when source = src ->
        fail_over t ~dest ~mode:Write ~tried:(NSet.add src tried) acc
      | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> acc)
    | Update { data; version } when P.invalidates ->
      absorb_write_through t src data version acc
    | Update { data; version } -> (
      (* A release writer returns the token with its write. *)
      match t.txn with
      | Await_done { dest; fence; _ }
        when dest = src && version >= t.ver
             && (src <> t.cfg.self || (t.held = fence && t.cstate <> Owned_excl)) ->
        (* The home's cache shows whether it gave this grant back. A remote
           return that writes nothing may duplicate the writer's last one,
           so the round waits for the writer too. *)
        let writer = if version = t.ver then t.cfg.self else src in
        t.data <- Some data;
        t.ver <- version;
        update_copies t ~writer (Install { data; dirty = false } :: acc)
      | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ ->
        if version < t.ver || src = t.cfg.self then acc
        else begin
          (* A write the home cannot place (its token was reclaimed, or came
             back by a duplicate): correct its writer in turn. *)
          Queue.push (src, Read) t.hqueue;
          leave_round t src acc |> pump_home t
        end)
    | Fence_bump { floor } when floor > t.fence -> (
      (* Our counter restarted after a crash: jump past the dead epoch and
         restart the flight in progress under a fresh fence. *)
      t.fence <- floor;
      match t.txn with
      | Read_flight { dest; source; tried; _ } -> start_read_txn t dest ~source ~tried acc
      | Own_flight { dest; source; tried; _ } -> start_own_transfer t dest ~source ~tried acc
      | Await_done { dest; _ } when not P.invalidates -> grant_token t dest acc
      | Await_done { dest; mode; _ } -> fail_over t ~dest ~mode ~tried:NSet.empty acc
      | Round { dest; waiting; _ } -> start_round t ~dest ~fence:(fresh_fence t) waiting acc
      | Idle -> acc)
    | Read_grant _ | Own_grant _ | Upgrade_grant _ | Invalidate _ | Fetch _
    | Fetch_own _ | Nack | Own_return _ | Pull_req | Diff _ | Fence_bump _ ->
      acc

  let on_timeout t id acc =
    match t.txn with
    | Read_flight { timer; _ } | Round { timer; _ } | Own_flight { timer; _ }
    | Await_done { timer; _ }
      when timer <> id ->
      acc (* stale timer *)
    | Idle -> acc
    | Read_flight { dest; source; tried; attempts; fence; _ } ->
      if attempts < max_attempts then
        start_read_txn ~attempts:(attempts + 1) ~fence t dest ~source ~tried acc
      else fail_over t ~dest ~mode:Read ~tried:(NSet.add source tried) acc
    | Own_flight { dest; source; tried; attempts; fence; _ } ->
      (* Ownership never moves around a merely silent holder. *)
      start_own_transfer ~attempts:(min (attempts + 1) max_attempts) ~fence t
        dest ~source ~tried acc
    | Round ({ waiting; attempts; fence; _ } as r) ->
      (* Re-send forever: a sharer may defer its ack behind a held lock, or
         be partitioned and still serving its copy. *)
      let timer = fresh_timer t in
      t.txn <- Round { r with timer; attempts = min (attempts + 1) max_attempts };
      send_round t waiting fence
        (Start_timer { id = timer; after = t.cfg.request_timeout } :: acc)
    | Await_done { dest; fence; _ } when not P.invalidates ->
      (* The token holder fell silent: take the token back, and update its
         copy once the writers queued before it are done. Its write is
         lost. *)
      if dest = t.cfg.self then begin
        raise_floor t fence;
        if t.cstate = Owned_excl then t.cstate <- Shared
      end;
      Queue.push (dest, Read) t.hqueue;
      t.txn <- Idle;
      pump_home t acc
    | Await_done ({ dest; attempts; regrant; _ } as r) ->
      if attempts < max_attempts then begin
        (* The grant or its Done ack may have been lost: re-send. *)
        let timer = fresh_timer t in
        t.txn <- Await_done { r with timer; attempts = attempts + 1 };
        let acc = Start_timer { id = timer; after = t.cfg.request_timeout } :: acc in
        match regrant with Some grant -> Send (dest, grant) :: acc | None -> acc
      end
      else begin
        (* The books were updated at grant time. *)
        t.txn <- Idle;
        pump_home t (sharers_hint t :: acc)
      end

  (* ---------------------------- Entry point --------------------------- *)

  let release t mode data =
    Local_locks.drop t.locks mode;
    if P.invalidates then begin
      let acc =
        match (mode, data) with
        | Write, Some bytes when is_home t ->
          (* A home-local write passes through no manager transaction. *)
          t.data <- Some bytes;
          t.ver <- t.ver + 1;
          t.backup <- Some (bytes, t.ver);
          enqueue_replication t;
          pump_home t [ Install { data = bytes; dirty = true } ]
        | Write, Some bytes ->
          t.data <- Some bytes;
          t.ver <- t.ver + 1;
          [ Install { data = bytes; dirty = true } ]
        | (Read | Write), _ -> []
      in
      pump_local t (flush_deferred t acc)
    end
    else
      match (mode, data, t.data) with
      | Read, _, _ -> pump_local t []
      | Write, _, _ when t.cstate = Owned_excl ->
        let acc =
          match data with
          | Some bytes ->
            t.ver <- t.ver + 1;
            t.data <- Some bytes;
            t.minted <- true;
            [ Install { data = bytes; dirty = false } ]
          | None -> []
        in
        pump_local t (return_token t acc)
      | Write, Some _, Some current ->
        (* The home reclaimed its own token under this writer: undo. *)
        pump_local t [ Install { data = current; dirty = false } ]
      | Write, _, _ -> pump_local t []

  let handle t event =
    let acc =
      match event with
      | Acquire { req; mode } ->
        Local_locks.enqueue t.locks req mode;
        pump_local t []
      | Release { mode; data } -> release t mode data
      | Peer { src; msg } ->
        let acc =
          if P.invalidates then crew_cache_msg t src msg []
          else release_cache_msg t src msg []
        in
        if is_home t then handle_home_msg t src msg acc else acc
      | Evicted { data; dirty = _ } ->
        let was = t.cstate in
        if is_home t && not P.invalidates then
          (* The home's image is authoritative and outlives the store's. *)
          []
        else begin
          t.cstate <- Invalid;
          t.data <- None;
          t.pending_inval <- None;
          if is_home t then begin
            (* Only the manager's cached copy died; remember it as backup. *)
            t.backup <- Some (data, t.ver);
            []
          end
          else
            match was with
            | (Owned_shared | Owned_excl) when P.invalidates ->
              [ Send (t.cfg.home, Own_return { data; version = t.ver }) ]
            | Invalid when P.invalidates -> []
            | Invalid | Shared | Owned_shared | Owned_excl ->
              notice t t.held []
        end
      | Abort { req } ->
        Local_locks.abort t.locks req;
        pump_local t []
      | Timeout id -> if is_home t then on_timeout t id [] else []
      | Maintain { avoid } ->
        if not (is_home t) then []
        else if P.invalidates then begin
          enqueue_replication ~avoid t;
          pump_home t []
        end
        else if t.txn = Idle then push_replicas ~avoid t []
        else []
      | Unreachable { node } -> (
        (* A hint: it cuts a CREW read's retries short and lets a release
           round go on without the suspect, which keeps its copyset slot. *)
        if not (is_home t) then []
        else
          match t.txn with
          | Read_flight { dest; source; tried; _ } when source = node ->
            fail_over t ~dest ~mode:Read ~tried:(NSet.add node tried) []
          | Await_done { dest; _ } when dest = node && P.invalidates ->
            t.txn <- Idle;
            pump_home t [ sharers_hint t ]
          | Round _ when not P.invalidates -> leave_round t node []
          | Idle | Read_flight _ | Round _ | Own_flight _ | Await_done _ -> [])
      | Reincarnate { version; sharers } ->
        if not (is_home t) then []
        else begin
          t.ver <- max t.ver version;
          List.iter
            (fun n -> if n <> t.cfg.self then t.copyset <- NSet.add n t.copyset)
            sharers;
          if not P.invalidates then []
          else begin
            if t.backup = None then t.backup <- Option.map (fun d -> (d, t.ver)) t.data;
            (match sharers with
             | owner :: _ when owner <> t.cfg.self ->
               (* Re-adopt the remote owner: our disk image may predate its
                  writes, so our copy is only one of its readers'. *)
               t.owner <- owner;
               t.copyset <- NSet.remove owner t.copyset;
               if t.cstate <> Invalid then begin
                 t.cstate <- Shared;
                 t.copyset <- NSet.add t.cfg.self t.copyset
               end
             | _ :: _ | [] ->
               (* Inherited sharers make the home's copy shared. *)
               if (not (NSet.is_empty t.copyset)) && t.cstate = Owned_excl then
                 t.cstate <- Owned_shared);
            pump_home t [ sharers_hint t ]
          end
        end
    in
    List.rev acc

  (* No version history and no publish path. *)
  let read_at _ _ = None
  let publish _ ~src:_ ~parent:_ ~expected:_ ~payload:_ = (Publish_unsupported, [])
end
