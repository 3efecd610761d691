(** Release consistency — eager write-update.

    Khazana uses this protocol for its own address-map tree nodes: replicas
    may serve slightly stale reads, while writes are serialised by a write
    token and propagated to every replica when the writer releases its lock
    (Gharachorloo et al. style, eager flavour as in Munin).

    Roles: the *home* holds the authoritative copy, grants the write token
    FIFO and fans updates out to the copyset. Replicas serve local reads
    from whatever version they hold; a node with no copy fetches one from
    home on first use. *)

open Types
module NSet = Replica.NSet

type home_phase =
  | H_idle
  | H_granted of { writer : node_id; timer : timer_id }
      (** token out; waiting for the writer's update (or its demise) *)
  | H_updating of { waiting : NSet.t; timer : timer_id }
      (** fan-out in progress; token logically free but serialised *)

type t = {
  cfg : config;
  (* cache role *)
  mutable data : bytes option;
  mutable ver : version;
  mutable has_token : bool;
  locks : Local_locks.t;
  (* home role *)
  mutable copyset : NSet.t;  (* replica sites, excluding home *)
  wqueue : node_id Queue.t;  (* writers waiting for the token *)
  mutable phase : home_phase;
  mutable next_timer : int;
}

let name = "release"

let create cfg init =
  let data, ver =
    match init with Start_unknown -> (None, 0) | Start_owner b -> (Some b, 1)
  in
  {
    cfg;
    data;
    ver;
    has_token = false;
    locks = Local_locks.create ();
    copyset = NSet.empty;
    wqueue = Queue.create ();
    phase = H_idle;
    next_timer = 0;
  }

let state_name t =
  match (t.data, t.has_token) with
  | None, _ -> "invalid"
  | Some _, true -> "replica+token"
  | Some _, false -> "replica"

let has_valid_copy t = t.data <> None
let locks_held t = Local_locks.held t.locks
let version t = t.ver
let backup_version _ = 0
let is_home t = t.cfg.self = t.cfg.home

let holders t =
  if is_home t && t.data <> None then
    NSet.elements (NSet.add t.cfg.self t.copyset)
  else []

let busy t = is_home t && t.phase <> H_idle

let fresh_timer t =
  t.next_timer <- t.next_timer + 1;
  t.next_timer

(* A write token grant waits for the writer's release; give it room. *)
let token_timeout t = 20 * t.cfg.request_timeout

let state_allows t = function
  | Read -> t.data <> None
  | Write -> t.has_token && t.data <> None

let pump_local t acc =
  Local_locks.pump t.locks ~allows:state_allows
    ~ask:Local_locks.request_for ~home:t.cfg.home t acc

(* ---- home role ---- *)

let replica_fanout_targets t = NSet.elements (NSet.remove t.cfg.self t.copyset)

(* Ensure min_replicas by counting home's authoritative copy plus the
   copyset; missing replicas are created by pushing the current data.
   [avoid] names suspected nodes: they neither count as live replicas nor
   qualify as push targets. *)
let replication_pushes ?avoid t acc =
  match t.data with
  | None -> acc
  | Some data ->
    List.fold_left
      (fun acc n ->
        t.copyset <- NSet.add n t.copyset;
        Send (n, Update { data; version = t.ver }) :: acc)
      acc
      (Replica.replication_targets ?avoid t.cfg t.copyset)

let rec grant_next_writer t acc =
  match t.phase with
  | H_idle when not (Queue.is_empty t.wqueue) -> (
    let writer = Queue.pop t.wqueue in
    match t.data with
    | None ->
      (* Nothing allocated yet; cannot hand out a token without data. *)
      grant_next_writer t (Send (writer, Nack) :: acc)
    | Some data ->
      let timer = fresh_timer t in
      t.phase <- H_granted { writer; timer };
      Start_timer { id = timer; after = token_timeout t }
      :: Send (writer, Own_grant { data; version = t.ver; fence = 0 })
      :: acc)
  | H_idle | H_granted _ | H_updating _ -> acc

let begin_fanout t ~from acc =
  let targets = List.filter (fun n -> n <> from) (replica_fanout_targets t) in
  match t.data with
  | None -> grant_next_writer t acc
  | Some data ->
    if targets = [] then grant_next_writer t (replication_pushes t acc)
    else begin
      let timer = fresh_timer t in
      t.phase <- H_updating { waiting = NSet.of_list targets; timer };
      List.fold_left
        (fun acc n -> Send (n, Update { data; version = t.ver }) :: acc)
        (Start_timer { id = timer; after = t.cfg.request_timeout } :: acc)
        targets
    end

let handle_home_msg t src msg acc =
  match msg with
  | Read_req ->
    let copyset, acc = Replica.serve_read t.cfg t.copyset ~src t.data t.ver acc in
    t.copyset <- copyset;
    acc
  | Write_req ->
    Queue.push src t.wqueue;
    t.copyset <- NSet.add src t.copyset;
    grant_next_writer t acc
  | Update { data; version } -> (
    match t.phase with
    | H_granted { writer; _ } when writer = src ->
      t.data <- Some data;
      t.ver <- version;
      t.phase <- H_idle;
      begin_fanout t ~from:src (Install { data; dirty = false } :: acc)
    | H_idle | H_granted _ | H_updating _ ->
      (* Late or duplicate update: adopt if newer, no fan-out storm. *)
      if version > t.ver then begin
        t.data <- Some data;
        t.ver <- version;
        Install { data; dirty = false } :: acc
      end
      else acc)
  | Update_ack -> (
    match t.phase with
    | H_updating { waiting; timer } ->
      let waiting = NSet.remove src waiting in
      if NSet.is_empty waiting then begin
        t.phase <- H_idle;
        grant_next_writer t (replication_pushes t acc)
      end
      else begin
        t.phase <- H_updating { waiting; timer };
        acc
      end
    | H_idle | H_granted _ -> acc)
  | Evict_notify ->
    t.copyset <- NSet.remove src t.copyset;
    (match t.phase with
     | H_updating { waiting; timer } when NSet.mem src waiting ->
       let waiting = NSet.remove src waiting in
       if NSet.is_empty waiting then begin
         t.phase <- H_idle;
         grant_next_writer t (replication_pushes t acc)
       end
       else begin
         t.phase <- H_updating { waiting; timer };
         acc
       end
     | H_idle | H_granted _ | H_updating _ -> acc)
  | Pull_req -> (
    match t.data with
    | Some data -> Send (src, Update { data; version = t.ver }) :: acc
    | None -> acc)
  | Read_grant _ | Own_grant _ | Upgrade_grant _ | Invalidate _ | Invalidate_ack
  | Fetch _ | Fetch_own _ | Done _ | Nack | Own_return _ | Diff _
  | Fence_bump _ ->
    acc

let on_timeout t id acc =
  match t.phase with
  | H_granted { writer = _; timer } when timer = id ->
    (* Writer died with the token; reclaim it. Its un-released writes are
       lost, as they would be in the paper's design. *)
    t.phase <- H_idle;
    grant_next_writer t acc
  | H_updating { waiting; timer } when timer = id ->
    (* Unresponsive replicas are presumed crashed: drop them. *)
    t.copyset <- NSet.diff t.copyset waiting;
    t.phase <- H_idle;
    grant_next_writer t (replication_pushes t acc)
  | H_idle | H_granted _ | H_updating _ -> acc

(* ---- cache role ---- *)

let handle_cache_msg t src msg acc =
  match msg with
  | Read_grant { data; version; _ } ->
    if t.locks.cache_req = Some Read then t.locks.cache_req <- None;
    if version >= t.ver || t.data = None then begin
      t.data <- Some data;
      t.ver <- version
    end;
    pump_local t (Install { data; dirty = false } :: acc)
  | Own_grant { data; version; _ } ->
    if t.locks.cache_req = Some Write then t.locks.cache_req <- None;
    t.has_token <- true;
    if version >= t.ver || t.data = None then begin
      t.data <- Some data;
      t.ver <- version
    end;
    pump_local t (Install { data; dirty = false } :: acc)
  | Update { data; version } ->
    let newer = version > t.ver || (version = t.ver && src > t.cfg.self) in
    let acc = Send (src, Update_ack) :: acc in
    if newer && not t.has_token then begin
      t.data <- Some data;
      t.ver <- version;
      pump_local t (Install { data; dirty = false } :: acc)
    end
    else acc
  | Nack -> pump_local t (Local_locks.reject_head t.locks "home has no data" acc)
  | Read_req | Write_req | Upgrade_grant _ | Invalidate _ | Invalidate_ack
  | Fetch _ | Fetch_own _ | Done _ | Evict_notify | Own_return _
  | Update_ack | Pull_req | Diff _ | Fence_bump _ ->
    acc

let handle t event =
  let acc =
    match event with
    | Acquire { req; mode } ->
      Local_locks.enqueue t.locks req mode;
      pump_local t []
    | Release { mode; data } -> (
      Local_locks.drop t.locks mode;
      match mode with
      | Read -> pump_local t []
      | Write ->
        let acc =
          match data with
          | Some bytes ->
            t.ver <- t.ver + 1;
            t.data <- Some bytes;
            [ Install { data = bytes; dirty = false } ]
          | None -> []
        in
        (* The release returns the token along with the update. *)
        if t.has_token && not t.locks.Local_locks.writer then begin
          t.has_token <- false;
          let bytes = Option.value data ~default:(Option.value t.data ~default:Bytes.empty) in
          pump_local t (Send (t.cfg.home, Update { data = bytes; version = t.ver }) :: acc)
        end
        else pump_local t acc)
    | Peer { src; msg } ->
      (* Update/Update_ack belong to the home role at the home node; the
         cache role must not pre-absorb (or spuriously ack) them. *)
      if is_home t then
        (match msg with
         | Read_req | Write_req | Update _ | Update_ack | Evict_notify
         | Pull_req ->
           handle_home_msg t src msg []
         | Read_grant _ | Own_grant _ | Upgrade_grant _ | Invalidate _
         | Invalidate_ack | Fetch _ | Fetch_own _ | Done _ | Nack
         | Own_return _ | Diff _ | Fence_bump _ ->
           handle_cache_msg t src msg [])
      else handle_cache_msg t src msg []
    | Evicted { data = _; dirty = _ } ->
      if is_home t then
        (* The home's machine copy is authoritative and survives local
           page-store victimisation; only remote replicas disappear. *)
        []
      else begin
        t.data <- None;
        t.has_token <- false;
        [ Send (t.cfg.home, Evict_notify) ]
      end
    | Abort { req } ->
      Local_locks.abort t.locks req;
      pump_local t []
    | Timeout id -> if is_home t then on_timeout t id [] else []
    | Maintain { avoid } ->
      if is_home t && t.phase = H_idle then replication_pushes ~avoid t []
      else []
    | Unreachable { node } ->
      (* Suspected peer: stop waiting for its update ack, but keep it in
         the copyset — a partitioned replica still holds data and should
         receive future fan-outs once it heals. *)
      if is_home t then (
        match t.phase with
        | H_updating { waiting; timer } when NSet.mem node waiting ->
          let waiting = NSet.remove node waiting in
          if NSet.is_empty waiting then begin
            t.phase <- H_idle;
            grant_next_writer t (replication_pushes t [])
          end
          else begin
            t.phase <- H_updating { waiting; timer };
            []
          end
        | H_idle | H_granted _ | H_updating _ -> [])
      else []
    | Reincarnate { version; sharers } ->
      if is_home t then begin
        if version > t.ver then t.ver <- version;
        List.iter
          (fun n -> if n <> t.cfg.self then t.copyset <- NSet.add n t.copyset)
          sharers;
        []
      end
      else []
  in
  List.rev acc

(* Release consistency has no version history; writes propagate at release
   time through the lock protocol, not through MVCC publishes. *)
let read_at _ _ = None
let publish _ ~src:_ ~parent:_ ~expected:_ ~payload:_ =
  (Types.Publish_unsupported, [])
