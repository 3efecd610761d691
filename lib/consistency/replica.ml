(** The optimistic-replica core shared by eventual, write-shared and
    versioned.

    All three grant locks locally against whatever copy is present, fetch a
    copy from the home on first touch, and let the home push full images to
    its copyset on a batching timer. They differ only in what a write
    release ships and in how the home absorbs it; {!POLICY} is that
    difference and {!Make} turns a policy into a {!Machine_intf.MACHINE}.

    One rule holds for every policy: bytes absorbed from a peer never reach
    the page store while a local writer holds the page. The store copy is
    the writer's working image until its release, which installs the merged
    result. Meanwhile [stored] remembers the image the store still holds. *)

open Types
module NSet = Set.Make (Int)

(* Versions are totally ordered with the writer baked into the low byte:
   [(counter << 8) | origin]. Comparing plain ints then implements
   last-writer-wins with a deterministic origin tiebreak, and the order
   survives relaying through the home. *)
let next_version ~current ~origin =
  (((current lsr 8) + 1) lsl 8) lor (origin land 0xFF)

(* The home's batching period for eventual and versioned fan-out;
   write-shared's full sync runs every fourth one. *)
let propagate_every = Ksim.Time.ms 100

type 'x t = {
  mutable cfg : config;
  (* cache role *)
  mutable data : bytes option;
  mutable ver : version;
  locks : Local_locks.t;
  mutable stored : (bytes * bool) option;
      (** [Some (img, dirty)] while the page store lags [data]: absorbs
          made under the local write lock moved [data] past [img], the last
          image installed, until the write's release installs the merge.
          [dirty] when one of them must reach the intent log. *)
  (* home role *)
  mutable copyset : NSet.t;
  period : Ksim.Time.t;  (** from a home-side change to its fan-out *)
  mutable fanout_armed : bool;
  mutable fanout_pending : bool;
  mutable next_timer : int;
  mutable extra : 'x;  (** policy state *)
}

let is_home t = t.cfg.self = t.cfg.home
let writer_held t = t.locks.Local_locks.writer

(* Fetch on miss: a node only blocks when it has no copy at all. *)
let has_copy t _ = t.data <> None

let pump_local t acc =
  Local_locks.pump t.locks ~allows:has_copy
    ~ask:(fun _ -> Read_req) ~home:t.cfg.home t acc

(* Take [img] as the local copy. The store follows at once unless a local
   writer holds the page. *)
let refresh ?(dirty = false) t img acc =
  if writer_held t then begin
    (match (t.stored, t.data) with
     | Some (seen, was), _ -> t.stored <- Some (seen, was || dirty)
     | None, Some seen -> t.stored <- Some (seen, dirty)
     | None, None -> ());
    t.data <- Some img;
    acc
  end
  else begin
    t.data <- Some img;
    Install { data = img; dirty } :: acc
  end

let adopt t img version acc =
  t.ver <- version;
  refresh t img acc

(* Home-side: mark a fan-out due and arm the batching timer if idle. *)
let arm_fanout t acc =
  t.fanout_pending <- true;
  if t.fanout_armed then acc
  else begin
    t.fanout_armed <- true;
    t.next_timer <- t.next_timer + 1;
    Start_timer { id = t.next_timer; after = t.period } :: acc
  end

(* Last-writer-wins absorb of a whole image at the home. *)
let lww t img version acc =
  if version > t.ver then arm_fanout t (adopt t img version acc) else acc

(* Nodes to push a copy to so the page has [min_replicas] holders.
   Suspected nodes ([avoid]) count as neither replicas nor candidates.
   Release consistency tops up its copyset with the same rule. *)
let replication_targets ?(avoid = []) cfg copyset =
  if cfg.min_replicas <= 1 then []
  else begin
    let avoid_set = NSet.of_list avoid in
    let live = NSet.diff (NSet.remove cfg.self copyset) avoid_set in
    let missing = cfg.min_replicas - (1 + NSet.cardinal live) in
    if missing <= 0 then []
    else
      List.filteri
        (fun i _ -> i < missing)
        (List.filter
           (fun n ->
             n <> cfg.self
             && (not (NSet.mem n copyset))
             && not (NSet.mem n avoid_set))
           cfg.replica_targets)
  end

(* Home-side: recruit replicas up to [min_replicas] into the copyset, then
   push the current image to [targets recruits] (the recruits, or all). *)
let push_image ?avoid t targets =
  match t.data with
  | None -> []
  | Some data ->
    let recruits = replication_targets ?avoid t.cfg t.copyset in
    List.iter (fun n -> t.copyset <- NSet.add n t.copyset) recruits;
    List.rev_map
      (fun n -> Send (n, Update { data; version = t.ver }))
      (targets recruits)

module type POLICY = sig
  type extra

  val name : string

  val init : bytes option -> extra
  (** Policy state at creation, given the home's initial image. *)

  val period : Ksim.Time.t
  (** Delay from a home-side change to its full-image fan-out. *)

  val fresh : extra t -> version -> bool
  (** Cache side: does a fanned-out [Update] at this version replace the
      local copy? *)

  val absorb : extra t -> src:node_id -> msg -> action list -> action list
  (** An [Update] at the home, or a [Diff] at either role. *)

  val release : extra t -> bytes -> action list -> action list
  (** A write lock was dropped with this page image; the local lock is
      already released. Ships the write and installs the merged image. *)

  val restart : extra t -> unit
  (** The home was rebuilt after a crash and adopted a newer version. *)
end

module Make (P : POLICY) = struct
  type nonrec t = P.extra t

  let name = P.name

  let create cfg init =
    let data, ver =
      match init with Start_unknown -> (None, 0) | Start_owner b -> (Some b, 1)
    in
    {
      cfg;
      data;
      ver;
      locks = Local_locks.create ();
      stored = None;
      copyset = NSet.empty;
      period = P.period;
      fanout_armed = false;
      fanout_pending = false;
      next_timer = 0;
      extra = P.init data;
    }

  let state_name t = if t.data = None then "invalid" else "replica"
  let has_valid_copy t = t.data <> None
  let locks_held t = Local_locks.held t.locks
  let version t = t.ver
  let backup_version _ = 0

  let holders t =
    if is_home t && t.data <> None then
      NSet.elements (NSet.add t.cfg.self t.copyset)
    else []

  let busy _ = false
  let read_at _ _ = None

  let publish _ ~src:_ ~parent:_ ~expected:_ ~payload:_ =
    (Publish_unsupported, [])

  let release t mode written =
    Local_locks.drop t.locks mode;
    let acc =
      match (mode, written, t.data, t.stored) with
      | Write, Some img, _, _ ->
        let acc = P.release t img [] in
        t.stored <- None;
        acc
      | Write, None, Some data, Some (_, dirty) ->
        (* Nothing written, but absorbs waited on the lock. *)
        t.stored <- None;
        [ Install { data; dirty } ]
      | (Read | Write), _, _, _ -> []
    in
    pump_local t acc

  let handle_msg t src msg =
    match msg with
    | Read_req when is_home t -> (
      (* The fetching replica joins the copyset. *)
      match t.data with
      | Some data ->
        t.copyset <- NSet.add src t.copyset;
        [ Sharers_hint (NSet.elements (NSet.add t.cfg.self t.copyset));
          Send (src, Read_grant { data; version = t.ver; fence = 0 }) ]
      | None -> [ Send (src, Nack) ])
    | Pull_req when is_home t -> (
      match t.data with
      | Some data -> [ Send (src, Update { data; version = t.ver }) ]
      | None -> [])
    | Evict_notify _ when is_home t ->
      t.copyset <- NSet.remove src t.copyset;
      []
    | Update _ when is_home t -> P.absorb t ~src msg []
    | Diff _ -> P.absorb t ~src msg []
    | Update { data; version } ->
      if P.fresh t version then pump_local t (adopt t data version []) else []
    | Read_grant { data; version; _ } ->
      t.locks.cache_req <- None;
      if t.data = None || version > t.ver then
        pump_local t (adopt t data version [])
      else pump_local t []
    | Nack -> pump_local t (Local_locks.reject_head t.locks "home has no data" [])
    | Read_req | Pull_req | Evict_notify _ | Write_req | Own_grant _
    | Upgrade_grant _ | Invalidate _ | Invalidate_ack _ | Fetch _ | Fetch_own _
    | Done _ | Own_return _ | Update_ack _ | Fence_bump _ ->
      []

  let handle t event =
    let acc =
      match event with
      | Acquire { req; mode } ->
        Local_locks.enqueue t.locks req mode;
        pump_local t []
      | Release { mode; data } -> release t mode data
      | Peer { src; msg } -> handle_msg t src msg
      | Evicted _ ->
        if is_home t then []
        else begin
          t.data <- None;
          t.stored <- None;
          [ Send (t.cfg.home, Evict_notify { fence = 0 }) ]
        end
      | Abort { req } ->
        Local_locks.abort t.locks req;
        pump_local t []
      | Timeout _ ->
        if is_home t && t.fanout_armed then begin
          t.fanout_armed <- false;
          let due = t.fanout_pending in
          t.fanout_pending <- false;
          if due then
            push_image t (fun _ ->
                NSet.elements (NSet.remove t.cfg.self t.copyset))
          else []
        end
        else []
      | Maintain { avoid } -> if is_home t then push_image ~avoid t Fun.id else []
      | Set_floor { min_replicas } ->
        t.cfg <- { t.cfg with min_replicas };
        []
      | Unreachable _ ->
        (* Fan-outs to a suspect just drop; nothing here waits on acks, and
           a partitioned replica keeps its copyset slot. *)
        []
      | Reincarnate { version; sharers } ->
        if is_home t then begin
          if version > t.ver then begin
            t.ver <- version;
            P.restart t
          end;
          List.iter
            (fun n -> if n <> t.cfg.self then t.copyset <- NSet.add n t.copyset)
            sharers
        end;
        []
    in
    List.rev acc
end
