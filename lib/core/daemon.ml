module Gaddr = Kutil.Gaddr
module U128 = Kutil.U128
module Ctypes = Kconsistency.Types
module Machine = Kconsistency.Machine_intf
module Topology = Knet.Topology
module Store = Kstorage.Page_store
module Wal = Kstorage.Wal
module Codec = Kutil.Codec
module Txid = Kutil.Txid
module Trace = Ktrace.Trace
module Op_ctx = Ktrace.Op_ctx
module Metrics = Ktrace.Metrics

type config = {
  rdir_capacity : int;
  ram_pages : int;
  disk_pages : int;
  lock_timeout : Ksim.Time.t;
  lock_retries : int;
  rpc_timeout : Ksim.Time.t;
  request_timeout : Ksim.Time.t;
  report_every : Ksim.Time.t;
  background_retry_every : Ksim.Time.t;
  retry_backoff_cap : Ksim.Time.t;
  suspect_after : Ksim.Time.t;
  repair_every : Ksim.Time.t;
  wal_checkpoint_every : int;
  acquire_window : int;
  txn_resolve_after : Ksim.Time.t;
  version_chain_depth : int;
  diff_density_max : float;
}

let default_config =
  {
    rdir_capacity = 128;
    ram_pages = 256;
    disk_pages = 65_536;
    lock_timeout = Ksim.Time.sec 2;
    lock_retries = 3;
    rpc_timeout = Ksim.Time.ms 500;
    request_timeout = Ksim.Time.ms 200;
    report_every = Ksim.Time.ms 500;
    background_retry_every = Ksim.Time.ms 250;
    retry_backoff_cap = Ksim.Time.sec 2;
    (* Three missed reports before a member is suspected. *)
    suspect_after = Ksim.Time.ms 1500;
    repair_every = Ksim.Time.ms 500;
    wal_checkpoint_every = 512;
    (* Pages per concurrent acquisition wave in a multi-page lock; 1
       recovers the old fully-sequential behaviour. *)
    acquire_window = 16;
    (* How long a participant sits on a prepared-but-undecided transaction
       before it starts asking the coordinator what happened. Long enough
       that a healthy 2PC round never triggers it. *)
    txn_resolve_after = Ksim.Time.sec 3;
    (* Versioned CM: immutable versions retained per page at the home. *)
    version_chain_depth = 8;
    (* Versioned CM: publish dirty runs only while they cover at most this
       fraction of the page; denser writes ship the whole image (runs would
       cost more than they save once per-run framing is paid). *)
    diff_density_max = 0.5;
  }

type error = Error.t

let error_to_string = Error.to_string

type lookup_stats = {
  homed_hits : int;
  rdir_hits : int;
  cluster_hits : int;
  map_walks : int;
  map_walk_depth_total : int;
  cluster_walks : int;  (* resolved by walking peer cluster managers *)
  failures : int;
}

type slot = { region : Region.t; packed : Machine.packed }

type lock_ctx = {
  ctx_id : int;
  ctx_op : Op_ctx.t;  (* the client operation this lock belongs to *)
  ctx_region : Region.t;
  ctx_addr : Gaddr.t;
  ctx_len : int;
  ctx_mode : Ctypes.mode;
  ctx_pages : Gaddr.t list;
  ctx_written : unit Gaddr.Table.t;
  ctx_parents : Ctypes.version Gaddr.Table.t;
      (* versioned regions, Write mode: the home version each page was at
         when the lock was granted — the parent a diff publish applies
         against *)
  mutable ctx_expected : Ctypes.version option;
      (* versioned CAS ({!write_cas}): publish only if the home is still at
         exactly this version *)
  mutable ctx_publish : (unit, error) result;
      (* outcome of the versioned publish unlock performs; [write_sync] and
         [write_cas] surface it to the caller *)
  mutable ctx_live : bool;
}

(* Participant-side record of a prepared (voted-yes, undecided) global
   transaction: the page images to apply on commit, and bookkeeping for the
   presumed-abort resolver. *)
type prepared = {
  p_pages : (Gaddr.t * bytes) list;
  mutable p_since : Ksim.Time.t;    (* when prepared / last status attempt *)
  mutable p_querying : bool;        (* a status query fiber is in flight *)
}

(* A committed 2PC page image the home has installed in its store but not
   yet reconciled with the consistency machine. When the coordinator is
   alive its write-lock release propagates the very same image through the
   CM (the matching [Install] clears the pin); when the coordinator died
   holding the locks, the pin goes overdue and the maintenance loop
   re-writes the image through a local write lock — riding the CM's own
   dead-owner fail-over — so reads stop serving the machine's stale
   pre-transaction copy. *)
type pin = {
  pin_img : bytes;
  mutable pin_since : Ksim.Time.t;
  mutable pin_busy : bool;          (* a repair fiber is in flight *)
}

type t = {
  id : Topology.node_id;
  cfg : config;
  transport : Wire.Transport.t;
  engine : Ksim.Engine.t;
  topology : Topology.t;
  bootstrap : Topology.node_id;
  cluster_manager : Topology.node_id;
  peer_managers : Topology.node_id list;  (* other clusters' managers *)
  store : Store.t;
  wal : Wal.t;
  rdir : Region_directory.t;
  pdir : Page_directory.t;
  homed : Region.t Gaddr.Table.t;
  machines : slot Gaddr.Table.t;
  pending : (int, (unit, error) result Ksim.Promise.t) Hashtbl.t;
  mutable next_req : int;
  mutable next_ctx : int;
  mutable pool : (Gaddr.t * int) list;
  mutable up : bool;
  mutable epoch : int;  (* bumped on crash: fences stale timers/fibers *)
  cm_state : Cluster.t option;
  rng : Kutil.Rng.t;  (* seeded from the engine: jitter stays deterministic *)
  (* Failure detector: the local view of who is currently unresponsive.
     Fed by cluster-manager hints (heartbeat ageing) and by our own RPC
     timeouts; cleared by any direct sign of life. *)
  suspected : (Topology.node_id, unit) Hashtbl.t;
  strikes : (Topology.node_id, int) Hashtbl.t;  (* consecutive rpc timeouts *)
  mutable last_hint : Topology.node_id list;  (* manager: last broadcast *)
  metrics : Metrics.t;
  mutable stats : lookup_stats;
  (* --- distributed atomic commit (2PC over the WAL) --- *)
  mutable next_txn_seq : int;  (* per-epoch coordinator sequence numbers *)
  txn_prepared : prepared Txid.Table.t;  (* participant: voted, undecided *)
  txn_decided : bool Txid.Table.t;  (* decisions seen (duplicate = no-op) *)
  txn_decisions : Topology.node_id list Txid.Table.t;
      (* coordinator: committed decisions with participants still owed the
         decision message; forgotten once every ack is in *)
  txn_active : unit Txid.Table.t;
      (* coordinator: transactions inside their voting window. In-memory
         only, deliberately: after a crash nothing here survives, so a
         status query for a pre-crash transaction answers "aborted" —
         which is sound, because the epoch fence keeps the dead commit
         fiber from ever logging its decision. *)
  txn_pins : pin Gaddr.Table.t;  (* home: committed images awaiting CM sync *)
  mutable txn_last : Txid.t option;  (* last id minted here (tests) *)
  mutable txn_hook : (string -> unit) option;  (* nemesis crash points *)
  (* --- MVCC snapshots (versioned regions) --- *)
  mutable next_snap : int;
  snapshots : (int, Ctypes.version Gaddr.Table.t) Hashtbl.t;
      (* snapshot id -> per-page pinned version. Pins are taken lazily at
         first touch ("latest settled" per page); in-memory only, a crash
         expires every open snapshot. *)
}

let id t = t.id
let engine t = t.engine
let is_up t = t.up
let region_directory t = t.rdir
let page_directory t = t.pdir
let store t = t.store
let wal t = t.wal

let set_disk_faults t faults =
  Store.set_faults t.store faults;
  Wal.set_faults t.wal faults
let cluster_state t = t.cm_state
let lookup_stats t = t.stats
let metrics t = t.metrics

let reset_lookup_stats t =
  t.stats <-
    { homed_hits = 0; rdir_hits = 0; cluster_hits = 0; map_walks = 0;
      map_walk_depth_total = 0; cluster_walks = 0; failures = 0 }

let homed_regions t = Gaddr.Table.fold (fun _ r acc -> r :: acc) t.homed []
let pool_bytes t = List.fold_left (fun acc (_, len) -> acc + len) 0 t.pool

let machine_state t page =
  Option.map (fun s -> Machine.packed_state_name s.packed) (Gaddr.Table.find_opt t.machines page)

(* 2PC introspection and fault-injection seam (tests / nemesis). *)
let set_txn_hook t hook = t.txn_hook <- hook
let last_txid t = t.txn_last
let txn_prepared_count t = Txid.Table.length t.txn_prepared
let txn_undelivered_decisions t = Txid.Table.length t.txn_decisions

let txn_step t step = match t.txn_hook with Some f -> f step | None -> ()
let alive t epoch = t.up && t.epoch = epoch

(* Regions under the MVCC protocol take the publish path on release
   instead of the data-carrying Release / CREW write-through. *)
let versioned_region (region : Region.t) =
  region.Region.attr.Attr.protocol = Kconsistency.Versioned.name

let holds_page t page =
  match Gaddr.Table.find_opt t.machines page with
  | Some s -> Machine.packed_has_valid_copy s.packed
  | None -> false

(* ------------------------------------------------------------------ *)
(* Failure detector                                                    *)
(* ------------------------------------------------------------------ *)

let suspects t =
  Hashtbl.fold (fun n () acc -> n :: acc) t.suspected [] |> List.sort compare

let is_suspect t n = Hashtbl.mem t.suspected n

let suspect t n =
  if n <> t.id && not (Hashtbl.mem t.suspected n) then begin
    Hashtbl.replace t.suspected n ();
    Metrics.incr t.metrics "fd.suspect"
  end

(* Any direct sign of life trumps hints and strikes. *)
let clear_suspect t n =
  Hashtbl.remove t.strikes n;
  if Hashtbl.mem t.suspected n then begin
    Hashtbl.remove t.suspected n;
    Metrics.incr t.metrics "fd.clear"
  end

(* One RPC timeout is weak evidence (the peer may be slow, the reply may
   have been lost); two in a row with nothing heard in between is enough
   to suspect. *)
let strike t n =
  let k = 1 + Option.value (Hashtbl.find_opt t.strikes n) ~default:0 in
  Hashtbl.replace t.strikes n k;
  if k >= 2 then suspect t n

(* Order location candidates so suspected nodes are asked last, never
   skipped: suspicion is a hint, and liveness must survive a wrong one. *)
let prioritise_live t nodes =
  let live, dubious = List.partition (fun n -> not (is_suspect t n)) nodes in
  live @ dubious

(* ------------------------------------------------------------------ *)
(* Tracing helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* Open a span under an operation context. All span creation funnels
   through here so the disabled path is one branch and no attribute list
   is built. Background contexts (null span) stay span-free: only work
   rooted in a traced client operation lands in the trace tree, so one
   operation reads as exactly one connected trace. *)
let span_of t ctx name attrs =
  if Trace.enabled () && not (Trace.is_null (Op_ctx.span ctx)) then
    Trace.child ~engine:t.engine ~node:t.id ~attrs:(attrs ())
      ~parent:(Op_ctx.span ctx) name
  else Trace.null

let finish_span ?(attrs = fun () -> []) t span =
  if not (Trace.is_null span) then
    Trace.finish ~engine:t.engine ~attrs:(attrs ()) span

let finish_status t span status =
  finish_span ~attrs:(fun () -> [ ("status", status) ]) t span

(* Effective per-attempt timeout honouring the context deadline. *)
let budgeted_timeout t ctx default =
  match Op_ctx.remaining ctx ~now:(Ksim.Engine.now t.engine) with
  | Some left -> min left default
  | None -> default

(* ------------------------------------------------------------------ *)
(* Machines and CM action interpretation                               *)
(* ------------------------------------------------------------------ *)

let zero_page region =
  Bytes.make region.Region.attr.Attr.page_size '\000'

let replica_targets t (region : Region.t) =
  let home_cluster = Topology.cluster_of t.topology region.home in
  let members =
    List.filter (fun n -> n <> region.home)
      (Topology.cluster_members t.topology home_cluster)
  in
  (* Rotate by region identity so replicas spread over the cluster instead
     of piling onto the lowest-numbered nodes. *)
  match members with
  | [] -> []
  | _ :: _ ->
    let k = Gaddr.hash region.base mod List.length members in
    let rec rotate i = function
      | [] -> []
      | x :: rest as l -> if i = 0 then l else rotate (i - 1) (rest @ [ x ])
    in
    rotate k members

let machine_config t (region : Region.t) =
  {
    Ctypes.self = t.id;
    home = region.home;
    min_replicas = region.attr.Attr.min_replicas;
    replica_targets = replica_targets t region;
    request_timeout = t.cfg.request_timeout;
    propagate_every = Ksim.Time.ms 100;
    version_chain_depth = t.cfg.version_chain_depth;
  }

(* ------------------------------------------------------------------ *)
(* Write-ahead intent log notes                                        *)
(* ------------------------------------------------------------------ *)

(* Persistent metadata flows through the WAL as tagged notes; recovery
   re-applies them in log order ([apply_note] below). Page data takes the
   transactional [Wal.log_page] path from the Install action instead. *)

let encode_region region =
  let e = Codec.encoder () in
  Region.encode e region;
  Codec.to_bytes e

let note_homed_put t region =
  Wal.control t.wal "homed.put" (encode_region region)

let note_homed_del t base =
  let e = Codec.encoder () in
  Codec.u128 e base;
  Wal.control t.wal "homed.del" (Codec.to_bytes e)

(* Directory entries for locally-homed pages are the persistent part of the
   page directory. Creation is hint-grade (losing the note merely delays
   the eager post-recovery rebuild until first touch), so it rides unsynced;
   sharer-list updates are synced — an under-approximated sharer set leaves
   stale copies that nothing can revoke. *)
let pdir_ensure_logged t ~page ~region_base ~homed_here =
  let fresh = Page_directory.find t.pdir page = None in
  let entry = Page_directory.ensure t.pdir ~page ~region_base ~homed_here in
  if homed_here && fresh then begin
    let e = Codec.encoder () in
    Codec.u128 e page;
    Codec.u128 e region_base;
    Wal.control t.wal ~sync:false "pdir.ensure" (Codec.to_bytes e)
  end;
  entry

let note_pdir_sharers t ~page ~region_base sharers =
  let e = Codec.encoder () in
  Codec.u128 e page;
  Codec.u128 e region_base;
  Codec.list e (fun n -> Codec.int e n) sharers;
  Wal.control t.wal "pdir.sharers" (Codec.to_bytes e)

let rec machine_for t (region : Region.t) page =
  match Gaddr.Table.find_opt t.machines page with
  | Some slot -> slot
  | None ->
    let init =
      if region.home = t.id && region.state = Region.Allocated then begin
        (* The home materialises pages lazily: disk content if it survives,
           zeroes for never-written pages. *)
        let data =
          match Store.read_immediate t.store page with
          | Some bytes -> bytes
          | None ->
            let z = zero_page region in
            Store.write_immediate t.store page z ~dirty:false;
            z
        in
        Ctypes.Start_owner data
      end
      else Ctypes.Start_unknown
    in
    let packed =
      match
        Kconsistency.Registry.instantiate region.attr.Attr.protocol
          (machine_config t region) init
      with
      | Some p -> p
      | None ->
        (* Attr.make validated the protocol name; reaching here means the
           registry changed underneath us. *)
        failwith ("unknown consistency protocol " ^ region.attr.Attr.protocol)
    in
    let slot = { region; packed } in
    let prior_sharers =
      match (init, Page_directory.find t.pdir page) with
      | Ctypes.Start_owner _, Some entry ->
        List.filter (fun n -> n <> t.id) entry.Page_directory.sharers
      | (Ctypes.Start_owner _ | Ctypes.Start_unknown), _ -> []
    in
    Gaddr.Table.replace t.machines page slot;
    ignore
      (pdir_ensure_logged t ~page ~region_base:region.base
         ~homed_here:(region.home = t.id));
    (* A home machine materialising over an existing directory record is a
       reincarnation: the previous one died with nodes still holding
       copies. Seed the new machine with them — whichever path rebuilds
       first (client op, incoming CM message, or the repair loop) — or
       those copies become stale yet revocable by nothing. *)
    if prior_sharers <> [] then
      feed t ~span:Trace.null slot page
        (Ctypes.Reincarnate { version = 0; sharers = prior_sharers });
    slot

(* [span] is the trace position of whatever caused this machine step; it
   rides on every CM message we send out, so a lock request's protocol
   conversation (requester -> home -> owner -> requester) forms one
   causally-linked chain across nodes. *)
and apply_actions t ~span slot page actions =
  List.iter
    (fun action ->
      match action with
      | Ctypes.Send (dst, body) ->
        (* CM traffic is coalescable: all pages a machine cascade touches
           at one instant toward the same peer (a multi-page invalidation
           fan-out, a window of grants) share one batch envelope. *)
        Wire.Transport.notify t.transport ~src:t.id ~dst ~span:(Trace.id span)
          ~coalesce:true
          (Wire.Cm_msg { page; region_base = slot.region.Region.base; body });
        (* Fail fast on suspected peers (the moral equivalent of a
           connection refused): tell the machine the peer is unreachable,
           so managers fail over immediately instead of burning their
           whole retry budget. The suspicion list is fed by missed
           heartbeats, so crashed and partitioned nodes look the same
           here — no liveness oracle. Deliberately NOT a synthetic
           Evict_notify: suspicion is not evidence the peer's copy is
           gone, and the machine must keep it in its books so a later
           write still revokes a partitioned holder's stale copy. *)
        if dst <> t.id && is_suspect t dst then begin
          let epoch = t.epoch in
          ignore
            (Ksim.Engine.schedule t.engine ~after:(Ksim.Time.us 50) (fun () ->
                 if t.up && t.epoch = epoch then
                   match Gaddr.Table.find_opt t.machines page with
                   | Some slot ->
                     feed t ~span:Trace.null slot page
                       (Ctypes.Unreachable { node = dst })
                   | None -> ()))
        end
      | Ctypes.Grant req -> (
        match Hashtbl.find_opt t.pending req with
        | Some promise ->
          Hashtbl.remove t.pending req;
          ignore (Ksim.Promise.try_resolve promise (Ok ()))
        | None -> ())
      | Ctypes.Reject (req, Ctypes.Unavailable why) -> (
        match Hashtbl.find_opt t.pending req with
        | Some promise ->
          Hashtbl.remove t.pending req;
          ignore (Ksim.Promise.try_resolve promise (Error (`Unavailable why)))
        | None -> ())
      | Ctypes.Install { data; dirty } ->
        (* The machine just synced this exact image with the store — if it
           is a pinned committed 2PC image, the CM has caught up (the
           coordinator's write-lock release propagated it) and the pin's
           repair pass is no longer needed. An install of *different*
           bytes keeps the pin: that is the stale pre-transaction copy
           resurfacing through dead-owner fail-over, exactly what the pin
           exists to overwrite. *)
        (match Gaddr.Table.find_opt t.txn_pins page with
         | Some pin when Bytes.equal pin.pin_img data ->
           Gaddr.Table.remove t.txn_pins page
         | Some _ | None -> ());
        if Trace.enabled () then
          Trace.event ~engine:t.engine ~node:t.id ~span "store.install"
            ~attrs:
              [ ("page", Gaddr.to_string page);
                ("dirty", string_of_bool dirty) ];
        (* The home is the page's disk-backed authority. Write-ahead: the
           committed image reaches the intent log (synced by commit)
           before the store, so a crash that eats the lazy, unsynced disk
           flush still recovers the bytes by replay. Remote caches stay
           RAM-only and unlogged. *)
        if dirty && slot.region.Region.home = t.id then begin
          let tx = Wal.begin_tx t.wal in
          Wal.log_page t.wal tx page data;
          Wal.commit t.wal tx;
          Store.write_immediate t.store page data ~dirty;
          Store.flush_immediate t.store page
        end
        else Store.write_immediate t.store page data ~dirty
      | Ctypes.Discard -> Store.drop t.store page
      | Ctypes.Start_timer { id; after } ->
        let epoch = t.epoch in
        ignore
          (Ksim.Engine.schedule t.engine ~after (fun () ->
               if t.up && t.epoch = epoch then
                 match Gaddr.Table.find_opt t.machines page with
                 | Some slot ->
                   feed t ~span:Trace.null slot page (Ctypes.Timeout id)
                 | None -> ()))
      | Ctypes.Sharers_hint sharers ->
        let homed_here = slot.region.Region.home = t.id in
        ignore
          (pdir_ensure_logged t ~page ~region_base:slot.region.Region.base
             ~homed_here);
        Page_directory.set_sharers t.pdir page sharers;
        if homed_here then
          note_pdir_sharers t ~page ~region_base:slot.region.Region.base
            sharers)
    actions

and feed t ~span slot page event =
  let hook =
    if Trace.enabled () then
      Some
        (fun (tr : Machine.transition) ->
          Trace.event ~engine:t.engine ~node:t.id ~span "cm.transition"
            ~attrs:
              [ ("page", Gaddr.to_string page);
                ("protocol", Machine.packed_name slot.packed);
                ("event", Ctypes.event_kind tr.Machine.t_event);
                ("from", tr.Machine.t_before);
                ("to", tr.Machine.t_after) ])
    else None
  in
  apply_actions t ~span slot page (Machine.handle_packed ?hook slot.packed event)

(* Local storage victimised a page: tell its machine. *)
let on_evict t page data ~dirty =
  match Gaddr.Table.find_opt t.machines page with
  | Some slot -> feed t ~span:Trace.null slot page (Ctypes.Evicted { data; dirty })
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Region location (§3.2)                                              *)
(* ------------------------------------------------------------------ *)

let homed_containing t addr =
  Gaddr.Table.fold
    (fun _ r acc ->
      match acc with Some _ -> acc | None -> if Region.contains r addr then Some r else None)
    t.homed None

(* Every remote hop is a span under the caller's context, and the span id
   travels in the RPC envelope so the peer's dispatch nests under it. *)
let rpc t ctx ?policy ~dst req =
  let span =
    span_of t ctx ("rpc." ^ Wire.request_kind req) (fun () ->
        [ ("dst", string_of_int dst) ])
  in
  (* Unless the caller picked one (2PC traffic uses [Policy.idempotent]),
     the per-attempt timeout comes from a jittered policy: the base equals
     the old fixed rpc_timeout, jittered (from this daemon's own rng, so
     simulation schedules are unchanged) so simultaneous retriers and
     their upstream retry loops decorrelate. *)
  let policy =
    match policy with
    | Some p -> p
    | None ->
      Wire.Policy.jittered ~rng:t.rng ~base:t.cfg.rpc_timeout
        ~cap:t.cfg.retry_backoff_cap ()
  in
  let r =
    Wire.Transport.call t.transport ~src:t.id ~dst ~policy ~span:(Trace.id span)
      req
  in
  (match r with
   | Ok _ ->
     clear_suspect t dst;
     finish_span t span
   | Error `Timeout ->
     strike t dst;
     Metrics.incr t.metrics "rpc.timeout";
     finish_status t span "timeout"
   | Error `Unreachable ->
     strike t dst;
     Metrics.incr t.metrics "rpc.unreachable";
     finish_status t span "unreachable");
  r

(* The map region descriptor is well-known bootstrap state. *)
let map_region t = Layout.map_region ~bootstrap_node:t.bootstrap

(* -- low-level single-page lock used by both clients and the map IO -- *)

let acquire_page t ctx (region : Region.t) page mode ~timeout =
  let span =
    span_of t ctx "cm.acquire" (fun () ->
        [ ("page", Gaddr.to_string page);
          ("mode", Ctypes.mode_to_string mode) ])
  in
  let slot = machine_for t region page in
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  let promise = Ksim.Promise.create () in
  Hashtbl.replace t.pending req promise;
  feed t ~span slot page (Ctypes.Acquire { req; mode });
  match Ksim.Fiber.await_timeout t.engine promise ~timeout with
  | Some result ->
    Hashtbl.remove t.pending req;
    (match result with
     | Ok () ->
       Metrics.incr t.metrics "page.grant";
       finish_status t span "grant"
     | Error e ->
       Metrics.incr t.metrics "page.reject";
       finish_status t span (error_to_string e));
    result
  | None ->
    Hashtbl.remove t.pending req;
    (match Gaddr.Table.find_opt t.machines page with
     | Some slot -> feed t ~span slot page (Ctypes.Abort { req })
     | None -> ());
    Metrics.incr t.metrics "page.timeout";
    finish_status t span "timeout";
    Error `Timeout

let release_page t ctx (region : Region.t) page mode ~data =
  match Gaddr.Table.find_opt t.machines page with
  | Some slot ->
    feed t ~span:(Op_ctx.span ctx) slot page (Ctypes.Release { mode; data })
  | None ->
    ignore region;
    () (* crash wiped the machine; nothing to release *)

(* Release every page of a (possibly partial) multi-page lock in one pass.
   Shared by unlock and the acquisition rollback paths so their per-page
   bookkeeping cannot drift: [unpin] drops the storage pins unlock took,
   [written] propagates dirty images for pages the context wrote. Rollback
   of a never-granted context passes neither — the pages were never pinned
   and carry no data. *)
let release_pages t ctx (region : Region.t) mode ?(unpin = false) ?written
    pages =
  List.iter
    (fun page ->
      if unpin then Store.unpin t.store page;
      (* Versioned regions release without data: propagation happens via
         the publish path (unlock), not inside the machine's Release. *)
      let data =
        match written with
        | Some tbl
          when mode = Ctypes.Write
               && Gaddr.Table.mem tbl page
               && not (versioned_region region) ->
          Store.read_immediate t.store page
        | _ -> None
      in
      release_page t ctx region page mode ~data)
    pages

(* -- address map IO over our own lock/read/write primitives -- *)

(* Raised when map pages cannot be locked or fetched (home unreachable);
   caught at the operation boundary and reflected as [`Unavailable]. *)
exception Map_unavailable of string

let map_page_read t ctx i =
  let region = map_region t in
  let page = Layout.map_page_addr i in
  match acquire_page t ctx region page Ctypes.Read ~timeout:t.cfg.lock_timeout with
  | Error e ->
    raise (Map_unavailable ("map read: " ^ error_to_string e))
  | Ok () ->
    let bytes = Store.read_immediate t.store page in
    release_page t ctx region page Ctypes.Read ~data:None;
    (match bytes with
     | Some b -> Address_map.Node.decode b
     | None -> raise (Map_unavailable "map page vanished under read lock"))

let map_page_write_locked t i node =
  (* Caller holds the write lock on page i. *)
  let page = Layout.map_page_addr i in
  Store.write_immediate t.store page (Address_map.Node.encode node) ~dirty:true

let map_io t ctx : Address_map.io =
  let read_page i = map_page_read t ctx i in
  let mutate f =
    let region = map_region t in
    let root_page = Layout.map_page_addr 0 in
    match acquire_page t ctx region root_page Ctypes.Write ~timeout:t.cfg.lock_timeout with
    | Error e -> raise (Map_unavailable ("map mutation: " ^ error_to_string e))
    | Ok () ->
      let root =
        match Store.read_immediate t.store root_page with
        | Some b -> Address_map.Node.decode b
        | None -> raise (Map_unavailable "map root missing")
      in
      let write i node =
        if i = 0 then map_page_write_locked t 0 node
        else begin
          let page = Layout.map_page_addr i in
          match acquire_page t ctx region page Ctypes.Write ~timeout:t.cfg.lock_timeout with
          | Error e -> raise (Map_unavailable ("map write: " ^ error_to_string e))
          | Ok () ->
            map_page_write_locked t i node;
            let data = Store.read_immediate t.store page in
            release_page t ctx region page Ctypes.Write ~data
        end
      in
      let read i = if i = 0 then root else read_page i in
      Fun.protect
        ~finally:(fun () ->
          (* Always rewrite + release the root so its write propagates. *)
          let data = Store.read_immediate t.store root_page in
          release_page t ctx region root_page Ctypes.Write ~data)
        (fun () ->
          f ~root ~read ~write;
          map_page_write_locked t 0 root)
  in
  { Address_map.read_page; mutate }

let bootstrap_map t =
  if t.id <> t.bootstrap then invalid_arg "Daemon.bootstrap_map: wrong node";
  let region = map_region t in
  Gaddr.Table.replace t.homed region.Region.base region;
  note_homed_put t region;
  let root = Address_map.Node.empty_root () in
  Store.write_immediate t.store (Layout.map_page_addr 0)
    (Address_map.Node.encode root) ~dirty:false;
  (* Record the map region itself in the map, so tree walks can resolve
     metadata addresses uniformly. *)
  let io = map_io t Op_ctx.background in
  match
    Address_map.insert io
      {
        Address_map.base = region.Region.base;
        len = region.Region.len;
        page_size = Layout.map_page_size;
        homes = [ t.bootstrap ];
      }
  with
  | Ok () -> ()
  | Error e -> failwith ("bootstrap_map: " ^ e)

(* Fetch a descriptor from one of the candidate holder nodes; suspected
   holders are asked last so a healthy candidate answers first. *)
let fetch_descriptor t ctx ~addr candidates =
  let rec try_nodes = function
    | [] -> None
    | node :: rest ->
      if node = t.id then try_nodes rest
      else begin
        match rpc t ctx ~dst:node (Wire.Get_descriptor { addr }) with
        | Ok (Wire.R_descriptor (Some desc)) -> Some desc
        | Ok (Wire.R_descriptor None) | Ok _ | Error (`Timeout | `Unreachable) -> try_nodes rest
      end
  in
  try_nodes (prioritise_live t candidates)

let rec locate_region_once ?(walk = false) t ctx addr =
  if Region.contains (map_region t) addr then Ok (map_region t)
  else
    match homed_containing t addr with
    | Some r ->
      t.stats <- { t.stats with homed_hits = t.stats.homed_hits + 1 };
      Metrics.incr t.metrics "locate.homed_hit";
      Ok r
    | None -> (
      match Region_directory.find t.rdir addr with
      | Some r ->
        t.stats <- { t.stats with rdir_hits = t.stats.rdir_hits + 1 };
        Metrics.incr t.metrics "locate.rdir_hit";
        Ok r
      | None -> (
        (* Ask the cluster manager before touching the tree (§3.5). *)
        let from_cluster =
          if t.cluster_manager = t.id then
            match t.cm_state with
            | Some cm -> (
              match Cluster.lookup cm addr with
              | Some desc, _ -> Some desc
              | None, _ -> None)
            | None -> None
          else
            match rpc t ctx ~dst:t.cluster_manager (Wire.Cluster_lookup { addr }) with
            | Ok (Wire.R_lookup { desc = Some desc; _ }) -> Some desc
            | Ok (Wire.R_lookup { desc = None; holders = _ }) -> None
            | Ok _ | Error (`Timeout | `Unreachable) -> None
        in
        match from_cluster with
        | Some desc ->
          t.stats <- { t.stats with cluster_hits = t.stats.cluster_hits + 1 };
          Metrics.incr t.metrics "locate.cluster_hit";
          Region_directory.put t.rdir desc;
          Ok desc
        | None -> (
          (* Full address-map tree walk. *)
          match Address_map.lookup (map_io t ctx) addr with
          | exception Map_unavailable why -> cluster_walk t ctx addr why
          | result ->
          t.stats <-
            { t.stats with
              map_walks = t.stats.map_walks + 1;
              map_walk_depth_total = t.stats.map_walk_depth_total + result.Address_map.depth;
            };
          Metrics.incr t.metrics "locate.map_walk";
          match result.Address_map.entry with
          | Some entry -> (
            match fetch_descriptor t ctx ~addr entry.Address_map.homes with
            | Some desc ->
              Region_directory.put t.rdir desc;
              Ok desc
            | None -> cluster_walk t ctx addr "region home unreachable")
          | None ->
            (* An absent entry usually means a release-consistent map
               update is still in flight; the caller's retry loop handles
               that. Walk the clusters only on the final attempt. *)
            if walk then cluster_walk t ctx addr "address not reserved"
            else begin
              t.stats <- { t.stats with failures = t.stats.failures + 1 };
              Metrics.incr t.metrics "locate.failure";
              Error (`Unavailable "address not reserved")
            end)))

(* "If the set of nodes specified in a given region's address map entry is
   stale, the region can still be located using a cluster-walk algorithm"
   (§3.1): when the tree fails us — stale homes, or the map itself
   unavailable — ask the other clusters' managers whether anyone nearby
   caches the region. *)
and cluster_walk t ctx addr fallback_error =
  let rec walk = function
    | [] ->
      t.stats <- { t.stats with failures = t.stats.failures + 1 };
      Metrics.incr t.metrics "locate.failure";
      Error (`Unavailable fallback_error)
    | manager :: rest -> (
      match rpc t ctx ~dst:manager (Wire.Cluster_walk { addr }) with
      | Ok (Wire.R_lookup { desc = Some desc; _ }) ->
        t.stats <- { t.stats with cluster_walks = t.stats.cluster_walks + 1 };
        Metrics.incr t.metrics "locate.cluster_walk";
        Region_directory.put t.rdir desc;
        Ok desc
      | Ok (Wire.R_lookup { desc = None; holders }) -> (
        (* No descriptor hint, but maybe holder nodes we can query. *)
        match fetch_descriptor t ctx ~addr holders with
        | Some desc ->
          t.stats <- { t.stats with cluster_walks = t.stats.cluster_walks + 1 };
          Metrics.incr t.metrics "locate.cluster_walk";
          Region_directory.put t.rdir desc;
          Ok desc
        | None -> walk rest)
      | Ok _ | Error (`Timeout | `Unreachable) -> walk rest)
  in
  walk (prioritise_live t t.peer_managers)

(* "Khazana operations are repeatedly tried ... until they succeed or
   timeout" (§3.5). A miss may just mean a release-consistent map update is
   still in flight, so back off briefly and retry before reflecting the
   error. *)
let locate_region_in t ctx addr =
  let t0 = Ksim.Engine.now t.engine in
  let span =
    span_of t ctx "daemon.locate" (fun () -> [ ("addr", Gaddr.to_string addr) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let backoff =
    Kutil.Backoff.make ~rng:t.rng ~base:(Ksim.Time.ms 25)
      ~cap:t.cfg.retry_backoff_cap ()
  in
  let rec go attempt =
    match locate_region_once ~walk:(attempt >= 3) t ctx addr with
    | Ok _ as ok -> ok
    | Error _ as e when attempt >= 4 -> e
    | Error _ ->
      Ksim.Fiber.sleep (Kutil.Backoff.next backoff);
      go (attempt + 1)
  in
  let result = go 0 in
  Metrics.observe t.metrics "locate.ms"
    (Ksim.Time.to_ms_f (Ksim.Engine.now t.engine - t0));
  (match result with
   | Ok _ -> finish_status t span "ok"
   | Error e -> finish_status t span (error_to_string e));
  result

let locate_region t ?(ctx = Op_ctx.background) addr = locate_region_in t ctx addr

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

let round_up len page_size = (len + page_size - 1) / page_size * page_size

let take_from_pool t len =
  let rec go acc = function
    | [] -> None
    | (base, span) :: rest ->
      if span >= len then begin
        let remainder =
          if span > len then [ (Gaddr.add_int base len, span - len) ] else []
        in
        t.pool <- List.rev_append acc (remainder @ rest);
        Some base
      end
      else go ((base, span) :: acc) rest
  in
  go [] t.pool

(* Fold a freshly granted chunk into the pool, coalescing with an adjacent
   span so that reservations larger than one chunk can be satisfied from
   consecutive grants. *)
let add_chunk_to_pool t base len =
  let rec merge acc = function
    | [] -> List.rev ((base, len) :: acc)
    | (b, l) :: rest when Gaddr.equal (Gaddr.add_int b l) base ->
      List.rev_append acc ((b, l + len) :: rest)
    | span :: rest -> merge (span :: acc) rest
  in
  t.pool <- merge [] t.pool

let request_chunk t ctx =
  if t.cluster_manager = t.id then
    match t.cm_state with
    | Some cm ->
      let base, len = Cluster.next_chunk cm in
      add_chunk_to_pool t base len;
      true
    | None -> false
  else
    match rpc t ctx ~dst:t.cluster_manager Wire.Chunk_request with
    | Ok (Wire.R_chunk { base; len }) ->
      add_chunk_to_pool t base len;
      true
    | Ok _ | Error (`Timeout | `Unreachable) -> false

(* Client-facing entry points refuse while the daemon is down or still in
   its recovery replay window: granting from half-rebuilt state could hand
   out pages the replay is about to overwrite. *)
let down_guard t = if t.up then None else Some (`Unavailable "node down")

let reserve t ?attr ~ctx len =
  match down_guard t with
  | Some e -> Error e
  | None ->
  let span =
    span_of t ctx "daemon.reserve" (fun () ->
        [ ("len", string_of_int len) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let attr =
    match attr with
    | Some a -> a
    | None -> Attr.make ~owner:(Op_ctx.principal ctx) ()
  in
  let page_size = attr.Attr.page_size in
  let len = round_up (max len 1) page_size in
  let rec obtain attempts =
    match take_from_pool t len with
    | Some base -> Some base
    | None ->
      if attempts > 0 && request_chunk t ctx then obtain (attempts - 1)
      else None
  in
  (* A reservation larger than the chunk size needs several chunks; chunks
     are contiguous per cluster so consecutive grants coalesce. *)
  let needed_chunks = (len / Layout.chunk_size) + 2 in
  let result =
    match obtain needed_chunks with
    | None -> Error (`Unavailable "no address space available")
    | Some base -> (
      let region = Region.make ~base ~len ~attr ~home:t.id in
      match
        Address_map.insert (map_io t ctx)
          { Address_map.base; len; page_size; homes = [ t.id ] }
      with
      | Error e -> Error (`Conflict e)
      | Ok () ->
        Gaddr.Table.replace t.homed base region;
        note_homed_put t region;
        Region_directory.put t.rdir region;
        Ok region)
  in
  (match result with
   | Ok _ -> finish_status t span "ok"
   | Error e -> finish_status t span (error_to_string e));
  result

(* Release-class operations retry in the background until they succeed
   (paper §3.5): errors while releasing resources are never reflected.
   Re-attempts back off exponentially (jittered, capped) instead of
   hammering an unreachable home at a fixed period. *)
let background_retry t ~name f =
  let epoch = t.epoch in
  let backoff =
    Kutil.Backoff.make ~rng:t.rng ~base:t.cfg.background_retry_every
      ~cap:t.cfg.retry_backoff_cap ()
  in
  let rec attempt () =
    if t.up && t.epoch = epoch then
      if not (f ()) then
        Ksim.Fiber.spawn_after t.engine ~after:(Kutil.Backoff.next backoff)
          ~name (fun () -> attempt ())
  in
  Ksim.Fiber.spawn t.engine ~name (fun () -> attempt ())

let allocate_local t (region : Region.t) =
  let allocated = Region.allocated region in
  Gaddr.Table.replace t.homed region.Region.base allocated;
  note_homed_put t allocated;
  Region_directory.put t.rdir allocated

let allocate t ~ctx base =
  match down_guard t with
  | Some e -> Error e
  | None ->
  let span =
    span_of t ctx "daemon.allocate" (fun () ->
        [ ("base", Gaddr.to_string base) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let result =
    match locate_region_in t ctx base with
    | Error e -> Error e
    | Ok region ->
      if not (Gaddr.equal region.Region.base base) then Error `Bad_range
      else if region.Region.state = Region.Allocated then Ok ()
      else if region.Region.home = t.id then begin
        allocate_local t region;
        Ok ()
      end
      else begin
        match rpc t ctx ~dst:region.Region.home (Wire.Alloc_region { desc = region }) with
        | Ok Wire.R_unit ->
          let allocated = Region.allocated region in
          Region_directory.put t.rdir allocated;
          Ok ()
        | Ok (Wire.R_error e) -> Error (`Unavailable e)
        | Ok _ -> Error (`Rpc "unexpected response to alloc_region")
        | Error (`Timeout as e) | Error (`Unreachable as e) -> Error e
      end
  in
  (match result with
   | Ok () -> finish_status t span "ok"
   | Error e -> finish_status t span (error_to_string e));
  result

let free_local t base =
  match Gaddr.Table.find_opt t.homed base with
  | None -> true
  | Some region ->
    (* The whole free is one logged intent: without the transaction, a
       crash between page drops would resurrect half the region's pages at
       replay and not the rest. *)
    let reserved = { region with Region.state = Region.Reserved } in
    let pages = Region.pages region in
    let tx = Wal.begin_tx t.wal in
    List.iter
      (fun page ->
        let e = Codec.encoder () in
        Codec.u128 e page;
        Wal.log_note t.wal tx "page.free" (Codec.to_bytes e))
      pages;
    Wal.log_note t.wal tx "homed.put" (encode_region reserved);
    Wal.commit t.wal tx;
    List.iter
      (fun page ->
        Gaddr.Table.remove t.machines page;
        Store.drop t.store page;
        Page_directory.remove t.pdir page)
      pages;
    Gaddr.Table.replace t.homed base reserved;
    Region_directory.put t.rdir reserved;
    true

let free t ~ctx base =
  if not t.up then ()
  else
  match locate_region_in t ctx base with
  | Error _ -> ()
  | Ok region ->
    Region_directory.remove t.rdir region.Region.base;
    if region.Region.home = t.id then ignore (free_local t base)
    else
      background_retry t ~name:"free" (fun () ->
          match
            rpc t Op_ctx.background ~dst:region.Region.home
              (Wire.Free_region { base })
          with
          | Ok Wire.R_unit -> true
          | Ok _ | Error (`Timeout | `Unreachable) -> false)

let unreserve_local t ctx base =
  ignore (free_local t base);
  Gaddr.Table.remove t.homed base;
  note_homed_del t base;
  Region_directory.remove t.rdir base;
  match Address_map.remove (map_io t ctx) base with
  | true | false -> true

let unreserve t ~ctx base =
  if not t.up then ()
  else
  match locate_region_in t ctx base with
  | Error _ -> ()
  | Ok region ->
    Region_directory.remove t.rdir base;
    if region.Region.home = t.id then
      background_retry t ~name:"unreserve" (fun () ->
          unreserve_local t Op_ctx.background base)
    else
      background_retry t ~name:"unreserve" (fun () ->
          match
            rpc t Op_ctx.background ~dst:region.Region.home
              (Wire.Unreserve_region { base })
          with
          | Ok Wire.R_unit -> true
          | Ok _ | Error (`Timeout | `Unreachable) -> false)

(* Region directories may serve stale attributes; before acting on a
   denial (or an unallocated state), refetch the descriptor from its home
   so recent set_attr/allocate calls are honoured. *)
let refresh_descriptor t ctx (region : Region.t) =
  if region.Region.home = t.id then
    Gaddr.Table.find_opt t.homed region.Region.base
  else
    match
      rpc t ctx ~dst:region.Region.home
        (Wire.Get_descriptor { addr = region.Region.base })
    with
    | Ok (Wire.R_descriptor (Some fresh)) ->
      Region_directory.put t.rdir fresh;
      Some fresh
    | Ok _ | Error (`Timeout | `Unreachable) -> None

(* Is [page] covered by a prepared-but-undecided transaction at this
   participant? Two-phase locking holds every lock through the decision,
   but a participant that crashed after voting lost its in-memory lock
   state — only the prepared record survives, so it must keep fencing the
   page until resolution. Without the fence a rebuilt home serves (and
   lets writers clobber) the pre-transaction image after the coordinator
   already acknowledged the commit. *)
let in_doubt t page =
  Txid.Table.length t.txn_prepared > 0
  && Txid.Table.fold
       (fun _ entry acc ->
         acc || List.exists (fun (p, _) -> p = page) entry.p_pages)
       t.txn_prepared false

(* Versioned publish: push one lock context's written pages to the region
   home as immutable new versions. Sparse dirty runs ship as [Runs] when
   they cover at most [diff_density_max] of the page and a parent version
   to apply them against is known; otherwise the whole image goes. A home
   whose chain no longer retains the parent answers [Parent_gone] and the
   publish falls back to the whole image — wider, never wrong. Publishes
   that cannot reach the home keep retrying in the background and surface
   as the ambiguous [`Timeout]. A CAS publish ([ctx_expected] set) never
   background-retries — an ambiguous CAS retried later could apply against
   a version counter that has since moved — and surfaces a mismatch as
   [`Conflict] after repairing the local cache to the home's latest, so
   reads here never serve the rejected bytes. *)
let publish_written t ctx lctx =
  let region = lctx.ctx_region in
  let page_size = region.Region.attr.Attr.page_size in
  let expected = lctx.ctx_expected in
  let span = Op_ctx.span ctx in
  let jobs =
    List.filter_map
      (fun page ->
        if not (Gaddr.Table.mem lctx.ctx_written page) then None
        else
          match Store.read_immediate t.store page with
          | None -> None (* evicted under the lock; nothing left to publish *)
          | Some img ->
            let parent =
              Option.value
                (Gaddr.Table.find_opt lctx.ctx_parents page)
                ~default:0
            in
            let ranges = Store.dirty_ranges t.store page in
            Store.clear_ranges t.store page;
            let covered = List.fold_left (fun a (_, l) -> a + l) 0 ranges in
            let payload =
              if
                ranges <> [] && parent > 0
                && float_of_int covered
                   <= t.cfg.diff_density_max *. float_of_int page_size
              then
                Ctypes.Runs
                  (List.map (fun (o, l) -> (o, Bytes.sub img o l)) ranges)
              else Ctypes.Whole img
            in
            Some (page, img, parent, payload))
      lctx.ctx_pages
  in
  let publish_one page payload parent =
    if region.Region.home = t.id then begin
      (* Home-local write: mint directly through the machine. *)
      let slot = machine_for t region page in
      let result, actions =
        Machine.packed_publish slot.packed ~src:t.id ~parent ~expected ~payload
      in
      apply_actions t ~span slot page actions;
      Ok result
    end
    else
      match
        rpc t ctx ~dst:region.Region.home
          (Wire.Page_diff
             { page; region_base = region.Region.base; parent; expected;
               payload })
      with
      | Ok (Wire.R_publish result) -> Ok result
      | Ok (Wire.R_error e) -> Error (`Unavailable e)
      | Ok _ -> Error (`Rpc "unexpected response to page_diff")
      | Error ((`Timeout | `Unreachable) as e) -> Error e
  in
  (* Pull the local cache up to a freshly fetched or minted image so local
     reads serve it without a refetch. The absorb is version-gated inside
     the machine: if a concurrent writer already fanned out something
     newer, the newer image stays (last writer won). *)
  let absorb page data version =
    match Gaddr.Table.find_opt t.machines page with
    | Some slot ->
      feed t ~span slot page
        (Ctypes.Peer
           { src = region.Region.home;
             msg = Ctypes.Update { data; version } })
    | None -> ()
  in
  let repair_after_cas_loss page =
    if region.Region.home = t.id then (
      match Gaddr.Table.find_opt t.machines page with
      | Some slot -> (
        match Machine.packed_read_at slot.packed None with
        | Some (data, _) -> Store.write_immediate t.store page data ~dirty:false
        | None -> ())
      | None -> ())
    else
      match
        rpc t ctx ~dst:region.Region.home
          (Wire.Page_version { page; region_base = region.Region.base; at = None })
      with
      | Ok (Wire.R_page (Some (data, version))) ->
        (* The version-gated absorb is a no-op when the cache already sits
           at the home's latest — exactly the common refusal case, where
           only the store holds the rejected bytes. Restore it directly. *)
        Store.write_immediate t.store page data ~dirty:false;
        absorb page data version
      | Ok _ | Error _ -> ()
  in
  let background_republish page img =
    (* Plain LWW publish only: arrival order is the ordering contract, so
       a late retry is simply a late write. *)
    background_retry t ~name:"page-publish" (fun () ->
        match
          rpc t Op_ctx.background ~dst:region.Region.home
            (Wire.Page_diff
               { page; region_base = region.Region.base; parent = 0;
                 expected = None; payload = Ctypes.Whole img })
        with
        | Ok (Wire.R_publish _) -> true
        | Ok _ | Error _ -> false)
  in
  let publish_job (page, img, parent, payload) =
    let result =
      match publish_one page payload parent with
      | Ok (Ctypes.Parent_gone _) ->
        (* The chain GC outran the diff: reapply as a whole image. *)
        publish_one page (Ctypes.Whole img) parent
      | r -> r
    in
    match result with
    | Ok (Ctypes.Published v) ->
      if region.Region.home <> t.id then absorb page img v;
      Ok ()
    | Ok (Ctypes.Cas_mismatch { latest }) ->
      repair_after_cas_loss page;
      Error
        (`Conflict (Printf.sprintf "version mismatch: home at %d" latest))
    | Ok (Ctypes.Parent_gone _) ->
      Error (`Unavailable "publish refused: parent version gone")
    | Ok Ctypes.Publish_unsupported ->
      Error (`Unavailable "protocol refused publish")
    | Error ((`Timeout | `Unreachable) as e) ->
      if expected = None then background_republish page img;
      Metrics.incr t.metrics "publish.retry";
      Error e
    | Error e -> Error e
  in
  List.fold_left
    (fun acc job ->
      match publish_job job with
      | Ok () -> acc
      | Error _ as e -> ( match acc with Ok () -> e | Error _ -> acc))
    (Ok ()) jobs

let lock t ~ctx ~addr ~len mode =
  match down_guard t with
  | Some e -> Error e
  | None ->
  let t0 = Ksim.Engine.now t.engine in
  let op = ctx in
  let span =
    span_of t ctx "daemon.lock" (fun () ->
        [ ("addr", Gaddr.to_string addr);
          ("len", string_of_int len);
          ("mode", Ctypes.mode_to_string mode) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let principal = Op_ctx.principal ctx in
  let reflect result =
    (match result with
     | Ok _ ->
       Metrics.incr t.metrics "lock.grant";
       Metrics.observe t.metrics "lock.ms"
         (Ksim.Time.to_ms_f (Ksim.Engine.now t.engine - t0));
       finish_status t span "ok"
     | Error `Timeout ->
       Metrics.incr t.metrics "lock.timeout";
       finish_status t span "timeout"
     | Error e ->
       Metrics.incr t.metrics "lock.reject";
       finish_status t span (error_to_string e));
    result
  in
  reflect
  @@
  match locate_region_in t ctx addr with
  | Error e -> Error e
  | Ok region ->
    let region =
      if
        region.Region.state <> Region.Allocated
        || not (Attr.allows region.Region.attr ~principal mode)
      then Option.value (refresh_descriptor t ctx region) ~default:region
      else region
    in
    if not (Region.contains_range region addr ~len) then Error `Bad_range
    else if region.Region.state <> Region.Allocated then Error `Not_allocated
    else if not (Attr.allows region.Region.attr ~principal mode) then
      Error `Access_denied
    else if Op_ctx.expired ctx ~now:(Ksim.Engine.now t.engine) then
      Error `Timeout
    else begin
      (* Computed once; granted contexts carry it as [ctx_pages] so unlock
         and read/write never recompute the page list. *)
      let pages =
        Gaddr.pages_in addr ~len ~page_size:region.Region.attr.Attr.page_size
      in
      if List.exists (fun p -> in_doubt t p) pages then
        Error (`Conflict "transaction in doubt")
      else begin
      (* One backoff across the whole multi-page acquire: every failed
         attempt anywhere in the range widens the pause before the next. *)
      let backoff =
        Kutil.Backoff.make ~rng:t.rng ~base:(Ksim.Time.ms 50)
          ~cap:t.cfg.retry_backoff_cap ()
      in
      let acquire_one page =
        let rec attempt n =
          let timeout = budgeted_timeout t ctx t.cfg.lock_timeout in
          if timeout <= 0 then Error `Timeout
          else
            match acquire_page t ctx region page mode ~timeout with
            | Ok () -> Ok ()
            | Error _ when n > 1 ->
              Ksim.Fiber.sleep (Kutil.Backoff.next backoff);
              attempt (n - 1)
            | Error e -> Error e
        in
        attempt t.cfg.lock_retries
      in
      (* Pipelined acquisition: issue up to [acquire_window] page acquires
         concurrently (each in its own fiber, all sharing the backoff and
         the context deadline), so an N-page lock costs O(N / window)
         round-trip waves instead of N sequential round trips. Rollback
         stays all-or-nothing: any failure releases every page this call
         acquired — prior waves and the failing wave's partial grants. *)
      let window = max 1 t.cfg.acquire_window in
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | p :: rest -> take (n - 1) (p :: acc) rest
      in
      let rec acquire_all acquired remaining =
        match remaining with
        | [] -> Ok (List.rev acquired)
        | _ ->
          let wave, rest = take window [] remaining in
          let results =
            wave
            |> List.map (fun page ->
                   ( page,
                     Ksim.Fiber.async t.engine ~name:"daemon.lock.acquire"
                       (fun () -> acquire_one page) ))
            |> List.map (fun (page, p) -> (page, Ksim.Fiber.await p))
          in
          let granted =
            List.filter_map
              (fun (page, r) -> match r with Ok () -> Some page | Error _ -> None)
              results
          in
          (match
             List.find_map
               (fun (_, r) -> match r with Error e -> Some e | Ok () -> None)
               results
           with
           | Some e ->
             (* Roll back already-acquired pages, including the failing
                wave's partial grants. *)
             release_pages t ctx region mode (List.rev_append acquired granted);
             Error e
           | None -> acquire_all (List.rev_append granted acquired) rest)
      in
      match acquire_all [] pages with
      | Error e -> Error e
      | Ok pages ->
        List.iter (Store.pin t.store) pages;
        (* Versioned write intents remember the home version each page was
           granted at: that version is the parent a publish diffs against,
           and — because versioned grants exclude nobody — the way the home
           tells "applied onto what I have" from "applied onto history". *)
        let parents = Gaddr.Table.create 8 in
        if mode = Ctypes.Write && versioned_region region then
          List.iter
            (fun page ->
              match Gaddr.Table.find_opt t.machines page with
              | Some slot ->
                Gaddr.Table.replace parents page
                  (Machine.packed_version slot.packed)
              | None -> ())
            pages;
        let lctx =
          {
            ctx_id = t.next_ctx;
            ctx_op = op;
            ctx_region = region;
            ctx_addr = addr;
            ctx_len = len;
            ctx_mode = mode;
            ctx_pages = pages;
            ctx_written = Gaddr.Table.create 8;
            ctx_parents = parents;
            ctx_expected = None;
            ctx_publish = Ok ();
            ctx_live = true;
          }
        in
        t.next_ctx <- t.next_ctx + 1;
        Ok lctx
      end
    end

let unlock t ctx =
  if ctx.ctx_live then begin
    ctx.ctx_live <- false;
    let span =
      span_of t ctx.ctx_op "daemon.unlock" (fun () ->
          [ ("addr", Gaddr.to_string ctx.ctx_addr) ])
    in
    let op = Op_ctx.with_span ctx.ctx_op span in
    release_pages t op ctx.ctx_region ctx.ctx_mode ~unpin:true
      ~written:ctx.ctx_written ctx.ctx_pages;
    (* Versioned regions propagate written pages by publishing new
       versions at the home (the Release above carried no data). The
       outcome parks on the context for write_sync/write_cas to report;
       plain unlock stays infallible toward the caller, matching CREW. *)
    if
      ctx.ctx_mode = Ctypes.Write
      && versioned_region ctx.ctx_region
      && Gaddr.Table.length ctx.ctx_written > 0
    then ctx.ctx_publish <- publish_written t op ctx;
    finish_span t span
  end

let ctx_covers ctx addr ~len =
  ctx.ctx_live && len >= 0
  && Gaddr.compare ctx.ctx_addr addr <= 0
  && Gaddr.compare (Gaddr.add_int addr len) (Gaddr.add_int ctx.ctx_addr ctx.ctx_len) <= 0

let read t ctx ~addr ~len =
  if not (ctx_covers ctx addr ~len) then Error `Bad_range
  else begin
    let span =
      span_of t ctx.ctx_op "daemon.read" (fun () ->
          [ ("addr", Gaddr.to_string addr); ("len", string_of_int len) ])
    in
    let page_size = ctx.ctx_region.Region.attr.Attr.page_size in
    let out = Bytes.create len in
    let rec copy addr remaining written =
      if remaining = 0 then Ok ()
      else begin
        let page = Gaddr.page_floor addr ~page_size in
        let off = Gaddr.page_offset addr ~page_size in
        let n = min remaining (page_size - off) in
        if Trace.enabled () then
          Trace.event ~engine:t.engine ~node:t.id ~span "store.read"
            ~attrs:[ ("page", Gaddr.to_string page) ];
        if Store.read_into t.store page ~off out ~dst_off:written ~len:n then
          copy (Gaddr.add_int addr n) (remaining - n) (written + n)
        else Error (`Unavailable "page missing from local store")
      end
    in
    let result =
      match copy addr len 0 with Ok () -> Ok out | Error e -> Error e
    in
    (match result with
     | Ok _ -> finish_status t span "ok"
     | Error e -> finish_status t span (error_to_string e));
    result
  end

let write t ctx ~addr data =
  let len = Bytes.length data in
  if ctx.ctx_mode <> Ctypes.Write then Error `Access_denied
  else if not (ctx_covers ctx addr ~len) then Error `Bad_range
  else begin
    let span =
      span_of t ctx.ctx_op "daemon.write" (fun () ->
          [ ("addr", Gaddr.to_string addr); ("len", string_of_int len) ])
    in
    let page_size = ctx.ctx_region.Region.attr.Attr.page_size in
    let rec copy addr remaining consumed =
      if remaining = 0 then Ok ()
      else begin
        let page = Gaddr.page_floor addr ~page_size in
        let off = Gaddr.page_offset addr ~page_size in
        let n = min remaining (page_size - off) in
        if Trace.enabled () then
          Trace.event ~engine:t.engine ~node:t.id ~span "store.write"
            ~attrs:[ ("page", Gaddr.to_string page) ];
        if Store.write_from t.store page ~off data ~src_off:consumed ~len:n
        then begin
          Gaddr.Table.replace ctx.ctx_written page ();
          (* Versioned regions track which byte spans actually changed so
             the publish can ship sparse runs instead of the whole page. *)
          if versioned_region ctx.ctx_region then
            Store.note_range t.store page ~off ~len:n;
          copy (Gaddr.add_int addr n) (remaining - n) (consumed + n)
        end
        else Error (`Unavailable "page missing from local store")
      end
    in
    let result = copy addr len 0 in
    (match result with
     | Ok () -> finish_status t span "ok"
     | Error e -> finish_status t span (error_to_string e));
    result
  end

(* Strict plain-write entry point: lock, write, unlock, then push the
   dirty image through to the region home before reporting success. The
   CREW ack-at-unlock leaves the only fresh copy in the writer's RAM; under
   strict consistency that breaks two promises an acknowledged write makes
   — it must survive the writer crashing, and it must be what the home's
   backup serves when read fail-over routes around that crashed writer.
   The write-through keeps both: the home WALs the image and refreshes its
   manager backup before we ack. A flush that cannot reach the home keeps
   retrying in the background and surfaces as the ambiguous [`Timeout] —
   the write may or may not be visible to others yet. *)
(* The write-through itself, shared by plain writes and transaction
   commits: snapshot each page's current image and protocol version and
   push them to the region home. The snapshot runs after the lock release
   bumped the machine version; a page already evicted needs no flush (the
   eviction shipped its bytes home as [Own_return]). Pages that cannot
   reach the home keep flushing in the background; the return value says
   whether everything landed synchronously. *)
let flush_through t ~ctx (region : Region.t) pages =
  let images =
    List.filter_map
      (fun page ->
        match Store.read_immediate t.store page with
        | Some img ->
          let version =
            match Gaddr.Table.find_opt t.machines page with
            | Some slot -> Machine.packed_version slot.packed
            | None -> 0
          in
          Some (page, img, version)
        | None -> None)
      pages
  in
  let flush (page, img, version) =
    match
      rpc t ctx ~policy:Wire.Policy.idempotent ~dst:region.Region.home
        (Wire.Page_flush
           { page; region_base = region.Region.base; data = img; version })
    with
    | Ok Wire.R_unit -> true
    | Ok _ | Error (`Timeout | `Unreachable) -> false
  in
  match List.filter (fun i -> not (flush i)) images with
  | [] -> true
  | failed ->
    List.iter
      (fun i -> background_retry t ~name:"page-flush" (fun () -> flush i))
      failed;
    false

(* Does an acknowledged write to this region owe the home a synchronous
   write-through? Only strict (CREW) regions homed elsewhere: the home's
   own writes already pass through its WAL and backup. *)
let needs_flush t (region : Region.t) =
  region.Region.home <> t.id
  && region.Region.attr.Attr.protocol = Kconsistency.Crew.name

let write_sync t ~ctx ~addr data =
  match lock t ~ctx ~addr ~len:(Bytes.length data) Ctypes.Write with
  | Error e -> Error e
  | Ok lctx ->
    let result = write t lctx ~addr data in
    let region = lctx.ctx_region in
    let written =
      Gaddr.Table.fold (fun page () acc -> page :: acc) lctx.ctx_written []
    in
    unlock t lctx;
    (match result with
     | Error _ as e -> e
     | Ok () -> (
       match lctx.ctx_publish with
       | Error _ as e -> e (* versioned publish did not settle *)
       | Ok () ->
         if (not (needs_flush t region)) || flush_through t ~ctx region written
         then Ok ()
         else Error `Timeout))

(* Optimistic per-page CAS for versioned regions: publish the write only if
   the home is still at exactly [expected] (obtained from {!page_version}
   or a prior write). [`Conflict] on mismatch — nothing is published and
   the local cache is repaired to the home's latest. Every page the write
   touches shares the one expected version, so the intended use is records
   within a single page. *)
let write_cas t ~ctx ~addr ~expected data =
  match lock t ~ctx ~addr ~len:(Bytes.length data) Ctypes.Write with
  | Error e -> Error e
  | Ok lctx ->
    if not (versioned_region lctx.ctx_region) then begin
      unlock t lctx;
      Error (`Unavailable "write_cas needs the versioned protocol")
    end
    else begin
      let result = write t lctx ~addr data in
      lctx.ctx_expected <- Some expected;
      unlock t lctx;
      match result with Error _ as e -> e | Ok () -> lctx.ctx_publish
    end

(* The home's current version of the page containing [addr] — the token a
   {!write_cas} caller passes back as [expected]. *)
let page_version t ~ctx ~addr =
  match down_guard t with
  | Some e -> Error e
  | None -> (
    match locate_region_in t ctx addr with
    | Error e -> Error e
    | Ok region ->
      if not (versioned_region region) then
        Error (`Unavailable "page_version needs the versioned protocol")
      else
        let page =
          Gaddr.page_floor addr ~page_size:region.Region.attr.Attr.page_size
        in
        if region.Region.home = t.id then begin
          let slot = machine_for t region page in
          match Machine.packed_read_at slot.packed None with
          | Some (_, v) -> Ok v
          | None -> Ok 0
        end
        else
          match
            rpc t ctx ~dst:region.Region.home
              (Wire.Page_version
                 { page; region_base = region.Region.base; at = None })
          with
          | Ok (Wire.R_page (Some (_, v))) -> Ok v
          | Ok (Wire.R_page None) -> Ok 0
          | Ok (Wire.R_error e) -> Error (`Unavailable e)
          | Ok _ -> Error (`Rpc "unexpected response to page_version")
          | Error ((`Timeout | `Unreachable) as e) -> Error e)

(* ------------------------------------------------------------------ *)
(* MVCC snapshots (versioned regions)                                  *)
(* ------------------------------------------------------------------ *)

(* A snapshot is a per-page version pin table: empty at begin, filled
   lazily — the first read of each page pins it at the latest settled
   version that read observed, and every later read of that page through
   the same snapshot serves exactly the pinned version. Reads never
   acquire locks and never trigger invalidations; writers never wait for
   them. The price is expiry: a pin whose version falls off the home's
   bounded chain answers [`Unavailable], and the reader begins a fresh
   snapshot. *)
let snapshot_begin t =
  match down_guard t with
  | Some e -> Error e
  | None ->
    let id = t.next_snap in
    t.next_snap <- t.next_snap + 1;
    Hashtbl.replace t.snapshots id (Gaddr.Table.create 8);
    Metrics.incr t.metrics "snap.begin";
    Ok id

let snapshot_release t snap = Hashtbl.remove t.snapshots snap

(* Fetch [page] at exactly [at] (or latest settled when [None]): the local
   machine first — the home's chain, or a cache copy sitting at the pinned
   version — then the home over the wire. [Ok None] means the version is
   no longer retained anywhere. *)
let snapshot_fetch t ctx (region : Region.t) page at =
  let local =
    match Gaddr.Table.find_opt t.machines page with
    | Some slot -> Machine.packed_read_at slot.packed at
    | None when region.Region.home = t.id ->
      let slot = machine_for t region page in
      Machine.packed_read_at slot.packed at
    | None -> None
  in
  match local with
  | Some _ as r -> Ok r
  | None ->
    if region.Region.home = t.id then Ok None
    else (
      match
        rpc t ctx ~dst:region.Region.home
          (Wire.Page_version { page; region_base = region.Region.base; at })
      with
      | Ok (Wire.R_page r) -> Ok r
      | Ok (Wire.R_error e) -> Error (`Unavailable e)
      | Ok _ -> Error (`Rpc "unexpected response to page_version")
      | Error ((`Timeout | `Unreachable) as e) -> Error e)

let snapshot_read t ~ctx ~snap ~addr ~len =
  match down_guard t with
  | Some e -> Error e
  | None -> (
    match Hashtbl.find_opt t.snapshots snap with
    | None -> Error (`Unavailable "unknown snapshot")
    | Some pins -> (
      match locate_region_in t ctx addr with
      | Error e -> Error e
      | Ok region ->
        if not (versioned_region region) then
          Error (`Unavailable "snapshot reads need the versioned protocol")
        else if not (Region.contains_range region addr ~len) then
          Error `Bad_range
        else begin
          let span =
            span_of t ctx "daemon.snapshot_read" (fun () ->
                [ ("addr", Gaddr.to_string addr);
                  ("len", string_of_int len);
                  ("snap", string_of_int snap) ])
          in
          let ctx = Op_ctx.with_span ctx span in
          let page_size = region.Region.attr.Attr.page_size in
          let out = Bytes.create len in
          let rec copy addr remaining written =
            if remaining = 0 then Ok ()
            else begin
              let page = Gaddr.page_floor addr ~page_size in
              let off = Gaddr.page_offset addr ~page_size in
              let n = min remaining (page_size - off) in
              let fetched =
                match Gaddr.Table.find_opt pins page with
                | Some v -> (
                  match snapshot_fetch t ctx region page (Some v) with
                  | Ok (Some (bytes, _)) -> Ok bytes
                  | Ok None ->
                    Error (`Unavailable "snapshot version expired (chain GC)")
                  | Error e -> Error e)
                | None -> (
                  match snapshot_fetch t ctx region page None with
                  | Ok (Some (bytes, v)) ->
                    Gaddr.Table.replace pins page v;
                    Ok bytes
                  | Ok None -> Error (`Unavailable "page missing at home")
                  | Error e -> Error e)
              in
              match fetched with
              | Error e -> Error e
              | Ok bytes ->
                Bytes.blit bytes off out written n;
                copy (Gaddr.add_int addr n) (remaining - n) (written + n)
            end
          in
          let result =
            match copy addr len 0 with Ok () -> Ok out | Error e -> Error e
          in
          (match result with
           | Ok _ -> finish_status t span "ok"
           | Error e -> finish_status t span (error_to_string e));
          result
        end))

let get_attr t ~ctx addr =
  match down_guard t with
  | Some e -> Error e
  | None ->
  match locate_region_in t ctx addr with
  | Ok region -> Ok region.Region.attr
  | Error e -> Error e

let set_attr t ~ctx base (attr : Attr.t) =
  match down_guard t with
  | Some e -> Error e
  | None ->
  let span =
    span_of t ctx "daemon.set_attr" (fun () ->
        [ ("base", Gaddr.to_string base) ])
  in
  let ctx = Op_ctx.with_span ctx span in
  let principal = Op_ctx.principal ctx in
  let result =
    match locate_region_in t ctx base with
    | Error e -> Error e
    | Ok region ->
      if not (Gaddr.equal region.Region.base base) then Error `Bad_range
      else if principal <> region.Region.attr.Attr.owner then Error `Access_denied
      else begin
        (* Only policy fields may change after creation. *)
        let updated =
          { region.Region.attr with
            Attr.world = attr.Attr.world;
            min_replicas = attr.Attr.min_replicas;
          }
        in
        if region.Region.home = t.id then begin
          let region' = { region with Region.attr = updated } in
          Gaddr.Table.replace t.homed base region';
          note_homed_put t region';
          Region_directory.put t.rdir region';
          Ok ()
        end
        else
          match rpc t ctx ~dst:region.Region.home (Wire.Set_attr { base; attr = updated }) with
          | Ok Wire.R_unit ->
            Region_directory.put t.rdir { region with Region.attr = updated };
            Ok ()
          | Ok (Wire.R_error e) -> Error (`Unavailable e)
          | Ok _ -> Error (`Rpc "unexpected response to set_attr")
          | Error (`Timeout as e) | Error (`Unreachable as e) -> Error e
      end
  in
  (match result with
   | Ok () -> finish_status t span "ok"
   | Error e -> finish_status t span (error_to_string e));
  result

(* ------------------------------------------------------------------ *)
(* Distributed atomic commit: 2PC over the WAL (§4)                    *)
(* ------------------------------------------------------------------ *)

(* The protocol in one paragraph. A transaction buffers writes under
   write-intent (2PL) locks taken through the ordinary pipelined {!lock}
   path. At commit the coordinator computes the new page images, groups
   them by region home, and drives two-phase commit: each participant home
   forces the images plus a [Prepare] record through its WAL (its yes
   vote), then the coordinator forces a [Decide commit] record through its
   own WAL — the commit point — and broadcasts the decision. Presumed
   abort: aborts are never logged at the coordinator, so a participant
   stuck with a prepared-undecided transaction (after any crash) asks the
   coordinator and treats "no record of it" as abort. The decision record
   carries the participant list; it is kept (across checkpoints and
   crashes, via the snapshot) until every participant has acked, then
   forgotten with a [txn.forget] control note. Stale actors are fenced by
   the epoch machinery: a coordinator that crashed mid-vote can never log
   a decision afterwards, which is what makes "no record = abort" safe. *)

let txn_event t ~span gtx name attrs =
  if Trace.enabled () then
    Trace.event ~engine:t.engine ~node:t.id ~span name
      ~attrs:(("txid", Txid.to_string gtx) :: attrs)

(* Participant phase one: force the images and the prepare record, answer
   the vote. Idempotent — a retried prepare for a transaction already
   prepared (or even decided) re-votes yes without re-logging. *)
let participant_prepare t ~span gtx pages =
  if Txid.Table.mem t.txn_decided gtx || Txid.Table.mem t.txn_prepared gtx
  then true
  else begin
    let tx = Wal.begin_tx t.wal in
    List.iter (fun (page, img) -> Wal.log_page t.wal tx page img) pages;
    Wal.prepare t.wal tx gtx;
    Txid.Table.replace t.txn_prepared gtx
      { p_pages = pages; p_since = Ksim.Engine.now t.engine;
        p_querying = false };
    Metrics.incr t.metrics "txn.prepare";
    txn_event t ~span gtx "txn.prepare"
      [ ("pages", string_of_int (List.length pages)) ];
    true
  end

(* Participant phase two: log the decision and, on commit, install the
   prepared images in the local store. Duplicate decisions — and decisions
   for unknown (long-forgotten) transactions — are no-ops. *)
let participant_decide t ~span gtx commit =
  match Txid.Table.find_opt t.txn_prepared gtx with
  | None ->
    if Txid.Table.mem t.txn_decided gtx then
      Metrics.incr t.metrics "txn.decide.dup"
  | Some entry ->
    (* Commit decisions sync (the ack below promises durability); abort
       decisions may ride unsynced — losing one merely re-runs the
       presumed-abort resolution. *)
    Wal.decide t.wal ~sync:commit gtx ~commit ~participants:[];
    if commit then
      List.iter
        (fun (page, img) ->
          (match homed_containing t page with
           | Some region ->
             ignore
               (pdir_ensure_logged t ~page ~region_base:region.Region.base
                  ~homed_here:true)
           | None -> ());
          Store.write_immediate t.store page img ~dirty:false;
          Store.flush_immediate t.store page;
          (* The store now holds the committed image, but a live machine
             for this page still caches (and would keep serving) the
             pre-transaction bytes. Pin the image until the CM catches up
             — see [pin]. The prepared entry, dropped below, owned [img];
             the pin takes it over without a copy. *)
          Gaddr.Table.replace t.txn_pins page
            { pin_img = img;
              pin_since = Ksim.Engine.now t.engine;
              pin_busy = false })
        entry.p_pages;
    Txid.Table.remove t.txn_prepared gtx;
    Txid.Table.replace t.txn_decided gtx commit;
    Metrics.incr t.metrics
      (if commit then "txn.decide.commit" else "txn.decide.abort");
    txn_event t ~span gtx "txn.decide" [ ("commit", string_of_bool commit) ]

(* Coordinator's answer to an in-doubt participant. Order matters: a
   committed transaction must never read as aborted, and one still inside
   its voting window must stall the asker rather than resolve it. *)
let txn_status t gtx =
  if
    Txid.Table.find_opt t.txn_decided gtx = Some true
    || Txid.Table.mem t.txn_decisions gtx
  then Wire.Tx_committed
  else if Txid.Table.mem t.txn_active gtx then Wire.Tx_in_progress
  else Wire.Tx_aborted

(* A participant acked the commit decision: once the last ack is in, the
   decision is garbage — forget it (logged, so replay forgets too). *)
let txn_ack_decide t gtx dst =
  match Txid.Table.find_opt t.txn_decisions gtx with
  | None -> ()
  | Some parts ->
    let rest = List.filter (fun n -> n <> dst) parts in
    if rest = [] then begin
      Txid.Table.remove t.txn_decisions gtx;
      let e = Codec.encoder () in
      Txid.encode e gtx;
      Wal.control t.wal ~sync:false "txn.forget" (Codec.to_bytes e)
    end
    else Txid.Table.replace t.txn_decisions gtx rest

(* ---- the client-side transaction handle ---- *)

type txn = {
  txn_op : Op_ctx.t;
  txn_uid : int;
  mutable txn_locks : lock_ctx list;
  mutable txn_writes : (Gaddr.t * bytes) list;  (* newest first *)
  mutable txn_reads : (Gaddr.t * bytes) list;
      (* stored bytes observed through Read-mode contexts, pre-overlay —
         re-checked if the covering lock is upgraded *)
  mutable txn_snap : int option;
      (* lazily opened MVCC snapshot: reads of versioned regions the
         transaction has not written go through it, lock-free *)
  mutable txn_live : bool;
}

let next_txn_uid = ref 0

let txn_begin t ~ctx =
  ignore t;
  let uid = !next_txn_uid in
  incr next_txn_uid;
  {
    txn_op = ctx;
    txn_uid = uid;
    txn_locks = [];
    txn_writes = [];
    txn_reads = [];
    txn_snap = None;
    txn_live = true;
  }

let txn_uid txn = txn.txn_uid

let txn_release_locks t txn =
  let locks = txn.txn_locks in
  txn.txn_locks <- [];
  List.iter (fun c -> unlock t c) locks;
  (* Called at every transaction exit (commit, abort, kill), so the MVCC
     snapshot dies exactly when the transaction does. *)
  match txn.txn_snap with
  | Some s ->
    snapshot_release t s;
    txn.txn_snap <- None
  | None -> ()

(* The transaction lost lock coverage it had relied on (failed upgrade):
   its observations are no longer protected, so it cannot be allowed to
   commit. Buffered writes are dropped; nothing was staged. *)
let txn_kill t txn =
  txn.txn_live <- false;
  txn.txn_writes <- [];
  txn.txn_reads <- [];
  Metrics.incr t.metrics "txn.abort";
  txn_release_locks t txn

(* After re-acquiring released read ranges in Write mode, re-read every
   recorded observation the new contexts cover: a writer that slipped
   into the release window must turn the upgrade into an abort, not a
   lost update. *)
let txn_validate_reads t txn new_ctxs =
  let rec go = function
    | [] -> Ok ()
    | (addr, seen) :: rest -> (
      let len = Bytes.length seen in
      match List.find_opt (fun c -> ctx_covers c addr ~len) new_ctxs with
      | None -> go rest
      | Some c -> (
        match read t c ~addr ~len with
        | Error e -> Error e
        | Ok now ->
          if Bytes.equal now seen then go rest
          else Error (`Conflict "read range changed during lock upgrade")))
  in
  go txn.txn_reads

(* Strict two-phase locking with shared read locks: a range first touched
   by [txn_read] is locked in [Read] mode (read-mostly transactions no
   longer serialize against each other), a written range in [Write] mode,
   and all locks are held to the end. Writing a range held only in Read
   mode upgrades it by release-reacquire-validate: an in-place upgrade
   would self-deadlock (the local lock table grants Write only at zero
   readers, and we are one of the readers), so the Read contexts are
   released, re-acquired in Write mode, and the observations they covered
   re-validated — any change aborts with [`Conflict]. *)
let txn_lock t txn ~addr ~len ~mode =
  let covering_write () =
    List.find_opt
      (fun c -> c.ctx_mode = Ctypes.Write && ctx_covers c addr ~len)
      txn.txn_locks
  in
  match covering_write () with
  | Some c -> Ok c
  | None -> (
    match mode with
    | Ctypes.Read -> (
      match
        List.find_opt (fun c -> ctx_covers c addr ~len) txn.txn_locks
      with
      | Some c -> Ok c
      | None -> (
        match lock t ~ctx:txn.txn_op ~addr ~len Ctypes.Read with
        | Ok c ->
          txn.txn_locks <- c :: txn.txn_locks;
          Ok c
        | Error e -> Error e))
    | Ctypes.Write -> (
      let wend = Gaddr.add_int addr len in
      let overlaps c =
        c.ctx_live
        && Gaddr.compare c.ctx_addr wend < 0
        && Gaddr.compare addr (Gaddr.add_int c.ctx_addr c.ctx_len) < 0
      in
      let to_upgrade, keep =
        List.partition
          (fun c -> c.ctx_mode = Ctypes.Read && overlaps c)
          txn.txn_locks
      in
      txn.txn_locks <- keep;
      List.iter (fun c -> unlock t c) to_upgrade;
      let rec reacquire acc = function
        | [] -> Ok acc
        | c :: rest -> (
          match
            lock t ~ctx:txn.txn_op ~addr:c.ctx_addr ~len:c.ctx_len Ctypes.Write
          with
          | Ok c' ->
            txn.txn_locks <- c' :: txn.txn_locks;
            reacquire (c' :: acc) rest
          | Error e -> Error e)
      in
      match reacquire [] to_upgrade with
      | Error e ->
        txn_kill t txn;
        Error e
      | Ok new_ctxs -> (
        match txn_validate_reads t txn new_ctxs with
        | Error e ->
          txn_kill t txn;
          Error e
        | Ok () -> (
          match covering_write () with
          | Some c -> Ok c
          | None -> (
            match lock t ~ctx:txn.txn_op ~addr ~len Ctypes.Write with
            | Ok c ->
              txn.txn_locks <- c :: txn.txn_locks;
              Ok c
            | Error e ->
              if to_upgrade <> [] then txn_kill t txn;
              Error e)))))

let txn_dead_guard txn =
  if txn.txn_live then None else Some (`Conflict "transaction finished")

(* Overlay one buffered write onto a read result where the ranges
   intersect. *)
let overlay_write ~addr ~len out (waddr, data) =
  let wlen = Bytes.length data in
  let lo = if Gaddr.compare addr waddr > 0 then addr else waddr in
  let rend = Gaddr.add_int addr len in
  let wend = Gaddr.add_int waddr wlen in
  let hi = if Gaddr.compare rend wend < 0 then rend else wend in
  if Gaddr.compare lo hi < 0 then
    Bytes.blit data (Gaddr.diff lo waddr) out (Gaddr.diff lo addr)
      (Gaddr.diff hi lo)

let txn_read t txn ~addr ~len =
  match txn_dead_guard txn with
  | Some e -> Error e
  | None -> (
    match down_guard t with
    | Some e -> Error e
    | None ->
      (* MVCC fast path: a read of a versioned region the transaction has
         not written is served from the transaction's snapshot — no lock,
         no serialization against writers, not recorded for upgrade
         re-validation (the pin, not a lock, is what keeps it stable).
         Ranges the transaction wrote (buffered or under a Write intent)
         stay on the locking path for read-your-writes. *)
      let wend = Gaddr.add_int addr len in
      let writes_overlap =
        List.exists
          (fun c ->
            c.ctx_live
            && c.ctx_mode = Ctypes.Write
            && Gaddr.compare c.ctx_addr wend < 0
            && Gaddr.compare addr (Gaddr.add_int c.ctx_addr c.ctx_len) < 0)
          txn.txn_locks
        || List.exists
             (fun (waddr, data) ->
               let wlen = Bytes.length data in
               Gaddr.compare waddr wend < 0
               && Gaddr.compare addr (Gaddr.add_int waddr wlen) < 0)
             txn.txn_writes
      in
      let mvcc =
        (not writes_overlap)
        &&
        match locate_region_in t txn.txn_op addr with
        | Ok region -> versioned_region region
        | Error _ -> false
      in
      if mvcc then (
        let snap =
          match txn.txn_snap with
          | Some s -> Ok s
          | None -> (
            match snapshot_begin t with
            | Ok s ->
              txn.txn_snap <- Some s;
              Ok s
            | Error e -> Error e)
        in
        match snap with
        | Error e -> Error e
        | Ok snap -> snapshot_read t ~ctx:txn.txn_op ~snap ~addr ~len)
      else (
      match txn_lock t txn ~addr ~len ~mode:Ctypes.Read with
      | Error e -> Error e
      | Ok c -> (
        match read t c ~addr ~len with
        | Error e -> Error e
        | Ok out ->
          if c.ctx_mode = Ctypes.Read then
            txn.txn_reads <- (addr, Bytes.copy out) :: txn.txn_reads;
          (* Read-your-writes: buffered writes overlay the stored bytes,
             oldest first so later writes win. *)
          List.iter (overlay_write ~addr ~len out) (List.rev txn.txn_writes);
          Ok out)))

let txn_write t txn ~addr data =
  match txn_dead_guard txn with
  | Some e -> Error e
  | None -> (
    match down_guard t with
    | Some e -> Error e
    | None -> (
      match txn_lock t txn ~addr ~len:(Bytes.length data) ~mode:Ctypes.Write with
      | Error e -> Error e
      | Ok _ ->
        txn.txn_writes <- (addr, Bytes.copy data) :: txn.txn_writes;
        Ok ()))

let txn_abort t txn =
  if txn.txn_live then begin
    txn.txn_live <- false;
    txn.txn_writes <- [];
    txn.txn_reads <- [];
    Metrics.incr t.metrics "txn.abort";
    (* No writes were staged through the lock contexts, so releasing
       propagates nothing: the store still holds the pre-transaction
       images everywhere. *)
    txn_release_locks t txn
  end

(* Compute the committed page images from the locked stored bytes plus the
   write buffer — without touching the store, so an abort at any later
   point leaves clean state ([Store.read] returns a copy, which staging
   patches). Returns images in first-touch order. *)
let txn_images t txn =
  let images : (Region.t * bytes) Gaddr.Table.t = Gaddr.Table.create 8 in
  let order = ref [] in
  let stage (addr, data) =
    let len = Bytes.length data in
    match
      List.find_opt
        (fun c -> c.ctx_mode = Ctypes.Write && ctx_covers c addr ~len)
        txn.txn_locks
    with
    | None -> Error (`Conflict "write range lost its lock")
    | Some c ->
      let region = c.ctx_region in
      let page_size = region.Region.attr.Attr.page_size in
      let rec per_page = function
        | [] -> Ok ()
        | page :: rest -> (
          let base =
            match Gaddr.Table.find_opt images page with
            | Some (_, b) -> Some b
            | None -> (
              match Store.read t.store page with
              | Some b ->
                Gaddr.Table.replace images page (region, b);
                order := page :: !order;
                Some b
              | None -> None)
          in
          match base with
          | None -> Error (`Unavailable "page missing from local store")
          | Some b ->
            let pend = Gaddr.add_int page page_size in
            let lo = if Gaddr.compare addr page > 0 then addr else page in
            let wend = Gaddr.add_int addr len in
            let hi = if Gaddr.compare wend pend < 0 then wend else pend in
            Bytes.blit data (Gaddr.diff lo addr) b (Gaddr.diff lo page)
              (Gaddr.diff hi lo);
            per_page rest)
      in
      per_page (Gaddr.pages_in addr ~len ~page_size)
  in
  let rec stage_all = function
    | [] -> Ok ()
    | w :: rest -> (
      match stage w with Ok () -> stage_all rest | Error e -> Error e)
  in
  match stage_all (List.rev txn.txn_writes) with
  | Error e -> Error e
  | Ok () ->
    Ok
      (List.rev_map
         (fun page ->
           let region, img = Gaddr.Table.find images page in
           (page, region, img))
         !order)

let txn_commit t txn =
  match txn_dead_guard txn with
  | Some e -> Error e
  | None ->
    txn.txn_live <- false;
    match down_guard t with
    | Some e ->
      txn_release_locks t txn;
      Error e
    | None when txn.txn_writes = [] ->
      txn_release_locks t txn;
      Ok ()
    | None ->
      let epoch = t.epoch in
      let span = span_of t txn.txn_op "daemon.txn_commit" (fun () -> []) in
      let ctx = Op_ctx.with_span txn.txn_op span in
      let sp = Op_ctx.span ctx in
      let gtx = Txid.make ~coord:t.id ~epoch:t.epoch ~seq:t.next_txn_seq in
      t.next_txn_seq <- t.next_txn_seq + 1;
      t.txn_last <- Some gtx;
      let crashed () =
        txn_release_locks t txn;
        finish_status t span "crashed";
        Error (`Unavailable "node crashed")
      in
      let aborted remote why =
        (* Presumed abort: nothing is logged at the coordinator. Tell the
           participants that may have prepared, best-effort — the ones a
           lost message misses will resolve through the status query. *)
        Txid.Table.remove t.txn_active gtx;
        if Txid.Table.mem t.txn_prepared gtx then
          participant_decide t ~span:sp gtx false;
        List.iter
          (fun dst ->
            Ksim.Fiber.spawn t.engine ~name:"txn-abort-notify" (fun () ->
                if alive t epoch then
                  ignore
                    (rpc t Op_ctx.background ~policy:Wire.Policy.idempotent
                       ~dst (Wire.Tx_decide { gtx; commit = false }))))
          remote;
        Metrics.incr t.metrics "txn.abort";
        txn_event t ~span:sp gtx "txn.decide" [ ("commit", "false") ];
        txn_release_locks t txn;
        finish_status t span "aborted";
        Error (`Conflict why)
      in
      (match txn_images t txn with
       | Error e ->
         txn_release_locks t txn;
         finish_status t span (error_to_string e);
         Error e
       | Ok images ->
         (* Group by region home; every distinct home is a participant. *)
         let by_home = Hashtbl.create 4 in
         List.iter
           (fun (page, region, img) ->
             let home = region.Region.home in
             let prev =
               Option.value (Hashtbl.find_opt by_home home) ~default:[]
             in
             Hashtbl.replace by_home home ((page, img) :: prev))
           images;
         let participants =
           Hashtbl.fold (fun n _ acc -> n :: acc) by_home []
           |> List.sort compare
         in
         let remote = List.filter (fun n -> n <> t.id) participants in
         let pages_of n = List.rev (Hashtbl.find by_home n) in
         Txid.Table.replace t.txn_active gtx ();
         txn_event t ~span:sp gtx "txn.begin"
           [ ("participants",
              String.concat "," (List.map string_of_int participants)) ];
         txn_step t "coord.before_prepare";
         if not (alive t epoch) then crashed ()
         else begin
           (* Phase one: the local leg forces its prepare directly; remote
              legs go out in parallel under the aggressive-retry policy. *)
           let local_ok =
             if Hashtbl.mem by_home t.id then
               participant_prepare t ~span:sp gtx (pages_of t.id)
             else true
           in
           let votes =
             remote
             |> List.map (fun dst ->
                    ( dst,
                      Ksim.Fiber.async t.engine ~name:"txn-prepare"
                        (fun () ->
                          match
                            rpc t ctx ~policy:Wire.Policy.idempotent ~dst
                              (Wire.Tx_prepare { gtx; pages = pages_of dst })
                          with
                          | Ok (Wire.R_tx_vote v) -> v
                          | Ok _ | Error (`Timeout | `Unreachable) -> false) ))
             |> List.map (fun (dst, p) ->
                    let v = Ksim.Fiber.await p in
                    txn_step t "coord.prepare_ack";
                    (dst, v))
           in
           if not (alive t epoch) then crashed ()
           else if not (local_ok && List.for_all snd votes) then
             aborted remote
               "transaction aborted: participant unreachable or voted no"
           else begin
             txn_step t "coord.all_acked";
             if not (alive t epoch) then crashed ()
             else begin
               (* The commit point: the decision record is forced into the
                  coordinator's own WAL, with the participant list so a
                  recovered coordinator resumes the broadcast. *)
               Wal.decide t.wal gtx ~commit:true ~participants:remote;
               Txid.Table.replace t.txn_decided gtx true;
               Txid.Table.remove t.txn_active gtx;
               if remote <> [] then
                 Txid.Table.replace t.txn_decisions gtx remote;
               Metrics.incr t.metrics "txn.commit";
               txn_event t ~span:sp gtx "txn.decide" [ ("commit", "true") ];
               txn_step t "coord.decision_logged";
               if alive t epoch then begin
                 (* Apply locally. The prepared local leg installs its
                    images; then the buffered writes are staged through the
                    held lock contexts so the release below propagates the
                    new images through the consistency machinery exactly
                    like ordinary writes. *)
                 if Txid.Table.mem t.txn_prepared gtx then
                   participant_decide t ~span:sp gtx true;
                 List.iter
                   (fun (addr, data) ->
                     match
                       List.find_opt
                         (fun c ->
                           c.ctx_mode = Ctypes.Write
                           && ctx_covers c addr ~len:(Bytes.length data))
                         txn.txn_locks
                     with
                     | Some c -> ignore (write t c ~addr data)
                     | None -> ())
                   (List.rev txn.txn_writes);
                 (* Phase two, fast path: one synchronous push per remote
                    participant. Whatever stays unacked is re-pushed by the
                    repair loop until it drains. *)
                 List.iter
                   (fun dst ->
                     txn_step t "coord.decide_send";
                     if alive t epoch then
                       match
                         rpc t ctx ~policy:Wire.Policy.idempotent ~dst
                           (Wire.Tx_decide { gtx; commit = true })
                       with
                       | Ok Wire.R_unit -> txn_ack_decide t gtx dst
                       | Ok _ | Error (`Timeout | `Unreachable) -> ())
                   remote;
                 txn_release_locks t txn;
                 (* Write the committed images through to their homes,
                    exactly as [write_sync] does for plain writes: the
                    flush refreshes each home's WAL and manager backup
                    and — carrying byte-identical images — clears the
                    participants' txn pins, so the pin-repair pass never
                    has to resurrect an image a later write superseded.
                    The commit point has passed, so flush failures only
                    arm background retries; the result stays [Ok]. *)
                 List.iter
                   (fun (page, region, _img) ->
                     if needs_flush t region then
                       ignore (flush_through t ~ctx region [ page ]))
                   images
               end;
               finish_status t span "committed";
               (* The decision is durable: the transaction is committed
                  even if this node crashed mid-broadcast — recovery and
                  the resolver finish the delivery. *)
               Ok ()
             end
           end
         end)

(* Periodic 2PC maintenance, run from the repair loop.

   Coordinator half: re-push committed decisions that some participant has
   not acked (it was down or partitioned during the broadcast).

   Participant half: prepared-but-undecided transactions older than
   [txn_resolve_after] query the coordinator. "Committed" applies,
   "aborted" (including "never heard of it" — presumed abort) drops, "in
   progress" waits for the next pass. *)
let txn_maintenance t epoch =
  let now = Ksim.Engine.now t.engine in
  let pending =
    Txid.Table.fold (fun g parts acc -> (g, parts) :: acc) t.txn_decisions []
  in
  List.iter
    (fun (gtx, parts) ->
      List.iter
        (fun dst ->
          Ksim.Fiber.spawn t.engine ~name:"txn-rebroadcast" (fun () ->
              if alive t epoch then
                match
                  rpc t Op_ctx.background ~policy:Wire.Policy.idempotent ~dst
                    (Wire.Tx_decide { gtx; commit = true })
                with
                | Ok Wire.R_unit ->
                  if alive t epoch then txn_ack_decide t gtx dst
                | Ok _ | Error (`Timeout | `Unreachable) -> ()))
        parts)
    pending;
  let stale =
    Txid.Table.fold
      (fun g e acc ->
        if (not e.p_querying) && now - e.p_since >= t.cfg.txn_resolve_after
        then (g, e) :: acc
        else acc)
      t.txn_prepared []
  in
  List.iter
    (fun (gtx, entry) ->
      entry.p_querying <- true;
      Ksim.Fiber.spawn t.engine ~name:"txn-resolve" (fun () ->
          let answer =
            if gtx.Txid.coord = t.id then Some (txn_status t gtx)
            else
              match
                rpc t Op_ctx.background ~policy:Wire.Policy.idempotent
                  ~dst:gtx.Txid.coord (Wire.Tx_status { gtx })
              with
              | Ok (Wire.R_tx_status st) -> Some st
              | Ok _ | Error (`Timeout | `Unreachable) -> None
          in
          if alive t epoch then
            match Txid.Table.find_opt t.txn_prepared gtx with
            | Some e when e == entry -> (
              entry.p_querying <- false;
              entry.p_since <- Ksim.Engine.now t.engine;
              match answer with
              | Some Wire.Tx_committed ->
                Metrics.incr t.metrics "txn.resolve";
                txn_event t ~span:Trace.null gtx "txn.resolve"
                  [ ("commit", "true") ];
                participant_decide t ~span:Trace.null gtx true
              | Some Wire.Tx_aborted ->
                Metrics.incr t.metrics "txn.resolve";
                txn_event t ~span:Trace.null gtx "txn.resolve"
                  [ ("commit", "false") ];
                participant_decide t ~span:Trace.null gtx false
              | Some Wire.Tx_in_progress | None -> ())
            | Some _ | None -> ()))
    stale;
  (* Overdue pins: the coordinator never released its write locks (it died
     holding them), so the consistency machine still serves the
     pre-transaction image. Re-write the committed image through a local
     write lock — the acquisition itself runs the CM's dead-owner
     fail-over, and the release propagates the image and revokes every
     stale survivor copy. The pin identity check after the (blocking)
     acquisition guards the race where the coordinator's own release
     cleared the pin while we waited. *)
  let overdue =
    Gaddr.Table.fold
      (fun page pin acc ->
        if (not pin.pin_busy) && now - pin.pin_since >= t.cfg.txn_resolve_after
        then (page, pin) :: acc
        else acc)
      t.txn_pins []
  in
  List.iter
    (fun (page, pin) ->
      pin.pin_busy <- true;
      Ksim.Fiber.spawn t.engine ~name:"txn-pin-repair" (fun () ->
          let pin_current () =
            match Gaddr.Table.find_opt t.txn_pins page with
            | Some p -> p == pin
            | None -> false
          in
          match homed_containing t page with
          | None ->
            (* Region freed out from under the pin: nothing left to sync. *)
            if alive t epoch && pin_current () then
              Gaddr.Table.remove t.txn_pins page
          | Some region -> (
            let len = region.Region.attr.Attr.page_size in
            match lock t ~ctx:Op_ctx.background ~addr:page ~len Ctypes.Write with
            | Ok c ->
              if alive t epoch then begin
                if pin_current () then begin
                  ignore (write t c ~addr:page pin.pin_img);
                  Gaddr.Table.remove t.txn_pins page;
                  Metrics.incr t.metrics "txn.pin.repair"
                end;
                unlock t c
              end
            | Error _ ->
              (* Back off: the next maintenance tick retries. *)
              if alive t epoch && pin_current () then begin
                pin.pin_busy <- false;
                pin.pin_since <- Ksim.Engine.now t.engine
              end)))
    overdue

(* ------------------------------------------------------------------ *)
(* Server side                                                         *)
(* ------------------------------------------------------------------ *)

let serve_cm_msg t ctx ~src ~page ~region_base body =
  (* In-doubt fence, protocol side: remote lock traffic for a page with a
     prepared-undecided transaction gets silence, not a stale grant. The
     peer's retry ladder absorbs the timeout and the page opens up as
     soon as the decision lands. *)
  if in_doubt t page then ()
  else
  match Gaddr.Table.find_opt t.machines page with
  | Some slot -> feed t ~span:(Op_ctx.span ctx) slot page (Ctypes.Peer { src; msg = body })
  | None ->
    (* First contact for this page: resolve its region (usually a region
       directory hit) in a fiber, then feed. *)
    Ksim.Fiber.spawn t.engine ~name:"cm-resolve" (fun () ->
        let region =
          if Region.contains (map_region t) page then Some (map_region t)
          else
            match homed_containing t page with
            | Some r -> Some r
            | None -> (
              match locate_region_in t ctx region_base with
              | Ok r when Region.contains r page -> Some r
              | Ok _ | Error _ -> None)
        in
        match region with
        | Some region when t.up ->
          let slot = machine_for t region page in
          feed t ~span:(Op_ctx.span ctx) slot page (Ctypes.Peer { src; msg = body })
        | Some _ | None -> ())

(* Adopt a manager's suspicion list for [cluster]: wholesale replace for
   that cluster's members (suspect the listed, clear the rest). Local
   direct evidence still wins afterwards — any message from a wrongly
   suspected node clears it. A manager hearing about a foreign cluster
   relays the hint to its own members; members never forward, so the
   dissemination is exactly two hops and cannot loop. *)
let apply_suspect_hint t ~src ~cluster sus =
  List.iter
    (fun n ->
      if n <> t.id && n <> src then
        if List.mem n sus then suspect t n else clear_suspect t n)
    (Topology.cluster_members t.topology cluster);
  let my_cluster = Topology.cluster_of t.topology t.id in
  if t.cm_state <> None && cluster <> my_cluster then
    List.iter
      (fun m ->
        if m <> t.id then
          Wire.Transport.notify t.transport ~src:t.id ~dst:m
            (Wire.Suspect_hint { cluster; suspects = sus }))
      (Topology.cluster_members t.topology my_cluster)

let serve t ~src ~span request ~reply =
  if t.up then begin
    (* Any traffic from [src] is direct evidence it is alive. *)
    if src <> t.id then begin
      clear_suspect t src;
      match t.cm_state with
      | Some cm
        when Topology.cluster_of t.topology src
             = Topology.cluster_of t.topology t.id ->
        Cluster.heartbeat cm ~node:src ~now:(Ksim.Engine.now t.engine)
      | Some _ | None -> ()
    end;
    (* The caller's span id arrived in the envelope: everything this
       dispatch does nests under the remote operation. Untraced traffic
       (span 0) opens no span, so background chatter never pollutes the
       record stream with disconnected roots. *)
    let sspan =
      if Trace.enabled () && span <> 0 then
        Trace.child ~engine:t.engine ~node:t.id
          ~parent:(Trace.of_id span)
          ~attrs:[ ("src", string_of_int src) ]
          ("daemon.serve." ^ Wire.request_kind request)
      else Trace.null
    in
    let ctx = Op_ctx.make ~span:sspan (-1) in
    Fun.protect ~finally:(fun () -> finish_span t sspan) @@ fun () ->
    match request with
    | Wire.Cm_msg { page; region_base; body } ->
      serve_cm_msg t ctx ~src ~page ~region_base body
    | Wire.Get_descriptor { addr } ->
      let answer =
        match homed_containing t addr with
        | Some r -> Some r
        | None -> Region_directory.find t.rdir addr
      in
      reply (Wire.R_descriptor answer)
    | Wire.Alloc_region { desc } ->
      if desc.Region.home <> t.id then reply (Wire.R_error "not my region")
      else begin
        (match Gaddr.Table.find_opt t.homed desc.Region.base with
         | Some r -> allocate_local t r
         | None ->
           (* Home lost the descriptor (recovered from crash): adopt it. *)
           allocate_local t desc);
        reply Wire.R_unit
      end
    | Wire.Free_region { base } ->
      if free_local t base then reply Wire.R_unit
      else reply (Wire.R_error "free failed")
    | Wire.Unreserve_region { base } ->
      Ksim.Fiber.spawn t.engine ~name:"unreserve-serve" (fun () ->
          ignore (unreserve_local t ctx base);
          reply Wire.R_unit)
    | Wire.Set_attr { base; attr } -> (
      match Gaddr.Table.find_opt t.homed base with
      | Some region ->
        let region' = { region with Region.attr = attr } in
        Gaddr.Table.replace t.homed base region';
        note_homed_put t region';
        Region_directory.put t.rdir region';
        reply Wire.R_unit
      | None -> reply (Wire.R_error "unknown region"))
    | Wire.Chunk_request -> (
      match t.cm_state with
      | Some cm ->
        let base, len = Cluster.next_chunk cm in
        reply (Wire.R_chunk { base; len })
      | None -> reply (Wire.R_error "not a cluster manager"))
    | Wire.Cluster_lookup { addr } | Wire.Cluster_walk { addr } -> (
      match t.cm_state with
      | Some cm ->
        let desc, holders = Cluster.lookup cm addr in
        reply (Wire.R_lookup { desc; holders })
      | None -> reply (Wire.R_error "not a cluster manager"))
    | Wire.Cluster_report { node_regions; free_bytes } -> (
      match t.cm_state with
      | Some cm ->
        Cluster.record_report ~now:(Ksim.Engine.now t.engine) cm ~node:src
          ~regions:node_regions ~free_bytes
      | None -> ())
    | Wire.Suspect_hint { cluster; suspects } ->
      apply_suspect_hint t ~src ~cluster suspects
    | Wire.Page_pull { page } -> (
      match Gaddr.Table.find_opt t.machines page with
      | Some slot when Machine.packed_has_valid_copy slot.packed -> (
        match Store.read_immediate t.store page with
        | Some data ->
          reply (Wire.R_page (Some (data, Machine.packed_version slot.packed)))
        | None -> reply (Wire.R_page None))
      | Some _ | None -> reply (Wire.R_page None))
    | Wire.Page_probe { page } ->
      reply
        (Wire.R_held
           (match Gaddr.Table.find_opt t.machines page with
           | Some slot -> Machine.packed_has_valid_copy slot.packed
           | None -> false))
    | Wire.Page_flush { page; region_base; data; version } -> (
      match Gaddr.Table.find_opt t.homed region_base with
      | Some region when Region.contains region page ->
        let slot = machine_for t region page in
        if version < Machine.packed_backup_version slot.packed then
          (* An obsolete image: a background retry finally delivering a
             flush some newer write has already overtaken. Applying it
             would plant stale bytes in the WAL (replayed last on
             recovery) and the store. Ack it — the writer's obligation
             was discharged by whatever superseded it. *)
          reply Wire.R_unit
        else begin
        (* Write-ahead first: the ack promises the image survives a home
           crash. Then let the machine absorb it — CREW's Update keeps the
           freshest version as the manager backup, so read fail-over
           around a crashed owner serves nothing older than this write.
           The store copy stays machine-governed: only write it when the
           machine holds no valid copy of its own. *)
        let tx = Wal.begin_tx t.wal in
        Wal.log_page t.wal tx page data;
        Wal.commit t.wal tx;
        (* A flush carrying exactly a pinned committed image discharges
           the pin — but only when the home machine holds no copy of its
           own, so the store write below leaves store = pinned image and
           readers fetch from the (fresh) owner. While the home still
           caches bytes of its own they may be the stale pre-transaction
           copy the pin exists to overwrite: keep it and let the repair
           pass force the committed image through the CM. *)
        let has_copy = Machine.packed_has_valid_copy slot.packed in
        (match Gaddr.Table.find_opt t.txn_pins page with
         | Some pin when (not has_copy) && Bytes.equal pin.pin_img data ->
           Gaddr.Table.remove t.txn_pins page
         | Some _ | None -> ());
        feed t ~span:sspan slot page
          (Ctypes.Peer { src; msg = Ctypes.Update { data; version } });
        if not has_copy then begin
          Store.write_immediate t.store page data ~dirty:false;
          Store.flush_immediate t.store page
        end;
        reply Wire.R_unit
        end
      | Some _ | None -> reply (Wire.R_error "not my region"))
    | Wire.Page_diff { page; region_base; parent; expected; payload } -> (
      (* Versioned publish at the home: let the machine mint (or refuse) a
         new version and ship the outcome back. The minted image reaches
         the store and the WAL through the Install action the machine
         returns, exactly like a local write. *)
      match Gaddr.Table.find_opt t.homed region_base with
      | Some region when Region.contains region page ->
        let slot = machine_for t region page in
        let result, actions =
          Machine.packed_publish slot.packed ~src ~parent ~expected ~payload
        in
        apply_actions t ~span:sspan slot page actions;
        reply (Wire.R_publish result)
      | Some _ | None -> reply (Wire.R_error "not my region"))
    | Wire.Page_version { page; region_base; at } -> (
      (* Snapshot-pin resolution: serve a retained version from the home's
         chain ([at = Some v]), or the latest settled image ([at = None]).
         A [R_page None] for a pinned version means the chain GC already
         reclaimed it — the reader's snapshot has expired for this page. *)
      match Gaddr.Table.find_opt t.homed region_base with
      | Some region when Region.contains region page ->
        let slot = machine_for t region page in
        reply (Wire.R_page (Machine.packed_read_at slot.packed at))
      | Some _ | None -> reply (Wire.R_error "not my region"))
    | Wire.Tx_prepare { gtx; pages } ->
      txn_step t "part.prepare_recv";
      (* The crash hook may have taken the node down mid-handler; a dead
         participant sends no vote and the coordinator times out. *)
      if t.up then begin
        let vote = participant_prepare t ~span:sspan gtx pages in
        txn_step t "part.prepared";
        if t.up then reply (Wire.R_tx_vote vote)
      end
    | Wire.Tx_decide { gtx; commit } ->
      txn_step t "part.decide_recv";
      if t.up then begin
        participant_decide t ~span:sspan gtx commit;
        txn_step t "part.decided";
        if t.up then reply Wire.R_unit
      end
    | Wire.Tx_status { gtx } -> reply (Wire.R_tx_status (txn_status t gtx))
    | Wire.Ping -> reply Wire.R_unit
  end

(* Manager tick of the failure detector: age member heartbeats into a
   suspicion list, adopt it locally, and disseminate it. Broadcasts go out
   when the list changes and keep refreshing every tick while anyone is
   suspected (so nodes that were partitioned or recovering when a change
   broadcast fired still converge); a quiet healthy cluster sends
   nothing. *)
let detect_and_disseminate t cm =
  let now = Ksim.Engine.now t.engine in
  let sus = Cluster.suspects cm ~now ~timeout:t.cfg.suspect_after in
  let my_cluster = Topology.cluster_of t.topology t.id in
  let members =
    List.filter (fun n -> n <> t.id)
      (Topology.cluster_members t.topology my_cluster)
  in
  List.iter
    (fun n -> if List.mem n sus then suspect t n else clear_suspect t n)
    members;
  if sus <> t.last_hint || sus <> [] then begin
    t.last_hint <- sus;
    List.iter
      (fun dst ->
        Wire.Transport.notify t.transport ~src:t.id ~dst
          (Wire.Suspect_hint { cluster = my_cluster; suspects = sus }))
      (members @ t.peer_managers)
  end

(* Periodic hint refresh to the cluster manager (§3.1); the same loop is
   the heartbeat (member side) and the detector tick (manager side). *)
let start_reporting t =
  let epoch = t.epoch in
  (* A (re)starting manager wipes the slate: every member gets a full
     suspicion window of grace before silence counts against it. *)
  (match t.cm_state with
   | Some cm ->
     let now = Ksim.Engine.now t.engine in
     List.iter
       (fun n -> if n <> t.id then Cluster.heartbeat cm ~node:n ~now)
       (Topology.cluster_members t.topology
          (Topology.cluster_of t.topology t.id))
   | None -> ());
  let rec loop () =
    if t.up && t.epoch = epoch then begin
      (match t.cm_state with
       | Some cm -> detect_and_disseminate t cm
       | None ->
         let node_regions =
           Gaddr.Table.fold (fun base r acc -> (base, r) :: acc) t.homed []
         in
         let node_regions =
           List.fold_left
             (fun acc r -> (r.Region.base, r) :: acc)
             node_regions
             (Region_directory.entries t.rdir)
         in
         Wire.Transport.notify t.transport ~src:t.id ~dst:t.cluster_manager
           (Wire.Cluster_report { node_regions; free_bytes = pool_bytes t }));
      Ksim.Fiber.sleep t.cfg.report_every;
      loop ()
    end
  in
  Ksim.Fiber.spawn t.engine ~name:"cluster-report" loop

(* ------------------------------------------------------------------ *)
(* Replica repair (anti-entropy)                                       *)
(* ------------------------------------------------------------------ *)

(* One pass of the home-side repair loop.

   First, re-materialise home machines for pages whose data survived a
   crash on the persistent tier: the page directory remembers what was
   homed here, so recovered pages go back into service without waiting
   for a client to touch them (and without zero-filling pages whose data
   is genuinely gone — those still rebuild lazily on first touch).

   Second, enforce the replica floor: for every home-side machine whose
   live (unsuspected) holder count fell below min_replicas, evict the
   suspected holders from the protocol's books and ask the machine to
   re-replicate around them. Machines mid-transaction are skipped — their
   own retry/fail-over logic is already reshaping the copyset, and repair
   would race it. *)
let repair_pass t =
  let pass_epoch = t.epoch in
  let orphans =
    Page_directory.fold
      (fun page entry acc ->
        if entry.Page_directory.homed_here
           && not (Gaddr.Table.mem t.machines page)
        then (page, entry.Page_directory.region_base) :: acc
        else acc)
      t.pdir []
  in
  List.iter
    (fun (page, base) ->
      match Gaddr.Table.find_opt t.homed base with
      | Some region when region.Region.state = Region.Allocated -> (
        (* Our disk image may predate writes that died with our RAM, but a
           protocol-valid copy on a live sharer can never be stale — the
           write-invalidate protocols revoke copies before accepting newer
           data. Pull from the sharers the persistent page directory
           remembers, and only fall back to disk when nobody answers. *)
        let sharers =
          match Page_directory.find t.pdir page with
          | None -> []
          | Some entry ->
            List.filter (fun n -> n <> t.id) entry.Page_directory.sharers
        in
        let pulled =
          List.fold_left
            (fun best n ->
              if is_suspect t n then best
              else
                match
                  rpc t Op_ctx.background ~dst:n (Wire.Page_pull { page })
                with
                | Ok (Wire.R_page (Some (data, ver))) -> (
                  match best with
                  | Some (_, bver) when bver >= ver -> best
                  | _ -> Some (data, ver))
                | Ok _ | Error _ -> best)
            None sharers
        in
        (* The pull RPCs block this fiber: re-check that no crash happened
           meanwhile and that no client raced us into materialising the
           machine. *)
        if t.up && t.epoch = pass_epoch
           && not (Gaddr.Table.mem t.machines page)
        then begin
          let reincarnate version =
            match Gaddr.Table.find_opt t.machines page with
            | Some slot ->
              feed t ~span:Trace.null slot page
                (Ctypes.Reincarnate { version; sharers })
            | None -> ()
          in
          match (pulled, Store.read_immediate t.store page) with
          | Some (data, ver), _ ->
            Metrics.incr t.metrics "repair.pull";
            Store.write_immediate t.store page data ~dirty:false;
            Metrics.incr t.metrics "repair.rebuild";
            ignore (machine_for t region page);
            reincarnate ver
          | None, Some _ ->
            Metrics.incr t.metrics "repair.rebuild";
            ignore (machine_for t region page);
            reincarnate 0
          | None, None -> ()
        end)
      | Some _ | None -> ())
    orphans;
  let sus = suspects t in
  let slots = Gaddr.Table.fold (fun page s acc -> (page, s) :: acc) t.machines [] in
  List.iter
    (fun (page, slot) ->
      let region = slot.region in
      if region.Region.home = t.id
         && region.Region.state = Region.Allocated
         && region.Region.attr.Attr.min_replicas > 1
         && not (Machine.packed_busy slot.packed)
      then begin
        (* Suspicion is not evidence of data loss: a partitioned holder
           still has its copy and must stay in the books so later writes
           invalidate it. Suspects are merely discounted from the floor;
           only a confirmed "no copy" answer below evicts. *)
        let holders = Machine.packed_holders slot.packed in
        let live = List.filter (fun n -> not (is_suspect t n)) holders in
        (* A recorded holder may be a phantom: it crashed (losing its RAM
           copy) and recovered before this manager rebuilt its books, so
           it looks alive while holding nothing. Counting it toward the
           floor would block repair forever — verify remote live holders
           and evict the ones that answer "no copy". Unreachable ones are
           merely discounted: they may still hold data that a later
           invalidation round must revoke. *)
        let live =
          List.filter
            (fun n ->
              n = t.id
              ||
              match rpc t Op_ctx.background ~dst:n (Wire.Page_probe { page }) with
              | Ok (Wire.R_held true) -> true
              | Ok _ ->
                if t.up && t.epoch = pass_epoch then begin
                  match Gaddr.Table.find_opt t.machines page with
                  | Some slot ->
                    feed t ~span:Trace.null slot page
                      (Ctypes.Peer { src = n; msg = Ctypes.Evict_notify })
                  | None -> ()
                end;
                false
              | Error _ -> false)
            live
        in
        if List.length live < region.Region.attr.Attr.min_replicas then begin
          Metrics.incr t.metrics "repair.maintain";
          match Gaddr.Table.find_opt t.machines page with
          | Some slot ->
            feed t ~span:Trace.null slot page (Ctypes.Maintain { avoid = sus })
          | None -> ()
        end
      end)
    slots

(* ------------------------------------------------------------------ *)
(* WAL checkpointing and recovery replay                               *)
(* ------------------------------------------------------------------ *)

(* Truncate the intent log once it has grown past the configured bound.
   Ordering matters: the disk tier is hardened first, so that by the time
   the truncating checkpoint record is the only thing left, everything the
   dropped records described really is durable. The snapshot carries the
   homed-region table and the persistent page-directory entries. *)
let wal_checkpoint t =
  (* A homed page whose committed image is still dirty in RAM would have
     its only recoverable copy die with the truncated log records: push
     every such page to disk before asserting durability. *)
  Page_directory.fold
    (fun page entry () ->
      if
        entry.Page_directory.homed_here
        && Store.where t.store page = Some Store.Ram
        && Store.is_dirty t.store page
      then Store.flush_immediate t.store page)
    t.pdir ();
  Store.sync t.store;
  let e = Codec.encoder () in
  let regions = Gaddr.Table.fold (fun _ r acc -> r :: acc) t.homed [] in
  let regions =
    List.sort (fun a b -> Gaddr.compare a.Region.base b.Region.base) regions
  in
  Codec.list e (fun r -> Region.encode e r) regions;
  Page_directory.encode_persistent t.pdir e;
  (* Undelivered commit decisions must survive the truncation of their
     [Decide] records: the snapshot is the coordinator's durable copy. *)
  let decisions =
    Txid.Table.fold (fun g parts acc -> (g, parts) :: acc) t.txn_decisions []
    |> List.sort (fun (a, _) (b, _) -> Txid.compare a b)
  in
  Codec.list e
    (fun (g, parts) ->
      Txid.encode e g;
      Codec.list e (fun n -> Codec.u32 e n) parts)
    decisions;
  (* Simulated runs keep the disk tier in process memory, so the snapshot
     needs no page data — replayed state rebuilds against the surviving
     Store. A file-backed WAL is the *only* durable thing a real process
     has: checkpoint truncation would orphan every committed page image
     already pushed to the (volatile) disk tier, so the snapshot carries
     the homed committed images too. The list is always present to keep
     the format uniform; it is empty unless file-backed. *)
  let images =
    if Wal.file_backed t.wal then
      Page_directory.fold
        (fun page entry acc ->
          if entry.Page_directory.homed_here then
            match Store.read_immediate t.store page with
            | Some data -> (page, data) :: acc
            | None -> acc
          else acc)
        t.pdir []
      |> List.sort (fun (a, _) (b, _) -> Gaddr.compare a b)
    else []
  in
  Codec.list e
    (fun (page, data) ->
      Codec.u128 e page;
      Codec.bytes e data)
    images;
  Wal.checkpoint t.wal (Codec.to_bytes e);
  Metrics.incr t.metrics "wal.checkpoint"

let restore_snapshot t snap =
  let d = Codec.decoder snap in
  let regions = Codec.read_list d (fun () -> Region.decode d) in
  List.iter
    (fun r ->
      Gaddr.Table.replace t.homed r.Region.base r;
      Region_directory.put t.rdir r)
    regions;
  Page_directory.decode_persistent t.pdir d;
  let decisions =
    Codec.read_list d (fun () ->
        let g = Txid.decode d in
        let parts = Codec.read_list d (fun () -> Codec.read_u32 d) in
        (g, parts))
  in
  List.iter
    (fun (g, parts) ->
      Txid.Table.replace t.txn_decided g true;
      if parts <> [] then Txid.Table.replace t.txn_decisions g parts)
    decisions;
  let images =
    Codec.read_list d (fun () ->
        let page = Codec.read_u128 d in
        let data = Codec.read_bytes d in
        (page, data))
  in
  List.iter
    (fun (page, data) ->
      Store.write_immediate t.store page data ~dirty:false;
      Store.flush_immediate t.store page)
    images

(* Re-apply one logged metadata note. Notes are plain "set" payloads, so
   applying a replayed prefix twice is the same as once. Unknown tags are
   skipped: a log written by a newer daemon must not wedge recovery. *)
let apply_note t tag data =
  let d = Codec.decoder data in
  match tag with
  | "homed.put" ->
    let r = Region.decode d in
    Gaddr.Table.replace t.homed r.Region.base r;
    Region_directory.put t.rdir r
  | "homed.del" ->
    let base = Codec.read_u128 d in
    Gaddr.Table.remove t.homed base;
    Region_directory.remove t.rdir base
  | "pdir.ensure" ->
    let page = Codec.read_u128 d in
    let region_base = Codec.read_u128 d in
    ignore (Page_directory.ensure t.pdir ~page ~region_base ~homed_here:true)
  | "pdir.sharers" ->
    let page = Codec.read_u128 d in
    let region_base = Codec.read_u128 d in
    let sharers = Codec.read_list d (fun () -> Codec.read_int d) in
    ignore (Page_directory.ensure t.pdir ~page ~region_base ~homed_here:true);
    Page_directory.set_sharers t.pdir page sharers
  | "page.free" ->
    let page = Codec.read_u128 d in
    Store.drop t.store page;
    Page_directory.remove t.pdir page
  | "txn.forget" -> Txid.Table.remove t.txn_decisions (Txid.decode d)
  | _ -> ()

(* The recovery phase proper: scrub torn disk images, then reconstruct
   state from the last checkpoint snapshot plus the committed log suffix.
   Replayed page images land clean in RAM and are written through to disk.
   Recovery ends with a truncating {!wal_checkpoint}: it hardens the disk
   tier and — crucially — drops the crash's torn frontier record from the
   log. Replay stops at the first checksum failure, so leaving a torn
   record in place would silently discard every transaction committed
   after recovery at the next crash; checkpointing restores a fully
   readable log before the node acknowledges anything new. *)
let wal_replay t =
  let scrubbed = Store.scrub t.store in
  if scrubbed > 0 then
    Metrics.observe t.metrics "recovery.scrubbed" (float_of_int scrubbed);
  let r = Wal.replay t.wal in
  (match r.Wal.snapshot with
   | Some snap -> restore_snapshot t snap
   | None -> ());
  (* Surviving decision records re-arm the decided table before the op
     stream runs, so that an op-stream [txn.forget] note (logged after its
     decision) can still clear the broadcast list it refers to. *)
  List.iter
    (fun (gtx, commit, parts) ->
      Txid.Table.replace t.txn_decided gtx commit;
      if commit && gtx.Kutil.Txid.coord = t.id && parts <> [] then
        Txid.Table.replace t.txn_decisions gtx parts)
    r.Wal.decisions;
  List.iter
    (fun op ->
      match op with
      | Wal.Page (page, data) ->
        Store.write_immediate t.store page data ~dirty:false;
        Store.flush_immediate t.store page
      | Wal.Note (tag, data) -> apply_note t tag data)
    r.Wal.ops;
  (* Prepared-but-undecided transactions come back in limbo: images held
     out of the store, re-registered for the resolver to settle through a
     coordinator status query (presumed abort if it knows nothing). The
     recovery-ending checkpoint below carries their records forward. *)
  List.iter
    (fun (gtx, payloads) ->
      let pages =
        List.filter_map
          (function Wal.Page (p, img) -> Some (p, img) | Wal.Note _ -> None)
          payloads
      in
      Txid.Table.replace t.txn_prepared gtx
        { p_pages = pages; p_since = Ksim.Engine.now t.engine;
          p_querying = false })
    r.Wal.in_doubt;
  wal_checkpoint t;
  Metrics.observe t.metrics "recovery.replayed" (float_of_int r.Wal.replayed);
  if r.Wal.discarded > 0 then
    Metrics.observe t.metrics "recovery.discarded"
      (float_of_int r.Wal.discarded)

let start_repair t =
  let epoch = t.epoch in
  let rec loop () =
    Ksim.Fiber.sleep t.cfg.repair_every;
    if t.up && t.epoch = epoch then begin
      repair_pass t;
      txn_maintenance t epoch;
      if t.up && t.epoch = epoch && Wal.needs_checkpoint t.wal then
        wal_checkpoint t;
      loop ()
    end
  in
  Ksim.Fiber.spawn t.engine ~name:"replica-repair" loop

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let crash t =
  t.up <- false;
  t.epoch <- t.epoch + 1;
  (* On a simulated transport the node also drops off the network; on a
     real one there is nothing to inject — a crashed process is its own
     network failure. *)
  (match Wire.Transport.faults t.transport with
   | Some f -> f.Ktransport.Transport.Faults.crash t.id
   | None -> ());
  Store.crash t.store;
  Wal.crash t.wal;
  Gaddr.Table.reset t.machines;
  (* Nothing in memory survives by magic anymore: the homed-region table,
     the page directory and the region-descriptor cache all die here and
     come back through WAL replay (or, for hints, through traffic). The
     address pool leaks — exactly as unflushed reservations would. *)
  Page_directory.crash t.pdir;
  Gaddr.Table.reset t.homed;
  (* 2PC state dies too and comes back through replay: prepared entries
     from surviving [Prepare] records, decisions from the snapshot and
     surviving [Decide] records. The voting-window table stays empty on
     purpose — the epoch fence guarantees the pre-crash commit fiber can
     never log a decision now, so answering "aborted" for its id is sound
     (presumed abort). *)
  Txid.Table.reset t.txn_prepared;
  Txid.Table.reset t.txn_decided;
  Txid.Table.reset t.txn_decisions;
  Txid.Table.reset t.txn_active;
  (* Pins protect live machines from serving pre-transaction images; after
     a crash the machines are gone and replay rebuilds the store with the
     committed images, so materialisation reads the right bytes anyway. *)
  Gaddr.Table.reset t.txn_pins;
  List.iter
    (fun r -> Region_directory.remove t.rdir r.Region.base)
    (Region_directory.entries t.rdir);
  t.pool <- [];
  (* In-flight client operations die with the node. *)
  Hashtbl.iter
    (fun _ p -> ignore (Ksim.Promise.try_resolve p (Error (`Unavailable "node crashed"))))
    t.pending;
  Hashtbl.reset t.pending;
  (* Suspicion state is soft: a rebooted node re-learns it. *)
  Hashtbl.reset t.suspected;
  Hashtbl.reset t.strikes;
  t.last_hint <- [];
  (* Open snapshots die with the node: their pins referenced version
     chains that no longer exist. Readers observe [`Unavailable]. *)
  Hashtbl.reset t.snapshots

let recover t =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  (match Wire.Transport.faults t.transport with
   | Some f -> f.Ktransport.Transport.Faults.recover t.id
   | None -> ());
  (* Recovery is a real phase with a real duration: the node is back on
     the network but refuses service ([t.up] still false) until the WAL
     replay completes. The replay charges simulated time proportional to
     the log length — this is the availability gap E8c measures — then
     reconstructs metadata and committed page images, and only then opens
     the doors and hands off to the repair loop, which eagerly rebuilds
     home machines for the recovered pages. *)
  Ksim.Fiber.spawn t.engine ~name:"wal-recovery" (fun () ->
      Ksim.Fiber.sleep (Wal.replay_cost t.wal);
      if t.epoch = epoch && not t.up then begin
        wal_replay t;
        t.up <- true;
        start_reporting t;
        start_repair t
      end)

let create ?(config = default_config) ?(peer_managers = []) ?wal_file ~id
    ~bootstrap ~cluster_manager transport =
  let engine = Wire.Transport.engine transport in
  let topology = Wire.Transport.topology transport in
  let store =
    Store.create engine
      (Store.config ~ram_pages:config.ram_pages ~disk_pages:config.disk_pages ())
  in
  Store.set_node store id;
  let wal =
    Wal.create
      ~config:
        {
          Wal.default_config with
          Wal.checkpoint_every = config.wal_checkpoint_every;
        }
      ~rng:(Kutil.Rng.split (Ksim.Engine.rng engine))
      ()
  in
  (match wal_file with Some path -> Wal.attach_file wal path | None -> ());
  let cm_state =
    if cluster_manager = id then
      Some (Cluster.create ~cluster_id:(Topology.cluster_of topology id))
    else None
  in
  let t =
    {
      id;
      cfg = config;
      transport;
      engine;
      topology;
      bootstrap;
      cluster_manager;
      peer_managers = List.filter (fun n -> n <> cluster_manager) peer_managers;
      store;
      wal;
      rdir = Region_directory.create ~capacity:config.rdir_capacity;
      pdir = Page_directory.create ();
      homed = Gaddr.Table.create 32;
      machines = Gaddr.Table.create 256;
      pending = Hashtbl.create 32;
      next_req = 0;
      next_ctx = 0;
      pool = [];
      up = true;
      epoch = 0;
      cm_state;
      rng = Kutil.Rng.split (Ksim.Engine.rng engine);
      suspected = Hashtbl.create 8;
      strikes = Hashtbl.create 8;
      last_hint = [];
      metrics = Metrics.create ();
      stats =
        { homed_hits = 0; rdir_hits = 0; cluster_hits = 0; map_walks = 0;
          map_walk_depth_total = 0; cluster_walks = 0; failures = 0 };
      next_txn_seq = 0;
      txn_prepared = Txid.Table.create 8;
      txn_decided = Txid.Table.create 16;
      txn_decisions = Txid.Table.create 8;
      txn_active = Txid.Table.create 4;
      txn_pins = Gaddr.Table.create 8;
      txn_last = None;
      txn_hook = None;
      next_snap = 1;
      snapshots = Hashtbl.create 8;
    }
  in
  Store.set_evict_hook store (fun page data ~dirty -> on_evict t page data ~dirty);
  (* An injected crash point inside a disk I/O takes the whole daemon down,
     exactly as nemesis's external crashes do. *)
  Store.set_crash_hook store (fun () -> if t.up then crash t);
  Wire.Transport.set_server transport id (fun ~src ~span req ~reply ->
      serve t ~src ~span req ~reply);
  (* A file-backed node replays its log before taking traffic: committed
     state (and in-doubt prepares) from the previous incarnation must be
     visible to the first request, exactly as simulated recovery orders
     replay before [t.up]. An empty or fresh file replays to nothing and
     just writes the initial checkpoint. *)
  if wal_file <> None then wal_replay t;
  start_reporting t;
  start_repair t;
  t

(* Graceful shutdown for a real process: push dirty homed pages, write the
   truncating checkpoint (durable in the file-backed WAL), and refuse
   further service. The caller closes the transport and exits; the next
   incarnation replays to exactly this state. *)
let shutdown t =
  if t.up then begin
    wal_checkpoint t;
    t.up <- false;
    t.epoch <- t.epoch + 1
  end
