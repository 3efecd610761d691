(* A Khazana daemon: the components of the paper's Figure 1 around one
   core. {!Daemon_core} holds the machine table, local storage, the
   transport and [ask]; {!Locate} the address map and region directory;
   {!Alloc} the address pool; {!Data_path} locks, reads and writes;
   {!Snapshots} MVCC reads; {!Txn} and {!Txn_coord} two-phase commit;
   {!Repair} and {!Recovery} anti-entropy and the intent log; {!Detector}
   the failure detector. This file wires them together: one request
   handler serving every peer and the node itself, the background loops,
   and the lifecycle. *)

open Daemon_core

include Daemon_types

type lock_ctx = Data_path.lock_ctx
type txn = Txn_coord.handle

type t = {
  c : Daemon_core.t;
  loc : Locate.t;
  alloc : Alloc.t;
  txn : Txn.t;
  dp : Data_path.t;
  snaps : Snapshots.t;
  coord : Txn_coord.t;
}

(* -- introspection -- *)

let id t = t.c.id
let engine t = t.c.engine
let is_up t = t.c.up
let region_directory t = t.loc.rdir
let page_directory t = t.c.pdir
let store t = t.c.store
let wal t = t.c.wal

let set_disk_faults t faults =
  Store.set_faults t.c.store faults;
  Wal.set_faults t.c.wal faults

let cluster_state t = t.c.cm_state
let lookup_stats t = Locate.stats t.loc
let reset_lookup_stats t = Locate.reset_stats t.loc
let metrics t = t.c.metrics
let homed_regions t = Gaddr.Table.fold (fun _ r acc -> r :: acc) t.c.homed []
let pool_bytes t = Alloc.pool_bytes t.alloc

let machine_state t page =
  Option.map
    (fun s -> Machine.packed_state_name s.packed)
    (Gaddr.Table.find_opt t.c.machines page)

let holds_page t page = holds_page t.c page
let suspects t = Detector.suspects t.c.fd
let is_suspect t n = Detector.is_suspect t.c.fd n

(* 2PC introspection and fault-injection seam (tests / nemesis). *)
let set_txn_hook t hook = t.txn.Txn.hook <- hook
let last_txid t = t.txn.Txn.last
let txn_prepared_count t = Kutil.Txid.Table.length t.txn.Txn.prepared
let txn_undelivered_decisions t = Kutil.Txid.Table.length t.txn.Txn.decisions
let checkpoint t = Recovery.checkpoint t.c t.txn

(* -- client operations -- *)

let locate_region t ?(ctx = Op_ctx.background) addr = Locate.locate t.loc ctx addr
let bootstrap_map t = Locate.bootstrap_map t.c
let reserve t ?attr ~ctx len = Alloc.reserve t.alloc ?attr ~ctx len
let allocate t ~ctx base = Alloc.allocate t.alloc ~ctx base
let free t ~ctx base = Alloc.free t.alloc ~ctx base
let unreserve t ~ctx base = Alloc.unreserve t.alloc ~ctx base
let get_attr t ~ctx addr = Alloc.get_attr t.alloc ~ctx addr
let set_attr t ~ctx base attr = Alloc.set_attr t.alloc ~ctx base attr
let lock t ~ctx ~addr ~len mode = Data_path.lock t.dp ~ctx ~addr ~len mode
let unlock t ctx = Data_path.unlock t.c ctx
let read t ctx ~addr ~len = Data_path.read t.c ctx ~addr ~len
let write t ctx ~addr data = Data_path.write t.c ctx ~addr data
let write_sync t ~ctx ~addr data = Data_path.write_sync t.dp ~ctx ~addr data

let write_cas t ~ctx ~addr ~expected data =
  Data_path.write_cas t.dp ~ctx ~addr ~expected data

let page_version t ~ctx ~addr = Snapshots.page_version t.snaps ~ctx ~addr
let snapshot_begin t = Snapshots.begin_ t.snaps
let snapshot_release t snap = Snapshots.release t.snaps snap

let snapshot_read t ~ctx ~snap ~addr ~len =
  Snapshots.read t.snaps ~ctx ~snap ~addr ~len

let txn_begin _ ~ctx = Txn_coord.begin_ ~ctx
let txn_uid (h : txn) = h.Txn_coord.txn_uid
let txn_read t h ~addr ~len = Txn_coord.read t.coord h ~addr ~len
let txn_write t h ~addr data = Txn_coord.write t.coord h ~addr data
let txn_commit t h = Txn_coord.commit t.coord h
let txn_abort t h = Txn_coord.abort t.coord h

(* -- the request handler -- *)

let send_hint c ~cluster sus dsts =
  List.iter
    (fun dst ->
      Wire.Transport.notify c.transport ~src:c.id ~dst
        (Wire.Suspect_hint { cluster; suspects = sus }))
    dsts

(* Adopt a manager's suspicion list for [cluster]. A manager hearing about
   a foreign cluster relays the hint to its own members; members never
   forward, so the dissemination is exactly two hops and cannot loop. *)
let suspect_hint c ~src ~cluster sus =
  Detector.adopt c.fd ~src ~members:(Topology.cluster_members c.topology cluster) sus;
  let my_cluster = Topology.cluster_of c.topology c.id in
  if c.cm_state <> None && cluster <> my_cluster then
    send_hint c ~cluster sus
      (List.filter (fun m -> m <> c.id) (Topology.cluster_members c.topology my_cluster))

(* Every request this node answers, from a peer through
   {!Daemon_core.serve} or from itself through {!Daemon_core.ask}: one
   case per constructor, each naming the component that owns it. *)
let handle t ctx ~src (req : Wire.request) =
  let c = t.c in
  match req with
  | Wire.Cm_msg { page; region_base; body } ->
    Data_path.serve_cm_msg t.dp ctx ~src ~page ~region_base body;
    None
  | Wire.Page_flush { page; region_base; data; version } ->
    Some (Data_path.serve_flush c ctx ~src ~page ~region_base ~data ~version)
  | Wire.Page_diff { page; region_base; parent; expected; payload } ->
    Some
      (Data_path.serve_publish c ctx ~src ~page ~region_base ~parent ~expected
         ~payload)
  | Wire.Page_version { page; region_base; at } ->
    Some (Snapshots.serve_page_version c ~page ~region_base ~at)
  | Wire.Get_descriptor { addr } ->
    Some (Wire.R_descriptor (Locate.descriptor t.loc addr))
  | Wire.Cluster_lookup { addr } | Wire.Cluster_walk { addr } ->
    Some (Locate.cluster_lookup c addr)
  | Wire.Chunk_request -> Some (Alloc.serve_chunk c)
  | Wire.Alloc_region { desc } -> Some (Alloc.serve_alloc t.alloc desc)
  | Wire.Free_region { base } ->
    Alloc.free_local t.alloc base;
    Some Wire.R_unit
  | Wire.Unreserve_region { base } -> Some (Alloc.serve_unreserve t.alloc ctx base)
  | Wire.Set_attr { base; attr } -> Some (Alloc.serve_set_attr t.alloc base attr)
  | Wire.Tx_prepare { gtx; pages } -> Txn.serve_prepare t.txn ctx gtx pages
  | Wire.Tx_decide { gtx; commit; flushed } ->
    Txn.serve_decide t.txn ctx gtx commit flushed
  | Wire.Tx_status { gtx } -> Some (Wire.R_tx_status (Txn.status t.txn ~src gtx))
  | Wire.Page_pull { page } -> Some (Repair.serve_pull c page)
  | Wire.Page_probe { page } -> Some (Wire.R_held (Daemon_core.holds_page c page))
  | Wire.Cluster_report { regions; free_bytes } ->
    (match c.cm_state with
     | Some cm ->
       let changed =
         Cluster.record_report ~now:(Ksim.Engine.now c.engine) cm ~node:src
           ~regions ~free_bytes
       in
       Metrics.incr c.metrics ~by:changed "cluster.claim_change"
     | None -> ());
    None
  | Wire.Suspect_hint { cluster; suspects } ->
    suspect_hint c ~src ~cluster suspects;
    None
  | Wire.Ping -> Some Wire.R_unit

(* -- background loops -- *)

(* Heartbeat silence before a manager suspects a member: three missed
   reports at the default [report_every]. *)
let suspect_after = Ksim.Time.ms 1500

(* Periodic hint refresh to the cluster manager (§3.1); the same loop is
   the heartbeat (member side) and the detector tick (manager side). *)
let start_reporting t =
  let c = t.c in
  let epoch = c.epoch in
  let my_cluster = Topology.cluster_of c.topology c.id in
  let members =
    List.filter (fun n -> n <> c.id) (Topology.cluster_members c.topology my_cluster)
  in
  (* A (re)starting manager wipes the slate: every member gets a full
     suspicion window of grace before silence counts against it. *)
  (match c.cm_state with
   | Some cm ->
     let now = Ksim.Engine.now c.engine in
     List.iter (fun n -> Cluster.heartbeat cm ~node:n ~now) members
   | None -> ());
  let rec loop () =
    if alive c epoch then begin
      (match c.cm_state with
       | Some cm -> (
         match
           Detector.tick c.fd cm ~now:(Ksim.Engine.now c.engine)
             ~timeout:suspect_after ~members
         with
         | Some sus -> send_hint c ~cluster:my_cluster sus (members @ c.peer_managers)
         | None -> ())
       | None ->
         let regions =
           List.rev_append (Region_directory.entries t.loc.rdir)
             (Gaddr.Table.fold (fun _ r acc -> r :: acc) c.homed [])
         in
         Wire.Transport.notify c.transport ~src:c.id ~dst:c.cluster_manager
           (Wire.Cluster_report { regions; free_bytes = pool_bytes t }));
      Ksim.Fiber.sleep c.cfg.report_every;
      loop ()
    end
  in
  Ksim.Fiber.spawn c.engine ~name:"cluster-report" loop

(* Period of the home-side replica-repair pass. *)
let repair_every = Ksim.Time.ms 500

let start_repair t =
  let c = t.c in
  let epoch = c.epoch in
  let rec loop () =
    Ksim.Fiber.sleep repair_every;
    if alive c epoch then begin
      Repair.pass c;
      let now = Ksim.Engine.now c.engine in
      Txn.maintain t.txn epoch ~now;
      if alive c epoch && Wal.needs_checkpoint c.wal then
        Recovery.checkpoint c t.txn;
      loop ()
    end
  in
  Ksim.Fiber.spawn c.engine ~name:"replica-repair" loop

(* -- lifecycle -- *)

let crash t =
  (* Every component drops its in-memory tables; what must survive comes
     back through WAL replay (or, for hints, through traffic). The address
     pool leaks — exactly as unflushed reservations would. *)
  Daemon_core.crash t.c;
  Txn.crash t.txn;
  Locate.crash t.loc;
  t.alloc.pool <- [];
  Daemon_core.fail_pending t.c;
  Detector.reset t.c.fd;
  Snapshots.crash t.snaps

let recover t =
  let c = t.c in
  c.epoch <- c.epoch + 1;
  let epoch = c.epoch in
  Knet.Edge.recover (Wire.Transport.faults c.transport) c.id;
  (* Recovery is a real phase with a real duration: the node is back on
     the network but refuses service ([up] still false) until the WAL
     replay completes. The replay charges simulated time proportional to
     the log length — this is the availability gap E8c measures — then
     reconstructs metadata and committed page images, and only then opens
     the doors and hands off to the repair loop, which eagerly rebuilds
     home machines for the recovered pages. *)
  Ksim.Fiber.spawn c.engine ~name:"wal-recovery" (fun () ->
      Ksim.Fiber.sleep (Wal.replay_cost c.wal);
      if c.epoch = epoch && not c.up then begin
        Recovery.replay c t.loc t.txn;
        c.up <- true;
        start_reporting t;
        start_repair t
      end)

let create ?(config = default_config) ?(peer_managers = []) ?wal_file ~id
    ~bootstrap ~cluster_manager transport =
  let c =
    Daemon_core.create ~cfg:config ?wal_file ~id ~bootstrap ~cluster_manager
      ~peer_managers transport
  in
  let loc = Locate.create c in
  let txn = Txn.create c in
  let dp = Data_path.create loc txn in
  let snaps = Snapshots.create loc in
  let t =
    { c; loc; alloc = Alloc.create loc; txn; dp; snaps;
      coord = { Txn_coord.dp; snaps } }
  in
  c.handler <- (fun ctx ~src req -> handle t ctx ~src req);
  Store.set_evict_hook c.store (fun page data ~dirty -> on_evict c page data ~dirty);
  (* An injected crash point inside a disk I/O takes the whole daemon down,
     exactly as nemesis's external crashes do. *)
  Store.set_crash_hook c.store (fun () -> if c.up then crash t);
  Wire.Transport.set_server transport id (fun ~src ~span req ~reply ->
      serve c ~src ~span req ~reply);
  (* A file-backed node replays its log before taking traffic: committed
     state (and in-doubt prepares) from the previous incarnation must be
     visible to the first request, exactly as simulated recovery orders
     replay before [up]. An empty or fresh file replays to nothing and
     just writes the initial checkpoint. *)
  if wal_file <> None then Recovery.replay c loc txn;
  start_reporting t;
  start_repair t;
  t

(* Graceful shutdown for a real process: push dirty homed pages, write the
   truncating checkpoint (durable in the file-backed WAL), and refuse
   further service. The caller closes the transport and exits; the next
   incarnation replays to exactly this state. *)
let shutdown t =
  if t.c.up then begin
    Recovery.checkpoint t.c t.txn;
    t.c.up <- false;
    t.c.epoch <- t.c.epoch + 1
  end
