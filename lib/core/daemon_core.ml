(* The daemon core every component of a node shares: identity, the
   consistency-machine table and the interpreter of its actions, local
   storage and the intent log, the homed table, the page directory, and
   the transport with its one door for requests, [ask]. *)

module Gaddr = Kutil.Gaddr
module Ctypes = Kconsistency.Types
module Machine = Kconsistency.Machine_intf
module Topology = Knet.Topology
module Store = Kstorage.Page_store
module Wal = Kstorage.Wal
module Codec = Kutil.Codec
module Trace = Ktrace.Trace
module Op_ctx = Ktrace.Op_ctx
module Metrics = Ktrace.Metrics

include Daemon_types

type slot = { region : Region.t; packed : Machine.packed }

(* What a node does with one request, wherever it came from: [Some r] is
   the reply, [None] is silence (one-way traffic, or a node that went
   down mid-handler). *)
type handler =
  Op_ctx.t -> src:Topology.node_id -> Wire.request -> Wire.response option

type t = {
  id : Topology.node_id;
  cfg : config;
  transport : Wire.Transport.t;
  engine : Ksim.Engine.t;
  topology : Topology.t;
  bootstrap : Topology.node_id;
  cluster_manager : Topology.node_id;
  peer_managers : Topology.node_id list;  (* other clusters' managers *)
  map_region : Region.t;
      (* the well-known descriptor of the address map's region, bootstrap
         state every node builds once *)
  cm_state : Cluster.t option;
  store : Store.t;
  wal : Wal.t;
  pdir : Page_directory.t;
  homed : Region.t Gaddr.Table.t;
  machines : slot Gaddr.Table.t;
  pending : (int, (unit, error) result Ksim.Promise.t) Hashtbl.t;
  mutable next_req : int;
  mutable up : bool;
  mutable epoch : int;  (* bumped on crash: fences stale timers/fibers *)
  rng : Kutil.Rng.t;  (* seeded from the engine: jitter stays deterministic *)
  fd : Detector.t;
  metrics : Metrics.t;
  mutable handler : handler;  (* installed once, at create *)
}

let create ~cfg ?wal_file ~id ~bootstrap ~cluster_manager ~peer_managers
    transport =
  let engine = Wire.Transport.engine transport in
  let topology = Wire.Transport.topology transport in
  let store =
    Store.create engine
      (Store.config ~ram_pages:cfg.ram_pages ~disk_pages:cfg.disk_pages ())
  in
  Store.set_node store id;
  let wal =
    Wal.create ~checkpoint_every:cfg.wal_checkpoint_every
      ~rng:(Kutil.Rng.split (Ksim.Engine.rng engine))
      ()
  in
  (match wal_file with Some path -> Wal.attach_file wal path | None -> ());
  let metrics = Metrics.create () in
  {
    id;
    cfg;
    transport;
    engine;
    topology;
    bootstrap;
    cluster_manager;
    peer_managers = List.filter (fun n -> n <> cluster_manager) peer_managers;
    map_region = Layout.map_region ~bootstrap_node:bootstrap;
    cm_state =
      (if cluster_manager = id then
         Some (Cluster.create ~cluster_id:(Topology.cluster_of topology id))
       else None);
    store;
    wal;
    pdir = Page_directory.create ();
    homed = Gaddr.Table.create 32;
    machines = Gaddr.Table.create 256;
    pending = Hashtbl.create 32;
    next_req = 0;
    up = true;
    epoch = 0;
    rng = Kutil.Rng.split (Ksim.Engine.rng engine);
    fd = Detector.create ~self:id metrics;
    metrics;
    handler = (fun _ ~src:_ _ -> None);
  }

let alive t epoch = t.up && t.epoch = epoch

(* Regions under the MVCC protocol take the publish path on release
   instead of the data-carrying Release / CREW write-through. *)
let versioned_region (region : Region.t) =
  region.Region.attr.Attr.protocol = Kconsistency.Versioned.name

(* Regions under CREW, whose writes owe the home a write-through. *)
let crew_region (region : Region.t) =
  region.Region.attr.Attr.protocol = Kconsistency.Crew.name

(* Walk [addr, addr+len) page by page: [f page ~off ~pos ~n] covers the
   [n] bytes at [off] within [page], [pos] bytes into the range. The first
   error ends the walk. *)
let each_page ~page_size addr ~len f =
  let rec go addr pos =
    if pos = len then Ok ()
    else
      let page = Gaddr.page_floor addr ~page_size in
      let off = Gaddr.page_offset addr ~page_size in
      let n = min (len - pos) (page_size - off) in
      match f page ~off ~pos ~n with
      | Ok () -> go (Gaddr.add_int addr n) (pos + n)
      | Error _ as e -> e
  in
  go addr 0

let homed_containing t addr =
  Gaddr.Table.fold
    (fun _ r acc ->
      match acc with Some _ -> acc | None -> if Region.contains r addr then Some r else None)
    t.homed None

let ( let* ) = Result.bind

(* Client-facing entry points refuse while the daemon is down or still in
   its recovery replay window: granting from half-rebuilt state could hand
   out pages the replay is about to overwrite. *)
let serving t = if t.up then Ok () else Error (`Unavailable "node down")

(* -- tracing helpers -- *)

(* Does work under [ctx] open spans? Background contexts (null span) stay
   span-free: only work rooted in a traced client operation lands in the
   trace tree, so one operation reads as exactly one connected trace. *)
let traced ctx = Trace.enabled () && not (Trace.is_null (Op_ctx.span ctx))

(* Open a span under an operation context. All span creation funnels
   through here so the disabled path is one branch and no attribute list
   is built. A thunk that captures arguments is itself an allocation, so
   hot paths test {!traced} before building one. *)
let span_of t ctx name attrs =
  if traced ctx then
    Trace.child ~engine:t.engine ~node:t.id ~attrs:(attrs ())
      ~parent:(Op_ctx.span ctx) name
  else Trace.null

let finish_span t span =
  if not (Trace.is_null span) then Trace.finish ~engine:t.engine span

let finish_status t span status =
  if not (Trace.is_null span) then
    Trace.finish ~engine:t.engine ~attrs:[ ("status", status) ] span

(* Close an operation's span with its outcome and pass the outcome on. *)
let finish_result t span result =
  if not (Trace.is_null span) then
    finish_status t span
      (match result with Ok _ -> "ok" | Error e -> error_to_string e);
  result

(* Effective per-attempt timeout honouring the context deadline. *)
let budgeted_timeout t ctx default =
  match Op_ctx.remaining ctx ~now:(Ksim.Engine.now t.engine) with
  | Some left -> min left default
  | None -> default

(* -- write-ahead intent log notes -- *)

(* Persistent metadata flows through the WAL as tagged notes; recovery
   re-applies them in log order ({!Recovery.apply_note}). Page data takes
   the transactional [Wal.log_page] path from the Install action instead. *)

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

(* -- machines and CM action interpretation -- *)

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
    version_chain_depth = t.cfg.version_chain_depth;
  }

let holds_page t page =
  match Gaddr.Table.find_opt t.machines page with
  | Some s -> Machine.packed_has_valid_copy s.packed
  | None -> false

(* Wake the lock request [req] is waiting on, if it still waits. *)
let resolve t req result =
  match Hashtbl.find_opt t.pending req with
  | Some promise ->
    Hashtbl.remove t.pending req;
    ignore (Ksim.Promise.try_resolve promise result)
  | None -> ()

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
      | Ctypes.Start_owner _, Some entry -> entry.Page_directory.sharers
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
    if List.exists (fun n -> n <> t.id) prior_sharers then
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
        if dst <> t.id && Detector.is_suspect t.fd dst then
          feed_later t ~after:(Ksim.Time.us 50) page
            (Ctypes.Unreachable { node = dst })
      | Ctypes.Grant req -> resolve t req (Ok ())
      | Ctypes.Reject (req, Ctypes.Unavailable why) ->
        resolve t req (Error (`Unavailable why))
      | Ctypes.Install { data; dirty } ->
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
        feed_later t ~after page (Ctypes.Timeout id)
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

(* Feed the page's machine, if it still exists (a crash wipes them). *)
and feed_existing t ~span page event =
  match Gaddr.Table.find_opt t.machines page with
  | Some slot -> feed t ~span slot page event
  | None -> ()

(* Feed the page's machine [after] from now, unless the node crashed
   meanwhile. *)
and feed_later t ~after page event =
  let epoch = t.epoch in
  ignore
    (Ksim.Engine.schedule t.engine ~after (fun () ->
         if alive t epoch then feed_existing t ~span:Trace.null page event))

(* Serve page traffic addressed to [region_base] with the machine for
   [page] — only where that region is homed here and holds the page. *)
let at_home t ~region_base page f =
  match Gaddr.Table.find_opt t.homed region_base with
  | Some region when Region.contains region page -> f (machine_for t region page)
  | Some _ | None -> Wire.R_error "not my region"

(* The home side of a write-through, whether it came as a [Page_flush] or
   with a 2PC decision. [false]: the image is obsolete, some newer write
   has already overtaken it. Otherwise the machine absorbs it at
   [version] (CREW keeps it as its manager backup, so read fail-over
   around a crashed owner serves nothing older), and the store takes it,
   written through to disk, unless the home keeps a copy of its own at
   another version. *)
let absorb_write_through t ~span slot page ~src ~data ~version =
  version >= Machine.packed_backup_version slot.packed
  && begin
    let had_copy = Machine.packed_has_valid_copy slot.packed in
    feed t ~span slot page
      (Ctypes.Peer { src; msg = Ctypes.Update { data; version } });
    if (not had_copy) || Machine.packed_version slot.packed = version then begin
      Store.write_immediate t.store page data ~dirty:false;
      Store.flush_immediate t.store page
    end;
    true
  end

(* Local storage victimised a page: tell its machine. *)
let on_evict t page data ~dirty =
  feed_existing t ~span:Trace.null page (Ctypes.Evicted { data; dirty })

(* -- the single-page lock under both client locks and the map IO -- *)

let acquire_page t ctx (region : Region.t) page mode ~timeout =
  let span =
    if traced ctx then
      span_of t ctx "cm.acquire" (fun () ->
          [ ("page", Gaddr.to_string page);
            ("mode", Ctypes.mode_to_string mode) ])
    else Trace.null
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
    feed_existing t ~span page (Ctypes.Abort { req });
    Metrics.incr t.metrics "page.timeout";
    finish_status t span "timeout";
    Error `Timeout

let release_page t ctx page mode ~data =
  feed_existing t ~span:(Op_ctx.span ctx) page (Ctypes.Release { mode; data })

(* Write [data] over [page] as a local writer would: a write intent,
   then its release, which the protocol propagates like any local write.
   The intent may have to wait (for a token, or behind a local holder);
   once granted it writes only if the machine is still at version [at],
   and otherwise releases untouched: a newer write is there. *)
let write_as_local t ~span slot page data ~at =
  let epoch = t.epoch in
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  let granted = Ksim.Promise.create () in
  Hashtbl.replace t.pending req granted;
  feed t ~span slot page (Ctypes.Acquire { req; mode = Ctypes.Write });
  Ksim.Promise.on_resolve granted (fun result ->
      if alive t epoch && Result.is_ok result then
        let data =
          if Machine.packed_version slot.packed = at then Some data else None
        in
        feed t ~span slot page (Ctypes.Release { mode = Ctypes.Write; data }))

(* -- requests: one door for local and remote -- *)

(* Base per-attempt timeout of a control-plane call, and the ceiling of
   every exponential retry backoff. *)
let rpc_timeout = Ksim.Time.ms 500
let retry_backoff_cap = Ksim.Time.sec 2

(* Every remote hop is a span under the caller's context, and the span id
   travels in the RPC envelope so the peer's dispatch nests under it. *)
let rpc t ctx ?policy ~dst req =
  let span =
    if traced ctx then
      span_of t ctx ("rpc." ^ Wire.request_kind req) (fun () ->
          [ ("dst", string_of_int dst) ])
    else Trace.null
  in
  (* Unless the caller picked one (2PC traffic uses [Policy.idempotent]),
     the per-attempt timeout is [rpc_timeout], jittered (from this
     daemon's own rng, so simulation schedules are unchanged) so
     simultaneous retriers and their upstream retry loops decorrelate. *)
  let policy =
    match policy with
    | Some p -> p
    | None ->
      Wire.Policy.jittered ~rng:t.rng ~base:rpc_timeout ~cap:retry_backoff_cap
        ()
  in
  let r =
    Wire.Transport.call t.transport ~src:t.id ~dst ~policy ~span:(Trace.id span)
      req
  in
  (match r with
   | Ok _ ->
     Detector.clear t.fd dst;
     finish_span t span
   | Error `Timeout ->
     Detector.strike t.fd dst;
     Metrics.incr t.metrics "rpc.timeout";
     finish_status t span "timeout"
   | Error `Unreachable ->
     Detector.strike t.fd dst;
     Metrics.incr t.metrics "rpc.unreachable";
     finish_status t span "unreachable");
  r

(* Send [req] to [dst] and wait for the answer. A node asking itself runs
   the handler a peer's request reaches, inline and under the caller's
   context: no envelope, no rpc span or metric, no retry jitter, no
   suspicion bookkeeping. A handler that stays silent reads as the
   silence a peer's would. *)
let ask t ctx ?policy ~dst req =
  if dst = t.id then
    match t.handler ctx ~src:t.id req with
    | Some r -> Ok r
    | None -> Error `Timeout
  else rpc t ctx ?policy ~dst req

(* One reading of an answer: [pick] accepts the expected shape; a peer's
   refusal ([R_error]) is [`Unavailable], any other shape a protocol
   error. *)
let ask_for t ctx ?policy ~dst req pick =
  match ask t ctx ?policy ~dst req with
  | Error (`Timeout | `Unreachable as e) -> Error e
  | Ok r -> (
    match (pick r, r) with
    | Some v, _ -> Ok v
    | None, Wire.R_error e -> Error (`Unavailable e)
    | None, _ -> Error (`Rpc ("unexpected response to " ^ Wire.request_kind req)))

(* The transport server: a peer's request reaches [t.handler] here. Any
   traffic from [src] is direct evidence it is alive. The caller's span id
   arrived in the envelope, so everything this dispatch does nests under
   the remote operation; untraced traffic (span 0) opens no span, so
   background chatter never pollutes the record stream with disconnected
   roots. A handler that blocks (unreserving walks the address map) runs
   in its own fiber and replies from there. *)
let serve t ~src ~span request ~reply =
  if t.up then begin
    if src <> t.id then begin
      Detector.clear t.fd src;
      match t.cm_state with
      | Some cm
        when Topology.cluster_of t.topology src
             = Topology.cluster_of t.topology t.id ->
        Cluster.heartbeat cm ~node:src ~now:(Ksim.Engine.now t.engine)
      | Some _ | None -> ()
    end;
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
    | Wire.Unreserve_region _ ->
      Ksim.Fiber.spawn t.engine ~name:"unreserve-serve" (fun () ->
          Option.iter reply (t.handler ctx ~src request))
    | _ -> Option.iter reply (t.handler ctx ~src request)
  end

(* Sleep before a retry. [backoff] is shared by every attempt of one
   operation and built on its first retry: a call that succeeds at once
   builds none. *)
let retry_pause t backoff ~base =
  let b =
    match !backoff with
    | Some b -> b
    | None ->
      let b =
        Kutil.Backoff.make ~rng:t.rng ~base ~cap:retry_backoff_cap ()
      in
      backoff := Some b;
      b
  in
  Ksim.Fiber.sleep (Kutil.Backoff.next b)

(* Release-class operations retry in the background until they succeed
   (paper §3.5): errors while releasing resources are never reflected.
   Re-attempts back off exponentially (jittered, capped) instead of
   hammering an unreachable home at a fixed period. *)
let background_retry_every = Ksim.Time.ms 250

let background_retry t ~name f =
  let epoch = t.epoch in
  let backoff =
    Kutil.Backoff.make ~rng:t.rng ~base:background_retry_every
      ~cap:retry_backoff_cap ()
  in
  let rec attempt () =
    if t.up && t.epoch = epoch then
      if not (f ()) then
        Ksim.Fiber.spawn_after t.engine ~after:(Kutil.Backoff.next backoff)
          ~name (fun () -> attempt ())
  in
  Ksim.Fiber.spawn t.engine ~name (fun () -> attempt ())

(* Lose the in-memory state every component shares. The components drop
   their own tables after this, then {!fail_pending} wakes the operations
   that died with the node. *)
let crash t =
  t.up <- false;
  t.epoch <- t.epoch + 1;
  (* The node also drops off its link's fault view: the whole simulated
     network, or on sockets this endpoint's own edge, which severs its
     connections. *)
  Knet.Edge.crash (Wire.Transport.faults t.transport) t.id;
  Store.crash t.store;
  Wal.crash t.wal;
  Gaddr.Table.reset t.machines;
  (* Nothing in memory survives by magic anymore: the homed-region table
     and the page directory die here and come back through WAL replay. *)
  Page_directory.crash t.pdir;
  Gaddr.Table.reset t.homed

(* In-flight client operations die with the node. Their fibers resume
   right here, so this runs once every table is already wiped. *)
let fail_pending t =
  Hashtbl.iter
    (fun _ p -> ignore (Ksim.Promise.try_resolve p (Error (`Unavailable "node crashed"))))
    t.pending;
  Hashtbl.reset t.pending
