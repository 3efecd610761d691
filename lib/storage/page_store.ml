module Gaddr = Kutil.Gaddr

type config = { ram_pages : int; disk_pages : int }

let config ?(ram_pages = 256) ?(disk_pages = 65_536) () =
  { ram_pages; disk_pages }

let ram_latency = Ksim.Time.us 2
let disk_read_latency = Ksim.Time.ms 6
let disk_write_latency = Ksim.Time.ms 8

type frame = {
  mutable data : bytes;
  mutable dirty : bool;
  mutable pins : int;
  mutable last_use : int;
  mutable sum : int;  (* checksum of [data]; maintained on the disk tier *)
}

type evict_hook = Gaddr.t -> bytes -> dirty:bool -> unit

type stats = {
  ram_hits : int;
  disk_hits : int;
  misses : int;
  ram_evictions : int;
  disk_evictions : int;
  writebacks : int;
  syncs : int;
  lost_writes : int;
  torn_writes : int;
  torn_detected : int;
}

type t = {
  engine : Ksim.Engine.t;
  cfg : config;
  rng : Kutil.Rng.t;
  ram : frame Gaddr.Table.t;
  disk : frame Gaddr.Table.t;
  (* Disk writes since the last {!sync} barrier, with the content that was
     durable before the first overwrite ([None]: page was absent). A crash
     rolls each entry back according to the fault model. *)
  unsynced : (bytes * int) option Gaddr.Table.t;
  (* Demotions currently inside their disk-latency sleep; a crash catches
     these mid-write and may tear them onto the platter. *)
  mutable in_flight : (Gaddr.t * frame) list;
  mutable faults : Disk_fault.config;
  mutable crash_hook : unit -> unit;
  mutable epoch : int;
  mutable hook : evict_hook;
  mutable node : int;  (* owning daemon's node id, -1 until set: trace tag *)
  mutable tick : int;
  mutable ram_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable ram_evictions : int;
  mutable disk_evictions : int;
  mutable writebacks : int;
  mutable sync_count : int;
  mutable lost_writes : int;
  mutable torn_writes : int;
  mutable torn_detected : int;
}

let create engine cfg =
  if cfg.ram_pages <= 0 || cfg.disk_pages <= 0 then
    invalid_arg "Page_store.create: capacities must be positive";
  {
    engine;
    cfg;
    rng = Kutil.Rng.split (Ksim.Engine.rng engine);
    (* Small to start: keys spread over the buckets, so a tier's table
       grows as it fills. *)
    ram = Gaddr.Table.create 16;
    disk = Gaddr.Table.create 16;
    unsynced = Gaddr.Table.create 16;
    in_flight = [];
    faults = Disk_fault.none;
    crash_hook = (fun () -> ());
    epoch = 0;
    hook = (fun _ _ ~dirty:_ -> ());
    node = -1;
    tick = 0;
    ram_hits = 0;
    disk_hits = 0;
    misses = 0;
    ram_evictions = 0;
    disk_evictions = 0;
    writebacks = 0;
    sync_count = 0;
    lost_writes = 0;
    torn_writes = 0;
    torn_detected = 0;
  }

let set_evict_hook t hook = t.hook <- hook
let set_node t node = t.node <- node
let set_faults t faults = t.faults <- faults
let faults t = t.faults
let set_crash_hook t hook = t.crash_hook <- hook

(* Tier transitions land in the global trace stream (unattached to any
   span: eviction is a side effect of whoever faulted the cache, not of
   one operation). Free when no sink is installed. *)
let trace_tier t name addr ~attrs =
  if Ktrace.Trace.enabled () then
    Ktrace.Trace.event ~engine:t.engine ~node:t.node name
      ~attrs:(("page", Gaddr.to_string addr) :: attrs)

type tier = Ram | Disk

let where t addr =
  if Gaddr.Table.mem t.ram addr then Some Ram
  else if Gaddr.Table.mem t.disk addr then Some Disk
  else None

let touch t frame =
  t.tick <- t.tick + 1;
  frame.last_use <- t.tick

(* A disk I/O may hit a crash point partway through its latency window. The
   hook fires from the event queue, never synchronously from inside the
   caller's operation, so the crash lands mid-sleep exactly as a real power
   cut would: after the op started, before it completed. *)
let maybe_crash_during_io t latency =
  let p = t.faults.Disk_fault.crash_during_io_prob in
  if p > 0.0 && Kutil.Rng.float t.rng 1.0 < p then begin
    let after = 1 + Kutil.Rng.int t.rng (max 1 (latency - 1)) in
    let hook = t.crash_hook in
    ignore (Ksim.Engine.schedule t.engine ~after (fun () -> hook ()))
  end

(* Install/overwrite a page on the disk tier, remembering the content that
   was durable before the first unsynced overwrite so a crash can roll it
   back. *)
let install_disk t addr frame =
  if not (Gaddr.Table.mem t.unsynced addr) then begin
    let prior =
      match Gaddr.Table.find_opt t.disk addr with
      | Some old -> Some (old.data, old.sum)
      | None -> None
    in
    Gaddr.Table.replace t.unsynced addr prior
  end;
  frame.sum <- Disk_fault.checksum frame.data;
  Gaddr.Table.replace t.disk addr frame

(* Least-recently-used unpinned entry of a table; O(size), which is fine at
   simulated-cache scale. The table's order never picks the victim: no two
   entries share a tick, since [touch] gives each tick to one frame and a
   frame's copies (flushed, promoted, torn) stay at its address. *)
let victim table =
  Gaddr.Table.fold
    (fun addr frame best ->
      if frame.pins > 0 then best
      else
        match best with
        | Some (_, f) when f.last_use <= frame.last_use -> best
        | _ -> Some (addr, frame))
    table None

let rec make_disk_room t =
  if Gaddr.Table.length t.disk >= t.cfg.disk_pages then begin
    match victim t.disk with
    | None -> () (* everything pinned: overcommit rather than deadlock *)
    | Some (addr, frame) ->
      Gaddr.Table.remove t.disk addr;
      Gaddr.Table.remove t.unsynced addr;
      t.disk_evictions <- t.disk_evictions + 1;
      trace_tier t "store.evict" addr
        ~attrs:[ ("tier", "disk"); ("dirty", string_of_bool frame.dirty) ];
      if frame.dirty then begin
        t.writebacks <- t.writebacks + 1;
        t.hook addr frame.data ~dirty:true
      end
      else t.hook addr frame.data ~dirty:false;
      make_disk_room t
  end

(* Demote a RAM victim to disk. Writing disk costs simulated time on the
   data plane; control-plane installs skip the sleep. If the store crashed
   while we slept, the write never completed — the crash handler decides
   (from [in_flight]) whether it tore; either way this fiber must not touch
   the post-crash tables. *)
let rec make_ram_room t ~charge =
  if Gaddr.Table.length t.ram >= t.cfg.ram_pages then begin
    match victim t.ram with
    | None -> ()
    | Some (addr, frame) ->
      Gaddr.Table.remove t.ram addr;
      t.ram_evictions <- t.ram_evictions + 1;
      trace_tier t "store.demote" addr
        ~attrs:[ ("from", "ram"); ("to", "disk") ];
      (* Replacing an existing disk frame doesn't grow the table. *)
      if not (Gaddr.Table.mem t.disk addr) then make_disk_room t;
      let survived =
        if charge then begin
          let epoch = t.epoch in
          t.in_flight <- (addr, frame) :: t.in_flight;
          maybe_crash_during_io t disk_write_latency;
          Ksim.Fiber.sleep disk_write_latency;
          if t.epoch = epoch then begin
            t.in_flight <-
              List.filter (fun (_, f) -> f != frame) t.in_flight;
            true
          end
          else false
        end
        else true
      in
      if survived then begin
        install_disk t addr frame;
        make_ram_room t ~charge
      end
  end

let install_ram ?(charge = true) t addr frame =
  let epoch = t.epoch in
  make_ram_room t ~charge;
  (* The demotion above may have slept across a crash; the fresh tables
     belong to the next life of this store. *)
  if t.epoch = epoch then Gaddr.Table.replace t.ram addr frame

(* Reading a disk frame verifies its checksum; a torn image is dropped on
   detection and reads as a miss — the store never serves one. *)
let verify_disk t addr frame =
  if Disk_fault.checksum frame.data = frame.sum then true
  else begin
    Gaddr.Table.remove t.disk addr;
    Gaddr.Table.remove t.unsynced addr;
    t.torn_detected <- t.torn_detected + 1;
    trace_tier t "store.torn" addr ~attrs:[ ("tier", "disk") ];
    false
  end

(* The data-plane read shared by [read], [read_into] and [write_from]:
   charge the tier's latency, promote disk hits into RAM, and return the
   frame's own (immutable) bytes. *)
let read_frame t addr =
  match Gaddr.Table.find_opt t.ram addr with
  | Some frame ->
    t.ram_hits <- t.ram_hits + 1;
    touch t frame;
    let epoch = t.epoch in
    Ksim.Fiber.sleep ram_latency;
    if t.epoch = epoch then Some frame.data else None
  | None -> (
    match Gaddr.Table.find_opt t.disk addr with
    | Some frame when verify_disk t addr frame ->
      t.disk_hits <- t.disk_hits + 1;
      touch t frame;
      let epoch = t.epoch in
      maybe_crash_during_io t disk_read_latency;
      Ksim.Fiber.sleep disk_read_latency;
      if t.epoch <> epoch then None
      else begin
        (* Inclusive promotion: the disk frame stays put — after a WAL
           checkpoint truncates a page's log records it can be the only
           durable copy of a committed image, and a read must not turn
           durable data into RAM-only data. A RAM frame sharing its bytes
           fronts it; pins move to the RAM frame (pin/unpin resolve RAM
           first). *)
        let data = frame.data in
        (match Gaddr.Table.find_opt t.disk addr with
         | Some f when f == frame && not (Gaddr.Table.mem t.ram addr) ->
           let ram_frame =
             {
               data;
               dirty = frame.dirty;
               pins = frame.pins;
               last_use = frame.last_use;
               sum = 0;
             }
           in
           frame.pins <- 0;
           trace_tier t "store.promote" addr
             ~attrs:[ ("from", "disk"); ("to", "ram") ];
           install_ram t addr ram_frame
         | _ -> () (* dropped or overwritten while we slept *));
        Some data
      end
    | Some _ | None ->
      t.misses <- t.misses + 1;
      None)

let read t addr = Option.map Bytes.copy (read_frame t addr)

let read_into t addr ~off dst ~dst_off ~len =
  match read_frame t addr with
  | Some data ->
    Bytes.blit data off dst dst_off len;
    true
  | None -> false

(* Install [data] as the page's image; the store owns it from here on and
   never mutates it. [charge] is the data plane's RAM-write sleep (and the
   demotions it may force); control-plane installs skip it. *)
let install t addr data ~dirty ~charge =
  match Gaddr.Table.find_opt t.ram addr with
  | Some frame ->
    frame.data <- data;
    frame.dirty <- frame.dirty || dirty;
    touch t frame;
    if charge then Ksim.Fiber.sleep ram_latency
  | None ->
    (* Overwriting a disk-resident page installs the new content in RAM in
       front of it; the disk frame keeps the prior durable bytes until a
       flush or demotion writes the new ones (a crash before then correctly
       reverts to the old image). The old frame's dirty bit still matters
       (the overwritten bytes were never pushed) but its pins belonged to
       fibers of a previous life of this page and must not resurrect. *)
    let was_dirty =
      match Gaddr.Table.find_opt t.disk addr with
      | Some old ->
        old.pins <- 0;
        old.dirty
      | None -> false
    in
    let frame =
      { data; dirty = dirty || was_dirty; pins = 0; last_use = 0; sum = 0 }
    in
    touch t frame;
    let epoch = t.epoch in
    install_ram ~charge t addr frame;
    if charge && t.epoch = epoch then Ksim.Fiber.sleep ram_latency

let write t addr data ~dirty =
  install t addr (Bytes.copy data) ~dirty ~charge:true

let write_immediate t addr data ~dirty = install t addr data ~dirty ~charge:false

(* A read followed by a write of the patched image, with the same
   latencies, promotion and crash fencing. Installed images are never
   mutated, so the patch lands in a fresh copy of the page: one copy where
   [read] then [write] would make two. *)
let write_from t addr ~off src ~src_off ~len =
  match read_frame t addr with
  | None -> false
  | Some data ->
    let image = Bytes.copy data in
    Bytes.blit src src_off image off len;
    install t addr image ~dirty:true ~charge:true;
    true

(* [write_from] for a caller that already built the page's new image. *)
let write_image t addr image =
  match read_frame t addr with
  | None -> false
  | Some _ ->
    install t addr image ~dirty:true ~charge:true;
    true

let find_frame t addr =
  match Gaddr.Table.find_opt t.ram addr with
  | Some f -> Some f
  | None -> Gaddr.Table.find_opt t.disk addr

let read_immediate t addr =
  match Gaddr.Table.find_opt t.ram addr with
  | Some frame -> Some frame.data
  | None -> (
    match Gaddr.Table.find_opt t.disk addr with
    | Some frame when verify_disk t addr frame -> Some frame.data
    | Some _ | None -> None)

let mark_clean t addr =
  match find_frame t addr with Some f -> f.dirty <- false | None -> ()

let is_dirty t addr =
  match find_frame t addr with Some f -> f.dirty | None -> false

(* Pin/unpin tolerate non-resident pages symmetrically: a page can be
   invalidated or crash away while a lock context holds it, and the
   context's cleanup must not distinguish the cases. *)
let pin t addr =
  match find_frame t addr with Some f -> f.pins <- f.pins + 1 | None -> ()

let unpin t addr =
  match find_frame t addr with
  | Some f -> if f.pins > 0 then f.pins <- f.pins - 1
  | None -> ()

let pinned_pages t =
  let count tbl acc =
    Gaddr.Table.fold (fun _ f acc -> if f.pins > 0 then acc + 1 else acc) tbl acc
  in
  count t.ram (count t.disk 0)

let flush_immediate t addr =
  match Gaddr.Table.find_opt t.ram addr with
  | None -> ()
  | Some frame ->
    t.writebacks <- t.writebacks + 1;
    (* The RAM copy is now backed by disk: clear its dirty bit, or the
       same bytes get counted and written back a second time on
       demotion. *)
    frame.dirty <- false;
    if not (Gaddr.Table.mem t.disk addr) then make_disk_room t;
    install_disk t addr
      {
        data = frame.data;
        dirty = false;
        pins = 0;
        last_use = frame.last_use;
        sum = 0;
      }

let sync t =
  if Gaddr.Table.length t.unsynced > 0 then
    t.sync_count <- t.sync_count + 1;
  Gaddr.Table.reset t.unsynced

let drop t addr =
  Gaddr.Table.remove t.ram addr;
  Gaddr.Table.remove t.disk addr;
  Gaddr.Table.remove t.unsynced addr

let crash t =
  (* Fence: fibers asleep inside an operation observe the epoch change and
     abandon their work instead of polluting the post-crash tables. *)
  t.epoch <- t.epoch + 1;
  Gaddr.Table.reset t.ram;
  (* Demotions caught mid-write: the write never completed. With the fault
     model on, it may have torn — a partial image lands on disk whose
     checksum (of the intended content) won't verify. *)
  let flights = List.rev t.in_flight in
  t.in_flight <- [];
  if Disk_fault.active t.faults then
    List.iter
      (fun (addr, frame) ->
        if Kutil.Rng.float t.rng 1.0 < t.faults.Disk_fault.torn_write_prob
        then begin
          let prior =
            Option.map
              (fun f -> f.data)
              (Gaddr.Table.find_opt t.disk addr)
          in
          let torn = Disk_fault.tear t.rng ~intended:frame.data ~prior in
          Gaddr.Table.replace t.disk addr
            {
              data = torn;
              dirty = false;
              pins = 0;
              last_use = frame.last_use;
              sum = Disk_fault.checksum frame.data;
            };
          t.torn_writes <- t.torn_writes + 1
        end)
      flights;
  (* Completed-but-unsynced writes: each may roll back to the prior durable
     content, and the rolled-back write may tear instead of vanishing
     cleanly. Sorted order keeps the rng draw sequence independent of hash
     table iteration. *)
  if Disk_fault.active t.faults then begin
    let entries = Gaddr.Table.fold (fun a p acc -> (a, p) :: acc) t.unsynced [] in
    let entries = List.sort (fun (a, _) (b, _) -> Gaddr.compare a b) entries in
    List.iter
      (fun (addr, prior) ->
        match Gaddr.Table.find_opt t.disk addr with
        | None -> ()
        | Some frame ->
          if Kutil.Rng.float t.rng 1.0 < t.faults.Disk_fault.lost_write_prob
          then
            if
              Kutil.Rng.float t.rng 1.0 < t.faults.Disk_fault.torn_write_prob
            then begin
              let pdata = Option.map fst prior in
              frame.data <-
                Disk_fault.tear t.rng ~intended:frame.data ~prior:pdata;
              (* frame.sum still covers the intended bytes: mismatch. *)
              t.torn_writes <- t.torn_writes + 1
            end
            else begin
              (match prior with
              | Some (pdata, psum) ->
                frame.data <- pdata;
                frame.sum <- psum;
                frame.dirty <- false
              | None -> Gaddr.Table.remove t.disk addr);
              t.lost_writes <- t.lost_writes + 1
            end)
      entries
  end;
  Gaddr.Table.reset t.unsynced;
  (* Pins were owned by fibers the crash killed. *)
  Gaddr.Table.iter (fun _ f -> f.pins <- 0) t.disk

let scrub t =
  let torn =
    Gaddr.Table.fold
      (fun addr frame acc ->
        if Disk_fault.checksum frame.data = frame.sum then acc
        else addr :: acc)
      t.disk []
  in
  List.iter
    (fun addr ->
      Gaddr.Table.remove t.disk addr;
      t.torn_detected <- t.torn_detected + 1;
      trace_tier t "store.torn" addr ~attrs:[ ("tier", "disk") ])
    torn;
  List.length torn

(* A page can be resident in both tiers (inclusive caching): list each
   address once. *)
let pages t =
  let seen = Gaddr.Table.create 64 in
  Gaddr.Table.iter (fun a _ -> Gaddr.Table.replace seen a ()) t.ram;
  Gaddr.Table.iter (fun a _ -> Gaddr.Table.replace seen a ()) t.disk;
  Gaddr.Table.fold (fun a () acc -> a :: acc) seen []

let ram_used t = Gaddr.Table.length t.ram
let disk_used t = Gaddr.Table.length t.disk

let stats t =
  {
    ram_hits = t.ram_hits;
    disk_hits = t.disk_hits;
    misses = t.misses;
    ram_evictions = t.ram_evictions;
    disk_evictions = t.disk_evictions;
    writebacks = t.writebacks;
    syncs = t.sync_count;
    lost_writes = t.lost_writes;
    torn_writes = t.torn_writes;
    torn_detected = t.torn_detected;
  }

let reset_stats t =
  t.ram_hits <- 0;
  t.disk_hits <- 0;
  t.misses <- 0;
  t.ram_evictions <- 0;
  t.disk_evictions <- 0;
  t.writebacks <- 0;
  t.sync_count <- 0;
  t.lost_writes <- 0;
  t.torn_writes <- 0;
  t.torn_detected <- 0
