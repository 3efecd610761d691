(* The data path (§2-§3): lock, read, write and unlock over the
   consistency machines, the strict write-through to a region's home, and
   the versioned publish. Also the home's side of the page traffic its
   writers send: CM messages, write-through flushes and publishes. *)

open Daemon_core

type lock_ctx = {
  ctx_op : Op_ctx.t;  (* the client operation this lock belongs to *)
  ctx_region : Region.t;
  ctx_addr : Gaddr.t;
  ctx_len : int;
  ctx_mode : Ctypes.mode;
  ctx_pages : Gaddr.t list;
  ctx_written : unit Gaddr.Table.t;
  mutable ctx_expected : Ctypes.version option;
      (* versioned CAS ({!write_cas}): publish only if the home is still at
         exactly this version *)
  mutable ctx_publish : (unit, error) result;
      (* outcome of the versioned publish unlock performs; [write_sync] and
         [write_cas] surface it to the caller *)
  mutable ctx_live : bool;
}

type t = {
  c : Daemon_core.t;
  loc : Locate.t;
  txn : Txn.t;  (* the in-doubt fence *)
}

let create loc txn = { c = loc.Locate.c; loc; txn }

(* Release every page of a (possibly partial) multi-page lock in one pass.
   Shared by unlock and the acquisition rollback paths so their per-page
   bookkeeping cannot drift: [unpin] drops the storage pins unlock took,
   [written] propagates dirty images for pages the context wrote. Rollback
   of a never-granted context passes neither — the pages were never pinned
   and carry no data. *)
let release_pages c ctx (region : Region.t) mode ?(unpin = false) ?written
    pages =
  List.iter
    (fun page ->
      if unpin then Store.unpin c.store page;
      (* Versioned regions release without data: propagation happens via
         the publish path (unlock), not inside the machine's Release. *)
      let data =
        match written with
        | Some tbl
          when mode = Ctypes.Write
               && Gaddr.Table.mem tbl page
               && not (versioned_region region) ->
          Store.read_immediate c.store page
        | _ -> None
      in
      release_page c ctx page mode ~data)
    pages

(* A Read context never writes: every one shares this table, and nothing
   adds to it. *)
let nothing_written : unit Gaddr.Table.t = Gaddr.Table.create 1

(* Acquire one page of a lock, retrying up to [n] times. Every page of one
   lock shares [backoff] (built on the first retry, see {!retry_pause}) and
   the context deadline. *)
let rec acquire_one c ctx region mode backoff page n =
  let timeout = budgeted_timeout c ctx c.cfg.lock_timeout in
  if timeout <= 0 then Error `Timeout
  else
    match acquire_page c ctx region page mode ~timeout with
    | Ok () -> Ok ()
    | Error _ when n > 1 ->
      retry_pause c backoff ~base:(Ksim.Time.ms 50);
      acquire_one c ctx region mode backoff page (n - 1)
    | Error e -> Error e

(* Pipelined acquisition: issue up to [acquire_window] page acquires
   concurrently (each in its own fiber), so an N-page lock costs
   O(N / window) round-trip waves instead of N sequential round trips.
   A one-page wave runs in the calling fiber after one yield, which takes
   the engine event the spawned fiber would have taken, so the schedule
   is the same. Rollback stays all-or-nothing: any failure releases every
   page this call acquired — prior waves and the failing wave's partial
   grants. *)
let rec acquire_all c ctx region mode backoff acquired remaining =
  let window = max 1 c.cfg.acquire_window in
  let retries = c.cfg.lock_retries in
  match remaining with
  | [] -> Ok (List.rev acquired)
  | page :: rest when window = 1 || rest = [] -> (
    Ksim.Fiber.yield ();
    match acquire_one c ctx region mode backoff page retries with
    | Ok () -> acquire_all c ctx region mode backoff (page :: acquired) rest
    | Error e ->
      release_pages c ctx region mode (List.rev acquired);
      Error e)
  | _ ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | p :: rest -> take (n - 1) (p :: acc) rest
    in
    let wave, rest = take window [] remaining in
    let results =
      wave
      |> List.map (fun page ->
             ( page,
               Ksim.Fiber.async c.engine ~name:"daemon.lock.acquire"
                 (fun () -> acquire_one c ctx region mode backoff page retries)
             ))
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
       release_pages c ctx region mode (List.rev_append acquired granted);
       Error e
     | None ->
       acquire_all c ctx region mode backoff (List.rev_append granted acquired)
         rest)

let reflect c t0 span result =
  (match result with
   | Ok _ ->
     Metrics.incr c.metrics "lock.grant";
     Metrics.observe c.metrics "lock.ms"
       (Ksim.Time.to_ms_f (Ksim.Engine.now c.engine - t0))
   | Error `Timeout -> Metrics.incr c.metrics "lock.timeout"
   | Error _ -> Metrics.incr c.metrics "lock.reject");
  finish_result c span result

(* [refuse] vets the located region before any page is acquired: a call
   the region's protocol cannot serve must not disturb its copyset. *)
let lock ?(refuse = fun _ -> None) t ~ctx ~addr ~len mode =
  let c = t.c in
  match serving c with
  | Error e -> Error e
  | Ok () ->
  let t0 = Ksim.Engine.now c.engine in
  let op = ctx in
  let span =
    if traced ctx then
      span_of c ctx "daemon.lock" (fun () ->
          [ ("addr", Gaddr.to_string addr);
            ("len", string_of_int len);
            ("mode", Ctypes.mode_to_string mode) ])
    else Trace.null
  in
  let ctx = Op_ctx.with_span ctx span in
  let principal = Op_ctx.principal ctx in
  reflect c t0 span
  @@
  match Locate.locate t.loc ctx addr with
  | Error e -> Error e
  | Ok region ->
    let region =
      if
        region.Region.state <> Region.Allocated
        || not (Attr.allows region.Region.attr ~principal mode)
      then Option.value (Locate.refresh t.loc ctx region) ~default:region
      else region
    in
    if not (Region.contains_range region addr ~len) then Error `Bad_range
    else if region.Region.state <> Region.Allocated then Error `Not_allocated
    else if not (Attr.allows region.Region.attr ~principal mode) then
      Error `Access_denied
    else
    match refuse region with
    | Some e -> Error e
    | None ->
    if Op_ctx.expired ctx ~now:(Ksim.Engine.now c.engine) then Error `Timeout
    else begin
      (* Computed once; granted contexts carry it as [ctx_pages] so unlock
         and read/write never recompute the page list. *)
      let pages =
        Gaddr.pages_in addr ~len ~page_size:region.Region.attr.Attr.page_size
      in
      if List.exists (fun p -> Txn.in_doubt t.txn p) pages then
        Error (`Conflict "transaction in doubt")
      else
      match acquire_all c ctx region mode (ref None) [] pages with
      | Error e -> Error e
      | Ok pages ->
        List.iter (Store.pin c.store) pages;
        Ok
          {
            ctx_op = op;
            ctx_region = region;
            ctx_addr = addr;
            ctx_len = len;
            ctx_mode = mode;
            ctx_pages = pages;
            ctx_written =
              (if mode = Ctypes.Write then Gaddr.Table.create 8
               else nothing_written);
            ctx_expected = None;
            ctx_publish = Ok ();
            ctx_live = true;
          }
    end

(* Versioned publish: push one lock context's written pages to the region
   home as immutable new versions. Each written page is compared with the
   copy this node's machine holds, at that copy's version: the writer
   started from it, because the machine takes no fan-out under a local
   writer. The bytes that differ ship as [Runs] against that version when
   they cover at most [diff_density_max] of the page, so the home mints
   exactly the written image; [Runs []] still mints a version. Without a
   copy, or past the density, the whole image goes. A home whose chain no
   longer retains the parent answers [Parent_gone] and the publish falls
   back to the whole image — wider, never wrong. Publishes that cannot
   reach the home keep retrying in the background and surface as the
   ambiguous [`Timeout]. A CAS publish ([ctx_expected] set) never
   background-retries — an ambiguous CAS retried later could apply against
   a version counter that has since moved — and surfaces a mismatch as
   [`Conflict] after repairing the local cache to the home's latest, so
   reads here never serve the rejected bytes. *)
let publish_written c ctx lctx =
  let region = lctx.ctx_region in
  let home = region.Region.home in
  let region_base = region.Region.base in
  let page_size = region.Region.attr.Attr.page_size in
  let expected = lctx.ctx_expected in
  let span = Op_ctx.span ctx in
  let jobs =
    List.filter_map
      (fun page ->
        if not (Gaddr.Table.mem lctx.ctx_written page) then None
        else
          match Store.read_immediate c.store page with
          | None -> None (* evicted under the lock; nothing left to publish *)
          | Some img ->
            let held =
              match Gaddr.Table.find_opt c.machines page with
              | Some slot -> Machine.packed_read_at slot.packed None
              | None -> None
            in
            let payload, parent =
              match held with
              | None -> (Ctypes.Whole img, 0)
              | Some (copy, version) ->
                let runs = Ctypes.diff ~old:copy ~new_:img in
                let covered =
                  List.fold_left (fun a (_, b) -> a + Bytes.length b) 0 runs
                in
                if
                  float_of_int covered
                  <= c.cfg.diff_density_max *. float_of_int page_size
                then (Ctypes.Runs runs, version)
                else (Ctypes.Whole img, version)
            in
            Some (page, img, parent, payload))
      lctx.ctx_pages
  in
  let publish ctx ~expected page payload parent =
    ask_for c ctx ~dst:home
      (Wire.Page_diff { page; region_base; parent; expected; payload })
      (function Wire.R_publish result -> Some result | _ -> None)
  in
  (* Pull the local cache up to a freshly fetched or minted image so local
     reads serve it without a refetch. The absorb is version-gated inside
     the machine: if a concurrent writer already fanned out something
     newer, the newer image stays (last writer won). The home's machine
     minted the version itself and has nothing to absorb. *)
  let absorb page data version =
    if home <> c.id then
      feed_existing c ~span page
        (Ctypes.Peer { src = home; msg = Ctypes.Update { data; version } })
  in
  let repair_after_cas_loss page =
    match
      ask c ctx ~dst:home (Wire.Page_version { page; region_base; at = None })
    with
    | Ok (Wire.R_page (Some (data, version))) ->
      (* The version-gated absorb is a no-op when the cache already sits
         at the home's latest — exactly the common refusal case, where
         only the store holds the rejected bytes. Restore it directly. *)
      Store.write_immediate c.store page data ~dirty:false;
      absorb page data version
    | Ok _ | Error _ -> ()
  in
  let background_republish page img =
    (* Plain LWW publish only: arrival order is the ordering contract, so
       a late retry is simply a late write. *)
    background_retry c ~name:"page-publish" (fun () ->
        Result.is_ok
          (publish Op_ctx.background ~expected:None page (Ctypes.Whole img) 0))
  in
  let publish_job (page, img, parent, payload) =
    let result =
      match publish ctx ~expected page payload parent with
      | Ok (Ctypes.Parent_gone _) ->
        (* The chain GC outran the diff: reapply as a whole image. *)
        publish ctx ~expected page (Ctypes.Whole img) parent
      | r -> r
    in
    match result with
    | Ok (Ctypes.Published v) ->
      absorb page img v;
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
      Metrics.incr c.metrics "publish.retry";
      Error e
    | Error e -> Error e
  in
  List.fold_left
    (fun acc job ->
      match publish_job job with
      | Ok () -> acc
      | Error _ as e -> ( match acc with Ok () -> e | Error _ -> acc))
    (Ok ()) jobs

let unlock c ctx =
  if ctx.ctx_live then begin
    ctx.ctx_live <- false;
    let span =
      if traced ctx.ctx_op then
        span_of c ctx.ctx_op "daemon.unlock" (fun () ->
            [ ("addr", Gaddr.to_string ctx.ctx_addr) ])
      else Trace.null
    in
    let op = Op_ctx.with_span ctx.ctx_op span in
    release_pages c op ctx.ctx_region ctx.ctx_mode ~unpin:true
      ~written:ctx.ctx_written ctx.ctx_pages;
    (* Versioned regions propagate written pages by publishing new
       versions at the home (the Release above carried no data). The
       outcome parks on the context for write_sync/write_cas to report;
       plain unlock stays infallible toward the caller, matching CREW. *)
    if
      ctx.ctx_mode = Ctypes.Write
      && versioned_region ctx.ctx_region
      && Gaddr.Table.length ctx.ctx_written > 0
    then ctx.ctx_publish <- publish_written c op ctx;
    finish_span c span
  end

(* Does the live context cover [addr, addr+len)? Offsets, not ends: no
   allocation. *)
let ctx_covers ctx addr ~len =
  let off = Gaddr.offset_from ~base:ctx.ctx_addr addr in
  ctx.ctx_live && len >= 0 && off >= 0 && len <= ctx.ctx_len - off

let read c ctx ~addr ~len =
  if not (ctx_covers ctx addr ~len) then Error `Bad_range
  else begin
    let span =
      if traced ctx.ctx_op then
        span_of c ctx.ctx_op "daemon.read" (fun () ->
            [ ("addr", Gaddr.to_string addr); ("len", string_of_int len) ])
      else Trace.null
    in
    let out = Bytes.create len in
    finish_result c span
      (match
         each_page ~page_size:ctx.ctx_region.Region.attr.Attr.page_size addr ~len
           (fun page ~off ~pos ~n ->
             if Trace.enabled () then
               Trace.event ~engine:c.engine ~node:c.id ~span "store.read"
                 ~attrs:[ ("page", Gaddr.to_string page) ];
             if Store.read_into c.store page ~off out ~dst_off:pos ~len:n then Ok ()
             else Error (`Unavailable "page missing from local store"))
       with
       | Ok () -> Ok out
       | Error e -> Error e)
  end

(* The context's record of a store write to [page]. *)
let wrote ctx page stored =
  if stored then begin
    Gaddr.Table.replace ctx.ctx_written page ();
    Ok ()
  end
  else Error (`Unavailable "page missing from local store")

let write c ctx ~addr data =
  let len = Bytes.length data in
  if ctx.ctx_mode <> Ctypes.Write then Error `Access_denied
  else if not (ctx_covers ctx addr ~len) then Error `Bad_range
  else begin
    let span =
      if traced ctx.ctx_op then
        span_of c ctx.ctx_op "daemon.write" (fun () ->
            [ ("addr", Gaddr.to_string addr); ("len", string_of_int len) ])
      else Trace.null
    in
    finish_result c span
    @@ each_page ~page_size:ctx.ctx_region.Region.attr.Attr.page_size addr ~len
         (fun page ~off ~pos ~n ->
           if Trace.enabled () then
             Trace.event ~engine:c.engine ~node:c.id ~span "store.write"
               ~attrs:[ ("page", Gaddr.to_string page) ];
           wrote ctx page
             (Store.write_from c.store page ~off data ~src_off:pos ~len:n))
  end

(* Install the new images of the pages a [write ~addr] of [len] bytes
   touched, which the caller already built: [image page] is each page's.
   Charged and recorded as that write, but the store keeps each image
   itself instead of patching a copy. A 2PC commit installs the images
   its prepare logged this way. *)
let write_images c ctx ~addr ~len image =
  each_page ~page_size:ctx.ctx_region.Region.attr.Attr.page_size addr ~len
    (fun page ~off:_ ~pos:_ ~n:_ ->
      wrote ctx page (Store.write_image c.store page (image page)))

(* The written [pages] of [region] that owe its home a write-through,
   each with the protocol version the home absorbs it at: the one the
   write-lock release gave it. Only CREW regions homed elsewhere owe one:
   the home's own writes already pass through its WAL and backup. A page
   already evicted owes nothing (the eviction shipped its bytes home as
   [Own_return]). [held]: the write lock is still held, so the version is
   the one its release will give — a CREW write release bumps it by
   exactly one. A 2PC decision carries these versions. *)
let write_through c ?(held = false) (region : Region.t) pages =
  if region.Region.home = c.id || not (crew_region region) then []
  else
    List.filter_map
      (fun page ->
        if Store.where c.store page = None then None
        else
          let v =
            match Gaddr.Table.find_opt c.machines page with
            | Some slot -> Machine.packed_version slot.packed
            | None -> 0
          in
          Some (page, if held then v + 1 else v))
      pages

(* The write-through itself, shared by plain writes and by transaction
   commits whose decide failed: push each page's current image, at the
   version {!write_through} gives it, to the region home. Pages that
   cannot reach the home keep flushing in the background; the return
   value says whether everything landed synchronously. *)
let flush_through c ~ctx (region : Region.t) pages =
  let images =
    List.filter_map
      (fun (page, version) ->
        Option.map
          (fun img -> (page, img, version))
          (Store.read_immediate c.store page))
      (write_through c region pages)
  in
  let flush (page, img, version) =
    match
      ask c ctx ~policy:Wire.Policy.idempotent ~dst:region.Region.home
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
      (fun i -> background_retry c ~name:"page-flush" (fun () -> flush i))
      failed;
    false

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
let write_sync t ~ctx ~addr data =
  let c = t.c in
  let* lctx = lock t ~ctx ~addr ~len:(Bytes.length data) Ctypes.Write in
  let result = write c lctx ~addr data in
  let written =
    Gaddr.Table.fold (fun page () acc -> page :: acc) lctx.ctx_written []
  in
  unlock c lctx;
  let* () = result in
  let* () = lctx.ctx_publish (* versioned publish did not settle *) in
  if flush_through c ~ctx lctx.ctx_region written then Ok ()
  else Error `Timeout

(* Optimistic per-page CAS for versioned regions: publish the write only if
   the home is still at exactly [expected] (obtained from {!page_version}
   or a prior write). [`Conflict] on mismatch — nothing is published and
   the local cache is repaired to the home's latest. Every page the write
   touches shares the one expected version, so the intended use is records
   within a single page. Regions under any other protocol are refused
   before the lock, so the refusal revokes nobody's copy. *)
let write_cas t ~ctx ~addr ~expected data =
  let refuse region =
    if versioned_region region then None
    else Some (`Unavailable "write_cas needs the versioned protocol")
  in
  let* lctx = lock ~refuse t ~ctx ~addr ~len:(Bytes.length data) Ctypes.Write in
  let result = write t.c lctx ~addr data in
  lctx.ctx_expected <- Some expected;
  unlock t.c lctx;
  let* () = result in
  lctx.ctx_publish

(* -- the home's side of the page traffic -- *)

let serve_cm_msg t ctx ~src ~page ~region_base body =
  let c = t.c in
  (* In-doubt fence, protocol side: remote lock traffic for a page with a
     prepared-undecided transaction gets silence, not a stale grant. The
     peer's retry ladder absorbs the timeout and the page opens up as
     soon as the decision lands. *)
  if Txn.in_doubt t.txn page then ()
  else
  match Gaddr.Table.find_opt c.machines page with
  | Some slot -> feed c ~span:(Op_ctx.span ctx) slot page (Ctypes.Peer { src; msg = body })
  | None ->
    (* First contact for this page: resolve its region (usually a region
       directory hit) in a fiber, then feed. *)
    Ksim.Fiber.spawn c.engine ~name:"cm-resolve" (fun () ->
        let region =
          if Region.contains c.map_region page then Some c.map_region
          else
            match homed_containing c page with
            | Some r -> Some r
            | None -> (
              match Locate.locate t.loc ctx region_base with
              | Ok r when Region.contains r page -> Some r
              | Ok _ | Error _ -> None)
        in
        match region with
        | Some region when c.up ->
          let slot = machine_for c region page in
          feed c ~span:(Op_ctx.span ctx) slot page (Ctypes.Peer { src; msg = body })
        | Some _ | None -> ())

let serve_flush c ctx ~src ~page ~region_base ~data ~version =
  at_home c ~region_base page @@ fun slot ->
    (* An obsolete image is a background retry finally delivering a flush
       some newer write has already overtaken. Applying it would plant
       stale bytes in the WAL (replayed last on recovery) and the store.
       Ack it — the writer's obligation was discharged by whatever
       superseded it. Anything else is logged before the ack, which
       promises the image survives a home crash. *)
    if
      absorb_write_through c ~span:(Op_ctx.span ctx) slot page ~src ~data
        ~version
    then begin
      let tx = Wal.begin_tx c.wal in
      Wal.log_page c.wal tx page data;
      Wal.commit c.wal tx
    end;
    Wire.R_unit

(* Versioned publish at the home: let the machine mint (or refuse) a new
   version and ship the outcome back. The minted image reaches the store
   and the WAL through the Install action the machine returns, exactly
   like a local write. *)
let serve_publish c ctx ~src ~page ~region_base ~parent ~expected ~payload =
  at_home c ~region_base page @@ fun slot ->
  let result, actions =
    Machine.packed_publish slot.packed ~src ~parent ~expected ~payload
  in
  apply_actions c ~span:(Op_ctx.span ctx) slot page actions;
  Wire.R_publish result
