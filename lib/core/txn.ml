(* Distributed atomic commit: the 2PC tables every node keeps (§4).

   The protocol in one paragraph. A transaction buffers writes under
   write-intent (2PL) locks taken through the ordinary pipelined lock
   path. At commit the coordinator computes the new page images, groups
   them by region home, and drives two-phase commit: each participant home
   forces the images plus a [Prepare] record through its WAL (its yes
   vote), then the coordinator forces a [Decide commit] record through its
   own WAL — the commit point — and sends each participant one decision
   before releasing its locks. That message also carries the
   write-through of the participant's CREW pages, each with its
   post-release version, so the home absorbs the image it already logged
   at prepare without a separate flush. A decision that did not arrive
   leaves its pages unlocked at the coordinator while the participant
   still holds the prepared image, so a participant votes no on a page
   another undecided transaction still holds. Presumed abort: aborts are
   never logged at the coordinator, so a participant stuck with a
   prepared-undecided transaction (after any crash) asks the coordinator
   and treats "no record of it" as abort. The decision record carries the
   participant list; it is kept (across checkpoints and crashes, via the
   snapshot) until every participant has acked, then forgotten with a
   [txn.forget] control note. Stale actors are fenced by the epoch
   machinery: a coordinator that crashed mid-vote can never log a
   decision afterwards, which is what makes "no record = abort" safe.

   This module is the participant and the coordinator's bookkeeping; the
   client-side handle and the commit driver are {!Txn_coord}. *)

open Daemon_core
module Txid = Kutil.Txid

(* Participant-side record of a prepared (voted-yes, undecided) global
   transaction: the page images to apply on commit, and bookkeeping for the
   presumed-abort resolver. *)
type prepared = {
  p_pages : (Gaddr.t * bytes) list;
  mutable p_since : Ksim.Time.t;    (* when prepared / last status attempt *)
  mutable p_querying : bool;        (* a status query fiber is in flight *)
}

(* A committed 2PC page image the home has installed in its store but not
   yet reconciled with the consistency machine. A decide that carried the
   page's write-through reconciles it on arrival, so a pin arises only
   where no version came (a re-sent decision, a resolved one, a protocol
   without write-through) or where the home caches a copy of its own.
   When the coordinator is alive its write-lock release or fallback flush
   propagates the very same image (the matching [Install] or flush clears
   the pin); when the coordinator died holding the locks, the pin goes
   overdue and the repair loop re-writes the image through a local write
   lock — riding the CM's own dead-owner fail-over — so reads stop serving
   the machine's stale pre-transaction copy. *)
type pin = {
  pin_img : bytes;
  mutable pin_since : Ksim.Time.t;
  mutable pin_busy : bool;          (* a repair fiber is in flight *)
}

type t = {
  c : Daemon_core.t;
  mutable next_seq : int;  (* per-epoch coordinator sequence numbers *)
  prepared : prepared Txid.Table.t;  (* participant: voted, undecided *)
  decided : bool Txid.Table.t;  (* decisions seen (duplicate = no-op) *)
  decisions : Topology.node_id list Txid.Table.t;
      (* coordinator: committed decisions with participants still owed the
         decision message; forgotten once every ack is in *)
  delivering : unit Txid.Table.t;
      (* coordinator: decisions the commit fiber is still sending itself,
         with their write-through; the repair loop leaves them alone *)
  active : unit Txid.Table.t;
      (* coordinator: transactions inside their voting window. In-memory
         only, deliberately: after a crash nothing here survives, so a
         status query for a pre-crash transaction answers "aborted" —
         which is sound, because the epoch fence keeps the dead commit
         fiber from ever logging its decision. *)
  pins : pin Gaddr.Table.t;  (* home: committed images awaiting CM sync *)
  mutable last : Txid.t option;  (* last id minted here (tests) *)
  mutable hook : (string -> unit) option;  (* nemesis crash points *)
}

let create c =
  let t =
    { c; next_seq = 0; prepared = Txid.Table.create 8;
      decided = Txid.Table.create 16; decisions = Txid.Table.create 8;
      delivering = Txid.Table.create 4; active = Txid.Table.create 4;
      pins = Gaddr.Table.create 8; last = None; hook = None }
  in
  (* The machine just synced this exact image with the store — if it is a
     pinned committed 2PC image, the CM has caught up (the coordinator's
     write-lock release propagated it) and the pin's repair pass is no
     longer needed. An install of *different* bytes keeps the pin: that is
     the stale pre-transaction copy resurfacing through dead-owner
     fail-over, exactly what the pin exists to overwrite. *)
  c.on_install <-
    (fun page data ->
      match Gaddr.Table.find_opt t.pins page with
      | Some pin when Bytes.equal pin.pin_img data ->
        Gaddr.Table.remove t.pins page
      | Some _ | None -> ());
  t

(* 2PC state dies too and comes back through replay: prepared entries from
   surviving [Prepare] records, decisions from the snapshot and surviving
   [Decide] records. The voting-window table stays empty on purpose — the
   epoch fence guarantees the pre-crash commit fiber can never log a
   decision now, so answering "aborted" for its id is sound (presumed
   abort). Pins protect live machines from serving pre-transaction images;
   after a crash the machines are gone and replay rebuilds the store with
   the committed images, so materialisation reads the right bytes anyway. *)
let crash t =
  Txid.Table.reset t.prepared;
  Txid.Table.reset t.decided;
  Txid.Table.reset t.decisions;
  Txid.Table.reset t.delivering;
  Txid.Table.reset t.active;
  Gaddr.Table.reset t.pins

let step t name = match t.hook with Some f -> f name | None -> ()

let event t ~span gtx name attrs =
  if Trace.enabled () then
    Trace.event ~engine:t.c.engine ~node:t.c.id ~span name
      ~attrs:(("txid", Txid.to_string gtx) :: attrs)

(* Is [page] covered by a prepared-but-undecided transaction at this
   participant? Two-phase locking holds every lock through the decision,
   but a participant that crashed after voting lost its in-memory lock
   state — only the prepared record survives, so it must keep fencing the
   page until resolution. Without the fence a rebuilt home serves (and
   lets writers clobber) the pre-transaction image after the coordinator
   already acknowledged the commit. *)
let in_doubt t page =
  Txid.Table.length t.prepared > 0
  && Txid.Table.fold
       (fun _ entry acc ->
         acc || List.exists (fun (p, _) -> p = page) entry.p_pages)
       t.prepared false

(* A flush carrying exactly a pinned committed image discharges the pin —
   but only when the home machine holds no copy of its own ([has_copy]),
   so the store write that follows leaves store = pinned image and readers
   fetch from the (fresh) owner. While the home still caches bytes of its
   own they may be the stale pre-transaction copy the pin exists to
   overwrite: keep it and let the repair pass force the committed image
   through the CM. *)
let discharge_on_flush t page data ~has_copy =
  match Gaddr.Table.find_opt t.pins page with
  | Some pin when (not has_copy) && Bytes.equal pin.pin_img data ->
    Gaddr.Table.remove t.pins page
  | Some _ | None -> ()

(* Participant phase one: force the images and the prepare record, answer
   the vote. Idempotent — a retried prepare for a transaction already
   prepared (or even decided) re-votes yes without re-logging. A page
   another prepared transaction still holds gets a no: its coordinator
   released the locks although the decision never arrived here, and a
   later image prepared beside the undecided one would be overwritten
   when the older decision finally installs. *)
let prepare t ~span gtx pages =
  let c = t.c in
  if Txid.Table.mem t.decided gtx || Txid.Table.mem t.prepared gtx then true
  else if List.exists (fun (page, _) -> in_doubt t page) pages then begin
    Metrics.incr c.metrics "txn.prepare.refused";
    event t ~span gtx "txn.prepare.refused" [];
    false
  end
  else begin
    let tx = Wal.begin_tx c.wal in
    List.iter (fun (page, img) -> Wal.log_page c.wal tx page img) pages;
    Wal.prepare c.wal tx gtx;
    Txid.Table.replace t.prepared gtx
      { p_pages = pages; p_since = Ksim.Engine.now c.engine;
        p_querying = false };
    Metrics.incr c.metrics "txn.prepare";
    event t ~span gtx "txn.prepare"
      [ ("pages", string_of_int (List.length pages)) ];
    true
  end

(* Install one committed image in the home's store. [version] is the
   write-through that rode the decide, absorbed as a [Page_flush] would be
   but without a second log record: the prepare already logged the image.
   An obsolete one is dropped, store write included. Otherwise, and
   without a version, the store takes the image; the pin covers a machine
   that may still serve the pre-transaction bytes — see [pin]. A pin left
   by an older commit of the page goes either way: this newer image
   replaces it, or supersedes it when the machine absorbed the version.
   The prepared entry owned [img]; the pin takes it over without a
   copy. *)
let install t ~span ~src region page img version =
  let c = t.c in
  let absorbed =
    match (region, version) with
    | Some region, Some version ->
      absorb_write_through c ~span (machine_for c region page) page ~src
        ~data:img ~version
    | _ -> Some true
  in
  match absorbed with
  | None -> ()
  | Some pin ->
    Store.write_immediate c.store page img ~dirty:false;
    Store.flush_immediate c.store page;
    if pin then
      Gaddr.Table.replace t.pins page
        { pin_img = img;
          pin_since = Ksim.Engine.now c.engine;
          pin_busy = false }
    else Gaddr.Table.remove t.pins page

(* Participant phase two: log the decision and, on commit, install the
   prepared images, absorbing the write-through of the [flushed] pages.
   Duplicate decisions — and decisions for unknown (long-forgotten)
   transactions — are no-ops. *)
let decide ?(flushed = []) t ~span gtx commit =
  let c = t.c in
  match Txid.Table.find_opt t.prepared gtx with
  | None ->
    if Txid.Table.mem t.decided gtx then Metrics.incr c.metrics "txn.decide.dup"
  | Some entry ->
    (* Commit decisions sync (the ack below promises durability); abort
       decisions may ride unsynced — losing one merely re-runs the
       presumed-abort resolution. *)
    Wal.decide c.wal ~sync:commit gtx ~commit ~participants:[];
    if commit then
      List.iter
        (fun (page, img) ->
          let region = homed_containing c page in
          Option.iter
            (fun (region : Region.t) ->
              ignore
                (pdir_ensure_logged c ~page ~region_base:region.base
                   ~homed_here:true))
            region;
          install t ~span ~src:gtx.Txid.coord region page img
            (List.assoc_opt page flushed))
        entry.p_pages;
    Txid.Table.remove t.prepared gtx;
    Txid.Table.replace t.decided gtx commit;
    Metrics.incr c.metrics
      (if commit then "txn.decide.commit" else "txn.decide.abort");
    event t ~span gtx "txn.decide" [ ("commit", string_of_bool commit) ]

(* Coordinator's answer to an in-doubt participant. Order matters: a
   committed transaction must never read as aborted, and one still inside
   its voting window must stall the asker rather than resolve it. *)
let status t gtx =
  if
    Txid.Table.find_opt t.decided gtx = Some true
    || Txid.Table.mem t.decisions gtx
  then Wire.Tx_committed
  else if Txid.Table.mem t.active gtx then Wire.Tx_in_progress
  else Wire.Tx_aborted

(* A participant acked the commit decision: once the last ack is in, the
   decision is garbage — forget it (logged, so replay forgets too). *)
let ack_decide t gtx dst =
  match Txid.Table.find_opt t.decisions gtx with
  | None -> ()
  | Some parts ->
    let rest = List.filter (fun n -> n <> dst) parts in
    if rest = [] then begin
      Txid.Table.remove t.decisions gtx;
      let e = Codec.encoder () in
      Txid.encode e gtx;
      Wal.control t.c.wal ~sync:false "txn.forget" (Codec.to_bytes e)
    end
    else Txid.Table.replace t.decisions gtx rest

(* -- the participant's side of each request -- *)

(* A participant step between its two crash points. The crash hook may
   take the node down mid-handler; a dead participant sends no answer and
   the coordinator times out. *)
let participant_step t ~recv ~done_ f =
  step t recv;
  if not t.c.up then None
  else begin
    let answer = f () in
    step t done_;
    if t.c.up then Some answer else None
  end

let serve_prepare t ctx gtx pages =
  participant_step t ~recv:"part.prepare_recv" ~done_:"part.prepared" (fun () ->
      Wire.R_tx_vote (prepare t ~span:(Op_ctx.span ctx) gtx pages))

let serve_decide t ctx gtx commit flushed =
  participant_step t ~recv:"part.decide_recv" ~done_:"part.decided" (fun () ->
      decide t ~span:(Op_ctx.span ctx) gtx commit ~flushed;
      Wire.R_unit)

(* Periodic 2PC maintenance, run from the repair loop.

   Coordinator half: re-push committed decisions that some participant has
   not acked (it was down or partitioned during the broadcast), once the
   commit fiber is done sending them itself.

   Participant half: prepared-but-undecided transactions older than
   [txn_resolve_after] query the coordinator. "Committed" applies,
   "aborted" (including "never heard of it" — presumed abort) drops, "in
   progress" waits for the next pass. *)
let maintain t epoch ~now =
  let c = t.c in
  let pending =
    Txid.Table.fold
      (fun g parts acc ->
        if Txid.Table.mem t.delivering g then acc else (g, parts) :: acc)
      t.decisions []
  in
  List.iter
    (fun (gtx, parts) ->
      List.iter
        (fun dst ->
          Ksim.Fiber.spawn c.engine ~name:"txn-rebroadcast" (fun () ->
              if alive c epoch then
                match
                  ask c Op_ctx.background ~policy:Wire.Policy.idempotent ~dst
                    (Wire.Tx_decide { gtx; commit = true; flushed = [] })
                with
                | Ok Wire.R_unit -> if alive c epoch then ack_decide t gtx dst
                | Ok _ | Error (`Timeout | `Unreachable) -> ()))
        parts)
    pending;
  let stale =
    Txid.Table.fold
      (fun g e acc ->
        if (not e.p_querying) && now - e.p_since >= c.cfg.txn_resolve_after
        then (g, e) :: acc
        else acc)
      t.prepared []
  in
  List.iter
    (fun (gtx, entry) ->
      entry.p_querying <- true;
      Ksim.Fiber.spawn c.engine ~name:"txn-resolve" (fun () ->
          let answer =
            match
              ask c Op_ctx.background ~policy:Wire.Policy.idempotent
                ~dst:gtx.Txid.coord (Wire.Tx_status { gtx })
            with
            | Ok (Wire.R_tx_status st) -> Some st
            | Ok _ | Error (`Timeout | `Unreachable) -> None
          in
          if alive c epoch then
            match Txid.Table.find_opt t.prepared gtx with
            | Some e when e == entry -> (
              entry.p_querying <- false;
              entry.p_since <- Ksim.Engine.now c.engine;
              let resolve commit =
                Metrics.incr c.metrics "txn.resolve";
                event t ~span:Trace.null gtx "txn.resolve"
                  [ ("commit", string_of_bool commit) ];
                decide t ~span:Trace.null gtx commit
              in
              match answer with
              | Some Wire.Tx_committed -> resolve true
              | Some Wire.Tx_aborted -> resolve false
              | Some Wire.Tx_in_progress | None -> ())
            | Some _ | None -> ()))
    stale
