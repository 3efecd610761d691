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
   at prepare without a separate flush. The [Decide] record logs those
   versions, so every delivery of the decision (a re-send, a status
   answer, one after a coordinator crash) carries them, and the home
   drops an image some newer write has overtaken. A decision that did not
   arrive leaves its pages unlocked at the coordinator while the
   participant still holds the prepared image, so a participant votes no
   on a page another undecided transaction still holds. Presumed abort:
   aborts are never logged at the coordinator, so a participant stuck
   with a prepared-undecided transaction (after any crash) asks the
   coordinator and treats "no record of it" as abort. The decision record
   carries the participant list; it is kept (across checkpoints and
   crashes, via the snapshot) until every participant has acked, then
   forgotten with a [txn.forget] control note. Stale actors are fenced by the epoch
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
  p_at : (Gaddr.t * int) list;
      (* the machine version of each non-CREW page at prepare (empty after
         a replay): see [install] *)
  mutable p_since : Ksim.Time.t;    (* when prepared / last status attempt *)
  mutable p_querying : bool;        (* a status query fiber is in flight *)
}

type t = {
  c : Daemon_core.t;
  mutable next_seq : int;  (* per-epoch coordinator sequence numbers *)
  prepared : prepared Txid.Table.t;  (* participant: voted, undecided *)
  decided : bool Txid.Table.t;  (* decisions seen (duplicate = no-op) *)
  decisions : Wal.owed Txid.Table.t;
      (* coordinator: committed decisions with participants still owed the
         decision message, each with its write-through versions; forgotten
         once every ack is in *)
  active : unit Txid.Table.t;
      (* coordinator: transactions inside their voting window. In-memory
         only, deliberately: after a crash nothing here survives, so a
         status query for a pre-crash transaction answers "aborted" —
         which is sound, because the epoch fence keeps the dead commit
         fiber from ever logging its decision. *)
  mutable last : Txid.t option;  (* last id minted here (tests) *)
  mutable hook : (string -> unit) option;  (* nemesis crash points *)
}

let create c =
  { c; next_seq = 0; prepared = Txid.Table.create 8;
    decided = Txid.Table.create 16; decisions = Txid.Table.create 8;
    active = Txid.Table.create 4; last = None; hook = None }

(* 2PC state dies too and comes back through replay: prepared entries from
   surviving [Prepare] records, decisions from the snapshot and surviving
   [Decide] records. The voting-window table stays empty on purpose — the
   epoch fence guarantees the pre-crash commit fiber can never log a
   decision now, so answering "aborted" for its id is sound (presumed
   abort). *)
let crash t =
  Txid.Table.reset t.prepared;
  Txid.Table.reset t.decided;
  Txid.Table.reset t.decisions;
  Txid.Table.reset t.active

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
    let p_at =
      List.filter_map
        (fun (page, _) ->
          match Gaddr.Table.find_opt c.machines page with
          | Some slot when not (crew_region slot.region) ->
            Some (page, Machine.packed_version slot.packed)
          | Some _ | None -> None)
        pages
    in
    Txid.Table.replace t.prepared gtx
      { p_pages = pages; p_at; p_since = Ksim.Engine.now c.engine;
        p_querying = false };
    Metrics.incr c.metrics "txn.prepare";
    event t ~span gtx "txn.prepare"
      [ ("pages", string_of_int (List.length pages)) ];
    true
  end

(* Install one committed image at the home. [version] is the CREW
   write-through the decision carries, absorbed as a [Page_flush] would be
   but without a second log record (the prepare logged the image). A page
   of a remote coordinator under another protocol commits as a write of
   the home's own, unless its machine moved past the version [at] it
   prepared at: the coordinator's release, or a later write, is there. A
   page homed at the coordinator goes to the store: the coordinator's own
   held-lock release installs the same image. *)
let install t ~span ~src ~at region page img version =
  let c = t.c in
  match (region, version) with
  | Some region, Some version ->
    ignore
      (absorb_write_through c ~span (machine_for c region page) page ~src
         ~data:img ~version)
  | Some region, None when src <> c.id && not (crew_region region) ->
    let slot = machine_for c region page in
    let at =
      match List.assoc_opt page at with
      | Some v -> v
      | None -> Machine.packed_version slot.packed
    in
    write_as_local c ~span slot page img ~at
  | Some _, None | None, _ ->
    Store.write_immediate c.store page img ~dirty:false;
    Store.flush_immediate c.store page

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
          install t ~span ~src:gtx.Txid.coord ~at:entry.p_at region page img
            (List.assoc_opt page flushed))
        entry.p_pages;
    Txid.Table.remove t.prepared gtx;
    Txid.Table.replace t.decided gtx commit;
    Metrics.incr c.metrics
      (if commit then "txn.decide.commit" else "txn.decide.abort");
    event t ~span gtx "txn.decide" [ ("commit", string_of_bool commit) ]

(* Coordinator's answer to in-doubt participant [src]: a commit carries
   [src]'s write-through versions, as the decide would. Order matters: a
   committed transaction must never read as aborted, and one still inside
   its voting window must stall the asker rather than resolve it. A
   decision every participant acked owes nobody a version. *)
let status t ~src gtx =
  match Txid.Table.find_opt t.decisions gtx with
  | Some owed ->
    Wire.Tx_committed (Option.value (List.assoc_opt src owed) ~default:[])
  | None ->
    if Txid.Table.find_opt t.decided gtx = Some true then Wire.Tx_committed []
    else if Txid.Table.mem t.active gtx then Wire.Tx_in_progress
    else Wire.Tx_aborted

(* A participant acked the commit decision: once the last ack is in, the
   decision is garbage — forget it (logged, so replay forgets too). *)
let ack_decide t gtx dst =
  match Txid.Table.find_opt t.decisions gtx with
  | None -> ()
  | Some parts ->
    let rest = List.filter (fun (n, _) -> n <> dst) parts in
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
   not acked (it was down or partitioned during the broadcast), each with
   the participant's logged write-through versions: the very message the
   commit fiber sends, so either may arrive first.

   Participant half: prepared-but-undecided transactions older than
   [txn_resolve_after] query the coordinator. "Committed" applies at the
   versions the answer carries, "aborted" (including "never heard of it"
   — presumed abort) drops, "in progress" waits for the next pass. *)
let maintain t epoch ~now =
  let c = t.c in
  let pending =
    Txid.Table.fold (fun g parts acc -> (g, parts) :: acc) t.decisions []
  in
  List.iter
    (fun (gtx, parts) ->
      List.iter
        (fun (dst, flushed) ->
          Ksim.Fiber.spawn c.engine ~name:"txn-rebroadcast" (fun () ->
              if alive c epoch then
                match
                  ask c Op_ctx.background ~policy:Wire.Policy.idempotent ~dst
                    (Wire.Tx_decide { gtx; commit = true; flushed })
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
              let resolve ?flushed commit =
                Metrics.incr c.metrics "txn.resolve";
                event t ~span:Trace.null gtx "txn.resolve"
                  [ ("commit", string_of_bool commit) ];
                decide ?flushed t ~span:Trace.null gtx commit
              in
              match answer with
              | Some (Wire.Tx_committed flushed) -> resolve ~flushed true
              | Some Wire.Tx_aborted -> resolve false
              | Some Wire.Tx_in_progress | None -> ())
            | Some _ | None -> ()))
    stale
