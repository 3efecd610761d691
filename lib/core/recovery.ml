(* WAL checkpointing and recovery replay: the intent log is the one thing
   that survives a crash, and this is how the homed-region table, the page
   directory, the region directory's homed entries, committed page images
   and 2PC decisions come back from it. *)

open Daemon_core
module Txid = Kutil.Txid

(* Truncate the intent log once it has grown past the configured bound.
   Ordering matters: the disk tier is hardened first, so that by the time
   the truncating checkpoint record is the only thing left, everything the
   dropped records described really is durable. The snapshot carries the
   homed-region table and the persistent page-directory entries. *)
let checkpoint c (txn : Txn.t) =
  (* A homed page whose committed image is still dirty in RAM would have
     its only recoverable copy die with the truncated log records: push
     every such page to disk before asserting durability, in address
     order: a flush may evict from a full disk tier. *)
  Page_directory.fold
    (fun page entry acc ->
      if
        entry.Page_directory.homed_here
        && Store.where c.store page = Some Store.Ram
        && Store.is_dirty c.store page
      then page :: acc
      else acc)
    c.pdir []
  |> List.sort Gaddr.compare
  |> List.iter (Store.flush_immediate c.store);
  Store.sync c.store;
  let e = Codec.encoder () in
  let regions = Gaddr.Table.fold (fun _ r acc -> r :: acc) c.homed [] in
  let regions =
    List.sort (fun a b -> Gaddr.compare a.Region.base b.Region.base) regions
  in
  Codec.list e (fun r -> Region.encode e r) regions;
  Page_directory.encode_persistent c.pdir e;
  (* Undelivered commit decisions, with their write-through versions, must
     survive the truncation of their [Decide] records: the snapshot is the
     coordinator's durable copy. *)
  let decisions =
    Txid.Table.fold (fun g parts acc -> (g, parts) :: acc) txn.Txn.decisions []
    |> List.sort (fun (a, _) (b, _) -> Txid.compare a b)
  in
  Codec.list e
    (fun (g, owed) ->
      Txid.encode e g;
      Wal.encode_owed e owed)
    decisions;
  (* Simulated runs keep the disk tier in process memory, so the snapshot
     needs no page data — replayed state rebuilds against the surviving
     Store. A file-backed WAL is the *only* durable thing a real process
     has: checkpoint truncation would orphan every committed page image
     already pushed to the (volatile) disk tier, so the snapshot carries
     the homed committed images too. The list is always present to keep
     the format uniform; it is empty unless file-backed. *)
  let images =
    if Wal.file_backed c.wal then
      Page_directory.fold
        (fun page entry acc ->
          if entry.Page_directory.homed_here then
            match Store.read_immediate c.store page with
            | Some data -> (page, data) :: acc
            | None -> acc
          else acc)
        c.pdir []
      |> List.sort (fun (a, _) (b, _) -> Gaddr.compare a b)
    else []
  in
  Codec.list e
    (fun (page, data) ->
      Codec.u128 e page;
      Codec.bytes e data)
    images;
  Wal.checkpoint c.wal (Codec.to_bytes e);
  Metrics.incr c.metrics "wal.checkpoint"

let install_homed c (loc : Locate.t) r =
  Gaddr.Table.replace c.homed r.Region.base r;
  Region_directory.put loc.rdir r

let install_image c page data =
  Store.write_immediate c.store page data ~dirty:false;
  Store.flush_immediate c.store page

let restore_snapshot c loc (txn : Txn.t) snap =
  let d = Codec.decoder snap in
  List.iter (install_homed c loc) (Codec.read_list d (fun () -> Region.decode d));
  Page_directory.decode_persistent c.pdir d;
  let decisions =
    Codec.read_list d (fun () ->
        let g = Txid.decode d in
        (g, Wal.decode_owed d))
  in
  List.iter
    (fun (g, parts) ->
      Txid.Table.replace txn.Txn.decided g true;
      if parts <> [] then Txid.Table.replace txn.Txn.decisions g parts)
    decisions;
  let images =
    Codec.read_list d (fun () ->
        let page = Codec.read_u128 d in
        let data = Codec.read_bytes d in
        (page, data))
  in
  List.iter (fun (page, data) -> install_image c page data) images

(* Re-apply one logged metadata note. Notes are plain "set" payloads, so
   applying a replayed prefix twice is the same as once. Unknown tags are
   skipped: a log written by a newer daemon must not wedge recovery. *)
let apply_note c (loc : Locate.t) (txn : Txn.t) tag data =
  let d = Codec.decoder data in
  match tag with
  | "homed.put" -> install_homed c loc (Region.decode d)
  | "homed.del" ->
    let base = Codec.read_u128 d in
    Gaddr.Table.remove c.homed base;
    Region_directory.remove loc.rdir base
  | "pdir.ensure" | "pdir.sharers" ->
    let page = Codec.read_u128 d in
    let region_base = Codec.read_u128 d in
    ignore (Page_directory.ensure c.pdir ~page ~region_base ~homed_here:true);
    if tag = "pdir.sharers" then
      Page_directory.set_sharers c.pdir page
        (Codec.read_list d (fun () -> Codec.read_int d))
  | "page.free" ->
    let page = Codec.read_u128 d in
    Store.drop c.store page;
    Page_directory.remove c.pdir page
  | "txn.forget" -> Txid.Table.remove txn.Txn.decisions (Txid.decode d)
  | _ -> ()

(* The recovery phase proper: scrub torn disk images, then reconstruct
   state from the last checkpoint snapshot plus the committed log suffix.
   Replayed page images land clean in RAM and are written through to disk.
   Recovery ends with a truncating {!checkpoint}: it hardens the disk tier
   and — crucially — drops the crash's torn frontier record from the log.
   Replay stops at the first checksum failure, so leaving a torn record in
   place would silently discard every transaction committed after recovery
   at the next crash; checkpointing restores a fully readable log before
   the node acknowledges anything new. *)
let replay c loc (txn : Txn.t) =
  let scrubbed = Store.scrub c.store in
  if scrubbed > 0 then
    Metrics.observe c.metrics "recovery.scrubbed" (float_of_int scrubbed);
  let r = Wal.replay c.wal in
  (match r.Wal.snapshot with
   | Some snap -> restore_snapshot c loc txn snap
   | None -> ());
  (* Surviving decision records re-arm the decided table before the op
     stream runs, so that an op-stream [txn.forget] note (logged after its
     decision) can still clear the broadcast list it refers to. *)
  List.iter
    (fun (gtx, commit, parts) ->
      Txid.Table.replace txn.Txn.decided gtx commit;
      if commit && gtx.Txid.coord = c.id && parts <> [] then
        Txid.Table.replace txn.Txn.decisions gtx parts)
    r.Wal.decisions;
  List.iter
    (function
      | Wal.Page (page, data) -> install_image c page data
      | Wal.Note (tag, data) -> apply_note c loc txn tag data)
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
      Txid.Table.replace txn.Txn.prepared gtx
        { Txn.p_pages = pages; p_at = []; p_since = Ksim.Engine.now c.engine;
          p_querying = false })
    r.Wal.in_doubt;
  (* A homed page the directory recorded that comes back without a
     machine is an orphan, for the repair pass to rebuild. *)
  Page_directory.fold (fun page _ () -> note_orphan c page) c.pdir ();
  checkpoint c txn;
  Metrics.observe c.metrics "recovery.replayed" (float_of_int r.Wal.replayed);
  if r.Wal.discarded > 0 then
    Metrics.observe c.metrics "recovery.discarded"
      (float_of_int r.Wal.discarded)
