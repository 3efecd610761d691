(* The client side of a distributed transaction: the handle that buffers
   writes under strict two-phase locking, and the coordinator that drives
   two-phase commit over the participants' and its own intent logs (see
   {!Txn} for the protocol and the tables it keeps). *)

open Daemon_core
module Txid = Kutil.Txid

type t = { dp : Data_path.t; snaps : Snapshots.t }

type handle = {
  txn_op : Op_ctx.t;
  txn_uid : int;
  mutable txn_locks : Data_path.lock_ctx list;
  mutable txn_writes : (Gaddr.t * bytes) list;  (* newest first *)
  mutable txn_reads : (Gaddr.t * bytes) list;
      (* stored bytes observed, pre-overlay — re-checked when their
         context is merged into a wider Write context *)
  mutable txn_snap : int option;
      (* lazily opened MVCC snapshot: reads of versioned regions the
         transaction has not written go through it, lock-free *)
  mutable txn_live : bool;
}

let next_txn_uid = ref 0

let begin_ ~ctx =
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

let live h = if h.txn_live then Ok () else Error (`Conflict "transaction finished")

(* Do [a, a+alen) and [b, b+blen) intersect? *)
let overlap a ~alen b ~blen =
  Gaddr.compare b (Gaddr.add_int a alen) < 0
  && Gaddr.compare a (Gaddr.add_int b blen) < 0

let covering_write (h : handle) addr ~len =
  List.find_opt
    (fun (c : Data_path.lock_ctx) ->
      c.ctx_mode = Ctypes.Write && Data_path.ctx_covers c addr ~len)
    h.txn_locks

let release_locks t h =
  let locks = h.txn_locks in
  h.txn_locks <- [];
  List.iter (fun c -> Data_path.unlock t.dp.c c) locks;
  (* Called at every transaction exit (commit, abort, kill), so the MVCC
     snapshot dies exactly when the transaction does. *)
  match h.txn_snap with
  | Some s ->
    Snapshots.release t.snaps s;
    h.txn_snap <- None
  | None -> ()

(* Drop the buffered writes and release the locks. Nothing was staged, so
   releasing propagates nothing: the store still holds the
   pre-transaction images everywhere. *)
let finish t h =
  h.txn_live <- false;
  h.txn_writes <- [];
  h.txn_reads <- [];
  Metrics.incr t.dp.c.metrics "txn.abort";
  release_locks t h

let abort t h = if h.txn_live then finish t h

(* After re-acquiring released read ranges in Write mode, re-read every
   recorded observation the new contexts cover: a writer that slipped
   into the release window must turn the upgrade into an abort, not a
   lost update. *)
let validate_reads t h new_ctxs =
  let rec go = function
    | [] -> Ok ()
    | (addr, seen) :: rest -> (
      let len = Bytes.length seen in
      match List.find_opt (fun c -> Data_path.ctx_covers c addr ~len) new_ctxs with
      | None -> go rest
      | Some c ->
        let* now = Data_path.read t.dp.c c ~addr ~len in
        if Bytes.equal now seen then go rest
        else Error (`Conflict "read range changed during lock upgrade"))
  in
  go h.txn_reads

(* Does [c] lock a page that [addr, addr+len) touches? Local locks are
   per page, so a context conflicts with a request on any page they
   share, whether or not their bytes overlap. *)
let shares_page (c : Data_path.lock_ctx) addr ~len =
  let page_size = c.ctx_region.Region.attr.Attr.page_size in
  c.ctx_live
  && List.exists (fun p -> overlap p ~alen:page_size addr ~blen:len) c.ctx_pages

(* Strict two-phase locking with shared read locks: a range first touched
   by [read] is locked in [Read] mode (read-mostly transactions no longer
   serialize against each other), a written range in [Write] mode, and all
   locks are held to the end. A Write request, or a Read request on a page
   held in Write mode, that no one context covers merges every context
   sharing a page with it by release-reacquire-validate: the merged
   contexts are released, the hull of their ranges and the request is
   re-acquired as one Write context, and the observations it covers are
   re-validated — any change aborts with [`Conflict]. Locking a page
   the transaction already holds would self-deadlock (the local lock
   table grants Write only at zero readers and no writer). The
   transaction lost lock coverage it had relied on when a step fails
   midway: it is killed, its observations no longer protected. *)
let lock t h ~addr ~len ~mode =
  let lock_more mode ~addr ~len =
    let* c = Data_path.lock t.dp ~ctx:h.txn_op ~addr ~len mode in
    h.txn_locks <- c :: h.txn_locks;
    Ok c
  in
  let merge =
    mode = Ctypes.Write
    || List.exists
         (fun (c : Data_path.lock_ctx) ->
           c.ctx_mode = Ctypes.Write && shares_page c addr ~len)
         h.txn_locks
  in
  match covering_write h addr ~len with
  | Some c -> Ok c
  | None when not merge -> (
    match
      List.find_opt (fun c -> Data_path.ctx_covers c addr ~len) h.txn_locks
    with
    | Some c -> Ok c
    | None -> lock_more Ctypes.Read ~addr ~len)
  | None -> (
    let rec gather lo hi merged keep =
      let len = Gaddr.diff hi lo in
      match List.partition (fun c -> shares_page c lo ~len) keep with
      | [], _ -> (lo, hi, merged, keep)
      | more, keep ->
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (c : Data_path.lock_ctx) ->
              let e = Gaddr.add_int c.ctx_addr c.ctx_len in
              ( (if Gaddr.compare c.ctx_addr lo < 0 then c.ctx_addr else lo),
                if Gaddr.compare e hi > 0 then e else hi ))
            (lo, hi) more
        in
        gather lo hi (more @ merged) keep
    in
    let lo, hi, merged, keep =
      gather addr (Gaddr.add_int addr len) [] h.txn_locks
    in
    h.txn_locks <- keep;
    List.iter (fun c -> Data_path.unlock t.dp.c c) merged;
    let killed e =
      finish t h;
      Error e
    in
    match lock_more Ctypes.Write ~addr:lo ~len:(Gaddr.diff hi lo) with
    | Error e -> if merged <> [] then killed e else Error e
    | Ok c -> (
      match validate_reads t h [ c ] with
      | Error e -> killed e
      | Ok () -> Ok c))

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

let read t h ~addr ~len =
  let* () = live h in
  let* () = serving t.dp.c in
  (* MVCC fast path: a read of a versioned region the transaction has not
     written is served from the transaction's snapshot — no lock, no
     serialization against writers, not recorded for upgrade re-validation
     (the pin, not a lock, is what keeps it stable). Ranges the transaction
     wrote (buffered or under a Write intent) stay on the locking path for
     read-your-writes. *)
  let writes_overlap =
    List.exists
      (fun (c : Data_path.lock_ctx) ->
        c.ctx_live && c.ctx_mode = Ctypes.Write
        && overlap addr ~alen:len c.ctx_addr ~blen:c.ctx_len)
      h.txn_locks
    || List.exists
         (fun (waddr, data) ->
           overlap addr ~alen:len waddr ~blen:(Bytes.length data))
         h.txn_writes
  in
  let mvcc =
    (not writes_overlap)
    &&
    match Locate.locate t.dp.loc h.txn_op addr with
    | Ok region -> versioned_region region
    | Error _ -> false
  in
  if mvcc then begin
    let* snap =
      match h.txn_snap with
      | Some s -> Ok s
      | None ->
        let* s = Snapshots.begin_ t.snaps in
        h.txn_snap <- Some s;
        Ok s
    in
    Snapshots.read t.snaps ~ctx:h.txn_op ~snap ~addr ~len
  end
  else begin
    let* c = lock t h ~addr ~len ~mode:Ctypes.Read in
    let* out = Data_path.read t.dp.c c ~addr ~len in
    h.txn_reads <- (addr, Bytes.copy out) :: h.txn_reads;
    (* Read-your-writes: buffered writes overlay the stored bytes, oldest
       first so later writes win. *)
    List.iter (overlay_write ~addr ~len out) (List.rev h.txn_writes);
    Ok out
  end

let write t h ~addr data =
  let* () = live h in
  let* () = serving t.dp.c in
  let* _ = lock t h ~addr ~len:(Bytes.length data) ~mode:Ctypes.Write in
  h.txn_writes <- (addr, Bytes.copy data) :: h.txn_writes;
  Ok ()

(* Compute the committed page images from the locked stored bytes plus the
   write buffer — without touching the store, so an abort at any later
   point leaves clean state ([Store.read] returns a copy, which staging
   patches). Returns images in first-touch order. *)
let images t h =
  let images : (Region.t * bytes) Gaddr.Table.t = Gaddr.Table.create 8 in
  let order = ref [] in
  let stage (addr, data) =
    let len = Bytes.length data in
    match covering_write h addr ~len with
    | None -> Error (`Conflict "write range lost its lock")
    | Some c ->
      let region = c.ctx_region in
      each_page ~page_size:region.Region.attr.Attr.page_size addr ~len
        (fun page ~off ~pos ~n ->
          let base =
            match Gaddr.Table.find_opt images page with
            | Some (_, b) -> Some b
            | None -> (
              match Store.read t.dp.c.store page with
              | Some b ->
                Gaddr.Table.replace images page (region, b);
                order := page :: !order;
                Some b
              | None -> None)
          in
          match base with
          | None -> Error (`Unavailable "page missing from local store")
          | Some b ->
            Bytes.blit data pos b off n;
            Ok ())
  in
  let rec stage_all = function
    | [] -> Ok ()
    | w :: rest ->
      let* () = stage w in
      stage_all rest
  in
  let* () = stage_all (List.rev h.txn_writes) in
  Ok
    (List.rev_map
       (fun page ->
         let region, img = Gaddr.Table.find images page in
         (page, region, img))
       !order)

let commit t h =
  let c = t.dp.c in
  let txn = t.dp.txn in
  let* () = live h in
  h.txn_live <- false;
  match serving c with
  | Error e ->
    release_locks t h;
    Error e
  | Ok () when h.txn_writes = [] ->
    release_locks t h;
    Ok ()
  | Ok () ->
      let epoch = c.epoch in
      let span = span_of c h.txn_op "daemon.txn_commit" (fun () -> []) in
      let ctx = Op_ctx.with_span h.txn_op span in
      let sp = Op_ctx.span ctx in
      let gtx = Txid.make ~coord:c.id ~epoch:c.epoch ~seq:txn.Txn.next_seq in
      txn.Txn.next_seq <- txn.Txn.next_seq + 1;
      txn.Txn.last <- Some gtx;
      let crashed () =
        release_locks t h;
        finish_status c span "crashed";
        Error (`Unavailable "node crashed")
      in
      let aborted remote why =
        (* Presumed abort: nothing is logged at the coordinator. Tell the
           participants that may have prepared, best-effort — the ones a
           lost message misses will resolve through the status query. *)
        Txid.Table.remove txn.Txn.active gtx;
        if Txid.Table.mem txn.Txn.prepared gtx then
          Txn.decide txn ~span:sp gtx false;
        List.iter
          (fun dst ->
            Ksim.Fiber.spawn c.engine ~name:"txn-abort-notify" (fun () ->
                if alive c epoch then
                  ignore
                    (ask c Op_ctx.background ~policy:Wire.Policy.idempotent
                       ~dst
                       (Wire.Tx_decide { gtx; commit = false; flushed = [] }))))
          remote;
        Metrics.incr c.metrics "txn.abort";
        Txn.event txn ~span:sp gtx "txn.decide" [ ("commit", "false") ];
        release_locks t h;
        finish_status c span "aborted";
        Error (`Conflict why)
      in
      (match images t h with
       | Error e ->
         release_locks t h;
         finish_status c span (error_to_string e);
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
         let remote = List.filter (fun n -> n <> c.id) participants in
         let pages_of n = List.rev (Hashtbl.find by_home n) in
         Txid.Table.replace txn.Txn.active gtx ();
         Txn.event txn ~span:sp gtx "txn.begin"
           [ ("participants",
              String.concat "," (List.map string_of_int participants)) ];
         Txn.step txn "coord.before_prepare";
         if not (alive c epoch) then crashed ()
         else begin
           (* Phase one: the local leg forces its prepare directly; remote
              legs go out in parallel under the aggressive-retry policy. *)
           let local_ok =
             if Hashtbl.mem by_home c.id then
               Txn.prepare txn ~span:sp gtx (pages_of c.id)
             else true
           in
           let votes =
             remote
             |> List.map (fun dst ->
                    ( dst,
                      Ksim.Fiber.async c.engine ~name:"txn-prepare"
                        (fun () ->
                          match
                            ask c ctx ~policy:Wire.Policy.idempotent ~dst
                              (Wire.Tx_prepare { gtx; pages = pages_of dst })
                          with
                          | Ok (Wire.R_tx_vote v) -> v
                          | Ok _ | Error (`Timeout | `Unreachable) -> false) ))
             |> List.map (fun (dst, p) ->
                    let v = Ksim.Fiber.await p in
                    Txn.step txn "coord.prepare_ack";
                    (dst, v))
           in
           if not (alive c epoch) then crashed ()
           else if not (local_ok && List.for_all snd votes) then
             aborted remote
               "transaction aborted: participant unreachable or voted no"
           else begin
             Txn.step txn "coord.all_acked";
             if not (alive c epoch) then crashed ()
             else begin
               (* The commit point: the decision record is forced into the
                  coordinator's own WAL, listing every remote participant
                  with the write-through its decide carries: each of its
                  CREW pages at the version the release below gives it (a
                  CREW write release bumps it by exactly one). Every
                  delivery of the decision carries these versions. *)
               let homed_at dst =
                 List.filter
                   (fun (_, (region : Region.t), _) -> region.home = dst)
                   images
               in
               let owed =
                 List.map
                   (fun dst ->
                     ( dst,
                       List.concat_map
                         (fun (page, region, _) ->
                           Data_path.write_through c ~held:true region
                             [ page ])
                         (homed_at dst) ))
                   remote
               in
               Wal.decide c.wal gtx ~commit:true ~participants:owed;
               Txid.Table.replace txn.Txn.decided gtx true;
               Txid.Table.remove txn.Txn.active gtx;
               if remote <> [] then
                 Txid.Table.replace txn.Txn.decisions gtx owed;
               Metrics.incr c.metrics "txn.commit";
               Txn.event txn ~span:sp gtx "txn.decide" [ ("commit", "true") ];
               Txn.step txn "coord.decision_logged";
               if alive c epoch then begin
                 (* Apply locally. The prepared local leg installs its
                    images; then each buffered write installs, through its
                    held lock context, the committed images it touched (the
                    ones the prepares logged), so the release below
                    propagates them through the consistency machinery
                    exactly like ordinary writes. *)
                 if Txid.Table.mem txn.Txn.prepared gtx then
                   Txn.decide txn ~span:sp gtx true;
                 let image page =
                   let _, _, img =
                     List.find (fun (p, _, _) -> Gaddr.equal p page) images
                   in
                   img
                 in
                 List.iter
                   (fun (addr, data) ->
                     let len = Bytes.length data in
                     match covering_write h addr ~len with
                     | Some lc ->
                       ignore (Data_path.write_images c lc ~addr ~len image)
                     | None -> ())
                   (List.rev h.txn_writes);
                 (* Phase two, one message per remote participant, every
                    lock still held. The decide carries the participant's
                    logged write-through, so the home absorbs the image it
                    logged at prepare exactly as a [Page_flush] would. A
                    failed decide falls back to that flush once the locks
                    are released, and the repair loop re-sends the same
                    message until the participant acks it. *)
                 let failed =
                   List.filter
                     (fun (dst, flushed) ->
                       Txn.step txn "coord.decide_send";
                       alive c epoch
                       &&
                       match
                         ask c ctx ~policy:Wire.Policy.idempotent ~dst
                           (Wire.Tx_decide { gtx; commit = true; flushed })
                       with
                       | Ok Wire.R_unit ->
                         Txn.ack_decide txn gtx dst;
                         false
                       | Ok _ | Error (`Timeout | `Unreachable) -> true)
                     owed
                 in
                 release_locks t h;
                 List.iter
                   (fun (dst, _) ->
                     List.iter
                       (fun (page, region, _) ->
                         ignore
                           (Data_path.flush_through c ~ctx region [ page ]))
                       (homed_at dst))
                   failed
               end;
               finish_status c span "committed";
               (* The decision is durable: the transaction is committed
                  even if this node crashed mid-broadcast — recovery and
                  the resolver finish the delivery. *)
               Ok ()
             end
           end
         end)
