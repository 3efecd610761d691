(* Anti-entropy repair, run by the home-side repair loop: rebuild home
   machines for pages that survived a crash and keep every page's replica
   floor. Also a sharer's side of the questions a repairing home asks. *)

open Daemon_core

(* "Send me your copy of this page, if you still hold a protocol-valid
   one." *)
let serve_pull c page =
  match Gaddr.Table.find_opt c.machines page with
  | Some slot when Machine.packed_has_valid_copy slot.packed -> (
    match Store.read_immediate c.store page with
    | Some data -> Wire.R_page (Some (data, Machine.packed_version slot.packed))
    | None -> Wire.R_page None)
  | Some _ | None -> Wire.R_page None

(* Re-materialise the home machine of an orphan: a page whose data
   survived a crash on the persistent tier, so it goes back into service
   without waiting for a client to touch it (a page whose data is
   genuinely gone is not zero-filled: it still rebuilds lazily on first
   touch, and stays on the list). *)
let rebuild c ~pass_epoch page =
  match orphan_entry c page with
  | Some entry -> (
    match Gaddr.Table.find_opt c.homed entry.Page_directory.region_base with
    | Some region when region.Region.state = Region.Allocated -> (
      (* Our disk image may predate writes that died with our RAM, but a
         protocol-valid copy on a live sharer can never be stale — the
         write-invalidate protocols revoke copies before accepting newer
         data. Pull from the sharers the persistent page directory
         remembers, and only fall back to disk when nobody answers. *)
      let recorded = entry.Page_directory.sharers in
      let sharers = List.filter (fun n -> n <> c.id) recorded in
      let pulled =
        List.fold_left
          (fun best n ->
            if Detector.is_suspect c.fd n then best
            else
              match
                ask c Op_ctx.background ~dst:n (Wire.Page_pull { page })
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
      if alive c pass_epoch && not (Gaddr.Table.mem c.machines page) then begin
        let reincarnate version =
          Metrics.incr c.metrics "repair.rebuild";
          ignore (machine_for c region page);
          feed_existing c ~span:Trace.null page
            (Ctypes.Reincarnate { version; sharers = recorded })
        in
        match (pulled, Store.read_immediate c.store page) with
        | Some (data, ver), _ ->
          Metrics.incr c.metrics "repair.pull";
          Store.write_immediate c.store page data ~dirty:false;
          reincarnate ver
        | None, Some _ -> reincarnate 0
        | None, None -> ()
      end)
    | Some _ | None -> ())
  | None -> ()

(* Enforce the replica floor on one home-side machine: if its live
   (unsuspected) holder count fell below [min_replicas], evict the
   holders that answer "no copy" from the protocol's books and ask the
   machine to re-replicate around the suspects. *)
let maintain c ~pass_epoch ~sus ~min_replicas page slot =
  (* Suspicion is not evidence of data loss: a partitioned holder still
     has its copy and must stay in the books so later writes invalidate
     it. Suspects are merely discounted from the floor; only a confirmed
     "no copy" answer below evicts. *)
  let holders = Machine.packed_holders slot.packed in
  let live = List.filter (fun n -> not (Detector.is_suspect c.fd n)) holders in
  (* A recorded holder may be a phantom: it crashed (losing its RAM copy)
     and recovered before this manager rebuilt its books, so it looks
     alive while holding nothing. Counting it toward the floor would block
     repair forever — verify remote live holders and evict the ones that
     answer "no copy". Unreachable ones are merely discounted: they may
     still hold data that a later invalidation round must revoke. *)
  let live =
    List.filter
      (fun n ->
        n = c.id
        ||
        match ask c Op_ctx.background ~dst:n (Wire.Page_probe { page }) with
        | Ok (Wire.R_held true) -> true
        | Ok _ ->
          (* Fenced above every grant: the probe is as fresh as the books
             it corrects. *)
          if alive c pass_epoch then
            feed_existing c ~span:Trace.null page
              (Ctypes.Peer
                 { src = n; msg = Ctypes.Evict_notify { fence = max_int } });
          false
        | Error _ -> false)
      live
  in
  if List.length live < min_replicas then begin
    Metrics.incr c.metrics "repair.maintain";
    feed_existing c ~span:Trace.null page (Ctypes.Maintain { avoid = sus })
  end

(* One pass of the home-side repair loop. It visits two kinds of page,
   each in address order, and counts them in [repair.scanned]:

   - the orphans (mostly left by a WAL replay), which it rebuilds
     ({!rebuild}); an orphan leaves the list once a machine backs it or
     the directory drops it;
   - the pages with a machine of every allocated homed region whose
     current descriptor asks for [min_replicas > 1], found by one fold of
     the machine table when such a region exists, whose floor it enforces
     ({!maintain}). Machines mid-transaction are skipped — their
     own retry/fail-over logic is already reshaping the copyset, and
     repair would race it.

   A node that has not crashed, with every region at one replica, visits
   nothing. *)
let pass c =
  let pass_epoch = c.epoch in
  let orphans =
    Gaddr.Table.fold (fun page () acc -> page :: acc) c.orphans []
    |> List.sort Gaddr.compare
  in
  List.iter
    (fun page ->
      Metrics.incr c.metrics "repair.scanned";
      rebuild c ~pass_epoch page;
      if Option.is_none (orphan_entry c page) then
        Gaddr.Table.remove c.orphans page)
    orphans;
  let sus = Detector.suspects c.fd in
  let floor (r : Region.t) =
    if r.state = Region.Allocated then r.attr.Attr.min_replicas else 1
  in
  let floored =
    if not (Gaddr.Table.fold (fun _ r any -> any || floor r > 1) c.homed false)
    then []
    else
      Gaddr.Table.fold
        (fun page slot acc ->
          match Gaddr.Table.find_opt c.homed slot.region.Region.base with
          | Some r when floor r > 1 -> (floor r, page, slot) :: acc
          | Some _ | None -> acc)
        c.machines []
      |> List.sort (fun (_, a, _) (_, b, _) -> Gaddr.compare a b)
  in
  List.iter
    (fun (min_replicas, page, slot) ->
      Metrics.incr c.metrics "repair.scanned";
      if not (Machine.packed_busy slot.packed) then
        maintain c ~pass_epoch ~sus ~min_replicas page slot)
    floored
