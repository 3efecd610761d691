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
let pass c =
  let pass_epoch = c.epoch in
  let orphans =
    Page_directory.fold
      (fun page entry acc ->
        if entry.Page_directory.homed_here
           && not (Gaddr.Table.mem c.machines page)
        then (page, entry.Page_directory.region_base) :: acc
        else acc)
      c.pdir []
  in
  List.iter
    (fun (page, base) ->
      match Gaddr.Table.find_opt c.homed base with
      | Some region when region.Region.state = Region.Allocated -> (
        (* Our disk image may predate writes that died with our RAM, but a
           protocol-valid copy on a live sharer can never be stale — the
           write-invalidate protocols revoke copies before accepting newer
           data. Pull from the sharers the persistent page directory
           remembers, and only fall back to disk when nobody answers. *)
        let recorded =
          match Page_directory.find c.pdir page with
          | None -> []
          | Some entry -> entry.Page_directory.sharers
        in
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
          let rebuild version =
            Metrics.incr c.metrics "repair.rebuild";
            ignore (machine_for c region page);
            feed_existing c ~span:Trace.null page
              (Ctypes.Reincarnate { version; sharers = recorded })
          in
          match (pulled, Store.read_immediate c.store page) with
          | Some (data, ver), _ ->
            Metrics.incr c.metrics "repair.pull";
            Store.write_immediate c.store page data ~dirty:false;
            rebuild ver
          | None, Some _ -> rebuild 0
          | None, None -> ()
        end)
      | Some _ | None -> ())
    orphans;
  let sus = Detector.suspects c.fd in
  let slots = Gaddr.Table.fold (fun page s acc -> (page, s) :: acc) c.machines [] in
  List.iter
    (fun (page, slot) ->
      let region = slot.region in
      if region.Region.home = c.id
         && region.Region.state = Region.Allocated
         && region.Region.attr.Attr.min_replicas > 1
         && not (Machine.packed_busy slot.packed)
      then begin
        (* Suspicion is not evidence of data loss: a partitioned holder
           still has its copy and must stay in the books so later writes
           invalidate it. Suspects are merely discounted from the floor;
           only a confirmed "no copy" answer below evicts. *)
        let holders = Machine.packed_holders slot.packed in
        let live = List.filter (fun n -> not (Detector.is_suspect c.fd n)) holders in
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
              n = c.id
              ||
              match ask c Op_ctx.background ~dst:n (Wire.Page_probe { page }) with
              | Ok (Wire.R_held true) -> true
              | Ok _ ->
                (* Fenced above every grant: the probe is as fresh as
                   the books it corrects. *)
                if alive c pass_epoch then
                  feed_existing c ~span:Trace.null page
                    (Ctypes.Peer
                       { src = n; msg = Ctypes.Evict_notify { fence = max_int } });
                false
              | Error _ -> false)
            live
        in
        if List.length live < region.Region.attr.Attr.min_replicas then begin
          Metrics.incr c.metrics "repair.maintain";
          feed_existing c ~span:Trace.null page (Ctypes.Maintain { avoid = sus })
        end
      end)
    slots
