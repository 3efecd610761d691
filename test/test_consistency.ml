(* Unit tests for the three consistency-manager machines, driven through
   the network-free harness. *)

module H = Cm_harness
module Ctypes = Kconsistency.Types

let nodes = [ 0; 1; 2; 3 ]
let initial = Bytes.of_string "v0"

let mk ?(protocol = "crew") ?(min_replicas = 1) ?(home = 0) () =
  H.create ~protocol ~home ~min_replicas ~nodes ~initial ()

(* ------------------------------- CREW ------------------------------ *)

let test_crew_home_local_ops () =
  let h = mk () in
  let r = H.acquire_sync h 0 Ctypes.Read in
  Alcotest.(check bool) "granted" true (H.is_granted h r);
  Alcotest.(check string) "still owner" "owned_excl" (H.state h 0);
  H.release h 0 Ctypes.Read ~data:None;
  let w = H.acquire_sync h 0 Ctypes.Write in
  Alcotest.(check bool) "write granted" true (H.is_granted h w);
  H.release h 0 Ctypes.Write ~data:(Some (Bytes.of_string "v1"));
  Alcotest.(check int) "version bumped" 2 (H.version h 0)

let test_crew_remote_read () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  Alcotest.(check string) "n1 shared" "shared" (H.state h 1);
  Alcotest.(check string) "home downgraded" "owned_shared" (H.state h 0);
  Alcotest.(check (option string)) "data travelled" (Some "v0")
    (Option.map Bytes.to_string (H.installed_data h 1))

let test_crew_concurrent_readers () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  ignore (H.acquire_sync h 2 Ctypes.Read);
  ignore (H.acquire_sync h 3 Ctypes.Read);
  Alcotest.(check bool) "all hold copies" true
    (H.has_copy h 1 && H.has_copy h 2 && H.has_copy h 3);
  Alcotest.(check (option string)) "no violation" None
    (H.crew_invariant_violation h)

let test_crew_write_invalidates_readers () =
  let h = mk () in
  let r1 = H.acquire_sync h 1 Ctypes.Read in
  ignore (H.acquire_sync h 2 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  H.release h 2 Ctypes.Read ~data:None;
  ignore r1;
  ignore (H.acquire_sync h 3 Ctypes.Write);
  Alcotest.(check string) "writer exclusive" "owned_excl" (H.state h 3);
  Alcotest.(check bool) "readers invalidated" true
    ((not (H.has_copy h 1)) && not (H.has_copy h 2));
  Alcotest.(check bool) "home copy gone too" true (not (H.has_copy h 0))

let test_crew_write_waits_for_active_readers () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  (* Writer asks while n1 still holds its read lock. *)
  let w = H.acquire h 2 Ctypes.Write in
  H.drain h;
  Alcotest.(check bool) "write delayed" false (H.is_granted h w);
  Alcotest.(check (option string)) "no violation while waiting" None
    (H.crew_invariant_violation h);
  (* Release the reader: the deferred invalidation acks and the write
     proceeds. *)
  H.release h 1 Ctypes.Read ~data:None;
  H.drain h;
  Alcotest.(check bool) "write now granted" true (H.is_granted h w)

let test_crew_reader_waits_for_writer () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  let r = H.acquire h 2 Ctypes.Read in
  H.drain h;
  Alcotest.(check bool) "read delayed" false (H.is_granted h r);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "w1"));
  H.drain h;
  Alcotest.(check bool) "read granted after release" true (H.is_granted h r);
  Alcotest.(check (option string)) "sees the write" (Some "w1")
    (Option.map Bytes.to_string (H.installed_data h 2))

let test_crew_ownership_migrates () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "n1"));
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "n2"));
  Alcotest.(check string) "n2 owns" "owned_excl" (H.state h 2);
  Alcotest.(check string) "n1 lost it" "invalid" (H.state h 1);
  let r = H.acquire_sync h 3 Ctypes.Read in
  ignore r;
  Alcotest.(check (option string)) "reads newest" (Some "n2")
    (Option.map Bytes.to_string (H.installed_data h 3))

let test_crew_local_write_read_cycle () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "x"));
  (* n1 is now owner: subsequent ops stay local (no new wire traffic). *)
  let before = List.length h.H.wire in
  let w = H.acquire h 1 Ctypes.Write in
  Alcotest.(check bool) "local regrant" true (H.is_granted h w);
  Alcotest.(check int) "no messages" before (List.length h.H.wire)

let test_crew_eviction_returns_ownership () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "dirty"));
  (* Local storage victimises n1's page. *)
  H.feed h 1 (Ctypes.Evicted { data = Bytes.of_string "dirty"; dirty = true });
  H.drain h;
  Alcotest.(check string) "n1 invalid" "invalid" (H.state h 1);
  Alcotest.(check bool) "home owns again" true (H.has_copy h 0);
  (* The data must survive the round trip. *)
  ignore (H.acquire_sync h 2 Ctypes.Read);
  Alcotest.(check (option string)) "data preserved" (Some "dirty")
    (Option.map Bytes.to_string (H.installed_data h 2))

let test_crew_shared_eviction_notifies () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  H.feed h 1 (Ctypes.Evicted { data = Bytes.of_string "v0"; dirty = false });
  H.drain h;
  (* A later write needs no invalidation round to n1. *)
  ignore (H.acquire_sync h 2 Ctypes.Write);
  Alcotest.(check string) "write fine" "owned_excl" (H.state h 2)

let test_crew_abort_unblocks () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  (* n2 asks for a read but we abort before serving it. *)
  let r = H.acquire h 2 Ctypes.Read in
  H.feed h 2 (Ctypes.Abort { req = r });
  H.drain h;
  H.release h 1 Ctypes.Write ~data:None;
  H.drain h;
  Alcotest.(check bool) "aborted not granted" false (H.is_granted h r);
  (* A fresh request still works (the abort cleared in-flight state). *)
  let r2 = H.acquire_sync h 2 Ctypes.Read in
  Alcotest.(check bool) "fresh req ok" true (H.is_granted h r2)

let test_crew_min_replicas () =
  let h = mk ~min_replicas:3 () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "r"));
  H.drain h;
  let holders = List.filter (fun n -> H.has_copy h n) nodes in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 holders (got %d)" (List.length holders))
    true
    (List.length holders >= 3)

let test_crew_owner_crash_failover () =
  let h = mk ~min_replicas:2 () in
  (* Give n1 ownership, with a replica maintained somewhere. *)
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "precious"));
  H.drain h;
  (* n1 dies: its messages vanish; the next read must still succeed via
     fail-over (timeout fires, home retries elsewhere). *)
  let r = H.acquire h 2 Ctypes.Read in
  H.drop_node h 1;
  H.drain h;
  if not (H.is_granted h r) then begin
    H.fire_all_timers h;
    H.drop_node h 1;
    H.drain h
  end;
  Alcotest.(check bool) "read survived owner crash" true (H.is_granted h r);
  Alcotest.(check (option string)) "data recovered" (Some "precious")
    (Option.map Bytes.to_string (H.installed_data h 2))

(* The home writing its own page upgrades in place: after the readers'
   invalidation it sends itself an Upgrade_grant. A Fence_bump landing
   while that grant is in flight restarts the transaction. The restart
   must keep the home's copy: surrendering it turned the superseded
   grant's arrival into a decline (an Evict_notify), which the home then
   took for a refusal of the new grant and answered by discarding the
   copy again, under the write lock the new grant had just let through.
   kbench's sim-wan seed 8105 hit this as a transaction commit finding
   its locked page missing from the store. *)
let test_crew_fence_bump_keeps_home_writer_copy () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  let w = H.acquire h 0 Ctypes.Write in
  (* Write_req to self, then Invalidate to n1 and its ack: what is left
     in flight is the home's Upgrade_grant to itself. *)
  let rec until_upgrade_in_flight () =
    match h.H.wire with
    | [ (0, 0, Ctypes.Upgrade_grant _) ] -> ()
    | [] -> Alcotest.fail "no upgrade grant in flight"
    | _ ->
      ignore (H.deliver_one h);
      until_upgrade_in_flight ()
  in
  until_upgrade_in_flight ();
  H.feed h 0 (Ctypes.Peer { src = 2; msg = Ctypes.Fence_bump { floor = 1000 } });
  let check_copy () =
    let _, writer = H.locks h 0 in
    if writer && not (H.has_copy h 0) then
      Alcotest.fail "home holds the write lock without its copy"
  in
  while h.H.wire <> [] do
    ignore (H.deliver_one h);
    check_copy ()
  done;
  Alcotest.(check bool) "write granted" true (H.is_granted h w);
  Alcotest.(check string) "home owns exclusively" "owned_excl" (H.state h 0)

(* An owner defers a Fetch_own behind its write lock, and the home's timer
   re-sends the same fetch meanwhile. When the lock drains the owner must
   serve the transfer once and drop the duplicate: answering it with a
   Fence_bump made the home take the finished transfer for a crashed
   manager's and restart it under a fresh fence, in a fault-free run. *)
let test_crew_deferred_duplicate_fetch () =
  let h = mk () in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  let w = H.acquire h 2 Ctypes.Write in
  H.drain h;
  (* The home's ownership-transfer timer fires while n1 still holds the
     lock: the retry queues behind the first fetch. *)
  H.fire_all_timers h;
  H.drain h;
  Alcotest.(check bool) "n2 waits for the lock" false (H.is_granted h w);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "n1"));
  let sent = List.map (fun (src, _, msg) -> (src, msg)) h.H.wire in
  if
    List.exists
      (function _, Ctypes.Fence_bump _ -> true | _ -> false)
      sent
  then Alcotest.fail "owner answered the duplicate fetch with a Fence_bump";
  H.drain h;
  Alcotest.(check bool) "n2 granted" true (H.is_granted h w);
  Alcotest.(check string) "n2 owns" "owned_excl" (H.state h 2);
  Alcotest.(check (option string)) "with n1's write" (Some "n1")
    (Option.map Bytes.to_string (H.installed_data h 2));
  Alcotest.(check bool) "no transfer left in flight" true (h.H.wire = [])

(* n3 took ownership; then the home crashed and was rebuilt from its disk
   image. Its page directory lists n3 as a sharer only, so the rebuilt home
   believes it owns the page. Serving n1's read from its own copy and
   leaving n3 exclusive let n3's next write be granted locally beside n1's
   read lock. The rebuilt home must revoke every recorded copy first. *)
let test_crew_reincarnated_home_revokes_owner () =
  let h = mk () in
  ignore (H.acquire_sync h 3 Ctypes.Write);
  H.release h 3 Ctypes.Write ~data:(Some (Bytes.of_string "n3"));
  H.restart h 0 (Ctypes.Start_owner initial);
  H.feed h 0 (Ctypes.Reincarnate { version = 0; sharers = [ 3 ] });
  let r = H.acquire h 1 Ctypes.Read in
  H.drain h;
  Alcotest.(check bool) "read granted" true (H.is_granted h r);
  let w = H.acquire h 3 Ctypes.Write in
  H.drain h;
  Alcotest.(check (option string)) "no writer beside the reader" None
    (H.crew_invariant_violation h);
  Alcotest.(check bool) "write waits for the reader" false (H.is_granted h w);
  H.release h 1 Ctypes.Read ~data:None;
  H.drain h;
  Alcotest.(check bool) "then the write" true (H.is_granted h w)

(* ----------------------------- Release ----------------------------- *)

(* n2's Read_grant (v1) is overtaken by the home's Update (v2) fanning out
   n1's write. n2 adopts v2; the late grant must not install its older image
   under the machine's newer version. *)
let test_release_late_grant_keeps_newer_copy () =
  let h = mk ~protocol:"release" () in
  let r = H.acquire h 2 Ctypes.Read in
  let held_back (_, dst, msg) =
    dst = 2 && match msg with Ctypes.Read_grant _ -> true | _ -> false
  in
  let rec deliver_others () =
    match List.find_index (fun m -> not (held_back m)) h.H.wire with
    | Some i ->
      ignore (H.deliver_nth h i);
      deliver_others ()
    | None -> ()
  in
  let w = H.acquire h 1 Ctypes.Write in
  deliver_others ();
  Alcotest.(check bool) "writer granted" true (H.is_granted h w);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "v2"));
  deliver_others ();
  Alcotest.(check bool) "reader granted by the update" true (H.is_granted h r);
  H.drain h;
  Alcotest.(check int) "n2 at the newer version" 2 (H.version h 2);
  Alcotest.(check (option string)) "store keeps the newer image" (Some "v2")
    (Option.map Bytes.to_string (H.installed_data h 2))

let test_release_stale_reads_allowed () =
  let h = mk ~protocol:"release" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  (* A writer updates; before the update propagates, n1 can still read its
     stale copy locally. *)
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "new"));
  (* Do NOT drain: update in flight. *)
  let r = H.acquire h 1 Ctypes.Read in
  Alcotest.(check bool) "stale read grants immediately" true (H.is_granted h r);
  H.release h 1 Ctypes.Read ~data:None;
  H.drain h;
  (* After propagation the new value is visible. *)
  Alcotest.(check (option string)) "update arrived" (Some "new")
    (Option.map Bytes.to_string (H.installed_data h 1))

let test_release_write_token_serialises () =
  let h = mk ~protocol:"release" () in
  let w1 = H.acquire h 1 Ctypes.Write in
  let w2 = H.acquire h 2 Ctypes.Write in
  H.drain h;
  (* Exactly one writer holds the token. *)
  let g1 = H.is_granted h w1 and g2 = H.is_granted h w2 in
  Alcotest.(check bool) "one granted" true (g1 <> g2 || (g1 && not g2));
  Alcotest.(check bool) "not both" false (g1 && g2);
  let winner, laggard, wl = if g1 then (1, 2, w2) else (2, 1, w1) in
  H.release h winner Ctypes.Write ~data:(Some (Bytes.of_string "first"));
  H.drain h;
  Alcotest.(check bool) "second writer proceeds" true (H.is_granted h wl);
  H.release h laggard Ctypes.Write ~data:(Some (Bytes.of_string "second"));
  H.drain h;
  Alcotest.(check (option string)) "last write wins at home" (Some "second")
    (Option.map Bytes.to_string (H.installed_data h 0))

let test_release_update_fanout () =
  let h = mk ~protocol:"release" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Read);
  H.release h 2 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 3 Ctypes.Write);
  H.release h 3 Ctypes.Write ~data:(Some (Bytes.of_string "fan"));
  H.drain h;
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "replica n%d updated" n)
        (Some "fan")
        (Option.map Bytes.to_string (H.installed_data h n)))
    [ 0; 1; 2 ]

let test_release_no_copy_fetches () =
  let h = mk ~protocol:"release" () in
  ignore (H.acquire_sync h 3 Ctypes.Read);
  Alcotest.(check (option string)) "fetched from home" (Some "v0")
    (Option.map Bytes.to_string (H.installed_data h 3))

let test_release_writer_crash_reclaims_token () =
  let h = mk ~protocol:"release" () in
  let w1 = H.acquire h 1 Ctypes.Write in
  H.drain h;
  Alcotest.(check bool) "granted" true (H.is_granted h w1);
  (* n1 dies holding the token. *)
  H.drop_node h 1;
  let w2 = H.acquire h 2 Ctypes.Write in
  H.drain h;
  Alcotest.(check bool) "blocked" false (H.is_granted h w2);
  H.fire_all_timers h;
  H.drain h;
  Alcotest.(check bool) "token reclaimed" true (H.is_granted h w2)

(* ----------------------------- Eventual ---------------------------- *)

let test_eventual_immediate_grants () =
  let h = mk ~protocol:"eventual" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  (* Both nodes may hold write locks simultaneously: optimistic. *)
  let w1 = H.acquire h 1 Ctypes.Write in
  let w2 = H.acquire_sync h 2 Ctypes.Write in
  H.drain h;
  Alcotest.(check bool) "both granted" true (H.is_granted h w1 && H.is_granted h w2)

let test_eventual_convergence_lww () =
  let h = mk ~protocol:"eventual" () in
  (* Everyone gets a copy. *)
  List.iter
    (fun n ->
      ignore (H.acquire_sync h n Ctypes.Read);
      H.release h n Ctypes.Read ~data:None)
    [ 1; 2; 3 ];
  (* Concurrent conflicting writes. *)
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "from1"));
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "from2"));
  H.drain h;
  (* Anti-entropy rounds: fire the fan-out timers until quiet. *)
  for _ = 1 to 4 do
    H.fire_all_timers h;
    H.drain h
  done;
  let versions = List.map (fun n -> H.version h n) nodes in
  let first = List.hd versions in
  Alcotest.(check bool)
    (Format.asprintf "all versions equal (%a)"
       (Format.pp_print_list Format.pp_print_int)
       versions)
    true
    (List.for_all (( = ) first) versions);
  let data =
    List.filter_map (fun n -> Option.map Bytes.to_string (H.installed_data h n)) nodes
  in
  let d0 = List.hd data in
  Alcotest.(check bool) "all data equal" true (List.for_all (( = ) d0) data)

(* --------------------------- write-shared -------------------------- *)

let sync_rounds h =
  for _ = 1 to 6 do
    H.fire_all_timers h;
    H.drain h
  done

let test_wshared_concurrent_disjoint_writers () =
  (* A two-byte page, one byte per writer. *)
  let h =
    H.create ~protocol:"wshared" ~home:0 ~min_replicas:1 ~nodes
      ~initial:(Bytes.of_string "AB") ()
  in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Read);
  H.release h 2 Ctypes.Read ~data:None;
  (* Concurrent write locks on the SAME page: both grant immediately. *)
  let w1 = H.acquire h 1 Ctypes.Write in
  let w2 = H.acquire h 2 Ctypes.Write in
  Alcotest.(check bool) "both writers granted" true
    (H.is_granted h w1 && H.is_granted h w2);
  (* n1 changes byte 0, n2 changes byte 1. *)
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "xB"));
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "Ay"));
  H.drain h;
  sync_rounds h;
  (* Disjoint updates merge: nobody's write is lost. *)
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "n%d merged" n)
        (Some "xy")
        (Option.map Bytes.to_string (H.installed_data h n)))
    [ 0; 1; 2 ]

let test_wshared_diff_only_changed_bytes () =
  let h =
    H.create ~protocol:"wshared" ~home:0 ~min_replicas:1 ~nodes
      ~initial:(Bytes.make 4096 'a') ()
  in
  ignore (H.acquire_sync h 1 Ctypes.Write);
  let page = Bytes.make 4096 'a' in
  Bytes.blit_string "tiny" 0 page 100 4;
  H.release h 1 Ctypes.Write ~data:(Some page);
  (* The wire carries a Diff whose encoding is ~the 4 changed bytes, not
     the whole page. *)
  let encoded_size msg =
    let enc = Kutil.Codec.encoder () in
    Ctypes.encode_msg enc msg;
    Kutil.Codec.length enc
  in
  let diff_size =
    List.fold_left
      (fun acc (_, _, msg) ->
        match msg with Ctypes.Diff _ -> acc + encoded_size msg | _ -> acc)
      0 h.H.wire
  in
  Alcotest.(check bool)
    (Printf.sprintf "diff is small (%d bytes)" diff_size)
    true
    (diff_size > 0 && diff_size < 256);
  H.drain h;
  Alcotest.(check (option string)) "home merged the tiny change" (Some "tiny")
    (Option.map
       (fun b -> Bytes.sub_string b 100 4)
       (H.installed_data h 0))

let test_wshared_no_invalidation () =
  let h = mk ~protocol:"wshared" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "zz"));
  H.drain h;
  (* n1's replica stays valid (updated in place, never invalidated). *)
  Alcotest.(check bool) "replica still valid" true (H.has_copy h 1);
  Alcotest.(check (option string)) "and fresh" (Some "zz")
    (Option.map Bytes.to_string (H.installed_data h 1))

let test_wshared_full_sync_heals_lost_patch () =
  let h = mk ~protocol:"wshared" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "v1"));
  (* A lossy link to n1: every message toward it vanishes while the rest
     of the system makes progress. *)
  while h.H.wire <> [] do
    h.H.wire <- List.filter (fun (_, dst, _) -> dst <> 1) h.H.wire;
    if h.H.wire <> [] then ignore (H.deliver_one h)
  done;
  Alcotest.(check bool) "n1 behind" true
    (Option.map Bytes.to_string (H.installed_data h 1) <> Some "v1");
  (* The home's periodic full sync heals it. *)
  sync_rounds h;
  Alcotest.(check (option string)) "healed by full sync" (Some "v1")
    (Option.map Bytes.to_string (H.installed_data h 1))

let test_eventual_staleness_observable () =
  let h = mk ~protocol:"eventual" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "new"));
  (* Before anti-entropy, n1 is behind. *)
  Alcotest.(check bool) "n1 stale" true (H.version h 1 < H.version h 2)

(* ----------------------------- Versioned --------------------------- *)

module V = Kconsistency.Versioned
module Machine = Kconsistency.Machine_intf

(* Drain the wire one message at a time, returning every message that
   transited — lets tests assert over the traffic, not just final state. *)
let drain_collect h =
  let seen = ref [] in
  while h.H.wire <> [] do
    (match h.H.wire with
    | (_, _, msg) :: _ -> seen := msg :: !seen
    | [] -> ());
    ignore (H.deliver_one h)
  done;
  List.rev !seen

let is_ownership_msg = function
  | Ctypes.Own_grant _ | Ctypes.Fetch_own _ | Ctypes.Own_return _
  | Ctypes.Invalidate _ | Ctypes.Invalidate_ack _ | Ctypes.Upgrade_grant _ ->
    true
  | _ -> false

let test_versioned_immediate_grants () =
  let h = mk ~protocol:"versioned" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  (* Concurrent writers both hold write locks: no exclusivity. *)
  let w1 = H.acquire h 1 Ctypes.Write in
  let w2 = H.acquire_sync h 2 Ctypes.Write in
  H.drain h;
  Alcotest.(check bool) "both granted" true
    (H.is_granted h w1 && H.is_granted h w2)

let test_versioned_fetch_on_miss () =
  let h = mk ~protocol:"versioned" () in
  ignore (H.acquire_sync h 3 Ctypes.Read);
  Alcotest.(check (option string)) "fetched from home" (Some "v0")
    (Option.map Bytes.to_string (H.installed_data h 3))

let test_versioned_lww_convergence () =
  let h = mk ~protocol:"versioned" () in
  List.iter
    (fun n ->
      ignore (H.acquire_sync h n Ctypes.Read);
      H.release h n Ctypes.Read ~data:None)
    [ 1; 2; 3 ];
  ignore (H.acquire_sync h 1 Ctypes.Write);
  H.release h 1 Ctypes.Write ~data:(Some (Bytes.of_string "from1"));
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "from2"));
  H.drain h;
  for _ = 1 to 4 do
    H.fire_all_timers h;
    H.drain h
  done;
  let versions = List.map (fun n -> H.version h n) nodes in
  let first = List.hd versions in
  Alcotest.(check bool)
    (Format.asprintf "all versions equal (%a)"
       (Format.pp_print_list Format.pp_print_int)
       versions)
    true
    (List.for_all (( = ) first) versions);
  let data =
    List.filter_map
      (fun n -> Option.map Bytes.to_string (H.installed_data h n))
      nodes
  in
  Alcotest.(check int) "everyone holds data" 4 (List.length data);
  let d0 = List.hd data in
  Alcotest.(check bool) "all data equal" true (List.for_all (( = ) d0) data)

let test_versioned_no_ping_pong () =
  (* Two writers hammer the same page through several rounds: the protocol
     must never move ownership (the whole point — CREW collapses here). *)
  let h = mk ~protocol:"versioned" () in
  List.iter
    (fun n ->
      ignore (H.acquire_sync h n Ctypes.Read);
      H.release h n Ctypes.Read ~data:None)
    [ 1; 2 ];
  ignore (drain_collect h);
  let traffic = ref [] in
  for round = 1 to 5 do
    let w1 = H.acquire h 1 Ctypes.Write in
    let w2 = H.acquire h 2 Ctypes.Write in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: both grant locally" round)
      true
      (H.is_granted h w1 && H.is_granted h w2);
    H.release h 1 Ctypes.Write
      ~data:(Some (Bytes.of_string (Printf.sprintf "a%d" round)));
    H.release h 2 Ctypes.Write
      ~data:(Some (Bytes.of_string (Printf.sprintf "b%d" round)));
    traffic := !traffic @ drain_collect h;
    H.fire_all_timers h;
    traffic := !traffic @ drain_collect h
  done;
  Alcotest.(check int) "zero ownership transfers" 0
    (List.length (List.filter is_ownership_msg !traffic))

let test_versioned_readers_never_invalidated () =
  let h = mk ~protocol:"versioned" () in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  ignore (H.acquire_sync h 2 Ctypes.Write);
  H.release h 2 Ctypes.Write ~data:(Some (Bytes.of_string "zz"));
  let traffic = drain_collect h in
  Alcotest.(check bool) "replica still valid" true (H.has_copy h 1);
  Alcotest.(check int) "no invalidations" 0
    (List.length
       (List.filter
          (function Ctypes.Invalidate _ -> true | _ -> false)
          traffic))

let test_versioned_snapshot_isolation () =
  (* A reader pinned at version v is untouched by the publish of v+1. *)
  let h = mk ~protocol:"versioned" () in
  let home = H.machine h 0 in
  Alcotest.(check (option string)) "v1 retained" (Some "v0")
    (Option.map (fun (b, _) -> Bytes.to_string b)
       (Machine.packed_read_at home (Some 1)));
  let r, actions =
    Machine.packed_publish home ~src:1 ~parent:1 ~expected:None
      ~payload:(Ctypes.Whole (Bytes.of_string "n2"))
  in
  H.apply h 0 actions;
  (match r with
  | Ctypes.Published v -> Alcotest.(check int) "minted v2" 2 v
  | _ -> Alcotest.fail "publish refused");
  (* The pinned read still serves the old immutable image... *)
  Alcotest.(check (option string)) "pin at 1 unchanged" (Some "v0")
    (Option.map (fun (b, _) -> Bytes.to_string b)
       (Machine.packed_read_at home (Some 1)));
  (* ...while an unpinned read sees the latest. *)
  Alcotest.(check (option string)) "latest is v2" (Some "n2")
    (Option.map (fun (b, _) -> Bytes.to_string b)
       (Machine.packed_read_at home None))

let test_versioned_diff_whole_equivalence () =
  (* Publishing runs against the parent must produce the exact same
     image as publishing the whole modified page. *)
  let cfg = Ctypes.default_config ~self:0 ~home:0 in
  let base () = Bytes.make 64 'a' in
  let whole = V.create cfg (Ctypes.Start_owner (base ())) in
  let runs = V.create cfg (Ctypes.Start_owner (base ())) in
  let img = base () in
  Bytes.blit_string "XY" 0 img 10 2;
  Bytes.blit_string "Z" 0 img 50 1;
  let r1, _ =
    V.publish whole ~src:0 ~parent:1 ~expected:None
      ~payload:(Ctypes.Whole img)
  in
  let r2, _ =
    V.publish runs ~src:0 ~parent:1 ~expected:None
      ~payload:
        (Ctypes.Runs [ (10, Bytes.of_string "XY"); (50, Bytes.of_string "Z") ])
  in
  (match (r1, r2) with
  | Ctypes.Published 2, Ctypes.Published 2 -> ()
  | _ -> Alcotest.fail "both publishes should mint version 2");
  let image m =
    match V.read_at m None with
    | Some (b, _) -> Bytes.to_string b
    | None -> Alcotest.fail "no image"
  in
  Alcotest.(check string) "byte-identical" (image whole) (image runs);
  (* A diff against a version the home no longer knows is refused, not
     misapplied. *)
  let r3, _ =
    V.publish runs ~src:0 ~parent:99 ~expected:None
      ~payload:(Ctypes.Runs [ (0, Bytes.of_string "q") ])
  in
  match r3 with
  | Ctypes.Parent_gone { latest } -> Alcotest.(check int) "latest" 2 latest
  | _ -> Alcotest.fail "expected Parent_gone"

let test_versioned_cas () =
  let cfg = Ctypes.default_config ~self:0 ~home:0 in
  let m = V.create cfg (Ctypes.Start_owner (Bytes.of_string "v0")) in
  let r1, _ =
    V.publish m ~src:0 ~parent:1 ~expected:(Some 1)
      ~payload:(Ctypes.Whole (Bytes.of_string "v1"))
  in
  (match r1 with
  | Ctypes.Published 2 -> ()
  | _ -> Alcotest.fail "CAS at current version should publish");
  let r2, _ =
    V.publish m ~src:0 ~parent:1 ~expected:(Some 1)
      ~payload:(Ctypes.Whole (Bytes.of_string "lost race"))
  in
  (match r2 with
  | Ctypes.Cas_mismatch { latest } -> Alcotest.(check int) "latest" 2 latest
  | _ -> Alcotest.fail "stale CAS should be refused");
  Alcotest.(check (option string)) "refused bytes never installed"
    (Some "v1")
    (Option.map (fun (b, _) -> Bytes.to_string b) (V.read_at m None))

let test_versioned_chain_gc () =
  (* The home retains a bounded chain: publishes past the depth advance
     the watermark and expire the oldest pins. *)
  let cfg =
    { (Ctypes.default_config ~self:0 ~home:0) with Ctypes.version_chain_depth = 3 }
  in
  let m = V.create cfg (Ctypes.Start_owner (Bytes.of_string "g1")) in
  for i = 2 to 6 do
    match
      V.publish m ~src:0 ~parent:(i - 1) ~expected:None
        ~payload:(Ctypes.Whole (Bytes.of_string (Printf.sprintf "g%d" i)))
    with
    | Ctypes.Published v, _ -> Alcotest.(check int) "monotonic mint" i v
    | _ -> Alcotest.fail "publish refused"
  done;
  Alcotest.(check int) "chain bounded" 3 (V.chain_depth m);
  Alcotest.(check int) "watermark advanced" 4 (V.watermark m);
  Alcotest.(check (option string)) "old pin expired" None
    (Option.map (fun (b, _) -> Bytes.to_string b) (V.read_at m (Some 2)));
  Alcotest.(check (option string)) "watermark version readable" (Some "g4")
    (Option.map (fun (b, _) -> Bytes.to_string b) (V.read_at m (Some 4)));
  Alcotest.(check (option string)) "latest readable" (Some "g6")
    (Option.map (fun (b, _) -> Bytes.to_string b) (V.read_at m None))

(* ---------------- Batched vs per-page delivery equivalence ---------- *)

(* RPC coalescing changes only envelope boundaries: a sharer that used to
   receive N per-page invalidations as N unicasts now gets them in one
   batch, i.e. back to back with nothing interleaved. The machines must
   reach the same final states either way. This drives a three-page CREW
   conversation (read fan-out, then a home write that invalidates every
   sharer on every page) under both delivery orders and compares the full
   observable state. *)
let multi_page_fingerprint ~batched =
  let pages =
    List.init 3 (fun i ->
        H.create ~protocol:"crew" ~home:0 ~min_replicas:1 ~nodes
          ~initial:(Bytes.make 4 (Char.chr (Char.code 'a' + i)))
          ())
  in
  (* Two remote sharers cache every page. *)
  List.iter (fun h -> ignore (H.acquire h 1 Ctypes.Read)) pages;
  List.iter (fun h -> ignore (H.acquire h 2 Ctypes.Read)) pages;
  H.multi_drain ~batched pages;
  List.iter (fun h -> H.release h 1 Ctypes.Read ~data:None) pages;
  List.iter (fun h -> H.release h 2 Ctypes.Read ~data:None) pages;
  H.multi_drain ~batched pages;
  (* The home write-acquires every page: a multi-page invalidation
     fan-out toward both sharers. *)
  let reqs = List.map (fun h -> H.acquire h 0 Ctypes.Write) pages in
  H.multi_drain ~batched pages;
  List.iteri
    (fun i (h, req) ->
      if not (H.is_granted h req) then
        Alcotest.failf "page %d write not granted (batched=%b)" i batched)
    (List.combine pages reqs);
  List.iter
    (fun h ->
      match H.crew_invariant_violation h with
      | Some v -> Alcotest.failf "CREW violation (batched=%b): %s" batched v
      | None -> ())
    pages;
  List.concat_map
    (fun h ->
      List.map
        (fun n ->
          ( H.state h n,
            H.locks h n,
            H.has_copy h n,
            H.version h n,
            Option.map Bytes.to_string (H.installed_data h n) ))
        nodes)
    pages

let test_batched_invalidate_equivalence () =
  let per_page = multi_page_fingerprint ~batched:false in
  let batched = multi_page_fingerprint ~batched:true in
  Alcotest.(check int) "same observation count" (List.length per_page)
    (List.length batched);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "state diverged at observation %d under batching" i)
    (List.combine per_page batched)

(* Runs arrive off the wire. One that does not fit inside the page (an
   overhang, a negative offset, an offset past the end) is skipped whole:
   the page stays as it was and nothing raises. *)
let bad_runs =
  [ (6, Bytes.of_string "xyz"); (-1, Bytes.of_string "q");
    (100, Bytes.of_string "r") ]

let test_out_of_range_runs_skipped () =
  let page = "abcdefgh" in
  let h =
    H.create ~protocol:"wshared" ~home:0 ~min_replicas:1 ~nodes
      ~initial:(Bytes.of_string page) ()
  in
  ignore (H.acquire_sync h 1 Ctypes.Read);
  H.release h 1 Ctypes.Read ~data:None;
  H.feed h 0
    (Ctypes.Peer { src = 2; msg = Ctypes.Diff { patches = bad_runs; version = 5 } });
  H.drain h;
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "n%d page unchanged by the diff" n)
        (Some page)
        (Option.map Bytes.to_string (H.installed_data h n)))
    [ 0; 1 ];
  let m =
    V.create (Ctypes.default_config ~self:0 ~home:0)
      (Ctypes.Start_owner (Bytes.of_string page))
  in
  (match V.publish m ~src:0 ~parent:1 ~expected:None ~payload:(Ctypes.Runs bad_runs) with
   | Ctypes.Published 2, _ -> ()
   | _ -> Alcotest.fail "publish of runs refused");
  Alcotest.(check (option string)) "published page unchanged" (Some page)
    (Option.map (fun (b, _) -> Bytes.to_string b) (V.read_at m None))

(* The one page compare: laying the runs of [diff ~old ~new_] over [old]
   gives back [new_], and equal pages differ nowhere. Pages are drawn as
   an image plus a few byte edits, so runs start, end and touch the page
   edges in every combination. *)
let prop_diff_round_trip =
  let gen =
    QCheck.Gen.(
      int_range 0 96 >>= fun n ->
      pair (string_size (return n) ~gen:(char_range 'a' 'c'))
        (list_size (int_range 0 12)
           (pair (int_range 0 (max 0 (n - 1))) (char_range 'a' 'd'))))
  in
  QCheck.Test.make ~name:"apply_runs old (diff old new) = new" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair string (list (pair int char)))
       gen)
    (fun (page, edits) ->
      let old = Bytes.of_string page in
      let new_ = Bytes.copy old in
      if Bytes.length new_ > 0 then
        List.iter (fun (i, c) -> Bytes.set new_ i c) edits;
      Bytes.equal (Ctypes.apply_runs old (Ctypes.diff ~old ~new_)) new_
      && Ctypes.diff ~old ~new_:(Bytes.copy old) = [])

(* A cache's whole-image write reaches the home while a home-local writer
   holds the page. The mint waits for that writer's release, and when the
   writer drops its lock without writing, the install it gets then must
   still be dirty: that is what puts the minted version in the intent
   log. *)
let test_versioned_deferred_mint_logged () =
  let m =
    V.create (Ctypes.default_config ~self:0 ~home:0)
      (Ctypes.Start_owner (Bytes.of_string "v0"))
  in
  let installs actions =
    List.filter_map
      (function
        | Ctypes.Install { data; dirty } -> Some (Bytes.to_string data, dirty)
        | _ -> None)
      actions
  in
  ignore (V.handle m (Ctypes.Acquire { req = 1; mode = Ctypes.Write }));
  let during =
    V.handle m
      (Ctypes.Peer
         { src = 2;
           msg = Ctypes.Update { data = Bytes.of_string "v2"; version = 1 } })
  in
  Alcotest.(check (list (pair string bool))) "no install under the lock" []
    (installs during);
  Alcotest.(check int) "minted" 2 (V.version m);
  let after = V.handle m (Ctypes.Release { mode = Ctypes.Write; data = None }) in
  Alcotest.(check (list (pair string bool))) "dirty install at release"
    [ ("v2", true) ] (installs after)

let () =
  Alcotest.run "kconsistency"
    [
      ( "crew",
        [
          Alcotest.test_case "home local ops" `Quick test_crew_home_local_ops;
          Alcotest.test_case "remote read" `Quick test_crew_remote_read;
          Alcotest.test_case "concurrent readers" `Quick test_crew_concurrent_readers;
          Alcotest.test_case "write invalidates" `Quick
            test_crew_write_invalidates_readers;
          Alcotest.test_case "write waits for readers" `Quick
            test_crew_write_waits_for_active_readers;
          Alcotest.test_case "reader waits for writer" `Quick
            test_crew_reader_waits_for_writer;
          Alcotest.test_case "ownership migrates" `Quick test_crew_ownership_migrates;
          Alcotest.test_case "local re-grant" `Quick test_crew_local_write_read_cycle;
          Alcotest.test_case "eviction returns ownership" `Quick
            test_crew_eviction_returns_ownership;
          Alcotest.test_case "shared eviction" `Quick test_crew_shared_eviction_notifies;
          Alcotest.test_case "abort" `Quick test_crew_abort_unblocks;
          Alcotest.test_case "batched invalidate equivalence" `Quick
            test_batched_invalidate_equivalence;
          Alcotest.test_case "min replicas" `Quick test_crew_min_replicas;
          Alcotest.test_case "owner crash fail-over" `Quick
            test_crew_owner_crash_failover;
          Alcotest.test_case "fence bump keeps the home writer's copy" `Quick
            test_crew_fence_bump_keeps_home_writer_copy;
          Alcotest.test_case "reincarnated home revokes the owner" `Quick
            test_crew_reincarnated_home_revokes_owner;
          Alcotest.test_case "deferred duplicate fetch served once" `Quick
            test_crew_deferred_duplicate_fetch;
        ] );
      ( "release",
        [
          Alcotest.test_case "stale reads allowed" `Quick
            test_release_stale_reads_allowed;
          Alcotest.test_case "write token serialises" `Quick
            test_release_write_token_serialises;
          Alcotest.test_case "update fan-out" `Quick test_release_update_fanout;
          Alcotest.test_case "fetch on miss" `Quick test_release_no_copy_fetches;
          Alcotest.test_case "writer crash reclaim" `Quick
            test_release_writer_crash_reclaims_token;
          Alcotest.test_case "late grant keeps the newer copy" `Quick
            test_release_late_grant_keeps_newer_copy;
        ] );
      ( "eventual",
        [
          Alcotest.test_case "immediate grants" `Quick test_eventual_immediate_grants;
          Alcotest.test_case "LWW convergence" `Quick test_eventual_convergence_lww;
          Alcotest.test_case "staleness observable" `Quick
            test_eventual_staleness_observable;
        ] );
      ( "versioned",
        [
          Alcotest.test_case "immediate grants" `Quick
            test_versioned_immediate_grants;
          Alcotest.test_case "fetch on miss" `Quick test_versioned_fetch_on_miss;
          Alcotest.test_case "LWW convergence" `Quick
            test_versioned_lww_convergence;
          Alcotest.test_case "no ownership ping-pong" `Quick
            test_versioned_no_ping_pong;
          Alcotest.test_case "readers never invalidated" `Quick
            test_versioned_readers_never_invalidated;
          Alcotest.test_case "snapshot isolation" `Quick
            test_versioned_snapshot_isolation;
          Alcotest.test_case "diff == whole image" `Quick
            test_versioned_diff_whole_equivalence;
          Alcotest.test_case "CAS" `Quick test_versioned_cas;
          Alcotest.test_case "chain GC" `Quick test_versioned_chain_gc;
          Alcotest.test_case "deferred mint is logged" `Quick
            test_versioned_deferred_mint_logged;
        ] );
      ( "write-shared",
        [
          Alcotest.test_case "disjoint writers merge" `Quick
            test_wshared_concurrent_disjoint_writers;
          Alcotest.test_case "diffs carry only changes" `Quick
            test_wshared_diff_only_changed_bytes;
          Alcotest.test_case "no invalidation" `Quick test_wshared_no_invalidation;
          Alcotest.test_case "full sync heals loss" `Quick
            test_wshared_full_sync_heals_lost_patch;
          Alcotest.test_case "out-of-range runs skipped" `Quick
            test_out_of_range_runs_skipped;
        ] );
      ("diff", [ QCheck_alcotest.to_alcotest prop_diff_round_trip ]);
    ]
