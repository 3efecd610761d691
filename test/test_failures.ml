(* Failure handling (paper §3.5): acquire-class errors reflected after
   retries; release-class operations retried in the background; minimum
   replica counts raise availability; crash/recovery semantics. *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Attr = Khazana.Attr
module Ctypes = Kconsistency.Types

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "daemon error: %s" (Daemon.error_to_string e)

let bytes_s = Bytes.of_string

(* A 1-cluster, 6-node system so cluster-manager and bootstrap roles stay
   on node 0 and the victims can be 1..5. *)
let mk ?(seed = 42) () = System.create ~seed ~nodes_per_cluster:6 ~clusters:1 ()

let test_unreachable_home_times_out () =
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "data"));
        r)
  in
  System.crash sys 1;
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      match Client.read_bytes c2 ~addr:region.Region.base 4 with
      | Error (`Timeout | `Unavailable _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Daemon.error_to_string e)
      | Ok _ -> Alcotest.fail "read served by a crashed home with no replicas")

let test_min_replicas_survive_home_read_path () =
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:3 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "precious"));
        (* Let replication pushes settle. *)
        Ksim.Fiber.sleep (Ksim.Time.sec 1);
        r)
  in
  (* Count replica sites. *)
  let holders =
    List.filter
      (fun n -> Daemon.holds_page (System.daemon sys n) region.Region.base)
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "3+ replicas exist (%d)" (List.length holders))
    true
    (List.length holders >= 3);
  (* A reader that already has a copy keeps working when others die. *)
  let survivor =
    match List.filter (fun n -> n <> 1 && n <> 0) holders with
    | s :: _ -> s
    | [] -> Alcotest.fail "no replica outside home"
  in
  let cs = System.client sys survivor () in
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes cs ~addr:region.Region.base 8) in
      Alcotest.(check string) "local replica readable" "precious" (Bytes.to_string b))

let test_owner_crash_data_recovered_from_replicas () =
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:2 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "v-one"));
        r)
  in
  (* n2 becomes the owner, then dies. The home (n1) must recover the data
     for a later reader from its backup/replicas. *)
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      ok (Client.write_bytes c2 ~addr:region.Region.base (bytes_s "v-two")));
  System.crash sys 2;
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      match Client.read_bytes c3 ~addr:region.Region.base 5 with
      | Ok b ->
        (* The CREW manager recovers the latest data that passed through
           it: v-two travelled home with the release Update... in CREW the
           write stays with the owner, so the backup may be v-one or
           v-two depending on what reached the home. Either way the page
           stays *available*. *)
        Alcotest.(check bool) "page still available" true
          (Bytes.length b = 5)
      | Error e ->
        Alcotest.failf "page unavailable after owner crash: %s"
          (Daemon.error_to_string e))

let test_partition_blocks_then_heals () =
  let sys = System.create ~seed:42 ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "island"));
        r)
  in
  System.partition sys [ 0; 1; 2 ] [ 3; 4; 5 ];
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      match Client.read_bytes c4 ~addr:region.Region.base 6 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read across a partition");
  System.heal sys;
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c4 ~addr:region.Region.base 6) in
      Alcotest.(check string) "works after heal" "island" (Bytes.to_string b))

let test_release_ops_retry_in_background () =
  (* "Errors encountered while releasing resources are not [reflected].
     Instead, the Khazana system keeps trying the operation in the
     background until it succeeds." *)
  let sys = System.create ~seed:42 ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "x"));
        r)
  in
  (* n4 learns about the region, then gets partitioned from its home. *)
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      ignore (ok (Client.read_bytes c4 ~addr:region.Region.base 1)));
  System.partition sys [ 0; 1; 2 ] [ 3; 4; 5 ];
  (* free from the wrong side of the partition returns immediately. *)
  let t0 = System.now sys in
  System.run_fiber sys (fun () -> Client.free c4 region.Region.base);
  Alcotest.(check bool) "free returned promptly" true
    (System.now sys - t0 < Ksim.Time.ms 100);
  (* While partitioned the home still has storage allocated. *)
  Alcotest.(check bool) "not yet freed" true
    (Daemon.holds_page (System.daemon sys 1) region.Region.base);
  (* Heal: the background retry eventually lands. *)
  System.heal sys;
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  Alcotest.(check bool) "freed after heal" false
    (Daemon.holds_page (System.daemon sys 1) region.Region.base)

let test_crash_rejects_inflight_ops () =
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "zz"));
        r)
  in
  (* n2 starts a read; n1 (home+owner) dies mid-flight. *)
  let c2 = System.client sys 2 () in
  let failed = ref false in
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      match Client.read_bytes c2 ~addr:region.Region.base 2 with
      | Error _ -> failed := true
      | Ok _ -> ());
  ignore
    (Ksim.Engine.schedule (System.engine sys) ~after:(Ksim.Time.us 500)
       (fun () -> System.crash sys 1));
  System.run_until_quiet ~limit:(Ksim.Time.sec 30) sys;
  Alcotest.(check bool) "op reflected an error" true !failed

let test_crash_recover_serves_from_disk () =
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "durable"));
        r)
  in
  (* Force the page out of RAM onto disk so it survives the crash. *)
  let store = Daemon.store (System.daemon sys 1) in
  System.run_fiber sys (fun () ->
      for i = 0 to 300 do
        Kstorage.Page_store.write_immediate store
          (Kutil.Gaddr.of_int (0x7000_0000 + (i * 4096)))
          (Bytes.create 8) ~dirty:false
      done);
  Alcotest.(check bool) "page demoted to disk" true
    (Kstorage.Page_store.where store region.Region.base
     = Some Kstorage.Page_store.Disk);
  System.crash sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  System.recover sys 1;
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c2 ~addr:region.Region.base 7) in
      Alcotest.(check string) "recovered from disk" "durable" (Bytes.to_string b))

let test_home_recover_restores_replica_floor () =
  (* Crash the *home* of a min_replicas:3 region, bring it back, and do
     nothing else: the persistent page directory plus the repair loop must
     re-materialise the home role from disk and push the replica count back
     to the floor — no fresh client write required. *)
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:3 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "evermore"));
        Ksim.Fiber.sleep (Ksim.Time.sec 1);
        r)
  in
  (* Force the page out of RAM so only the disk tier survives the crash. *)
  let store = Daemon.store (System.daemon sys 1) in
  System.run_fiber sys (fun () ->
      for i = 0 to 300 do
        Kstorage.Page_store.write_immediate store
          (Kutil.Gaddr.of_int (0x7000_0000 + (i * 4096)))
          (Bytes.create 8) ~dirty:false
      done);
  System.crash sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 3) sys;
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  let holders =
    List.filter
      (fun n -> Daemon.holds_page (System.daemon sys n) region.Region.base)
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "replica floor restored (%d holders)" (List.length holders))
    true
    (List.length holders >= 3);
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c2 ~addr:region.Region.base 8) in
      Alcotest.(check string) "re-served after recover" "evermore"
        (Bytes.to_string b))

let test_cluster_walk_survives_map_outage () =
  (* §3.1: "If the set of nodes specified in a given region's address map
     entry is stale, the region can still be located using a cluster-walk
     algorithm." Here the whole map goes dark (its bootstrap home crashes)
     and a cold remote node still finds the region by walking the cluster
     managers. *)
  (* Three clusters: the region's home is in cluster 0; cluster 1 caches
     it; the bootstrap (node 0, also cluster 0's manager) then dies, taking
     the address map down. A cold node in cluster 2 must find the region
     via cluster 1's manager. *)
  let sys = System.create ~seed:42 ~nodes_per_cluster:3 ~clusters:3 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "found me"));
        (* A cluster-1 node reads it, so cluster 1's manager (node 3) will
           learn about it from that node's periodic report. *)
        let c4 = System.client sys 4 () in
        ignore (ok (Client.read_bytes c4 ~addr:r.Region.base 8));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  System.crash sys 0;
  let d7 = System.daemon sys 7 in
  Daemon.reset_lookup_stats d7;
  let c7 = System.client sys 7 () in
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c7 ~addr:region.Region.base 8) in
      Alcotest.(check string) "read despite map outage" "found me"
        (Bytes.to_string b));
  let s = Daemon.lookup_stats d7 in
  Alcotest.(check bool) "resolved by cluster walk" true (s.Daemon.cluster_walks >= 1)

let test_lossy_wan_ops_still_complete () =
  (* A lossy WAN: the retry machinery at every layer (CM re-sends, RPC
     timeouts, locate retries, daemon lock retries) must absorb the loss —
     the paper's "repeatedly tried until they succeed" in action. *)
  let sys = System.create ~seed:9 ~nodes_per_cluster:3 ~clusters:2 () in
  Knet.Topology.set_wan
    (System.topology sys)
    { Knet.Topology.wan_default with loss = 0.10 };
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "00"));
        r)
  in
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      for i = 1 to 15 do
        let v = Printf.sprintf "%02d" i in
        ok (Client.write_bytes c4 ~addr:region.Region.base (bytes_s v));
        let b = ok (Client.read_bytes c1 ~addr:region.Region.base 2) in
        Alcotest.(check string)
          (Printf.sprintf "round %d consistent" i)
          v (Bytes.to_string b)
      done);
  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  Alcotest.(check bool) "losses actually happened" true (stats.dropped > 0)

let test_availability_sweep_shape () =
  (* E4's core claim in miniature: with more min_replicas, more regions
     survive the crash of a random subset of nodes. *)
  let survivors_with replicas =
    let sys = mk ~seed:7 () in
    let regions =
      System.run_fiber sys (fun () ->
          List.map
            (fun i ->
              let node = 1 + (i mod 5) in
              let c = System.client sys node () in
              let attr = Attr.make ~owner:node ~min_replicas:replicas () in
              let r = ok (Client.create_region c ~attr 4096) in
              ok (Client.write_bytes c ~addr:r.Region.base (bytes_s "payload!"));
              r)
            (List.init 10 Fun.id))
    in
    System.run_fiber sys (fun () -> Ksim.Fiber.sleep (Ksim.Time.sec 1));
    (* Kill two of the five non-bootstrap nodes. *)
    System.crash sys 2;
    System.crash sys 4;
    let c0 = System.client sys 0 () in
    List.length
      (List.filter
         (fun (r : Region.t) ->
           System.run_fiber sys (fun () ->
               match Client.read_bytes c0 ~addr:r.Region.base 8 with
               | Ok _ -> true
               | Error _ -> false))
         regions)
  in
  let single = survivors_with 1 in
  let triple = survivors_with 3 in
  Alcotest.(check bool)
    (Printf.sprintf "replicas help: %d/10 vs %d/10 readable" single triple)
    true (triple > single);
  Alcotest.(check bool) "replication rescues most regions" true (triple >= 8)

let () =
  Alcotest.run "failures"
    [
      ( "failures",
        [
          Alcotest.test_case "unreachable home" `Quick test_unreachable_home_times_out;
          Alcotest.test_case "min replicas materialise" `Quick
            test_min_replicas_survive_home_read_path;
          Alcotest.test_case "owner crash availability" `Quick
            test_owner_crash_data_recovered_from_replicas;
          Alcotest.test_case "partition + heal" `Quick test_partition_blocks_then_heals;
          Alcotest.test_case "release ops background-retry" `Quick
            test_release_ops_retry_in_background;
          Alcotest.test_case "crash rejects in-flight" `Quick
            test_crash_rejects_inflight_ops;
          Alcotest.test_case "crash/recover from disk" `Quick
            test_crash_recover_serves_from_disk;
          Alcotest.test_case "home recover restores replica floor" `Quick
            test_home_recover_restores_replica_floor;
          Alcotest.test_case "cluster walk survives map outage" `Quick
            test_cluster_walk_survives_map_outage;
          Alcotest.test_case "lossy WAN absorbed" `Quick
            test_lossy_wan_ops_still_complete;
          Alcotest.test_case "availability sweep shape" `Slow
            test_availability_sweep_shape;
        ] );
    ]
