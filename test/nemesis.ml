(* Nemesis: a deterministic chaos harness.

   Seeded schedules of crashes, recoveries, partitions, disk faults and
   frame-level drop/duplicate/delay are interleaved with client workloads,
   then each run is checked against the system's robustness invariants:

   - no settled acknowledged write is ever lost: once a write is acked and
     replication has quiesced, every later settled read returns that
     value or a newer attempted one;
   - every successful read returns a value some client actually wrote
     (no zero pages, no interleaved garbage);
   - after the final heal the replica floor ([min_replicas]) of every
     region is restored within bounded simulated time by the repair loop;
   - a transaction is all or nothing, and nobody stays in doubt once the
     system heals;
   - the system quiesces: settles return and a final fault-free round of
     reads succeeds;
   - network accounting stays conserved (sent = delivered + dropped +
     in-flight) across every fault;
   - the whole run is reproducible: same seed, same final reads, same
     simulated clock, same history length.

   Every run also records an operation history (Kcheck.History) through
   the client layer and hands it to the consistency checkers: per-address
   linearizability (Wing–Gong), strict serializability of the transaction
   set (observed-version conflict graph), and for versioned regions the
   MVCC checks. In the combined schedule the checker verdict *is* the
   invariant.

   Each seeded sweep is one row of [legs]: a protocol mix, a fault
   schedule and a workload, run by the one scaffold [run_leg]. Everything
   (fault times, victims, partitions, workload targets) flows from the
   seed, so a failing seed replays exactly, and every row has a
   determinism case that checks it. Each row's seeds come from its
   NEMESIS_*_SEEDS variable (comma-separated) or its defaults; a failing
   sweep case prints the exact environment + command line that replays
   it. *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Attr = Khazana.Attr
module Disk_fault = Kstorage.Disk_fault
module Store = Kstorage.Page_store
module Gaddr = Kutil.Gaddr
module Ctypes = Kconsistency.Types
module History = Kcheck.History
module Check = Kcheck.Check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "daemon error: %s" (Daemon.error_to_string e)

let bytes_s = Bytes.of_string

(* ---------------------- History instrumentation ---------------------- *)

(* One recorder per client, all funnelled into one in-memory ring, stamped
   with the simulated clock. Every read_bytes / write_bytes / txn the
   workload issues from here on is part of the recorded history. *)
let instrument sys clients =
  let ring = History.Ring.create () in
  Array.iteri
    (fun n c ->
      Client.set_history c
        (Some
           (History.recorder
              ~now:(fun () -> System.now sys)
              ~proc:n
              (History.Ring.sink ring))))
    clients;
  ring

(* Regions in these schedules are zero-filled at creation and carry 8-byte
   stamped values, so an 8-byte read that races the first write may
   legitimately observe zeroes. *)
let zero_init _ = String.make 8 '\000'

(* Run the checkers over the recorded history ([mvcc] marks versioned
   addresses); on failure the summary already contains the minimized
   counterexample. *)
let assert_history_ok ?mvcc ~what ring =
  let events = History.assemble (History.Ring.entries ring) in
  let report = Check.analyze ~init:zero_init ?mvcc events in
  if not (Check.passed report) then
    Alcotest.failf "%s: %s" what (Check.summary report);
  events

(* A sweep failure must be reproducible from the terminal without reading
   harness code: print the env var + command line that replays exactly
   this seed of exactly this schedule, then re-raise. The group filter is
   anchored because Alcotest matches it as a regex anywhere in a group
   name ("sweep" would also run every other sweep group). *)
let with_repro ~group ~env ~seed f () =
  try f ()
  with e ->
    Printf.eprintf
      "\nnemesis: schedule %S seed %d FAILED — repro:\n  %s=%d dune exec \
       test/nemesis.exe -- test '^%s$'\n\n%!"
      group seed env seed group;
    raise e

(* Post-heal reads retried across a few suspicion/repair cycles: the value
   must settle, and mixed states must never be observable. The one shared
   settle-read helper — every schedule's validation reads go through it,
   so instrumented clients record them as part of the history. *)
let read_settled ?(len = 5) ?(retries = 8) sys c ~addr =
  let rec go k =
    let r =
      System.run_fiber ~name:"settled-read" sys (fun () ->
          Client.read_bytes c ~addr len)
    in
    match r with
    | Ok b -> Bytes.to_string b
    | Error _ when k > 0 ->
      System.run_until_quiet ~limit:(Ksim.Time.sec 3) sys;
      go (k - 1)
    | Error e ->
      Alcotest.failf "region unreadable after heal: %s"
        (Daemon.error_to_string e)
  in
  go retries

let node_count = 6

(* Disk-fault runs shrink RAM so the workload actually reaches the disk
   tier (demotions, promotions, injected crash points inside disk I/O) and
   checkpoint the WAL often enough to exercise truncation mid-run. *)
let mk ?(small_ram = false) ~seed () =
  let config =
    if small_ram then
      Some
        {
          Daemon.default_config with
          Daemon.ram_pages = 8;
          disk_pages = 128;
          wal_checkpoint_every = 64;
        }
    else None
  in
  System.create ?config ~seed ~nodes_per_cluster:node_count ~clusters:1 ()

(* ----------------------- Directed scenarios -------------------------- *)

(* The headline repair guarantee, in isolation: crash a replica holder and
   watch the region climb back to its floor without any client activity. *)
let test_floor_restored_after_holder_crash () =
  let sys = mk ~seed:11 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:3 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "precious")) ;
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let holders () =
    List.filter
      (fun n -> Daemon.holds_page (System.daemon sys n) region.Region.base)
      (List.init node_count Fun.id)
  in
  let victim =
    match List.filter (fun n -> n <> 0 && n <> 1) (holders ()) with
    | v :: _ -> v
    | [] -> Alcotest.fail "no replica outside home and manager"
  in
  Alcotest.(check bool) "floor met before crash" true
    (List.length (holders ()) >= 3);
  System.crash sys victim;
  (* Bounded: suspicion (1.5 s) + a few repair passes (500 ms each). *)
  let t0 = System.now sys in
  let cap = Ksim.Time.sec 15 in
  while List.length (holders ()) < 3 && System.now sys - t0 < cap do
    System.run_until_quiet ~limit:(Ksim.Time.ms 500) sys
  done;
  Alcotest.(check bool)
    (Printf.sprintf "floor restored in %dms (holders: %d)"
       ((System.now sys - t0) / 1_000_000)
       (List.length (holders ())))
    true
    (List.length (holders ()) >= 3);
  (* And the repair targets got real data, not zero pages. *)
  let reader =
    match List.filter (fun n -> n <> 1 && n <> victim) (holders ()) with
    | n :: _ -> n
    | [] -> Alcotest.fail "no surviving replica"
  in
  let cr = System.client sys reader () in
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes cr ~addr:region.Region.base 8) in
      Alcotest.(check string) "repaired replica has the data" "precious"
        (Bytes.to_string b))

(* CREW's single-writer guarantee under concurrency: two racing writers,
   the final value is exactly one of theirs. *)
let test_concurrent_writers_single_winner () =
  let sys = mk ~seed:5 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:2 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "original"));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
  let c2 = System.client sys 2 () in
  let c3 = System.client sys 3 () in
  let acked = ref [] in
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      match Client.write_bytes c2 ~addr:region.Region.base (bytes_s "AAAAAAAA") with
      | Ok () -> acked := "AAAAAAAA" :: !acked
      | Error _ -> ());
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      match Client.write_bytes c3 ~addr:region.Region.base (bytes_s "BBBBBBBB") with
      | Ok () -> acked := "BBBBBBBB" :: !acked
      | Error _ -> ());
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  Alcotest.(check bool) "both writers eventually acked" true
    (List.length !acked = 2);
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      let b = Bytes.to_string (ok (Client.read_bytes c4 ~addr:region.Region.base 8)) in
      Alcotest.(check bool)
        (Printf.sprintf "final value is one writer's (%S)" b)
        true
        (b = "AAAAAAAA" || b = "BBBBBBBB"))

(* An acked write whose disk image is destroyed by the crash (rolled back
   and torn) must come back from the intent log alone: min_replicas = 1, so
   no peer holds a copy to repair from. *)
let test_torn_write_recovered_from_wal () =
  let sys = mk ~seed:23 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:1 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "original"));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  System.set_disk_faults sys 1
    {
      Disk_fault.lost_write_prob = 1.0;
      torn_write_prob = 1.0;
      crash_during_io_prob = 0.0;
    };
  System.run_fiber sys (fun () ->
      ok (Client.write_bytes c1 ~addr:region.Region.base (bytes_s "walsaved")));
  System.crash sys 1;
  let d1 = System.daemon sys 1 in
  Alcotest.(check bool) "crash left a torn image behind" true
    ((Store.stats (Daemon.store d1)).torn_writes >= 1);
  System.set_disk_faults sys 1 Disk_fault.none;
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check bool) "node recovered" true (Daemon.is_up d1);
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c1 ~addr:region.Region.base 8) in
      Alcotest.(check string) "committed write replayed from the log"
        "walsaved" (Bytes.to_string b))

(* The acceptance shape: a crash point injected inside the disk-latency
   window takes the daemon down mid-operation; after WAL replay every
   committed write is readable again from the reborn home. *)
let test_crash_mid_io_recovers_committed_writes () =
  let sys = mk ~small_ram:true ~seed:31 () in
  let c2 = System.client sys 2 () in
  let pages = 12 in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:2 ~min_replicas:1 () in
        ok (Client.create_region c2 ~attr (pages * 4096)))
  in
  let addr i = Gaddr.add_int region.Region.base (i * 4096) in
  let value i = Printf.sprintf "v%06d!" i in
  System.run_fiber sys (fun () ->
      for i = 0 to pages - 1 do
        ok (Client.write_bytes c2 ~addr:(addr i) (bytes_s (value i)))
      done);
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  (* Every disk I/O on node 2 now schedules a crash inside its latency
     window. With 8 RAM frames, sweeping the region promotes pages back
     off disk, so the node must die mid-read. *)
  System.set_disk_faults sys 2
    {
      Disk_fault.lost_write_prob = 0.5;
      torn_write_prob = 0.5;
      crash_during_io_prob = 1.0;
    };
  System.run_fiber sys (fun () ->
      for i = 0 to pages - 1 do
        ignore (Client.read_bytes c2 ~addr:(addr i) 8)
      done);
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let d2 = System.daemon sys 2 in
  Alcotest.(check bool) "injected crash point fired" false (Daemon.is_up d2);
  System.set_disk_faults sys 2 Disk_fault.none;
  System.recover sys 2;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check bool) "node recovered" true (Daemon.is_up d2);
  System.run_fiber sys (fun () ->
      for i = 0 to pages - 1 do
        let b = ok (Client.read_bytes c2 ~addr:(addr i) 8) in
        Alcotest.(check string)
          (Printf.sprintf "page %d readable after mid-I/O crash" i)
          (value i) (Bytes.to_string b)
      done)

(* The home dies in the middle of a pipelined multi-page acquisition: some
   of the contender's acquire wave has been granted, the rest never will
   be. The failed lock must roll its partial grants back without leaking
   storage pins, and once the home recovers, the same whole-region lock
   must go through cleanly. *)
let test_crash_mid_batched_acquire () =
  let sys = mk ~seed:77 () in
  let c1 = System.client sys 1 () in
  let pages = 16 in
  let len = pages * 4096 in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:1 () in
        let r = ok (Client.create_region c1 ~attr (pages * 4096)) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (Bytes.make len 'x'));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let c2 = System.client sys 2 () in
  let outcome = ref None in
  System.run_fiber sys (fun () ->
      let locker =
        Ksim.Fiber.async (System.engine sys) (fun () ->
            let ctx =
              Ktrace.Op_ctx.make
                ~deadline:(System.now sys + Ksim.Time.sec 4) 2
            in
            Client.lock c2 ~ctx ~addr:region.Region.base ~len Ctypes.Write)
      in
      (* Mid-wave: the acquire fan-out is in flight, grants only partly
         delivered. *)
      Ksim.Fiber.sleep (Ksim.Time.us 400);
      System.crash sys 1;
      outcome := Some (Ksim.Fiber.await locker));
  System.run_until_quiet ~limit:(Ksim.Time.sec 8) sys;
  (match !outcome with
   | Some (Ok _) -> Alcotest.fail "lock cannot complete: home died mid-wave"
   | Some (Error _) -> ()
   | None -> Alcotest.fail "locker never finished");
  Alcotest.(check int) "no pins leaked by the aborted lock" 0
    (Store.pinned_pages (Daemon.store (System.daemon sys 2)));
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  System.run_fiber sys (fun () ->
      let full = ok (Client.lock c2 ~addr:region.Region.base ~len Ctypes.Write) in
      ok (Client.write c2 full ~addr:region.Region.base (bytes_s "after-crash"));
      Client.unlock c2 full;
      let b = ok (Client.read_bytes c2 ~addr:region.Region.base 11) in
      Alcotest.(check string) "region usable after recovery" "after-crash"
        (Bytes.to_string b))

(* Regression: a crash that tears the WAL frontier record must not poison
   the log for writes committed after recovery. Replay stops at the first
   checksum-failing record, so if recovery left the torn record in place,
   every post-recovery commit would be silently discarded by the next
   replay. Recovery must end with a truncating checkpoint instead. *)
let test_post_recovery_commits_survive_second_crash () =
  let sys = mk ~seed:23 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:1 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "original"));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  System.set_disk_faults sys 1
    {
      Disk_fault.lost_write_prob = 1.0;
      torn_write_prob = 1.0;
      crash_during_io_prob = 0.0;
    };
  System.run_fiber sys (fun () ->
      ok (Client.write_bytes c1 ~addr:region.Region.base (bytes_s "walsaved")));
  (* Commit syncs the log, so give the crash an unsynced tail to tear: a
     hint-grade record of the same class as the daemon's own pdir.ensure
     notes (recovery skips the unknown tag). *)
  let d1 = System.daemon sys 1 in
  Kstorage.Wal.control (Daemon.wal d1) ~sync:false "test.hint" (bytes_s "x");
  System.crash sys 1;
  Alcotest.(check bool) "first crash left a torn WAL frontier" true
    ((Kstorage.Wal.stats (Daemon.wal d1)).Kstorage.Wal.torn_tail >= 1);
  System.set_disk_faults sys 1 Disk_fault.none;
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check bool) "node recovered" true (Daemon.is_up d1);
  (* Commit a fresh write, then destroy its (unsynced) disk flush with a
     second crash: only the intent log can bring it back. *)
  System.set_disk_faults sys 1
    {
      Disk_fault.lost_write_prob = 1.0;
      torn_write_prob = 0.0;
      crash_during_io_prob = 0.0;
    };
  System.run_fiber sys (fun () ->
      ok (Client.write_bytes c1 ~addr:region.Region.base (bytes_s "afterlog")));
  System.crash sys 1;
  System.set_disk_faults sys 1 Disk_fault.none;
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check bool) "node recovered again" true (Daemon.is_up d1);
  System.run_fiber sys (fun () ->
      let b = ok (Client.read_bytes c1 ~addr:region.Region.base 8) in
      Alcotest.(check string)
        "write committed after the torn-tail recovery survives a second crash"
        "afterlog" (Bytes.to_string b))

(* ------------------- 2PC crash-at-every-step ------------------------- *)

(* Two regions homed at different nodes, a coordinator on a third: the
   minimal shape where atomic commit is actually distributed. The nemesis
   kills the coordinator or a participant at a named protocol step (fired
   from inside the daemon's txn hook), heals everything, and checks the
   all-or-nothing invariant: both regions read the old value or both read
   the new one — and an acknowledged commit is never lost. *)

let txn_write_both c txn a b va vb =
  match Client.txn_write c txn ~addr:a (bytes_s va) with
  | Error _ as e -> e
  | Ok () -> Client.txn_write c txn ~addr:b (bytes_s vb)

let run_2pc_crash ~victim ~step ~nth () =
  let sys = mk ~seed:(97 + Hashtbl.hash (victim, step, nth) mod 1000) () in
  let c1 = System.client sys 1 () in
  let c2 = System.client sys 2 () in
  let a, b =
    System.run_fiber sys (fun () ->
        let ra = ok (Client.create_region c1 4096) in
        let rb = ok (Client.create_region c2 4096) in
        ok (Client.write_bytes c1 ~addr:ra.Region.base (bytes_s "old-a"));
        ok (Client.write_bytes c2 ~addr:rb.Region.base (bytes_s "old-b"));
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let d = System.daemon sys victim in
  let fired = ref 0 in
  Daemon.set_txn_hook d
    (Some
       (fun s ->
         if s = step then begin
           incr fired;
           if !fired = nth then System.crash sys victim
         end));
  let c3 = System.client sys 3 () in
  let outcome =
    System.run_fiber ~name:"2pc-txn" sys (fun () ->
        Client.txn c3 (fun txn -> txn_write_both c3 txn a b "new-a" "new-b"))
  in
  Daemon.set_txn_hook d None;
  Alcotest.(check bool)
    (Printf.sprintf "crash hook at %s fired" step)
    true (!fired >= nth);
  (* Heal: recover the victim, drain recovery, resolver and rebroadcast
     (resolver nag needs txn_resolve_after = 3 s of quiet). *)
  System.recover sys victim;
  System.run_until_quiet ~limit:(Ksim.Time.sec 40) sys;
  let c4 = System.client sys 4 () in
  let va = read_settled sys c4 ~addr:a in
  let vb = read_settled sys c4 ~addr:b in
  (match (va, vb) with
   | "old-a", "old-b" | "new-a", "new-b" -> ()
   | _ ->
     Alcotest.failf "partial transaction visible at %s: a=%S b=%S" step va vb);
  (match outcome with
   | Ok () ->
     (* An acknowledged commit is durable, whatever died afterwards. *)
     Alcotest.(check string) "acked commit survives (a)" "new-a" va;
     Alcotest.(check string) "acked commit survives (b)" "new-b" vb
   | Error (`Conflict _) ->
     (* A reported abort means nothing ever became visible. *)
     Alcotest.(check string) "abort left a untouched" "old-a" va;
     Alcotest.(check string) "abort left b untouched" "old-b" vb
   | Error (`Unavailable _ | `Timeout) ->
     (* Crash mid-protocol: indeterminate at the client, but still atomic
        (checked above). *)
     ()
   | Error e ->
     Alcotest.failf "unexpected txn error: %s" (Daemon.error_to_string e));
  (* Nobody is left in doubt... *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d limbo drained after %s" n step)
        0
        (Daemon.txn_prepared_count (System.daemon sys n)))
    [ 1; 2; 3 ];
  (* ...and the system still commits fresh transactions. *)
  let c5 = System.client sys 5 () in
  let rec follow_up k =
    let r =
      System.run_fiber ~name:"2pc-follow-up" sys (fun () ->
          Client.txn c5 (fun txn -> txn_write_both c5 txn a b "fin-a" "fin-b"))
    in
    match r with
    | Ok () -> ()
    | Error _ when k > 0 ->
      System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
      follow_up (k - 1)
    | Error e ->
      Alcotest.failf "follow-up txn refused after %s: %s" step
        (Daemon.error_to_string e)
  in
  follow_up 5;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check string) "follow-up committed (a)" "fin-a"
    (read_settled sys c4 ~addr:a);
  Alcotest.(check string) "follow-up committed (b)" "fin-b"
    (read_settled sys c4 ~addr:b)

(* Coordinator steps: nth picks the occurrence, so prepare_ack 1 is "after
   the first vote arrives" and decide_send 2 is "mid decision broadcast". *)
let coord_steps =
  [ ("coord.before_prepare", 1); ("coord.prepare_ack", 1);
    ("coord.all_acked", 1); ("coord.decision_logged", 1);
    ("coord.decide_send", 2) ]

let participant_steps =
  [ ("part.prepare_recv", 1); ("part.prepared", 1);
    ("part.decide_recv", 1); ("part.decided", 1) ]

(* A partition during the voting phase: participant 1 unreachable, the
   prepare times out, the transaction aborts — and nothing is visible. *)
let test_2pc_partition_during_prepare () =
  let sys = mk ~seed:131 () in
  let c1 = System.client sys 1 () in
  let c2 = System.client sys 2 () in
  let a, b =
    System.run_fiber sys (fun () ->
        let ra = ok (Client.create_region c1 4096) in
        let rb = ok (Client.create_region c2 4096) in
        ok (Client.write_bytes c1 ~addr:ra.Region.base (bytes_s "old-a"));
        ok (Client.write_bytes c2 ~addr:rb.Region.base (bytes_s "old-b"));
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let d3 = System.daemon sys 3 in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.before_prepare" then
           System.partition sys [ 1 ] [ 0; 2; 3; 4; 5 ]));
  let c3 = System.client sys 3 () in
  let outcome =
    System.run_fiber ~name:"2pc-partition-txn" sys (fun () ->
        Client.txn c3 (fun txn -> txn_write_both c3 txn a b "new-a" "new-b"))
  in
  Daemon.set_txn_hook d3 None;
  (match outcome with
   | Error (`Conflict _) -> ()
   | Ok () -> Alcotest.fail "commit with a participant unreachable"
   | Error e ->
     Alcotest.failf "expected vote-timeout abort, got %s"
       (Daemon.error_to_string e));
  System.heal sys;
  System.run_until_quiet ~limit:(Ksim.Time.sec 40) sys;
  let c4 = System.client sys 4 () in
  Alcotest.(check string) "a untouched" "old-a" (read_settled sys c4 ~addr:a);
  Alcotest.(check string) "b untouched" "old-b" (read_settled sys c4 ~addr:b);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d limbo drained" n)
        0
        (Daemon.txn_prepared_count (System.daemon sys n)))
    [ 1; 2; 3 ]

(* The coordinator frees its locks once its decides are out, delivered
   or not, so a lost decide leaves participant 1 holding a prepared image
   of [a] while the coordinator, node 3, still the pages' owner, can lock
   them again at once. [lost_decide] runs that first transaction, writing
   "first-a0" and "first-b0" over "old-a000" and "old-b000", with
   participant 1 cut off by a partition at its decide. *)
let lost_decide ~seed =
  let sys = mk ~seed () in
  let clients = Array.init node_count (fun n -> System.client sys n ()) in
  let ring = instrument sys clients in
  let a, b =
    System.run_fiber sys (fun () ->
        let ra = ok (Client.create_region clients.(1) 4096) in
        let rb = ok (Client.create_region clients.(2) 4096) in
        ok (Client.write_bytes clients.(1) ~addr:ra.Region.base
              (bytes_s "old-a000"));
        ok (Client.write_bytes clients.(2) ~addr:rb.Region.base
              (bytes_s "old-b000"));
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let d3 = System.daemon sys 3 in
  let cut = ref false in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" && not !cut then begin
           cut := true;
           System.partition sys [ 1 ] [ 0; 2; 3; 4; 5 ]
         end));
  let c3 = clients.(3) in
  let first =
    System.run_fiber ~name:"2pc-first" sys (fun () ->
        Client.txn c3 (fun txn ->
            txn_write_both c3 txn a b "first-a0" "first-b0"))
  in
  Daemon.set_txn_hook d3 None;
  (match first with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "first txn: %s" (Daemon.error_to_string e));
  Alcotest.(check int) "participant 1 still in doubt" 1
    (Daemon.txn_prepared_count (System.daemon sys 1));
  (sys, clients, ring, a, b)

(* Settle past txn_resolve_after (3 s), so the first decision has reached
   participant 1 by now, then read [a] and [b] back on every node. *)
let settle_and_read sys clients ~a ~b va vb =
  System.run_until_quiet ~limit:(Ksim.Time.sec 40) sys;
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "node %d reads the last acknowledged a" n)
        va (read_settled ~len:8 sys clients.(n) ~addr:a);
      Alcotest.(check string)
        (Printf.sprintf "node %d reads the last acknowledged b" n)
        vb (read_settled ~len:8 sys clients.(n) ~addr:b))
    (List.init node_count Fun.id);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d limbo drained" n)
        0
        (Daemon.txn_prepared_count (System.daemon sys n)))
    [ 1; 2; 3 ]

(* A second transaction on the pages of a lost decide must be refused at
   prepare: prepared beside the first, its image would be overwritten
   when the first decision finally installs. *)
let test_2pc_lost_decide_votes_no () =
  let sys, clients, ring, a, b = lost_decide ~seed:171 in
  System.heal sys;
  let c3 = clients.(3) in
  let second =
    System.run_fiber ~name:"2pc-second" sys (fun () ->
        Client.txn c3 (fun txn ->
            txn_write_both c3 txn a b "second-a" "second-b"))
  in
  (match second with
   | Ok () -> settle_and_read sys clients ~a ~b "second-a" "second-b"
   | Error _ -> settle_and_read sys clients ~a ~b "first-a0" "first-b0");
  (match second with
   | Error (`Conflict _) -> ()
   | Ok () -> Alcotest.fail "second txn prepared beside an undecided one"
   | Error e ->
     Alcotest.failf "second txn: expected a no vote, got %s"
       (Daemon.error_to_string e));
  ignore (assert_history_ok ~what:"lost decide" ring)

(* A plain write of [a] from the coordinator after a lost decide is
   acknowledged at once: the coordinator still owns the page, and the
   home absorbs the write-through while in doubt. The late decision
   carries the version the commit had, older than the plain write's, so
   the home drops its image and the plain write stands. *)
let test_2pc_lost_decide_then_plain_write () =
  let sys, clients, ring, a, b = lost_decide ~seed:171 in
  System.heal sys;
  ok
    (System.run_fiber ~name:"2pc-plain" sys (fun () ->
         Client.write_bytes clients.(3) ~addr:a (bytes_s "second-a")));
  settle_and_read sys clients ~a ~b "second-a" "first-b0";
  ignore (assert_history_ok ~what:"lost decide, plain write" ring)

(* The same plain write, then participant 1 crashes, after its vote and
   still in doubt, and the coordinator with it. The coordinator comes
   back just after participant 1 sent a status query: the query's retry
   reaches it before its repair loop could re-send the decision, so the
   commit arrives by the status answer. That answer carries the version
   the decide would, and the plain write still stands. A query retries
   on a ladder whose gaps reach 2 s (the idempotent policy), so the
   first send after a longer silence starts a fresh one, whose retry
   follows 300 ms later. *)
let test_2pc_lost_decide_resolved_by_status () =
  let sys, clients, ring, a, b = lost_decide ~seed:171 in
  System.heal sys;
  ok
    (System.run_fiber ~name:"2pc-plain" sys (fun () ->
         Client.write_bytes clients.(3) ~addr:a (bytes_s "second-a")));
  let d1 = System.daemon sys 1 in
  Alcotest.(check int) "participant 1 still in doubt after the write" 1
    (Daemon.txn_prepared_count d1);
  System.crash sys 1;
  System.crash sys 3;
  System.recover sys 1;
  let asked () =
    Option.value ~default:0
      (List.assoc_opt "tx_status"
         (Khazana.Wire.Transport.stats (System.transport sys)).by_kind)
  in
  let t0 = System.now sys in
  let rec fresh_query count last =
    System.run_until_quiet ~limit:(Ksim.Time.ms 10) sys;
    let now = System.now sys in
    if now - t0 > Ksim.Time.sec 60 then Alcotest.fail "participant 1 never asked"
    else if asked () = count then fresh_query count last
    else if now - last > Ksim.Time.ms 2500 then ()
    else fresh_query (asked ()) now
  in
  fresh_query (asked ()) t0;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  Alcotest.(check int) "participant 1 resolved by a status answer" 1
    (List.assoc_opt "txn.resolve"
       (Ktrace.Metrics.counters (Daemon.metrics d1))
    |> Option.value ~default:0);
  settle_and_read sys clients ~a ~b "second-a" "first-b0";
  ignore (assert_history_ok ~what:"lost decide, resolved by status" ring)

(* kfs rename rides Client.txn: crash the renaming node at each
   coordinator step; afterwards exactly one of the two names exists. *)
let run_kfs_rename_crash ~step () =
  let sys = mk ~seed:(211 + Hashtbl.hash step mod 500) () in
  let fs_ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "kfs: %s" (Kfs.Fs.error_to_string e)
  in
  let c1 = System.client sys 1 () in
  let sb =
    System.run_fiber sys (fun () ->
        let sb = fs_ok (Kfs.Fs.format c1 ()) in
        let fs1 = fs_ok (Kfs.Fs.mount c1 sb) in
        fs_ok (Kfs.Fs.mkdir fs1 "/src");
        fs_ok (Kfs.Fs.create fs1 "/src/f");
        fs_ok (Kfs.Fs.write fs1 "/src/f" ~off:0 (bytes_s "payload"));
        sb)
  in
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      let fs2 = fs_ok (Kfs.Fs.mount c2 sb) in
      fs_ok (Kfs.Fs.mkdir fs2 "/dst"));
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let d3 = System.daemon sys 3 in
  Daemon.set_txn_hook d3
    (Some (fun s -> if s = step then System.crash sys 3));
  let c3 = System.client sys 3 () in
  let outcome =
    System.run_fiber ~name:"2pc-rename" sys (fun () ->
        let fs3 = fs_ok (Kfs.Fs.mount c3 sb) in
        Kfs.Fs.rename fs3 "/src/f" "/dst/g")
  in
  Daemon.set_txn_hook d3 None;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 40) sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      let fs4 = fs_ok (Kfs.Fs.mount c4 sb) in
      let at_src = Kfs.Fs.exists fs4 "/src/f" in
      let at_dst = Kfs.Fs.exists fs4 "/dst/g" in
      (match (at_src, at_dst) with
       | true, false | false, true -> ()
       | true, true ->
         Alcotest.failf "crash at %s left the file in both directories" step
       | false, false ->
         Alcotest.failf "crash at %s lost the file entirely" step);
      (match outcome with
       | Ok () ->
         Alcotest.(check bool)
           (Printf.sprintf "acked rename durable (%s)" step)
           true at_dst
       | Error _ -> ());
      let path = if at_dst then "/dst/g" else "/src/f" in
      let data = fs_ok (Kfs.Fs.read fs4 path ~off:0 ~len:7) in
      Alcotest.(check string) "content intact" "payload"
        (Bytes.to_string data))

(* ---------------------------- Seeded sweeps --------------------------- *)

(* Every seeded sweep is a row of [legs] below: a protocol mix, a fault
   schedule and a workload. [run_leg] is the scaffold they share. It
   builds the system, the seeded rng and the instrumented clients, creates
   the row's regions, then runs its rounds: a fault step, the workload,
   and the row's quiets, heals and settles. After the last round it heals,
   reads back, checks the network's accounting and hands the recorded
   history to the checkers. A row names only what differs between
   sweeps. *)

let victims = [ 1; 2; 3; 4; 5 ] (* node 0: bootstrap + manager, never faulted *)

(* Which disk pathology a sweep seed exercises is a function of the seed,
   so the seed list controls coverage: lost unsynced writes, torn images,
   and crashes fired from inside the disk-latency window. *)
let fault_profile seed =
  match seed mod 3 with
  | 0 ->
    { Disk_fault.lost_write_prob = 0.5; torn_write_prob = 0.0;
      crash_during_io_prob = 0.0 }
  | 1 ->
    { Disk_fault.lost_write_prob = 0.3; torn_write_prob = 0.6;
      crash_during_io_prob = 0.0 }
  | _ ->
    { Disk_fault.lost_write_prob = 0.3; torn_write_prob = 0.3;
      crash_during_io_prob = 0.01 }

let fault_profile_name seed =
  match seed mod 3 with
  | 0 -> "lost writes"
  | 1 -> "torn writes"
  | _ -> "crash mid-flush"

(* One region of a sweep. Every value written to it is recorded in
   [attempts] with its stamp index; [watermark] is the index of the last
   acknowledged write (a settled write or a commit) that every later
   settled read must reach. *)
type reg = {
  base : Gaddr.t;
  len : int;
  home : int;
  minr : int;
  versioned : bool;
  attempts : (string, int) Hashtbl.t;
  mutable watermark : int;
}

(* What a row runs between rounds, in order. *)
type phase =
  | Quiet of int  (* run the engine this long *)
  | Heal  (* every fault off and every node up, then 5 s of quiet *)
  | Settle  (* an acknowledged write per region, then 3 s of quiet *)

type leg = {
  group : string;  (* the Alcotest group, named in the repro line *)
  env : string;  (* the variable that overrides [seeds] *)
  seeds : int list;
  replay : string * int;  (* the determinism case: its name and seed *)
  salt : int;  (* the rng is seeded [salt + seed * 7919] *)
  disk_faults : bool;  (* small RAM, and the seed's disk fault profile *)
  frame_faults : bool;  (* armed after [start], off before [finish] *)
  regions : (int * string * int) list;  (* home, protocol, min_replicas *)
  init : string option;  (* written to each region as it is created *)
  stamps : [ `Per_region | `Global ];  (* see [stamp] *)
  settle_tries : int;  (* attempts at each settled write *)
  start : phase list;
  rounds : int;
  fault : cx -> unit;
  workload : cx -> unit;
  between : int -> phase list;  (* after round [r]'s workload *)
  check : cx -> int -> unit;  (* after those phases *)
  finish : phase list;
  finals : cx -> string list;  (* the final reads, in the fingerprint *)
}

and cx = {
  leg : leg;
  seed : int;
  sys : System.t;
  rng : Kutil.Rng.t;
  clients : Client.t array;
  regs : reg list;
  mutable stamp : int;  (* the last [`Global] stamp handed out *)
  mutable down : int list;
  mutable partitioned : bool;
  mutable faulty : int list;  (* nodes with an active disk fault model *)
}

type outcome = { fingerprint : string; events : History.event list }

(* Every written value is an 8-byte stamp: a two-digit tag (the region's
   home, 00 for a transaction's value) and an index. [`Per_region] numbers
   each region's values from 0; [`Global] numbers every value from 1, so
   values are distinct across regions, as the serializability checker's
   observed-version graph requires. *)
let stamp cx ~tag regs =
  let idx =
    match (cx.leg.stamps, regs) with
    | `Per_region, [ rg ] -> Hashtbl.length rg.attempts
    | `Per_region, _ -> invalid_arg "stamp: a per-region value has one region"
    | `Global, _ ->
      cx.stamp <- cx.stamp + 1;
      cx.stamp
  in
  let v = Printf.sprintf "%02d%06d" tag idx in
  List.iter (fun rg -> Hashtbl.replace rg.attempts v idx) regs;
  (v, idx)

let fresh cx rg = fst (stamp cx ~tag:rg.home [ rg ])

(* [v], read back from [rg] once the system settled, is a value some
   client wrote there, no older than the region's watermark. *)
let check_acked ~what rg v =
  match Hashtbl.find_opt rg.attempts v with
  | None ->
    Alcotest.failf "%s: region %02d holds unwritten value %S" what rg.home v
  | Some idx when idx < rg.watermark ->
    Alcotest.failf
      "%s: region %02d lost an acknowledged write (read attempt %d, \
       acknowledged %d)"
      what rg.home idx rg.watermark
  | Some _ -> ()

(* Injected I/O crash points and crash hooks take nodes down outside the
   schedule's view: refresh the down-list from ground truth before acting
   on it. A node in its recovery phase counts as down (it is not serving
   yet). *)
let resync_down cx =
  cx.down <-
    List.filter (fun n -> not (Daemon.is_up (System.daemon cx.sys n))) victims

let pick rng l =
  match l with
  | [] -> None
  | l -> Some (List.nth l (Kutil.Rng.int rng (List.length l)))

let up cx n = not (List.mem n cx.down)

(* Node 0 is never faulted, so some node is always up. *)
let pick_up cx = Option.get (pick cx.rng (List.filter (up cx) (0 :: victims)))

(* ----------------------- Fault schedule ----------------------------- *)

let fault_step cx =
  let sys = cx.sys and rng = cx.rng in
  (* Disk-fault arm: flip the fault model on and off on random victims.
     Only disk-fault rows draw for it. *)
  if cx.leg.disk_faults then begin
    (match
       pick rng (List.filter (fun n -> not (List.mem n cx.faulty)) victims)
     with
    | Some n when Kutil.Rng.bool rng ->
      System.set_disk_faults sys n (fault_profile cx.seed);
      cx.faulty <- n :: cx.faulty
    | Some _ | None -> ());
    match pick rng cx.faulty with
    | Some n when Kutil.Rng.float rng 1.0 < 0.3 ->
      System.set_disk_faults sys n Disk_fault.none;
      cx.faulty <- List.filter (fun m -> m <> n) cx.faulty
    | Some _ | None -> ()
  end;
  let crash () =
    match pick rng (List.filter (up cx) victims) with
    | Some n ->
      System.crash sys n;
      cx.down <- n :: cx.down
    | None -> ()
  in
  let recover () =
    match pick rng cx.down with
    | Some n ->
      System.recover sys n;
      cx.down <- List.filter (fun m -> m <> n) cx.down
    | None -> ()
  in
  let partition () =
    let arr = Array.of_list victims in
    Kutil.Rng.shuffle rng arr;
    let k = 1 + Kutil.Rng.int rng 2 in
    let minority = Array.to_list (Array.sub arr 0 k) in
    let majority =
      0 :: Array.to_list (Array.sub arr k (Array.length arr - k))
    in
    System.partition sys minority majority;
    cx.partitioned <- true
  in
  let heal () =
    System.heal sys;
    cx.partitioned <- false
  in
  if cx.partitioned && Kutil.Rng.bool rng then heal ()
  else if List.length cx.down >= 2 then recover ()
  else
    match Kutil.Rng.int rng 5 with
    | 0 -> crash ()
    | 1 -> if cx.partitioned then heal () else partition ()
    | 2 -> if cx.down = [] then crash () else recover ()
    | 3 when cx.down <> [] -> recover ()
    | _ -> () (* quiet round *)

(* -------------------------- Phases ----------------------------------- *)

(* Every fault off: crash hooks disarmed, disk fault models cleared (the
   settled writes must land on honest disks), every node recovered, the
   network healed. *)
let heal cx =
  List.iter
    (fun n -> Daemon.set_txn_hook (System.daemon cx.sys n) None)
    (0 :: victims);
  List.iter
    (fun n -> System.set_disk_faults cx.sys n Disk_fault.none)
    cx.faulty;
  cx.faulty <- [];
  resync_down cx;
  List.iter (fun n -> System.recover cx.sys n) cx.down;
  cx.down <- [];
  System.heal cx.sys;
  cx.partitioned <- false;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) cx.sys

(* Run [op] in a fiber until it succeeds, with [wait] of quiet between
   tries: fail-over of state stranded on a crashed-and-reborn owner can
   take a couple of suspicion/repair cycles, but not forever. *)
let retry cx ~tries ~wait ~what op =
  let rec go k =
    match System.run_fiber ~name:"nemesis-retry" cx.sys op with
    | Ok v -> v
    | Error _ when k > 1 ->
      System.run_until_quiet ~limit:wait cx.sys;
      go (k - 1)
    | Error e -> Alcotest.failf "%s: %s" what (Daemon.error_to_string e)
  in
  go tries

(* One acknowledged write per region from its home; once the quiet after
   them settles replication, each becomes its region's watermark. *)
let settle cx =
  let acked =
    List.map
      (fun rg ->
        retry cx ~tries:cx.leg.settle_tries ~wait:(Ksim.Time.sec 3)
          ~what:
            (Printf.sprintf "healed system refused a write to region %02d"
               rg.home)
          (fun () ->
            let v, idx = stamp cx ~tag:rg.home [ rg ] in
            Client.write_bytes cx.clients.(rg.home) ~addr:rg.base (bytes_s v)
            |> Result.map (fun () -> (rg, idx))))
      cx.regs
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 3) cx.sys;
  List.iter (fun (rg, idx) -> rg.watermark <- idx) acked

let run_phase cx = function
  | Quiet d -> System.run_until_quiet ~limit:d cx.sys
  | Heal -> heal cx
  | Settle -> settle cx

(* Every round ends in 2 s of quiet; every third one then runs [phases]. *)
let every_third phases round =
  Quiet (Ksim.Time.sec 2) :: (if round mod 3 = 0 then phases else [])

(* ------------------------- Workloads --------------------------------- *)

(* One write and one read of [rg] from random live nodes. Either may fail
   under fire (the recorder marks that ambiguous), but a successful read
   returns a value some client wrote there. *)
let write_read cx rg =
  let writer = pick_up cx in
  let reader = pick_up cx in
  System.run_fiber ~name:"nemesis-workload" cx.sys (fun () ->
      ignore
        (Client.write_bytes cx.clients.(writer) ~addr:rg.base
           (bytes_s (fresh cx rg)));
      match Client.read_bytes cx.clients.(reader) ~addr:rg.base 8 with
      | Ok b ->
        let got = Bytes.to_string b in
        if not (Hashtbl.mem rg.attempts got) then
          Alcotest.failf
            "read of region %02d returned %S: never written by anyone" rg.home
            got
      | Error _ -> ())

(* A transaction from [coord], run in a fiber: read each of [reads], then
   write one fresh value to each of [writes]. Reads take shared locks, so
   a region both read and written takes the upgrade path. A commit raises
   the written regions' watermarks. *)
let txn cx ~coord ~reads ~writes () =
  let c = cx.clients.(coord) in
  let v, idx = stamp cx ~tag:0 writes in
  let ( let* ) = Result.bind in
  let r =
    Client.txn c (fun t ->
        let* () =
          List.fold_left
            (fun acc rg ->
              let* () = acc in
              Result.map ignore (Client.txn_read c t ~addr:rg.base ~len:8))
            (Ok ()) reads
        in
        List.fold_left
          (fun acc rg ->
            let* () = acc in
            Client.txn_write c t ~addr:rg.base (bytes_s v))
          (Ok ()) writes)
  in
  if Result.is_ok r then List.iter (fun rg -> rg.watermark <- idx) writes;
  r

let run_txn cx ~coord ~reads ~writes =
  ignore
    (System.run_fiber ~name:"nemesis-txn" cx.sys (txn cx ~coord ~reads ~writes))

(* Versioned traffic on [rg]: two writers from random nodes, the second an
   optimistic CAS half the time ([`Conflict] just means somebody else won
   the race); then a reader opens a snapshot and reads it twice with a
   write landing in between, so pin stability has something to bite on. *)
let versioned_ops cx rg =
  let w1 = pick_up cx in
  let w2 = pick_up cx in
  let reader = pick_up cx in
  let write n =
    ignore
      (Client.write_bytes cx.clients.(n) ~addr:rg.base (bytes_s (fresh cx rg)))
  in
  let c2 = cx.clients.(w2) and cr = cx.clients.(reader) in
  System.run_fiber ~name:"nemesis-workload" cx.sys (fun () ->
      write w1;
      (if Kutil.Rng.bool cx.rng then
         match Client.page_version c2 rg.base with
         | Ok v ->
           ignore
             (Client.write_cas c2 ~addr:rg.base ~expected:v
                (bytes_s (fresh cx rg)))
         | Error _ -> ()
       else write w2);
      match Client.snapshot cr with
      | Error _ -> ()
      | Ok snap ->
        ignore (Client.snapshot_read cr ~snap ~addr:rg.base 8);
        write w1;
        ignore (Client.snapshot_read cr ~snap ~addr:rg.base 8);
        Client.release_snapshot cr snap)

(* Settled reads of every region from each of [nodes]. *)
let reads_from nodes cx =
  List.concat_map
    (fun rg ->
      List.map
        (fun n -> read_settled ~len:8 cx.sys cx.clients.(n) ~addr:rg.base)
        nodes)
    cx.regs

(* --------------------------- One run --------------------------------- *)

let create_region sys clients ~init (home, protocol, min_replicas) =
  let r =
    System.run_fiber ~name:"nemesis-create" sys (fun () ->
        let c = clients.(home) in
        let attr = Attr.make ~owner:home ~protocol ~min_replicas () in
        let r = ok (Client.create_region c ~attr 4096) in
        Option.iter
          (fun v -> ok (Client.write_bytes c ~addr:r.Region.base (bytes_s v)))
          init;
        r)
  in
  let attempts = Hashtbl.create 32 in
  Option.iter (fun v -> Hashtbl.replace attempts v 0) init;
  {
    base = r.Region.base;
    len = r.Region.len;
    home;
    minr = min_replicas;
    versioned = protocol = "versioned";
    attempts;
    watermark = -1;
  }

let run_leg leg ~seed =
  let sys = mk ~small_ram:leg.disk_faults ~seed () in
  let rng = Kutil.Rng.create ~seed:(leg.salt + (seed * 7919)) in
  let clients = Array.init node_count (fun n -> System.client sys n ()) in
  let ring = instrument sys clients in
  let regs = List.map (create_region sys clients ~init:leg.init) leg.regions in
  let cx =
    { leg; seed; sys; rng; clients; regs; stamp = 0; down = [];
      partitioned = false; faulty = [] }
  in
  let phases = List.iter (run_phase cx) in
  phases leg.start;
  (* Frame faults arm only after setup: region creation needs the address
     map, and a dropped map-mutation frame is a test-harness timeout, not
     an interesting fault. *)
  if leg.frame_faults then
    System.set_frame_faults sys ~seed:(0xff00 + seed) ~drop:0.03
      ~duplicate:0.03 ~delay:0.001 ();
  for round = 1 to leg.rounds do
    resync_down cx;
    leg.fault cx;
    leg.workload cx;
    phases (leg.between round);
    leg.check cx round
  done;
  if leg.frame_faults then System.clear_frame_faults sys;
  phases leg.finish;
  let finals = leg.finals cx in
  (* Network accounting survived the whole schedule. *)
  let s = Khazana.Wire.Transport.stats (System.transport sys) in
  if s.sent <> s.delivered + s.dropped + s.in_flight then
    Alcotest.failf "network accounting leak: sent %d <> %d + %d + %d" s.sent
      s.delivered s.dropped s.in_flight;
  (* The checkers' verdict over the whole recorded history. Versioned
     addresses are judged by the MVCC checks instead: concurrent LWW
     publishes are not linearizable by design. *)
  let mvcc addr =
    List.exists
      (fun rg ->
        rg.versioned
        && Gaddr.compare rg.base addr <= 0
        && Gaddr.compare addr (Gaddr.add_int rg.base rg.len) < 0)
      regs
  in
  let events =
    assert_history_ok ~mvcc
      ~what:(Printf.sprintf "%s seed %d" leg.group seed)
      ring
  in
  {
    fingerprint =
      String.concat ";" finals
      ^ Printf.sprintf "@%d/%d" (System.now sys) (List.length events);
    events;
  }

(* ---------------------------- The rows -------------------------------- *)

(* A row's defaults: CREW traffic under crashes and partitions, one write
   and one read per region a round, a checkpoint (heal, then settle)
   before the first round, after every third and after the last, then a
   settled read of every region from node 0. *)
let leg ~group ~env ~seeds ~replay ~salt ~regions =
  {
    group; env; seeds; replay; salt; regions;
    disk_faults = false;
    frame_faults = false;
    init = None;
    stamps = `Global;
    settle_tries = 5;
    start = [ Heal; Settle ];
    rounds = 7;
    fault = fault_step;
    workload = (fun cx -> List.iter (write_read cx) cx.regs);
    between = every_third [ Heal; Settle ];
    check = (fun _ _ -> ());
    finish = [ Heal; Settle ];
    finals = reads_from [ 0 ];
  }

(* Repair must bring every region back to its floor within bounded
   simulated time of the final heal. *)
let wait_replica_floor cx ~cap =
  let holders rg =
    List.length
      (List.filter
         (fun n -> Daemon.holds_page (System.daemon cx.sys n) rg.base)
         (List.init node_count Fun.id))
  in
  let t0 = System.now cx.sys in
  let deficient () =
    List.filter (fun rg -> rg.minr > 1 && holders rg < rg.minr) cx.regs
  in
  while deficient () <> [] && System.now cx.sys - t0 < cap do
    System.run_until_quiet ~limit:(Ksim.Time.ms 500) cx.sys
  done;
  match deficient () with
  | [] -> ()
  | l ->
    Alcotest.failf
      "replica floor not restored within %dms for %d region(s): %s"
      (cap / 1_000_000) (List.length l)
      (String.concat ", "
         (List.map
            (fun rg ->
              Printf.sprintf "home %d (%d/%d holders)" rg.home (holders rg)
                rg.minr)
            l))

(* Plain sweep: five CREW regions with replica floors of 2 and 3. After
   the final heal the floor is restored, and every region reads back from
   node 0 and node 3 at least its last settled write (no read retries). *)
let plain =
  {
    (leg ~group:"sweep" ~env:"NEMESIS_SEEDS" ~seeds:[ 1; 2; 3; 4; 5 ]
       ~replay:("deterministic replay", 1) ~salt:0x6e65
       ~regions:
         (List.init 5 (fun i -> (1 + i, "crew", if i mod 2 = 0 then 2 else 3))))
    with
    stamps = `Per_region;
    settle_tries = 4;
    rounds = 9;
    finish = [ Heal ];
    finals =
      (fun cx ->
        wait_replica_floor cx ~cap:(Ksim.Time.sec 20);
        List.map
          (fun rg ->
            let read n =
              read_settled ~retries:0 ~len:8 cx.sys cx.clients.(n)
                ~addr:rg.base
            in
            let v = read 0 in
            check_acked ~what:"final read" rg v;
            check_acked ~what:"vantage read" rg (read 3);
            v)
          cx.regs);
  }

(* The plain sweep with disk fault models flipped on and off; seed mod 3
   picks the pathology. Its replay seed, 8, picks crash-mid-flush:
   determinism must hold even when crashes fire from inside disk I/O. *)
let disk =
  {
    plain with
    group = "disk sweep";
    env = "NEMESIS_DISK_SEEDS";
    seeds = List.init 10 (fun i -> 6 + i);
    replay = ("deterministic replay under disk faults", 8);
    disk_faults = true;
  }

(* Combined: partitions, crashes, disk faults AND frame-level
   drop/duplicate/delay in ONE seeded schedule, over plain reads and writes
   plus one read-modify-write transaction a round across two random
   regions. There is no bespoke "which value may this read return"
   bookkeeping: the checkers' verdict is the invariant. *)
let combined =
  {
    (leg ~group:"combined sweep" ~env:"NEMESIS_COMBINED_SEEDS" ~seeds:[ 36; 37 ]
       ~replay:("deterministic replay of combined faults", 2) ~salt:0x636d62
       ~regions:(List.init 4 (fun i -> (1 + i, "crew", 2))))
    with
    disk_faults = true;
    frame_faults = true;
    start = [ Settle ];
    workload =
      (fun cx ->
        List.iter (write_read cx) cx.regs;
        let arr = Array.of_list cx.regs in
        Kutil.Rng.shuffle cx.rng arr;
        let two = [ arr.(0); arr.(1) ] in
        run_txn cx ~coord:(pick_up cx) ~reads:two ~writes:two);
    between = every_third [ Heal ];
    finals = reads_from [ 5; 0 ];
  }

(* 2PC: one value fanned out to three regions homed at nodes 1, 2 and 3 by
   a transaction from node 4, a round, under a crash of the coordinator or
   a participant at a random protocol step, or a partition during voting.
   After every heal the three regions agree, hold a committed value at
   least as new as the last acknowledged commit, and nobody is left in
   doubt. *)
let twopc_coord = 4

let twopc_fault cx =
  let rng = cx.rng in
  let arm victim hook =
    Daemon.set_txn_hook (System.daemon cx.sys victim) (Some hook)
  in
  match Kutil.Rng.int rng 4 with
  | 0 -> () (* fault-free round *)
  | 1 | 2 ->
    let victim, step =
      if Kutil.Rng.bool rng then
        (twopc_coord, fst (List.nth coord_steps (Kutil.Rng.int rng 5)))
      else
        let step = fst (List.nth participant_steps (Kutil.Rng.int rng 4)) in
        (1 + Kutil.Rng.int rng 3, step)
    in
    arm victim (fun s -> if s = step then System.crash cx.sys victim)
  | _ ->
    let cut = 1 + Kutil.Rng.int rng 3 in
    arm twopc_coord (fun s ->
        if s = "coord.before_prepare" then
          System.partition cx.sys [ cut ]
            (List.filter (fun n -> n <> cut) (0 :: victims)))

let twopc_agree cx ~round =
  let what = Printf.sprintf "round %d" round in
  let values =
    List.map
      (fun rg -> read_settled ~len:8 cx.sys cx.clients.(0) ~addr:rg.base)
      cx.regs
  in
  (match values with
  | v :: rest when List.for_all (( = ) v) rest ->
    check_acked ~what (List.hd cx.regs) v
  | _ ->
    Alcotest.failf "%s: partial transaction visible: %s" what
      (String.concat " / " values));
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "%s: node %d limbo drained" what n)
        0
        (Daemon.txn_prepared_count (System.daemon cx.sys n)))
    (0 :: victims);
  values

let twopc =
  {
    (leg ~group:"2pc sweep" ~env:"NEMESIS_2PC_SEEDS" ~seeds:[ 26; 27 ]
       ~replay:("deterministic replay of 2pc faults", 26) ~salt:0x2bc
       ~regions:[ (1, "crew", 1); (2, "crew", 1); (3, "crew", 1) ])
    with
    init = Some "%init%00";
    start = [ Quiet (Ksim.Time.sec 2) ];
    rounds = 8;
    fault = twopc_fault;
    workload =
      (fun cx -> run_txn cx ~coord:twopc_coord ~reads:[] ~writes:cx.regs);
    (* 40 s in all: the in-doubt resolver nags after txn_resolve_after
       (3 s) of quiet. *)
    between = (fun _ -> [ Heal; Quiet (Ksim.Time.sec 35) ]);
    check = (fun cx round -> ignore (twopc_agree cx ~round));
    finish = [];
    finals =
      (fun cx ->
        (* A final fault-free transaction must land. *)
        retry cx ~tries:6 ~wait:(Ksim.Time.sec 5)
          ~what:"healed system refused final txn"
          (txn cx ~coord:twopc_coord ~reads:[] ~writes:cx.regs);
        System.run_until_quiet ~limit:(Ksim.Time.sec 10) cx.sys;
        twopc_agree cx ~round:99);
  }

(* 2PC shared: transactions and plain writes on the same Zipf-hot CREW
   pages. Each round a transaction from a random live node writes two
   regions drawn by Zipf weight (region [i] weighs 1/(i+1)); its
   coordinator then writes a third draw plainly, and another node reads
   one. The faults are a lost decide (the first decide any coordinator
   sends cuts a random node off), a crash of whichever node first reaches
   a random 2PC step, or a partition during voting, so late decisions
   meet plain writes made after them. After every heal nobody is left in
   doubt, and the checkers judge the whole history. *)
let zipf_region cx =
  let regs = Array.of_list cx.regs in
  let weight i = 1.0 /. float_of_int (i + 1) in
  let total = ref 0.0 in
  Array.iteri (fun i _ -> total := !total +. weight i) regs;
  let x = Kutil.Rng.float cx.rng !total in
  let rec go i acc =
    let acc = acc +. weight i in
    if x < acc || i = Array.length regs - 1 then regs.(i) else go (i + 1) acc
  in
  go 0 0.0

let shared_fault cx =
  let rng = cx.rng in
  let victim = Option.get (pick rng victims) in
  let others = List.filter (fun n -> n <> victim) (0 :: victims) in
  let fired = ref false in
  let arm hook =
    List.iter
      (fun n -> Daemon.set_txn_hook (System.daemon cx.sys n) (Some (hook n)))
      (0 :: victims)
  in
  let once step f _ s =
    if s = step && not !fired then begin
      fired := true;
      f ()
    end
  in
  match Kutil.Rng.int rng 4 with
  | 0 -> ()
  | 1 ->
    arm (once "coord.decide_send" (fun () ->
             System.partition cx.sys [ victim ] others))
  | 2 ->
    let steps = List.map fst (coord_steps @ participant_steps) in
    let step = Option.get (pick rng steps) in
    arm (fun n s ->
        if n <> 0 then once step (fun () -> System.crash cx.sys n) n s)
  | _ ->
    arm (once "coord.before_prepare" (fun () ->
             System.partition cx.sys [ victim ] others))

let shared_workload cx =
  let coord = pick_up cx in
  let first = zipf_region cx in
  let rec other () =
    let rg = zipf_region cx in
    if rg == first then other () else rg
  in
  let second = other () in
  run_txn cx ~coord ~reads:[] ~writes:[ first; second ];
  let rg = if Kutil.Rng.bool cx.rng then first else zipf_region cx in
  let v, idx = stamp cx ~tag:rg.home [ rg ] in
  if
    Result.is_ok
      (System.run_fiber ~name:"nemesis-workload" cx.sys (fun () ->
           Client.write_bytes cx.clients.(coord) ~addr:rg.base (bytes_s v)))
  then rg.watermark <- idx;
  let reader = pick_up cx in
  ignore
    (System.run_fiber ~name:"nemesis-workload" cx.sys (fun () ->
         Client.read_bytes cx.clients.(reader) ~addr:(zipf_region cx).base 8))

let shared =
  {
    (leg ~group:"2pc shared" ~env:"NEMESIS_2PC_SHARED_SEEDS" ~seeds:[ 71; 72 ]
       ~replay:("deterministic replay of shared 2pc faults", 71) ~salt:0x2bc5
       ~regions:(List.init 4 (fun i -> (1 + i, "crew", 1))))
    with
    start = [ Settle ];
    rounds = 8;
    fault = shared_fault;
    workload = shared_workload;
    (* The in-doubt resolver nags after txn_resolve_after (3 s) of quiet. *)
    between = (fun _ -> [ Heal; Quiet (Ksim.Time.sec 35) ]);
    check =
      (fun cx round ->
        List.iter
          (fun n ->
            Alcotest.(check int)
              (Printf.sprintf "round %d: node %d limbo drained" round n)
              0
              (Daemon.txn_prepared_count (System.daemon cx.sys n)))
          (0 :: victims));
    finish = [];
    finals =
      (fun cx ->
        List.concat_map
          (fun rg ->
            List.map
              (fun n ->
                let v =
                  read_settled ~len:8 cx.sys cx.clients.(n) ~addr:rg.base
                in
                check_acked ~what:"final read" rg v;
                v)
              [ 0; 5 ])
          cx.regs);
  }

(* Versioned (MVCC): transactional traffic stays on two CREW regions while
   three versioned regions take concurrent plain writes, CAS writes and
   snapshot reads. The versioned addresses are judged by the MVCC checks:
   no out-of-thin-air reads, and every snapshot pin observes one value
   (any attempted value is a legal final read under LWW: a backgrounded
   republish is a late write). *)
let versioned =
  {
    (leg ~group:"versioned sweep" ~env:"NEMESIS_VERSIONED_SEEDS"
       ~seeds:[ 51; 52 ]
       ~replay:("deterministic replay of versioned faults", 51)
       ~salt:0x766572
       ~regions:
         [ (1, "crew", 2); (2, "crew", 2); (3, "versioned", 2);
           (4, "versioned", 2); (5, "versioned", 2) ])
    with
    workload =
      (fun cx ->
        let mvcc, crew = List.partition (fun rg -> rg.versioned) cx.regs in
        List.iter (versioned_ops cx) mvcc;
        List.iter (write_read cx) crew;
        let a1, a2 =
          match crew with
          | [ x; y ] -> if Kutil.Rng.bool cx.rng then (x, y) else (y, x)
          | _ -> assert false
        in
        run_txn cx ~coord:(pick_up cx) ~reads:[ a1 ] ~writes:[ a1; a2 ]);
  }

let legs = [ plain; disk; combined; twopc; versioned; shared ]

(* The oracle has teeth on real histories, not just the unit fixtures:
   take a passing combined run, append a fabricated stale read — an old
   value re-observed strictly after a later, non-overlapping committed
   write — and the checker must reject it with a minimized
   counterexample. *)
let test_combined_catches_injected_stale_read () =
  let { events; _ } = run_leg combined ~seed:1 in
  let writes : (Gaddr.t, (string * int * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (e : History.event) ->
      match e.History.e_op with
      | History.O_write { addr; value } when e.History.e_status = History.Ok_
        ->
        Hashtbl.replace writes addr
          ((value, e.History.e_invoke, e.History.e_return)
          :: Option.value (Hashtbl.find_opt writes addr) ~default:[])
      | _ -> ())
    events;
  let stale =
    Hashtbl.fold
      (fun addr ws acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let ws =
            List.sort (fun (_, i1, _) (_, i2, _) -> compare i1 i2) ws
          in
          let rec find = function
            | (v1, _, r1) :: ((_, i2, _) :: _ as rest) ->
              if r1 < i2 then Some (addr, v1) else find rest
            | _ -> None
          in
          find ws)
      writes None
  in
  match stale with
  | None -> Alcotest.fail "combined run produced no sequential write pair"
  | Some (addr, v1) ->
    let horizon =
      List.fold_left
        (fun m (e : History.event) ->
          if e.History.e_return < max_int then max m e.History.e_return else m)
        0 events
    in
    let fake =
      {
        History.e_proc = 99;
        e_id = 0;
        e_invoke = horizon + 1_000;
        e_return = horizon + 2_000;
        e_op = History.O_read { addr; len = 8; value = Some v1 };
        e_status = History.Ok_;
      }
    in
    let report = Check.analyze ~init:zero_init (events @ [ fake ]) in
    if Check.passed report then
      Alcotest.fail "checker accepted an injected stale read";
    let s = Check.summary report in
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "counterexample names the violation" true
      (contains "NOT LINEARIZABLE")

(* ---------------- Directed: shared read locks in 2PL ------------------ *)

(* Two transactions on different nodes must hold read locks on the same
   range at the same time (CREW: concurrent readers). Before the shared
   read path, [txn_read] took a write lock, so reader B would block until
   reader A committed — the in-body flag catches exactly that. *)
let test_txn_readers_share_locks () =
  let sys = mk ~seed:41 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (bytes_s "original"));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let c2 = System.client sys 2 () in
  let c3 = System.client sys 3 () in
  let b_read = ref false in
  let a_saw_b = ref false in
  let a_done = ref false and b_done = ref false in
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      (match
         Client.txn c2 (fun txn ->
             match Client.txn_read c2 txn ~addr:region.Region.base ~len:8 with
             | Error _ as e -> e
             | Ok _ ->
               (* Hold the read lock until B's read completes (bounded). *)
               let rec wait k =
                 if (not !b_read) && k > 0 then begin
                   Ksim.Fiber.sleep (Ksim.Time.ms 100);
                   wait (k - 1)
                 end
               in
               wait 50;
               a_saw_b := !b_read;
               Ok ())
       with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "reader A failed: %s" (Daemon.error_to_string e));
      a_done := true);
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      (* A head start for A, so A owns the read lock first. *)
      Ksim.Fiber.sleep (Ksim.Time.ms 200);
      (match
         Client.txn c3 (fun txn ->
             match Client.txn_read c3 txn ~addr:region.Region.base ~len:8 with
             | Error _ as e -> e
             | Ok b ->
               Alcotest.(check string) "reader B sees the data" "original"
                 (Bytes.to_string b);
               b_read := true;
               Ok ())
       with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "reader B failed: %s" (Daemon.error_to_string e));
      b_done := true);
  System.run_until_quiet ~limit:(Ksim.Time.sec 30) sys;
  Alcotest.(check bool) "both read-only transactions committed" true
    (!a_done && !b_done);
  Alcotest.(check bool)
    "B's read completed while A still held its read lock" true !a_saw_b

(* The read→write upgrade rule: A reads under a shared lock, then writes
   the same range while a competing plain writer is queued. Whichever way
   the release-reacquire race lands, validation guarantees no lost
   update: either A reacquires first (B's write follows A's commit) or B
   sneaks in and A's upgrade aborts with [`Conflict]. The recorded
   history must stay linearizable either way. *)
let test_txn_upgrade_validates () =
  let sys = mk ~seed:43 () in
  let clients = Array.init node_count (fun n -> System.client sys n ()) in
  let ring = instrument sys clients in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 () in
        let r = ok (Client.create_region clients.(1) ~attr 4096) in
        ok (Client.write_bytes clients.(1) ~addr:r.Region.base (bytes_s "original"));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  let addr = region.Region.base in
  let a_result = ref None in
  let b_acked = ref false in
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      a_result :=
        Some
          (Client.txn clients.(2) (fun txn ->
               match Client.txn_read clients.(2) txn ~addr ~len:8 with
               | Error _ as e -> e
               | Ok _ ->
                 (* Window for B to queue its write-lock request. *)
                 Ksim.Fiber.sleep (Ksim.Time.ms 500);
                 Client.txn_write clients.(2) txn ~addr (bytes_s "txn-aaaa"))));
  Ksim.Fiber.spawn (System.engine sys) (fun () ->
      Ksim.Fiber.sleep (Ksim.Time.ms 100);
      match Client.write_bytes clients.(3) ~addr (bytes_s "sneaky!!") with
      | Ok () -> b_acked := true
      | Error _ -> ());
  System.run_until_quiet ~limit:(Ksim.Time.sec 30) sys;
  Alcotest.(check bool) "plain writer eventually acked" true !b_acked;
  let final =
    Bytes.to_string
      (System.run_fiber sys (fun () ->
           ok (Client.read_bytes clients.(0) ~addr 8)))
  in
  (match !a_result with
  | Some (Ok ()) ->
    (* A reacquired first: serial order A then B, B's later write wins. *)
    Alcotest.(check string) "B's write is final" "sneaky!!" final
  | Some (Error (`Conflict _)) ->
    (* B won the upgrade window: validation refused A's stale read. *)
    Alcotest.(check string) "B's write survived" "sneaky!!" final
  | Some (Error e) ->
    Alcotest.failf "unexpected upgrade outcome: %s" (Daemon.error_to_string e)
  | None -> Alcotest.fail "transaction never finished");
  ignore (assert_history_ok ~what:"upgrade contention" ring)

(* ------------- Directed: Tx_prepare into an unreachable peer ---------- *)

(* The participant is crashed and already suspected when the transaction
   starts, so the coordinator's Tx_prepare fan-out hits fail-fast
   [`Unreachable] instead of a vote timeout (the real-socket twin of this
   case lives in test_transport.ml and khazanad --chaos). Presumed abort:
   the client sees an abort-class error, nothing becomes visible, no page
   stays pinned, nobody is left in limbo. *)
let test_2pc_unreachable_participant () =
  let sys = mk ~seed:151 () in
  let c1 = System.client sys 1 () in
  let c2 = System.client sys 2 () in
  let a, b =
    System.run_fiber sys (fun () ->
        let ra = ok (Client.create_region c1 4096) in
        let rb = ok (Client.create_region c2 4096) in
        ok (Client.write_bytes c1 ~addr:ra.Region.base (bytes_s "old-a"));
        ok (Client.write_bytes c2 ~addr:rb.Region.base (bytes_s "old-b"));
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  System.crash sys 1;
  (* Let gossip suspicion mark node 1 down (threshold 1.5 s). *)
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  let c3 = System.client sys 3 () in
  let outcome =
    System.run_fiber ~name:"2pc-unreachable" sys (fun () ->
        Client.txn c3 (fun txn -> txn_write_both c3 txn a b "new-a" "new-b"))
  in
  (match outcome with
  | Ok () -> Alcotest.fail "committed with a participant unreachable"
  | Error (`Conflict _ | `Unavailable _ | `Timeout | `Unreachable) -> ()
  | Error e ->
    Alcotest.failf "unexpected error class: %s" (Daemon.error_to_string e));
  (* Presumed abort resolved it: no prepared images, no orphaned pins. *)
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  List.iter
    (fun n ->
      if Daemon.is_up (System.daemon sys n) then begin
        Alcotest.(check int)
          (Printf.sprintf "node %d limbo drained" n)
          0
          (Daemon.txn_prepared_count (System.daemon sys n));
        Alcotest.(check int)
          (Printf.sprintf "node %d has no orphaned pins" n)
          0
          (Store.pinned_pages (Daemon.store (System.daemon sys n)))
      end)
    (List.init node_count Fun.id);
  System.recover sys 1;
  System.run_until_quiet ~limit:(Ksim.Time.sec 40) sys;
  let c4 = System.client sys 4 () in
  Alcotest.(check string) "a untouched" "old-a" (read_settled sys c4 ~addr:a);
  Alcotest.(check string) "b untouched" "old-b" (read_settled sys c4 ~addr:b);
  (* And the fleet still commits. *)
  System.run_fiber sys (fun () ->
      ok (Client.txn c4 (fun txn -> txn_write_both c4 txn a b "fin-a" "fin-b")));
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  Alcotest.(check string) "follow-up committed (a)" "fin-a"
    (read_settled sys c4 ~addr:a);
  Alcotest.(check string) "follow-up committed (b)" "fin-b"
    (read_settled sys c4 ~addr:b)

(* Same seed, same run: the repro lines the sweeps print are only useful
   if every schedule, the full multi-fault one included, replays bit for
   bit from its seed. *)
let test_replay leg () =
  let seed = snd leg.replay in
  let a = (run_leg leg ~seed).fingerprint in
  let b = (run_leg leg ~seed).fingerprint in
  Alcotest.(check string) "same seed, same run" a b

(* --------------------------- Harness --------------------------------- *)

let seeds_from_env var default =
  match Sys.getenv_opt var with
  | Some s ->
    let l = String.split_on_char ',' s |> List.filter_map int_of_string_opt in
    if l = [] then default else l
  | None -> default

(* A row's default seeds keep plain [dune runtest] bounded; CI widens each
   through the row's variable. *)
let sweep_group leg =
  ( leg.group,
    List.map
      (fun seed ->
        let name =
          if leg.disk_faults then
            Printf.sprintf "seed %d (%s)" seed (fault_profile_name seed)
          else Printf.sprintf "seed %d" seed
        in
        Alcotest.test_case name `Slow
          (with_repro ~group:leg.group ~env:leg.env ~seed (fun () ->
               ignore (run_leg leg ~seed))))
      (seeds_from_env leg.env leg.seeds) )

let () =
  Alcotest.run "nemesis"
    ([
      ( "directed",
        [
          Alcotest.test_case "replica floor after holder crash" `Quick
            test_floor_restored_after_holder_crash;
          Alcotest.test_case "concurrent writers single winner" `Quick
            test_concurrent_writers_single_winner;
          Alcotest.test_case "torn write recovered from WAL" `Quick
            test_torn_write_recovered_from_wal;
          Alcotest.test_case "crash mid-I/O recovers committed writes" `Quick
            test_crash_mid_io_recovers_committed_writes;
          Alcotest.test_case "post-recovery commits survive second crash"
            `Quick test_post_recovery_commits_survive_second_crash;
          Alcotest.test_case "crash mid-batched-acquire" `Quick
            test_crash_mid_batched_acquire;
          Alcotest.test_case "txn readers share locks" `Quick
            test_txn_readers_share_locks;
          Alcotest.test_case "txn read-to-write upgrade validates" `Quick
            test_txn_upgrade_validates;
        ]
        @ List.map
            (fun leg ->
              Alcotest.test_case (fst leg.replay) `Slow (test_replay leg))
            legs
        @ [
            Alcotest.test_case "checker catches injected stale read" `Slow
              test_combined_catches_injected_stale_read;
          ] );
      ( "2pc directed",
        List.map
          (fun (step, nth) ->
            Alcotest.test_case
              (Printf.sprintf "coordinator dies at %s" step)
              `Quick
              (run_2pc_crash ~victim:3 ~step ~nth))
          coord_steps
        @ List.map
            (fun (step, nth) ->
              Alcotest.test_case
                (Printf.sprintf "participant dies at %s" step)
                `Quick
                (run_2pc_crash ~victim:1 ~step ~nth))
            participant_steps
        @ [
            Alcotest.test_case "partition during prepare" `Quick
              test_2pc_partition_during_prepare;
            Alcotest.test_case "unreachable participant aborts cleanly" `Quick
              test_2pc_unreachable_participant;
            Alcotest.test_case "lost decide makes a later prepare vote no"
              `Quick test_2pc_lost_decide_votes_no;
            Alcotest.test_case "lost decide, then a plain write" `Quick
              test_2pc_lost_decide_then_plain_write;
            Alcotest.test_case "lost decide, resolved by status" `Quick
              test_2pc_lost_decide_resolved_by_status;
          ]
        @ List.map
            (fun step ->
              Alcotest.test_case
                (Printf.sprintf "kfs rename, renamer dies at %s" step)
                `Quick
                (run_kfs_rename_crash ~step))
            [ "coord.before_prepare"; "coord.all_acked";
              "coord.decision_logged"; "coord.decide_send" ] );
    ]
    @ List.map sweep_group legs)
