(* Distributed atomic transactions: 2PC over the WAL.

   Unit level: prepare/decide records drive replay classification
   (committed applies, aborted drops, undecided surfaces in limbo) and
   survive checkpoint truncation. System level: a transaction spanning
   regions homed at different nodes commits atomically, aborts leave no
   trace, duplicate decision delivery is a no-op, and an in-doubt
   participant resolves through the coordinator (presumed abort). *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Wire = Khazana.Wire
module Wal = Kstorage.Wal
module Gaddr = Kutil.Gaddr
module Txid = Kutil.Txid
module Metrics = Ktrace.Metrics
module Trace = Ktrace.Trace

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "daemon error: %s" (Daemon.error_to_string e)

let bytes_s = Bytes.of_string
let page n = Gaddr.of_int (n * 4096)
let counter d name =
  Option.value ~default:0
    (List.assoc_opt name (Metrics.counters (Daemon.metrics d)))

(* ------------------------------------------------------------------ *)
(* WAL unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let mk_wal () = Wal.create ~rng:(Kutil.Rng.create ~seed:7) ()

let gtx_a = Txid.make ~coord:3 ~epoch:1 ~seq:0
let gtx_b = Txid.make ~coord:3 ~epoch:1 ~seq:1

let prepare_pages w gtx pages =
  let tx = Wal.begin_tx w in
  List.iter (fun (p, img) -> Wal.log_page w tx p img) pages;
  Wal.prepare w tx gtx

let test_wal_prepare_decide_replay () =
  let w = mk_wal () in
  (* One prepared-committed, one prepared-aborted, one prepared-undecided. *)
  prepare_pages w gtx_a [ (page 1, bytes_s "commit-me") ];
  Wal.decide w gtx_a ~commit:true ~participants:[];
  prepare_pages w gtx_b [ (page 2, bytes_s "abort-me") ];
  Wal.decide w gtx_b ~commit:false ~participants:[];
  let gtx_c = Txid.make ~coord:4 ~epoch:2 ~seq:9 in
  prepare_pages w gtx_c [ (page 3, bytes_s "limbo") ];
  Wal.crash w;
  let r = Wal.replay w in
  let applied =
    List.filter_map
      (function Wal.Page (p, _) -> Some p | Wal.Note _ -> None)
      r.Wal.ops
  in
  Alcotest.(check bool) "committed image applies" true
    (List.exists (Gaddr.equal (page 1)) applied);
  Alcotest.(check bool) "aborted image dropped" false
    (List.exists (Gaddr.equal (page 2)) applied);
  Alcotest.(check bool) "undecided image not applied" false
    (List.exists (Gaddr.equal (page 3)) applied);
  (match r.Wal.in_doubt with
   | [ (g, [ Wal.Page (p, img) ]) ] ->
     Alcotest.(check bool) "in-doubt id" true (Txid.equal g gtx_c);
     Alcotest.(check bool) "in-doubt page" true (Gaddr.equal p (page 3));
     Alcotest.(check string) "in-doubt image" "limbo" (Bytes.to_string img)
   | _ -> Alcotest.fail "expected exactly one in-doubt transaction");
  (* Decision records surface, in log order, with participants. *)
  Alcotest.(check int) "two decisions" 2 (List.length r.Wal.decisions)

let test_wal_checkpoint_carries_in_doubt () =
  let w = mk_wal () in
  prepare_pages w gtx_a [ (page 1, bytes_s "settled") ];
  Wal.decide w gtx_a ~commit:true ~participants:[];
  let gtx_c = Txid.make ~coord:4 ~epoch:2 ~seq:9 in
  prepare_pages w gtx_c [ (page 3, bytes_s "limbo") ];
  (* The checkpoint asserts the disk tier holds everything decided — but
     the undecided transaction's image lives only in the log and must ride
     across the truncation. *)
  Wal.checkpoint w (bytes_s "snap");
  Wal.crash w;
  let r = Wal.replay w in
  Alcotest.(check (option string)) "snapshot survives" (Some "snap")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check bool) "decided tx truncated" true
    (List.for_all
       (function Wal.Page (p, _) -> not (Gaddr.equal p (page 1)) | _ -> true)
       r.Wal.ops);
  (match r.Wal.in_doubt with
   | [ (g, _) ] ->
     Alcotest.(check bool) "in-doubt carried over" true (Txid.equal g gtx_c)
   | _ -> Alcotest.fail "in-doubt transaction lost by checkpoint");
  (* A decision arriving after the checkpoint settles it. *)
  Wal.decide w gtx_c ~commit:true ~participants:[];
  Wal.crash w;
  let r2 = Wal.replay w in
  Alcotest.(check int) "limbo emptied" 0 (List.length r2.Wal.in_doubt);
  Alcotest.(check bool) "late-decided image applies" true
    (List.exists
       (function Wal.Page (p, _) -> Gaddr.equal p (page 3) | _ -> false)
       r2.Wal.ops)

(* ------------------------------------------------------------------ *)
(* System-level transactions                                           *)
(* ------------------------------------------------------------------ *)

let mk ?(seed = 42) () = System.create ~seed ~nodes_per_cluster:6 ~clusters:1 ()

(* Two regions homed at different nodes (created from their own clients),
   pre-filled with "old-". *)
let two_regions sys =
  let c1 = System.client sys 1 () in
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      let ra = ok (Client.create_region c1 4096) in
      let rb = ok (Client.create_region c2 4096) in
      ok (Client.write_bytes c1 ~addr:ra.Region.base (bytes_s "old-a"));
      ok (Client.write_bytes c2 ~addr:rb.Region.base (bytes_s "old-b"));
      (ra.Region.base, rb.Region.base))

let read_pair sys node a b =
  let c = System.client sys node () in
  System.run_fiber sys (fun () ->
      let va = Bytes.to_string (ok (Client.read_bytes c ~addr:a 5)) in
      let vb = Bytes.to_string (ok (Client.read_bytes c ~addr:b 5)) in
      (va, vb))

let test_cross_node_commit () =
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
             Client.txn_write c3 txn ~addr:b (bytes_s "new-b"))));
  System.run_until_quiet sys;
  (* A fourth node sees both updates. *)
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a committed" "new-a" va;
  Alcotest.(check string) "region b committed" "new-b" vb;
  Alcotest.(check bool) "coordinator logged a commit" true
    (counter (System.daemon sys 3) "txn.commit" >= 1);
  (* The decision broadcast drains: nobody is left in doubt. *)
  List.iter
    (fun d ->
      Alcotest.(check int) "no prepared leftovers" 0
        (Daemon.txn_prepared_count d))
    (System.daemons sys)

let test_abort_leaves_no_trace () =
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  let r =
    System.run_fiber sys (fun () ->
        Client.txn c3 (fun txn ->
            let ( let* ) = Result.bind in
            let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
            let* () = Client.txn_write c3 txn ~addr:b (bytes_s "new-b") in
            Error `Access_denied))
  in
  (match r with
   | Error `Access_denied -> ()
   | Ok () -> Alcotest.fail "body error must abort"
   | Error e -> Alcotest.failf "wrong error: %s" (Daemon.error_to_string e));
  System.run_until_quiet sys;
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a untouched" "old-a" va;
  Alcotest.(check string) "region b untouched" "old-b" vb

let test_read_your_writes () =
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             (* Outside writes invisible, own writes visible, layered. *)
             let* v0 = Client.txn_read c3 txn ~addr:a ~len:5 in
             Alcotest.(check string) "pre-write read" "old-a"
               (Bytes.to_string v0);
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
             let* () =
               Client.txn_write c3 txn ~addr:(Gaddr.add_int a 4) (bytes_s "X")
             in
             let* v1 = Client.txn_read c3 txn ~addr:a ~len:5 in
             Alcotest.(check string) "buffered writes overlay, newest wins"
               "new-X" (Bytes.to_string v1);
             let* v2 = Client.txn_read c3 txn ~addr:b ~len:5 in
             Alcotest.(check string) "other region unbuffered" "old-b"
               (Bytes.to_string v2);
             Ok ())));
  System.run_until_quiet sys;
  let va, _ = read_pair sys 4 a b in
  Alcotest.(check string) "commit made overlay durable" "new-X" va

(* Locks are per page but contexts cover byte ranges: a write wider than
   the range read, a write elsewhere on the same page and a read past
   every written range all land on a page the transaction already holds,
   and must merge into one Write context instead of locking it again. *)
let test_wider_ranges_on_a_held_page () =
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  let at n = Gaddr.add_int a n in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             let* _ = Client.txn_read c3 txn ~addr:a ~len:5 in
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "wider-a") in
             let* () = Client.txn_write c3 txn ~addr:(at 100) (bytes_s "far") in
             let* v = Client.txn_read c3 txn ~addr:(at 200) ~len:3 in
             Alcotest.(check string) "unwritten bytes" "\000\000\000"
               (Bytes.to_string v);
             Ok ())));
  System.run_until_quiet sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      Alcotest.(check string) "wider write committed" "wider-a"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:a 7)));
      Alcotest.(check string) "same-page write committed" "far"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:(at 100) 3))));
  let _, vb = read_pair sys 4 a b in
  Alcotest.(check string) "other region untouched" "old-b" vb

let test_empty_txn_commits () =
  let sys = mk () in
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      ok (Client.txn c3 (fun _txn -> Ok ())))

let test_duplicate_decide_is_noop () =
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
             Client.txn_write c3 txn ~addr:b (bytes_s "new-b"))));
  System.run_until_quiet sys;
  let gtx =
    match Daemon.last_txid (System.daemon sys 3) with
    | Some g -> g
    | None -> Alcotest.fail "coordinator minted no txid"
  in
  (* Replay the decision straight at participant 1, twice. The [Policy.
     idempotent] preset exists exactly because delivery may duplicate. *)
  let redeliver () =
    System.run_fiber sys (fun () ->
        match
          Wire.Transport.call (System.transport sys) ~src:3 ~dst:1
            ~policy:Wire.Policy.idempotent ~span:0
            (Wire.Tx_decide { gtx; commit = true; flushed = [] })
        with
        | Ok Wire.R_unit -> ()
        | Ok _ -> Alcotest.fail "unexpected response"
        | Error _ -> Alcotest.fail "duplicate decide failed")
  in
  redeliver ();
  redeliver ();
  System.run_until_quiet sys;
  let d1 = System.daemon sys 1 in
  Alcotest.(check bool) "duplicates counted as such" true
    (counter d1 "txn.decide.dup" >= 2);
  Alcotest.(check int) "decision applied exactly once" 1
    (counter d1 "txn.decide.commit");
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "data unchanged by duplicates" "new-a" va;
  Alcotest.(check string) "data unchanged by duplicates" "new-b" vb

(* A remote CREW participant gets one message per phase: its decide
   carries the write-through, so no separate flush follows it. The home's
   manager backup then holds the committed image, which a read serves
   once the coordinator (the page's owner) is gone. *)
let test_write_through_rides_decide () =
  let sys = mk () in
  let a, _ = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () in
  let kinds () = (Wire.Transport.stats (System.transport sys)).by_kind in
  let before = kinds () in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             Client.txn_write c3 txn ~addr:a (bytes_s "new-a"))));
  let after = kinds () in
  let sent kind =
    let n l = Option.value (List.assoc_opt kind l) ~default:0 in
    n after - n before
  in
  Alcotest.(check int) "one prepare" 1 (sent "tx_prepare");
  Alcotest.(check int) "one decide" 1 (sent "tx_decide");
  Alcotest.(check int) "no separate flush" 0 (sent "page_flush");
  System.crash sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      Alcotest.(check string) "home backup serves the commit" "new-a"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:a 5))))

(* The repair loop's re-send of a lost decide carries the write-through
   the first decide did, so the home absorbs the commit at its version and
   readers see it. A later commit of the same page stands past
   [txn_resolve_after]: nothing writes the older image back over it. *)
let test_later_commit_after_resent_decide () =
  let sys = mk () in
  let a, _ = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () in
  let d1 = System.daemon sys 1 and d3 = System.daemon sys 3 in
  let commit v =
    System.run_fiber sys (fun () ->
        ok
          (Client.txn c3 (fun txn ->
               Client.txn_write c3 txn ~addr:a (bytes_s v))))
  in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" then
           System.partition sys [ 1 ] [ 0; 2; 3; 4; 5 ]));
  commit "one-a";
  Daemon.set_txn_hook d3 None;
  System.heal sys;
  System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
  Alcotest.(check int) "decision re-sent" 0
    (Daemon.txn_undelivered_decisions d3);
  Alcotest.(check int) "home applied the re-sent decision" 1
    (counter d1 "txn.decide.commit");
  let read_a n =
    let c = System.client sys n () in
    System.run_fiber sys (fun () ->
        Bytes.to_string (ok (Client.read_bytes c ~addr:a 5)))
  in
  Alcotest.(check string) "home reads the first commit" "one-a" (read_a 1);
  commit "two-a";
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "later commit stands at node %d" n)
        "two-a" (read_a n))
    [ 1; 4 ]

(* Every lock is held until the decides are out. A versioned region has
   no write-through: it propagates at release, by publishing at its home,
   after the decide installed the same image there. The commit reads back
   from another node, and a plain write made after it stands. *)
let test_versioned_write_then_plain_write () =
  let sys = mk () in
  let c1 = System.client sys 1 () and c3 = System.client sys 3 () in
  let a, b =
    System.run_fiber sys (fun () ->
        let attr = Khazana.Attr.make ~protocol:"versioned" ~owner:1 () in
        let ra = ok (Client.create_region c1 ~attr 4096) in
        let rb = ok (Client.create_region (System.client sys 2 ()) 4096) in
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet sys;
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "txn-a") in
             Client.txn_write c3 txn ~addr:b (bytes_s "txn-b"))));
  System.run_until_quiet ~limit:(Ksim.Time.ms 300) sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      Alcotest.(check string) "the commit reads back" "txn-a"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:a 5)));
      ok (Client.write_bytes c4 ~addr:a (bytes_s "later")));
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  System.run_fiber sys (fun () ->
      Alcotest.(check string) "plain write after the commit stands" "later"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:a 5))))

let write_both c txn a b va vb =
  let ( let* ) = Result.bind in
  let* () = Client.txn_write c txn ~addr:a (bytes_s va) in
  Client.txn_write c txn ~addr:b (bytes_s vb)

(* The commit decision is on record from the moment it is logged, while
   the commit fiber is still sending it. A checkpoint then (here while
   the decide to participant 1 is lost) drops the [Decide] record, so its
   snapshot must carry the decision: a coordinator that crashes next
   still answers "committed" to the participant left in doubt. *)
let test_checkpoint_during_delivery () =
  let sys = mk () in
  let a, b = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () and d3 = System.daemon sys 3 in
  let sends = ref 0 in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" then begin
           incr sends;
           if !sends = 1 then System.partition sys [ 1 ] [ 0; 2; 3; 4; 5 ]
           else Daemon.checkpoint d3
         end));
  System.run_fiber sys (fun () ->
      ok (Client.txn c3 (fun txn -> write_both c3 txn a b "new-a" "new-b")));
  Daemon.set_txn_hook d3 None;
  Alcotest.(check int) "participant 1 in doubt" 1
    (Daemon.txn_prepared_count (System.daemon sys 1));
  System.crash sys 3;
  System.heal sys;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 30) sys;
  let d1 = System.daemon sys 1 in
  Alcotest.(check int) "participant 1 resolved" 0
    (Daemon.txn_prepared_count d1);
  Alcotest.(check int) "participant 1 committed" 1
    (counter d1 "txn.decide.commit");
  Alcotest.(check int) "participant 1 never aborted" 0
    (counter d1 "txn.decide.abort");
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a committed" "new-a" va;
  Alcotest.(check string) "region b committed" "new-b" vb

(* Two transactions over the same pages of two homes, from one
   coordinator: the second waits on the first's locks until every decide
   is out, so its prepare never meets the first still undecided at a
   participant, and both commit. *)
let test_same_pages_one_coordinator () =
  let sys = mk () in
  let a, b = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () in
  let engine = System.engine sys in
  let r1, r2 =
    System.run_fiber sys (fun () ->
        let run va vb =
          Ksim.Fiber.async engine (fun () ->
              Client.txn c3 (fun txn -> write_both c3 txn a b va vb))
        in
        let p1 = run "one-a" "one-b" and p2 = run "two-a" "two-b" in
        (Ksim.Fiber.await p1, Ksim.Fiber.await p2))
  in
  ok r1;
  ok r2;
  System.run_until_quiet ~limit:(Ksim.Time.sec 10) sys;
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "last commit on a" "two-a" va;
  Alcotest.(check string) "last commit on b" "two-b" vb

(* A plain write made on the coordinator right after a commit waits for
   every decide. Had its flush reached a home ahead of the decide, a
   checkpoint there would carry the undecided prepare past the flush's
   page record, the decide would skip its now obsolete image, and replay
   after a crash would put the commit back over the acknowledged write.
   The coordinator, the only other holder of the page, crashes too, so
   the home serves what it replayed. *)
let test_plain_write_after_commit_survives_checkpoint () =
  let sys = mk () in
  let a, b = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () in
  let d2 = System.daemon sys 2 and d3 = System.daemon sys 3 in
  let plain = ref None in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" && !plain = None then begin
           plain := Some (Error `Timeout);
           Ksim.Fiber.spawn (System.engine sys) (fun () ->
               plain :=
                 Some (Client.write_bytes c3 ~addr:b (bytes_s "plain")))
         end));
  Daemon.set_txn_hook d2
    (Some (fun s -> if s = "part.decide_recv" then Daemon.checkpoint d2));
  System.run_fiber sys (fun () ->
      ok (Client.txn c3 (fun txn -> write_both c3 txn a b "txn-a" "txn-b")));
  System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
  Daemon.set_txn_hook d2 None;
  Daemon.set_txn_hook d3 None;
  (match !plain with
   | Some r -> ok r
   | None -> Alcotest.fail "plain write never ran");
  System.crash sys 3;
  System.crash sys 2;
  System.recover sys 2;
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      Alcotest.(check string) "home replays the plain write" "plain"
        (Bytes.to_string (ok (Client.read_bytes c4 ~addr:b 5))))

(* A region under another protocol has no write-through: its home commits
   the decided image as a write of its own, which its protocol propagates.
   The coordinator here dies after the decide to that home and before its
   own release, which would have propagated the same image, yet every
   node reads the commit once the system settles. A [release] home waits
   for the token the dead coordinator held. *)
let test_commit_without_write_through protocol () =
  let sys = mk () in
  let c1 = System.client sys 1 () and c3 = System.client sys 3 () in
  let a, b =
    System.run_fiber sys (fun () ->
        let attr = Khazana.Attr.make ~protocol ~owner:1 () in
        let ra = ok (Client.create_region c1 ~attr 4096) in
        let rb = ok (Client.create_region (System.client sys 2 ()) 4096) in
        (ra.Region.base, rb.Region.base))
  in
  System.run_until_quiet sys;
  let d3 = System.daemon sys 3 in
  let sends = ref 0 in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" then begin
           incr sends;
           if !sends = 2 then System.crash sys 3
         end));
  ignore
    (System.run_fiber sys (fun () ->
         Client.txn c3 (fun txn -> write_both c3 txn a b "txn-a" "txn-b")));
  Daemon.set_txn_hook d3 None;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 30) sys;
  List.iter
    (fun n ->
      let va, vb = read_pair sys n a b in
      Alcotest.(check string)
        (Printf.sprintf "node %d reads the %s commit" n protocol) "txn-a" va;
      Alcotest.(check string)
        (Printf.sprintf "node %d reads the crew commit" n) "txn-b" vb)
    [ 1; 4; 5 ]

(* A coordinator that crashes right after logging its decision sends no
   decide and loses its staged images; the homes only hold their prepared
   ones. Recovered, it re-sends the decision with the versions the record
   logged, so each home's manager backup takes the commit, and a read
   served around the dead owner's lost copy sees it at once. *)
let test_resend_after_crash_carries_versions () =
  let sys = mk () in
  let a, b = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () and d3 = System.daemon sys 3 in
  Daemon.set_txn_hook d3
    (Some (fun s -> if s = "coord.decision_logged" then System.crash sys 3));
  ok
    (System.run_fiber sys (fun () ->
         Client.txn c3 (fun txn -> write_both c3 txn a b "new-a" "new-b")));
  Daemon.set_txn_hook d3 None;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
  let d1 = System.daemon sys 1 in
  Alcotest.(check int) "participant 1 got the re-sent decision" 1
    (counter d1 "txn.decide.commit");
  Alcotest.(check int) "not by a status query" 0 (counter d1 "txn.resolve");
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a committed" "new-a" va;
  Alcotest.(check string) "region b committed" "new-b" vb

(* The same through a checkpoint: a decision still owed to participant 1
   (cut off at its decide) is in the coordinator's checkpoint snapshot
   with its versions, and a coordinator that crashes after the
   checkpoint re-sends them once it recovers. *)
let test_checkpointed_decision_carries_versions () =
  let sys = mk () in
  let a, b = two_regions sys in
  System.run_until_quiet sys;
  let c3 = System.client sys 3 () and d3 = System.daemon sys 3 in
  Daemon.set_txn_hook d3
    (Some
       (fun s ->
         if s = "coord.decide_send" then
           System.partition sys [ 1 ] [ 0; 2; 3; 4; 5 ]));
  ok
    (System.run_fiber sys (fun () ->
         Client.txn c3 (fun txn -> write_both c3 txn a b "new-a" "new-b")));
  Daemon.set_txn_hook d3 None;
  Daemon.checkpoint d3;
  System.crash sys 3;
  System.heal sys;
  System.recover sys 3;
  System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
  let d1 = System.daemon sys 1 in
  Alcotest.(check int) "participant 1 got the re-sent decision" 1
    (counter d1 "txn.decide.commit");
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a committed" "new-a" va;
  Alcotest.(check string) "region b committed" "new-b" vb

let test_status_presumed_abort () =
  let sys = mk () in
  let _ = two_regions sys in
  (* Ask node 3 (a would-be coordinator) about a transaction it never
     heard of: presumed abort says "aborted", never "maybe". *)
  let unknown = Txid.make ~coord:3 ~epoch:1 ~seq:99 in
  System.run_fiber sys (fun () ->
      match
        Wire.Transport.call (System.transport sys) ~src:4 ~dst:3
          ~policy:Wire.Policy.idempotent ~span:0
          (Wire.Tx_status { gtx = unknown })
      with
      | Ok (Wire.R_tx_status Wire.Tx_aborted) -> ()
      | Ok (Wire.R_tx_status _) -> Alcotest.fail "unknown txid must read aborted"
      | Ok _ -> Alcotest.fail "unexpected response"
      | Error _ -> Alcotest.fail "status query failed")

let test_in_doubt_resolves_after_coordinator_crash () =
  let sys = mk () in
  let a, b = two_regions sys in
  let d3 = System.daemon sys 3 in
  let c3 = System.client sys 3 () in
  (* Crash the coordinator the moment every participant has voted yes —
     before the decision is logged. Participants 1 and 2 are left prepared
     and in doubt. *)
  Daemon.set_txn_hook d3
    (Some (fun step -> if step = "coord.all_acked" then System.crash sys 3));
  let r =
    System.run_fiber sys (fun () ->
        Client.txn c3 (fun txn ->
            let ( let* ) = Result.bind in
            let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
            Client.txn_write c3 txn ~addr:b (bytes_s "new-b")))
  in
  Daemon.set_txn_hook d3 None;
  (match r with
   | Error (`Unavailable _) -> ()
   | Ok () -> Alcotest.fail "commit claimed without a logged decision"
   | Error e -> Alcotest.failf "wrong error: %s" (Daemon.error_to_string e));
  Alcotest.(check bool) "participants left in doubt" true
    (Daemon.txn_prepared_count (System.daemon sys 1) = 1
     || Daemon.txn_prepared_count (System.daemon sys 2) = 1);
  System.recover sys 3;
  (* Resolver nag fires after txn_resolve_after (3 s) and the recovered
     coordinator — which has no decision on record — answers aborted. *)
  System.run_until_quiet sys ~limit:(Ksim.Time.sec 30);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d limbo drained" n)
        0
        (Daemon.txn_prepared_count (System.daemon sys n)))
    [ 1; 2 ];
  let va, vb = read_pair sys 4 a b in
  Alcotest.(check string) "region a rolled back" "old-a" va;
  Alcotest.(check string) "region b rolled back" "old-b" vb

let test_trace_reconstructs_transaction () =
  Trace.reset ();
  let ring = Trace.Ring.create () in
  let sink = Trace.Ring.install ring in
  Fun.protect ~finally:(fun () -> Trace.uninstall sink) @@ fun () ->
  let sys = mk () in
  let a, b = two_regions sys in
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      ok
        (Client.txn c3 (fun txn ->
             let ( let* ) = Result.bind in
             let* () = Client.txn_write c3 txn ~addr:a (bytes_s "new-a") in
             Client.txn_write c3 txn ~addr:b (bytes_s "new-b"))));
  System.run_until_quiet sys;
  let gtx =
    match Daemon.last_txid (System.daemon sys 3) with
    | Some g -> Txid.to_string g
    | None -> Alcotest.fail "no txid"
  in
  let events =
    List.filter_map
      (function
        | Trace.Event { name; node; attrs; _ }
          when List.assoc_opt "txid" attrs = Some gtx -> Some (name, node)
        | _ -> None)
      (Trace.Ring.records ring)
  in
  let nodes_of name =
    List.sort_uniq compare
      (List.filter_map (fun (n, node) -> if n = name then Some node else None)
         events)
  in
  (* The transaction reconstructs from the sink: prepares at both
     participant homes, decisions at participants and coordinator. *)
  Alcotest.(check (list int)) "prepares at both homes" [ 1; 2 ]
    (nodes_of "txn.prepare");
  Alcotest.(check bool) "coordinator logged its decision" true
    (List.mem 3 (nodes_of "txn.decide"));
  Alcotest.(check bool) "participants applied the decision" true
    (List.mem 1 (nodes_of "txn.decide") && List.mem 2 (nodes_of "txn.decide"))

let test_kfs_rename_is_atomic () =
  (* Cross-directory rename rides Client.txn: directories created from
     different nodes live in regions with different homes, and the rename
     commits atomically across them. *)
  let sys = mk () in
  let c1 = System.client sys 1 () in
  let sb =
    System.run_fiber sys (fun () ->
        match Kfs.Fs.format c1 () with
        | Ok sb -> sb
        | Error e -> Alcotest.failf "format: %s" (Kfs.Fs.error_to_string e))
  in
  let fs_ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "kfs: %s" (Kfs.Fs.error_to_string e)
  in
  System.run_fiber sys (fun () ->
      let fs1 = fs_ok (Kfs.Fs.mount c1 sb) in
      fs_ok (Kfs.Fs.mkdir fs1 "/src");
      fs_ok (Kfs.Fs.create fs1 "/src/f");
      fs_ok (Kfs.Fs.write fs1 "/src/f" ~off:0 (bytes_s "payload")));
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      let fs2 = fs_ok (Kfs.Fs.mount c2 sb) in
      fs_ok (Kfs.Fs.mkdir fs2 "/dst"));
  let c3 = System.client sys 3 () in
  System.run_fiber sys (fun () ->
      let fs3 = fs_ok (Kfs.Fs.mount c3 sb) in
      fs_ok (Kfs.Fs.rename fs3 "/src/f" "/dst/g"));
  System.run_until_quiet sys;
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      let fs4 = fs_ok (Kfs.Fs.mount c4 sb) in
      Alcotest.(check bool) "gone from src" false (Kfs.Fs.exists fs4 "/src/f");
      Alcotest.(check bool) "present at dst" true (Kfs.Fs.exists fs4 "/dst/g");
      let data = fs_ok (Kfs.Fs.read fs4 "/dst/g" ~off:0 ~len:7) in
      Alcotest.(check string) "content intact" "payload" (Bytes.to_string data))

let () =
  Alcotest.run "txn"
    [
      ( "wal",
        [
          Alcotest.test_case "prepare/decide replay" `Quick
            test_wal_prepare_decide_replay;
          Alcotest.test_case "checkpoint carries in-doubt" `Quick
            test_wal_checkpoint_carries_in_doubt;
        ] );
      ( "commit",
        [
          Alcotest.test_case "cross-node atomic commit" `Quick
            test_cross_node_commit;
          Alcotest.test_case "abort leaves no trace" `Quick
            test_abort_leaves_no_trace;
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "wider ranges on a held page" `Quick
            test_wider_ranges_on_a_held_page;
          Alcotest.test_case "empty txn commits" `Quick test_empty_txn_commits;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "duplicate decide is a no-op" `Quick
            test_duplicate_decide_is_noop;
          Alcotest.test_case "write-through rides the decide" `Quick
            test_write_through_rides_decide;
          Alcotest.test_case "later commit after a re-sent decide" `Quick
            test_later_commit_after_resent_decide;
          Alcotest.test_case "versioned write, then a plain write" `Quick
            test_versioned_write_then_plain_write;
          Alcotest.test_case "checkpoint during decide delivery" `Quick
            test_checkpoint_during_delivery;
          Alcotest.test_case "same pages, one coordinator" `Quick
            test_same_pages_one_coordinator;
          Alcotest.test_case "plain write after commit survives checkpoint"
            `Quick test_plain_write_after_commit_survives_checkpoint;
          Alcotest.test_case "re-send after a crash carries versions" `Quick
            test_resend_after_crash_carries_versions;
          Alcotest.test_case "checkpointed decision carries versions" `Quick
            test_checkpointed_decision_carries_versions;
          Alcotest.test_case "unknown txid reads aborted" `Quick
            test_status_presumed_abort;
          Alcotest.test_case "in-doubt resolves after coordinator crash"
            `Quick test_in_doubt_resolves_after_coordinator_crash;
        ]
        @ List.map
            (fun protocol ->
              Alcotest.test_case
                (Printf.sprintf "%s commit, coordinator crash" protocol)
                `Quick
                (test_commit_without_write_through protocol))
            [ "versioned"; "eventual"; "wshared"; "release" ] );
      ( "integration",
        [
          Alcotest.test_case "trace reconstructs a transaction" `Quick
            test_trace_reconstructs_transaction;
          Alcotest.test_case "kfs rename is atomic" `Quick
            test_kfs_rename_is_atomic;
        ] );
    ]
