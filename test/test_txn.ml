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
            (Wire.Tx_decide { gtx; commit = true })
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
          Alcotest.test_case "unknown txid reads aborted" `Quick
            test_status_presumed_abort;
          Alcotest.test_case "in-doubt resolves after coordinator crash"
            `Quick test_in_doubt_resolves_after_coordinator_crash;
        ] );
      ( "integration",
        [
          Alcotest.test_case "trace reconstructs a transaction" `Quick
            test_trace_reconstructs_transaction;
          Alcotest.test_case "kfs rename is atomic" `Quick
            test_kfs_rename_is_atomic;
        ] );
    ]
