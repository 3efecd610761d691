(* khazanad — Khazana as real processes.

   Forks one OS process per node, each running a full daemon over the
   Unix-domain-socket link ({!Ktransport.Transport_unix}), and
   drives workloads against the fleet. Processes coordinate through files
   in a scratch directory (addresses, per-node results, flags), written
   atomically via rename.

   Two modes:

   - default (smoke): an E1-shaped workload — node 0 creates and writes a
     region, every other node cold-reads it (lock+fetch across real
     sockets), re-reads it warm (local replica), then write-locks it
     (invalidation across real sockets), plus a two-participant 2PC phase.
     Wall-clock numbers print next to the same workload on the simulated
     network, same daemon code — the whole point of the transport seam.

   - [--chaos]: a kill/restart/rejoin harness. Every node runs with a
     file-backed WAL. A victim worker streams sequenced, settled writes to
     a region it homes while a supervisor process SIGKILLs and SIGTERMs it
     in seeded rounds, restarting it each time with the same id and WAL
     file. The run validates, over real sockets: settled-write durability
     (WAL replay restores every acknowledged write), the CREW uniform-read
     invariant (no reader ever sees a torn or regressed payload), gossip
     suspicion and re-admission at the cluster manager, graceful SIGTERM
     shutdown (checkpoint + clean exit), and in-doubt 2PC resolution — the
     victim is hard-killed between logging its prepare and learning the
     decision, and must resolve the transaction after restart. *)

open Khazana
module Topology = Knet.Topology
module Sockets = Wire.Sockets
module Gaddr = Kutil.Gaddr

let ( / ) = Filename.concat

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("khazanad: " ^ s); exit 1) fmt

let ok = function
  | Ok v -> v
  | Error e -> fail "operation failed: %s" (Daemon.error_to_string e)

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (dir / f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* SIGKILL-then-reap every child still alive, so a timed-out run leaves no
   orphan daemons pumping sockets in the scratch directory. *)
let reap_children pids =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids

(* Pump the endpoint (so heartbeats and peer requests keep flowing) until
   a coordination file appears. On timeout, run [on_timeout] (the parent
   passes child-reaping + scratch-dir removal) before dying. *)
let wait_for_file ?(on_timeout = fun () -> ()) ep path ~deadline =
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    try Sockets.pump ~max_wait:0.01 ep
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if not (Sys.file_exists path) then begin
    on_timeout ();
    fail "timed out waiting for %s" path
  end

let timed_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1000.0)

(* ------------------------------------------------------------------ *)
(* Per-process node logic                                              *)
(* ------------------------------------------------------------------ *)

let region_len = 4096
let payload = 64

let make_daemon ?wal_file ~dir ~id topology =
  Ktrace.Trace.set_namespace id;
  let ep = Sockets.create ~dir ~id topology in
  let transport = Sockets.pack ep in
  let daemon =
    Daemon.create ?wal_file ~peer_managers:[ 0 ] ~id ~bootstrap:0
      ~cluster_manager:0 transport
  in
  (ep, daemon)

(* Node 0: bootstrap, publish the region, serve until every worker has
   reported, then raise the stop flag. *)
let run_bootstrap ~dir ~nodes ~children ~deadline topology =
  let ep, daemon = make_daemon ~dir ~id:0 topology in
  let on_timeout () = reap_children children; rm_rf dir in
  Sockets.run_fiber ep ~name:"bootstrap" (fun () -> Daemon.bootstrap_map daemon);
  let client = Client.connect daemon ~principal:0 in
  let region =
    Sockets.run_fiber ep ~name:"create-region" (fun () ->
        let r = ok (Client.create_region client region_len) in
        ok (Client.write_bytes client ~addr:r.Region.base (Bytes.make payload 'd'));
        r)
  in
  write_file_atomic (dir / "region.addr") (Kutil.U128.to_hex region.Region.base);
  let results = List.init (nodes - 1) (fun i -> dir / Printf.sprintf "result-%d" (i + 1)) in
  while
    (not (List.for_all Sys.file_exists results)) && Unix.gettimeofday () < deadline
  do
    Sockets.pump ~max_wait:0.01 ep
  done;
  if not (List.for_all Sys.file_exists results) then begin
    write_file_atomic (dir / "stop") "";
    on_timeout ();
    fail "timed out waiting for worker results"
  end;
  (* Workers are done measuring but still pumping (they block on the stop
     flag), so the fleet is quiet and every node still serves RPCs: run
     the atomic-commit phase now. Worker 1 published a region homed on
     itself; each transaction spans that region and ours — a real
     two-participant 2PC over the sockets. *)
  wait_for_file ~on_timeout ep (dir / "region1.addr") ~deadline;
  let r1base = Kutil.U128.of_hex (String.trim (read_file (dir / "region1.addr"))) in
  let txns = 10 in
  let txn_total = ref 0.0 in
  for n = 1 to txns do
    let fill = Bytes.make payload (Char.chr (Char.code 'a' + (n mod 16))) in
    let (), ms =
      timed_ms (fun () ->
          Sockets.run_fiber ep ~name:"txn" (fun () ->
              ok
                (Client.txn client (fun txn ->
                     match
                       Client.txn_write client txn ~addr:region.Region.base fill
                     with
                     | Error _ as e -> e
                     | Ok () -> Client.txn_write client txn ~addr:r1base fill))))
    in
    txn_total := !txn_total +. ms
  done;
  Printf.printf
    "2pc: %d two-participant atomic commits, wall-clock mean %.2f ms\n%!" txns
    (!txn_total /. float_of_int txns);
  write_file_atomic (dir / "stop") "";
  let rows =
    List.map
      (fun path ->
        match String.split_on_char ' ' (String.trim (read_file path)) with
        | [ node; cold; warm; write ] -> (node, cold, warm, write)
        | _ -> fail "malformed result file %s" path)
      results
  in
  Sockets.close ep;
  rows

(* Worker node: wait for the region, measure, report, wait for stop. *)
let run_worker ~dir ~id ~trials ~deadline topology =
  let ep, daemon = make_daemon ~dir ~id topology in
  wait_for_file ep (dir / "region.addr") ~deadline;
  let base = Kutil.U128.of_hex (String.trim (read_file (dir / "region.addr"))) in
  let client = Client.connect daemon ~principal:id in
  (* Worker 1 doubles as the second 2PC participant: it homes a region of
     its own and publishes the address for the bootstrap's txn phase. *)
  if id = 1 then begin
    let r1 =
      Sockets.run_fiber ep ~name:"create-region1" (fun () ->
          ok (Client.create_region client region_len))
    in
    write_file_atomic (dir / "region1.addr") (Kutil.U128.to_hex r1.Region.base)
  end;
  (* Workers run concurrently and all write the same page, so a read may
     see the initial fill or any single worker's write — but never a torn
     mix: CREW serialises writers against readers. *)
  let check b =
    let uniform =
      Bytes.length b = payload
      &&
      let c = Bytes.get b 0 in
      (c = 'd' || (c > 'a' && Char.code c <= Char.code 'a' + 16))
      && Bytes.for_all (Char.equal c) b
    in
    if not uniform then fail "node %d read torn bytes" id
  in
  let read_once () =
    let b =
      Sockets.run_fiber ep ~name:"read" (fun () ->
          ok (Client.read_bytes client ~addr:base payload))
    in
    check b;
    b
  in
  let _data, cold_ms = timed_ms read_once in
  let warm_total = ref 0.0 in
  for _ = 1 to trials do
    let _, ms = timed_ms read_once in
    warm_total := !warm_total +. ms
  done;
  let (), write_ms =
    timed_ms (fun () ->
        Sockets.run_fiber ep ~name:"write" (fun () ->
            ok (Client.write_bytes client ~addr:base (Bytes.make payload (Char.chr (Char.code 'a' + id))))))
  in
  write_file_atomic
    (dir / Printf.sprintf "result-%d" id)
    (Printf.sprintf "%d %.2f %.2f %.2f" id cold_ms
       (!warm_total /. float_of_int trials)
       write_ms);
  (* The parent raises the flag once every result is in — or at its own
     deadline; the cushion keeps a slow parent from stranding us. *)
  wait_for_file ep (dir / "stop") ~deadline:(deadline +. 10.0);
  Sockets.close ep;
  exit 0

(* ------------------------------------------------------------------ *)
(* The simulated twin: same workload, same daemon code, virtual clock.  *)
(* ------------------------------------------------------------------ *)

let simulated_rows ~nodes ~trials =
  let sys = System.create ~nodes_per_cluster:nodes ~clusters:1 () in
  let cw = System.client sys 0 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region cw region_len) in
        ok (Client.write_bytes cw ~addr:r.Region.base (Bytes.make payload 'd'));
        r)
  in
  let virt_ms f =
    let t0 = System.now sys in
    let v = System.run_fiber sys f in
    (v, Ksim.Time.to_ms_f (System.now sys - t0))
  in
  List.init (nodes - 1) (fun i ->
      let id = i + 1 in
      let c = System.client sys id () in
      let read_once () = ok (Client.read_bytes c ~addr:region.Region.base payload) in
      let _, cold = virt_ms read_once in
      let warm_total = ref 0.0 in
      for _ = 1 to trials do
        let _, ms = virt_ms read_once in
        warm_total := !warm_total +. ms
      done;
      let (), write_ms =
        virt_ms (fun () ->
            ok
              (Client.write_bytes c ~addr:region.Region.base
                 (Bytes.make payload (Char.chr (Char.code 'a' + id)))))
      in
      ( string_of_int id,
        Printf.sprintf "%.2f" cold,
        Printf.sprintf "%.2f" (!warm_total /. float_of_int trials),
        Printf.sprintf "%.2f" write_ms ))

(* ------------------------------------------------------------------ *)
(* Chaos mode: kill/restart/rejoin under a file-backed WAL.            *)
(* ------------------------------------------------------------------ *)

(* The victim's settled writes carry their sequence number eight times
   over as big-endian 64-bit words: any torn or mixed read is detectable
   (the words disagree), and any surviving read names exactly which write
   it observed. *)
let seq_payload seq =
  let b = Bytes.create payload in
  for i = 0 to 7 do
    Bytes.set_int64_be b (i * 8) (Int64.of_int seq)
  done;
  b

let seq_of_payload b =
  if Bytes.length b <> payload then None
  else begin
    let v = Bytes.get_int64_be b 0 in
    let uniform = ref true in
    for i = 1 to 7 do
      if Bytes.get_int64_be b (i * 8) <> v then uniform := false
    done;
    if !uniform then Some (Int64.to_int v) else None
  end

(* The in-doubt transaction's fill, written at this offset into both
   regions — off the victim's settled-write words but on the same page,
   so the prepared image and the settled stream interleave in one WAL. *)
let zoff = 1024
let zfill = Bytes.make payload 'Z'
let indoubt_exit = 40

module History = Kcheck.History

(* Every chaos process records its client operations into a jsonl shard
   ([hist-<proc>.jsonl]): invoke and return entries flushed per line, so a
   SIGKILL costs at most a torn final line — whose orphaned invoke then
   assembles as an ambiguous ("maybe applied") event. The supervisor
   concatenates the shards once the fleet has exited and rejects the run
   unless the merged history is linearizable per address and the
   transactions serialize. Shard timestamps are wall-clock nanoseconds:
   every process reads the same host clock, which is the real-time order
   the checker needs. Process ids must be unique per incarnation, so the
   victim's generation [gen] records as proc [1 + 100 * gen]. *)
let wall_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

let attach_history ~dir ~proc client =
  let path = dir / Printf.sprintf "hist-%d.jsonl" proc in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Client.set_history client
    (Some (History.recorder ~now:wall_ns ~proc (History.jsonl_sink oc)))

(* Chaos runs mutilate the real wire as well as the processes: the
   endpoint edge's seeded shim drops and duplicates frames bound for peers
   and jitters their departure, exactly as the simulated network's does.
   The RPC retry ladder absorbs the damage; the history checker owns the
   verdict on what it may not do. *)
let arm_chaos_faults ~id ep =
  Knet.Edge.set_frame_faults
    (Wire.Transport.faults (Sockets.pack ep))
    ~seed:(0xfaf + id) ~drop:0.02 ~duplicate:0.02 ~delay:0.002 ()

(* SIGTERM means graceful shutdown: the serve loops poll this flag and
   exit through [Daemon.shutdown] (WAL checkpoint) + [Sockets.close]. *)
let arm_sigterm () =
  let flag = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> flag := true));
  flag

let pump_quiet ?(max_wait = 0.01) ep =
  try Sockets.pump ~max_wait ep
  with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Re-read until the predicate accepts: a page pinned by an in-doubt
   prepare or a mid-restart home surfaces as transient errors or stale
   bytes, both of which must clear on their own. *)
let poll_read ep client ~addr ~len ~deadline ~what pred =
  let rec go () =
    match
      Sockets.run_fiber ep ~name:"poll-read" (fun () ->
          Client.read_bytes client ~addr len)
    with
    | Ok b when pred b -> b
    | Ok _ | Error _ ->
        if Unix.gettimeofday () > deadline then fail "timed out: %s" what;
        pump_quiet ~max_wait:0.05 ep;
        go ()
  in
  go ()

let graceful_exit ep daemon =
  Daemon.shutdown daemon;
  Sockets.close ep;
  exit 0

(* Chaos node 0: bootstrap + cluster manager. Publishes its gossip
   suspicion list for the supervisor, coordinates the in-doubt 2PC on
   request, and validates the victim's region over real sockets at the
   end of the run. *)
let run_chaos_manager ~dir ~deadline topology =
  let ep, daemon = make_daemon ~wal_file:(dir / "wal-0") ~dir ~id:0 topology in
  let term = arm_sigterm () in
  arm_chaos_faults ~id:0 ep;
  Sockets.run_fiber ep ~name:"bootstrap" (fun () -> Daemon.bootstrap_map daemon);
  let client = Client.connect daemon ~principal:0 in
  attach_history ~dir ~proc:0 client;
  let region =
    Sockets.run_fiber ep ~name:"create-region" (fun () ->
        ok (Client.create_region client region_len))
  in
  write_file_atomic (dir / "region.addr") (Kutil.U128.to_hex region.Region.base);
  let last_pub = ref 0.0 in
  let indoubt_ran = ref false in
  let validated = ref false in
  while not (!term || Sys.file_exists (dir / "stop")) do
    pump_quiet ep;
    let now = Unix.gettimeofday () in
    if now > deadline then fail "chaos manager: budget exhausted";
    if now -. !last_pub > 0.1 then begin
      last_pub := now;
      write_file_atomic (dir / "suspects-0")
        (String.concat " " (List.map string_of_int (Daemon.suspects daemon)))
    end;
    if (not !indoubt_ran) && Sys.file_exists (dir / "indoubt-req") then begin
      indoubt_ran := true;
      let r1base =
        Kutil.U128.of_hex (String.trim (read_file (dir / "region1.addr")))
      in
      (* Two-participant 2PC; the victim's txn hook hard-kills it between
         its prepare and the decision, so our commit point lands with the
         participant already dead. The decision is durable here — the
         repair loop and the victim's post-restart Tx_status query race to
         finish delivery. *)
      let res =
        Sockets.run_fiber ep ~name:"indoubt-txn" (fun () ->
            Client.txn client (fun txn ->
                match
                  Client.txn_write client txn
                    ~addr:(Gaddr.add_int region.Region.base zoff) zfill
                with
                | Error _ as e -> e
                | Ok () ->
                    Client.txn_write client txn ~addr:(Gaddr.add_int r1base zoff)
                      zfill))
      in
      write_file_atomic (dir / "indoubt-done")
        (match res with
        | Ok () -> "ok"
        | Error e -> "fail " ^ Daemon.error_to_string e)
    end;
    if (not !validated) && Sys.file_exists (dir / "validate") then begin
      validated := true;
      let settled = int_of_string (String.trim (read_file (dir / "validate"))) in
      let r1base =
        Kutil.U128.of_hex (String.trim (read_file (dir / "region1.addr")))
      in
      (* Uniform-read invariant, from the coordinator's seat: a fetch from
         the victim's latest incarnation must be whole and at least as new
         as every write the victim acknowledged before its last death. *)
      let b =
        poll_read ep client ~addr:r1base ~len:payload ~deadline
          ~what:"manager validation read" (fun b ->
            match seq_of_payload b with Some s -> s >= settled | None -> false)
      in
      let z =
        poll_read ep client ~addr:(Gaddr.add_int r1base zoff) ~len:payload
          ~deadline ~what:"manager in-doubt read" (Bytes.equal zfill)
      in
      ignore z;
      write_file_atomic (dir / "final-0")
        (Printf.sprintf "ok %d"
           (match seq_of_payload b with Some s -> s | None -> -1))
    end
  done;
  graceful_exit ep daemon

(* Chaos victim (node 1): homes a region and streams settled writes to it.
   Each write is acknowledged (hence WAL-committed at the home) before the
   settled marker advances, so the marker is a durability floor any
   restart must reach. Generation 0 additionally arms the in-doubt crash
   hook; restarts first self-validate replayed state. *)
let run_chaos_victim ~dir ~gen ~expect_indoubt ~deadline topology =
  let ep, daemon =
    make_daemon ~wal_file:(dir / "wal-1") ~dir ~id:1 topology
  in
  let term = arm_sigterm () in
  arm_chaos_faults ~id:(1 + (7 * gen)) ep;
  let client = Client.connect daemon ~principal:1 in
  attach_history ~dir ~proc:(1 + (100 * gen)) client;
  let settled_path = dir / "settled-1" in
  let settled () =
    if Sys.file_exists settled_path then
      int_of_string (String.trim (read_file settled_path))
    else 0
  in
  let r1base =
    if gen = 0 then begin
      wait_for_file ep (dir / "region.addr") ~deadline;
      let r1 =
        Sockets.run_fiber ep ~name:"create-region1" (fun () ->
            ok (Client.create_region client region_len))
      in
      write_file_atomic (dir / "region1.addr") (Kutil.U128.to_hex r1.Region.base);
      (* Die between Tx_prepare and Tx_decide: the vote is durable and
         sent, the decision has arrived but is neither logged nor applied.
         [Unix._exit] skips every OCaml cleanup — as hard as SIGKILL. *)
      Daemon.set_txn_hook daemon
        (Some
           (fun step -> if step = "part.decide_recv" then Unix._exit indoubt_exit));
      r1.Region.base
    end
    else
      Kutil.U128.of_hex (String.trim (read_file (dir / "region1.addr")))
  in
  let seq = ref (settled ()) in
  if gen = 0 then begin
    (* First write before declaring ready, so the page always holds a
       sequence payload and metadata records are synced behind it. *)
    incr seq;
    Sockets.run_fiber ep ~name:"settle" (fun () ->
        ok (Client.write_bytes client ~addr:r1base (seq_payload !seq)));
    write_file_atomic settled_path (string_of_int !seq)
  end
  else begin
    (* Restart: the WAL replay already ran inside [Daemon.create]. If the
       previous incarnation died in doubt, resolution must commit the
       prepared transaction first (the page is pinned until then). *)
    if expect_indoubt then
      ignore
        (poll_read ep client ~addr:(Gaddr.add_int r1base zoff) ~len:payload
           ~deadline:(Unix.gettimeofday () +. 25.0)
           ~what:"in-doubt transaction resolution after restart"
           (Bytes.equal zfill));
    let floor = settled () in
    let b =
      poll_read ep client ~addr:r1base ~len:payload
        ~deadline:(Unix.gettimeofday () +. 15.0)
        ~what:"victim self-check read after replay" (fun b ->
          seq_of_payload b <> None)
    in
    (match seq_of_payload b with
    | Some s when s >= floor ->
        (* Jump past every value an earlier incarnation may have written
           (including unacknowledged writes that landed anyway): the
           history checker matches reads to writes by value, so each
           write of the run must carry a distinct payload. *)
        seq := max s (gen * 1_000_000)
    | Some s ->
        fail "victim gen %d: replay lost settled writes (page seq %d < settled %d)"
          gen s floor
    | None -> assert false);
    if expect_indoubt then write_file_atomic (dir / "indoubt-ok-1") ""
  end;
  write_file_atomic (dir / Printf.sprintf "ready-1-%d" gen) "";
  let settle_every = 0.02 in
  let last = ref 0.0 in
  while not (!term || Sys.file_exists (dir / "stop")) do
    pump_quiet ep;
    if Unix.gettimeofday () > deadline +. 10.0 then
      fail "chaos victim: budget exhausted";
    let now = Unix.gettimeofday () in
    if now -. !last >= settle_every then begin
      last := now;
      incr seq;
      match
        (try
           Some
             (Sockets.run_fiber ep ~name:"settle" (fun () ->
                  Client.write_bytes client ~addr:r1base (seq_payload !seq)))
         with Unix.Unix_error (Unix.EINTR, _, _) -> None)
      with
      | Some (Ok ()) -> write_file_atomic settled_path (string_of_int !seq)
      | Some (Error _) | None ->
          (* Failed or interrupted: leave [seq] consumed. The write may
             have landed anyway (it is ambiguous in the history), so the
             number must never be written again with a fresh meaning. *)
          ()
    end
  done;
  graceful_exit ep daemon

(* Chaos observers (nodes >= 2): heartbeat members that give gossip a
   quorum to converge over. Node 2 repeats the final validation read, so
   the uniform-read check also runs from a node that never touched the
   region before. *)
let run_chaos_observer ~dir ~id ~deadline topology =
  let ep, daemon =
    make_daemon ~wal_file:(dir / Printf.sprintf "wal-%d" id) ~dir ~id topology
  in
  let term = arm_sigterm () in
  arm_chaos_faults ~id ep;
  let client = Client.connect daemon ~principal:id in
  attach_history ~dir ~proc:id client;
  let validated = ref false in
  while not (!term || Sys.file_exists (dir / "stop")) do
    pump_quiet ep;
    if Unix.gettimeofday () > deadline +. 10.0 then
      fail "chaos observer %d: budget exhausted" id;
    if
      (not !validated) && id = 2
      && Sys.file_exists (dir / "validate")
      && Sys.file_exists (dir / "region1.addr")
    then begin
      validated := true;
      let settled = int_of_string (String.trim (read_file (dir / "validate"))) in
      let r1base =
        Kutil.U128.of_hex (String.trim (read_file (dir / "region1.addr")))
      in
      let b =
        poll_read ep client ~addr:r1base ~len:payload ~deadline
          ~what:"observer validation read" (fun b ->
            match seq_of_payload b with Some s -> s >= settled | None -> false)
      in
      write_file_atomic (dir / "final-2")
        (Printf.sprintf "ok %d"
           (match seq_of_payload b with Some s -> s | None -> -1))
    end
  done;
  graceful_exit ep daemon

(* The chaos supervisor: not a node — forks the whole fleet (so restarts
   fork just as cleanly as first launches), then runs the schedule:
   in-doubt 2PC kill, then seeded SIGKILL/SIGTERM rounds, each with
   enough downtime for gossip suspicion to fire, then fleet-wide
   validation and a clean stop. *)
let run_chaos ~nodes ~seed ~rounds ~budget =
  if nodes < 3 then fail "--chaos needs at least 3 nodes";
  let dir =
    Filename.get_temp_dir_name ()
    / Printf.sprintf "khazanad-chaos-%d" (Unix.getpid ())
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let deadline = Unix.gettimeofday () +. budget in
  let topology = Topology.symmetric ~nodes_per_cluster:nodes ~clusters:1 in
  let rng = Kutil.Rng.create ~seed in
  let live : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let bail fmt =
    Printf.ksprintf
      (fun s ->
        reap_children (Hashtbl.fold (fun pid _ acc -> pid :: acc) live []);
        rm_rf dir;
        prerr_endline ("khazanad: " ^ s);
        exit 1)
      fmt
  in
  let spawn label f =
    match Unix.fork () with
    | 0 -> f ()
    | pid ->
        Hashtbl.replace live pid label;
        pid
  in
  let await ?(what = "") path =
    let what = if what = "" then path else what in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    if not (Sys.file_exists path) then bail "timed out waiting for %s" what
  in
  let await_pred what pred =
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.05
    done;
    if not (pred ()) then bail "timed out waiting until %s" what
  in
  let suspects () =
    if Sys.file_exists (dir / "suspects-0") then
      String.trim (read_file (dir / "suspects-0"))
      |> String.split_on_char ' '
      |> List.filter_map int_of_string_opt
    else []
  in
  (* Bounded reap: a process that ignores its signal is a bug, not a
     reason to hang the harness. *)
  let wait_exit pid ~label ~expect ~desc =
    let t0 = Unix.gettimeofday () in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Unix.gettimeofday () -. t0 > 15.0 then
            bail "%s did not exit within 15s" label
          else begin
            Unix.sleepf 0.02;
            go ()
          end
      | _, st ->
          Hashtbl.remove live pid;
          if not (expect st) then bail "%s exited unexpectedly (wanted %s)" label desc
    in
    go ()
  in
  let exited code st = st = Unix.WEXITED code in
  let killed st = st = Unix.WSIGNALED Sys.sigkill in
  Printf.printf
    "khazanad --chaos: %d processes, seed %d, %d kill rounds, sockets in %s\n%!"
    nodes seed rounds dir;
  let mgr = spawn "manager" (fun () -> run_chaos_manager ~dir ~deadline topology) in
  let observers =
    List.init (nodes - 2) (fun i ->
        let id = i + 2 in
        spawn
          (Printf.sprintf "observer-%d" id)
          (fun () -> run_chaos_observer ~dir ~id ~deadline topology))
  in
  let victim_gen = ref 0 in
  let victim =
    ref
      (spawn "victim-gen0" (fun () ->
           run_chaos_victim ~dir ~gen:0 ~expect_indoubt:false ~deadline topology))
  in
  let restart_victim ~expect_indoubt =
    incr victim_gen;
    let gen = !victim_gen in
    victim :=
      spawn
        (Printf.sprintf "victim-gen%d" gen)
        (fun () -> run_chaos_victim ~dir ~gen ~expect_indoubt ~deadline topology);
    await (dir / Printf.sprintf "ready-1-%d" gen)
      ~what:(Printf.sprintf "victim generation %d to rejoin" gen);
    await_pred "the manager re-admits the victim" (fun () ->
        not (List.mem 1 (suspects ())))
  in
  let ensure_downtime t_kill =
    (* Longer than the manager's suspicion threshold (1.5 s), so gossip
       must notice every death. *)
    let until = t_kill +. 2.6 in
    let now = Unix.gettimeofday () in
    if now < until then Unix.sleepf (until -. now);
    await_pred "the manager suspects the dead victim" (fun () ->
        List.mem 1 (suspects ()))
  in
  await (dir / "region1.addr");
  await (dir / "ready-1-0") ~what:"victim to come up";
  Unix.sleepf (0.4 +. Kutil.Rng.float rng 0.4);
  (* Phase 1: in-doubt 2PC. The victim dies between prepare and decide;
     the commit must survive its restart. *)
  write_file_atomic (dir / "indoubt-req") "";
  wait_exit !victim ~label:"in-doubt victim" ~expect:(exited indoubt_exit)
    ~desc:(Printf.sprintf "exit %d from the txn hook" indoubt_exit);
  let t_kill = Unix.gettimeofday () in
  await (dir / "indoubt-done") ~what:"coordinator to finish the in-doubt txn";
  (match String.trim (read_file (dir / "indoubt-done")) with
  | "ok" -> ()
  | other -> bail "in-doubt transaction failed at the coordinator: %s" other);
  ensure_downtime t_kill;
  restart_victim ~expect_indoubt:true;
  await (dir / "indoubt-ok-1") ~what:"in-doubt resolution after restart";
  Printf.printf "chaos: in-doubt 2PC resolved across kill -9 + restart\n%!";
  (* Phase 2: seeded kill/restart rounds, alternating hard and graceful. *)
  for round = 1 to rounds do
    Unix.sleepf (0.3 +. Kutil.Rng.float rng 0.5);
    let graceful = round mod 2 = 0 in
    Unix.kill !victim (if graceful then Sys.sigterm else Sys.sigkill);
    let t_kill = Unix.gettimeofday () in
    if graceful then
      wait_exit !victim ~label:"victim (SIGTERM)" ~expect:(exited 0)
        ~desc:"clean exit 0 after checkpoint"
    else
      wait_exit !victim ~label:"victim (SIGKILL)" ~expect:killed
        ~desc:"death by SIGKILL";
    ensure_downtime t_kill;
    restart_victim ~expect_indoubt:false;
    Printf.printf "chaos: round %d (%s) — killed, suspected, rejoined\n%!" round
      (if graceful then "SIGTERM" else "SIGKILL")
  done;
  (* Phase 3: fleet-wide validation, then a clean stop. *)
  let settled = int_of_string (String.trim (read_file (dir / "settled-1"))) in
  write_file_atomic (dir / "validate") (string_of_int settled);
  await (dir / "final-0") ~what:"manager validation";
  await (dir / "final-2") ~what:"observer validation";
  let final_seq path =
    match String.split_on_char ' ' (String.trim (read_file path)) with
    | [ "ok"; s ] -> int_of_string s
    | _ -> bail "validation failed: %s" path
  in
  let s0 = final_seq (dir / "final-0") and s2 = final_seq (dir / "final-2") in
  write_file_atomic (dir / "stop") "";
  wait_exit mgr ~label:"manager" ~expect:(exited 0) ~desc:"clean exit 0";
  List.iter
    (fun pid ->
      wait_exit pid ~label:"observer" ~expect:(exited 0) ~desc:"clean exit 0")
    observers;
  wait_exit !victim ~label:"victim" ~expect:(exited 0) ~desc:"clean exit 0";
  (* Every process has exited: merge the per-process history shards and
     run the linearizability / serializability checkers over the whole
     run. Region pages start zero-filled, so reads that beat the first
     write legitimately observe zeros. *)
  let shards =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 5
           && String.sub f 0 5 = "hist-"
           && Filename.check_suffix f ".jsonl")
    |> List.sort compare
  in
  let entries = List.concat_map (fun f -> History.read_jsonl (dir / f)) shards in
  let events = History.assemble entries in
  let report =
    Kcheck.Check.analyze ~init:(fun _ -> String.make payload '\000') events
  in
  if not (Kcheck.Check.passed report) then begin
    Format.eprintf "%a@." Kcheck.Check.pp report;
    bail "history check failed: %s" (Kcheck.Check.summary report)
  end;
  rm_rf dir;
  Printf.printf "chaos: %d shards, %s\n" (List.length shards)
    (Kcheck.Check.summary report);
  Printf.printf
    "ok: chaos run survived — %d settled writes floor, reads saw seq %d/%d, \
     %d restarts (1 in-doubt, %d rounds), every exit clean\n"
    settled s0 s2 (rounds + 1) rounds

(* ------------------------------------------------------------------ *)

let print_rows ~header rows =
  print_endline header;
  Printf.printf "  %-6s %14s %16s %12s\n" "node" "cold read (ms)" "warm mean (ms)" "write (ms)";
  List.iter
    (fun (node, cold, warm, write) ->
      Printf.printf "  %-6s %14s %16s %12s\n" node cold warm write)
    rows

let run_smoke ~nodes ~trials ~budget =
  if nodes < 2 then fail "--nodes must be at least 2";
  let dir =
    Filename.get_temp_dir_name ()
    / Printf.sprintf "khazanad-%d" (Unix.getpid ())
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let deadline = Unix.gettimeofday () +. budget in
  let topology = Topology.symmetric ~nodes_per_cluster:nodes ~clusters:1 in
  let children =
    List.init (nodes - 1) (fun i ->
        let id = i + 1 in
        match Unix.fork () with
        | 0 -> run_worker ~dir ~id ~trials ~deadline topology
        | pid -> pid)
  in
  Printf.printf "khazanad: %d processes, unix-domain sockets in %s\n%!" nodes dir;
  let rows = run_bootstrap ~dir ~nodes ~children ~deadline topology in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> fail "worker process %d failed" pid)
    children;
  print_rows ~header:"real processes (wall-clock):" rows;
  print_newline ();
  let sim = simulated_rows ~nodes ~trials in
  print_rows ~header:"simulated backend (virtual time, same workload):" sim;
  rm_rf dir;
  print_newline ();
  Printf.printf "ok: %d-process loopback workload completed\n" nodes

let () =
  let nodes = ref 3 and trials = ref 20 and budget = ref 50.0 in
  let chaos = ref false and seed = ref 1 and rounds = ref 2 in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "number of daemon processes (default 3)");
      ("--trials", Arg.Set_int trials, "warm reads per worker (default 20)");
      ("--budget", Arg.Set_float budget, "seconds before giving up (default 50)");
      ("--chaos", Arg.Set chaos, "run the kill/restart/rejoin chaos harness");
      ("--seed", Arg.Set_int seed, "chaos schedule seed (default 1)");
      ("--rounds", Arg.Set_int rounds, "chaos kill/restart rounds (default 2)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "khazanad: run a Khazana fleet as real processes over unix sockets";
  if !chaos then run_chaos ~nodes:!nodes ~seed:!seed ~rounds:!rounds ~budget:!budget
  else run_smoke ~nodes:!nodes ~trials:!trials ~budget:!budget
