(* khazanad — Khazana as real processes.

   Forks one OS process per node, each running a full daemon over the
   Unix-domain-socket link ({!Ktransport.Transport_unix}), and
   drives workloads against the fleet. Processes coordinate through files
   in a scratch directory (addresses, per-node results, flags), written
   atomically via rename.

   One supervisor runs both modes ({!with_fleet}): it makes the scratch
   directory, forks every node through one [spawn], waits for each
   expected exit through one bounded [reap], and, however it leaves —
   success, a failed check, a timeout, an uncaught exception — SIGKILLs
   and reaps every child still alive and removes the directory. Every
   wait, in the supervisor and in the nodes, is the one [poll] loop; a
   wait of the supervisor's also fails the run as soon as a child exits
   that was not expected to.

   - default (smoke): an E1-shaped workload — node 0 (the supervisor
     itself) creates and writes a region, every forked worker cold-reads
     it (lock+fetch across real sockets), re-reads it warm (local
     replica), then write-locks it (invalidation across real sockets),
     plus a two-participant 2PC phase. Wall-clock numbers print next to
     the same measurement on the simulated network, same daemon code —
     the whole point of the transport seam.

   - [--chaos]: a kill/restart/rejoin harness. The supervisor is not a
     node: it forks a manager, observers and a victim, each running the
     same chaos node loop with a file-backed WAL. The victim streams
     sequenced, settled writes to a region it homes while the supervisor
     SIGKILLs and SIGTERMs it in seeded rounds, restarting it each time
     with the same id and WAL file. The run validates, over real
     sockets: settled-write durability (WAL replay restores every
     acknowledged write), the CREW uniform-read invariant (no reader
     ever sees a torn or regressed payload), gossip suspicion and
     re-admission at the cluster manager, graceful SIGTERM shutdown
     (checkpoint + clean exit), and in-doubt 2PC resolution — the victim
     is hard-killed between logging its prepare and learning the
     decision, and must resolve the transaction after restart. *)

open Khazana
module Topology = Knet.Topology
module Sockets = Wire.Sockets
module Gaddr = Kutil.Gaddr
module History = Kcheck.History

let ( / ) = Filename.concat

(* Every failure raises: in a forked node it ends that process with
   exit 1, in the supervisor it first unwinds through the fleet's
   cleanup. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let ok = function
  | Ok v -> v
  | Error e -> fail "operation failed: %s" (Daemon.error_to_string e)

(* Print why the process is ending and exit: 1 for a failed check, 2
   (as OCaml's own handler would) for any other exception. A failure
   inside a fiber reaches us wrapped by the engine. *)
let rec die = function
  | Ksim.Fiber.Fiber_failure (_, e) -> die e
  | Failed s -> prerr_endline ("khazanad: " ^ s); exit 1
  | e -> prerr_endline ("khazanad: " ^ Printexc.to_string e); exit 2

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

(* Every coordination file holds one line; readers see it trimmed. *)
let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.trim s

let read_addr path = Kutil.U128.of_hex (read_file path)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (dir / f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* The one polling loop: retry [f] until it yields a value, [None] once
   [deadline] has passed. Between tries a node pumps its endpoint [ep] (so
   heartbeats and peer requests keep flowing); the supervisor, which has
   none, sleeps. *)
let poll ?ep ?(every = 0.01) ~deadline f =
  let rec go () =
    match f () with
    | Some _ as v -> v
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        (match ep with
        | Some ep -> (
            try Sockets.pump ~max_wait:every ep
            with Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | None -> Unix.sleepf every);
        go ()
  in
  go ()

let files_exist paths () =
  if List.for_all Sys.file_exists paths then Some () else None

(* A tick that runs [f] once, on the first turn after [path] appears. *)
let once_file path f =
  let fired = ref false in
  fun () ->
    if (not !fired) && Sys.file_exists path then begin
      fired := true;
      f ()
    end

(* ------------------------------------------------------------------ *)
(* The supervisor                                                      *)
(* ------------------------------------------------------------------ *)

type fleet = {
  dir : string;
  deadline : float;
  topology : Topology.t;
  live : (int, string) Hashtbl.t;  (* forked, not yet reaped: pid -> label *)
}

(* The one fork. The child never returns into the supervisor's code: it
   exits from here, so the cleanup [with_fleet] installs runs only in
   the supervisor. *)
let spawn fleet label f =
  match Unix.fork () with
  | 0 -> (
      match f () with () -> exit 0 | exception e -> die e)
  | pid ->
      Hashtbl.replace fleet.live pid label;
      pid

(* The one wait-and-reap. Bounded: a process that ignores its signal is
   a bug, not a reason to hang the harness. [None] while [pid] still
   runs after 15 s. *)
let reap fleet pid =
  let st =
    poll ~deadline:(Unix.gettimeofday () +. 15.0) (fun () ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> None
        | _, st -> Some st)
  in
  if st <> None then Hashtbl.remove fleet.live pid;
  st

let show = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s

let expect_exit fleet pid want =
  let label = Hashtbl.find fleet.live pid in
  match reap fleet pid with
  | Some st when st = want -> ()
  | Some st -> fail "%s exited unexpectedly: %s, wanted %s" label (show st) (show want)
  | None -> fail "%s did not exit within 15s" label

(* Wait for [f] as [poll] does, failing once [deadline] has passed. The
   supervisor passes its [fleet]: a child that exits while it waits for
   something else has failed, and so has the run, at once rather than
   when the budget runs out. *)
let await ?fleet ?ep ?every ~deadline ~what f =
  let check fleet =
    let exited =
      Hashtbl.fold
        (fun pid label acc ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> acc
          | _, st -> (pid, label, st) :: acc)
        fleet.live []
    in
    List.iter (fun (pid, _, _) -> Hashtbl.remove fleet.live pid) exited;
    match exited with
    | (_, label, st) :: _ -> fail "%s exited unexpectedly: %s" label (show st)
    | [] -> ()
  in
  match
    poll ?ep ?every ~deadline (fun () ->
        Option.iter check fleet;
        f ())
  with
  | Some v -> v
  | None -> fail "timed out waiting for %s" what

let cleanup fleet =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap fleet pid) with Unix.Unix_error _ -> ())
    (Hashtbl.fold (fun pid _ acc -> pid :: acc) fleet.live []);
  rm_rf fleet.dir

(* Run [body] as the supervisor of a fleet of [nodes] in a fresh scratch
   directory; [cleanup] runs on every way out, so no run leaves orphan
   daemons pumping sockets or a stale directory behind. *)
let with_fleet ~name ~nodes ~budget body =
  let dir =
    Filename.get_temp_dir_name () / Printf.sprintf "%s-%d" name (Unix.getpid ())
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let fleet =
    {
      dir;
      deadline = Unix.gettimeofday () +. budget;
      topology = Topology.symmetric ~nodes_per_cluster:nodes ~clusters:1;
      live = Hashtbl.create 8;
    }
  in
  Fun.protect ~finally:(fun () -> cleanup fleet) (fun () -> body fleet)

(* ------------------------------------------------------------------ *)
(* Per-process node logic                                              *)
(* ------------------------------------------------------------------ *)

let region_len = 4096
let payload = 64

(* A node's endpoint, its daemon, and one client acting as principal [id]. *)
let make_daemon ?wal_file fleet ~id =
  Ktrace.Trace.set_namespace id;
  let ep = Sockets.create ~dir:fleet.dir ~id fleet.topology in
  let transport = Sockets.pack ep in
  let daemon =
    Daemon.create ?wal_file ~peer_managers:[ 0 ] ~id ~bootstrap:0
      ~cluster_manager:0 transport
  in
  (ep, daemon, Client.connect daemon ~principal:id)

(* A region homed on the caller (inside a fiber), optionally filled. *)
let create_region ?fill client =
  let r = ok (Client.create_region client region_len) in
  Option.iter
    (fun c -> ok (Client.write_bytes client ~addr:r.Region.base (Bytes.make payload c)))
    fill;
  r.Region.base

(* Create a region on this node and publish its address at [path]. *)
let publish_region ?fill ep client path =
  let base =
    Sockets.run_fiber ep ~name:"create-region" (fun () -> create_region ?fill client)
  in
  write_file_atomic path (Kutil.U128.to_hex base);
  base

(* One transaction writing [fill] at [a] and at [b]: with the two in
   regions homed on different nodes, a two-participant 2PC. *)
let txn_both client a b fill =
  Client.txn client (fun txn ->
      match Client.txn_write client txn ~addr:a fill with
      | Error _ as e -> e
      | Ok () -> Client.txn_write client txn ~addr:b fill)

(* Run a fiber on this node; the wall-clock milliseconds it took. *)
let wall_ms ep f =
  let t0 = Unix.gettimeofday () in
  Sockets.run_fiber ep f;
  (Unix.gettimeofday () -. t0) *. 1000.0

(* The E1-shaped measurement each worker makes, over sockets and in
   virtual time alike: one cold read (lock + fetch from the home),
   [trials] warm reads (local replica), one write (invalidation), as one
   table row. [timed] runs a fiber and returns the milliseconds it took
   on that backend's clock. Workers all write the same page, so a read
   may see the initial fill or any single worker's write — but never a
   torn mix: CREW serialises writers against readers. *)
let measure ~timed client ~id ~base ~trials =
  let read_once () =
    timed (fun () ->
        let b = ok (Client.read_bytes client ~addr:base payload) in
        let uniform =
          Bytes.length b = payload
          &&
          let c = Bytes.get b 0 in
          (c = 'd' || (c > 'a' && Char.code c <= Char.code 'a' + 16))
          && Bytes.for_all (Char.equal c) b
        in
        if not uniform then fail "node %d read torn bytes" id)
  in
  let cold = read_once () in
  let warm_total = ref 0.0 in
  for _ = 1 to trials do
    warm_total := !warm_total +. read_once ()
  done;
  let write =
    timed (fun () ->
        ok
          (Client.write_bytes client ~addr:base
             (Bytes.make payload (Char.chr (Char.code 'a' + id)))))
  in
  Printf.sprintf "%-6d %14.2f %16.2f %12.2f" id cold
    (!warm_total /. float_of_int trials)
    write

(* Node 0, run by the supervisor itself: bootstrap, publish the region,
   serve until every worker has reported, run the 2PC phase, then raise
   the stop flag. *)
let run_bootstrap fleet ~nodes =
  let dir = fleet.dir and deadline = fleet.deadline in
  let ep, daemon, client = make_daemon fleet ~id:0 in
  Sockets.run_fiber ep ~name:"bootstrap" (fun () -> Daemon.bootstrap_map daemon);
  let base = publish_region ~fill:'d' ep client (dir / "region.addr") in
  let results =
    List.init (nodes - 1) (fun i -> dir / Printf.sprintf "result-%d" (i + 1))
  in
  (* Workers are done measuring but still pumping (they block on the stop
     flag), so the fleet is quiet and every node still serves RPCs: run
     the atomic-commit phase now. Worker 1 published a region homed on
     itself; each transaction spans that region and ours — a real
     two-participant 2PC over the sockets. *)
  await ~fleet ~ep ~deadline ~what:"worker results"
    (files_exist ((dir / "region1.addr") :: results));
  let r1base = read_addr (dir / "region1.addr") in
  let txns = 10 in
  let txn_total = ref 0.0 in
  for n = 1 to txns do
    let fill = Bytes.make payload (Char.chr (Char.code 'a' + (n mod 16))) in
    txn_total :=
      !txn_total
      +. wall_ms ep (fun () -> ok (txn_both client base r1base fill))
  done;
  Printf.printf
    "2pc: %d two-participant atomic commits, wall-clock mean %.2f ms\n%!" txns
    (!txn_total /. float_of_int txns);
  write_file_atomic (dir / "stop") "";
  Sockets.close ep;
  List.map read_file results

(* Worker node: wait for the region, measure, report, wait for stop. *)
let run_worker fleet ~id ~trials =
  let dir = fleet.dir and deadline = fleet.deadline in
  let ep, _, client = make_daemon fleet ~id in
  await ~ep ~deadline ~what:"region.addr" (files_exist [ dir / "region.addr" ]);
  let base = read_addr (dir / "region.addr") in
  (* Worker 1 doubles as the second 2PC participant: it homes a region of
     its own and publishes the address for the bootstrap's txn phase. *)
  if id = 1 then ignore (publish_region ep client (dir / "region1.addr"));
  write_file_atomic
    (dir / Printf.sprintf "result-%d" id)
    (measure ~timed:(wall_ms ep) client ~id ~base ~trials);
  (* The supervisor raises the flag after its 2PC phase, or kills us if it
     gives up first; the cushion keeps a slow supervisor from stranding
     us. *)
  await ~ep ~deadline:(deadline +. 10.0) ~what:"stop" (files_exist [ dir / "stop" ]);
  Sockets.close ep

(* The simulated twin: same measurement, same daemon code, virtual clock. *)
let simulated_rows ~nodes ~trials =
  let sys = System.create ~nodes_per_cluster:nodes ~clusters:1 () in
  let base =
    System.run_fiber sys (fun () -> create_region ~fill:'d' (System.client sys 0 ()))
  in
  let timed f =
    let t0 = System.now sys in
    System.run_fiber sys f;
    Ksim.Time.to_ms_f (System.now sys - t0)
  in
  List.init (nodes - 1) (fun i ->
      let id = i + 1 in
      measure ~timed (System.client sys id ()) ~id ~base ~trials)

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
  else
    let seq = Int64.to_int (Bytes.get_int64_be b 0) in
    if Bytes.equal b (seq_payload seq) then Some seq else None

(* The in-doubt transaction's fill, written at this offset into both
   regions — off the victim's settled-write words but on the same page,
   so the prepared image and the settled stream interleave in one WAL. *)
let zoff = 1024
let zfill = Bytes.make payload 'Z'
let has_zfill b = if Bytes.equal zfill b then Some () else None
let indoubt_exit = 40

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

(* Re-read until [accept] maps the bytes to a value: a page pinned by an
   in-doubt prepare or a mid-restart home surfaces as transient errors or
   stale bytes, both of which must clear on their own. *)
let read_until ep client ~addr ~deadline ~what accept =
  await ~ep ~every:0.05 ~deadline ~what (fun () ->
      match
        Sockets.run_fiber ep ~name:"poll-read" (fun () ->
            Client.read_bytes client ~addr payload)
      with
      | Ok b -> accept b
      | Error _ -> None)

(* The chaos node loop every role runs: a file-backed WAL, seeded frame
   faults and a history shard; SIGTERM means graceful shutdown — the loop
   polls the flag and exits through [Daemon.shutdown] (WAL checkpoint) +
   [Sockets.close]. [start] sets the role up and returns what it does on
   every turn of the loop. Generation [gen] (the victim's restarts) picks
   the history proc id and the frame-fault seed. The loop's budget keeps
   a cushion past the supervisor's deadline, so a slow supervisor cannot
   strand a node. *)
let chaos_node fleet ~id ~gen start =
  let ep, daemon, client =
    make_daemon ~wal_file:(fleet.dir / Printf.sprintf "wal-%d" id) fleet ~id
  in
  let term = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true));
  arm_chaos_faults ~id:(id + (7 * gen)) ep;
  attach_history ~dir:fleet.dir ~proc:(id + (100 * gen)) client;
  let tick = start ep daemon client in
  let stop = fleet.dir / "stop" in
  await ~ep ~deadline:(fleet.deadline +. 10.0)
    ~what:(Printf.sprintf "stop (node %d's budget exhausted)" id)
    (fun () -> if !term || Sys.file_exists stop then Some () else (tick (); None));
  Daemon.shutdown daemon;
  Sockets.close ep

(* Uniform-read invariant, checked from the coordinator's seat (node 0)
   and from node 2, which never touched the region before: once the
   supervisor posts the settled floor, a read of the victim's region must
   be whole and at least as new as every write the victim acknowledged
   before its last death, and the in-doubt transaction's fill must be
   there. *)
let validator fleet ep client ~id =
  let dir = fleet.dir and deadline = fleet.deadline in
  once_file (dir / "validate") (fun () ->
      let settled = int_of_string (read_file (dir / "validate")) in
      let r1base = read_addr (dir / "region1.addr") in
      let s =
        read_until ep client ~addr:r1base ~deadline
          ~what:(Printf.sprintf "node %d validation read" id) (fun b ->
            match seq_of_payload b with Some s when s >= settled -> Some s | _ -> None)
      in
      read_until ep client ~addr:(Gaddr.add_int r1base zoff) ~deadline
        ~what:(Printf.sprintf "node %d in-doubt read" id) has_zfill;
      write_file_atomic (dir / Printf.sprintf "final-%d" id) (string_of_int s))

(* Chaos node 0: bootstrap + cluster manager. Publishes its gossip
   suspicion list for the supervisor, coordinates the in-doubt 2PC on
   request, and validates the victim's region at the end of the run. *)
let manager fleet ep daemon client =
  let dir = fleet.dir in
  Sockets.run_fiber ep ~name:"bootstrap" (fun () -> Daemon.bootstrap_map daemon);
  let base = publish_region ep client (dir / "region.addr") in
  let last_pub = ref 0.0 in
  let indoubt =
    once_file (dir / "indoubt-req") (fun () ->
        let r1base = read_addr (dir / "region1.addr") in
        (* Two-participant 2PC; the victim's txn hook hard-kills it between
           its prepare and the decision, so our commit point lands with the
           participant already dead. The decision is durable here — the
           repair loop and the victim's post-restart Tx_status query race
           to finish delivery. *)
        let res =
          Sockets.run_fiber ep ~name:"indoubt-txn" (fun () ->
              txn_both client (Gaddr.add_int base zoff)
                (Gaddr.add_int r1base zoff) zfill)
        in
        write_file_atomic (dir / "indoubt-done")
          (match res with
          | Ok () -> "ok"
          | Error e -> "fail " ^ Daemon.error_to_string e))
  in
  let validate = validator fleet ep client ~id:0 in
  fun () ->
    let now = Unix.gettimeofday () in
    if now -. !last_pub > 0.1 then begin
      last_pub := now;
      write_file_atomic (dir / "suspects-0")
        (String.concat " " (List.map string_of_int (Daemon.suspects daemon)))
    end;
    indoubt ();
    validate ()

(* Chaos victim (node 1): homes a region and streams settled writes to it.
   Each write is acknowledged (hence WAL-committed at the home) before the
   settled marker advances, so the marker is a durability floor any
   restart must reach. Generation 0 additionally arms the in-doubt crash
   hook; restarts first self-validate replayed state, and generation 1,
   the restart after that hook fired, resolves the in-doubt transaction. *)
let victim fleet ~gen ep daemon client =
  let dir = fleet.dir and expect_indoubt = gen = 1 in
  let settled_path = dir / "settled-1" in
  let settled () =
    if Sys.file_exists settled_path then int_of_string (read_file settled_path) else 0
  in
  let r1base =
    if gen = 0 then begin
      await ~ep ~deadline:fleet.deadline ~what:"region.addr"
        (files_exist [ dir / "region.addr" ]);
      let base = publish_region ep client (dir / "region1.addr") in
      (* Die between Tx_prepare and Tx_decide: the vote is durable and
         sent, the decision has arrived but is neither logged nor applied.
         [Unix._exit] skips every OCaml cleanup — as hard as SIGKILL. *)
      Daemon.set_txn_hook daemon
        (Some (fun step -> if step = "part.decide_recv" then Unix._exit indoubt_exit));
      base
    end
    else read_addr (dir / "region1.addr")
  in
  let seq = ref (settled ()) in
  let settle () =
    incr seq;
    match
      try
        Some
          (Sockets.run_fiber ep ~name:"settle" (fun () ->
               Client.write_bytes client ~addr:r1base (seq_payload !seq)))
      with Unix.Unix_error (Unix.EINTR, _, _) -> None
    with
    | Some (Ok ()) ->
        write_file_atomic settled_path (string_of_int !seq);
        true
    | Some (Error _) | None ->
        (* Failed or interrupted: leave [seq] consumed. The write may
           have landed anyway (it is ambiguous in the history), so the
           number must never be written again with a fresh meaning. *)
        false
  in
  if gen = 0 then begin
    (* First write before declaring ready, so the page always holds a
       sequence payload and metadata records are synced behind it. *)
    if not (settle ()) then fail "victim: first settled write failed"
  end
  else begin
    (* Restart: the WAL replay already ran inside [Daemon.create]. If the
       previous incarnation died in doubt, resolution must commit the
       prepared transaction first (the page is pinned until then). *)
    if expect_indoubt then
      read_until ep client ~addr:(Gaddr.add_int r1base zoff)
        ~deadline:(Unix.gettimeofday () +. 25.0)
        ~what:"in-doubt transaction resolution after restart" has_zfill;
    let floor = settled () in
    let s =
      read_until ep client ~addr:r1base ~deadline:(Unix.gettimeofday () +. 15.0)
        ~what:"victim self-check read after replay" seq_of_payload
    in
    if s < floor then
      fail "victim gen %d: replay lost settled writes (page seq %d < settled %d)"
        gen s floor;
    (* Jump past every value an earlier incarnation may have written
       (including unacknowledged writes that landed anyway): the history
       checker matches reads to writes by value, so each write of the run
       must carry a distinct payload. *)
    seq := max s (gen * 1_000_000);
    if expect_indoubt then write_file_atomic (dir / "indoubt-ok-1") ""
  end;
  write_file_atomic (dir / Printf.sprintf "ready-1-%d" gen) "";
  let last = ref 0.0 in
  fun () ->
    let now = Unix.gettimeofday () in
    if now -. !last >= 0.02 then begin
      last := now;
      ignore (settle ())
    end

(* Fork chaos node [id]. Observers (nodes >= 2) are heartbeat members that
   give gossip a quorum to converge over; node 2 also repeats the final
   validation. *)
let spawn_chaos fleet ~id ~gen =
  let label, start =
    match id with
    | 0 -> ("manager", manager fleet)
    | 1 -> (Printf.sprintf "victim-gen%d" gen, victim fleet ~gen)
    | _ ->
        ( Printf.sprintf "observer-%d" id,
          fun ep _ client ->
            if id = 2 then validator fleet ep client ~id else fun () -> () )
  in
  spawn fleet label (fun () -> chaos_node fleet ~id ~gen start)

(* The chaos schedule: in-doubt 2PC kill, then seeded SIGKILL/SIGTERM
   rounds, each with enough downtime for gossip suspicion to fire, then
   fleet-wide validation and a clean stop. The supervisor forks every
   incarnation, so restarts fork just as cleanly as first launches. *)
let run_chaos ~nodes ~seed ~rounds ~budget =
  if nodes < 3 then fail "--chaos needs at least 3 nodes";
  with_fleet ~name:"khazanad-chaos" ~nodes ~budget @@ fun fleet ->
  let dir = fleet.dir and deadline = fleet.deadline in
  let rng = Kutil.Rng.create ~seed in
  let await_file what path =
    await ~fleet ~deadline ~what (files_exist [ path ])
  in
  let await_suspected what ~suspected =
    await ~fleet ~every:0.05 ~deadline ~what (fun () ->
        let suspects =
          if Sys.file_exists (dir / "suspects-0") then
            read_file (dir / "suspects-0")
            |> String.split_on_char ' ' |> List.filter_map int_of_string_opt
          else []
        in
        if List.mem 1 suspects = suspected then Some () else None)
  in
  Printf.printf
    "khazanad --chaos: %d processes, seed %d, %d kill rounds, sockets in %s\n%!"
    nodes seed rounds dir;
  let mgr = spawn_chaos fleet ~id:0 ~gen:0 in
  let observers =
    List.init (nodes - 2) (fun i -> spawn_chaos fleet ~id:(i + 2) ~gen:0)
  in
  let victim = ref (spawn_chaos fleet ~id:1 ~gen:0) in
  let restart_victim gen =
    victim := spawn_chaos fleet ~id:1 ~gen;
    await_file (Printf.sprintf "victim generation %d to rejoin" gen)
      (dir / Printf.sprintf "ready-1-%d" gen);
    await_suspected "the manager to re-admit the victim" ~suspected:false
  in
  let ensure_downtime t_kill =
    (* Longer than the manager's suspicion threshold (1.5 s), so gossip
       must notice every death. *)
    let until = t_kill +. 2.6 in
    let now = Unix.gettimeofday () in
    if now < until then Unix.sleepf (until -. now);
    await_suspected "the manager to suspect the dead victim" ~suspected:true
  in
  await_file "victim to come up" (dir / "ready-1-0");
  Unix.sleepf (0.4 +. Kutil.Rng.float rng 0.4);
  (* Phase 1: in-doubt 2PC. The victim dies between prepare and decide;
     the commit must survive its restart. *)
  write_file_atomic (dir / "indoubt-req") "";
  expect_exit fleet !victim (Unix.WEXITED indoubt_exit);
  let t_kill = Unix.gettimeofday () in
  await_file "coordinator to finish the in-doubt txn" (dir / "indoubt-done");
  (match read_file (dir / "indoubt-done") with
  | "ok" -> ()
  | other -> fail "in-doubt transaction failed at the coordinator: %s" other);
  ensure_downtime t_kill;
  restart_victim 1;
  await_file "in-doubt resolution after restart" (dir / "indoubt-ok-1");
  Printf.printf "chaos: in-doubt 2PC resolved across kill -9 + restart\n%!";
  (* Phase 2: seeded kill/restart rounds, alternating hard and graceful. *)
  for round = 1 to rounds do
    Unix.sleepf (0.3 +. Kutil.Rng.float rng 0.5);
    let graceful = round mod 2 = 0 in
    Unix.kill !victim (if graceful then Sys.sigterm else Sys.sigkill);
    let t_kill = Unix.gettimeofday () in
    (* SIGTERM must end in a checkpoint and a clean exit 0. *)
    expect_exit fleet !victim
      (if graceful then Unix.WEXITED 0 else Unix.WSIGNALED Sys.sigkill);
    ensure_downtime t_kill;
    restart_victim (round + 1);
    Printf.printf "chaos: round %d (%s) — killed, suspected, rejoined\n%!" round
      (if graceful then "SIGTERM" else "SIGKILL")
  done;
  (* Phase 3: fleet-wide validation, then a clean stop. *)
  let settled = int_of_string (read_file (dir / "settled-1")) in
  write_file_atomic (dir / "validate") (string_of_int settled);
  let final id =
    let path = dir / Printf.sprintf "final-%d" id in
    await_file (Printf.sprintf "node %d's validation" id) path;
    int_of_string (read_file path)
  in
  let s0 = final 0 in
  let s2 = final 2 in
  write_file_atomic (dir / "stop") "";
  List.iter
    (fun pid -> expect_exit fleet pid (Unix.WEXITED 0))
    ((mgr :: observers) @ [ !victim ]);
  (* Every process has exited: merge the per-process history shards and
     run the linearizability / serializability checkers over the whole
     run. Region pages start zero-filled, so reads that beat the first
     write legitimately observe zeros. *)
  let shards =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"hist-" f && Filename.check_suffix f ".jsonl")
    |> List.sort compare
  in
  let entries = List.concat_map (fun f -> History.read_jsonl (dir / f)) shards in
  let report =
    Kcheck.Check.analyze
      ~init:(fun _ -> String.make payload '\000')
      (History.assemble entries)
  in
  if not (Kcheck.Check.passed report) then begin
    Format.eprintf "%a@." Kcheck.Check.pp report;
    fail "history check failed: %s" (Kcheck.Check.summary report)
  end;
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
  List.iter (fun row -> print_endline ("  " ^ row)) rows

let run_smoke ~nodes ~trials ~budget =
  if nodes < 2 then fail "--nodes must be at least 2";
  let rows =
    with_fleet ~name:"khazanad" ~nodes ~budget @@ fun fleet ->
    let workers =
      List.init (nodes - 1) (fun i ->
          let id = i + 1 in
          spawn fleet (Printf.sprintf "worker-%d" id) (fun () ->
              run_worker fleet ~id ~trials))
    in
    Printf.printf "khazanad: %d processes, unix-domain sockets in %s\n%!" nodes
      fleet.dir;
    let rows = run_bootstrap fleet ~nodes in
    List.iter (fun pid -> expect_exit fleet pid (Unix.WEXITED 0)) workers;
    rows
  in
  print_rows ~header:"real processes (wall-clock):" rows;
  print_newline ();
  print_rows ~header:"simulated backend (virtual time, same workload):"
    (simulated_rows ~nodes ~trials);
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
    (fun a -> die (Failed ("unexpected argument " ^ a)))
    "khazanad: run a Khazana fleet as real processes over unix sockets";
  try
    if !chaos then run_chaos ~nodes:!nodes ~seed:!seed ~rounds:!rounds ~budget:!budget
    else run_smoke ~nodes:!nodes ~trials:!trials ~budget:!budget
  with e -> die e
