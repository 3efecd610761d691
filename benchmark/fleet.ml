(* The real fleet: two forked daemon processes speaking Transport_unix over
   Unix-domain sockets. Node 0 is bootstrap, cluster manager and home of
   region A; node 1 is the application node, and its process also hosts
   the load generator: two closed-loop client fibers on one OS thread,
   each issuing its next operation only when the previous one returned.
   Daemons run Daemon.default_config with no wal_file, so the intent log
   stays in memory: all of its code runs, nothing is fsynced.

   kbench itself forks, commands and collects. Each node reads commands
   from one pipe and answers on another, Marshal both ways (both ends are
   this binary). Correctness is checked as the operations return, and,
   for the writing workloads, once more after the window from node 0. *)

open Common
open Khazana
module Sockets = Wire.Sockets
module Trace = Ktrace.Trace
module Op_ctx = Ktrace.Op_ctx
module Gaddr = Kutil.Gaddr
module Rng = Kutil.Rng

type workload = Local_read | Mixed_rw | Txn_2pc

let page_size = 4096
let pages = 64 (* per region: the working set fits node RAM (256 frames) *)
let record = 512
let records = pages * page_size / record
let fibers = 2
let page_addr base p = Gaddr.add_int base (p * page_size)
let record_addr base r = Gaddr.add_int base (r * record)

(* local-read's preload: page [p] of region A holds this pattern. *)
let pattern p = Bytes.init page_size (fun k -> Char.chr (((p * 31) + (k * 7) + 1) land 0xff))

type load = {
  seconds : float;
  max_ops : int;
  shard : string option;  (* traced: wrap ops in bench spans, write node 1's shard here *)
}

(* Throughput and latency are summarised per one-second slice. *)
let slices_of seconds = max 1 (int_of_float seconds)

type loaded = {
  ops : int;
  failed : int;
  retries : int;
  elapsed : float;
  slice_stats : (int * float * float) list;  (* ops, mean µs, p99 µs *)
  kinds : (string * Hist.t) list;
  user_bytes : int;
  violations : string list;
  before : snap;
  after : snap;
  last : int array;
      (* last acknowledged stamp per record (mixed-rw) or slot (txn-2pc);
         -1 where an ambiguous failure left it unknown *)
}

type cmd =
  | Attach of Gaddr.t  (* node 1: create region B if needed, pre-fault *)
  | Snap
  | Trace_on
  | Trace_dump of string
  | Load of load
  | Read_pages of Gaddr.t list
  | Probe of float
  | Heap  (* live heap words *)
  | Quit

type reply =
  | Ready of { regions : Gaddr.t list; origin : float }
  | Snapped of snap
  | Done
  | Loaded of loaded
  | Pages of bytes list
  | Probed of metric list
  | Words of int

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Inside a node process                                               *)
(* ------------------------------------------------------------------ *)

type node = {
  ep : Sockets.t;
  transport : Wire.Transport.t;
  daemon : Daemon.t;
  client : Client.t;
  mutable ring : (Trace.Ring.t * Trace.sink) option;
}

let snap n =
  {
    proc = proc_now ();
    counters = sum [ daemon_counters n.daemon; transport_counters (Wire.Transport.stats n.transport) ];
  }

let run n f = Sockets.run_fiber n.ep f

let region_pages base = List.init pages (page_addr base)

let read_pages n addrs =
  run n (fun () -> List.map (fun a -> ok "read page" (Client.read_bytes n.client ~addr:a page_size)) addrs)

let create_region n = (ok "create region" (run n (fun () -> Client.create_region n.client (pages * page_size)))).Region.base

(* The ring holds the whole traced window: it is bounded by [max_ops]. *)
let trace_on n =
  Trace.clear_sinks ();
  let ring = Trace.Ring.create ~capacity:(1 lsl 21) () in
  n.ring <- Some (ring, Trace.Ring.install ring)

let trace_dump n path =
  match n.ring with
  | None -> ()
  | Some (ring, sink) ->
    Trace.uninstall sink;
    n.ring <- None;
    Spans.write_shard ring path

(* ---------------- the load generator (node 1) ---------------- *)

type gen = {
  workload : workload;
  a : Gaddr.t;
  b : Gaddr.t;
  rngs : Rng.t array;  (* one per client fiber *)
  mutable stamp : int;
  last : int array;
  patterns : bytes array;
  retries : int ref;
}

(* One operation, chosen now (so a read's lower bounds are taken at
   issue): its kind, the user bytes it moves, and the call, which checks
   what it observes and reports whether it succeeded. *)
let next_op g client f ~violation =
  let rng = g.rngs.(f) in
  let retry call = retry_conflicts ~retries:g.retries call in
  let fresh () =
    g.stamp <- g.stamp + 1;
    g.stamp
  in
  match g.workload with
  | Local_read ->
    let p = Rng.int rng pages in
    ( "read",
      page_size,
      fun ctx ->
        match retry (fun () -> Client.read_bytes client ?ctx ~addr:(page_addr g.a p) page_size) with
        | Ok b ->
          if not (Bytes.equal b g.patterns.(p)) then
            violation (Printf.sprintf "local-read: page %d differs from its preload" p);
          true
        | Error _ -> false )
  | Mixed_rw when Rng.bool rng ->
    let p = Rng.int rng pages in
    let per_page = page_size / record in
    let floor = Array.sub g.last (p * per_page) per_page in
    ( "read",
      page_size,
      fun ctx ->
        match retry (fun () -> Client.read_bytes client ?ctx ~addr:(page_addr g.a p) page_size) with
        | Ok b ->
          Array.iteri
            (fun j lo ->
              match stamp_at b ~off:(j * record) ~len:record with
              | Some s when s >= lo -> ()
              | Some s ->
                violation
                  (Printf.sprintf "mixed-rw: record %d read stamp %d, older than acknowledged %d"
                     ((p * per_page) + j) s lo)
              | None -> violation (Printf.sprintf "mixed-rw: record %d read torn" ((p * per_page) + j)))
            floor;
          true
        | Error _ -> false )
  | Mixed_rw ->
    (* Fiber [f] alone writes the records congruent to [f], so each
       record's acknowledged stamps only grow. *)
    let r = (fibers * Rng.int rng (records / fibers)) + f in
    let s = fresh () in
    ( "write",
      record,
      fun ctx ->
        match retry (fun () -> Client.write_bytes client ?ctx ~addr:(record_addr g.a r) (stamped record s)) with
        | Ok () ->
          g.last.(r) <- s;
          true
        | Error _ ->
          g.last.(r) <- -1;
          false )
  | Txn_2pc ->
    (* Fiber [f] owns the records of its half of the pages, so
       transactions never conflict and each slot's last commit is known. *)
    let half = records / fibers in
    let r = (f * half) + Rng.int rng half in
    let s = fresh () and expect = g.last.(r) in
    let ar = record_addr g.a r and br = record_addr g.b r in
    ( "txn",
      3 * record,
      fun ctx ->
        match
          retry @@ fun () ->
          Client.txn client ?ctx (fun txn ->
              match Client.txn_read client txn ~addr:ar ~len:record with
              | Error e -> Error e
              | Ok old -> (
                if expect >= 0 && stamp_at old ~off:0 ~len:record <> Some expect then
                  violation (Printf.sprintf "txn-2pc: slot %d read back other than its last commit %d" r expect);
                match Client.txn_write client txn ~addr:ar (stamped record s) with
                | Error e -> Error e
                | Ok () -> Client.txn_write client txn ~addr:br (stamped record s)))
        with
        | Ok () ->
          g.last.(r) <- s;
          true
        | Error _ ->
          g.last.(r) <- -1;
          false )

let span_name = function "read" -> "bench.read" | "write" -> "bench.write_sync" | _ -> "bench.txn"

let load n g l =
  let engine = Sockets.engine n.ep in
  let start = now () in
  let deadline = start +. l.seconds in
  let n_slices = slices_of l.seconds in
  let slice_len = l.seconds /. float_of_int n_slices in
  let slices = Array.init n_slices (fun _ -> Hist.create ()) in
  let kinds = Hashtbl.create 4 in
  let ops = ref 0 and failed = ref 0 and user = ref 0 and violations = ref [] in
  g.retries := 0;
  let violation v = if List.length !violations < 10 then violations := v :: !violations in
  if l.shard <> None then trace_on n;
  let before = snap n in
  let client_loop f () =
    while now () < deadline && !ops < l.max_ops do
      let kind, bytes, call = next_op g n.client f ~violation in
      let span =
        if l.shard = None then Trace.null else Trace.root ~engine ~node:1 (span_name kind)
      in
      let ctx = if l.shard = None then None else Some (Op_ctx.make ~span 1) in
      let t0 = now () in
      let succeeded = call ctx in
      let t1 = now () in
      Trace.finish ~engine span;
      incr ops;
      user := !user + bytes;
      if not succeeded then incr failed;
      let us = (t1 -. t0) *. 1e6 in
      Hist.add slices.(min (n_slices - 1) (int_of_float ((t0 -. start) /. slice_len))) us;
      match Hashtbl.find_opt kinds kind with
      | Some h -> Hist.add h us
      | None ->
        let h = Hist.create () in
        Hist.add h us;
        Hashtbl.replace kinds kind h
    done
  in
  run n (fun () ->
      Ksim.Fiber.join_all
        (List.init fibers (fun f -> Ksim.Fiber.async engine ~name:"kbench.client" (client_loop f))));
  let elapsed = now () -. start in
  let after = snap n in
  Option.iter (trace_dump n) l.shard;
  {
    ops = !ops;
    failed = !failed;
    retries = !(g.retries);
    elapsed;
    slice_stats =
      Array.to_list slices
      |> List.filter (fun h -> h.Hist.n > 0)
      |> List.map (fun h -> let l = Hist.lat h in (l.n, l.mean, l.p99));
    kinds = Hashtbl.fold (fun k h acc -> (k, h) :: acc) kinds [] |> List.sort compare;
    user_bytes = !user;
    violations = List.rev !violations;
    before;
    after;
    last = Array.copy g.last;
  }

(* ---------------- node main loops ---------------- *)

let topology = Knet.Topology.symmetric ~nodes_per_cluster:2 ~clusters:1

let boot ~dir ~id =
  Trace.set_namespace id;
  let w0 = now () in
  let ep = Sockets.create ~dir ~id topology in
  let origin = (w0 +. now ()) /. 2.0 in
  let transport = Sockets.pack ep in
  let daemon = Daemon.create ~peer_managers:[ 0 ] ~id ~bootstrap:0 ~cluster_manager:0 transport in
  ({ ep; transport; daemon; client = Client.connect daemon ~principal:id; ring = None }, origin)

let send oc (r : reply) =
  Marshal.to_channel oc r [];
  flush oc

(* Pump the endpoint, so the node keeps serving peers and heartbeats,
   until a command arrives; run it, answer, repeat until [Quit]. *)
let serve n ~ic ~oc handle =
  let fd = Unix.descr_of_in_channel ic in
  let rec loop () =
    (try Sockets.pump ~max_wait:0.005 n.ep with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> loop ()
    | _ -> (
      match (Marshal.from_channel ic : cmd) with
      | Quit -> Sockets.close n.ep
      | Heap ->
        send oc (Words (live_words ()));
        loop ()
      | Snap ->
        send oc (Snapped (snap n));
        loop ()
      | Read_pages addrs ->
        send oc (Pages (read_pages n addrs));
        loop ()
      | cmd ->
        send oc (handle cmd);
        loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let node0 ~dir ~workload ~ic ~oc =
  let n, origin = boot ~dir ~id:0 in
  run n (fun () -> Daemon.bootstrap_map n.daemon);
  let a = create_region n in
  if workload = Local_read then
    run n (fun () ->
        for p = 0 to pages - 1 do
          ok "preload" (Client.write_bytes n.client ~addr:(page_addr a p) (pattern p))
        done);
  send oc (Ready { regions = [ a ]; origin });
  serve n ~ic ~oc (function
    | Trace_on ->
      trace_on n;
      Done
    | Trace_dump path ->
      trace_dump n path;
      Done
    | _ -> fail "node 0: unexpected command")

let node1 ~dir ~workload ~seed ~ic ~oc =
  let n, origin = boot ~dir ~id:1 in
  let a = match (Marshal.from_channel ic : cmd) with Attach a -> a | _ -> fail "node 1: expected Attach" in
  let b = if workload = Txn_2pc then create_region n else a in
  let regions = if workload = Txn_2pc then [ a; b ] else [ a ] in
  ignore (read_pages n (List.concat_map region_pages regions));
  let master = Rng.create ~seed in
  let g =
    {
      workload;
      a;
      b;
      rngs = Array.init fibers (fun _ -> Rng.split master);
      stamp = 0;
      last = Array.make records 0;
      patterns = Array.init pages pattern;
      retries = ref 0;
    }
  in
  send oc (Ready { regions; origin });
  serve n ~ic ~oc (function
    | Load l -> Loaded (load n g l)
    | Probe budget ->
      Probed
        (Probes.live ~run:(run n) ~budget ~client:n.client ~transport:n.transport ~peer:0
           ~page:(page_addr a 0) ~record:(record_addr a 0) ~region:a)
    | _ -> fail "node 1: unexpected command")

(* ------------------------------------------------------------------ *)
(* In kbench: fork, command, collect                                   *)
(* ------------------------------------------------------------------ *)

type child = { pid : int; cmd_out : out_channel; reply_in : in_channel }

(* Fork a node. The child closes every pipe end that is not its own, so
   it sees end-of-file on its command pipe as soon as kbench is gone. *)
let spawn ~others body =
  flush stdout;
  flush stderr;
  let cmd_r, cmd_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    List.iter
      (fun c ->
        close_out_noerr c.cmd_out;
        close_in_noerr c.reply_in)
      others;
    let code =
      try
        body ~ic:(Unix.in_channel_of_descr cmd_r) ~oc:(Unix.out_channel_of_descr rep_w);
        0
      with
      | End_of_file -> 1
      | e ->
        prerr_endline ("kbench node: " ^ Printexc.to_string e);
        1
    in
    (* Skip at_exit: the parent's buffers and handlers are not ours. *)
    Unix._exit code
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    { pid; cmd_out = Unix.out_channel_of_descr cmd_w; reply_in = Unix.in_channel_of_descr rep_r }

let receive c : reply =
  try Marshal.from_channel c.reply_in with End_of_file -> fail "node process %d died" c.pid

let call c cmd =
  Marshal.to_channel c.cmd_out (cmd : cmd) [];
  flush c.cmd_out;
  receive c

let stop children =
  List.iter
    (fun c ->
      (try
         Marshal.to_channel c.cmd_out Quit [];
         flush c.cmd_out
       with Sys_error _ -> ());
      close_out_noerr c.cmd_out;
      close_in_noerr c.reply_in;
      ignore (Unix.waitpid [] c.pid))
    children

(* Every node process forked and not yet reaped, for [kill_all]. *)
let forked : child list ref = ref []

let kill_all () =
  List.iter (fun c -> try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()) !forked;
  List.iter (fun c -> try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()) !forked;
  forked := []

type fleet = {
  n0 : child;
  n1 : child;
  regions : Gaddr.t list;
  origins : float * float;
  setup_s : float;
}

(* Set-up: first fork to the working set pre-faulted at node 1. *)
let start ~dir ~workload ~seed =
  let t0 = now () in
  let n0 = spawn ~others:[] (node0 ~dir ~workload) in
  forked := n0 :: !forked;
  let a, o0 =
    match receive n0 with Ready { regions = [ a ]; origin } -> (a, origin) | _ -> fail "node 0: bad start"
  in
  let n1 = spawn ~others:[ n0 ] (node1 ~dir ~workload ~seed) in
  forked := n1 :: !forked;
  match call n1 (Attach a) with
  | Ready { regions; origin } -> { n0; n1; regions; origins = (o0, origin); setup_s = now () -. t0 }
  | _ -> fail "node 1: bad start"

let shutdown f =
  stop [ f.n1; f.n0 ];
  forked := List.filter (fun c -> c.pid <> f.n0.pid && c.pid <> f.n1.pid) !forked

(* A fleet set up and stopped at once, for [setup_s] alone. *)
let setup_only ~dir ~workload ~seed =
  let f = start ~dir ~workload ~seed in
  shutdown f;
  f.setup_s

(* The fleet's live heap, both nodes. *)
let heap f =
  List.fold_left
    (fun acc c -> match call c Heap with Words w -> acc + w | _ -> fail "bad Heap reply")
    0 [ f.n0; f.n1 ]

let snapped c = match call c Snap with Snapped s -> s | _ -> fail "bad Snap reply"
let loaded c l = match call c (Load l) with Loaded r -> r | _ -> fail "bad Load reply"
let done_ c cmd = match call c cmd with Done -> () | _ -> fail "bad reply"

(* Node 0 reads every page back after the window: mixed-rw must see each
   record's last acknowledged stamp, txn-2pc the same last commit in both
   slots of every A/B pair. *)
let final_check workload f (r : loaded) =
  let read base =
    match call f.n0 (Read_pages (region_pages base)) with
    | Pages ps -> Bytes.concat Bytes.empty ps
    | _ -> fail "bad Read_pages reply"
  in
  let stamp img i = stamp_at img ~off:(i * record) ~len:record in
  let show = function Some s -> string_of_int s | None -> "torn" in
  let bad = ref [] in
  let report fmt = Printf.ksprintf (fun s -> if List.length !bad < 10 then bad := s :: !bad) fmt in
  (match (workload, f.regions) with
   | Mixed_rw, [ a ] ->
     let img = read a in
     Array.iteri
       (fun i last ->
         if last >= 0 && stamp img i <> Some last then
           report "mixed-rw: node 0 reads record %d as %s, last acknowledged %d" i
             (show (stamp img i)) last)
       r.last
   | Txn_2pc, [ a; b ] ->
     let ia = read a and ib = read b in
     Array.iteri
       (fun i last ->
         let sa = stamp ia i and sb = stamp ib i in
         if sa <> sb then report "txn-2pc: slot %d holds %s in A but %s in B" i (show sa) (show sb)
         else if last >= 0 && sa <> Some last then
           report "txn-2pc: slot %d holds %s, last commit %d" i (show sa) last)
       r.last
   | _ -> ());
  List.rev !bad

let window ~seconds ?(max_ops = max_int) ?shard () = { seconds; max_ops; shard }
let warm f ~seconds = ignore (loaded f.n1 (window ~seconds ()))

(* One fleet's measured window: node 0 snapped by kbench around node 1's
   load, node 1 snapped by itself at the window's edges. *)
type measured = { fleet : fleet; s0 : snap; s1 : snap; r : loaded }

let measure_window f ~seconds =
  let s0 = snapped f.n0 in
  let r = loaded f.n1 (window ~seconds ()) in
  let s1 = snapped f.n0 in
  { fleet = f; s0; s1; r }

let cpu_s m = m.s1.proc.cpu_s -. m.s0.proc.cpu_s +. m.r.after.proc.cpu_s -. m.r.before.proc.cpu_s

let alloc m =
  m.s1.proc.alloc_words -. m.s0.proc.alloc_words +. m.r.after.proc.alloc_words
  -. m.r.before.proc.alloc_words

(* End-to-end: [fleets] fleets in turn, each set up, warmed and measured
   for its share of the window, so that no one process's luck (placement,
   heap layout) decides the run. Rates and means are medians over the
   one-second slices of every fleet, resources per operation medians over
   the fleets. A set-up takes tens of milliseconds, so [setups] fleets in
   all are set up, the measured ones among them, and [setup_s] is their
   median. *)
let run_e2e ~dir ~workload ~seed ~seconds ~warmup ~fleets ~setups =
  let each = seconds /. float_of_int fleets in
  let setup_times = List.init (setups - fleets) (fun _ -> setup_only ~dir ~workload ~seed) in
  let runs =
    List.init fleets (fun _ ->
        let f = start ~dir ~workload ~seed in
        let words = heap f in
        warm f ~seconds:(warmup /. float_of_int fleets);
        let m = measure_window f ~seconds:each in
        let checked = final_check workload f m.r in
        shutdown f;
        (m, words, m.r.violations @ checked))
  in
  let ms = List.map (fun (m, _, _) -> m) runs in
  let slice_len = each /. float_of_int (slices_of each) in
  let slices = List.concat_map (fun m -> m.r.slice_stats) ms in
  let of_slices pick = median (List.map pick slices) in
  let per_op f = median (List.map (fun m -> f m /. float_of_int (max 1 m.r.ops)) ms) in
  {
    attempted = List.fold_left (fun a m -> a + m.r.ops) 0 ms;
    failed = List.fold_left (fun a m -> a + m.r.failed) 0 ms;
    violations = List.concat_map (fun (_, _, v) -> v) runs;
    metrics =
      [ metric "setup_s" "s" (median (List.map (fun m -> m.fleet.setup_s) ms @ setup_times));
        metric "ops_per_s" "ops/s" (of_slices (fun (n, _, _) -> float_of_int n /. slice_len));
        metric "lat_mean_us" "us" (of_slices (fun (_, m, _) -> m));
        metric "cpu_us_per_op" "us" (per_op (fun m -> cpu_s m *. 1e6));
        metric "alloc_words_per_op" "words" (per_op alloc);
        metric "heap_mb" "MiB" (median (List.map (fun (_, words, _) -> heap_mb words) runs)) ];
    extra = lat_metrics ~prefix:"" ~unit_:"us" (Hist.by_kind (List.concat_map (fun m -> m.r.kinds) ms));
  }

(* Traced run: an untraced window for the per-layer counters, the tail
   latency (median of the one-second slices' p99s) and the
   tracing-overhead baseline, a short traced window for span self times,
   then the live probes. *)
let run_layers ~dir ~workload ~seed ~seconds ~warmup ~traced_seconds ~probe_budget =
  let f = start ~dir ~workload ~seed in
  warm f ~seconds:warmup;
  let m = measure_window f ~seconds in
  let r = m.r in
  let shard0 = Filename.concat dir "trace-0.jsonl" and shard1 = Filename.concat dir "trace-1.jsonl" in
  done_ f.n0 Trace_on;
  let t = loaded f.n1 (window ~seconds:traced_seconds ~max_ops:20_000 ~shard:shard1 ()) in
  done_ f.n0 (Trace_dump shard0);
  let violations = r.violations @ t.violations @ final_check workload f t in
  let live = match call f.n1 (Probe probe_budget) with Probed l -> l | _ -> fail "bad Probe reply" in
  shutdown f;
  let o0, o1 = f.origins in
  let base = Float.min o0 o1 in
  let spans =
    Spans.read_shard ~origin_us:((o0 -. base) *. 1e6) shard0
    @ Spans.read_shard ~origin_us:((o1 -. base) *. 1e6) shard1
  in
  List.iter Sys.remove [ shard0; shard1 ];
  let d a b = b.proc.cpu_s -. a.proc.cpu_s and w a b = b.proc.alloc_words -. a.proc.alloc_words in
  let per_op x = x /. float_of_int (max 1 r.ops) in
  {
    attempted = r.ops + t.ops;
    failed = r.failed + t.failed;
    violations;
    metrics =
      counter_metrics ~ops:r.ops ~user_bytes:r.user_bytes
        (sum [ delta m.s0.counters m.s1.counters; delta r.before.counters r.after.counters ])
      @ live
      @ [ metric "lat_p99_us" "us" (median (List.map (fun (_, _, p) -> p) r.slice_stats));
          metric "proc.node0_cpu_us_per_op" "us" (us_per r.ops (d m.s0 m.s1));
          metric "proc.node1_cpu_us_per_op" "us" (us_per r.ops (d r.before r.after));
          metric "gc.node0_words_per_op" "words" (per_op (w m.s0 m.s1));
          metric "gc.node1_words_per_op" "words" (per_op (w r.before r.after));
          metric "gc.major_per_kop" "1/kop"
            (1000.0
            *. per r.ops
                 (m.s1.proc.major - m.s0.proc.major + r.after.proc.major - r.before.proc.major));
          metric "bench.retries_per_op" "1/op" (per r.ops r.retries);
          metric "trace.overhead" "ratio"
            (1.0 -. ratio (float_of_int t.ops /. t.elapsed) (float_of_int r.ops /. r.elapsed)) ];
    extra =
      lat_metrics ~prefix:"traced." ~unit_:"us" (Hist.by_kind t.kinds)
      @ Spans.top_metrics ~ops:t.ops spans;
  }
