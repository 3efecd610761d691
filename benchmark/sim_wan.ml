(* sim-wan: the simulated system (Khazana.System) at a size larger than
   its caches. Two clusters of four nodes over the default LAN/WAN
   profiles; 256 regions of 4 pages homed round-robin (against an
   rdir_capacity of 128 descriptors and 256 RAM frames per node); one
   closed-loop client per node picking regions by Zipf(0.9) rank and
   issuing 80% 256 B reads, 15% 256 B writes and 5% two-region
   transactions. Latencies are simulated time, so a round is a pure
   function of the seed: every round of a run must agree exactly, and
   host throughput is the only thing that varies. *)

open Common
open Khazana
module Gaddr = Kutil.Gaddr
module Rng = Kutil.Rng
module History = Kcheck.History

let clusters = 2
let nodes_per_cluster = 4
let nodes = clusters * nodes_per_cluster
let regions = 256
let region_pages = 4
let slot = 256
let slots_per_page = 4096 / slot
let slots_per_region = region_pages * slots_per_page

(* Region ranks under Zipf(0.9): rank [r] is region [r]. *)
let zipf_cdf =
  let w = Array.init regions (fun r -> 1.0 /. (float_of_int (r + 1) ** 0.9)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf rng =
  let u = Rng.float rng 1.0 in
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (regions - 1)

type round = {
  setup_s : float;
  host_s : float;  (* wall time of the operations alone *)
  ops : int;
  failed : int;
  retries : int;
  user_bytes : int;
  kinds : (string * lat) list;  (* simulated µs *)
  all : lat;
  sim_end : int;
  proc : proc;  (* resources used by the operations *)
  heap_words : int;  (* live heap once set up *)
  counters : counters;
  violations : string list;
}

let system_counters sys =
  sum
    (transport_counters (Wire.Transport.stats (System.transport sys))
     :: List.map daemon_counters (System.daemons sys))

(* Set-up: [System.create] until every region exists, timed. *)
let setup ~seed =
  let t0 = now () in
  let sys = System.create ~seed ~nodes_per_cluster ~clusters () in
  let bases =
    System.run_fiber sys (fun () ->
        Array.init regions (fun i ->
            let c = System.client sys (i mod nodes) () in
            (ok "create region" (Client.create_region c (region_pages * 4096))).Region.base))
  in
  (sys, bases, now () -. t0)

(* One round: set up, run [per_client] operations on each node's client.
   With [history], every client records into it; with [trace], the
   operations (not the set-up) are traced into the ring. *)
let round ~seed ~per_client ?history ?trace () =
  let sys, bases, setup_s = setup ~seed in
  let heap_words = live_words () in
  let engine = System.engine sys in
  let slot_addr r k = Gaddr.add_int bases.(r) (k * slot) in
  let kinds = Hashtbl.create 4 and all = Stats.summary () in
  let ops = ref 0 and failed = ref 0 and user = ref 0 and stamp = ref 0 in
  let retries = ref 0 in
  let retry f = retry_conflicts ~retries f in
  let violations = ref [] in
  let violation v = if List.length !violations < 10 then violations := v :: !violations in
  (* per (reader, slot): the newest stamp that reader has seen *)
  let seen = Hashtbl.create 4096 in
  let master = Rng.create ~seed in
  let rngs = Array.init nodes (fun _ -> Rng.split master) in
  let client_loop n () =
    let c = System.client sys n () in
    Option.iter
      (fun ring ->
        Client.set_history c
          (Some (History.recorder ~now:(fun () -> Ksim.Engine.now engine) ~proc:n (History.Ring.sink ring))))
      history;
    let rng = rngs.(n) in
    (* Client [n] alone writes the slots congruent to [n], so each slot's
       stamps grow in write order and every reader must see them grow.
       Transactions write only the last page of a region and plain writes
       only the others: a transaction's committed image pinned at the home
       is re-applied by the home's repair pass when no matching install
       clears the pin, which overwrites plain writes made to that page
       since (see "Defects the checks found" in README.md). Draws are
       sequenced with [let ... in]: evaluation order must not decide the
       workload. *)
    let own ~txn =
      let k = (nodes * Rng.int rng (slots_per_page / nodes)) + n in
      let page = if txn then region_pages - 1 else Rng.int rng (region_pages - 1) in
      (page * slots_per_page) + k
    in
    for _ = 1 to per_client do
      let r = zipf rng in
      let u = Rng.int rng 100 in
      let t0 = Ksim.Engine.now engine in
      let kind, bytes, succeeded =
        if u < 80 then begin
          let k = Rng.int rng slots_per_region in
          match retry (fun () -> Client.read_bytes c ~addr:(slot_addr r k) slot) with
          | Ok b ->
            (match stamp_at b ~off:0 ~len:slot with
             | None -> violation (Printf.sprintf "sim-wan: region %d slot %d read torn" r k)
             | Some s ->
               let key = (n, r, k) in
               let prev = Option.value (Hashtbl.find_opt seen key) ~default:0 in
               if s < prev then
                 violation (Printf.sprintf "sim-wan: node %d read region %d slot %d going back from %d to %d" n r k prev s)
               else Hashtbl.replace seen key s);
            ("read", slot, true)
          | Error _ -> ("read", slot, false)
        end
        else if u < 95 then begin
          incr stamp;
          let addr = slot_addr r (own ~txn:false) and v = stamped slot !stamp in
          ("write", slot, Result.is_ok (retry (fun () -> Client.write_bytes c ~addr v)))
        end
        else begin
          (* Two regions drawn uniformly, written in address order so
             transactions never wait on each other in a cycle. *)
          let r = Rng.int rng regions in
          let r2 = Rng.int rng (regions - 1) in
          let r2 = if r2 >= r then r2 + 1 else r2 in
          let k = own ~txn:true in
          incr stamp;
          let v = stamped slot !stamp in
          let first, second = if r < r2 then (r, r2) else (r2, r) in
          ( "txn",
            2 * slot,
            Result.is_ok
              (retry (fun () ->
                   Client.txn c (fun txn ->
                       match Client.txn_write c txn ~addr:(slot_addr first k) v with
                       | Error e -> Error e
                       | Ok () -> Client.txn_write c txn ~addr:(slot_addr second k) v))) )
        end
      in
      let us = Ksim.Time.to_us_f (Ksim.Engine.now engine - t0) in
      Stats.add all us;
      (match Hashtbl.find_opt kinds kind with
       | Some s -> Stats.add s us
       | None ->
         let s = Stats.summary () in
         Stats.add s us;
         Hashtbl.replace kinds kind s);
      incr ops;
      user := !user + bytes;
      if not succeeded then incr failed
    done
  in
  let c0 = system_counters sys and p0 = proc_now () and h0 = now () in
  let sink = Option.map Ktrace.Trace.Ring.install trace in
  System.run_fiber sys (fun () ->
      Ksim.Fiber.join_all (List.init nodes (fun n -> Ksim.Fiber.async engine ~name:"kbench.client" (client_loop n))));
  Option.iter Ktrace.Trace.uninstall sink;
  let host_s = now () -. h0 and p1 = proc_now () in
  ( {
    setup_s;
    host_s;
    ops = !ops;
    failed = !failed;
    retries = !retries;
    user_bytes = !user;
    kinds = Hashtbl.fold (fun k s acc -> (k, lat_of s) :: acc) kinds [] |> List.sort compare;
    all = lat_of all;
    sim_end = System.now sys;
    proc =
      {
        cpu_s = p1.cpu_s -. p0.cpu_s;
        alloc_words = p1.alloc_words -. p0.alloc_words;
        major = p1.major - p0.major;
      };
    heap_words;
    counters = delta c0 (system_counters sys);
    violations = List.rev !violations;
  },
    sys,
    bases )

(* What must repeat exactly for one seed. *)
let fingerprint r = (r.ops, r.failed, r.retries, r.kinds, r.all, r.sim_end)

let sim_metrics r =
  lat_metrics ~prefix:"sim_" ~unit_:"ms"
    (List.map
       (fun (k, l) -> (k, { l with p50 = l.p50 /. 1e3; p99 = l.p99 /. 1e3; mean = l.mean /. 1e3 }))
       r.kinds)

(* End-to-end: as many rounds as fit in [seconds] (at least one). Host
   throughput and resources per operation are medians over rounds; the
   simulated latencies are the first round's, and every later round must
   reproduce it exactly. A set-up takes tens of milliseconds, so after the
   rounds the system is set up again until [setups] set-ups are timed in
   all, and [setup_s] is their median. *)
let run_e2e ~seed ~seconds ~per_client ~setups =
  let deadline = now () +. seconds in
  let rec go acc =
    let t0 = now () in
    let r, _, _ = round ~seed ~per_client () in
    if now () +. (now () -. t0) <= deadline then go (r :: acc) else List.rev (r :: acc)
  in
  let rounds = go [] in
  let setup_times =
    List.init (max 0 (setups - List.length rounds)) (fun _ ->
        let _, _, s = setup ~seed in
        s)
  in
  let first = List.hd rounds in
  let drifted =
    List.filteri (fun i r -> i > 0 && fingerprint r <> fingerprint first) rounds
    |> List.map (fun _ -> "sim-wan: a round with the same seed produced different results")
  in
  let per_round f = median (List.map f rounds) in
  {
    attempted = List.fold_left (fun a r -> a + r.ops) 0 rounds;
    failed = List.fold_left (fun a r -> a + r.failed) 0 rounds;
    violations = List.concat_map (fun r -> r.violations) rounds @ drifted;
    metrics =
      [ metric "setup_s" "s" (median (List.map (fun r -> r.setup_s) rounds @ setup_times));
        metric "ops_per_s" "ops/s" (per_round (fun r -> float_of_int r.ops /. r.host_s));
        metric "lat_mean_us" "us" first.all.mean;
        metric "cpu_us_per_op" "us" (per_round (fun r -> us_per r.ops r.proc.cpu_s));
        metric "alloc_words_per_op" "words" (per_round (fun r -> r.proc.alloc_words /. float_of_int r.ops));
        metric "heap_mb" "MiB" (per_round (fun r -> heap_mb r.heap_words)) ];
    extra =
      sim_metrics first
      @ [ metric "retries" "count" (float_of_int first.retries);
          metric "rounds" "count" (float_of_int (List.length rounds)) ];
  }

(* Traced run: one full untraced round for the per-layer counts, then the
   same [traced_per_client] operations untraced and traced (the overhead
   baseline and the span self times), the traced one also recording a
   history the checker must pass; then the live probes on that system,
   from node 1 against region 0, homed at node 0 in the same cluster. *)
let run_layers ~seed ~per_client ~traced_per_client ~probe_budget =
  let full, _, _ = round ~seed ~per_client () in
  let plain, _, _ = round ~seed ~per_client:traced_per_client () in
  Ktrace.Trace.reset ();
  let ring = Ktrace.Trace.Ring.create ~capacity:(1 lsl 21) () in
  let history = History.Ring.create () in
  let traced, sys, bases = round ~seed ~per_client:traced_per_client ~history ~trace:ring () in
  let report =
    Kcheck.Check.analyze
      ~init:(fun _ -> String.make slot '\000')
      (History.assemble (History.Ring.entries history))
  in
  let checked =
    if Kcheck.Check.passed report then []
    else [ "sim-wan: history check failed: " ^ Kcheck.Check.summary report ]
  in
  let live =
    Probes.live ~run:(System.run_fiber sys) ~budget:probe_budget ~client:(System.client sys 1 ())
      ~transport:(System.transport sys) ~peer:0 ~page:bases.(0) ~record:bases.(0) ~region:bases.(0)
  in
  let ops = full.ops in
  {
    attempted = full.ops + plain.ops + traced.ops;
    failed = full.failed + plain.failed + traced.failed;
    violations = full.violations @ plain.violations @ traced.violations @ checked;
    metrics =
      counter_metrics ~ops ~user_bytes:full.user_bytes full.counters
      @ live
      @ [ metric "lat_p99_us" "us" full.all.p99;
          metric "proc.node0_cpu_us_per_op" "us" (us_per ops full.proc.cpu_s);
          metric "proc.node1_cpu_us_per_op" "us" (us_per ops full.proc.cpu_s);
          metric "gc.node0_words_per_op" "words" (full.proc.alloc_words /. float_of_int ops);
          metric "gc.node1_words_per_op" "words" (full.proc.alloc_words /. float_of_int ops);
          metric "gc.major_per_kop" "1/kop" (1000.0 *. per ops full.proc.major);
          metric "bench.retries_per_op" "1/op" (per ops full.retries);
          metric "trace.overhead" "ratio"
            (1.0 -. ratio (float_of_int traced.ops /. traced.host_s) (float_of_int plain.ops /. plain.host_s)) ];
    extra =
      sim_metrics full
      @ Spans.top_metrics ~ops:traced.ops (Spans.of_records (Ktrace.Trace.Ring.records ring));
  }
