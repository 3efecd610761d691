(* Measurement plumbing shared by every kbench workload: process resource
   snapshots, named counters read from each layer's public stats, stamped
   records for the correctness checks, and the metric records a workload
   reports. *)

module Stats = Kutil.Stats
module Daemon = Khazana.Daemon
module Store = Kstorage.Page_store
module Wal = Kstorage.Wal

(* Seconds on the system-wide monotonic clock, to the nanosecond (the
   wall clock's microsecond, rounded through a float, would quantise the
   sub-microsecond calls the probes time). Every process reads the same
   clock, so the trace shards of a fleet share it. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------- metrics ---------------- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What one workload run hands back: [metrics] are exactly
   the names BENCHMARK.json lists for the run's mode; [extra] are printed
   and written to --json but not to the result line (per-kind percentiles
   with their sample counts, exact simulated latencies, span self times). *)
type outcome = {
  attempted : int;
  failed : int;
  violations : string list;
  metrics : metric list;
  extra : metric list;
}

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Microseconds per operation of a total in seconds. *)
let us_per ops seconds = seconds *. 1e6 /. float_of_int (max 1 ops)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Daemon.error_to_string e)

(* ---------------- latency summaries ---------------- *)

(* A latency summary, in microseconds. *)
type lat = { n : int; p50 : float; p99 : float; mean : float }

let lat_of (s : Stats.summary) =
  {
    n = Stats.samples s;
    p50 = Stats.percentile s 50.0;
    p99 = Stats.percentile s 99.0;
    mean = Stats.mean s;
  }

(* A latency histogram for the wall-clock windows, which see millions of
   operations: log-spaced buckets 0.5% wide from 0.1 µs to about 46 s, so
   memory stays constant however long the window (a sample array grew
   node 1's heap by hundreds of MiB) and percentiles are exact to half a
   percent. *)
module Hist = struct
  let lo = 0.1
  let growth = 1.005
  let buckets = 4000

  type t = { counts : int array; mutable n : int; mutable sum : float }

  let create () = { counts = Array.make buckets 0; n = 0; sum = 0.0 }

  let add h us =
    let i = if us <= lo then 0 else int_of_float (log (us /. lo) /. log growth) in
    let i = min (buckets - 1) i in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. us

  (* Nearest rank, reported at the bucket's geometric midpoint. *)
  let percentile h p =
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.n))) in
    let rec find i seen =
      let seen = seen + h.counts.(i) in
      if seen >= rank || i = buckets - 1 then lo *. (growth ** (float_of_int i +. 0.5))
      else find (i + 1) seen
    in
    if h.n = 0 then 0.0 else find 0 0

  let lat h =
    { n = h.n; p50 = percentile h 50.0; p99 = percentile h 99.0;
      mean = (if h.n = 0 then 0.0 else h.sum /. float_of_int h.n) }

  (* Pool same-kind histograms (one per fleet) and summarise each kind. *)
  let by_kind (hs : (string * t) list) =
    List.sort_uniq compare (List.map fst hs)
    |> List.map (fun k ->
           let pooled = create () in
           List.iter
             (fun (k', h) ->
               if k' = k then begin
                 Array.iteri (fun i c -> pooled.counts.(i) <- pooled.counts.(i) + c) h.counts;
                 pooled.n <- pooled.n + h.n;
                 pooled.sum <- pooled.sum +. h.sum
               end)
             hs;
           (k, lat pooled))
end

(* Per-kind summaries become extra metrics: p50, p99 and the sample count
   behind them. *)
let lat_metrics ~prefix ~unit_ kinds =
  List.concat_map
    (fun (kind, l) ->
      [ metric (Printf.sprintf "%s%s_p50_%s" prefix kind unit_) unit_ l.p50;
        metric (Printf.sprintf "%s%s_p99_%s" prefix kind unit_) unit_ l.p99;
        metric (Printf.sprintf "%s%s_samples" prefix kind) "count"
          (float_of_int l.n) ])
    kinds

(* ---------------- process resources ---------------- *)

(* Words allocated so far, minor and major heap alike: a 4 KiB buffer
   skips the minor heap, so minor words alone would miss every page copy.
   [Gc.counters] rather than [Gc.quick_stat], whose major count lags. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type proc = {
  cpu_s : float;  (* user + system *)
  alloc_words : float;
  major : int;
}

let proc_now () =
  let t = Unix.times () in
  {
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    alloc_words = alloc_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
  }

(* The heap still reachable after a full major collection. The peak heap
   is not used: under gigabytes per second of page-sized allocations it
   follows the collector's pacing, and varied twofold between identical
   runs. *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* ---------------- named counters ---------------- *)

(* Every layer's counters flattened to (name, count), so snapshots from
   any number of daemons, endpoints and processes sum and subtract by
   name. *)
type counters = (string * int) list

let daemon_counters d : counters =
  let l = Daemon.lookup_stats d
  and s = Store.stats (Daemon.store d)
  and w = Wal.stats (Daemon.wal d) in
  Ktrace.Metrics.counters (Daemon.metrics d)
  @ [ ("locate.homed_hits", l.homed_hits);
      ("locate.rdir_hits", l.rdir_hits);
      ("locate.cluster_hits", l.cluster_hits);
      ("locate.map_walks", l.map_walks);
      ("locate.map_walk_depth", l.map_walk_depth_total);
      ("locate.cluster_walks", l.cluster_walks);
      ("locate.failures", l.failures);
      ("store.ram_hits", s.ram_hits);
      ("store.disk_hits", s.disk_hits);
      ("store.misses", s.misses);
      ("store.ram_evictions", s.ram_evictions);
      ("wal.appends", w.appends);
      ("wal.commits", w.commits);
      ("wal.syncs", w.syncs);
      ("wal.checkpoints", w.checkpoints) ]

let transport_counters (s : Ktransport.Transport.stats) : counters =
  [ ("net.envelopes", s.sent);
    ("net.atoms", s.atoms);
    ("net.bytes", s.bytes_sent);
    ("net.dropped", s.dropped) ]
  @ List.map (fun (k, v) -> ("kind." ^ k, v)) s.by_kind

let get (c : counters) name = Option.value (List.assoc_opt name c) ~default:0

let combine op (a : counters) (b : counters) : counters =
  let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map (fun k -> (k, op (get a k) (get b k))) names

let sum = List.fold_left (combine ( + )) []

(* [delta before after]: what happened in between. *)
let delta before after = combine (fun a b -> b - a) before after

(* A process's view at one instant. *)
type snap = { proc : proc; counters : counters }

(* The per-layer counts of a measured window, per completed operation.
   Counts are summed over every daemon and transport endpoint. *)
let counter_metrics ~ops ~user_bytes (c : counters) =
  let per_op name = per ops (get c name) in
  let kind k = per_op ("kind." ^ k) in
  let count unit_ name key = metric name unit_ (per_op key) in
  let store_reads = get c "store.ram_hits" + get c "store.disk_hits" + get c "store.misses" in
  [ count "1/op" "daemon.lock_grant_per_op" "lock.grant";
    count "1/op" "daemon.lock_reject_per_op" "lock.reject";
    count "1/op" "daemon.lock_timeout_per_op" "lock.timeout";
    metric "daemon.rpc_timeout_per_op" "1/op"
      (per ops (get c "rpc.timeout" + get c "rpc.unreachable"));
    count "1/op" "locate.homed_hits_per_op" "locate.homed_hits";
    count "1/op" "locate.rdir_hits_per_op" "locate.rdir_hits";
    count "1/op" "locate.cluster_hits_per_op" "locate.cluster_hits";
    count "1/op" "locate.map_walks_per_op" "locate.map_walks";
    metric "locate.map_walk_depth_mean" "levels"
      (per (get c "locate.map_walks") (get c "locate.map_walk_depth"));
    count "1/op" "locate.cluster_walks_per_op" "locate.cluster_walks";
    count "1/op" "locate.failures_per_op" "locate.failures";
    metric "cm.invalidate_per_op" "1/op" (kind "cm.invalidate");
    metric "cm.fetch_per_op" "1/op" (kind "cm.fetch" +. kind "cm.fetch_own");
    metric "cm.own_grant_per_op" "1/op" (kind "cm.own_grant");
    count "1/op" "transport.envelopes_per_op" "net.envelopes";
    count "1/op" "transport.atoms_per_op" "net.atoms";
    metric "transport.atoms_per_envelope" "ratio"
      (per (get c "net.envelopes") (get c "net.atoms"));
    count "B/op" "transport.bytes_per_op" "net.bytes";
    metric "transport.bytes_per_user_byte" "ratio" (per user_bytes (get c "net.bytes"));
    metric "transport.dropped" "count" (float_of_int (get c "net.dropped"));
    metric "net.page_flush_per_op" "1/op" (kind "page_flush");
    metric "net.tx_prepare_per_op" "1/op" (kind "tx_prepare");
    metric "net.get_descriptor_per_op" "1/op" (kind "get_descriptor");
    metric "net.cluster_lookup_per_op" "1/op" (kind "cluster_lookup");
    metric "page_store.ram_hit_ratio" "ratio" (per store_reads (get c "store.ram_hits"));
    count "1/op" "page_store.misses_per_op" "store.misses";
    count "1/op" "page_store.disk_hits_per_op" "store.disk_hits";
    count "1/op" "page_store.ram_evictions_per_op" "store.ram_evictions";
    count "1/op" "wal.appends_per_op" "wal.appends";
    count "1/op" "wal.commits_per_op" "wal.commits";
    count "1/op" "wal.syncs_per_op" "wal.syncs";
    metric "wal.checkpoints_per_kop" "1/kop" (1000.0 *. per_op "wal.checkpoints");
    count "1/op" "txn.commits_per_op" "txn.commit";
    count "1/op" "txn.aborts_per_op" "txn.abort" ]

(* A lock that meets a transaction inside its voting window at the page's
   home is refused with a definite [`Conflict] (nothing was applied). The
   benchmark's clients retry it as an application would, after a pause on
   the engine clock, and count each retry. *)
let retry_conflicts ~retries f =
  let rec go left =
    match f () with
    | Error (`Conflict _) when left > 0 ->
      incr retries;
      Ksim.Fiber.sleep (Ksim.Time.ms 5);
      go (left - 1)
    | r -> r
  in
  go 100

(* ---------------- stamped records ---------------- *)

(* A record carries one stamp repeated as big-endian 64-bit words, so a
   torn or mixed record is detectable (the words disagree) and a whole one
   names exactly the write it came from. Stamp 0 is the zero fill. *)
let stamped len stamp =
  let b = Bytes.create len in
  for i = 0 to (len / 8) - 1 do
    Bytes.set_int64_be b (i * 8) (Int64.of_int stamp)
  done;
  b

let stamp_at b ~off ~len =
  let v = Bytes.get_int64_be b off in
  let rec uniform i =
    i >= len || (Bytes.get_int64_be b (off + i) = v && uniform (i + 8))
  in
  if uniform 8 then Some (Int64.to_int v) else None
