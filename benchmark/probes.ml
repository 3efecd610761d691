(* Layer probes: timed loops over one layer's public functions at a time,
   so a layer's cost is measured from outside, with no other layer in the
   loop. The pure probes run in the kbench process against fresh values
   (codec, page store, intent log, CREW machine, engine); the live probes
   time single client calls, region location and a ping on a workload's
   running system. Times are wall clock; words are heap words allocated
   per call, minor and major heap alike. *)

open Common
module Codec = Kutil.Codec
module Wire = Khazana.Wire
module Client = Khazana.Client
module Gaddr = Kutil.Gaddr
module Ctypes = Kconsistency.Types
module Crew = Kconsistency.Crew

type timing = { ns : float; words : float }

(* Size a batch to about a millisecond, then run batches until [budget]
   seconds have passed: ns per call is the median over batches, so one
   preempted batch does not move it. *)
let measure ~budget f =
  let rec calibrate n =
    let t0 = now () in
    for _ = 1 to n do f () done;
    if now () -. t0 < 1e-3 && n < 1 lsl 20 then calibrate (n * 2) else n
  in
  let n = calibrate 1 in
  let stop = now () +. budget in
  let w0 = alloc_words () and calls = ref 0 and samples = ref [] in
  while !samples = [] || now () < stop do
    let t0 = now () in
    for _ = 1 to n do f () done;
    samples := ((now () -. t0) *. 1e9 /. float_of_int n) :: !samples;
    calls := !calls + n
  done;
  { ns = median !samples; words = (alloc_words () -. w0) /. float_of_int !calls }

let page = Gaddr.of_int (7 * 4096)
let region_base = Gaddr.of_int 0
let image = Bytes.make 4096 'k'

let encode_request r =
  let enc = Codec.encoder () in
  Wire.encode_request enc r;
  Codec.to_bytes enc

let encode_response r =
  let enc = Codec.encoder () in
  Wire.encode_response enc r;
  Codec.to_bytes enc

let wire ~budget =
  let m f = measure ~budget (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let flush = Wire.Page_flush { page; region_base; data = image; version = 3 } in
  let flush_bytes = encode_request flush in
  let flush_enc = m (fun () -> encode_request flush) in
  let flush_dec = m (fun () -> Wire.decode_request (Codec.decoder flush_bytes)) in
  let r_page = Wire.R_page (Some (image, 3)) in
  let r_page_bytes = encode_response r_page in
  let r_page_enc = m (fun () -> encode_response r_page) in
  let r_page_dec = m (fun () -> Wire.decode_response (Codec.decoder r_page_bytes)) in
  let prepare =
    Wire.Tx_prepare
      { gtx = Kutil.Txid.make ~coord:1 ~epoch:0 ~seq:1; pages = [ (page, image) ] }
  in
  let prepare_enc = m (fun () -> encode_request prepare) in
  let inval =
    Wire.Cm_msg { page; region_base; body = Ctypes.Invalidate { fence = 9 } }
  in
  let inval_rt =
    m (fun () -> Wire.decode_request (Codec.decoder (encode_request inval)))
  in
  [ metric "wire.page_flush_encode_ns" "ns" flush_enc.ns;
    metric "wire.page_flush_decode_ns" "ns" flush_dec.ns;
    metric "wire.page_flush_words" "words" (flush_enc.words +. flush_dec.words);
    metric "wire.r_page_encode_ns" "ns" r_page_enc.ns;
    metric "wire.r_page_decode_ns" "ns" r_page_dec.ns;
    metric "wire.r_page_words" "words" (r_page_enc.words +. r_page_dec.words);
    metric "wire.tx_prepare_encode_ns" "ns" prepare_enc.ns;
    metric "wire.tx_prepare_words" "words" prepare_enc.words;
    metric "wire.cm_invalidate_roundtrip_ns" "ns" inval_rt.ns ]

let page_store ~budget =
  let store = Store.create (Ksim.Engine.create ()) (Store.config ()) in
  let i = ref 0 in
  let next () =
    incr i;
    Gaddr.of_int ((!i land 63) * 4096)
  in
  for _ = 0 to 63 do Store.write_immediate store (next ()) image ~dirty:false done;
  let read = measure ~budget (fun () -> ignore (Store.read_immediate store (next ()))) in
  let write =
    measure ~budget (fun () -> Store.write_immediate store (next ()) image ~dirty:false)
  in
  [ metric "page_store.read_ns" "ns" read.ns;
    metric "page_store.read_words" "words" read.words;
    metric "page_store.write_ns" "ns" write.ns;
    metric "page_store.write_words" "words" write.words ]

(* Commits in runs of 170 (three records each, so about the daemon's
   default 512-record checkpoint interval), each run followed by the
   truncating checkpoint the daemon would take; the two are timed apart. *)
let wal ~budget =
  let log = Wal.create ~rng:(Kutil.Rng.create ~seed:7) () in
  let run = 170 in
  let commits = ref [] and checkpoints = ref [] and words = ref 0.0 in
  let stop = now () +. budget in
  while !commits = [] || now () < stop do
    let w0 = alloc_words () and t0 = now () in
    for _ = 1 to run do
      let tx = Wal.begin_tx log in
      Wal.log_page log tx page image;
      Wal.commit log tx
    done;
    let t1 = now () in
    words := !words +. (alloc_words () -. w0);
    Wal.checkpoint log Bytes.empty;
    checkpoints := ((now () -. t1) *. 1e9) :: !checkpoints;
    commits := ((t1 -. t0) *. 1e9 /. float_of_int run) :: !commits
  done;
  [ metric "wal.commit_ns" "ns" (median !commits);
    metric "wal.commit_words" "words"
      (!words /. float_of_int (run * List.length !commits));
    metric "wal.checkpoint_ns" "ns" (median !checkpoints) ]

(* The home-owner fast path: a write acquire and its release, per call. *)
let crew ~budget =
  let m =
    Crew.create (Ctypes.default_config ~self:0 ~home:0) (Ctypes.Start_owner (Bytes.copy image))
  in
  let req = ref 0 in
  let pair =
    measure ~budget (fun () ->
        incr req;
        ignore (Crew.handle m (Ctypes.Acquire { req = !req; mode = Ctypes.Write }));
        ignore (Crew.handle m (Ctypes.Release { mode = Ctypes.Write; data = Some image })))
  in
  [ metric "crew.handle_ns" "ns" (pair.ns /. 2.0);
    metric "crew.handle_words" "words" (pair.words /. 2.0) ]

let engine ~budget =
  let events = 100 and spawned = 10 in
  let sched =
    measure ~budget (fun () ->
        let eng = Ksim.Engine.create () in
        for i = 1 to events do ignore (Ksim.Engine.schedule eng ~after:i ignore) done;
        Ksim.Engine.run eng)
  in
  let fibers =
    measure ~budget (fun () ->
        let eng = Ksim.Engine.create () in
        for _ = 1 to spawned do Ksim.Fiber.spawn eng (fun () -> Ksim.Fiber.sleep 100) done;
        Ksim.Engine.run eng)
  in
  [ metric "engine.schedule_run_ns" "ns" (sched.ns /. float_of_int events);
    metric "engine.fiber_spawn_ns" "ns" (fibers.ns /. float_of_int spawned) ]

let pure ~budget =
  wire ~budget @ page_store ~budget @ wal ~budget @ crew ~budget @ engine ~budget

(* ---------------- live probes ---------------- *)

(* Repeat [f] for [budget] seconds (at least 20 times). *)
let repeat ~budget f =
  let stop = now () +. budget in
  let k = ref 0 in
  while !k < 20 || now () < stop do
    f ();
    incr k
  done

let timed s f =
  let t0 = now () in
  let v = f () in
  Stats.add s ((now () -. t0) *. 1e6);
  v

(* Run inside one fiber of the workload's system ([run] drives it): the
   client reads [page] (which its node already caches) under separately
   timed lock / read / unlock calls, write-syncs a 512 B record at
   [record], locates [region] after dropping it from the region directory,
   and pings node [peer]. Timings are wall clock, p50 over the calls. *)
let live ~run ~budget ~client ~transport ~peer ~page ~record ~region =
  let daemon = Client.daemon client in
  let src = Daemon.id daemon in
  run (fun () ->
      let lock = Stats.summary () and read = Stats.summary ()
      and unlock = Stats.summary () and write = Stats.summary ()
      and locate = Stats.summary () and ping = Stats.summary () in
      repeat ~budget (fun () ->
          let l =
            timed lock (fun () ->
                ok "probe lock" (Client.lock client ~addr:page ~len:4096 Ctypes.Read))
          in
          ignore (timed read (fun () -> ok "probe read" (Client.read client l ~addr:page ~len:4096)));
          timed unlock (fun () -> Client.unlock client l));
      let l = ok "probe lock" (Client.lock client ~addr:page ~len:4096 Ctypes.Read) in
      let reads = 1000 in
      let w0 = alloc_words () in
      for _ = 1 to reads do ignore (Client.read client l ~addr:page ~len:4096) done;
      let read_words = (alloc_words () -. w0) /. float_of_int reads in
      Client.unlock client l;
      let stamp = ref 0 in
      repeat ~budget (fun () ->
          incr stamp;
          timed write (fun () ->
              ok "probe write" (Client.write_bytes client ~addr:record (stamped 512 !stamp))));
      repeat ~budget (fun () ->
          Khazana.Region_directory.remove (Daemon.region_directory daemon) region;
          ignore (timed locate (fun () -> ok "probe locate" (Daemon.locate_region daemon region))));
      repeat ~budget (fun () ->
          match timed ping (fun () -> Wire.Transport.call transport ~src ~dst:peer Wire.Ping) with
          | Ok _ -> ()
          | Error _ -> failwith "probe ping: no answer");
      [ metric "daemon.lock_us" "us" (Stats.percentile lock 50.0);
        metric "daemon.read_us" "us" (Stats.percentile read 50.0);
        metric "daemon.unlock_us" "us" (Stats.percentile unlock 50.0);
        metric "daemon.write_sync_us" "us" (Stats.percentile write 50.0);
        metric "daemon.read_words" "words" read_words;
        metric "locate.us" "us" (Stats.percentile locate 50.0);
        metric "transport.ping_rtt_us" "us" (Stats.percentile ping 50.0);
        metric "transport.ping_rtt_p99_us" "us" (Stats.percentile ping 99.0) ])
