(* Shared plumbing for the experiment harness. *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Attr = Khazana.Attr
module Gaddr = Kutil.Gaddr
module Stats = Kutil.Stats
module Ctypes = Kconsistency.Types

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Daemon.error_to_string e)

let fs_ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Kfs.Fs.error_to_string e)

let obj_ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Kobj.Runtime.error_to_string e)

(* Time a fiber-blocking thunk in simulated time (ms). *)
let timed sys f =
  let t0 = System.now sys in
  let r = f () in
  (r, Ksim.Time.to_ms_f (System.now sys - t0))

let header title claim =
  Printf.printf "\n=== %s ===\n%s\n\n" title claim

let print_table t = print_endline (Stats.render t)

let f2 v = Printf.sprintf "%.2f" v
let f1 v = Printf.sprintf "%.1f" v
let f3 v = Printf.sprintf "%.3f" v

(* Message count delta around a thunk. *)
let messages sys f =
  let before = (Khazana.Wire.Transport.stats (System.transport sys)).sent in
  let r = f () in
  let after = (Khazana.Wire.Transport.stats (System.transport sys)).sent in
  (r, after - before)

(* Traffic deltas around a thunk: envelopes sent, logical messages
   (batch items count individually) and bytes. The envelope/atom gap is
   what RPC coalescing saves. *)
let traffic sys f =
  let s0 = Khazana.Wire.Transport.stats (System.transport sys) in
  let r = f () in
  let s1 = Khazana.Wire.Transport.stats (System.transport sys) in
  ( r,
    s1.sent - s0.sent,
    s1.atoms - s0.atoms,
    s1.bytes_sent - s0.bytes_sent )

module Trace = Ktrace.Trace

(* Run [f] with a ring sink installed and print where the simulated time of
   the traced operations went, grouped by span name. Tracing is disabled
   again (and the span counter reset) before returning, so surrounding
   measurements stay sink-free. *)
let traced_phases f =
  Trace.reset ();
  let ring = Trace.Ring.create () in
  let sink = Trace.Ring.install ring in
  let finally () = Trace.uninstall sink; Trace.reset () in
  Fun.protect ~finally (fun () -> f ());
  Trace.phase_breakdown (Trace.Ring.records ring)

let print_phase_breakdown title phases =
  let table = Stats.table ~columns:[ title; "spans"; "total (ms)" ] in
  List.iter
    (fun (name, count, total_ms) ->
      Stats.row table [ name; string_of_int count; f2 total_ms ])
    phases;
  print_table table

(* One traced cold read across the WAN: the per-phase view of the Figure 2
   path that E1's latency table summarises. *)
let span_breakdown sys ~reader ~writer =
  let cw = System.client sys writer () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region cw 4096) in
        ok (Client.write_bytes cw ~addr:r.Region.base (Bytes.make 64 'd'));
        r)
  in
  let cr = System.client sys reader () in
  let phases =
    traced_phases (fun () ->
        System.run_fiber sys (fun () ->
            ignore (ok (Client.read_bytes cr ~addr:region.Region.base 64))))
  in
  Printf.printf "per-phase span breakdown (one cold WAN read, traced):\n";
  print_phase_breakdown "phase" phases
