(* khazana_demo — drive a simulated Khazana deployment from the command
   line: inspect topologies, run synthetic workloads, list protocols.

     dune exec bin/khazana_demo.exe -- workload --nodes 4 --clusters 2
     dune exec bin/khazana_demo.exe -- fs-demo
     dune exec bin/khazana_demo.exe -- protocols *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Attr = Khazana.Attr

let ok = function
  | Ok v -> v
  | Error e -> failwith (Daemon.error_to_string e)

(* With --trace, stream every span and event to stderr via the pretty
   sink while [f] runs. *)
let maybe_traced trace f =
  if not trace then f ()
  else begin
    let sink = Ktrace.Trace.install (Ktrace.Trace.pretty_sink Format.err_formatter) in
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush Format.err_formatter ();
        Ktrace.Trace.uninstall sink)
      f
  end

(* ------------------------------- workload -------------------------- *)

let run_workload nodes clusters ops seed level trace =
  (* Accept either a paper consistency level (strict/release/eventual) or
     any registered protocol name (crew, wshared, versioned, ...). *)
  let mk_attr, level_name =
    match Attr.level_of_string level with
    | Some l -> ((fun ~owner -> Attr.make ~owner ~level:l ()), Attr.level_to_string l)
    | None when Kconsistency.Registry.find level <> None ->
      ((fun ~owner -> Attr.make ~owner ~protocol:level ()), level)
    | None -> failwith ("unknown consistency level " ^ level)
  in
  let sys = System.create ~seed ~nodes_per_cluster:nodes ~clusters () in
  let n = System.node_count sys in
  Printf.printf "system: %d nodes in %d cluster(s), seed %d, %s consistency\n"
    n clusters seed level_name;
  let rng = Kutil.Rng.create ~seed in
  (* A handful of shared regions, random readers/writers. *)
  let regions =
    System.run_fiber sys (fun () ->
        Array.init (max 2 (n / 2)) (fun i ->
            let node = i mod n in
            let c = System.client sys node () in
            let attr = mk_attr ~owner:node in
            let r = ok (Client.create_region c ~attr 4096) in
            ok (Client.write_bytes c ~addr:r.Region.base (Bytes.make 32 '0'));
            r))
  in
  let latencies = Kutil.Stats.summary () in
  let writes = ref 0 and reads = ref 0 in
  maybe_traced trace @@ fun () ->
  System.run_fiber sys (fun () ->
      for _ = 1 to ops do
        let node = Kutil.Rng.int rng n in
        let region = regions.(Kutil.Rng.int rng (Array.length regions)) in
        let c = System.client sys node () in
        let t0 = System.now sys in
        (if Kutil.Rng.int rng 100 < 30 then begin
           incr writes;
           ok (Client.write_bytes c ~addr:region.Region.base (Bytes.make 32 'x'))
         end
         else begin
           incr reads;
           ignore (ok (Client.read_bytes c ~addr:region.Region.base 32))
         end);
        Kutil.Stats.add latencies (Ksim.Time.to_ms_f (System.now sys - t0))
      done);
  Format.printf "ran %d ops (%d reads / %d writes) in %a of simulated time\n"
    ops !reads !writes Ksim.Time.pp (System.now sys);
  Format.printf "op latency: %a\n" (Kutil.Stats.pp_summary ~unit:"ms") latencies;
  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  Printf.printf "network: %d msgs, %d bytes (%.1f msgs/op)\n" stats.sent
    stats.bytes_sent
    (float_of_int stats.sent /. float_of_int ops);
  Printf.printf "\nper-node lookup paths (homed/directory/cluster/map-walk):\n";
  List.iter
    (fun d ->
      let s = Daemon.lookup_stats d in
      Printf.printf "  node %d: %d / %d / %d / %d\n" (Daemon.id d)
        s.Daemon.homed_hits s.Daemon.rdir_hits s.Daemon.cluster_hits
        s.Daemon.map_walks)
    (System.daemons sys);
  Printf.printf "\nper-node lock outcomes (grant/reject/timeout):\n";
  List.iter
    (fun d ->
      let counters = Ktrace.Metrics.counters (Daemon.metrics d) in
      let get k = try List.assoc k counters with Not_found -> 0 in
      Printf.printf "  node %d: %d / %d / %d\n" (Daemon.id d)
        (get "lock.grant") (get "lock.reject") (get "lock.timeout"))
    (System.daemons sys)

(* -------------------------------- fs demo -------------------------- *)

let run_fs_demo trace =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let fs_err = function
    | Ok v -> v
    | Error e -> failwith (Kfs.Fs.error_to_string e)
  in
  maybe_traced trace @@ fun () ->
  System.run_fiber sys (fun () ->
      let c1 = System.client sys 1 () in
      let sb = fs_err (Kfs.Fs.format c1 ()) in
      let fs1 = fs_err (Kfs.Fs.mount c1 sb) in
      fs_err (Kfs.Fs.mkdir fs1 "/demo");
      fs_err (Kfs.Fs.create fs1 "/demo/hello");
      fs_err (Kfs.Fs.write fs1 "/demo/hello" ~off:0 (Bytes.of_string "hello from node 1"));
      let c4 = System.client sys 4 () in
      let fs4 = fs_err (Kfs.Fs.mount c4 sb) in
      let data = fs_err (Kfs.Fs.read fs4 "/demo/hello" ~off:0 ~len:17) in
      Printf.printf "node 4 (other cluster) mounted %s and read: %S\n"
        (Kutil.Gaddr.to_string sb) (Bytes.to_string data));
  Format.printf "simulated time: %a\n" Ksim.Time.pp (System.now sys)

(* ------------------------------- protocols ------------------------- *)

let run_protocols () =
  print_endline "registered consistency protocols:";
  List.iter
    (fun name -> Printf.printf "  %s\n" name)
    (Kconsistency.Registry.names ())

(* ------------------------------ cmdliner --------------------------- *)

open Cmdliner

let nodes_arg =
  Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Nodes per cluster.")

let clusters_arg =
  Arg.(value & opt int 2 & info [ "clusters" ] ~docv:"C" ~doc:"Cluster count.")

let ops_arg =
  Arg.(value & opt int 200 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations to run.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let level_arg =
  Arg.(
    value
    & opt string "strict"
    & info [ "consistency" ] ~docv:"LEVEL"
        ~doc:"strict | release | eventual, or a registered protocol name \
              (see the protocols subcommand).")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Stream operation traces (spans, CM transitions, page-store \
              events) to stderr while the workload runs.")

let workload_cmd =
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a synthetic shared-state workload.")
    Term.(
      const run_workload $ nodes_arg $ clusters_arg $ ops_arg $ seed_arg
      $ level_arg $ trace_arg)

let fs_cmd =
  Cmd.v
    (Cmd.info "fs-demo" ~doc:"Format and cross-mount the distributed filesystem.")
    Term.(const run_fs_demo $ trace_arg)

let protocols_cmd =
  Cmd.v
    (Cmd.info "protocols" ~doc:"List registered consistency protocols.")
    Term.(const run_protocols $ const ())

let main =
  Cmd.group
    (Cmd.info "khazana_demo" ~version:"1.0"
       ~doc:"Drive a simulated Khazana deployment.")
    [ workload_cmd; fs_cmd; protocols_cmd ]

let () = exit (Cmd.eval main)
