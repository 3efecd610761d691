(* Ablations over design knobs DESIGN.md calls out: the cluster-manager
   hint machinery, the CM suspicion timeout, and the paper's
   load-balance-by-adding-instances claim for the filesystem. *)

open Bench_common

(* --- A1: cluster hints — refresh period vs lookup latency and traffic --- *)

let hint_period_run ~report_ms =
  let config =
    { Daemon.default_config with
      Daemon.report_every =
        (if report_ms = 0 then Ksim.Time.sec 3600 (* effectively off *)
         else Ksim.Time.ms report_ms);
    }
  in
  let sys = System.create ~config ~nodes_per_cluster:4 ~clusters:1 () in
  (* Node 1 creates regions over time; node 2 cold-locates each shortly
     after creation. With fresh hints the cluster manager answers; without,
     every lookup walks the tree. *)
  let lookup_ms = Stats.summary () in
  let d2 = System.daemon sys 2 in
  Daemon.reset_lookup_stats d2;
  System.run_fiber sys (fun () ->
      let c1 = System.client sys 1 () in
      for _ = 1 to 15 do
        let r = ok (Client.create_region c1 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (Bytes.make 8 'h'));
        Ksim.Fiber.sleep (Ksim.Time.ms 700);
        let (), ms =
          timed sys (fun () ->
              match Daemon.locate_region d2 r.Region.base with
              | Ok _ -> ()
              | Error e -> failwith (Daemon.error_to_string e))
        in
        Stats.add lookup_ms ms
      done);
  let s = Daemon.lookup_stats d2 in
  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  let report_msgs =
    match List.assoc_opt "cluster_report" stats.by_kind with
    | Some n -> n
    | None -> 0
  in
  (Stats.mean lookup_ms, s.Daemon.cluster_hits, s.Daemon.map_walks, report_msgs)

let run_hint_ablation () =
  header "Ablation A1: cluster-manager hint refresh period"
    "Cold lookups from a cluster-mate, 700ms after each region's creation.";
  let table =
    Stats.table
      ~columns:
        [ "report period"; "mean lookup (ms)"; "cluster hits"; "map walks";
          "hint msgs" ]
  in
  List.iter
    (fun report_ms ->
      let mean, hits, walks, msgs = hint_period_run ~report_ms in
      Stats.row table
        [ (if report_ms = 0 then "off" else Printf.sprintf "%dms" report_ms);
          f3 mean; string_of_int hits; string_of_int walks; string_of_int msgs ])
    [ 100; 500; 2000; 0 ];
  print_table table

(* --- A2: CM suspicion timeout vs fail-over latency under partition --- *)

let timeout_run ~request_timeout_ms =
  let config =
    { Daemon.default_config with
      Daemon.request_timeout = Ksim.Time.ms request_timeout_ms;
      lock_timeout = Ksim.Time.sec 30;
      lock_retries = 1;
    }
  in
  let sys = System.create ~config ~nodes_per_cluster:6 ~clusters:1 () in
  let c1 = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:1 ~min_replicas:3 () in
        let r = ok (Client.create_region c1 ~attr 4096) in
        ok (Client.write_bytes c1 ~addr:r.Region.base (Bytes.make 8 'x'));
        r)
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
  (* n2 takes ownership, then is partitioned away (silent, not crashed — so
     fail-fast does not apply and the timeout machinery must run). *)
  let c2 = System.client sys 2 () in
  System.run_fiber sys (fun () ->
      ok (Client.write_bytes c2 ~addr:region.Region.base (Bytes.make 8 'y')));
  System.partition sys [ 2 ] [ 0; 1; 3; 4; 5 ];
  let c3 = System.client sys 3 () in
  let result, ms =
    timed sys (fun () ->
        System.run_fiber sys (fun () ->
            Client.read_bytes c3 ~addr:region.Region.base 8))
  in
  System.heal sys;
  (ms, Result.is_ok result)

let run_timeout_ablation () =
  header "Ablation A2: CM suspicion budget vs fail-over latency"
    "The page's owner is silently partitioned away; a reader must fail over\n\
     to a replica. The manager re-sends up to 60 times before suspecting.";
  let table =
    Stats.table
      ~columns:[ "request_timeout"; "read latency (ms)"; "succeeded" ]
  in
  List.iter
    (fun ms ->
      let latency, okd = timeout_run ~request_timeout_ms:ms in
      Stats.row table
        [ Printf.sprintf "%dms" ms; f1 latency; string_of_bool okd ])
    [ 25; 50; 100; 200 ];
  print_table table;
  print_endline
    "(shorter timeouts fail over faster but suspect slow peers sooner: the\n\
     classic failure-detector trade-off, here bounded by 60 re-sends)"

(* --- A3: filesystem load balancing by adding instances (§4.1) --- *)

let fs_instances_run ~instances =
  let sys = System.create ~nodes_per_cluster:6 ~clusters:1 () in
  let c1 = System.client sys 1 () in
  let sb = System.run_fiber sys (fun () -> fs_ok (Kfs.Fs.format c1 ())) in
  System.run_fiber sys (fun () ->
      let fs = fs_ok (Kfs.Fs.mount c1 sb) in
      fs_ok (Kfs.Fs.create fs "/hot");
      fs_ok (Kfs.Fs.write fs "/hot" ~off:0 (Bytes.make 4096 'h')));
  (* [instances] mounts spread over the cluster each serve the hot file
     (think: web servers serving one popular page). Mount + first fetch
     happen before timing: the claim is about steady-state serving
     capacity. *)
  let reads_per_instance = 50 in
  let mounts =
    System.run_fiber sys (fun () ->
        List.init instances (fun i ->
            let node = 1 + (i mod 5) in
            let fs = fs_ok (Kfs.Fs.mount (System.client sys node ()) sb) in
            ignore (fs_ok (Kfs.Fs.read fs "/hot" ~off:0 ~len:4096));
            fs))
  in
  let t0 = System.now sys in
  System.run_fiber sys (fun () ->
      let eng = System.engine sys in
      let fibers =
        List.map
          (fun fs ->
            Ksim.Fiber.async eng (fun () ->
                for _ = 1 to reads_per_instance do
                  ignore (fs_ok (Kfs.Fs.read fs "/hot" ~off:0 ~len:4096))
                done))
          mounts
      in
      Ksim.Fiber.join_all fibers);
  let elapsed = Ksim.Time.to_sec_f (System.now sys - t0) in
  float_of_int (instances * reads_per_instance) /. elapsed

let run_fs_instances () =
  header "Ablation A3: \"starting up additional instances of the server\" (§4.1)"
    "Aggregate read throughput on one hot file as filesystem instances are added.";
  let table =
    Stats.table ~columns:[ "instances"; "aggregate reads/s"; "scaling" ]
  in
  let base = ref 0.0 in
  List.iter
    (fun instances ->
      let tput = fs_instances_run ~instances in
      if instances = 1 then base := tput;
      Stats.row table
        [ string_of_int instances; f1 tput;
          Printf.sprintf "%.1fx" (tput /. !base) ])
    [ 1; 2; 4 ];
  print_table table;
  print_endline
    "(each instance serves repeated reads from its local replica, so adding\n\
     instances adds capacity — no code changes, as the paper promises)"

let run () =
  run_hint_ablation ();
  run_timeout_ablation ();
  run_fs_instances ()
