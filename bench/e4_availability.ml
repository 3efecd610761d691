(* E4 — Availability under node failures (§3.5).

   "Khazana allows clients to specify a minimum number of primary replicas
   ... This functionality further enhances availability, at a cost of
   resource consumption." Sweep min_replicas, kill a fixed set of nodes,
   and measure how many regions stay readable — and what the replicas cost
   in messages and storage. *)

open Bench_common

let regions_count = 24
let total_nodes = 10
let victims = [ 2; 4; 6 ]

let run_once ~min_replicas ~seed =
  let sys = System.create ~seed ~nodes_per_cluster:total_nodes ~clusters:1 () in
  (* Spread regions over the non-bootstrap nodes. *)
  let regions =
    System.run_fiber sys (fun () ->
        List.init regions_count (fun i ->
            let node = 1 + (i mod (total_nodes - 1)) in
            let c = System.client sys node () in
            let attr = Attr.make ~owner:node ~min_replicas () in
            let r = ok (Client.create_region c ~attr 4096) in
            ok (Client.write_bytes c ~addr:r.Region.base (Bytes.make 128 'v'));
            r))
  in
  (* Let replication pushes and hint refreshes settle. *)
  System.run_until_quiet ~limit:(Ksim.Time.sec 3) sys;
  let msgs_before = (Khazana.Wire.Transport.stats (System.transport sys)).sent in
  let copies =
    List.fold_left
      (fun acc (r : Region.t) ->
        acc
        + List.length
            (List.filter
               (fun n -> Daemon.holds_page (System.daemon sys n) r.Region.base)
               (List.init total_nodes Fun.id)))
      0 regions
  in
  List.iter (fun n -> System.crash sys n) victims;
  (* A region counts as available when any of a few surviving vantage
     points can still read it (replicas grant reads locally even when the
     CREW manager died with its home). *)
  let vantage = [ 1; 3; 5 ] in
  let readable =
    List.length
      (List.filter
         (fun (r : Region.t) ->
           List.exists
             (fun survivor ->
               System.run_fiber sys (fun () ->
                   let c = System.client sys survivor () in
                   match Client.read_bytes c ~addr:r.Region.base 16 with
                   | Ok _ -> true
                   | Error _ -> false))
             vantage)
         regions)
  in
  ignore msgs_before;
  ( 100.0 *. float_of_int readable /. float_of_int regions_count,
    float_of_int copies /. float_of_int regions_count )

(* ------------------------------------------------------------------ *)
(* Fault schedule: availability while faults churn, repair after heal   *)
(* ------------------------------------------------------------------ *)

let schedule_rounds = 6
let schedule_regions = 12
let schedule_victims = [ 2; 4; 6; 8 ]

(* Drive a deterministic crash/recover schedule, sampling one read per
   region per round from a surviving vantage node. After the final heal,
   measure how long the anti-entropy repair loop takes to bring every
   region back to its replica floor. *)
let run_schedule ~min_replicas ~seed =
  let sys = System.create ~seed ~nodes_per_cluster:total_nodes ~clusters:1 () in
  let rng = Kutil.Rng.create ~seed:(0x6534 + (seed * 131)) in
  let regions =
    System.run_fiber sys (fun () ->
        List.init schedule_regions (fun i ->
            let node = 1 + (i mod (total_nodes - 1)) in
            let c = System.client sys node () in
            let attr = Attr.make ~owner:node ~min_replicas () in
            let r = ok (Client.create_region c ~attr 4096) in
            ok (Client.write_bytes c ~addr:r.Region.base (Bytes.make 128 'v'));
            r))
  in
  System.run_until_quiet ~limit:(Ksim.Time.sec 3) sys;
  let down = ref [] in
  let attempts = ref 0 in
  let served = ref 0 in
  for round = 1 to schedule_rounds do
    (match !down with
     | n :: rest when round mod 3 = 0 ->
       System.recover sys n;
       down := rest
     | _ -> (
       match List.filter (fun n -> not (List.mem n !down)) schedule_victims with
       | [] -> ()
       | l ->
         let v = List.nth l (Kutil.Rng.int rng (List.length l)) in
         System.crash sys v;
         down := v :: !down));
    System.run_until_quiet ~limit:(Ksim.Time.sec 1) sys;
    List.iter
      (fun (r : Region.t) ->
        match List.filter (fun n -> not (List.mem n !down)) [ 1; 3; 5; 7 ] with
        | [] -> ()
        | v :: _ ->
          incr attempts;
          if
            System.run_fiber sys (fun () ->
                let c = System.client sys v () in
                match Client.read_bytes c ~addr:r.Region.base 16 with
                | Ok _ -> true
                | Error _ -> false)
          then incr served)
      regions
  done;
  List.iter (fun n -> System.recover sys n) !down;
  down := [];
  let t_heal = System.now sys in
  let holders (r : Region.t) =
    List.length
      (List.filter
         (fun n -> Daemon.holds_page (System.daemon sys n) r.Region.base)
         (List.init total_nodes Fun.id))
  in
  let deficient () = List.filter (fun r -> holders r < min_replicas) regions in
  let cap = Ksim.Time.sec 20 in
  while deficient () <> [] && System.now sys - t_heal < cap do
    System.run_until_quiet ~limit:(Ksim.Time.ms 500) sys
  done;
  let repair_ms = float_of_int (System.now sys - t_heal) /. 1e6 in
  ( 100.0 *. float_of_int !served /. float_of_int (max 1 !attempts),
    repair_ms,
    List.length (deficient ()) )

let run () =
  header "E4: region availability vs min_replicas"
    (Printf.sprintf
       "%d regions over %d nodes; nodes %s crash; a survivor then reads everything."
       regions_count total_nodes
       (String.concat "," (List.map string_of_int victims)));
  let table =
    Stats.table
      ~columns:[ "min_replicas"; "readable %"; "avg copies/region (pre-crash)" ]
  in
  List.iter
    (fun min_replicas ->
      (* Two seeds, averaged, to smooth placement luck. *)
      let a1, c1 = run_once ~min_replicas ~seed:11 in
      let a2, c2 = run_once ~min_replicas ~seed:23 in
      Stats.row table
        [ string_of_int min_replicas; f1 ((a1 +. a2) /. 2.0);
          f2 ((c1 +. c2) /. 2.0) ])
    [ 1; 2; 3; 4 ];
  print_table table;
  header "E4b: availability under a fault schedule"
    (Printf.sprintf
       "%d regions over %d nodes; %d rounds of crash/recover churn among \
        nodes %s; reads sampled each round; repair clocked after the final \
        heal."
       schedule_regions total_nodes schedule_rounds
       (String.concat "," (List.map string_of_int schedule_victims)));
  let table =
    Stats.table
      ~columns:
        [ "min_replicas"; "reads served %"; "repair latency (ms)";
          "regions under floor" ]
  in
  List.iter
    (fun min_replicas ->
      let avail, repair_ms, under = run_schedule ~min_replicas ~seed:17 in
      Stats.row table
        [ string_of_int min_replicas; f1 avail; f1 repair_ms;
          string_of_int under ])
    [ 1; 2; 3 ];
  print_table table
