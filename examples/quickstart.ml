(* Quickstart: the paper's Figure 1 brought to life.

   Five Khazana nodes (two clusters joined by a WAN link). An application
   on node 3 stores a piece of shared state; Khazana replicates it on nodes
   3 and 5; an application on node 1 then accesses the same global address
   and Khazana locates a copy and brings it over — the application never
   names a server.

   Run with: dune exec examples/quickstart.exe *)

module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Attr = Khazana.Attr

let ok = function
  | Ok v -> v
  | Error e -> failwith (Daemon.error_to_string e)

let () =
  (* Nodes 0-2 form cluster 0; nodes 3-5 cluster 1, across a WAN. *)
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  Printf.printf "Khazana up: %d nodes, 2 clusters (bootstrap + cluster managers elected)\n\n"
    (System.node_count sys);

  (* The application on node 3 allocates shared state: two replicas. *)
  let app3 = System.client sys 3 () in
  let region =
    System.run_fiber sys (fun () ->
        let attr = Attr.make ~owner:3 ~min_replicas:2 () in
        let r = ok (Client.create_region app3 ~attr 4096) in
        ok (Client.write_bytes app3 ~addr:r.Region.base
              (Bytes.of_string "the shared square object"));
        r)
  in
  Printf.printf "node 3 stored shared state at global address %s\n"
    (Kutil.Gaddr.to_string region.Region.base);

  (* Node 5 touches it once; now two physical replicas exist (the solid
     squares of Figure 1). *)
  let app5 = System.client sys 5 () in
  System.run_fiber sys (fun () ->
      ignore (ok (Client.read_bytes app5 ~addr:region.Region.base 24)));
  System.run_until_quiet sys;
  Printf.printf "\nreplica map after node 5's access:\n";
  List.iter
    (fun n ->
      Printf.printf "  node %d: %s\n" n
        (if Daemon.holds_page (System.daemon sys n) region.Region.base then
           "[#] holds a copy"
         else "[ ] no copy"))
    (List.init (System.node_count sys) Fun.id);

  (* Node 1 — different cluster, never saw this region — just reads the
     global address. Khazana finds it. *)
  let app1 = System.client sys 1 () in
  let t0 = System.now sys in
  let data =
    System.run_fiber sys (fun () ->
        ok (Client.read_bytes app1 ~addr:region.Region.base 24))
  in
  let cold = System.now sys - t0 in
  let t1 = System.now sys in
  ignore
    (System.run_fiber sys (fun () ->
         ok (Client.read_bytes app1 ~addr:region.Region.base 24)));
  let warm = System.now sys - t1 in
  Printf.printf "\nnode 1 read the same address: %S\n" (Bytes.to_string data);
  Format.printf "  first access (locate + fetch over WAN): %a@." Ksim.Time.pp cold;
  Format.printf "  second access (local replica):          %a@." Ksim.Time.pp warm;

  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  Printf.printf "\nwire traffic for the whole session: %d messages, %d bytes\n"
    stats.sent stats.bytes_sent;
  List.iter (fun (k, v) -> Printf.printf "  %-22s %4d\n" k v) stats.by_kind
