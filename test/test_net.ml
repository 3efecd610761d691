(* Tests for the simulated network: topology, delivery, latency model,
   partitions, crashes, loss and accounting. *)

module Topology = Knet.Topology
module Time = Ksim.Time

module Msg = struct
  type t = { label : string; size : int }

  let size_bytes m = m.size
  let kind m = m.label
  let kinds m = [ m.label ]
end

module Net = Knet.Network.Make (Msg)
module Edge = Knet.Edge

let mk ?(seed = 1) ?(nodes_per_cluster = 3) ?(clusters = 2) () =
  let eng = Ksim.Engine.create ~seed () in
  let topo = Topology.symmetric ~nodes_per_cluster ~clusters in
  (eng, topo, Net.create eng topo)

let msg ?(size = 100) label = { Msg.label; size }

(* ----------------------------- Topology ---------------------------- *)

let test_topology_clusters () =
  let topo = Topology.symmetric ~nodes_per_cluster:3 ~clusters:2 in
  Alcotest.(check int) "nodes" 6 (Topology.node_count topo);
  Alcotest.(check int) "clusters" 2 (Topology.cluster_count topo);
  Alcotest.(check int) "n0 cluster" 0 (Topology.cluster_of topo 0);
  Alcotest.(check int) "n5 cluster" 1 (Topology.cluster_of topo 5);
  Alcotest.(check (list int)) "members" [ 3; 4; 5 ] (Topology.cluster_members topo 1);
  Alcotest.(check bool) "same" true (Topology.same_cluster topo 0 2);
  Alcotest.(check bool) "different" false (Topology.same_cluster topo 0 3)

let test_topology_profiles () =
  let topo = Topology.symmetric ~nodes_per_cluster:2 ~clusters:2 in
  let lan = Topology.profile topo 0 1 and wan = Topology.profile topo 0 2 in
  Alcotest.(check bool) "wan slower" true (wan.base_latency > lan.base_latency)

(* ----------------------------- Delivery ---------------------------- *)

let test_basic_delivery () =
  let eng, _, net = mk () in
  let got = ref [] in
  Net.set_handler net 1 (fun ~src m -> got := (src, m.Msg.label) :: !got);
  Net.send net ~src:0 ~dst:1 (msg "hello");
  Ksim.Engine.run eng;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got

let test_lan_vs_wan_latency () =
  let eng, _, net = mk () in
  let lan_t = ref 0 and wan_t = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> lan_t := Ksim.Engine.now eng);
  Net.set_handler net 3 (fun ~src:_ _ -> wan_t := Ksim.Engine.now eng);
  Net.send net ~src:0 ~dst:1 (msg "lan");
  Net.send net ~src:0 ~dst:3 (msg "wan");
  Ksim.Engine.run eng;
  Alcotest.(check bool) "lan under 1ms" true (!lan_t < Time.ms 1);
  Alcotest.(check bool) "wan over 10ms" true (!wan_t > Time.ms 10)

let test_serialisation_delay () =
  let eng, _, net = mk () in
  let small_t = ref 0 and big_t = ref 0 in
  Net.set_handler net 1 (fun ~src:_ m ->
      if m.Msg.label = "small" then small_t := Ksim.Engine.now eng
      else big_t := Ksim.Engine.now eng);
  Net.send net ~src:0 ~dst:1 (msg ~size:100 "small");
  Ksim.Engine.run eng;
  let t1 = !small_t in
  Net.send net ~src:0 ~dst:1 (msg ~size:10_000_000 "big");
  Ksim.Engine.run eng;
  Alcotest.(check bool) "bandwidth charged" true (!big_t - t1 > Time.ms 10)

let test_local_send () =
  let eng, _, net = mk () in
  let got = ref false in
  Net.set_handler net 0 (fun ~src m ->
      Alcotest.(check int) "self src" 0 src;
      Alcotest.(check string) "label" "self" m.Msg.label;
      got := true);
  Net.send net ~src:0 ~dst:0 (msg "self");
  Ksim.Engine.run eng;
  Alcotest.(check bool) "self delivery" true !got;
  Alcotest.(check bool) "cheap" true (Ksim.Engine.now eng < Time.ms 1)

let test_no_handler_drops () =
  let eng, _, net = mk () in
  Net.send net ~src:0 ~dst:1 (msg "void");
  Ksim.Engine.run eng;
  let stats = Edge.stats (Net.edge net) in
  Alcotest.(check int) "dropped" 1 stats.dropped;
  Alcotest.(check int) "not delivered" 0 stats.delivered

(* ------------------------------ Failures --------------------------- *)

let test_crash_blocks_delivery () =
  let eng, _, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Edge.crash (Net.edge net) 1;
  Net.send net ~src:0 ~dst:1 (msg "lost");
  Ksim.Engine.run eng;
  Alcotest.(check int) "lost" 0 !got;
  Edge.recover (Net.edge net) 1;
  Net.send net ~src:0 ~dst:1 (msg "ok");
  Ksim.Engine.run eng;
  Alcotest.(check int) "delivered after recover" 1 !got

let test_crashed_source_cannot_send () =
  let eng, _, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Edge.crash (Net.edge net) 0;
  Net.send net ~src:0 ~dst:1 (msg "ghost");
  Ksim.Engine.run eng;
  Alcotest.(check int) "no ghost sends" 0 !got

let test_inflight_lost_on_crash () =
  let eng, _, net = mk () in
  let got = ref 0 in
  Net.set_handler net 3 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:3 (msg "inflight");
  (* Crash the destination while the message is on the (30ms) wire. *)
  ignore (Ksim.Engine.schedule eng ~after:(Time.ms 1) (fun () -> Edge.crash (Net.edge net) 3));
  Ksim.Engine.run eng;
  Alcotest.(check int) "in-flight message lost" 0 !got

let test_partition () =
  let eng, _, net = mk () in
  let got = ref 0 in
  Net.set_handler net 3 (fun ~src:_ _ -> incr got);
  Edge.partition (Net.edge net) [ 0; 1; 2 ] [ 3; 4; 5 ];
  Alcotest.(check bool) "unreachable" false (Edge.reachable (Net.edge net) 0 3);
  Alcotest.(check bool) "intra still fine" true (Edge.reachable (Net.edge net) 0 1);
  Net.send net ~src:0 ~dst:3 (msg "blocked");
  Ksim.Engine.run eng;
  Alcotest.(check int) "blocked" 0 !got;
  Edge.heal (Net.edge net);
  Net.send net ~src:0 ~dst:3 (msg "after heal");
  Ksim.Engine.run eng;
  Alcotest.(check int) "healed" 1 !got

let test_partition_is_symmetric () =
  let _, _, net = mk () in
  Edge.partition (Net.edge net) [ 0 ] [ 3 ];
  Alcotest.(check bool) "a->b" false (Edge.reachable (Net.edge net) 0 3);
  Alcotest.(check bool) "b->a" false (Edge.reachable (Net.edge net) 3 0);
  Alcotest.(check bool) "others fine" true (Edge.reachable (Net.edge net) 1 3)

let test_loss () =
  let eng = Ksim.Engine.create ~seed:5 () in
  let topo = Topology.symmetric ~nodes_per_cluster:2 ~clusters:1 in
  Topology.set_lan topo { Topology.lan_default with loss = 0.5 };
  let net = Net.create eng topo in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 200 do
    Net.send net ~src:0 ~dst:1 (msg "maybe")
  done;
  Ksim.Engine.run eng;
  Alcotest.(check bool) "some lost" true (!got < 200);
  Alcotest.(check bool) "some arrive" true (!got > 0);
  Alcotest.(check bool) "roughly half" true (abs (!got - 100) < 40)

let test_crash_accounts_inflight () =
  (* sent = delivered + dropped + in_flight must survive a crash that
     catches messages on the wire. *)
  let eng, _, net = mk () in
  Net.set_handler net 3 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:3 (msg "doomed-1");
  Net.send net ~src:0 ~dst:3 (msg "doomed-2");
  ignore
    (Ksim.Engine.schedule eng ~after:(Time.ms 1) (fun () ->
         let s = Edge.stats (Net.edge net) in
         Alcotest.(check int) "on the wire" 2 s.in_flight;
         Alcotest.(check int) "nothing dropped yet" 0 s.dropped;
         Edge.crash (Net.edge net) 3;
         let s = Edge.stats (Net.edge net) in
         Alcotest.(check int) "crash folds in-flight into dropped" 2 s.dropped;
         Alcotest.(check int) "nothing left in flight" 0 s.in_flight));
  Ksim.Engine.run eng;
  let s = Edge.stats (Net.edge net) in
  Alcotest.(check int) "sent" 2 s.sent;
  Alcotest.(check int) "delivered" 0 s.delivered;
  Alcotest.(check int) "conservation" s.sent
    (s.delivered + s.dropped + s.in_flight)

let test_no_stale_delivery_after_recover () =
  (* A message in flight at crash time must not leak into the node after
     it recovers (it was already accounted as dropped). *)
  let eng, _, net = mk () in
  let got = ref 0 in
  Net.set_handler net 3 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:3 (msg "stale");
  ignore (Ksim.Engine.schedule eng ~after:(Time.ms 1) (fun () -> Edge.crash (Net.edge net) 3));
  ignore (Ksim.Engine.schedule eng ~after:(Time.ms 2) (fun () -> Edge.recover (Net.edge net) 3));
  Ksim.Engine.run eng;
  Alcotest.(check int) "pre-crash message never delivered" 0 !got;
  let s = Edge.stats (Net.edge net) in
  Alcotest.(check int) "counted once, as dropped" 1 s.dropped;
  Alcotest.(check int) "conservation" s.sent
    (s.delivered + s.dropped + s.in_flight)

(* ----------------------------- Accounting -------------------------- *)

let test_stats_and_kinds () =
  let eng, _, net = mk () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 (msg ~size:10 "a");
  Net.send net ~src:0 ~dst:1 (msg ~size:20 "a");
  Net.send net ~src:0 ~dst:1 (msg ~size:30 "b");
  Ksim.Engine.run eng;
  let stats = Edge.stats (Net.edge net) in
  Alcotest.(check int) "sent" 3 stats.sent;
  Alcotest.(check int) "delivered" 3 stats.delivered;
  Alcotest.(check int) "bytes" 60 stats.bytes_sent;
  Alcotest.(check (list (pair string int))) "kinds" [ ("a", 2); ("b", 1) ]
    stats.by_kind;
  Edge.reset_stats (Net.edge net);
  Alcotest.(check int) "reset" 0 (Edge.stats (Net.edge net)).sent

let test_reset_stats_with_traffic_in_flight () =
  (* Resetting the window while messages are on the wire must not break
     conservation: in-flight messages stay counted as sent in the new
     window, so when they land they balance as delivered (or dropped),
     never as delivered-without-sent. *)
  let eng, _, net = mk () in
  Net.set_handler net 3 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:3 (msg "landed");
  Ksim.Engine.run eng;
  Net.send net ~src:0 ~dst:3 (msg "mid-air");
  Net.send net ~src:0 ~dst:3 (msg "mid-air");
  let before = Edge.stats (Net.edge net) in
  Alcotest.(check int) "two in flight at reset" 2 before.in_flight;
  Edge.reset_stats (Net.edge net);
  let s0 = Edge.stats (Net.edge net) in
  Alcotest.(check int) "window cleared of landed traffic" 0 s0.delivered;
  Alcotest.(check int) "conservation at reset" s0.sent
    (s0.delivered + s0.dropped + s0.in_flight);
  Ksim.Engine.run eng;
  let s1 = Edge.stats (Net.edge net) in
  Alcotest.(check int) "in-flight landed in the new window" 2 s1.delivered;
  Alcotest.(check int) "conservation after landing" s1.sent
    (s1.delivered + s1.dropped + s1.in_flight)

let test_trace () =
  let eng, _, net = mk () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  let traced = ref [] in
  Net.set_trace net (fun _t ~src ~dst m -> traced := (src, dst, m.Msg.label) :: !traced);
  Net.send net ~src:0 ~dst:1 (msg "x");
  Net.clear_trace net;
  Net.send net ~src:0 ~dst:1 (msg "y");
  Ksim.Engine.run eng;
  Alcotest.(check (list (triple int int string))) "only traced while set"
    [ (0, 1, "x") ] !traced

let test_deterministic_delivery_times () =
  let run () =
    let eng, _, net = mk ~seed:33 () in
    let times = ref [] in
    Net.set_handler net 3 (fun ~src:_ _ -> times := Ksim.Engine.now eng :: !times);
    for _ = 1 to 10 do
      Net.send net ~src:0 ~dst:3 (msg "t")
    done;
    Ksim.Engine.run eng;
    !times
  in
  Alcotest.(check (list int)) "same seed same jitter" (run ()) (run ())

let () =
  Alcotest.run "knet"
    [
      ( "topology",
        [
          Alcotest.test_case "clusters" `Quick test_topology_clusters;
          Alcotest.test_case "profiles" `Quick test_topology_profiles;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "lan vs wan" `Quick test_lan_vs_wan_latency;
          Alcotest.test_case "bandwidth" `Quick test_serialisation_delay;
          Alcotest.test_case "local send" `Quick test_local_send;
          Alcotest.test_case "no handler" `Quick test_no_handler_drops;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash" `Quick test_crash_blocks_delivery;
          Alcotest.test_case "crashed source" `Quick test_crashed_source_cannot_send;
          Alcotest.test_case "in-flight loss" `Quick test_inflight_lost_on_crash;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "partition symmetric" `Quick test_partition_is_symmetric;
          Alcotest.test_case "loss model" `Quick test_loss;
          Alcotest.test_case "crash accounting" `Quick test_crash_accounts_inflight;
          Alcotest.test_case "no stale delivery" `Quick
            test_no_stale_delivery_after_recover;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats and kinds" `Quick test_stats_and_kinds;
          Alcotest.test_case "reset with traffic in flight" `Quick
            test_reset_stats_with_traffic_in_flight;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "deterministic" `Quick test_deterministic_delivery_times;
        ] );
    ]
