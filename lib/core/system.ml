module Topology = Knet.Topology

type t = {
  engine : Ksim.Engine.t;
  topology : Topology.t;
  transport : Wire.Transport.t;  (* what daemons hold: the RPC core *)
  net : Wire.Transport.Net.t;    (* the simulated network under it *)
  daemons : Daemon.t array;
}

let engine t = t.engine
let topology t = t.topology
let transport t = t.transport
let net t = t.net

let daemon t node =
  if node < 0 || node >= Array.length t.daemons then
    invalid_arg "System.daemon: bad node";
  t.daemons.(node)

let daemons t = Array.to_list t.daemons
let node_count t = Array.length t.daemons
let now t = Ksim.Engine.now t.engine

let client t node ?principal () =
  Client.connect (daemon t node) ~principal:(Option.value principal ~default:node)

(* Drive the engine until a fiber completes; a quiescent queue with the
   fiber still pending is a deadlock in the system under test. The failure
   message carries enough state to debug it without a rerun. *)
let run_fiber ?(name = "run_fiber") t f =
  let p = Ksim.Fiber.async t.engine ~name f in
  while (not (Ksim.Promise.is_resolved p)) && Ksim.Engine.step t.engine do
    ()
  done;
  match Ksim.Promise.peek p with
  | Some v -> v
  | None ->
    let down =
      Array.to_list t.daemons
      |> List.filter_map (fun d ->
             if Daemon.is_up d then None else Some (string_of_int (Daemon.id d)))
    in
    failwith
      (Printf.sprintf
         "System.run_fiber: simulation went quiescent (deadlock) with fiber \
          %S still blocked at t=%dns; %d RPC call(s) pending; down nodes: \
          [%s]"
         name (Ksim.Engine.now t.engine)
         (Wire.Transport.pending_calls t.transport)
         (String.concat "," down))

let run_until_quiet ?(limit = Ksim.Time.sec 60) t =
  Ksim.Engine.run ~until:(Ksim.Engine.now t.engine + limit) t.engine

let crash t node = Daemon.crash (daemon t node)
let recover t node = Daemon.recover (daemon t node)
let set_disk_faults t node faults = Daemon.set_disk_faults (daemon t node) faults

let faults t = Wire.Transport.faults t.transport
let partition t a b = Knet.Edge.partition (faults t) a b
let heal t = Knet.Edge.heal (faults t)

let set_frame_faults t ?seed ?drop ?duplicate ?delay () =
  Knet.Edge.set_frame_faults (faults t) ?seed ?drop ?duplicate ?delay ()

let clear_frame_faults t = Knet.Edge.set_frame_faults (faults t) ()

let create ?(seed = 42) ?config ~nodes_per_cluster ~clusters () =
  let engine = Ksim.Engine.create ~seed () in
  let topology = Topology.symmetric ~nodes_per_cluster ~clusters in
  let transport, net = Wire.Transport.sim engine topology in
  let bootstrap = 0 in
  let manager_of node =
    (* The first node of each cluster manages it. *)
    Topology.cluster_of topology node * nodes_per_cluster
  in
  let all_managers =
    List.init clusters (fun c -> c * nodes_per_cluster)
  in
  let daemons =
    Array.init (Topology.node_count topology) (fun id ->
        Daemon.create ?config ~peer_managers:all_managers ~id ~bootstrap
          ~cluster_manager:(manager_of id) transport)
  in
  let t = { engine; topology; transport; net; daemons } in
  run_fiber ~name:"bootstrap" t (fun () -> Daemon.bootstrap_map daemons.(bootstrap));
  t
