(* Failure detector: this node's view of who is currently unresponsive.

   Fed by cluster-manager hints (heartbeat ageing) and by our own RPC
   timeouts; cleared by any direct sign of life. Crashed and partitioned
   nodes look the same here — both just go silent — so suspicion is a
   hint that orders and fails fast, never a liveness oracle. The table
   knows nothing of the transport: the daemon feeds it evidence and sends
   whatever broadcast {!tick} asks for. *)

module Topology = Knet.Topology
module Metrics = Ktrace.Metrics

type t = {
  self : Topology.node_id;
  metrics : Metrics.t;
  suspected : (Topology.node_id, unit) Hashtbl.t;
  strikes : (Topology.node_id, int) Hashtbl.t;  (* consecutive rpc timeouts *)
  mutable last_hint : Topology.node_id list;  (* manager: last broadcast *)
}

let create ~self metrics =
  { self; metrics; suspected = Hashtbl.create 8; strikes = Hashtbl.create 8;
    last_hint = [] }

let suspects t =
  Hashtbl.fold (fun n () acc -> n :: acc) t.suspected [] |> List.sort compare

let is_suspect t n = Hashtbl.mem t.suspected n

let suspect t n =
  if n <> t.self && not (Hashtbl.mem t.suspected n) then begin
    Hashtbl.replace t.suspected n ();
    Metrics.incr t.metrics "fd.suspect"
  end

(* Any direct sign of life trumps hints and strikes. *)
let clear t n =
  Hashtbl.remove t.strikes n;
  if Hashtbl.mem t.suspected n then begin
    Hashtbl.remove t.suspected n;
    Metrics.incr t.metrics "fd.clear"
  end

(* One RPC timeout is weak evidence (the peer may be slow, the reply may
   have been lost); two in a row with nothing heard in between is enough
   to suspect. *)
let strike t n =
  let k = 1 + Option.value (Hashtbl.find_opt t.strikes n) ~default:0 in
  Hashtbl.replace t.strikes n k;
  if k >= 2 then suspect t n

(* Order location candidates so suspected nodes are asked last, never
   skipped: suspicion is a hint, and liveness must survive a wrong one. *)
let prioritise_live t nodes =
  let live, dubious = List.partition (fun n -> not (is_suspect t n)) nodes in
  live @ dubious

(* Adopt a manager's suspicion list for one cluster's [members]: wholesale
   replace (suspect the listed, clear the rest). Local direct evidence
   still wins afterwards — any message from a wrongly suspected node
   clears it. *)
let adopt t ~src ~members sus =
  List.iter
    (fun n ->
      if n <> t.self && n <> src then
        if List.mem n sus then suspect t n else clear t n)
    members

(* Manager tick: age member heartbeats into a suspicion list and adopt it
   locally. Returns the list to broadcast: when it changed, and on every
   tick while anyone is suspected (so nodes that were partitioned or
   recovering when a change broadcast fired still converge); a quiet
   healthy cluster sends nothing. *)
let tick t cm ~now ~timeout ~members =
  let sus = Cluster.suspects cm ~now ~timeout in
  List.iter (fun n -> if List.mem n sus then suspect t n else clear t n) members;
  if sus <> t.last_hint || sus <> [] then begin
    t.last_hint <- sus;
    Some sus
  end
  else None

(* Suspicion state is soft: a rebooted node re-learns it. *)
let reset t =
  Hashtbl.reset t.suspected;
  Hashtbl.reset t.strikes;
  t.last_hint <- []
