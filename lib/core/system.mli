(** Whole-system builder: engine + topology + transport + daemons.

    Reproduces Figure 1's shape: a set of peer Khazana nodes, possibly
    spread over several clusters with WAN links between them, with node 0 as
    the bootstrap (home of the address map) and the first node of each
    cluster as that cluster's manager. *)

type t

val create :
  ?seed:int ->
  ?config:Daemon.config ->
  nodes_per_cluster:int ->
  clusters:int ->
  unit ->
  t
(** Build and bootstrap a system; returns once the address map root exists
    and the simulation is quiescent. *)

val engine : t -> Ksim.Engine.t
(** The simulation engine everything runs on. *)

val topology : t -> Knet.Topology.t
(** Cluster/link layout. *)

val transport : t -> Wire.Transport.t
(** The transport daemons speak through (e.g. for [set_coalescing] and
    traffic {!Wire.Transport.stats} in benches). *)

val net : t -> Wire.Transport.Net.t
(** The simulated network under the transport, for its trace tap. Its
    traffic counters and fault knobs are the transport's
    ({!Wire.Transport.stats}, {!Wire.Transport.faults}). *)

val daemon : t -> Knet.Topology.node_id -> Daemon.t
(** The node's daemon. *)

val daemons : t -> Daemon.t list
(** Every daemon, in node-id order. *)

val node_count : t -> int
(** Total nodes ([nodes_per_cluster × clusters]). *)

val client : t -> Knet.Topology.node_id -> ?principal:int -> unit -> Client.t
(** Connect a client application process to the daemon on a node. The
    principal defaults to the node id. *)

val run_fiber : ?name:string -> t -> (unit -> 'a) -> 'a
(** Run a fiber to completion, driving the simulation as needed. Raises
    [Failure] if the simulation goes quiescent with the fiber still blocked
    (deadlock); the message names the blocked fiber and reports the sim
    time, pending RPC count and currently-down nodes. This is the main
    entry point for tests and examples. *)

val run_until_quiet : ?limit:Ksim.Time.t -> t -> unit
(** Drain all pending simulation work (bounded by [limit] of additional
    virtual time, default 60 s). *)

val now : t -> Ksim.Time.t
(** Current simulated time. *)

(** {1 Failure injection} *)

val crash : t -> Knet.Topology.node_id -> unit
(** Crash a node: RAM (and pins) lost, disk kept subject to the fault
    model, links down, in-flight operations abandoned. *)

val recover : t -> Knet.Topology.node_id -> unit
(** Bring a crashed node back: scrub torn disk frames, replay the WAL,
    rejoin the cluster. *)

(** Install (or clear, with {!Kstorage.Disk_fault.none}) the disk fault
    model on one node's page store and intent log. *)
val set_disk_faults : t -> Knet.Topology.node_id -> Kstorage.Disk_fault.config -> unit

val partition : t -> Knet.Topology.node_id list -> Knet.Topology.node_id list -> unit
(** Cut the network between the two groups (both directions). *)

val heal : t -> unit
(** Remove every partition. *)

val set_frame_faults :
  t -> ?seed:int -> ?drop:float -> ?duplicate:float -> ?delay:float ->
  unit -> unit
(** Arm the simulated network's seeded frame-fault shim (drop, duplicate,
    extra delay per remote envelope) through the transport's [faults]:
    the same {!Knet.Edge.set_frame_faults} a socket endpoint's edge
    takes. *)

val clear_frame_faults : t -> unit
