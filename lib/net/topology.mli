(** Network topology: nodes grouped into clusters of nearby machines.

    The paper's Khazana organises nodes into "groups of closely-connected
    nodes called clusters"; links within a cluster behave like a LAN, links
    between clusters like a WAN. *)

type node_id = int

type link_profile = {
  base_latency : Ksim.Time.t;  (** propagation delay *)
  jitter : Ksim.Time.t;        (** uniform extra delay in [0, jitter) *)
  bandwidth_bps : float;       (** bytes per second; serialisation delay *)
  loss : float;                (** independent drop probability in [0,1] *)
}

val lan_default : link_profile
(** ~150us RTT/2, 1 Gb/s: mid-90s switched Ethernet. *)

val wan_default : link_profile
(** ~30ms one-way, 10 Mb/s: the paper's "slow or intermittent WAN links". *)

type t

val create : clusters:int array -> t
(** [create ~clusters] builds a topology where node [i] belongs to cluster
    [clusters.(i)]. Node ids are dense, [0 .. n-1]. *)

val symmetric : nodes_per_cluster:int -> clusters:int -> t
(** Convenience builder for a balanced topology. *)

val node_count : t -> int
val nodes : t -> node_id list
val cluster_of : t -> node_id -> int
val cluster_members : t -> int -> node_id list
val cluster_count : t -> int
val same_cluster : t -> node_id -> node_id -> bool

val set_lan : t -> link_profile -> unit
val set_wan : t -> link_profile -> unit

val profile : t -> node_id -> node_id -> link_profile
(** The link profile governing a [src -> dst] message. *)
