(** Cluster-manager role state.

    "Each cluster has one or more designated cluster managers, nodes
    responsible for being aware of other cluster locations, caching hint
    information about regions stored in the local cluster, and representing
    the local cluster during inter-cluster communication." The manager also
    parcels unreserved address space into 1 GiB chunks for member nodes and
    tracks hints about their free pools. *)

type t

val create : cluster_id:int -> t
(** Manager state for one cluster; the id selects the cluster's slice of
    the global address space. *)

val next_chunk : t -> Kutil.Gaddr.t * int
(** Hand out the next unreserved chunk of this cluster's address slice. *)

val record_report :
  ?now:Ksim.Time.t ->
  t ->
  node:Knet.Topology.node_id ->
  regions:Region.t list ->
  free_bytes:int ->
  int
(** Refresh hints from a member's periodic report: which regions it caches
    or homes, and how much unreserved pool it still holds. The report
    replaces the member's earlier claims wholesale; a base listed twice
    counts once. When [now] is given the report also counts as a
    heartbeat.

    Returns the claims the report changed: bases the member did not claim
    before, plus bases it claimed before and no longer lists (an unchanged
    report returns 0). The manager's work is proportional to the report
    and those dropped claims, not to the number of hints it holds. *)

(** {1 Failure detection}

    Reports double as heartbeats: a member whose last report (or other
    direct evidence of life) is older than the suspicion timeout is
    suspected — crashed and partitioned nodes look identical here, which
    is the point. *)

val heartbeat : t -> node:Knet.Topology.node_id -> now:Ksim.Time.t -> unit
(** Direct evidence that [node] was alive at [now]. *)

val suspects : t -> now:Ksim.Time.t -> timeout:Ksim.Time.t -> Knet.Topology.node_id list
(** Members whose last heartbeat is more than [timeout] ago, sorted.
    Nodes never heard from are not listed — seed them with {!heartbeat}
    when the manager starts so silence eventually shows up. *)

val lookup :
  t -> Kutil.Gaddr.t -> (Region.t option * Knet.Topology.node_id list)
(** Hint answer for "is the region containing this address cached in this
    cluster, and by whom?": one predecessor search by base.

    The descriptor is the one the hint's first claimant reported; a later
    claimant's different descriptor for the same base does not replace it
    while anyone still claims the base. The holders are the members whose
    latest report lists the base, most recent reporter first.

    Hints change only with reports. A crashed member's claims stay, and it
    stays among the holders, until its first report after it restarts
    replaces them; a member that never comes back keeps them. *)

val free_bytes_hint : t -> (Knet.Topology.node_id * int) list
(** Last reported unreserved pool size per member. *)

val chunks_granted : t -> int
(** How many chunks {!next_chunk} has handed out. *)
